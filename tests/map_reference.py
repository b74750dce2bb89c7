"""Reference oracles on combinatorial maps that the package itself never
calls: orientation-preserving isomorphism by canonical traversal codes,
the rotation successor and loop test of a half-edge, the 2-coboundary of
one vertex, and the 1-boundary test of a cycle.  Tests check the map
builder, duality, the chain operators and the homology basis against
them."""

from surfcolor import chains
from surfcolor.chains import pair
from surfcolor.errors import SurfcolorError


class NotACycle(SurfcolorError):
    pass


def rot_next(m, h):
    """Successor of h in the rotation at tgt(h)."""
    cyc = m.rot[m.tgt[h]]
    return cyc[(cyc.index(h) + 1) % len(cyc)]


def is_loop(m, h):
    return m.tgt[h] == m.tgt[m.opp[h]]


def _canonical_form(m, root):
    """Canonical labelling of an oriented rooted map, as a traversal code."""
    label = {root: 0}
    order = [root]
    code = []
    i = 0
    while i < len(order):
        h = order[i]
        i += 1
        for nxt in (m.opp[h], rot_next(m, h)):
            if nxt not in label:
                label[nxt] = len(order)
                order.append(nxt)
            code.append(label[nxt])
    return tuple(code)


def is_isomorphic(m1, m2):
    """Orientation-preserving isomorphism of connected maps.

    Compares canonical forms: m2 is canonicalized from one fixed root and
    m1 from every possible root.
    """
    if (
        m1.half_edge_count != m2.half_edge_count
        or m1.num_vertices != m2.num_vertices
        or m1.num_faces != m2.num_faces
    ):
        return False
    if m1.half_edge_count == 0:
        return True
    ref = _canonical_form(m2, 0)
    return any(_canonical_form(m1, r) == ref for r in m1.half_edges())


def vertex_coboundary(m, v):
    """The 2-coboundary of a single vertex v as a 1-chain."""
    return chains.walk_chain(m, m.rot[v])


def is_1boundary(f, basis):
    """A 1-cycle is a boundary iff it pairs to zero with every basis cocycle."""
    if not chains.is_cycle(f):
        raise NotACycle("is_1boundary requires a 1-cycle")
    return all(pair(f, k) == 0 for k in basis.cocycles)
