"""Tree-cotree homology/cohomology bases, class extraction, and copaths.

The basis construction: take a spanning tree T of the graph, then a
spanning tree T' of the dual avoiding the duals of T's edges.  The g
leftover edges Y index paired simple chains: f_e is the fundamental
cycle of e in T and K_e the fundamental cocycle of e in the cotree, with
f_e and K_e' pairing to the g x g identity matrix.  Both trees and the
dual trees that carry copaths come from one BFS over the arrays of one
side: (rot, tgt) for the graph and (faces, left) for the dual.  The
basis keeps its cotree, a spanning tree of the dual rooted at face 0,
and ``solver.flow_to_coloring`` decodes a flow along it; no other tree
is built to decode.
"""

from __future__ import annotations

from . import chains
from .chains import Chain1, pair
from .errors import NotACocycle


class CohomologyBasis:
    """Paired bases of the first homology and cohomology groups.

    Y lists g edge ids (by canonical half-edge), and cycles[i],
    cocycles[i] are the chains paired with Y[i]; both take value 1 on
    the canonical half-edge Y[i].  cotree is the ``_bfs_tree`` result
    (parent_arc, order) of the cotree, which spans the dual from face 0.
    """

    __slots__ = ("map", "Y", "cycles", "cocycles", "cotree")

    def __init__(self, m, Y, cycles, cocycles, cotree):
        self.map = m
        self.Y = Y
        self.cycles = cycles
        self.cocycles = cocycles
        self.cotree = cotree

    def __len__(self):
        return len(self.Y)

    def combination(self, z):
        """The cocycle sum_i z[i] * K_i."""
        out = Chain1(self.map)
        for zi, k in zip(z, self.cocycles):
            if zi:
                out = out + zi * k
        return out


def _bfs_tree(m, cycles, head, root, excluded=frozenset()):
    """BFS spanning tree of the graph (cycles, head = m.rot, m.tgt) or of
    the dual (m.faces, m.left), skipping the edges in excluded (by
    canonical half-edge).  Node v tries the half-edges h of cycles[v] in
    ascending id; h points into v, so it is the arc from head[opp(h)]
    toward v.  Returns (parent_arc, order): parent_arc[w] is the arc that
    discovered w (None at the root and at unreached nodes), so walking
    parent arcs ascends to the root, and order lists the reached nodes in
    BFS order, the root first and each node after its parent.
    """
    opp = m.opp
    parent_arc = [None] * len(cycles)
    seen = [False] * len(cycles)
    seen[root] = True
    queue = [root]
    for v in queue:
        for h in sorted(cycles[v]):
            o = opp[h]
            w = head[o]
            if not seen[w] and (h if h < o else o) not in excluded:
                seen[w] = True
                parent_arc[w] = h
                queue.append(w)
    return parent_arc, queue


def _walk_to_root(parent_arc, head, node):
    """The parent arcs from node up to the root; head is m.tgt for the
    primal tree and m.left for the dual tree."""
    hs = []
    while parent_arc[node] is not None:
        h = parent_arc[node]
        hs.append(h)
        node = head[h]
    return hs


def cohomology_basis(m):
    """Construct the paired tree-cotree basis of a map.

    Deterministic: both spanning trees are BFS trees rooted at id 0 with
    smallest-id tie-breaking, and each basis edge uses its canonical
    half-edge.
    """
    parent_v, _ = _bfs_tree(m, m.rot, m.tgt, 0)
    tree_edges = {m.canonical(h) for h in parent_v if h is not None}
    cotree = _bfs_tree(m, m.faces, m.left, 0, tree_edges)
    parent_f = cotree[0]
    cotree_edges = {m.canonical(h) for h in parent_f if h is not None}
    assert not (tree_edges & cotree_edges)

    Y = sorted(
        h for h in m.canonical_half_edges() if h not in tree_edges and h not in cotree_edges
    )
    assert len(Y) == m.euler_genus

    def fundamental(parent_arc, head, h):
        # h, then the tree path from head(h) up to the root and back down
        # to head(opp(h)), the node h leaves
        up = _walk_to_root(parent_arc, head, head[h])
        down = _walk_to_root(parent_arc, head, head[m.opp[h]])
        return chains.walk_chain(m, [h] + up + [m.opp[d] for d in reversed(down)])

    cycles = [fundamental(parent_v, m.tgt, h) for h in Y]
    cocycles = [fundamental(parent_f, m.left, h) for h in Y]
    return CohomologyBasis(m, Y, cycles, cocycles, cotree)


def homology_class(k, basis):
    """Coordinates of a cocycle over the basis: z[i] = pair(f_i, K)."""
    if not chains.is_cocycle(k):
        raise NotACocycle("homology_class requires a cocycle")
    return tuple(pair(f, k) for f in basis.cycles)


def copaths_from(m, x, targets):
    """Copaths from face x to each target face y, along a BFS dual tree
    rooted at x: {y: P(y)}, P(y) a 1-chain whose coboundary is y - x.

    Each tree step from face f1 to face f2 contributes the half-edge
    with left = f2; the returned chains are simple and the copath to x
    itself is the zero chain.  targets is read once, and the tree is
    built at the first target other than x, so a call whose targets are
    all x builds none.  Raises ValueError for a face outside the map.
    """
    chains.check_ids((x,), m.num_faces, "face")
    parent_f = None
    out = {}
    for y in targets:
        chains.check_ids((y,), m.num_faces, "face")
        if y == x:
            out[y] = Chain1(m)
            continue
        if parent_f is None:
            parent_f, _ = _bfs_tree(m, m.faces, m.left, x)
        hs = _walk_to_root(parent_f, m.left, y)
        # hs walks y -> x; each parent arc has left = the face nearer x,
        # so flip each half-edge to point along x -> y instead.
        out[y] = chains.walk_chain(m, [m.opp[h] for h in hs])
    return out
