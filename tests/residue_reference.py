"""The two-step reference for the residue-layered pass of the lattice
search: ``rhs_table`` runs one shortest-path call per face of S for the
right-hand sides beta(y, y'), and ``residue_difference_solve`` then
solves the difference system over S.  Tests compare
``lattice.layered_residue_solve`` and the whole search against them."""

from surfcolor import circulation
from surfcolor.chains import pair
from surfcolor.circulation import HomologyTarget
from surfcolor.errors import SurfcolorError
from surfcolor.paths import shortest_paths


class AnchorOutsidePolytope(SurfcolorError):
    pass


def rhs_table(m, basis, f, a, S, x, copaths):
    """The right-hand sides beta(y, y') of the inequalities
    a'(y') - a'(y) <= beta(y, y') of the precolored sub-polytope, as a
    dict keyed by (y, y'), for an integral anchor a inside the polytope:
    beta(y, y') = pair(b, P(y')) - pair(b, P(y)) + dist(y, y')
    where b realizes the anchor pairings and dist runs over the dual with
    the repair lengths, one shortest-path call per element of S.

    Raises AnchorOutsidePolytope when the lengths admit a negative cycle.
    Reference for tests: the search calls ``layered_residue_solve``.
    """
    target = HomologyTarget(a, (x,), x, {x: copaths[x]}, {x: 0})
    b = circulation.prescribed_cycle(m, basis, target)
    lengths = circulation.patched_network(m, circulation.base_network(m, f), b)
    pairings = {y: pair(b, copaths[y]) for y in S}
    ys = sorted(S)
    beta = {}
    for y in ys:
        dist, _, cyc = shortest_paths(m.num_faces, m.dual_arcs(), lengths, (y,))
        if cyc is not None:
            raise AnchorOutsidePolytope("anchor admits a negative dual cycle")
        for y2 in ys:
            beta[(y, y2)] = pairings[y2] - pairings[y] + dist[y2]
    return beta


def residue_difference_solve(S, x, m, d, r):
    """Find ell: S -> Z with ell(x) = 0, ell(y') - ell(y) <= d(y, y') and
    ell(y) = r(y) (mod m), or None when the system is infeasible.

    Each bound is first tightened to the largest value congruent to the
    required residue difference; shortest distances from x over the
    complete digraph on S, by the ``paths.shortest_paths`` kernel, then
    solve the difference constraints, and a negative cycle means none.
    Reference for tests: the search calls ``layered_residue_solve``.
    """
    nodes = sorted(S)
    out = []
    length = []
    for y in nodes:
        arcs = []
        for j, y2 in enumerate(nodes):
            base = d[(y, y2)]
            tight = base - ((base - (r[y2] - r[y])) % m)
            if y == y2:
                if tight < 0:
                    return None
            else:
                arcs.append((j, len(length)))
                length.append(tight)
        out.append(arcs)

    dist, _, cyc = shortest_paths(len(nodes), out, length, (nodes.index(x),))
    if cyc is not None:
        return None
    ell = dict(zip(nodes, dist))
    if __debug__:
        assert ell[x] == 0
        for y in nodes:
            assert (ell[y] - r[y]) % m == 0
            for y2 in nodes:
                assert ell[y2] - ell[y] <= d[(y, y2)]
    return ell
