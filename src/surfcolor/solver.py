"""Precoloring extension to homomorphisms into odd cycles.

A homomorphism of a surface-embedded graph H into the odd cycle C_m is
equivalent to a nowhere-zero flow on the dual whose boundary and basis
pairings vanish mod m and whose copath pairings match the prescribed
color differences.  The solver streams the finitely many relevant
boundaries, realizes each by a nowhere-zero flow, and searches the
homology lattice for a circulation correcting all residues at once.
"""

from __future__ import annotations

from . import chains, flows, homology, lattice, surface_map
from .chains import Chain1, pair
from .errors import DivisibilityViolation, NotAHomomorphism


class Precoloring:
    """A partial mapping of the vertices of H into {0, ..., m-1}."""

    __slots__ = ("m", "psi")

    def __init__(self, m, psi=None):
        surface_map.check_modulus(m)
        self.m = m
        self.psi = dict(psi) if psi else {}
        for v, c in self.psi.items():
            if not (0 <= c < m):
                raise ValueError("color %r out of range at vertex %r" % (c, v))

    def __repr__(self):
        return "Precoloring(m=%d, psi=%r)" % (self.m, self.psi)


class ColoringResult:
    """Outcome of extend_precoloring."""

    __slots__ = (
        "extendable",
        "coloring",
        "witness_boundary",
        "boundaries_tried",
        "points_tested",
        "points_cut",
        "reason",
    )

    def __init__(
        self,
        extendable,
        coloring=None,
        witness_boundary=None,
        boundaries_tried=0,
        points_tested=0,
        points_cut=0,
        reason=None,
    ):
        self.extendable = extendable
        self.coloring = coloring
        self.witness_boundary = witness_boundary
        self.boundaries_tried = boundaries_tried
        self.points_tested = points_tested
        self.points_cut = points_cut
        self.reason = reason

    def __repr__(self):
        tag = "Extendable" if self.extendable else "NotExtendable"
        return "ColoringResult(%s, boundaries=%d, points=%d)" % (
            tag,
            self.boundaries_tried,
            self.points_tested,
        )


def verify_homomorphism(h_map, m, phi, psi=None):
    """True iff phi maps every edge of H to an edge of C_m (endpoint
    colors differ by exactly +-1 mod m) and extends psi when given."""
    for h in h_map.canonical_half_edges():
        u, v = h_map.tgt[h], h_map.tgt[h_map.opp[h]]
        if (phi[u] - phi[v]) % m not in (1, m - 1):
            return False
    if psi:
        for v, c in psi.items():
            if phi[v] != c:
                return False
    return True


def coloring_to_flow(h_map, phi, m, dual_map=None):
    """The nowhere-zero dual flow of a homomorphism phi: V(H) -> C_m.

    On each dual half-edge the flow is the unique value in {-1, 1}
    congruent to the color difference across the edge.  The returned
    flow has boundary divisible by m and pairs to 0 mod m with every
    cocycle.
    """
    g = dual_map if dual_map is not None else surface_map.dual(h_map)
    coeffs = {}
    for h in g.canonical_half_edges():
        diff = (phi[g.left[h]] - phi[g.left[g.opp[h]]]) % m
        if diff == 1:
            coeffs[h] = 1
        elif diff == m - 1:
            coeffs[h] = -1
        else:
            raise NotAHomomorphism(
                "colors across half-edge %d differ by %d mod %d" % (h, diff, m)
            )
    return flows.Flow(Chain1(g, coeffs))


def flow_to_coloring(g, f, m, anchor, basis=None):
    """Decode a nowhere-zero flow on g into a coloring of its faces.

    anchor is a pair (face, color).  Requires the flow boundary and all
    basis pairings to vanish mod m; the color of face y is then
    anchor color + pair(f, P(y)) mod m, independent of the copaths.  The
    colors are read off a potential walk over a BFS tree of the dual: a
    step from face v to face w across half-edge h (left = v) adds the
    flow f[opp(h)] that the copath step to w pairs with.
    """
    x, c0 = anchor
    fchain = f.chain if hasattr(f, "chain") else f
    d = chains.boundary1(fchain)
    for v, c in d.items():
        if c % m != 0:
            raise DivisibilityViolation("flow boundary not divisible by %d at %d" % (m, v))
    if basis is None:
        basis = homology.cohomology_basis(g)
    for k in basis.cocycles:
        if pair(fchain, k) % m != 0:
            raise DivisibilityViolation("basis pairing not divisible by %d" % m)
    color = [None] * g.num_faces
    color[x] = c0 % m
    queue = [x]
    for v in queue:
        for h in g.faces[v]:
            o = g.opp[h]
            w = g.left[o]
            if color[w] is None:
                color[w] = (color[v] + fchain[o]) % m
                queue.append(w)
    return dict(enumerate(color))


def extend_precoloring(h_map, pre):
    """Decide whether the precoloring extends to a homomorphism of H into
    the odd cycle C_m, and produce a verified one when it does."""
    m = pre.m
    for v in pre.psi:
        if not (0 <= v < h_map.num_vertices):
            raise ValueError("precolored vertex %r not in the map" % (v,))

    # loops are never homomorphic to a cycle; adjacent precolored vertices
    # must already be C_m-adjacent
    for h in h_map.canonical_half_edges():
        u, v = h_map.tgt[h], h_map.tgt[h_map.opp[h]]
        if u == v:
            return ColoringResult(False, reason="loop at vertex %d" % u)
        if u in pre.psi and v in pre.psi:
            if (pre.psi[u] - pre.psi[v]) % m not in (1, m - 1):
                return ColoringResult(
                    False, reason="precolored edge %d-%d not an edge of C_%d" % (u, v, m)
                )

    g = surface_map.dual(h_map)
    psi = dict(pre.psi)
    if not psi:
        psi[0] = 0
    x = min(psi)
    S = tuple(sorted(psi))
    r = {y: (psi[y] - psi[x]) % m for y in S}

    basis = homology.cohomology_basis(g)
    copaths = homology.copaths_from(g, x, S)
    half = (m + 1) // 2

    boundaries_tried = 0
    stats = lattice.SearchStats()
    for d in flows.relevant_boundaries(g, m):
        boundaries_tried += 1
        f0 = flows.nowhere_zero_flow_with_boundary(g, d)
        if f0 is None:
            continue
        r0 = [(half * pair(f0.chain, k)) % m for k in basis.cocycles]
        r0_prime = {
            y: (half * (pair(f0.chain, copaths[y].chain) - r[y])) % m
            for y in S
            if y != x
        }
        spec = lattice.ResidueSpec(m, r0, r0_prime)
        c = lattice.find_constrained_circulation(
            g, basis, f0, spec, S, x, copaths, stats=stats
        )
        if c is None:
            continue
        f = flows.Flow(f0.chain - 2 * c.chain)
        assert f.nowhere_zero
        phi = flow_to_coloring(g, f, m, (x, psi[x]), basis=basis)
        # soundness is checked unconditionally, not only in test builds
        if not verify_homomorphism(h_map, m, phi, pre.psi):
            raise AssertionError("produced coloring failed verification")
        return ColoringResult(
            True,
            coloring=phi,
            witness_boundary=d,
            boundaries_tried=boundaries_tried,
            points_tested=stats.points_tested,
            points_cut=stats.points_cut,
        )
    return ColoringResult(
        False,
        boundaries_tried=boundaries_tried,
        points_tested=stats.points_tested,
        points_cut=stats.points_cut,
    )
