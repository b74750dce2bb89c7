"""The allowed-homology polytope: membership oracle, coordinate bounds,
the residue-layered solver for the precolored sub-polytope, and the
lattice search for circulations with prescribed residues.

At each box point u the search needs labels ell: S -> Z with prescribed
residues mod m that some circulation of pairings (u, ell) can take as
its copath pairings.  ``layered_residue_solve`` finds the largest such
labels, or proves there are none, with one shortest-path run over m
residue copies of the repair network; a negative cycle means that u is
outside the polytope or that the residue system has no solution there,
so the pass is the search's only test of a box point, and the
circulation engine runs once, to extract the circulation at the point
that passes.  ``rhs_table`` and ``residue_difference_solve`` do the
pass's work in two steps (one run per face of S, then a difference
system over S); they are kept as the reference for tests.

One search keeps one ``SearchState`` for its fixed f and residue system:
the f-part of the repair network, built once and patched at each box
point, and one list of integer cuts (z, rhs), each answering the pass at
every later box point u' with <z, u'> > rhs without running it.  When
the pass at a box point u finds a negative cycle W, W gives the cut
(z, P + D):
- every box point of one search is congruent to u mod m, because
  ``lex_box_points`` steps by m, and the layered pass uses the same
  modulus;
- at a box point the repair network of the one-face target is f+ - b with
  b = sum of u_i C_i over the basis cycles, so going from u to u' changes
  each arc length f+[h] - b[h] by a multiple of m; it leaves
  pair(b, P(y)) mod m unchanged, and so every k(y);
- so the layered graph is the same at every box point of the search (the
  same nodes, arcs, heads and drop lengths); only the lengths of the base
  arcs shift;
- the length of W at u' is P + D - <z, u'>, where P is the sum of the
  f+-parts of W's base arcs, D the sum of its drops and z_i the sum of
  C_i[h] over the base arcs h of W;
- so W stays negative at u' whenever <z, u'> > P + D, and stays
  reachable from (x, 0), because the graph is unchanged: the pass at u'
  fails too.
The argument never asks whether u is inside the polytope, so a pass at
an outside point keeps a cut like any other.  A cycle free of drops
(D = 0) is then a negative closed dual walk, and (z, P) is also the
certificate inequality <z, a> <= P of the whole polytope: every
circulation c of f pairs with the walk to <z, a(c)>, and to at most P
since c lies between 0 and f.  A cut depends on S, x, the copaths, the
modulus and the residues r as well as f, so it is kept for one residue
system only.

All arithmetic is exact: rational queries are scaled to integers by the
lcm of their denominators and handed to the circulation engine.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from . import chains, circulation, homology
from .chains import pair, pair_plus
from .circulation import Circulation, HomologyTarget
from .errors import AnchorOutsidePolytope, BudgetExceeded
from .paths import shortest_paths


class HomologyPoint:
    """A rational candidate point: u over the basis, u_prime over S."""

    __slots__ = ("u", "u_prime")

    def __init__(self, u, u_prime):
        self.u = tuple(Fraction(c) for c in u)
        self.u_prime = {y: Fraction(c) for y, c in u_prime.items()}

    def __repr__(self):
        return "HomologyPoint(u=%r, u_prime=%r)" % (self.u, self.u_prime)


class Separator:
    """An integer vector (z, z_prime) cutting the query off the polytope:
    <(z, z'), (a, a')> <= rhs < <(z, z'), (u, u')> for all members (a, a')."""

    __slots__ = ("z", "z_prime", "rhs")

    def __init__(self, z, z_prime, rhs):
        self.z = tuple(z)
        self.z_prime = dict(z_prime)
        self.rhs = rhs

    def dot(self, u, u_prime):
        return sum(zi * ui for zi, ui in zip(self.z, u)) + sum(
            zv * u_prime.get(y, 0) for y, zv in self.z_prime.items()
        )

    def __repr__(self):
        return "Separator(z=%r, z_prime=%r, rhs=%r)" % (self.z, self.z_prime, self.rhs)


class ResidueSpec:
    """Prescribed residues modulo an odd m for the lattice search."""

    __slots__ = ("m", "r0", "r0_prime")

    def __init__(self, m, r0, r0_prime):
        self.m = m
        self.r0 = tuple(c % m for c in r0)
        self.r0_prime = {y: c % m for y, c in r0_prime.items()}

    def __repr__(self):
        return "ResidueSpec(m=%d, r0=%r, r0_prime=%r)" % (self.m, self.r0, self.r0_prime)


def pairing_bounds(f, basis, copaths):
    """Per-coordinate intervals confining every polytope point:
    -pair_plus(-f, K) <= a(K) <= pair_plus(f, K), and likewise for the
    copath coordinates."""
    neg_f = -f
    box = [(-pair_plus(neg_f, k), pair_plus(f, k)) for k in basis.cocycles]
    box_s = {
        y: (-pair_plus(neg_f, p.chain), pair_plus(f, p.chain))
        for y, p in copaths.items()
    }
    return box, box_s


def membership(m, basis, f, S, x, copaths, point, search=None):
    """Decide whether a rational point lies in the allowed-homology
    polytope.  Returns None when inside, else a strict Separator.

    The query is scaled integral by the lcm mu of its denominators and
    tested by running the circulation engine against mu * f.

    With the SearchState of a lattice search, the call is instead the
    search's decision at the integral box point point.u, for the state's
    f and residue system: a kept cut (z, rhs) with <z, u> > rhs answers
    first, else one ``layered_residue_solve`` pass.  It returns None, and
    leaves the pass's labels on the state as ``ell``, when the pass
    succeeds; otherwise it returns the cut that answered, or the one the
    failed pass kept, as a Separator without copath terms.  A point
    outside the polytope is never accepted, but an inside point whose
    residue system fails is refused too.  The name stays until the
    benchmark counts box points from the search instead of from calls
    of this function (ROADMAP item 1).
    """
    if search is not None:
        u = tuple(int(c) for c in point.u)
        for z, rhs in search.cuts:
            if sum(zi * ui for zi, ui in zip(z, u)) > rhs:
                search.stats.points_cut += 1
                return Separator(z, {}, rhs)
        search.ell = layered_residue_solve(m, basis, f, u, *search.residues, search)
        if search.ell is not None:
            return None
        z, rhs = search.cuts[-1]
        return Separator(z, {}, rhs)
    up_x = point.u_prime.get(x, 0)
    if up_x != 0:
        sign = 1 if up_x > 0 else -1
        return Separator((0,) * len(basis), {x: sign}, 0)
    mu = lcm(*(Fraction(c).denominator for c in (*point.u, *point.u_prime.values())))
    a = [int(mu * c) for c in point.u]
    a_prime = {y: int(mu * c) for y, c in point.u_prime.items()}
    for y in S:
        a_prime.setdefault(y, 0)
    target = HomologyTarget(a, S, x, copaths, a_prime)
    res = circulation.circulation_or_certificate(m, basis, f if mu == 1 else mu * f, target)
    if isinstance(res, Circulation):
        return None
    z_prime = {}
    if res.y != res.y_prime:
        z_prime[res.y_prime] = 1
        z_prime[res.y] = -1
    return Separator(res.z, z_prime, res.rhs if mu == 1 else Fraction(res.rhs, mu))


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
    b, out = circulation.repair_network(m, basis, f, target)
    pairings = {y: pair(b, copaths[y].chain) for y in S}
    ys = sorted(S)
    beta = {}
    for y in ys:
        dist, _, cyc = shortest_paths(m.num_faces, out, (y,))
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
    for y in nodes:
        arcs = []
        for j, y2 in enumerate(nodes):
            base = d[(y, y2)]
            tight = base - ((base - (r[y2] - r[y])) % m)
            if y == y2:
                if tight < 0:
                    return None
            else:
                arcs.append((j, tight, None))
        out.append(arcs)

    dist, _, cyc = shortest_paths(len(nodes), out, (nodes.index(x),))
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


class _ResidueLayers:
    """The arcs of the residue-layered network, built per node when the
    kernel reads them, so memory stays that of the base network.  Node
    v * mod + c is the copy (v, c); kept maps each face y of S to k(y).
    A base arc is labelled by its half-edge h >= 0, a drop by its own
    length, which is negative."""

    __slots__ = ("base", "mod", "kept")

    def __init__(self, base, mod, kept):
        self.base = base
        self.mod = mod
        self.kept = kept

    def __len__(self):
        return len(self.base) * self.mod

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, node):
        mod = self.mod
        v, c = divmod(node, mod)
        # a face outside S keeps its arcs at every copy
        k = self.kept.get(v, c)
        if k != c:
            drop = -((c - k) % mod)
            return ((v * mod + k, drop, drop),)
        return [(w * mod + (c + step) % mod, step, h) for w, step, h in self.base[v]]


def layered_residue_solve(m, basis, f, a, S, x, copaths, mod, r, search=None):
    """The largest ell: S -> Z with ell(x) = 0, ell(y) = r(y) (mod mod) and
    ell(y') - ell(y) <= beta(y, y') for all y, y' in S (see ``rhs_table``),
    or None when no such ell exists; r(x) must be 0 mod mod.

    One shortest-path run from (x, 0) over a residue-layered copy of the
    repair network of the integral anchor a (S = (x,), as in
    ``rhs_table``):
    - each face v has mod copies (v, c), and a path reaching (v, c) has
      length congruent to c;
    - a repair arc v -> w of length l becomes (v, c) -> (w, c + l mod mod),
      of length l;
    - at y in S, with k(y) = r(y) - pair(b, P(y)) mod mod, every copy
      (y, c) with c != k(y) has one arc, a drop to (y, k(y)) of length
      -((c - k(y)) mod mod), and only (y, k(y)) keeps y's arcs.
    A drop rounds a length down to the residue class k(y).  Given any
    solution ell, put L(y) = ell(y) - pair(b, P(y)): every path from
    (x, 0) to a copy of v is at least min over y in S of L(y) + dist(y, v),
    because rounding down to k(y) keeps a length at or above L(y).  So a
    solution rules out negative cycles and bounds the distances from
    below, while the distances satisfy every constraint: they give the
    largest solution, ell(y) = dist((x, 0), (y, k(y))) + pair(b, P(y)),
    as the two-step solver does.  A negative cycle thus exists if and only
    if the system is infeasible or the anchor lies outside the polytope
    (a negative dual cycle, repeated mod times, returns to its layer).
    Base arcs are labelled by their half-edge and drops by their length,
    so the cycle W the kernel returns projects to a closed dual walk, of
    homology class z and length P - <z, a>, where P sums the f+-parts of
    its half-edges: a negative walk proves the anchor outside and raises
    AnchorOutsidePolytope, as ``rhs_table`` does.  At an outside anchor
    the cycle found may instead close through a drop, and None is
    returned.

    With the SearchState of f, whose residue system (S, x, copaths, mod,
    r) this call must use, the network is patched from the state's base,
    and a failed pass keeps the cut (z, P + D), D being the sum of W's
    drops, instead of raising: W stays negative at every box point u' of
    the search with <z, u'> > P + D (see the module docstring).
    """
    target = HomologyTarget(a, (x,), x, {x: copaths[x]}, {x: 0})
    if search is not None:
        b, out = search.network(target)
    else:
        b, out = circulation.repair_network(m, basis, f, target)
    pairings = {y: pair(b, copaths[y].chain) for y in S}
    kept = {y: (r[y] - pairings[y]) % mod for y in S}
    layers = _ResidueLayers(out, mod, kept)
    dist, _, cyc = shortest_paths(len(layers), layers, (x * mod,))
    if cyc is not None:
        walk = [h for h in cyc if h >= 0]
        z = homology.homology_class(chains.walk_chain(m, walk), basis)
        plus = sum(max(f[h], 0) for h in walk)
        za = sum(zi * ai for zi, ai in zip(z, a))
        if plus < za and search is None:
            raise AnchorOutsidePolytope("anchor admits a negative dual cycle")
        rhs = plus + sum(drop for drop in cyc if drop < 0)
        assert za > rhs, "layered cycle is not negative"
        if search is not None:
            search.cuts.append((z, rhs))
        return None
    ell = {y: dist[y * mod + kept[y]] + pairings[y] for y in S}
    if __debug__:
        assert ell[x] == 0
        for y in S:
            assert (ell[y] - r[y]) % mod == 0
    return ell


def lex_box_points(box, r0, m):
    """Integer vectors of the box congruent to r0 (componentwise, mod m),
    in lexicographic order."""
    axes = []
    for (lo, hi), res in zip(box, r0):
        start = lo + ((res - lo) % m)
        axes.append(range(start, hi + 1, m))
    return itertools.product(*axes)


class SearchStats:
    """Counters filled in by the lattice search: points_cut counts the
    tested points that a kept cut answered without a layered pass."""

    __slots__ = ("points_tested", "points_cut")

    def __init__(self):
        self.points_tested = 0
        self.points_cut = 0


class SearchState:
    """What one lattice search keeps for its fixed f.

    - base: the f-part of every repair network (``circulation.base_network``),
      built once; the network of a target is a patched copy of it.
    - residues: the residue system (S, x, copaths, mod, r) of the search's
      layered passes, given at construction.
    - cuts: the pairs (z, rhs) that the failed passes kept (see
      ``layered_residue_solve``).  Each answers the pass at every later
      box point u with <z, u> > rhs: that pass fails too (see the module
      docstring).
    - ell: the labels of the last pass that ``membership`` ran.
    """

    __slots__ = ("map", "basis", "f", "base", "residues", "cuts", "stats", "ell")

    def __init__(self, m, basis, f, residues=None, stats=None):
        self.map = m
        self.basis = basis
        self.f = f
        self.base = circulation.base_network(m, f)
        self.residues = residues
        self.cuts = []
        self.stats = stats if stats is not None else SearchStats()
        self.ell = None

    def network(self, target):
        """The (b, out) of ``circulation.repair_network`` for this f and the
        target, arc for arc."""
        b = circulation.prescribed_cycle(self.map, self.basis, target)
        return b, circulation.patched_network(self.map, self.base, b)


def find_constrained_circulation(m, basis, f0, spec, S, x, copaths, stats=None):
    """Search the bounded homology lattice for an f0-circulation whose
    pairings match the prescribed residues (componentwise mod m).

    Iterates the residue-aligned integer vectors of the coordinate box in
    lexicographic order and asks ``membership`` with the search's state
    at each: a kept cut or one ``layered_residue_solve`` pass decides the
    point.  At the first point that passes, the circulation engine
    extracts a concrete circulation for the full target, through the
    search's network.  Returns None when the box is exhausted.
    """
    fchain = f0.chain if hasattr(f0, "chain") else f0
    box, _ = pairing_bounds(fchain, basis, copaths)
    r = {y: 0 for y in S}
    r.update(spec.r0_prime)
    r[x] = 0
    search = SearchState(m, basis, fchain, (S, x, copaths, spec.m, r), stats)
    for u in lex_box_points(box, spec.r0, spec.m):
        search.stats.points_tested += 1
        point = HomologyPoint(u, {x: 0})
        if membership(m, basis, fchain, S, x, copaths, point, search) is not None:
            continue
        target = HomologyTarget(u, S, x, copaths, search.ell)
        network = search.network(target)
        res = circulation.circulation_or_certificate(m, basis, fchain, target, network)
        # checked under python -O too: a wrong ell must not pass silently
        if not isinstance(res, Circulation):
            raise AssertionError("feasible target must yield a circulation")
        return res
    return None


def integer_points_bruteforce(m, basis, f, S, x, copaths, edge_budget=14):
    """All integer points of the allowed-homology polytope, by exhausting
    the f-circulations (testing oracle for small maps).

    For a flow f every circulation takes value 0 or f[h] on each edge, so
    a pruned subset walk over the canonical edges enumerates them all;
    the pairing vectors collected are exactly the integer points.
    """
    if m.num_edges > edge_budget:
        raise BudgetExceeded(
            "map has %d edges, brute-force budget is %d" % (m.num_edges, edge_budget)
        )
    fchain = f.chain if hasattr(f, "chain") else f
    edges = m.canonical_half_edges()
    s_order = sorted(S)

    remaining = [0] * m.num_vertices
    for h in edges:
        remaining[m.tgt[h]] += 1
        remaining[m.tgt[m.opp[h]]] += 1

    excess = [0] * m.num_vertices
    points = set()
    chosen = {}

    def close_ok(v):
        return remaining[v] > 0 or excess[v] == 0

    def rec(i):
        if i == len(edges):
            c = chains.Chain1(m, dict(chosen))
            a = tuple(pair(c, k) for k in basis.cocycles)
            a_prime = tuple(pair(c, copaths[y].chain) for y in s_order)
            points.add((a, a_prime))
            return
        h = edges[i]
        v, u = m.tgt[h], m.tgt[m.opp[h]]
        remaining[v] -= 1
        remaining[u] -= 1
        for val in (0, fchain[h]):
            if val == 0 and fchain[h] == 0 and h in chosen:
                continue
            if val:
                chosen[h] = val
                excess[v] += val
                excess[u] -= val
            if close_ok(v) and close_ok(u):
                rec(i + 1)
            if val:
                del chosen[h]
                excess[v] -= val
                excess[u] += val
        remaining[v] += 1
        remaining[u] += 1

    rec(0)
    return points
