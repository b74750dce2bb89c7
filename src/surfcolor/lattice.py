"""The allowed-homology polytope: membership oracle, coordinate bounds,
the residue-layered solver for the precolored sub-polytope, and the
lattice search for circulations with prescribed residues.

At each box point inside the polytope the search needs labels
ell: S -> Z with prescribed residues mod m that some circulation can
take as its copath pairings.  ``layered_residue_solve`` finds the
largest such labels, or proves there are none, with one shortest-path
run over m residue copies of the repair network.  ``rhs_table`` and
``residue_difference_solve`` do the same in two steps (one run per face
of S, then a difference system over S); they are kept as the reference
for tests.

One search keeps one ``SearchState`` for its fixed f: the f-part of the
repair network, built once and patched at each box point (the engine run
and the residue pass at a point share the result), and the cuts found so
far.  A certificate at u is a closed dual walk D of homology class z
with <z, u> > rhs = pair_plus(f, D).  Every circulation c of f pairs with
D to <z, a(c)>, and to at most pair_plus(f, D) since c lies between 0 and
f, so <z, a> <= rhs holds on the whole polytope of f: a later point with
<z, u> > rhs is outside without an engine run.

The state also keeps the residue cuts of the search's failed layered
passes.  When the pass at an inside box point u finds a negative cycle W,
W gives a residue cut <z, u'> > P + D that answers the pass at a later
inside box point u' without running it:
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
  reachable from (x, 0), because the graph is unchanged;
- at an inside anchor no negative cycle is free of drops (its projection
  would be a negative closed dual walk), so the uncut pass at u' returns
  None, and the search goes on exactly as before.
A residue cut depends on S, x, the copaths, the modulus and the residues
r as well as f, so it is kept for one residue system only.

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
    tested by running the circulation engine against mu * f.  With the
    SearchState of f, a kept cut that separates the point answers without
    an engine run, an integral point's network comes from the state, and
    every new cut without copath terms is kept.
    """
    up_x = point.u_prime.get(x, 0)
    if up_x != 0:
        sign = 1 if up_x > 0 else -1
        return Separator((0,) * len(basis), {x: sign}, 0)
    if search is not None:
        assert search.f is f, "search state of another f"
        sep = search.cut_off(point)
        if sep is not None:
            return sep
    mu = lcm(*(Fraction(c).denominator for c in (*point.u, *point.u_prime.values())))
    a = [int(mu * c) for c in point.u]
    a_prime = {y: int(mu * c) for y, c in point.u_prime.items()}
    for y in S:
        a_prime.setdefault(y, 0)
    target = HomologyTarget(a, S, x, copaths, a_prime)
    network = search.network(target) if search is not None and mu == 1 else None
    res = circulation.circulation_or_certificate(
        m, basis, f if mu == 1 else mu * f, target, network
    )
    if isinstance(res, Circulation):
        return None
    z_prime = {}
    if res.y != res.y_prime:
        z_prime[res.y_prime] = 1
        z_prime[res.y] = -1
    sep = Separator(res.z, z_prime, res.rhs if mu == 1 else Fraction(res.rhs, mu))
    if search is not None and not z_prime:
        search.cuts.append(sep)
    return sep


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
    returned; the search asks only at anchors ``membership`` accepts.

    With the SearchState of f, the network is the one the state built for
    ``membership`` at the same anchor, and a failed pass keeps the residue
    cut (z, P + D), D being the sum of W's drops: W stays negative at every
    box point u' of the search with <z, u'> > P + D (see the module
    docstring).  A state serves one residue system (S, x, copaths, mod, r):
    the first it is asked about.
    """
    target = HomologyTarget(a, (x,), x, {x: copaths[x]}, {x: 0})
    if search is not None:
        assert search.f is f, "search state of another f"
        system = (S, x, copaths, mod, r)
        if search.residues is None:
            search.residues = system
        assert search.residues == system, "residue cuts of another residue system"
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
        if plus < za:
            raise AnchorOutsidePolytope("anchor admits a negative dual cycle")
        rhs = plus + sum(drop for drop in cyc if drop < 0)
        assert za > rhs, "layered cycle is not negative"
        if search is not None:
            search.residue_cuts.append((z, rhs))
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
    tested points that a kept cut answered without an engine run, and
    points_residue_cut the inside points that a kept residue cut answered
    without a layered pass."""

    __slots__ = ("points_tested", "points_inside", "points_cut", "points_residue_cut")

    def __init__(self):
        self.points_tested = 0
        self.points_inside = 0
        self.points_cut = 0
        self.points_residue_cut = 0


class SearchState:
    """What one lattice search keeps for its fixed f.

    - base: the f-part of every repair network (``circulation.base_network``),
      built once; the network of a target is a patched copy of it.
    - The network of the last one-face target (S = (x,), so b is the
      a-combination of the basis cycles) is kept, so the engine run in
      ``membership`` and the residue pass at the same point share it.
    - cuts: the separators without copath terms found so far, which
      depend on f alone (copath terms would tie a cut to one set of
      copaths).  Each holds as <z, a> <= rhs on the whole polytope of f
      (see the module docstring), not only at the point that was asked.
    - residues and residue_cuts: the residue system (S, x, copaths, mod, r)
      of the search's layered passes, and the pairs (z, rhs) that its
      failed passes kept (see ``layered_residue_solve``).  Each pair
      answers the pass at every later box point u with <z, u> > rhs: that
      pass fails too (see the module docstring).
    """

    __slots__ = (
        "map", "basis", "f", "base", "cuts", "residues", "residue_cuts", "stats", "_last"
    )

    def __init__(self, m, basis, f, stats=None):
        self.map = m
        self.basis = basis
        self.f = f
        self.base = circulation.base_network(m, f)
        self.cuts = []
        self.residues = None
        self.residue_cuts = []
        self.stats = stats
        self._last = (None, None)

    def network(self, target):
        """The (b, out) of ``circulation.repair_network`` for this f and the
        target, arc for arc."""
        key = target.a if len(target.S) == 1 else None
        if key is None or key != self._last[0]:
            b = circulation.prescribed_cycle(self.map, self.basis, target)
            self._last = (key, (b, circulation.patched_network(self.map, self.base, b)))
        return self._last[1]

    def cut_off(self, point):
        """A kept cut that separates the point, or None."""
        for sep in self.cuts:
            if sep.dot(point.u, point.u_prime) > sep.rhs:
                if self.stats is not None:
                    self.stats.points_cut += 1
                return sep
        return None

    def residue_cut_off(self, u):
        """Whether a kept residue cut answers the layered pass at box
        point u: the pass would return None."""
        for z, rhs in self.residue_cuts:
            if sum(zi * ui for zi, ui in zip(z, u)) > rhs:
                if self.stats is not None:
                    self.stats.points_residue_cut += 1
                return True
        return False


def find_constrained_circulation(m, basis, f0, spec, S, x, copaths, stats=None):
    """Search the bounded homology lattice for an f0-circulation whose
    pairings match the prescribed residues (componentwise mod m).

    Iterates the residue-aligned integer vectors of the coordinate box in
    lexicographic order; for each vector inside the polytope that no kept
    residue cut answers, the precolored sub-polytope is solved by
    ``layered_residue_solve``, and a concrete circulation is extracted on
    success, through the search's network for the full target.  Returns
    None when the box is exhausted.
    """
    fchain = f0.chain if hasattr(f0, "chain") else f0
    box, _ = pairing_bounds(fchain, basis, copaths)
    x_copaths = {x: copaths[x]}
    r = {y: 0 for y in S}
    r.update(spec.r0_prime)
    r[x] = 0
    search = SearchState(m, basis, fchain, stats)

    def is_inside(u):
        pt = HomologyPoint(u, {x: 0})
        return membership(m, basis, fchain, (x,), x, x_copaths, pt, search) is None

    for u in lex_box_points(box, spec.r0, spec.m):
        if stats is not None:
            stats.points_tested += 1
        if not is_inside(u):
            continue
        if stats is not None:
            stats.points_inside += 1
        if search is not None and search.residue_cut_off(u):
            continue
        ell = layered_residue_solve(m, basis, fchain, u, S, x, copaths, spec.m, r, search)
        if ell is None:
            continue
        target = HomologyTarget(u, S, x, copaths, ell)
        network = search.network(target) if search is not None else None
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
