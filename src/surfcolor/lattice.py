"""The allowed-homology polytope: membership oracle, coordinate bounds,
the residue-layered solver for the precolored sub-polytope, and the
lattice search for circulations with prescribed residues.

At each box point u the search needs labels ell: S -> Z with prescribed
residues mod m that some circulation of pairings (u, ell) can take as
its copath pairings.  ``layered_residue_solve`` finds the largest such
labels, or proves there are none, with one shortest-path run over m
residue copies of the repair network; a negative cycle means that u is
outside the polytope or that the residue system has no solution there,
so the pass is the search's only test of a box point, and its
distances at the point that passes give the circulation.

When S is x alone the pass runs over one copy of the repair network,
whose arcs are the dual's own out lists (``dual_arcs``): with one copy
every head is its face and k(x) = 0, so no network is built at the
anchor.  The residue system is then ell(x) = 0, which always holds, so a
pass fails exactly when the box point is outside the polytope, on a
negative dual cycle, with one copy or m.  And a drop at x never shortens
a path: a closed walk at x has a length L >= 0 with L = c (mod m), and
the drop from (x, c) takes it to L - c >= 0.  So the least distance over
the m copies of a face is its plain distance, which the dual, being
connected, gives for every face, and the pass gives the circulation that
m copies would give.  A failed pass keeps the cut (z, P) of a negative
dual cycle, which may be another cycle than m copies would return, and
so may answer other points than theirs.

A negative closed walk of the layered network proves that the pass
fails, whether or not the pass reaches it from (x, 0).  Let ell solve
the residue system at a box point a inside the polytope (outside it the
pass fails anyway), put L(y) = ell(y) - pair(b, P(y)) and D(v) = min over
y in S of L(y) + dist(y, v), and let pi(v, c) be the least integer
>= D(v) that is congruent to c mod m.  The inequalities ell(y') - ell(y)
<= beta(y, y') give D(y) = L(y), and L(y) = k(y) (mod m).  Then pi is a
feasible potential on every arc:
- a base arc (v, c) -> (w, c + l) of length l: pi(v, c) + l is at least
  D(v) + l >= D(w) and congruent to c + l, so it is at least pi(w, c + l);
- a drop (y, c) -> (y, k(y)): pi(y, k(y)) = D(y) = pi(y, c) - ((c -
  k(y)) mod m), with equality.
So every closed walk of the network has length >= 0 where the system
has a solution, and a closed walk negative at a box point is a sound cut
there.

One solve builds one ``Solve`` record, which all its searches read: the
dual g, its basis, S, x, the copaths from x, the modulus m, the number
mod of residue copies of each layered network, the pool of the walks of
its failed passes, and the solve's two counters.  One search keeps one
``SearchState`` for its fixed f and residue system: the f-part of the
repair lengths, patched at each box point, the k(y) and base lengths of
the layered network at the anchor, its arcs, built on the search's first
pass, and one list of integer cuts (z, rhs), each answering the pass at
every box point u' with <z, u'> > rhs.  When the pass at a box point u
finds a negative cycle W, W gives the cut (z, P + D):
- every box point of one search is congruent to u mod m, because
  ``lex_box_points`` steps by the record's m, and the layered pass reads
  the same record;
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
- so W stays negative at u' whenever <z, u'> > P + D: the pass at u'
  fails too.
The argument never asks whether u is inside the polytope, so a pass at
an outside point keeps a cut like any other.  A cycle free of drops
(D = 0) is then a negative closed dual walk, and (z, P) is also the
certificate inequality <z, a> <= P of the whole polytope: every
circulation c of f pairs with the walk to <z, a(c)>, and to at most P
since c lies between 0 and f.  A cut depends on S, x, the copaths, the
modulus and the residues r as well as f, so a search keeps its cuts to
itself; the solve keeps their walks.

The walk of W (its base half-edges in order) and z go to the front of
the solve's pool, as in the cut pool of branch-and-cut (Padberg and
Rinaldi 1991).  Before its first box point, each later search lifts
every pooled walk into its own layered network, with the base lengths
l(h) at its anchor and no network built:
- it starts at a face y of S on the walk, at the copy k(y);
- a base arc h takes the copy c to (c + l(h)) mod m;
- at a face y of S whose copy c is not k(y), it first takes the drop,
  of length -((c - k(y)) mod m), and is then at (y, k(y)), the only copy
  of y with arcs;
- after the last arc, a final drop closes the walk at its start.
The lift is a closed walk of the network, which is the same at every
box point of the search, so it gives the cut (z, P' + D'): P' sums the
new f-part over the walk and D' its drops.  By the potential argument
that cut answers only points where the pass fails, so the first point
where a pass succeeds, and that pass, are the ones the search would
reach without the pool.  A walk that meets no face of S, and every walk
when mod = 1, gives the drop-free cut (z, P'): it is a closed dual walk,
which m times over returns to its copy, and (z, P') is its certificate
inequality.  A search keeps a lifted cut only if some point of its box
can break it.

All arithmetic is exact: without a state, ``membership`` scales a query
to integers by the lcm of its denominators for the circulation engine.
With a state, a box point stays the int tuple of ``lex_box_points``,
and a refused one gets its kept cut: no HomologyPoint or Separator.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from . import chains, circulation, homology
from .chains import Chain2, pair
from .circulation import Circulation, HomologyTarget
from .errors import BudgetExceeded
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

    def __repr__(self):
        return "Separator(z=%r, z_prime=%r, rhs=%r)" % (self.z, self.z_prime, self.rhs)


def pairing_bounds(f, basis, copaths):
    """Per-coordinate intervals confining every polytope point:
    -pair_plus(-f, K) <= a(K) <= pair_plus(f, K), and likewise for the
    copath coordinates."""
    box = [_bounds(f, k) for k in basis.cocycles]
    box_s = {y: _bounds(f, p) for y, p in copaths.items()}
    return box, box_s


def _bounds(f, k):
    """(-pair_plus(-f, K), pair_plus(f, K)): the sums of the negative and
    of the positive products f[h] * K[h] over K's support."""
    chains._check_same_map(f, k)
    lo = hi = 0
    fc = f.coeffs
    for h, c in k.coeffs.items():
        p = c * fc.get(h, 0)
        if p > 0:
            hi += p
        else:
            lo += p
    return lo, hi


def membership(m, basis, f, S, x, copaths, point, search=None):
    """Decide whether a rational point lies in the allowed-homology
    polytope.  Returns None when inside, else a strict Separator.

    The query is scaled integral by the lcm mu of its denominators and
    tested by running the circulation engine against mu * f.

    With the SearchState of a lattice search, the call is instead the
    search's decision at the box point u, the int tuple point that
    ``lex_box_points`` made, for the state's f and residue system: a kept
    cut (z, rhs) with <z, u> > rhs answers first (counted in the solve's
    points_cut), else one ``layered_residue_solve`` pass.  It returns
    None, and leaves the pass's labels and circulation on the state, when
    the pass succeeds; otherwise the pair (z, rhs) of search.cuts that
    answered, or the one the failed pass kept.  A point outside the
    polytope is never accepted, but an inside point whose residue system
    fails is refused too.  The name stays until the benchmark counts box
    points from the search instead of from calls of this function
    (ROADMAP items 1 and 6).
    """
    if search is not None:
        for cut in search.cuts:
            z, rhs = cut
            if sum(zi * ui for zi, ui in zip(z, point)) > rhs:
                search.solve.points_cut += 1
                return cut
        if layered_residue_solve(search, point) is not None:
            return None
        return search.cuts[-1]
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
    res = circulation.circulation_or_certificate(m, basis, mu * f, target)
    if isinstance(res, Circulation):
        return None
    z_prime = {}
    if res.y != res.y_prime:
        z_prime[res.y_prime] = 1
        z_prime[res.y] = -1
    return Separator(res.z, z_prime, Fraction(res.rhs, mu))


def _layered_arcs(m, lengths, mod, kept):
    """The out lists of the layered network of ``layered_residue_solve``:
    node v * mod + c is the copy (v, c) and kept maps y in S to k(y).  Base
    arcs keep their half-edge ids; the drop of length -j is arc H + j."""
    H = len(m.opp)
    out = []
    for v, arcs in enumerate(m.dual_arcs()):
        # a face outside S keeps its arcs at every copy
        k = kept.get(v)
        for c in range(mod):
            if k is None or k == c:
                out.append([(w * mod + (c + lengths[h]) % mod, h) for w, h in arcs])
            else:
                out.append(((v * mod + k, H + (c - k) % mod),))
    return out


def layered_residue_solve(search, a):
    """The largest ell: S -> Z with ell(x) = 0, ell(y) = r(y) (mod m) and
    ell(y') - ell(y) <= beta(y, y') for all y, y' in S, at the box point a
    of the search, or None when no such ell exists.  The inequalities
    a'(y') - a'(y) <= beta(y, y') cut the precolored sub-polytope at a:
    with b and the lengths of the repair network of a for the one-face
    target (S = (x,)), beta(y, y') = pair(b, P(y')) - pair(b, P(y)) +
    dist(y, y'), the distance running over the dual with those lengths.

    One shortest-path run from (x, 0) over the search's residue-layered
    copy of that repair network:
    - each face v has m copies (v, c), and a path reaching (v, c) has
      length congruent to c;
    - a repair arc v -> w of length l becomes (v, c) -> (w, c + l mod m),
      of length l;
    - at y in S, with k(y) = r(y) - pair(b, P(y)) mod m, every copy
      (y, c) with c != k(y) has one arc, a drop to (y, k(y)) of length
      -((c - k(y)) mod m), and only (y, k(y)) keeps y's arcs.
    A drop rounds a length down to the residue class k(y).  Given any
    solution ell, put L(y) = ell(y) - pair(b, P(y)): every path from
    (x, 0) to a copy of v is at least min over y in S of L(y) + dist(y, v),
    because rounding down to k(y) keeps a length at or above L(y).  So a
    solution rules out negative cycles and bounds the distances from
    below, while the distances satisfy every constraint: they give the
    largest solution, ell(y) = dist((x, 0), (y, k(y))) + pair(b, P(y)).
    A negative cycle thus exists if and only if the system is infeasible
    or a lies outside the polytope (a negative dual cycle, repeated m
    times, returns to its layer).  When S = (x,) the state's network has
    one copy per face (see the module docstring): read m as
    solve.mod = 1 above.

    On success the pass leaves ell on the state, and as ``chain`` the
    circulation b + boundary2(Lambda), Lambda(v) being the least distance
    over v's copies: min over y of L(y) + dist(y, v), as a drop only
    shortens a path.  That is the engine's repair potential of the full
    target HomologyTarget(a, S, x, copaths, ell), shifted by L on S, so
    the engine would build the same circulation.

    A failed pass keeps the cut (z, P + D) on the state: base arcs keep
    their half-edge ids, below those of the drops, so the cycle W the
    kernel returns projects to a closed dual walk of homology class z; P
    sums the f+-parts of its half-edges and D the drops of W.  W stays
    negative at every box point u of the search with <z, u> > P + D (see
    the module docstring).  It also puts that walk and z at the front of
    the solve's pool, for the later searches to lift.  The argument above
    needs a negative cycle reachable from (x, 0); the feasible potential
    of the module docstring rules out every negative closed walk, which
    is what a lifted walk needs.

    The search's first pass builds the layered arcs, from the state's
    anchor lengths and k(y); its later passes read them.
    """
    solve = search.solve
    g, S, x, copaths, mod = solve.g, solve.S, solve.x, solve.copaths, solve.mod
    if search.layers is None:
        search.layers = _layered_arcs(g, search.anchor_lengths, mod, search.kept)
    b, lengths = search.network(a)
    H = len(lengths)
    lengths.extend(range(0, -mod, -1))
    dist, _, cyc = shortest_paths(len(search.layers), search.layers, lengths, (x * mod,))
    if cyc is not None:
        walk = [h for h in cyc if h < H]
        z = homology.homology_class(chains.walk_chain(g, walk), solve.basis)
        rhs = sum(search.base[h] for h in walk) + sum(lengths[h] for h in cyc if h >= H)
        # checked under python -O too: a bogus cut would skip box points
        if sum(zi * ai for zi, ai in zip(z, a)) <= rhs:
            raise AssertionError("layered cycle is not negative")
        search.cuts.append((z, rhs))
        solve.pool.insert(0, (walk, z))
        return None
    ell = {y: dist[y * mod + search.kept[y]] + pair(b, copaths[y]) for y in S}
    if __debug__:
        assert ell[x] == 0
        for y in S:
            assert (ell[y] - search.r[y]) % mod == 0
    least = [min(d for d in dist[i:i + mod] if d is not None) for i in range(0, len(dist), mod)]
    search.ell = ell
    search.chain = b + chains.boundary2(Chain2(g, dict(enumerate(least))))
    return ell


def lex_box_points(box, r0, m):
    """Integer vectors of the box congruent to r0 (componentwise, mod m),
    in lexicographic order."""
    axes = []
    for (lo, hi), res in zip(box, r0, strict=True):
        start = lo + ((res - lo) % m)
        axes.append(range(start, hi + 1, m))
    return itertools.product(*axes)


class Solve:
    """The record of one solve that each of its lattice searches reads
    (see the module docstring): m steps the box of every search, mod is
    m, or 1 when S = (x,), pool lists a (walk, z) for each failed pass of
    the solve, newest first, and points_tested and points_cut count its
    box points and those a kept cut answered without a pass."""

    __slots__ = (
        "g", "basis", "S", "x", "copaths", "m", "mod", "pool",
        "points_tested", "points_cut",
    )

    def __init__(self, g, basis, S, x, copaths, m):
        self.g = g
        self.basis = basis
        self.S = S
        self.x = x
        self.copaths = copaths
        self.m = m
        self.mod = 1 if len(S) == 1 else m
        self.pool = []
        self.points_tested = self.points_cut = 0


class SearchState:
    """What one lattice search of a solve keeps for its fixed f and
    residue system r: the given r on S, 0 where it has no entry and at x.
    The box points are congruent to r0 mod solve.m; the layered network
    has solve.mod copies of each face.  Neither r0 nor r need be reduced.

    - base: all it keeps of f, the f-part of every repair network's
      lengths (``circulation.base_network``); each target patches a copy.
    - anchor_lengths, kept: the base lengths of the layered network of
      ``layered_residue_solve`` at the anchor r0, and its k(y).  Every
      box point of the search is congruent to r0 mod m, so the network's
      heads and k(y) are the same at each of them (see the module
      docstring).  With one copy they are None and {x: 0}.
    - layers: the arcs of that network, built on the search's first pass
      (None until then), so a search whose every box point a cut answers
      builds none.  With one copy they are the map's ``dual_arcs``.
    - cuts: the pairs (z, rhs) lifted from the solve's pool, then those
      the search's failed passes kept.  Each answers the pass at every
      later box point u with <z, u> > rhs: that pass fails too (see the
      module docstring).
    - ell, chain: the labels and circulation of the last pass that
      succeeded.
    """

    __slots__ = ("solve", "r", "base", "anchor_lengths", "kept", "layers", "cuts", "ell", "chain")

    def __init__(self, solve, f, r0, r):
        g, S, x, mod = solve.g, solve.S, solve.x, solve.mod
        self.solve = solve
        self.r = {y: 0 if y == x else r.get(y, 0) for y in S}
        self.base = circulation.base_network(g, f)
        if mod == 1:
            # one copy of each face: the network is the dual as it stands
            self.anchor_lengths = None
            self.kept = {x: 0}
            self.layers = g.dual_arcs()
        else:
            b, self.anchor_lengths = self.network(r0)
            self.kept = {y: (self.r[y] - pair(b, solve.copaths[y])) % mod for y in S}
            self.layers = None
        self.cuts = []
        self.ell = None
        self.chain = None

    def network(self, a):
        """The prescribed cycle b of the one-face target (S = (x,)) at
        anchor a and the base patched with b, as the engine builds them."""
        solve = self.solve
        x = solve.x
        target = HomologyTarget(a, (x,), x, {x: solve.copaths[x]}, {x: 0})
        b = circulation.prescribed_cycle(solve.g, solve.basis, target)
        return b, circulation.patched_network(solve.g, self.base, b)

    def lift(self, walk):
        """The rhs P' + D' of the cut of a pooled walk, lifted into this
        search's layered network (see the module docstring): P' sums base
        over the walk and D' the drops the lift takes."""
        rhs = sum(self.base[h] for h in walk)
        mod = self.solve.mod
        if mod == 1:
            return rhs
        g, kept, lengths = self.solve.g, self.kept, self.anchor_lengths
        left, opp = g.left, g.opp
        start = next((i for i, h in enumerate(walk) if left[opp[h]] in kept), None)
        if start is None:
            return rhs
        c = k0 = kept[left[opp[walk[start]]]]
        for h in itertools.chain(walk[start:], walk[:start]):
            k = kept.get(left[opp[h]])
            if k is not None:
                rhs -= (c - k) % mod
                c = k
            c = (c + lengths[h]) % mod
        return rhs - (c - k0) % mod


def find_constrained_circulation(solve, f0, r0, r):
    """Search the bounded homology lattice for an f0-circulation whose
    pairings match the prescribed residues mod solve.m: r0 over the basis
    and r(y) at each y in S, 0 where r has no entry and at x.

    First lifts every walk of the solve's pool into the search's layered
    network (``SearchState.lift``) and keeps each cut that some point of
    the box can break.  Then iterates the residue-aligned integer vectors
    of the coordinate box in lexicographic order and asks ``membership``
    with the search's state at each, an int tuple: a kept cut or one
    ``layered_residue_solve`` pass decides the point.  Each tested point
    is counted on the solve record.  The first pass that succeeds also
    gives the circulation, which is returned once
    ``circulation.validate_circulation`` accepts it for the full target.
    Returns None when the box is exhausted.
    """
    g, basis, S, x, copaths = solve.g, solve.basis, solve.S, solve.x, solve.copaths
    fchain = f0.chain
    box, _ = pairing_bounds(fchain, basis, {})
    search = SearchState(solve, fchain, r0, r)
    for walk, z in solve.pool:
        rhs = search.lift(walk)
        # keep the cut only if some point of the box can break it
        if sum(zi * (hi if zi > 0 else lo) for zi, (lo, hi) in zip(z, box)) > rhs:
            search.cuts.append((z, rhs))
    for u in lex_box_points(box, r0, solve.m):
        solve.points_tested += 1
        if membership(g, basis, fchain, S, x, copaths, u, search) is not None:
            continue
        res = Circulation(search.chain)
        # checked under python -O too: wrong labels must not pass silently
        target = HomologyTarget(u, S, x, copaths, search.ell)
        circulation.validate_circulation(g, basis, fchain, target, res)
        return res
    return None


def integer_points_bruteforce(m, basis, f, S, x, copaths, edge_budget=14):
    """All integer points of the allowed-homology polytope, by exhausting
    the f-circulations (testing oracle for small maps).

    For a flow f every circulation takes value 0 or f[h] on each edge, so
    a pruned subset walk over the canonical edges enumerates them all,
    each at one leaf (an edge where f is 0 takes only 0); the pairing
    vectors collected are exactly the integer points.
    """
    if m.num_edges > edge_budget:
        raise BudgetExceeded(
            "map has %d edges, brute-force budget is %d" % (m.num_edges, edge_budget)
        )
    fchain = f.chain
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
            a_prime = tuple(pair(c, copaths[y]) for y in s_order)
            points.add((a, a_prime))
            return
        h = edges[i]
        v, u = m.tgt[h], m.tgt[m.opp[h]]
        remaining[v] -= 1
        remaining[u] -= 1
        for val in (0, fchain[h]) if fchain[h] else (0,):
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
