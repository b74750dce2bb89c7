"""The residue-layered solver against the two-step reference (rhs_table
plus residue_difference_solve) and brute force, on a fresh search state
and inside full solves."""

import os
import random
import subprocess
import sys

import pytest

from surfcolor import chains, circulation, flows, homology, lattice
from surfcolor.chains import Chain1, Chain2, pair
from surfcolor.circulation import HomologyTarget
from surfcolor.cli import gen_bouquet, gen_grid, gen_q13
from surfcolor.lattice import (
    HomologyPoint,
    SearchState,
    integer_points_bruteforce,
    layered_residue_solve,
)
from surfcolor.paths import shortest_paths
from surfcolor.solver import Precoloring, extend_precoloring

from conftest import CORPUS, random_map, random_nowhere_zero, solve_record
from residue_reference import residue_difference_solve, rhs_table
from test_near_quadrangulations import delete_edges


def two_step(m, basis, f, a, S, x, copaths, mod, r):
    """The reference: |S| shortest-path rows, then the residue system."""
    beta = rhs_table(m, basis, f, a, S, x, copaths)
    return residue_difference_solve(S, x, mod, beta, r)


def fresh_pass(m, basis, f, a, S, x, copaths, mod, r):
    """The layered pass at a on a fresh search state: the search's own
    computation, without reuse across points."""
    state = SearchState(solve_record(m, basis, S, x, copaths, mod), f, a, r)
    return layered_residue_solve(state, a)


def test_layered_solve_matches_two_step_solver():
    rng = random.Random(331)
    maps = [m for _, m in CORPUS] + [random_map(rng, max_edges=12) for _ in range(40)]
    counts = {True: 0, False: 0}
    for m in maps:
        if m.num_edges == 0 or m.num_edges > 14:
            continue
        basis = homology.cohomology_basis(m)
        f = random_nowhere_zero(rng, m)
        x = rng.randrange(m.num_faces)
        S = tuple(sorted({x} | {rng.randrange(m.num_faces) for _ in range(3)}))
        cps = homology.copaths_from(m, x, S)
        points = integer_points_bruteforce(m, basis, flows.Flow(f), S, x, cps)
        anchors = sorted({a for a, _ in points})
        for a in rng.sample(anchors, min(3, len(anchors))):
            for mod in (3, 5, 7):
                r = {y: 0 if y == x else rng.randrange(mod) for y in S}
                got = fresh_pass(m, basis, f, a, S, x, cps, mod, r)
                assert got == two_step(m, basis, f, a, S, x, cps, mod, r)
                counts[got is not None] += 1
    assert counts[True] >= 20 and counts[False] >= 20, counts


def test_layered_solve_returns_the_largest_brute_force_labels():
    # at a box point u the labels are the a' of the brute-forced integer
    # points (u, a') with a'(x) = 0 and a' = r (mod m): the pass returns
    # None exactly when there are none, else their componentwise maximum,
    # which is one of them; a fresh state gives the same answer
    rng = random.Random(347)
    maps = [m for _, m in CORPUS] + [random_map(rng, max_edges=12) for _ in range(150)]
    counts = {True: 0, False: 0, "outside": 0}
    for m in maps:
        if m.num_edges == 0 or m.num_edges > 12:
            continue
        basis = homology.cohomology_basis(m)
        f = random_nowhere_zero(rng, m)
        x = rng.randrange(m.num_faces)
        S = tuple(sorted({x} | {rng.randrange(m.num_faces) for _ in range(3)}))
        cps = homology.copaths_from(m, x, S)
        points = integer_points_bruteforce(m, basis, flows.Flow(f), S, x, cps)
        box, _ = lattice.pairing_bounds(f, basis, cps)
        for mod in (3, 5):
            r = {y: 0 if y == x else rng.randrange(mod) for y in S}
            r0 = [rng.randrange(mod) for _ in basis.Y]
            state = SearchState(solve_record(m, basis, S, x, cps, mod), f, r0, r)
            for u in lattice.lex_box_points(box, r0, mod):
                labels = [dict(zip(sorted(S), ap)) for a, ap in points if a == u]
                labels = [ell for ell in labels if all((ell[y] - r[y]) % mod == 0 for y in S)]
                assert all(ell[x] == 0 for ell in labels)
                got = layered_residue_solve(state, u)
                if labels:
                    top = {y: max(ell[y] for ell in labels) for y in S}
                    assert top in labels and got == top
                else:
                    assert got is None
                if all(a != u for a, _ in points):
                    counts["outside"] += 1
                assert fresh_pass(m, basis, f, u, S, x, cps, mod, r) == got
                counts[got is not None] += 1
    assert counts[True] >= 60 and counts[False] >= 60 and counts["outside"] >= 20, counts


def test_layered_solve_rejects_outside_anchor():
    # the stateless membership oracle separates (5, 0); the pass fails
    # there and keeps a cut that the anchor violates
    m = gen_bouquet(2)
    basis = homology.cohomology_basis(m)
    cps = homology.copaths_from(m, 0, (0,))
    f = Chain1(m, {0: 1, 2: 1})
    a = (5, 0)
    assert lattice.membership(m, basis, f, (0,), 0, cps, HomologyPoint(a, {0: 0})) is not None
    state = SearchState(solve_record(m, basis, (0,), 0, cps, 3), f, a, {})
    assert layered_residue_solve(state, a) is None
    [(z, rhs)] = state.cuts
    assert sum(zi * ai for zi, ai in zip(z, a)) > rhs


def hexagon_grid(n, k, rng):
    """The n x n torus grid with k disjoint edges deleted: k hexagons."""
    g = gen_grid(n, n)
    faces, ends, chosen = set(), set(), []
    cands = g.canonical_half_edges()
    rng.shuffle(cands)
    for h in cands:
        hf = {g.left[h], g.left[g.opp[h]]}
        he = {g.tgt[h], g.tgt[g.opp[h]]}
        if len(hf) == 2 and not (hf & faces) and not (he & ends):
            chosen.append(h)
            faces |= hf
            ends |= he
            if len(chosen) == k:
                return delete_edges(g, chosen)
    raise AssertionError("not enough disjoint edges")


def nonadjacent_precoloring(g, m, size, rng):
    """Random colors on size pairwise non-adjacent vertices."""
    nbrs = [set() for _ in range(g.num_vertices)]
    for h in g.canonical_half_edges():
        u, v = g.tgt[h], g.tgt[g.opp[h]]
        nbrs[u].add(v)
        nbrs[v].add(u)
    order = list(range(g.num_vertices))
    rng.shuffle(order)
    psi = {}
    for v in order:
        if not nbrs[v] & psi.keys():
            psi[v] = rng.randrange(m)
            if len(psi) == size:
                return psi
    raise AssertionError("not enough non-adjacent vertices")


def hexagon_instances():
    rng = random.Random(337)
    for k in (2, 4):
        g = hexagon_grid(8, k, rng)
        for mod in (3, 5):
            for size in (7, 15):
                yield g, Precoloring(mod, nonadjacent_precoloring(g, mod, size, rng))


def layered_pass(search, mod, a):
    """The pass at the box point a over mod residue copies of the search's
    repair network, however many the search keeps: its ell, and its
    circulation b + boundary2(Lambda), or (None, None) on a negative
    cycle."""
    solve = search.solve
    S, x, copaths = solve.S, solve.x, solve.copaths
    b, lengths = search.network(a)
    kept = {y: (search.r[y] - pair(b, copaths[y])) % mod for y in S}
    arcs = lattice._layered_arcs(solve.g, lengths, mod, kept)
    lengths.extend(range(0, -mod, -1))
    dist, _, cyc = shortest_paths(len(arcs), arcs, lengths, (x * mod,))
    if cyc is not None:
        return None, None
    ell = {y: dist[y * mod + kept[y]] + pair(b, copaths[y]) for y in S}
    least = [min(d for d in dist[i:i + mod] if d is not None) for i in range(0, len(dist), mod)]
    return ell, b + chains.boundary2(Chain2(solve.g, dict(enumerate(least))))


def one_layer_instances():
    """Searches with S = (x,): torus grids at m = 3, 5 and 7 with no
    precoloring, Q13 at m = 3 and 5 (NONE), grids with two and with four
    hexagons, and one precolored vertex; then two grids with |S| = 2 and
    7, whose searches keep m copies."""
    rng = random.Random(359)
    for n, mod in ((12, 3), (8, 5), (8, 7)):
        yield gen_grid(n, n), Precoloring(mod)
    for mod in (3, 5):
        yield gen_q13(), Precoloring(mod)
    yield hexagon_grid(8, 2, rng), Precoloring(5)
    yield hexagon_grid(8, 4, rng), Precoloring(3)
    yield gen_grid(8, 8), Precoloring(5, {27: 3})
    yield gen_grid(8, 8), Precoloring(3, {0: 0, 27: 2})
    g = hexagon_grid(8, 2, rng)
    yield g, Precoloring(5, nonadjacent_precoloring(g, 5, 7, rng))


def test_one_residue_layer_when_S_is_x_alone(monkeypatch):
    # with S = (x,) the search keeps one copy of each face, and its pass
    # answers as m copies would at every box point, with the same labels
    # and circulation; with |S| >= 2 it keeps m copies
    searches = []
    real = lattice.find_constrained_circulation

    def recorded(solve, f0, r0, r):
        res = real(solve, f0, r0, r)
        searches.append(((solve, f0.chain, r0, r), res))
        return res

    monkeypatch.setattr(lattice, "find_constrained_circulation", recorded)
    verdicts = [extend_precoloring(g, pre).extendable for g, pre in one_layer_instances()]
    assert verdicts == [True, True, True, False, False, True, True, True, True, False]
    counts = {1: [0, 0], 3: [0, 0], 5: [0, 0]}
    for (solve, f, r0, r), res in searches:
        state = SearchState(solve, f, r0, r)
        assert state.solve.mod == (1 if solve.S == (solve.x,) else solve.m)
        box, _ = lattice.pairing_bounds(f, solve.basis, solve.copaths)
        accepted = None
        for u in lattice.lex_box_points(box, r0, solve.m):
            ell, chain = layered_pass(state, solve.m, u)
            assert layered_residue_solve(state, u) == ell
            if ell is not None:
                assert state.chain == chain
                if accepted is None:
                    accepted = chain
            counts[state.solve.mod][ell is None] += 1
        assert (res and res.chain) == accepted
    assert min(counts[1]) >= 20 and counts[3][0] and counts[5][1], counts


def outcome(res):
    d = res.witness_boundary
    return (
        res.extendable,
        res.coloring,
        d and d.items(),
        res.boundaries_tried,
        res.points_tested,
    )


def reference_search(solve, f0, r0, r, residue_solve=fresh_pass):
    """The lattice search without its state, point by point: the stateless
    membership oracle, then a residue solve on a fresh state at the points
    inside.  Returns the circulation, or None, and the number of points
    tested."""
    m, basis, S, x, copaths = solve.g, solve.basis, solve.S, solve.x, solve.copaths
    f = f0.chain
    box, _ = lattice.pairing_bounds(f, basis, copaths)
    r = {y: 0 if y == x else r.get(y, 0) for y in S}
    tested = 0
    for u in lattice.lex_box_points(box, r0, solve.m):
        tested += 1
        point = HomologyPoint(u, {x: 0})
        if lattice.membership(m, basis, f, (x,), x, {x: copaths[x]}, point) is not None:
            continue
        ell = residue_solve(m, basis, f, u, S, x, copaths, solve.m, r)
        if ell is not None:
            target = HomologyTarget(u, S, x, copaths, ell)
            return circulation.circulation_or_certificate(m, basis, f, target), tested
    return None, tested


def test_search_gives_the_same_results_as_with_the_two_step_solver(monkeypatch):
    def two_step_search(solve, f0, r0, r):
        res, tested = reference_search(solve, f0, r0, r, two_step)
        solve.points_tested += tested
        return res

    verdicts = set()
    for g, pre in hexagon_instances():
        got = outcome(extend_precoloring(g, pre))
        with monkeypatch.context() as mp:
            mp.setattr(lattice, "find_constrained_circulation", two_step_search)
            assert got == outcome(extend_precoloring(g, pre))
        verdicts.add(got[0])
    assert verdicts == {True, False}


def test_points_cut_counts_the_points_a_kept_cut_answers(monkeypatch):
    # membership with the search's state answers each point with a kept
    # cut, or with a layered pass that fails and keeps a new cut, or
    # accepts it
    g, pre = next(hexagon_instances())
    answers = []
    real = lattice.membership

    def counted(*args):
        search = args[-1]
        before = len(search.cuts)
        sep = real(*args)
        if sep is None:
            answers.append("accepted")
        else:
            answers.append("new cut" if len(search.cuts) > before else "kept cut")
            assert (sep.z, sep.rhs) in search.cuts and not sep.z_prime
        return sep

    monkeypatch.setattr(lattice, "membership", counted)
    res = extend_precoloring(g, pre)
    assert res.points_tested == len(answers)
    assert res.points_cut == answers.count("kept cut")
    assert answers.count("accepted") == 1
    assert (res.extendable, res.points_tested, res.points_cut, answers.count("new cut")) == (True, 5, 2, 2)
    assert repr(res) == "ColoringResult(Extendable, boundaries=1, points=5)"


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_wrong_labels_raise_under_optimization(flags):
    # the check must survive python -O, which strips assert statements:
    # labels that keep their residues but not the circulation's copath
    # pairings fail the validation of the returned circulation
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = (
        "from surfcolor import lattice\n"
        "from surfcolor.cli import gen_grid\n"
        "from surfcolor.solver import Precoloring, extend_precoloring\n"
        "real = lattice.layered_residue_solve\n"
        "def wrong(search, a):\n"
        "    ell = real(search, a)\n"
        "    if ell is not None:\n"
        "        for y in ell:\n"
        "            if y != search.solve.x:\n"
        "                search.ell[y] += 100 * search.solve.mod\n"
        "    return ell\n"
        "lattice.layered_residue_solve = wrong\n"
        "extend_precoloring(gen_grid(4, 4), Precoloring(3, {0: 0, 5: 2}))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    p = subprocess.run(
        [sys.executable] + flags + ["-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert p.returncode == 1
    assert p.stderr.rstrip().endswith(
        "AssertionError: copath pairing mismatch at face 5"
    )
