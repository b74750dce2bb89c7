"""The residue-layered solver against the two-step reference (rhs_table
plus residue_difference_solve) and brute force, alone and inside full
solves."""

import os
import random
import subprocess
import sys

import pytest

from surfcolor import circulation, errors, homology, lattice
from surfcolor.chains import Chain1
from surfcolor.circulation import HomologyTarget
from surfcolor.cli import gen_bouquet, gen_grid
from surfcolor.lattice import (
    HomologyPoint,
    integer_points_bruteforce,
    layered_residue_solve,
    residue_difference_solve,
    rhs_table,
)
from surfcolor.solver import Precoloring, extend_precoloring

from conftest import CORPUS, random_map, random_nowhere_zero
from test_near_quadrangulations import delete_edges


def two_step(m, basis, f, a, S, x, copaths, mod, r, search=None):
    """The reference: |S| shortest-path rows, then the residue system."""
    beta = rhs_table(m, basis, f, a, S, x, copaths)
    return residue_difference_solve(S, x, mod, beta, r)


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
        anchors = sorted({a for a, _ in integer_points_bruteforce(m, basis, f, S, x, cps)})
        for a in rng.sample(anchors, min(3, len(anchors))):
            for mod in (3, 5, 7):
                r = {y: 0 if y == x else rng.randrange(mod) for y in S}
                got = layered_residue_solve(m, basis, f, a, S, x, cps, mod, r)
                assert got == two_step(m, basis, f, a, S, x, cps, mod, r)
                counts[got is not None] += 1
    assert counts[True] >= 20 and counts[False] >= 20, counts


def test_layered_solve_returns_the_largest_brute_force_labels():
    # at a box point u the labels are the a' of the brute-forced integer
    # points (u, a') with a'(x) = 0 and a' = r (mod m): the pass returns
    # None exactly when there are none, else their componentwise maximum,
    # which is one of them; without a state an outside u raises instead
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
        points = integer_points_bruteforce(m, basis, f, S, x, cps)
        box, _ = lattice.pairing_bounds(f, basis, cps)
        for mod in (3, 5):
            r = {y: 0 if y == x else rng.randrange(mod) for y in S}
            r0 = [rng.randrange(mod) for _ in basis.Y]
            state = lattice.SearchState(m, basis, f, (S, x, cps, mod, r))
            for u in lattice.lex_box_points(box, r0, mod):
                labels = [dict(zip(sorted(S), ap)) for a, ap in points if a == u]
                labels = [ell for ell in labels if all((ell[y] - r[y]) % mod == 0 for y in S)]
                assert all(ell[x] == 0 for ell in labels)
                got = layered_residue_solve(m, basis, f, u, S, x, cps, mod, r, state)
                if labels:
                    top = {y: max(ell[y] for ell in labels) for y in S}
                    assert top in labels and got == top
                else:
                    assert got is None
                try:
                    alone = layered_residue_solve(m, basis, f, u, S, x, cps, mod, r)
                except errors.AnchorOutsidePolytope:
                    assert all(a != u for a, _ in points)
                    counts["outside"] += 1
                    alone = None
                assert alone == got
                counts[got is not None] += 1
    assert counts[True] >= 60 and counts[False] >= 60 and counts["outside"] >= 20, counts


def test_layered_solve_rejects_outside_anchor():
    m = gen_bouquet(2)
    basis = homology.cohomology_basis(m)
    cps = homology.copaths_from(m, 0, (0,))
    f = Chain1(m, {0: 1, 2: 1})
    with pytest.raises(errors.AnchorOutsidePolytope):
        layered_residue_solve(m, basis, f, (5, 0), (0,), 0, cps, 3, {0: 0})


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


def outcome(res):
    d = res.witness_boundary
    return (
        res.extendable,
        res.coloring,
        d and d.items(),
        res.boundaries_tried,
        res.points_tested,
    )


def reference_search(m, basis, f0, spec, S, x, copaths, solve=layered_residue_solve):
    """The lattice search without its state, point by point: the stateless
    membership oracle, then the stateless solve at the points inside.
    Returns the circulation, or None, and the number of points tested."""
    f = f0.chain
    box, _ = lattice.pairing_bounds(f, basis, copaths)
    r = {y: 0 for y in S}
    r.update(spec.r0_prime)
    r[x] = 0
    tested = 0
    for u in lattice.lex_box_points(box, spec.r0, spec.m):
        tested += 1
        point = HomologyPoint(u, {x: 0})
        if lattice.membership(m, basis, f, (x,), x, {x: copaths[x]}, point) is not None:
            continue
        ell = solve(m, basis, f, u, S, x, copaths, spec.m, r)
        if ell is not None:
            target = HomologyTarget(u, S, x, copaths, ell)
            return circulation.circulation_or_certificate(m, basis, f, target), tested
    return None, tested


def test_search_gives_the_same_results_as_with_the_two_step_solver(monkeypatch):
    def two_step_search(m, basis, f0, spec, S, x, copaths, stats):
        res, tested = reference_search(m, basis, f0, spec, S, x, copaths, two_step)
        stats.points_tested += tested
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
    # labels that keep their residues but exceed every copath's capacity
    # make the engine return a certificate
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = (
        "from surfcolor import lattice\n"
        "from surfcolor.cli import gen_grid\n"
        "from surfcolor.solver import Precoloring, extend_precoloring\n"
        "real = lattice.layered_residue_solve\n"
        "def wrong(m, basis, f, a, S, x, copaths, mod, r, search=None):\n"
        "    ell = real(m, basis, f, a, S, x, copaths, mod, r)\n"
        "    return ell and {y: v if y == x else v + 100 * mod for y, v in ell.items()}\n"
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
        "AssertionError: feasible target must yield a circulation"
    )
