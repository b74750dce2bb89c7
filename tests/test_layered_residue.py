"""The residue-layered solver against the two-step reference (rhs_table
plus residue_difference_solve), alone and inside full solves."""

import os
import random
import subprocess
import sys

import pytest

from surfcolor import errors, homology, lattice
from surfcolor.chains import Chain1
from surfcolor.cli import gen_bouquet, gen_grid
from surfcolor.lattice import (
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
        res.points_inside,
    )


def test_search_gives_the_same_results_as_with_the_two_step_solver(monkeypatch):
    verdicts = set()
    for g, pre in hexagon_instances():
        got = outcome(extend_precoloring(g, pre))
        with monkeypatch.context() as mp:
            mp.setattr(lattice, "layered_residue_solve", two_step)
            assert got == outcome(extend_precoloring(g, pre))
        verdicts.add(got[0])
    assert verdicts == {True, False}


def test_points_inside_counts_the_points_membership_accepts(monkeypatch):
    g, pre = next(hexagon_instances())
    accepted = []
    real = lattice.membership

    def counted(*args):
        sep = real(*args)
        accepted.append(sep is None)
        return sep

    monkeypatch.setattr(lattice, "membership", counted)
    res = extend_precoloring(g, pre)
    assert (res.points_tested, res.points_inside) == (len(accepted), sum(accepted))
    assert (res.extendable, res.points_tested, res.points_inside) == (True, 5, 3)
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
