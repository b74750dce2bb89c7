"""Flow-coloring duality and the precoloring-extension solver."""

import random

import pytest

from surfcolor import build_map, chains, dual, errors
from surfcolor.chains import Chain1, Chain2, pair
from surfcolor.cli import gen_bouquet, gen_grid, gen_q13
from surfcolor.homology import cohomology_basis, copaths_from
from surfcolor.solver import (
    Precoloring,
    coloring_to_flow,
    extend_precoloring,
    flow_to_coloring,
    verify_homomorphism,
)

from conftest import backtrack_extendable, random_map


def grid_coloring(a, b):
    return {i * b + j: (i + j) % 3 for i in range(a) for j in range(b)}


def test_verify_homomorphism_examples():
    g33 = gen_grid(3, 3)
    assert verify_homomorphism(g33, 3, grid_coloring(3, 3))
    assert not verify_homomorphism(g33, 3, {v: 0 for v in range(9)})
    g44 = gen_grid(4, 4)
    two_color = {v: (v // 4 + v) % 2 for v in range(16)}
    assert verify_homomorphism(g44, 5, two_color)  # 0,1 adjacent in C_5


def test_coloring_to_flow_properties():
    h = gen_grid(3, 3)
    g = dual(h)
    f = coloring_to_flow(h, grid_coloring(3, 3), 3, dual_map=g)
    assert f.nowhere_zero
    basis = cohomology_basis(g)
    d = chains.boundary1(f.chain)
    assert all(c % 3 == 0 for _, c in d.items())
    for k in basis.cocycles:
        assert pair(f.chain, k) % 3 == 0


def test_coloring_to_flow_rejects_non_homomorphism():
    h = gen_grid(3, 3)
    with pytest.raises(errors.NotAHomomorphism):
        coloring_to_flow(h, {v: 0 for v in range(9)}, 3)


def test_coloring_to_flow_from_bipartition():
    # a 2-coloring of a bipartite quadrangulation is a valid C_3 target
    h = gen_grid(4, 4)
    two = {i * 4 + j: (i + j) % 2 for i in range(4) for j in range(4)}
    f = coloring_to_flow(h, two, 3)
    assert f.nowhere_zero
    d = chains.boundary1(f.chain)
    assert all(c % 3 == 0 for _, c in d.items())


def test_flow_to_coloring_roundtrip():
    h = gen_grid(3, 3)
    g = dual(h)
    phi = grid_coloring(3, 3)
    f = coloring_to_flow(h, phi, 3, dual_map=g)
    for anchor_face in (0, 4):
        out = flow_to_coloring(g, f, 3, (anchor_face, phi[anchor_face]))
        assert verify_homomorphism(h, 3, out)
        # gauge identity: color differences agree with the flow edge-wise
        for hh in g.half_edges():
            y, y2 = g.left[hh], g.left[g.opp[hh]]
            assert (out[y] - out[y2]) % 3 == f.chain[hh] % 3
        assert out == phi  # same anchor color forces equality here


def test_flow_to_coloring_walk_matches_the_copath_pairings():
    # f = the boundary of a random face potential plus m times a random
    # chain, so its boundary and basis pairings vanish mod m
    rng = random.Random(131)
    checked = 0
    for _ in range(60):
        g = random_map(rng, max_edges=14)
        m = rng.choice((3, 5, 7))
        potential = Chain2(g, {y: rng.randint(-9, 9) for y in range(g.num_faces)})
        noise = Chain1(g, {h: rng.randint(-3, 3) for h in g.canonical_half_edges()})
        f = chains.boundary2(potential) + m * noise
        x, c0 = rng.randrange(g.num_faces), rng.randrange(m)
        cps = copaths_from(g, x)
        want = {y: (c0 + pair(f, cps[y].chain)) % m for y in range(g.num_faces)}
        assert flow_to_coloring(g, f, m, (x, c0)) == want
        checked += len(set(want.values())) > 1
    assert checked >= 30


def test_flow_to_coloring_rejects_bad_pairings():
    m = gen_bouquet(2)
    f = Chain1(m, {0: 1, 2: 1})
    with pytest.raises(errors.DivisibilityViolation):
        flow_to_coloring(m, f, 3, (0, 0))


def test_extend_grid33_empty():
    res = extend_precoloring(gen_grid(3, 3), Precoloring(3))
    assert res.extendable
    assert verify_homomorphism(gen_grid(3, 3), 3, res.coloring)


def test_extend_q13_not_colorable():
    res = extend_precoloring(gen_q13(), Precoloring(3))
    assert not res.extendable
    assert res.boundaries_tried == 1


def test_extend_rejects_adjacent_equal_precolors():
    res = extend_precoloring(gen_grid(3, 3), Precoloring(3, {0: 0, 1: 0}))
    assert not res.extendable
    assert res.reason is not None


def test_extend_respects_precoloring():
    g = gen_grid(3, 4)
    psi = {0: 0, 5: 1}
    res = extend_precoloring(g, Precoloring(3, psi))
    if res.extendable:
        assert verify_homomorphism(g, 3, res.coloring, psi)
    assert res.extendable == backtrack_extendable(g, 3, psi)


def test_extend_loop_rejected():
    m = build_map([[0, 1]])  # single loop
    res = extend_precoloring(m, Precoloring(3))
    assert not res.extendable
    assert "loop" in res.reason


def test_extend_k1():
    res = extend_precoloring(build_map([[]]), Precoloring(3))
    assert res.extendable
    assert res.coloring == {0: 0}


def test_extend_single_edge():
    m = build_map([[0], [1]])
    res = extend_precoloring(m, Precoloring(3, {0: 2}))
    assert res.extendable
    assert verify_homomorphism(m, 3, res.coloring, {0: 2})


def test_precoloring_validation():
    with pytest.raises(errors.EvenModulus):
        Precoloring(4)
    with pytest.raises(errors.ModulusTooSmall):
        Precoloring(1)
    with pytest.raises(ValueError):
        Precoloring(3, {0: 3})


def test_grid33_m5_matches_bruteforce():
    g = gen_grid(3, 3)
    res = extend_precoloring(g, Precoloring(5))
    assert res.extendable == backtrack_extendable(g, 5)


def test_grid35_m5_positive():
    g = gen_grid(3, 5)
    res = extend_precoloring(g, Precoloring(5))
    assert res.extendable == backtrack_extendable(g, 5)
    if res.extendable:
        assert verify_homomorphism(g, 5, res.coloring)


def test_random_precolorings_match_bruteforce():
    rng = random.Random(127)
    g = gen_grid(3, 3)
    for _ in range(40):
        k = rng.randint(0, 5)
        psi = {rng.randrange(9): rng.randrange(3) for _ in range(k)}
        res = extend_precoloring(g, Precoloring(3, psi))
        assert res.extendable == backtrack_extendable(g, 3, psi)
        if res.extendable:
            assert verify_homomorphism(g, 3, res.coloring, psi)


def test_random_maps_match_bruteforce():
    rng = random.Random(131)
    done = 0
    while done < 30:
        m = random_map(rng, max_edges=10, max_vertices=5)
        if any(m.is_loop(h) for h in m.canonical_half_edges()):
            continue
        mod = rng.choice((3, 5))
        k = rng.randint(0, 2)
        psi = {rng.randrange(m.num_vertices): rng.randrange(mod) for _ in range(k)}
        res = extend_precoloring(m, Precoloring(mod, psi))
        assert res.extendable == backtrack_extendable(m, mod, psi)
        if res.extendable:
            assert verify_homomorphism(m, mod, res.coloring, psi)
        done += 1


def test_boundary_accounting(corpus_map):
    from surfcolor.surface_map import face_profile

    m = corpus_map
    if any(m.is_loop(h) for h in m.canonical_half_edges()):
        pytest.skip("loops are rejected upfront")
    prof = face_profile(m, 3)
    res = extend_precoloring(m, Precoloring(3))
    assert res.boundaries_tried <= prof.q_star
