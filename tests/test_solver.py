"""Flow-coloring duality and the precoloring-extension solver."""

import random
from types import SimpleNamespace

import pytest

from surfcolor import Flow, build_map, chains, dual, errors
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
from surfcolor.surface_map import CombinatorialMap, face_profile

from conftest import backtrack_extendable, random_map
from map_reference import is_loop


def grid_coloring(a, b):
    return {i * b + j: (i + j) % 3 for i in range(a) for j in range(b)}


def test_verify_homomorphism_examples():
    g33 = gen_grid(3, 3)
    assert verify_homomorphism(g33, 3, grid_coloring(3, 3))
    assert not verify_homomorphism(g33, 3, {v: 0 for v in range(9)})
    g44 = gen_grid(4, 4)
    two_color = {v: (v // 4 + v) % 2 for v in range(16)}
    assert verify_homomorphism(g44, 5, two_color)  # 0,1 adjacent in C_5


def test_verify_homomorphism_checks_the_precoloring():
    g33 = gen_grid(3, 3)
    phi = grid_coloring(3, 3)
    assert verify_homomorphism(g33, 3, phi, {4: phi[4]})
    assert not verify_homomorphism(g33, 3, phi, {4: (phi[4] + 1) % 3})


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
        coloring_to_flow(h, {v: 0 for v in range(9)}, 3, dual_map=dual(h))


def test_coloring_to_flow_from_bipartition():
    # a 2-coloring of a bipartite quadrangulation is a valid C_3 target
    h = gen_grid(4, 4)
    two = {i * 4 + j: (i + j) % 2 for i in range(4) for j in range(4)}
    f = coloring_to_flow(h, two, 3, dual_map=dual(h))
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
        cps = copaths_from(g, x, range(g.num_faces))
        want = {y: (c0 + pair(f, cps[y])) % m for y in range(g.num_faces)}
        # flow_to_coloring reads only f.chain, and a Flow would reject
        # these coefficients outside {-1, 0, 1}
        assert flow_to_coloring(g, SimpleNamespace(chain=f), m, (x, c0)) == want
        checked += len(set(want.values())) > 1
    assert checked >= 30


@pytest.mark.parametrize("m, error", [(0, errors.EvenModulus), (1, errors.ModulusTooSmall),
                                      (4, errors.EvenModulus), (True, errors.SurfcolorError)])
def test_the_decode_and_the_encode_check_their_modulus(m, error):
    # the decode divided by 0 at m = 0, and at m = 1 the encode turned the
    # all-0 coloring into a "flow" of all -1
    h = gen_grid(3, 3)
    g = dual(h)
    f = coloring_to_flow(h, grid_coloring(3, 3), 3, g)
    with pytest.raises(error):
        flow_to_coloring(g, f, m, (0, 0))
    with pytest.raises(error):
        coloring_to_flow(h, {v: 0 for v in range(9)}, m, g)


def test_flow_to_coloring_rejects_bad_pairings():
    m = gen_bouquet(2)
    f = Flow(Chain1(m, {0: 1, 2: 1}))
    with pytest.raises(errors.DivisibilityViolation):
        flow_to_coloring(m, f, 3, (0, 0))


def test_flow_to_coloring_rejects_a_boundary_not_divisible_by_m():
    g = gen_grid(3, 3)
    f = Flow(Chain1(g, {0: 1}))  # one edge between two vertices: boundary +-1
    with pytest.raises(errors.DivisibilityViolation, match="flow boundary not divisible by 3"):
        flow_to_coloring(g, f, 3, (0, 0))


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


def test_a_map_with_no_vertices_is_refused_as_build_map_refuses_it():
    # build_map raises Disconnected("empty map") for no rotations; the
    # solver raises the same for such a map built directly, instead of
    # anchoring a vertex 0 that does not exist
    with pytest.raises(errors.Disconnected, match="empty map"):
        build_map([])
    empty = CombinatorialMap(0, [], [], [], [], [], 0)
    for pre in (Precoloring(3), Precoloring(5)):
        with pytest.raises(errors.Disconnected, match="empty map"):
            extend_precoloring(empty, pre)


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


@pytest.mark.parametrize(
    "psi, message",
    [
        ({0: True}, "color True at vertex 0 is not an integer"),
        ({True: 1}, "precolored vertex True is not an integer"),
        ({0: 1.0}, "color 1.0 at vertex 0 is not an integer"),
        ({0.0: 1}, "precolored vertex 0.0 is not an integer"),
    ],
    ids=["bool-color", "bool-vertex", "float-color", "float-vertex"],
)
def test_non_int_precolorings_are_named_as_such(psi, message):
    # {0: True} and {True: 1} used to solve as {0: 1} and {1: 1}, and a
    # float color was reported as out of range
    with pytest.raises(ValueError) as info:
        Precoloring(3, psi)
    assert str(info.value) == message


def test_a_precolored_vertex_outside_the_map_is_refused():
    pre = Precoloring(3, {9: 1})
    with pytest.raises(ValueError, match="not in the map"):
        extend_precoloring(gen_grid(3, 3), pre)
    pre.psi = {True: 1}
    with pytest.raises(ValueError, match="not in the map"):
        extend_precoloring(gen_grid(3, 3), pre)


def _solve_grid33(modulus, psi=None):
    return extend_precoloring(gen_grid(3, 3), Precoloring(modulus, psi))


@pytest.mark.parametrize(
    "call",
    [
        lambda: _solve_grid33(3.0),
        lambda: _solve_grid33("3"),
        lambda: face_profile(gen_grid(3, 3), 3.0),
        lambda: _solve_grid33(3, {0: 1.0, 4: 2}),
        lambda: _solve_grid33(3, {0.0: 1}),
        lambda: _solve_grid33(3, {"a": 1}),
        lambda: _solve_grid33(3, {0: 0, 1: 1.5}),
    ],
    ids=["float-modulus", "str-modulus", "float-profile-modulus", "float-color",
         "float-vertex", "str-vertex", "fractional-color"],
)
def test_non_integer_inputs_raise_value_error(call):
    # a modulus, color or vertex id that is not an int is refused up front,
    # not met as a TypeError inside the solve or answered NONE
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("modulus", [True, False])
def test_a_bool_modulus_is_no_integer(modulus):
    # bool is a subclass of int: True used to be reported as the
    # modulus 1, too small, and False as 0, even (the boundary stream's
    # check is test_flows.test_relevant_boundaries_check_the_modulus)
    with pytest.raises(errors.SurfcolorError, match="must be an integer, got %s$" % modulus):
        Precoloring(modulus)
    with pytest.raises(errors.SurfcolorError, match="must be an integer, got %s$" % modulus):
        face_profile(gen_grid(3, 3), modulus)


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
        if any(is_loop(m, h) for h in m.canonical_half_edges()):
            continue
        mod = rng.choice((3, 5))
        k = rng.randint(0, 2)
        psi = {rng.randrange(m.num_vertices): rng.randrange(mod) for _ in range(k)}
        res = extend_precoloring(m, Precoloring(mod, psi))
        assert res.extendable == backtrack_extendable(m, mod, psi)
        if res.extendable:
            assert verify_homomorphism(m, mod, res.coloring, psi)
        done += 1


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("modulus", [3, 5])
def test_bruteforce_oracle_rejects_loops(k, modulus):
    assert not backtrack_extendable(gen_bouquet(k), modulus)


def test_random_maps_with_loops_match_backtracking():
    # random_map keeps its loops and parallel edges here; the floors keep
    # the test from passing on maps that exercise only one side
    rng = random.Random(151)
    with_loop = extendable = loopless_none = 0
    for _ in range(300):
        m = random_map(rng, max_edges=12, max_vertices=7)
        mod = rng.choice((3, 5, 7))
        k = rng.randint(0, 3)
        psi = {rng.randrange(m.num_vertices): rng.randrange(mod) for _ in range(k)}
        res = extend_precoloring(m, Precoloring(mod, psi))
        assert res.extendable == backtrack_extendable(m, mod, psi)
        has_loop = any(is_loop(m, h) for h in m.canonical_half_edges())
        with_loop += has_loop
        if res.extendable:
            assert verify_homomorphism(m, mod, res.coloring, psi)
            extendable += 1
        elif not has_loop:
            loopless_none += 1
    assert with_loop >= 150 and extendable >= 50 and loopless_none >= 30


def test_boundary_accounting(corpus_map):
    from surfcolor.surface_map import face_profile

    m = corpus_map
    if any(is_loop(m, h) for h in m.canonical_half_edges()):
        pytest.skip("loops are rejected upfront")
    prof = face_profile(m, 3)
    res = extend_precoloring(m, Precoloring(3))
    assert res.boundaries_tried <= prof.q_star
