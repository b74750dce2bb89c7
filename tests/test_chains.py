"""Chain groups, boundary and coboundary operators, and the pairings."""

import random

import pytest

from surfcolor import chains, errors, surface_map
from surfcolor.chains import (
    Chain0,
    Chain1,
    Chain2,
    boundary0,
    boundary1,
    boundary2,
    coboundary1,
    coboundary2,
    is_cocycle,
    is_cycle,
    pair,
    pair_plus,
)
from surfcolor.cli import gen_bouquet, gen_grid

from conftest import random_nowhere_zero
from map_reference import vertex_coboundary


def random_chain1(rng, m, lo=-3, hi=3):
    return Chain1(m, {h: rng.randint(lo, hi) for h in m.canonical_half_edges()})


def test_antisymmetry_read():
    m = gen_bouquet(2)
    k = Chain1(m, {0: 5})
    assert k[0] == 5
    assert k[1] == -5
    assert k[2] == 0


def test_opposite_keys_merge():
    m = gen_bouquet(2)
    k = Chain1(m, {0: 2, 1: 3})  # h1 = opp(h0) contributes -3 at h0
    assert k[0] == -1


def test_norm_counts_canonical_only():
    m = gen_bouquet(2)
    k = Chain1(m, {0: 2, 2: -3})
    assert k.norm() == 5


def test_boundary_of_boundary_vanishes(corpus_map):
    m = corpus_map
    for x in range(m.num_faces):
        assert boundary1(chains.face_boundary(m, x)).is_zero()
    for v in range(m.num_vertices):
        assert coboundary1(vertex_coboundary(m, v)).is_zero()


def test_bouquet_boundaries_vanish_entirely():
    m = gen_bouquet(2)
    assert chains.face_boundary(m, 0).is_zero()
    assert vertex_coboundary(m, 0).is_zero()


def test_walk_chain_telescopes():
    m = gen_grid(3, 3)
    # walk along two east edges from vertex 0: 0 -> (1,0)=3 -> (2,0)=6
    walk = [0, 2 * 3]
    w = chains.walk_chain(m, walk)
    d = boundary1(w)
    assert d == Chain0(m, {0: -1, 6: 1})


def test_single_half_edge_coboundary():
    m = gen_grid(3, 3)
    h = 0
    a = coboundary1(Chain1(m, {h: 1}))
    assert a == Chain2(m, {m.left[h]: 1, m.left[m.opp[h]]: -1})


def test_linearity_of_operators(corpus_map):
    rng = random.Random(99)
    m = corpus_map
    k1 = random_chain1(rng, m)
    k2 = random_chain1(rng, m)
    assert boundary1(k1 + k2) == boundary1(k1) + boundary1(k2)
    assert coboundary1(3 * k1 - k2) == 3 * coboundary1(k1) - coboundary1(k2)
    a = Chain2(m, {x: rng.randint(-2, 2) for x in range(m.num_faces)})
    b = Chain0(m, {v: rng.randint(-2, 2) for v in range(m.num_vertices)})
    assert boundary0(boundary1(boundary2(a))) == 0
    assert boundary1(boundary2(a)).is_zero()
    assert coboundary1(coboundary2(b)).is_zero()
    assert boundary0(coboundary1(k1)) == 0


def test_pair_examples_on_bouquet():
    m = gen_bouquet(2)
    f = Chain1(m, {0: 1, 2: 1})
    assert pair(f, Chain1(m, {0: 1})) == 1
    assert pair(f, Chain1(m, {2: 1})) == 1
    k = Chain1(m, {0: 1, 2: -1})
    assert pair_plus(f, k) == 1
    assert pair_plus(f, Chain1(m)) == 0


def test_pair_against_vertex_coboundary_is_excess(corpus_map):
    rng = random.Random(7)
    m = corpus_map
    for _ in range(20):
        f = random_chain1(rng, m)
        d = boundary1(f)
        for v in range(m.num_vertices):
            assert pair(f, vertex_coboundary(m, v)) == d[v]


def test_pair_excess_identity_on_100_random_maps():
    from conftest import random_map

    rng = random.Random(19)
    for _ in range(100):
        m = random_map(rng, max_edges=8)
        f = random_chain1(rng, m)
        d = boundary1(f)
        for v in range(m.num_vertices):
            assert pair(f, vertex_coboundary(m, v)) == d[v]


def test_cycle_pairs_zero_with_coboundaries(corpus_map):
    rng = random.Random(11)
    m = corpus_map
    for _ in range(10):
        a = Chain2(m, {x: rng.randint(-2, 2) for x in range(m.num_faces)})
        b = Chain0(m, {v: rng.randint(-2, 2) for v in range(m.num_vertices)})
        cycle = boundary2(a)
        cob = coboundary2(b)
        assert pair(cycle, cob) == 0


def test_pair_plus_identities(corpus_map):
    rng = random.Random(13)
    m = corpus_map
    if m.num_edges == 0:
        pytest.skip("needs edges")
    for _ in range(20):
        f = random_nowhere_zero(rng, m)
        k = random_chain1(rng, m)
        assert pair_plus(f, k) == pair_plus(-f, -k)
        assert pair(f, k) == pair_plus(f, k) - pair_plus(-f, k)
        assert k.norm() == pair_plus(f, k) + pair_plus(-f, k)


def test_pair_plus_identities_general_chains(corpus_map):
    rng = random.Random(17)
    m = corpus_map
    for _ in range(10):
        f = random_chain1(rng, m)
        k = random_chain1(rng, m)
        assert pair_plus(f, k) == pair_plus(-f, -k)
        assert pair(f, k) == pair_plus(f, k) - pair_plus(-f, k)


def test_cycle_and_cocycle_predicates():
    from surfcolor import build_map

    m = gen_bouquet(2)
    a = Chain1(m, {0: 1})
    assert is_cycle(a) and is_cocycle(a)
    # on the two-vertex double-edge sphere map a single half-edge is
    # neither: both its boundary and its coboundary are nonzero
    two = build_map([[0, 2], [1, 3]])
    k = Chain1(two, {0: 1})
    assert not is_cycle(k)
    assert not is_cocycle(k)
    # on the single-edge sphere map the edge is a cut, so the same chain
    # is a cocycle (yet still not a cycle)
    bridge = build_map([[0], [1]])
    k2 = Chain1(bridge, {0: 1})
    assert not is_cycle(k2)
    assert is_cocycle(k2)


def test_generators_are_cycles_and_cocycles(corpus_map):
    m = corpus_map
    for x in range(m.num_faces):
        assert is_cycle(chains.face_boundary(m, x))
    for v in range(m.num_vertices):
        assert is_cocycle(vertex_coboundary(m, v))


def test_map_mismatch_raises():
    m1 = gen_bouquet(2)
    m2 = gen_bouquet(2)
    with pytest.raises(errors.MapMismatch):
        pair(Chain1(m1, {0: 1}), Chain1(m2, {0: 1}))
    with pytest.raises(errors.MapMismatch):
        Chain1(m1, {0: 1}) + Chain1(m2, {0: 1})


def test_deterministic_item_order():
    m = gen_bouquet(3)
    k = Chain1(m, {4: 1, 0: 2, 2: -1})
    assert [h for h, _ in k.items()] == [0, 2, 4]


def test_chain_instances_have_no_dict():
    m = gen_grid(3, 3)
    for chain in (Chain0(m, {0: 1}), Chain1(m, {0: 1}), Chain2(m, {0: 1})):
        assert not hasattr(chain, "__dict__")


def test_chain0_refuses_keys_outside_the_vertices():
    # flow_with_boundary once read such a key as a list index: on the 3x3
    # grid {0: 1, -1: -1} gave None and {0: 1, 9: -1} a bare IndexError
    m = gen_grid(3, 3)
    for coeffs in ({0: 1, -1: -1}, {0: 1, 9: -1}, {True: 1, 0: -1}, {0: 1, 8: 0, 9: 0}):
        with pytest.raises(ValueError, match="not in the map"):
            Chain0(m, coeffs)
    assert Chain0(m, {0: 1, 8: -1}).coeffs == {0: 1, 8: -1}


def test_chain1_and_chain2_refuse_keys_outside_the_map():
    # on the dual of the 3x3 grid, Chain1 once stored the key -1, Chain2
    # took it and boundary2 read it as the last face, and Chain2 took the
    # key 99 to a bare IndexError later
    g = surface_map.dual(gen_grid(3, 3))
    for cls, n in ((Chain1, g.half_edge_count), (Chain2, g.num_faces)):
        for coeffs in ({-1: 1}, {99: 1}, {n: 1}, {True: 1}, {0: 1, n: 0}, {"0": 1}):
            with pytest.raises(ValueError, match="not in the map"):
                cls(g, coeffs)
        assert cls(g, {0: 1, n - 1: -1})[n - 1] == -1


def _id_entries():
    """(what, n, call) of every entry that takes a map id: call(k) hands k
    to the entry as an id of a map with n of what it names."""
    from types import SimpleNamespace

    from surfcolor import circulation, homology, solver

    h = gen_grid(3, 3)
    g = surface_map.dual(h)
    basis = homology.cohomology_basis(g)
    phi = {v: (v % 3 + v // 3) % 3 for v in range(h.num_vertices)}
    flow = solver.coloring_to_flow(h, phi, 3, g)
    zero = (0,) * len(basis.Y)

    def engine(k):
        target = circulation.HomologyTarget(zero, (0, k), 0, {0: Chain1(g), k: Chain1(g)}, {0: 0, k: 0})
        circulation.circulation_or_certificate(g, basis, Chain1(g), target)

    return [
        ("vertex", h.num_vertices, lambda k: Chain0(h, {k: 1})),
        ("half-edge", h.half_edge_count, lambda k: Chain1(h, {k: 1})),
        ("face", h.num_faces, lambda k: Chain2(h, {k: 1})),
        ("face", g.num_faces, lambda k: homology.copaths_from(g, k, (0,))),
        ("face", g.num_faces, lambda k: homology.copaths_from(g, 0, (0, k))),
        ("face", g.num_faces, lambda k: solver.flow_to_coloring(g, flow, 3, (k, 0))),
        ("face", g.num_faces, engine),
        # Precoloring refuses a bool vertex itself, so the solve gets a
        # bare record with the fields it reads
        ("precolored vertex", h.num_vertices,
         lambda k: solver.extend_precoloring(h, SimpleNamespace(m=3, psi={k: 0}))),
    ]


def test_every_id_taking_entry_prints_the_same_refusal():
    # the chains' keys, the copaths' x and targets, the decode anchor,
    # the engine's S and the precoloring all refuse -1, the id one past
    # the end and True with "<what> <id> not in the map", word for word
    got = []
    for _, n, call in _id_entries():
        for k in (-1, n, True):
            with pytest.raises(ValueError) as info:
                call(k)
            got.append(str(info.value))
    want = []
    for what, n in [("vertex", 9), ("half-edge", 36)] + [("face", 9)] * 5 + [("precolored vertex", 9)]:
        want += ["%s -1 not in the map" % what, "%s %d not in the map" % (what, n), "%s True not in the map" % what]
    assert got == want


def test_chain0_and_chain2_with_equal_coefficients_differ():
    m = gen_grid(3, 3)
    assert Chain0(m, {0: 1, 4: -2}) != Chain2(m, {0: 1, 4: -2})
    assert Chain0(m) != Chain2(m)


def test_equal_chains_hash_equal(corpus_map):
    rng = random.Random(23)
    m = corpus_map
    k = random_chain1(rng, m)
    # the same 1-chain written on the opposite half-edges
    flipped = Chain1(m, {m.opp[h]: -c for h, c in k.items()})
    assert flipped == k
    assert hash(flipped) == hash(k)
    a = Chain2(m, {x: rng.randint(-2, 2) for x in range(m.num_faces)})
    assert hash(a + a - a) == hash(a)
    b = Chain0(m, {v: rng.randint(-2, 2) for v in range(m.num_vertices)})
    assert hash(-(-b)) == hash(b)


def test_reprs_are_pinned():
    m = gen_grid(3, 3)
    assert repr(Chain0(m, {4: -2, 0: 1})) == "Chain0(+1*0 -2*4)"
    assert repr(Chain1(m, {2: 2, 0: 1})) == "Chain1(+1*h0 +2*h2)"
    assert repr(Chain1(m, {m.opp[2]: 2})) == "Chain1(-2*h2)"
    assert repr(Chain2(m, {3: 5})) == "Chain2(+5*3)"
    assert repr(Chain1(m)) == "Chain1(0)"


def test_boundary2_and_coboundary2_extend_the_single_operators(corpus_map):
    rng = random.Random(29)
    m = corpus_map
    a = Chain2(m, {x: rng.randint(-3, 3) for x in range(m.num_faces)})
    b = Chain0(m, {v: rng.randint(-3, 3) for v in range(m.num_vertices)})
    want_a = Chain1(m)
    for x in range(m.num_faces):
        want_a = want_a + a[x] * chains.face_boundary(m, x)
    want_b = Chain1(m)
    for v in range(m.num_vertices):
        want_b = want_b + b[v] * vertex_coboundary(m, v)
    assert boundary2(a) == want_a
    assert coboundary2(b) == want_b
