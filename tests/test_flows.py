"""Flow realization, nowhere-zero completion, and boundary enumeration."""

import itertools
import random

import pytest

from surfcolor import build_map, chains, dual, errors, flows
from surfcolor.chains import Chain0, Chain1, boundary1
from surfcolor.cli import gen_bouquet, gen_grid, gen_q13
from surfcolor.surface_map import CombinatorialMap, face_candidates

from conftest import CORPUS, random_map, random_nowhere_zero


def test_parity_compliance():
    m = gen_grid(3, 3)  # all degrees 4
    assert flows.is_parity_compliant(m, Chain0(m))
    m2 = build_map([[0], [1]])  # degrees 1
    assert not flows.is_parity_compliant(m2, Chain0(m2))
    d = Chain0(m2, {0: 1, 1: -1})
    assert flows.is_parity_compliant(m2, d)
    # d[v] = deg(v) passes the parity test by definition
    m3 = gen_grid(3, 3)
    d3 = Chain0(m3, {v: m3.degree(v) for v in range(m3.num_vertices)})
    assert flows.is_parity_compliant(m3, d3)


def test_flow_with_zero_boundary_is_zero_flow():
    m = gen_bouquet(2)
    f = flows.flow_with_boundary(m, Chain0(m))
    assert f is not None
    assert f.chain.is_zero()


def test_flow_with_boundary_requires_zero_sum():
    m = gen_grid(3, 3)
    with pytest.raises(errors.NotAZeroBoundary):
        flows.flow_with_boundary(m, Chain0(m, {0: 2}))


def test_flow_routes_two_units_on_grid_dual():
    g = dual(gen_grid(3, 3))  # 4-regular
    h = g.canonical_half_edges()[0]
    u, w = g.tgt[g.opp[h]], g.tgt[h]
    d = Chain0(g, {u: 2, w: -2})
    f = flows.flow_with_boundary(g, d)
    assert f is not None
    assert boundary1(f.chain) == d


def test_flow_infeasible_on_bridge():
    # path on three vertices: sending 2 units across a unit bridge fails
    m = build_map([[0], [1, 2], [3]])
    d = Chain0(m, {0: -3, 2: 3})
    assert chains.boundary0(d) == 0
    assert flows.flow_with_boundary(m, d) is None


def test_completion_of_zero_flow_on_bouquet():
    m = gen_bouquet(2)
    f0 = flows.nowhere_zero_completion(m, flows.Flow(Chain1(m)))
    assert f0.nowhere_zero
    assert boundary1(f0.chain).is_zero()


def test_completion_keeps_nowhere_zero_flows():
    m = gen_bouquet(2)
    f = flows.Flow(Chain1(m, {0: 1, 2: -1}))
    done = flows.nowhere_zero_completion(m, f)
    assert done.chain == f.chain


def test_completion_keeps_f1_on_its_support():
    # random_map keeps its loops and parallel edges; the boundary of a
    # nowhere-zero flow is parity-compliant and realizable
    rng = random.Random(124)
    with_zeros = loops = 0
    for _ in range(300):
        m = random_map(rng, max_edges=12)
        f1 = flows.flow_with_boundary(m, boundary1(random_nowhere_zero(rng, m)))
        f0 = flows.nowhere_zero_completion(m, f1)
        for h, c in f1.chain.coeffs.items():
            assert f0.chain[h] == c
        assert all(abs(f0.chain[h]) == 1 for h in m.canonical_half_edges())
        assert boundary1(f0.chain) == boundary1(f1.chain)
        if not f1.nowhere_zero:
            with_zeros += 1
            loops += any(m.tgt[h] == m.tgt[m.opp[h]] for h in m.canonical_half_edges())
    # the completion had edges to fill in, also on maps with loops
    assert with_zeros >= 200 and loops >= 150, (with_zeros, loops)


def test_completion_rejects_odd_zero_subgraph():
    m = build_map([[0], [1]])
    with pytest.raises(errors.ParityViolation):
        flows.nowhere_zero_completion(m, flows.Flow(Chain1(m)))


def test_eulerian_orientation_on_even_maps(corpus_map):
    m = corpus_map
    if any(m.degree(v) % 2 for v in range(m.num_vertices)):
        pytest.skip("needs an all-even-degree map")
    f0 = flows.nowhere_zero_flow_with_boundary(m, Chain0(m))
    assert f0 is not None
    assert f0.nowhere_zero
    assert boundary1(f0.chain).is_zero()


def test_nowhere_zero_flow_none_when_parity_fails():
    m = build_map([[0], [1]])
    assert flows.nowhere_zero_flow_with_boundary(m, Chain0(m)) is None


def test_nowhere_zero_flow_on_q13_dual():
    g = dual(gen_q13())
    f0 = flows.nowhere_zero_flow_with_boundary(g, Chain0(g))
    assert f0 is not None and f0.nowhere_zero


def test_realized_boundaries_match_exactly():
    rng = random.Random(53)
    done = 0
    while done < 25:
        m = random_map(rng)
        f = random_nowhere_zero(rng, m)
        d = boundary1(f)
        f1 = flows.flow_with_boundary(m, d)
        assert f1 is not None, "a realizable boundary must be realized"
        assert boundary1(f1.chain) == d
        nz = flows.nowhere_zero_flow_with_boundary(m, d)
        assert nz is not None
        assert nz.nowhere_zero
        assert boundary1(nz.chain) == d
        done += 1


def test_relevant_boundaries_quadrangulation_dual():
    g = dual(gen_grid(3, 3))
    bs = list(flows.relevant_boundaries(g, 3))
    assert len(bs) == 1
    assert bs[0].is_zero()


def test_relevant_boundaries_degree_three():
    # bouquet of one loop plus a pendant edge gives odd degrees 1 and 3;
    # build the theta graph instead: two vertices, three parallel edges
    m = build_map([[0, 2, 4], [1, 3, 5]])
    # degrees are 3: candidates at m=3 are {-3, 3}
    from surfcolor.surface_map import face_candidates

    assert face_candidates(3, 3) == [-3, 3]
    bs = list(flows.relevant_boundaries(m, 3))
    assert [sorted(b.items()) for b in bs] == [
        [(0, -3), (1, 3)],
        [(0, 3), (1, -3)],
    ]


def test_relevant_boundaries_two_hexagon_vertices():
    # two degree-6 vertices (six parallel edges): candidates {-6, 0, 6}
    # each, and the zero-sum selections are (0,0), (6,-6), (-6,6)
    m = build_map([[1, 3, 5, 7, 9, 11], [0, 2, 4, 6, 8, 10]])
    assert sorted(m.degree(v) for v in range(2)) == [6, 6]
    bs = list(flows.relevant_boundaries(m, 3))
    assert len(bs) == 3
    sums = [sorted(c for _, c in b.items()) for b in bs]
    assert sums.count([]) == 1  # the zero boundary
    assert sums.count([-6, 6]) == 2


def test_boundary_stream_is_sorted_and_bounded(corpus_map):
    from surfcolor.surface_map import face_profile

    m = corpus_map
    d = dual(m)
    prof = face_profile(d, 3)  # faces of the dual are vertices of m
    bs = list(flows.relevant_boundaries(m, 3))
    assert len(bs) <= prof.q_star
    keys = [tuple(b[v] for v in range(m.num_vertices)) for b in bs]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for b in bs:
        assert b.norm() + 1 <= prof.b_star
        assert flows.is_parity_compliant(m, b)


def test_flow_boundaries_are_relevant(corpus_map):
    rng = random.Random(67)
    m = corpus_map
    if m.num_edges == 0:
        pytest.skip("needs edges")
    for _ in range(5):
        f = random_nowhere_zero(rng, m)
        d = boundary1(f)
        for v in range(m.num_vertices):
            assert abs(d[v]) <= m.degree(v)
            assert (d[v] - m.degree(v)) % 2 == 0


def edge_map(nv, edges):
    """A map on nv vertices with the given (u, v) edges; half-edge 2e
    points into v and 2e + 1 into u."""
    rot = [[] for _ in range(nv)]
    for e, (u, v) in enumerate(edges):
        rot[v].append(2 * e)
        rot[u].append(2 * e + 1)
    return build_map(rot)


def cut_violated(m, d):
    """True iff some vertex set X has d(X) > cut(X), the number of
    non-loop edges with one end in X (Gale's condition, by brute force)."""
    nv = m.num_vertices
    ends = [(m.tgt[h], m.tgt[m.opp[h]]) for h in m.canonical_half_edges()]
    for mask in range(1, 1 << nv):
        excess = sum(d[v] for v in range(nv) if mask >> v & 1)
        cut = sum(1 for u, v in ends if (mask >> u & 1) != (mask >> v & 1))
        if excess > cut:
            return True
    return False


def random_relevant_boundary(rng, m):
    """A zero-sum, parity-compliant d with |d[v]| <= deg(v), most entries
    drawn as +-deg(v)."""
    nv = m.num_vertices
    deg = [m.degree(v) for v in range(nv)]
    d = []
    for v in range(nv):
        if rng.random() < 0.7:
            d.append(rng.choice((-deg[v], deg[v])))
        else:
            d.append(rng.choice(range(-deg[v], deg[v] + 1, 2)))
    # the sum is even, so steps of 2 toward zero reach it
    while sum(d) != 0:
        step = -2 if sum(d) > 0 else 2
        v = rng.choice([v for v in range(nv) if abs(d[v] + step) <= deg[v]])
        d[v] += step
    return Chain0(m, dict(enumerate(d)))


def test_flow_with_boundary_matches_gale_cut_oracle():
    rng = random.Random(311)
    infeasible = 0
    for _ in range(400):
        m = random_map(rng, max_edges=14, max_vertices=7)
        d = random_relevant_boundary(rng, m)
        assert flows.is_parity_compliant(m, d)
        f = flows.flow_with_boundary(m, d)
        assert (f is None) == cut_violated(m, d)
        if f is None:
            infeasible += 1
        else:
            assert boundary1(f.chain) == d
    assert 100 <= infeasible <= 300


def test_parity_compliance_matches_per_vertex_rule():
    rng = random.Random(313)
    for _ in range(300):
        m = random_map(rng, max_edges=10, max_vertices=6)
        d = Chain0(m, {v: rng.randint(-4, 4) for v in range(m.num_vertices)})
        want = all((d[v] - m.degree(v)) % 2 == 0 for v in range(m.num_vertices))
        assert flows.is_parity_compliant(m, d) == want


@pytest.mark.parametrize(
    "nv, edges, d",
    [
        # a 4-cycle: the adjacent vertices 0 and 1 both need every edge to
        # carry flow inward
        (4, [(0, 1), (1, 2), (2, 3), (3, 0)], {0: 2, 1: 2, 2: -2, 3: -2}),
        # degrees 1, 3, 3, 3: vertices 0 and 1 are the only saturated
        # same-sign pair, and {0, 1} has excess 4 and cut 2
        (4, [(0, 1), (1, 2), (1, 3), (2, 3), (2, 3)], {0: 1, 1: 3, 2: -1, 3: -3}),
        # a loop adds 2 to the degree of vertex 0 but nothing to its excess
        (3, [(0, 0), (0, 1), (1, 2), (1, 2)], {0: 3, 1: -1, 2: -2}),
    ],
    ids=["equal-degrees", "unequal-degrees", "loop"],
)
def test_cut_check_rejects_saturated_vertices(nv, edges, d):
    m = edge_map(nv, edges)
    d = Chain0(m, d)
    assert all(abs(d[v]) <= m.degree(v) for v in range(nv))
    assert flows.is_parity_compliant(m, d)
    assert cut_violated(m, d)
    assert flows.flow_with_boundary(m, d) is None


def test_cut_check_keeps_opposite_saturated_pair():
    # theta graph: both vertices saturated, with opposite signs
    m = build_map([[0, 2, 4], [1, 3, 5]])
    d = Chain0(m, {0: -3, 1: 3})
    f = flows.flow_with_boundary(m, d)
    assert f is not None
    assert boundary1(f.chain) == d


def product_stream(m, modulus):
    """The relevant boundaries by brute force: the zero-sum selections of
    itertools.product over the per-vertex candidates, in its order."""
    cands = [face_candidates(m.degree(v), modulus) for v in range(m.num_vertices)]
    return [Chain0(m, dict(enumerate(sel))) for sel in itertools.product(*cands) if sum(sel) == 0]


def stream_maps():
    rng = random.Random(409)
    maps = [(name, m) for name, m in CORPUS]
    for i in range(12):
        maps.append(("random%d" % i, random_map(rng, max_edges=18, min_edges=10, max_vertices=9)))
    # C_16(1, 2, 3) plus the matching i -- i + 8: 16 vertices of degree
    # 7, whose 2^16 selections at m = 3, 5 or 7 overflow the tail table,
    # so the prefix DFS and the table both take part
    ring = [(i, (i + j) % 16) for i in range(16) for j in (1, 2, 3)]
    maps.append(("degree7x16", edge_map(16, ring + [(i, i + 8) for i in range(8)])))
    maps.append(("one-vertex", build_map([[]])))
    maps.append(("no-vertex", CombinatorialMap(0, [], [], [], [], [], 0)))
    return maps


@pytest.mark.parametrize("modulus", [3, 5, 7])
@pytest.mark.parametrize("limit", [1, 6, flows.TABLE_LIMIT])
def test_relevant_boundaries_equal_the_filtered_product(monkeypatch, modulus, limit):
    # smaller table limits move the prefix-tail split on the small maps
    monkeypatch.setattr(flows, "TABLE_LIMIT", limit)
    for name, m in stream_maps():
        want = product_stream(m, modulus)
        got = list(flows.relevant_boundaries(m, modulus))
        assert got == want, name
        # the stream's chains carry no zero coefficients
        assert all(all(b.coeffs.values()) for b in got), name


def test_boundary_table_and_prefix_both_take_part():
    m = dict(stream_maps())["degree7x16"]
    assert 2 ** m.num_vertices > flows.TABLE_LIMIT
    assert len(list(flows.relevant_boundaries(m, 7))) == 12870  # C(16, 8)
