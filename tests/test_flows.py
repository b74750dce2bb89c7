"""Flow realization, nowhere-zero completion, and boundary enumeration."""

import itertools
import random

import pytest

from surfcolor import build_map, chains, dual, errors, flows
from surfcolor.chains import Chain0, Chain1, boundary1
from surfcolor.cli import gen_bouquet, gen_grid, gen_q13
from surfcolor.surface_map import CombinatorialMap, face_candidates

from conftest import CORPUS, DIFFERENTIAL_MAPS, random_map, random_nowhere_zero
from map_reference import is_loop


def parity_compliant(m, d):
    """True iff d[v] and deg(v) have the same parity at every vertex."""
    return all((d[v] - m.degree(v)) % 2 == 0 for v in range(m.num_vertices))


def test_parity_compliance():
    m = gen_grid(3, 3)  # all degrees 4
    assert parity_compliant(m, Chain0(m))
    assert flows.nowhere_zero_flow_with_boundary(m, Chain0(m)) is not None
    m2 = build_map([[0], [1]])  # degrees 1
    assert not parity_compliant(m2, Chain0(m2))
    assert flows.nowhere_zero_flow_with_boundary(m2, Chain0(m2)) is None
    d = Chain0(m2, {0: 1, 1: -1})
    assert parity_compliant(m2, d)
    assert flows.nowhere_zero_flow_with_boundary(m2, d) is not None
    # d[v] = deg(v) passes the parity test by definition
    m3 = gen_grid(3, 3)
    d3 = Chain0(m3, {v: m3.degree(v) for v in range(m3.num_vertices)})
    assert parity_compliant(m3, d3)


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

    def completes(m):
        """Check the completion of one realized f1; True if f1 has zeros."""
        f1 = flows.flow_with_boundary(m, boundary1(random_nowhere_zero(rng, m)))
        f0 = flows.nowhere_zero_completion(m, f1)
        for h, c in f1.chain.coeffs.items():
            assert f0.chain[h] == c
        assert all(abs(f0.chain[h]) == 1 for h in m.canonical_half_edges())
        assert boundary1(f0.chain) == boundary1(f1.chain)
        return not f1.nowhere_zero

    with_zeros = loops = 0
    for _ in range(300):
        m = random_map(rng, max_edges=12)
        if completes(m):
            with_zeros += 1
            loops += any(m.tgt[h] == m.tgt[m.opp[h]] for h in m.canonical_half_edges())
    # the completion had edges to fill in, also on maps with loops
    assert with_zeros >= 200 and loops >= 150, (with_zeros, loops)
    # shuffled half-edge ids: opp is not the standard pairing h ^ 1
    shuffled = sum(completes(m) for m in DIFFERENTIAL_MAPS["deleted"] for _ in range(4))
    assert shuffled >= 180, shuffled


def test_completion_rejects_odd_zero_subgraph():
    # the zero flow's zero-edge subgraph is the one edge, odd at both ends
    m = build_map([[0], [1]])
    assert flows.nowhere_zero_completion(m, flows.Flow(Chain1(m))) is None


def test_nowhere_zero_flow_requires_zero_sum():
    # the sum is checked before anything else, also for a boundary that
    # is not parity-compliant (d[0] = 1 at a degree-4 vertex)
    g = gen_grid(3, 3)
    with pytest.raises(errors.NotAZeroBoundary):
        flows.nowhere_zero_flow_with_boundary(g, Chain0(g, {0: 1}))


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
        assert parity_compliant(m, b)


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
        assert parity_compliant(m, d)
        f = flows.flow_with_boundary(m, d)
        assert (f is None) == cut_violated(m, d)
        if f is None:
            infeasible += 1
        else:
            assert boundary1(f.chain) == d
    assert 100 <= infeasible <= 300


def test_parity_compliance_matches_per_vertex_rule():
    # the completion's odd-degree test is the package's parity test: on a
    # flow f1 it returns None exactly when f1's boundary breaks the rule
    rng = random.Random(313)
    rejected = 0
    for _ in range(300):
        m = random_map(rng, max_edges=10, max_vertices=6)
        f1 = Chain1(m, {h: rng.choice((-1, 0, 0, 1)) for h in m.canonical_half_edges()})
        d = boundary1(f1)
        f0 = flows.nowhere_zero_completion(m, flows.Flow(f1))
        assert (f0 is None) == (not parity_compliant(m, d))
        if f0 is None:
            rejected += 1
        else:
            assert f0.nowhere_zero and boundary1(f0.chain) == d
    assert 50 <= rejected <= 250, rejected


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
    assert parity_compliant(m, d)
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


def orientation_boundaries(m):
    """Every boundary of a nowhere-zero flow on m, as a tuple over the
    vertices, by running through the 2^E orientations one edge at a time."""
    reach = {(0,) * m.num_vertices}
    for h in m.canonical_half_edges():
        unit = boundary1(Chain1(m, {h: 1}))
        vec = [unit[v] for v in range(m.num_vertices)]
        reach = {tuple(b + s * x for b, x in zip(bs, vec)) for bs in reach for s in (-1, 1)}
    return reach


def random_zero_sum(rng, m):
    """A zero-sum d with entries drawn from [-deg(v) - 1, deg(v) + 1],
    then moved one unit at a time to sum zero; mostly not parity-compliant."""
    nv = m.num_vertices
    d = [rng.randint(-m.degree(v) - 1, m.degree(v) + 1) for v in range(nv)]
    while sum(d) != 0:
        d[rng.randrange(nv)] -= 1 if sum(d) > 0 else -1
    return Chain0(m, dict(enumerate(d)))


def test_nowhere_zero_flow_matches_orientation_bruteforce():
    rng = random.Random(317)
    non_compliant = infeasible = realized = loops = 0
    for _ in range(200):
        m = random_map(rng, max_edges=10, max_vertices=6)
        reach = orientation_boundaries(m)
        for d in (
            Chain0(m, dict(enumerate(rng.choice(sorted(reach))))),
            random_relevant_boundary(rng, m),
            random_zero_sum(rng, m),
        ):
            f = flows.nowhere_zero_flow_with_boundary(m, d)
            key = tuple(d[v] for v in range(m.num_vertices))
            assert (f is None) == (key not in reach), key
            if not parity_compliant(m, d):
                non_compliant += 1
            elif f is None:
                infeasible += 1
            else:
                assert f.nowhere_zero and boundary1(f.chain) == d
                realized += 1
                loops += any(is_loop(m, h) for h in m.canonical_half_edges())
    # each way of finding nothing, and realizations on maps with loops
    assert non_compliant >= 100 and infeasible >= 50 and realized >= 200 and loops >= 100, (
        non_compliant,
        infeasible,
        realized,
        loops,
    )


@pytest.mark.parametrize(
    "modulus, error, message",
    [
        (0, errors.EvenModulus, "must be odd"),
        (1, errors.ModulusTooSmall, "must be >= 3"),
        (2, errors.EvenModulus, "must be odd"),
        (True, errors.SurfcolorError, "must be an integer, got True$"),
        (-3, errors.ModulusTooSmall, "must be >= 3"),
        (3.0, errors.SurfcolorError, "must be an integer, got 3.0$"),
    ],
    ids=["zero", "one", "two", "true", "minus-three", "float"],
)
def test_relevant_boundaries_check_the_modulus(modulus, error, message):
    # a bool is refused as no integer, not read as the modulus 1
    g = dual(gen_grid(3, 3))
    with pytest.raises(error, match=message):
        next(flows.relevant_boundaries(g, modulus))
