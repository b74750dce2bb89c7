"""The shortest-path kernel against a plain Bellman-Ford and against
its earlier form, ``paths_reference``, and one arc list read under
several length lists."""

import random

import pytest

import paths_reference
from surfcolor import lattice, paths
from surfcolor.cli import gen_grid
from surfcolor.paths import shortest_paths
from surfcolor.solver import Precoloring, extend_precoloring
from test_layered_residue import nonadjacent_precoloring


def random_digraph(rng):
    """Up to 9 nodes and small integer lengths with some negative arcs;
    a few nodes only send arcs, so some nodes are unreachable."""
    n = rng.randint(1, 9)
    senders_only = set(rng.sample(range(n), rng.randint(0, min(2, n - 1))))
    arcs = []
    for _ in range(rng.randint(0, 3 * n)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if v in senders_only:
            continue
        arcs.append((u, v, rng.randint(-2, 6)))
    out = [[] for _ in range(n)]
    for i, (u, v, _) in enumerate(arcs):
        out[u].append((v, i))
    sources = rng.sample([v for v in range(n) if v not in senders_only] or [0], 1)
    if rng.random() < 0.3:
        sources.append(rng.randrange(n))
    return n, arcs, out, sources


def reference(n, out, length, sources):
    """``paths_reference``'s answer in the kernel's (dist, via, cycle)
    form, each (tail, arc) of its pred list cut to the arc, -1 where it
    has none; and that pred list, for the tails."""
    dist, pred, cycle = paths_reference.shortest_paths(n, out, length, sources)
    via = None if pred is None else [-1 if p is None else p[1] for p in pred]
    return (dist, via, cycle), pred


def plain_bellman_ford(n, arcs, sources):
    """|V| full passes; returns (dist, whether a negative cycle is reachable)."""
    dist = [None] * n
    for s in sources:
        dist[s] = 0
    for _ in range(n):
        for u, v, length in arcs:
            if dist[u] is not None and (dist[v] is None or dist[u] + length < dist[v]):
                dist[v] = dist[u] + length
    negative = any(
        dist[u] is not None and dist[u] + length < dist[v] for u, v, length in arcs
    )
    return dist, negative


def test_distances_and_cycles_match_plain_bellman_ford():
    rng = random.Random(2024)
    seen = {True: 0, False: 0}
    for _ in range(600):
        n, arcs, out, sources = random_digraph(rng)
        want, negative = plain_bellman_ford(n, arcs, sources)
        length = [length for _, _, length in arcs]
        dist, via, cycle = shortest_paths(n, out, length, sources)
        want_triple, pred = reference(n, out, length, sources)
        assert (dist, via, cycle) == want_triple
        seen[negative] += 1
        if negative:
            assert dist is None and via is None
            tails = [arcs[a][0] for a in cycle]
            heads = [arcs[a][1] for a in cycle]
            assert heads == tails[1:] + tails[:1], "not a closed walk"
            assert len(set(tails)) == len(tails), "walk repeats a node"
            assert sum(arcs[a][2] for a in cycle) < 0
            continue
        assert cycle is None
        assert dist == want
        for v in range(n):
            if via[v] < 0:
                assert dist[v] is None or (v in sources and dist[v] == 0)
            else:
                u, w, arc_length = arcs[via[v]]
                assert (u, w) == (pred[v][0], v)
                assert dist[v] == dist[u] + arc_length
    assert min(seen.values()) > 50


def test_one_arc_list_under_several_length_lists():
    # the layered pass reads one search's arcs under each box point's
    # lengths: that must answer as a fresh build would, and leave both
    # lists as they were
    rng = random.Random(2025)
    seen = {True: 0, False: 0}
    for _ in range(200):
        n, arcs, out, sources = random_digraph(rng)
        kept = [list(node) for node in out]
        for _ in range(4):
            length = [rng.randint(-2, 6) for _ in arcs]
            before = list(length)
            got = shortest_paths(n, out, length, sources)
            fresh = [list(node) for node in kept]
            assert got == shortest_paths(n, fresh, list(length), sources)
            assert out == kept and length == before
            seen[got[2] is not None] += 1
    assert min(seen.values()) > 100


def test_negative_self_loop_on_one_node():
    assert shortest_paths(1, [[(0, 0)]], [-1], [0]) == (None, None, [0])
    assert shortest_paths(1, [[(0, 0)]], [0], [0]) == ([0], [-1], None)


def test_unreached_negative_cycle_is_ignored():
    # 0 -> 1 only; the cycle 2 <-> 3 is negative but unreachable from 0
    out = [[(1, 0)], [], [(3, 1)], [(2, 2)]]
    dist, via, cycle = shortest_paths(4, out, [4, -3, 1], [0])
    assert cycle is None
    assert dist == [0, 4, None, None]
    assert via == [-1, 0, -1, -1]


def test_a_cycle_that_is_not_negative_is_refused():
    # the tree path 0 -> 1 (arc 0, length 1) closed by arc 1 (length 0)
    # has length 1; the check raises explicitly, so under python -O too.
    # Node 1 was last lowered from tail 0 along arc 0; node 0 never was
    with pytest.raises(AssertionError, match="not negative"):
        paths._cycle([-1, 0], [-1, 0], [1, 0], 0, 1, 1)


def planted_precoloring(n, mod, size, rng):
    """size vertices of the n x n torus grid colored by s_i + t_j, where
    s and t are closed walks of n steps of +-1 in C_mod: it extends."""
    walks = []
    for _ in range(2):
        steps = [1, -1] * (n // 2)
        rng.shuffle(steps)
        walks.append([sum(steps[:i]) for i in range(n)])
    s, t = walks
    return {v: (s[v // n] + t[v % n]) % mod for v in rng.sample(range(n * n), size)}


@pytest.mark.parametrize("n, mod", [(8, 3), (8, 5), (16, 3), (16, 5)])
def test_the_kernel_matches_its_reference_on_layered_networks(monkeypatch, n, mod):
    # every pass of real searches, the failing ones among them, on torus
    # grids with no precoloring (one residue layer), with planted
    # precolorings, which extend, and with random ones
    calls = []
    real = lattice.shortest_paths

    def recorded(nodes, out, length, sources):
        got = real(nodes, out, length, sources)
        want, pred = reference(nodes, out, length, sources)
        assert got == want
        if got[2] is None:
            # each tree arc leaves its reference tail and enters its node
            for v, a in enumerate(got[1]):
                assert a < 0 or (v, a) in out[pred[v][0]]
        calls.append(got[2] is None)
        return got

    monkeypatch.setattr(lattice, "shortest_paths", recorded)
    rng = random.Random(n * 10 + mod)
    g = gen_grid(n, n)
    precolorings = [{}]
    precolorings += [planted_precoloring(n, mod, size, rng) for size in (7, 15)]
    precolorings += [nonadjacent_precoloring(g, mod, size, rng) for size in (7, 11, 15)]
    verdicts = [extend_precoloring(g, Precoloring(mod, psi)).extendable for psi in precolorings]
    assert verdicts[1:3] == [True, True]
    assert calls.count(True) >= 3 and calls.count(False) >= 3, calls
