"""Shared instance generators and brute-force oracles for the tests."""

import itertools
import random

import pytest

from surfcolor import build_map, chains
from surfcolor.chains import Chain1, pair
from surfcolor.cli import brute_force_extendable as backtrack_extendable  # noqa: F401
from surfcolor.cli import gen_bouquet, gen_grid, gen_q13


def random_map(rng, max_edges=12, min_edges=1, max_vertices=5):
    """A random connected map: a random spanning tree plus random extra
    edges (loops and parallels allowed), with shuffled rotations."""
    nv = rng.randint(1, max_vertices)
    edges = []
    for v in range(1, nv):
        edges.append((rng.randrange(v), v))
    lo = max(min_edges - len(edges), 0)
    hi = max(max_edges - len(edges), lo)
    for _ in range(rng.randint(lo, hi)):
        edges.append((rng.randrange(nv), rng.randrange(nv)))
    rot = [[] for _ in range(nv)]
    for e, (u, v) in enumerate(edges):
        rot[v].append(2 * e)
        rot[u].append(2 * e + 1)
    for cyc in rot:
        rng.shuffle(cyc)
    return build_map(rot)


def random_nowhere_zero(rng, m):
    return Chain1(m, {h: rng.choice((-1, 1)) for h in m.canonical_half_edges()})


def corpus_maps():
    """Small named maps exercised by most invariant tests."""
    one_edge = build_map([[0], [1]])
    out = [
        ("one-edge-sphere", one_edge),
        ("bouquet1", gen_bouquet(1)),
        ("bouquet2", gen_bouquet(2)),
        ("bouquet3", gen_bouquet(3)),
        ("grid33", gen_grid(3, 3)),
        ("grid34", gen_grid(3, 4)),
        ("q13", gen_q13()),
    ]
    rng = random.Random(20240811)
    for i in range(8):
        out.append(("random%d" % i, random_map(rng)))
    return out


CORPUS = corpus_maps()


@pytest.fixture(params=CORPUS, ids=[name for name, _ in CORPUS])
def corpus_map(request):
    return request.param[1]


def brute_circulations(m, f):
    """Every f-circulation of a flow chain f, exhaustively."""
    edges = m.canonical_half_edges()
    for sel in itertools.product(*[(0, f[h]) for h in edges]):
        c = Chain1(m, dict(zip(edges, sel)))
        if chains.is_cycle(c):
            yield c


def brute_feasible(m, basis, f, target):
    """Exhaustive check of circulation_or_certificate's feasibility answer."""
    for c in brute_circulations(m, f):
        if all(pair(c, k) == a for k, a in zip(basis.cocycles, target.a)) and all(
            pair(c, target.copaths[y].chain) == target.a_prime[y] for y in target.S
        ):
            return True
    return False
