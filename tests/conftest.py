"""Shared instance generators and brute-force oracles for the tests."""

import itertools
import random

import pytest

from surfcolor import build_map, chains, errors, lattice
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


def delete_edges(m, canonical_halves):
    """The map with the given edges removed (faces merge across them)."""
    dead = set()
    for h in canonical_halves:
        dead.add(h)
        dead.add(m.opp[h])
    keep = [h for h in range(m.half_edge_count) if h not in dead]
    new_id = {h: i for i, h in enumerate(keep)}
    rots = []
    for v in range(m.num_vertices):
        rots.append([new_id[h] for h in m.rot[v] if h not in dead])
    opp = [0] * len(keep)
    for h in keep:
        opp[new_id[h]] = new_id[m.opp[h]]
    return build_map(rots, opp)


def shuffle_half_edges(m, rng):
    """m with its half-edge ids permuted at random, so that opp is no
    longer the standard pairing opp(2i) = 2i+1."""
    new_id = list(range(m.half_edge_count))
    rng.shuffle(new_id)
    opp = [0] * m.half_edge_count
    for h in m.half_edges():
        opp[new_id[h]] = new_id[m.opp[h]]
    return build_map([[new_id[h] for h in cyc] for cyc in m.rot], opp)


def differential_maps():
    """The map classes of the differential tests, by name: the corpus,
    200 random maps, maps with random edges deleted and their half-edge
    ids shuffled (a non-standard opp), and the edgeless map."""
    rng = random.Random(20261019)
    deleted = []
    while len(deleted) < 60:
        if rng.random() < 0.5:
            m = gen_grid(rng.randint(3, 5), rng.randint(3, 5))
        else:
            m = random_map(rng, max_edges=14, min_edges=4, max_vertices=6)
        dead = rng.sample(m.canonical_half_edges(), rng.randint(1, 3))
        try:
            m = delete_edges(m, dead)
        except errors.Disconnected:
            continue
        deleted.append(shuffle_half_edges(m, rng))
    return {
        "corpus": [m for _, m in CORPUS],
        "random": [
            random_map(rng, max_edges=rng.randint(1, 16), max_vertices=rng.randint(1, 7))
            for _ in range(200)
        ],
        "deleted": deleted,
        "edgeless": [build_map([[]])],
    }


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


DIFFERENTIAL_MAPS = differential_maps()


@pytest.fixture(params=CORPUS, ids=[name for name, _ in CORPUS])
def corpus_map(request):
    return request.param[1]


def brute_circulations(m, f):
    """Every f-circulation of a flow chain f, exhaustively, each once: an
    edge where f is 0 takes only the value 0."""
    edges = m.canonical_half_edges()
    for sel in itertools.product(*[(0, f[h]) if f[h] else (0,) for h in edges]):
        c = Chain1(m, dict(zip(edges, sel)))
        if chains.is_cycle(c):
            yield c


def brute_feasible(m, basis, f, target):
    """Exhaustive check of circulation_or_certificate's feasibility answer."""
    for c in brute_circulations(m, f):
        if all(pair(c, k) == a for k, a in zip(basis.cocycles, target.a)) and all(
            pair(c, target.copaths[y]) == target.a_prime[y] for y in target.S
        ):
            return True
    return False


def solve_record(m, basis, S, x, copaths, mod):
    """A per-solve record for lattice searches at modulus mod outside a
    solve."""
    return lattice.Solve(m, basis, S, x, copaths, mod)
