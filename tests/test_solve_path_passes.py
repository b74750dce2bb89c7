"""The solve path's passes against the definitions they stand for: the
cotree decode against the face potentials of the flow at every anchor,
the trusted flow builder against the checked ``Flow`` constructor,
boundary2 against its sum of face boundaries, the box bounds against
``pair_plus``, and the refusal of face ids outside the map."""

import itertools
import random
import sys
from types import SimpleNamespace

import pytest

from surfcolor import chains, errors, flows, homology, lattice
from surfcolor.chains import Chain1, Chain2, pair_plus
from surfcolor.cli import gen_grid
from surfcolor.flows import Flow
from surfcolor.solver import (
    Precoloring,
    coloring_to_flow,
    extend_precoloring,
    flow_to_coloring,
)
from surfcolor.surface_map import dual

from conftest import CORPUS, DIFFERENTIAL_MAPS, random_map


def potential_flow(rng, g, m):
    """A flow chain on g that decodes to the face potentials p: each
    half-edge h carries p[left(h)] - p[left(opp(h))] plus m times noise,
    so its boundary and every cocycle pairing vanish mod m."""
    p = [rng.randrange(-9, 10) for _ in range(g.num_faces)]
    coeffs = {
        h: p[g.left[h]] - p[g.left[g.opp[h]]] + m * rng.randint(-2, 2)
        for h in g.canonical_half_edges()
    }
    return p, Chain1(g, coeffs)


@pytest.mark.parametrize("kind", sorted(DIFFERENTIAL_MAPS))
def test_cotree_decode_reads_the_face_potentials_at_every_anchor(kind):
    rng = random.Random("decode/" + kind)
    off_root = 0
    for g in DIFFERENTIAL_MAPS[kind]:
        basis = homology.cohomology_basis(g)
        assert basis.cotree[1][0] == 0 and len(basis.cotree[1]) == g.num_faces
        m = rng.choice((3, 5, 7))
        p, f = potential_flow(rng, g, m)
        flow = SimpleNamespace(chain=f)
        for x in range(g.num_faces):
            c0 = rng.randrange(m)
            want = {y: (c0 + p[y] - p[x]) % m for y in range(g.num_faces)}
            assert flow_to_coloring(g, flow, m, (x, c0), basis=basis) == want
            assert flow_to_coloring(g, flow, m, (x, c0)) == want
            off_root += x != 0
    assert off_root or kind == "edgeless"


def test_face_ids_outside_the_map_are_refused():
    h = gen_grid(3, 3)
    g = dual(h)
    phi = {i * 3 + j: (i + j) % 3 for i in range(3) for j in range(3)}
    f = coloring_to_flow(h, phi, 3, g)
    for bad in (-1, -9, 9, 10, True, 1.0, "0"):
        with pytest.raises(ValueError):
            flow_to_coloring(g, f, 3, (bad, 0))
        with pytest.raises(ValueError):
            homology.copaths_from(g, 0, [bad])
        with pytest.raises(ValueError):
            homology.copaths_from(g, 0, [0, 4, bad])
        with pytest.raises(ValueError):
            homology.copaths_from(g, bad, [0])
        with pytest.raises(ValueError):
            homology.copaths_from(g, bad, [])
    assert flow_to_coloring(g, f, 3, (8, phi[8])) == phi


@pytest.mark.parametrize(
    "psi, trees",
    [
        # S = (x,): the basis's tree and cotree, and nothing else
        ({}, 2),
        ({0: 0}, 2),
        ({41: 0}, 2),
        # S has faces other than x: one copath tree more
        ({41: 0, 86: 1, 129: 2}, 3),
        ({0: 0, 50: 1}, 3),
    ],
)
def test_an_extendable_solve_builds_no_tree_to_decode(psi, trees, monkeypatch):
    built = []
    real = homology._bfs_tree

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(homology, "_bfs_tree", counted)
    res = extend_precoloring(gen_grid(12, 12), Precoloring(3, psi))
    assert res.extendable
    assert len(built) == trees


def recorded_flow_arrays(monkeypatch, maps, modulus, per_map):
    """(caller, map, array) of every call of ``flows._flow`` while the
    first per_map relevant boundaries of each map are realized."""
    seen = []
    real = flows._flow

    def record(m, f):
        seen.append((sys._getframe(1).f_code.co_name, m, list(f)))
        return real(m, f)

    monkeypatch.setattr(flows, "_flow", record)
    for m in maps:
        for d in itertools.islice(flows.relevant_boundaries(m, modulus), per_map):
            flows.nowhere_zero_flow_with_boundary(m, d)
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("kind", sorted(DIFFERENTIAL_MAPS))
def test_trusted_flow_equals_the_checked_flow(kind, monkeypatch):
    seen = recorded_flow_arrays(monkeypatch, DIFFERENTIAL_MAPS[kind], 3, 40)
    callers = set()
    for caller, m, f in seen:
        callers.add(caller)
        assert set(f) <= {-1, 0, 1}
        assert all(f[m.opp[h]] == -f[h] for h in m.half_edges())
        trusted = flows._flow(m, f)
        checked = Flow(Chain1(m, {h: f[h] for h in m.canonical_half_edges()}))
        assert type(trusted) is Flow
        assert trusted.chain == checked.chain
        assert trusted.nowhere_zero == checked.nowhere_zero
    if kind != "edgeless":
        assert callers == {"flow_with_boundary", "nowhere_zero_completion"}, callers


def test_checked_flow_still_refuses_large_coefficients():
    m = gen_grid(3, 3)
    with pytest.raises(ValueError):
        Flow(Chain1(m, {0: 2}))


def test_boundary2_equals_the_sum_of_face_boundaries_at_every_density():
    rng = random.Random(2028)
    maps = [m for _, m in CORPUS] + [random_map(rng, max_edges=12) for _ in range(100)]
    dense = 0
    for m in maps:
        for share in (0.0, 0.3, 0.5, 0.7, 1.0):
            faces = [x for x in range(m.num_faces) if rng.random() < share]
            a = Chain2(m, {x: rng.choice((-3, -1, 1, 2)) for x in faces})
            want = Chain1(m)
            for x, c in a.coeffs.items():
                want = want + c * chains.face_boundary(m, x)
            assert chains.boundary2(a) == want
            dense += 2 * len(a.coeffs) >= m.num_faces
    assert dense >= 200, dense


def random_chain(rng, m, spread):
    edges = m.canonical_half_edges()
    return Chain1(m, {h: rng.randint(-spread, spread) for h in rng.sample(edges, rng.randint(0, len(edges)))})


def test_pairing_bounds_equal_their_pair_plus_definition():
    rng = random.Random(2030)
    for _ in range(300):
        m = random_map(rng, max_edges=14)
        f = random_chain(rng, m, rng.choice((1, 4)))
        ks = [random_chain(rng, m, 3) for _ in range(rng.randint(0, 4))]
        ps = {y: random_chain(rng, m, 2) for y in range(rng.randint(0, 3))}
        box, box_s = lattice.pairing_bounds(f, SimpleNamespace(cocycles=ks), ps)
        assert box == [(-pair_plus(-f, k), pair_plus(f, k)) for k in ks]
        assert box_s == {y: (-pair_plus(-f, p), pair_plus(f, p)) for y, p in ps.items()}
    other = gen_grid(3, 3)
    with pytest.raises(errors.MapMismatch):
        lattice.pairing_bounds(Chain1(gen_grid(3, 3)), SimpleNamespace(cocycles=[Chain1(other)]), {})
