"""End-to-end solves on maps whose faces are not all 4-gons: hexagonal
faces from edge deletion, and all-triangle instances on the sphere."""

import itertools
import random

from surfcolor import build_map, solver, surface_map as sm
from surfcolor.cli import gen_grid
from surfcolor.flows import relevant_boundaries
from surfcolor.solver import Precoloring, extend_precoloring, verify_homomorphism

from conftest import backtrack_extendable, delete_edges


def two_hexagon_grid():
    """A 3x4 torus grid with two disjoint edges deleted: 8 quadrilateral
    faces and 2 hexagons."""
    g = gen_grid(3, 4)
    cands = [h for h in g.canonical_half_edges() if g.left[h] != g.left[g.opp[h]]]
    e1 = cands[0]
    faces1 = {g.left[e1], g.left[g.opp[e1]]}
    ends1 = {g.tgt[e1], g.tgt[g.opp[e1]]}
    e2 = next(
        h
        for h in cands
        if g.left[h] not in faces1
        and g.left[g.opp[h]] not in faces1
        and not ({g.tgt[h], g.tgt[g.opp[h]]} & ends1)
    )
    return delete_edges(g, [e1, e2])


def test_two_hexagon_instance_profile():
    h = two_hexagon_grid()
    assert sorted(h.face_lengths()) == [4] * 8 + [6, 6]
    assert h.euler_genus == 2
    prof = sm.face_profile(h, 3)
    assert prof.q_star == 9
    assert prof.b_star == 13
    bs = list(relevant_boundaries(sm.dual(h), 3))
    assert len(bs) == 3


def test_two_hexagon_solves_match_bruteforce():
    h = two_hexagon_grid()
    res = extend_precoloring(h, Precoloring(3))
    assert res.extendable == backtrack_extendable(h, 3)
    if res.extendable:
        assert verify_homomorphism(h, 3, res.coloring)
    rng = random.Random(179)
    for _ in range(30):
        k = rng.randint(1, 6)
        psi = {rng.randrange(h.num_vertices): rng.randrange(3) for _ in range(k)}
        r = extend_precoloring(h, Precoloring(3, psi))
        assert r.extendable == backtrack_extendable(h, 3, psi)
        if r.extendable:
            assert verify_homomorphism(h, 3, r.coloring, psi)


def tetrahedron():
    """K4 embedded in the sphere: four triangular faces."""
    # canonical half-edge 2e points from the lower to the higher endpoint
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    incident = {}
    for e, (u, v) in enumerate(edges):
        incident.setdefault(u, []).append(2 * e + 1)
        incident.setdefault(v, []).append(2 * e)
    base = [incident[v] for v in range(4)]
    # fix vertex 0's rotation; search the others for the genus-0 embedding
    for perms in itertools.product(*(itertools.permutations(base[v]) for v in range(1, 4))):
        rots = [base[0]] + [list(p) for p in perms]
        try:
            m = build_map(rots)
        except Exception:
            continue
        if m.euler_genus == 0 and sorted(m.face_lengths()) == [3, 3, 3, 3]:
            return m
    raise AssertionError("no spherical K4 embedding found")


def test_k4_profile_and_unsolvability():
    m = tetrahedron()
    prof = sm.face_profile(m, 3)
    assert prof.q_star == 16  # two odd candidates per triangular face
    assert prof.b_star == 13
    res = extend_precoloring(m, Precoloring(3))
    assert not res.extendable
    assert not backtrack_extendable(m, 3)
    assert res.boundaries_tried <= 16
    # K4 has no homomorphism to C5 either (triangles cannot map to it)
    res5 = extend_precoloring(m, Precoloring(5))
    assert not res5.extendable
    assert not backtrack_extendable(m, 5)


def test_octahedron_is_3_colorable():
    # the octahedron is K_{2,2,2}: all triangles, chromatic number 3
    # build it as the antipodal-free 4-regular triangulation via rotations:
    # vertices 0..5, opposite pairs (0,5), (1,4), (2,3)
    edges = []
    for u in range(6):
        for v in range(u + 1, 6):
            if u + v != 5:
                edges.append((u, v))
    assert len(edges) == 12
    incident = {}
    for e, (u, v) in enumerate(edges):
        incident.setdefault(u, []).append(2 * e + 1)
        incident.setdefault(v, []).append(2 * e)
    found = None
    for perms in itertools.product(
        *(itertools.permutations(incident[v][1:]) for v in range(6))
    ):
        rots = [[incident[v][0]] + list(p) for v, p in enumerate(perms)]
        try:
            m = build_map(rots)
        except Exception:
            continue
        if m.euler_genus == 0 and set(m.face_lengths()) == {3}:
            found = m
            break
    assert found is not None
    res = extend_precoloring(found, Precoloring(3))
    assert res.extendable == backtrack_extendable(found, 3) == True
    assert verify_homomorphism(found, 3, res.coloring)


def test_boundary_loop_tries_multiple_candidates():
    # force the first streamed boundary to fail so the per-boundary loop
    # demonstrably advances: scan precolorings until one succeeds only
    # after the first boundary
    h = two_hexagon_grid()
    rng = random.Random(181)
    seen_multi = False
    for _ in range(200):
        k = rng.randint(1, 6)
        psi = {rng.randrange(h.num_vertices): rng.randrange(3) for _ in range(k)}
        r = extend_precoloring(h, Precoloring(3, psi))
        assert r.extendable == backtrack_extendable(h, 3, psi)
        if r.extendable and r.boundaries_tried > 1:
            seen_multi = True
            break
    assert seen_multi, "never exercised the multi-boundary path"
