"""End-to-end solves on a torus near-triangulation at m = 3, where almost
every relevant boundary is unrealizable and the stream is long."""

import random
from math import comb

from surfcolor import build_map
from surfcolor.solver import Precoloring, extend_precoloring, verify_homomorphism

from conftest import backtrack_extendable
from test_near_quadrangulations import delete_edges


def torus_triangulation(a, b):
    """C_a x C_b plus the diagonal (i, j) -- (i+1, j+1) at every vertex:
    6-regular, every face a triangle."""
    nv = a * b

    def vid(i, j):
        return (i % a) * b + (j % b)

    # edge ids: east = v, north = nv + v, diagonal = 2nv + v; the canonical
    # half-edge 2e points away from v.  Rotations list the incoming
    # half-edges counterclockwise: E, NE, N, W, SW, S.
    rotations = []
    for i in range(a):
        for j in range(b):
            v = vid(i, j)
            rotations.append([
                2 * v + 1,
                2 * (2 * nv + v) + 1,
                2 * (nv + v) + 1,
                2 * vid(i - 1, j),
                2 * (2 * nv + vid(i - 1, j - 1)),
                2 * (nv + vid(i, j - 1)),
            ])
    return build_map(rotations)


def three_by_three_minus_two_diagonals():
    """The 3x3 torus triangulation with two diagonals deleted that share
    no endpoint and no face: 14 triangles and 2 quadrilaterals."""
    g = torus_triangulation(3, 3)
    diagonals = [2 * (18 + v) for v in range(9)]
    e1 = diagonals[0]
    faces1 = {g.left[e1], g.left[g.opp[e1]]}
    ends1 = {g.tgt[e1], g.tgt[g.opp[e1]]}
    e2 = next(
        h
        for h in diagonals
        if not ({g.left[h], g.left[g.opp[h]]} & faces1)
        and not ({g.tgt[h], g.tgt[g.opp[h]]} & ends1)
    )
    return delete_edges(g, [e1, e2])


def test_near_triangulation_profile():
    h = three_by_three_minus_two_diagonals()
    assert sorted(h.face_lengths()) == [3] * 14 + [4, 4]
    assert h.euler_genus == 2


def test_near_triangulation_solves_match_backtracking():
    h = three_by_three_minus_two_diagonals()
    # at m = 3 a triangle allows the excesses +-3 and a quadrilateral only
    # 0, so the stream holds C(14, 7) = 3,432 zero-sum boundaries, and a
    # NONE walks all of them
    full_stream = comb(14, 7)
    res = extend_precoloring(h, Precoloring(3))
    assert res.extendable == backtrack_extendable(h, 3)
    adjacent = {(h.tgt[e], h.tgt[h.opp[e]]) for e in range(h.half_edge_count)}
    rng = random.Random(331)
    verdicts = set()
    for _ in range(8):
        # colors on pairwise non-adjacent vertices, so no NONE is decided
        # before the stream starts
        psi = {}
        for v in rng.sample(range(h.num_vertices), h.num_vertices):
            if len(psi) < 3 and not any((u, v) in adjacent for u in psi):
                psi[v] = rng.randrange(3)
        r = extend_precoloring(h, Precoloring(3, psi))
        assert r.extendable == backtrack_extendable(h, 3, psi)
        verdicts.add(r.extendable)
        if r.extendable:
            assert verify_homomorphism(h, 3, r.coloring, psi)
            assert r.boundaries_tried <= full_stream
        else:
            assert r.boundaries_tried == full_stream
    assert verdicts == {True, False}
