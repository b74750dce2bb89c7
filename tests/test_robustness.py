"""Cross-checks that pit independent computations against each other on
wider input classes than the unit tests: general reference chains for
the circulation engine, reweighted versus plain shortest paths, a second
exact enumeration oracle, and parser fuzzing."""

import itertools
import random

from surfcolor import chains, circulation, errors, homology, lattice
from surfcolor.chains import Chain1, pair
from surfcolor.circulation import Circulation, HomologyTarget
from surfcolor.cli import gen_grid
from surfcolor.surface_map import load_surfmap, save_surfmap

from conftest import random_map, random_nowhere_zero
from polygon_reference import ThirdIntegralPolygon, convex_hull, is_hollow
from residue_reference import rhs_table


def brute_feasible_general(m, basis, f, target):
    """Feasibility by enumerating every chain dominated by f, valid for
    arbitrary integer reference chains (not just unit flows)."""
    edges = m.canonical_half_edges()
    ranges = []
    for h in edges:
        fh = f[h]
        lo, hi = min(0, fh), max(0, fh)
        ranges.append(range(lo, hi + 1))
    for sel in itertools.product(*ranges):
        c = Chain1(m, dict(zip(edges, sel)))
        if not chains.is_cycle(c):
            continue
        if all(pair(c, k) == a for k, a in zip(basis.cocycles, target.a)) and all(
            pair(c, target.copaths[y]) == target.a_prime[y] for y in target.S
        ):
            return True
    return False


def test_engine_on_chains_with_zeros_and_magnitudes():
    rng = random.Random(157)
    outcomes = [0, 0]
    for _ in range(120):
        m = random_map(rng, max_edges=7, max_vertices=4)
        basis = homology.cohomology_basis(m)
        f = Chain1(m, {h: rng.choice((-2, -1, 0, 0, 1, 2)) for h in m.canonical_half_edges()})
        x = rng.randrange(m.num_faces)
        S = sorted({x} | {rng.randrange(m.num_faces) for _ in range(rng.randint(0, 1))})
        cps = homology.copaths_from(m, x, S)
        box, box_s = lattice.pairing_bounds(f, basis, cps)
        a = tuple(rng.randint(lo, hi) for lo, hi in box)
        ap = {y: (0 if y == x else rng.randint(*box_s[y])) for y in S}
        target = HomologyTarget(a, S, x, cps, ap)
        res = circulation.circulation_or_certificate(m, basis, f, target)
        got = isinstance(res, Circulation)
        assert got == brute_feasible_general(m, basis, f, target)
        outcomes[got] += 1
    assert min(outcomes) > 10


def test_repair_network_carries_every_half_edge_once():
    rng = random.Random(179)
    for _ in range(80):
        m = random_map(rng, max_edges=9, max_vertices=5)
        basis = homology.cohomology_basis(m)
        f = Chain1(m, {h: rng.choice((-2, -1, 0, 1, 2)) for h in m.canonical_half_edges()})
        x = rng.randrange(m.num_faces)
        S = sorted({x} | {rng.randrange(m.num_faces) for _ in range(2)})
        cps = homology.copaths_from(m, x, S)
        a = tuple(rng.randint(-2, 2) for _ in basis.cocycles)
        ap = {y: (0 if y == x else rng.randint(-2, 2)) for y in S}
        target = HomologyTarget(a, S, x, cps, ap)
        # the engine's network: the prescribed cycle, patched into the
        # f-part of the lengths
        b = circulation.prescribed_cycle(m, basis, target)
        lengths = circulation.patched_network(m, circulation.base_network(m, f), b)
        assert [pair(b, k) for k in basis.cocycles] == list(a)
        assert {y: pair(b, cps[y]) for y in S} == ap
        out = m.dual_arcs()
        for arcs in out:
            assert [h for _, h in arcs] == sorted(h for _, h in arcs)
        entries = sorted((h, u, v, lengths[h]) for u, arcs in enumerate(out) for v, h in arcs)
        assert entries == [
            (h, m.left[m.opp[h]], m.left[h], f[h] - b[h] if f[h] > 0 else -b[h])
            for h in m.half_edges()
        ]


def test_membership_on_rational_points_matches_scaled_bruteforce():
    from fractions import Fraction

    rng = random.Random(163)
    done = 0
    while done < 40:
        m = random_map(rng, max_edges=7, max_vertices=4)
        if m.num_edges == 0:
            continue
        basis = homology.cohomology_basis(m)
        f = random_nowhere_zero(rng, m)
        x = rng.randrange(m.num_faces)
        S = (x,)
        cps = homology.copaths_from(m, x, S)
        box, _ = lattice.pairing_bounds(f, basis, cps)
        den = rng.choice((2, 3))
        u = tuple(
            Fraction(rng.randint(den * lo, den * hi), den) for lo, hi in box
        )
        point = lattice.HomologyPoint(u, {x: 0})
        got = lattice.membership(m, basis, f, S, x, cps, point) is None
        mu = den
        scaled_target = HomologyTarget(
            tuple(int(mu * c) for c in u), S, x, cps, {x: 0}
        )
        want = brute_feasible_general(m, basis, mu * f, scaled_target)
        assert got == want
        done += 1


def test_johnson_distances_equal_plain_bellman_ford():
    rng = random.Random(167)
    done = 0
    while done < 15:
        m = random_map(rng, max_edges=30, max_vertices=8)
        if m.num_faces < 3:
            continue
        basis = homology.cohomology_basis(m)
        f = random_nowhere_zero(rng, m)
        x = rng.randrange(m.num_faces)
        faces = list(range(m.num_faces))
        S = tuple(sorted(set([x] + rng.sample(faces, min(3, len(faces))))))
        x = min(S)
        cps = homology.copaths_from(m, x, S)
        a = tuple(0 for _ in basis.Y)
        zero_ok = (
            lattice.membership(
                m, basis, f, (x,), x, {x: cps[x]}, lattice.HomologyPoint(a, {x: 0})
            )
            is None
        )
        if not zero_ok:
            continue
        tbl = rhs_table(m, basis, f, a, S, x, cps)
        # recompute the distances with plain Bellman-Ford per source
        target = HomologyTarget(a, (x,), x, {x: cps[x]}, {x: 0})
        b = circulation.prescribed_cycle(m, basis, target)
        ell = [f[h] - b[h] if f[h] > 0 else -b[h] for h in m.half_edges()]
        pairings = {y: pair(b, cps[y]) for y in S}
        for y in S:
            dist = [None] * m.num_faces
            dist[y] = 0
            for _ in range(m.num_faces):
                changed = False
                for h in m.half_edges():
                    u = m.left[m.opp[h]]
                    if dist[u] is None:
                        continue
                    v = m.left[h]
                    nd = dist[u] + ell[h]
                    if dist[v] is None or nd < dist[v]:
                        dist[v] = nd
                        changed = True
                if not changed:
                    break
            for y2 in S:
                assert tbl[(y, y2)] == pairings[y2] - pairings[y] + dist[y2]
        done += 1


def test_second_enumeration_oracle_box_2_5():
    # raw subset scan over the 3 x 6 grid as an independent oracle
    from surfcolor import hollow2d as h2

    grid = [(x, y) for x in range(3) for y in range(6)]
    count = 0
    for r in range(1, len(grid) + 1):
        for sub in itertools.combinations(grid, r):
            hull = convex_hull(list(sub))
            if len(hull) != len(sub):
                continue
            if is_hollow(ThirdIntegralPolygon(sub)):
                count += 1
    rep = h2.enumerate_and_verify((2, 5))
    assert rep.hulls_examined == count
    assert rep.verified


def test_surfmap_fuzzing_raises_only_package_errors():
    rng = random.Random(173)
    base = save_surfmap(gen_grid(3, 3))
    alphabet = "0123456789 \nvertexsurfmaphalfedges:#-"
    for _ in range(300):
        text = list(base)
        for _ in range(rng.randint(1, 6)):
            op = rng.randrange(3)
            pos = rng.randrange(len(text))
            if op == 0:
                text[pos] = rng.choice(alphabet)
            elif op == 1:
                text.insert(pos, rng.choice(alphabet))
            else:
                del text[pos]
        mutated = "".join(text)
        try:
            m = load_surfmap(mutated)
        except errors.SurfcolorError:
            continue
        # parse survived: the result must be a structurally valid map
        assert m.num_vertices >= 1
        assert save_surfmap(load_surfmap(save_surfmap(m))) == save_surfmap(m)


def test_solver_is_deterministic_across_calls():
    from surfcolor.solver import Precoloring, extend_precoloring

    g = gen_grid(3, 4)
    psi = {0: 0, 7: 2}
    r1 = extend_precoloring(g, Precoloring(3, psi))
    r2 = extend_precoloring(g, Precoloring(3, psi))
    assert r1.extendable == r2.extendable
    assert r1.coloring == r2.coloring
    assert r1.boundaries_tried == r2.boundaries_tried
    assert r1.points_tested == r2.points_tested
