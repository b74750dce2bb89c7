"""Polytope membership, bounds, rhs tables, the residue solver, and the
lattice search."""

import itertools
import random
from fractions import Fraction

import pytest

from surfcolor import chains, circulation, errors, flows, homology, lattice, surface_map
from surfcolor.circulation import Circulation, HomologyTarget
from surfcolor.chains import Chain1, pair
from surfcolor.cli import gen_bouquet, gen_grid
from surfcolor.lattice import (
    HomologyPoint,
    integer_points_bruteforce,
    membership,
    pairing_bounds,
)

from conftest import brute_circulations, random_map, random_nowhere_zero, solve_record
from residue_reference import AnchorOutsidePolytope, residue_difference_solve, rhs_table


def _setup(m, x=0, extra=()):
    basis = homology.cohomology_basis(m)
    S = tuple(sorted({x, *extra}))
    cps = homology.copaths_from(m, x, S)
    return basis, S, cps


def test_pairing_bounds_bouquet():
    m = gen_bouquet(2)
    basis, S, cps = _setup(m)
    f = Chain1(m, {0: 1, 2: 1})
    box, box_s = pairing_bounds(f, basis, cps)
    assert box == [(0, 1), (0, 1)]
    assert box_s[0] == (0, 0)


def test_pairing_bounds_zero_chain():
    m = gen_grid(3, 3)
    basis, S, cps = _setup(m)
    box, box_s = pairing_bounds(Chain1(m), basis, cps)
    assert all(b == (0, 0) for b in box)


def test_pairing_interval_width_is_norm(corpus_map):
    rng = random.Random(89)
    m = corpus_map
    if m.num_edges == 0:
        pytest.skip("needs edges")
    basis, S, cps = _setup(m)
    f = random_nowhere_zero(rng, m)
    box, _ = pairing_bounds(f, basis, cps)
    for (lo, hi), k in zip(box, basis.cocycles):
        assert hi - lo == k.norm()


def test_integer_points_bouquet_square():
    m = gen_bouquet(2)
    basis, S, cps = _setup(m)
    f = flows.Flow(Chain1(m, {0: 1, 2: 1}))
    pts = integer_points_bruteforce(m, basis, f, S, 0, cps)
    assert {a for a, _ in pts} == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_integer_points_zero_flow():
    m = gen_bouquet(2)
    basis, S, cps = _setup(m)
    pts = integer_points_bruteforce(m, basis, flows.Flow(Chain1(m)), S, 0, cps)
    assert pts == {((0, 0), (0,))}


def test_integer_points_budget():
    m = gen_grid(3, 3)
    basis, S, cps = _setup(m)
    f = flows.Flow(Chain1(m, {h: 1 for h in m.canonical_half_edges()}))
    with pytest.raises(errors.BudgetExceeded):
        integer_points_bruteforce(m, basis, f, S, 0, cps, edge_budget=10)


def test_integer_points_walk_reaches_each_circulation_once(monkeypatch):
    # an edge where f is 0 takes only the value 0, so the walk reaches
    # every f-circulation at exactly one leaf; each leaf pairs its chain
    # with the cocycles first, which is where the leaves are recorded
    m = gen_grid(3, 3)
    basis, S, cps = _setup(m)
    edges = m.canonical_half_edges()
    zero = set(random.Random(13).sample(edges, 8))
    f = Chain1(m, {h: 1 for h in edges if h not in zero})
    leaves = []

    def recording_pair(c, k):
        if not leaves or leaves[-1] is not c:
            leaves.append(c)
        return pair(c, k)

    monkeypatch.setattr(lattice, "pair", recording_pair)
    integer_points_bruteforce(m, basis, flows.Flow(f), S, 0, cps, edge_budget=m.num_edges)
    circulations = set(brute_circulations(m, f))
    assert len(circulations) == 5
    assert len(leaves) == len(circulations)
    assert set(leaves) == circulations


def test_brute_circulations_yields_each_circulation_once():
    # an edge where f is 0 offers only the value 0; offering (0, 0) there
    # yielded each circulation 2^z times, z the number of such edges
    rng = random.Random(29)
    repeated = 0
    for _ in range(40):
        m = random_map(rng, max_edges=9)
        edges = m.canonical_half_edges()
        f = Chain1(m, {h: rng.choice((-1, 1)) for h in edges if rng.random() < 0.7})
        got = list(brute_circulations(m, f))
        scan = [Chain1(m, dict(zip(edges, sel))) for sel in itertools.product(*[(0, f[h]) for h in edges])]
        scan = [c for c in scan if chains.is_cycle(c)]
        assert len(got) == len(set(got))
        assert set(got) == set(scan)
        repeated += len(scan) > len(got)
    assert repeated >= 10
    m = gen_grid(3, 3)
    edges = m.canonical_half_edges()
    zero = set(random.Random(13).sample(edges, 8))
    f = Chain1(m, {h: 1 for h in edges if h not in zero})
    assert len(list(brute_circulations(m, f))) == 5


def test_membership_bouquet_examples():
    m = gen_bouquet(2)
    basis, S, cps = _setup(m)
    f = Chain1(m, {0: 1, 2: 1})
    assert membership(m, basis, f, S, 0, cps, HomologyPoint((0, 0), {0: 0})) is None
    assert membership(m, basis, f, S, 0, cps, HomologyPoint((1, 1), {0: 0})) is None
    sep = membership(m, basis, f, S, 0, cps, HomologyPoint((2, 0), {0: 0}))
    assert sep is not None
    assert sep.z == (1, 0)
    half = Fraction(1, 2)
    assert membership(m, basis, f, S, 0, cps, HomologyPoint((half, half), {0: 0})) is None


def test_membership_trivial_separator_on_anchor_coordinate():
    m = gen_bouquet(2)
    basis, S, cps = _setup(m)
    f = Chain1(m, {0: 1, 2: 1})
    sep = membership(m, basis, f, S, 0, cps, HomologyPoint((0, 0), {0: Fraction(1, 3)}))
    assert sep is not None
    assert sep.z_prime == {0: 1}


def test_membership_agrees_with_bruteforce_integer_points():
    rng = random.Random(97)
    done = 0
    while done < 25:
        m = random_map(rng, max_edges=9, max_vertices=4)
        if m.num_edges == 0:
            continue
        basis = homology.cohomology_basis(m)
        x = rng.randrange(m.num_faces)
        S = tuple(sorted({x, rng.randrange(m.num_faces)}))
        cps = homology.copaths_from(m, x, S)
        f = random_nowhere_zero(rng, m)
        pts = integer_points_bruteforce(m, basis, flows.Flow(f), S, x, cps)
        box, box_s = pairing_bounds(f, basis, cps)
        s_order = sorted(S)
        accepted = set()
        axes = [range(lo, hi + 1) for lo, hi in box]
        s_axes = [
            range(box_s[y][0], box_s[y][1] + 1) if y != x else range(0, 1)
            for y in s_order
        ]
        for a in itertools.product(*axes):
            for ap in itertools.product(*s_axes):
                point = HomologyPoint(a, dict(zip(s_order, ap)))
                if membership(m, basis, f, S, x, cps, point) is None:
                    accepted.add((a, ap))
        assert accepted == pts
        done += 1


def test_separator_strictly_cuts_query_but_no_integer_point():
    rng = random.Random(101)
    done = 0
    while done < 20:
        m = random_map(rng, max_edges=9, max_vertices=4)
        if m.num_edges == 0:
            continue
        basis = homology.cohomology_basis(m)
        x = rng.randrange(m.num_faces)
        S = (x,)
        cps = homology.copaths_from(m, x, S)
        f = random_nowhere_zero(rng, m)
        box, _ = pairing_bounds(f, basis, cps)
        u = tuple(rng.randint(lo - 1, hi + 1) for lo, hi in box)
        point = HomologyPoint(u, {x: 0})
        sep = membership(m, basis, f, S, x, cps, point)
        if sep is None:
            continue
        cut = sum(zi * ui for zi, ui in zip(sep.z, point.u)) + sum(
            zv * point.u_prime.get(y, 0) for y, zv in sep.z_prime.items()
        )
        pts = integer_points_bruteforce(m, basis, flows.Flow(f), S, x, cps)
        for a, ap in pts:
            a_prime = dict(zip(sorted(S), ap))
            assert sum(zi * ai for zi, ai in zip(sep.z, a)) + sum(
                zv * a_prime.get(y, 0) for y, zv in sep.z_prime.items()
            ) < cut
        done += 1


def test_rhs_table_basics():
    m = gen_grid(3, 3)
    basis = homology.cohomology_basis(m)
    x = 0
    S = (0, 4, 8)
    cps = homology.copaths_from(m, x, S)
    f = Chain1(m, {h: 1 for h in m.canonical_half_edges()})
    tbl = rhs_table(m, basis, f, (0, 0), S, x, cps)
    assert tbl[(x, x)] == 0
    for y in S:
        assert tbl[(y, y)] >= 0
        for y2 in S:
            for y3 in S:
                assert tbl[(y, y3)] <= tbl[(y, y2)] + tbl[(y2, y3)]


def test_rhs_table_matches_bruteforce_maximum():
    rng = random.Random(103)
    done = 0
    while done < 20:
        m = random_map(rng, max_edges=9, max_vertices=4)
        if m.num_faces < 2 or m.num_edges == 0:
            continue
        basis = homology.cohomology_basis(m)
        x = 0
        S = tuple(sorted({0, rng.randrange(m.num_faces), rng.randrange(m.num_faces)}))
        cps = homology.copaths_from(m, x, S)
        f = random_nowhere_zero(rng, m)
        pts = integer_points_bruteforce(m, basis, flows.Flow(f), S, x, cps)
        avals = sorted({a for a, _ in pts})
        if not avals:
            continue
        a = avals[rng.randrange(len(avals))]
        tbl = rhs_table(m, basis, f, a, S, x, cps)
        best = {}
        for c in brute_circulations(m, f):
            if tuple(pair(c, k) for k in basis.cocycles) != a:
                continue
            pv = {y: pair(c, cps[y]) for y in S}
            for y in S:
                for y2 in S:
                    key = (y, y2)
                    val = pv[y2] - pv[y]
                    if key not in best or val > best[key]:
                        best[key] = val
        assert best, "anchor came from an integer point, so a witness exists"
        for key, val in best.items():
            assert tbl[key] == val
        done += 1


def test_rhs_table_rejects_outside_anchor():
    m = gen_bouquet(2)
    basis, S, cps = _setup(m)
    f = Chain1(m, {0: 1, 2: 1})
    with pytest.raises(AnchorOutsidePolytope):
        rhs_table(m, basis, f, (5, 0), S, 0, cps)


def test_residue_solver_trivial():
    S = ("x", "y")
    d = {(a, b): 7 for a in S for b in S}
    r = {"x": 0, "y": 0}
    ell = residue_difference_solve(S, "x", 3, d, r)
    assert ell is not None
    assert ell["x"] == 0
    assert all(ell[y] % 3 == r[y] for y in S)


def test_residue_solver_worked_instances():
    S = ("x", "y")
    d = {("x", "x"): 0, ("y", "y"): 0, ("x", "y"): 5, ("y", "x"): 5}
    ell = residue_difference_solve(S, "x", 3, d, {"x": 0, "y": 1})
    assert ell == {"x": 0, "y": 4}
    d0 = {("x", "x"): 0, ("y", "y"): 0, ("x", "y"): 0, ("y", "x"): 0}
    assert residue_difference_solve(S, "x", 3, d0, {"x": 0, "y": 1}) is None


def test_residue_solver_randomized_against_bruteforce():
    rng = random.Random(107)
    for _ in range(200):
        n = rng.randint(1, 4)
        S = tuple(range(n))
        mod = rng.choice((3, 5))
        d = {(a, b): rng.randint(-4, 6) if a != b else rng.randint(0, 4) for a in S for b in S}
        r = {y: (0 if y == 0 else rng.randrange(mod)) for y in S}
        got = residue_difference_solve(S, 0, mod, d, r)
        # brute force over a window
        window = range(-12, 13)
        found = None
        for vals in itertools.product(*[(0,) if y == 0 else window for y in S]):
            if all(vals[y] % mod == r[y] for y in S) and all(
                vals[b] - vals[a] <= d[(a, b)] for a in S for b in S
            ):
                found = dict(zip(S, vals))
                break
        if got is None:
            assert found is None
        else:
            assert all(got[b] - got[a] <= d[(a, b)] for a in S for b in S)
            assert all(got[y] % mod == r[y] for y in S)
            assert got[0] == 0


def test_find_constrained_circulation_bouquet_none():
    m = gen_bouquet(2)
    basis, S, cps = _setup(m)
    f0 = flows.Flow(Chain1(m, {0: 1, 2: 1}))
    half = (3 + 1) // 2
    r0 = [(half * pair(f0.chain, k)) % 3 for k in basis.cocycles]
    assert r0 == [2, 2]
    res = lattice.find_constrained_circulation(solve_record(m, basis, S, 0, cps, 3), f0, r0, {})
    assert res is None


def test_find_constrained_circulation_zero_residues():
    m = gen_grid(3, 3)
    basis, S, cps = _setup(m)
    f0 = flows.nowhere_zero_flow_with_boundary(m, chains.Chain0(m))
    r0 = (0,) * len(basis)
    res = lattice.find_constrained_circulation(solve_record(m, basis, S, 0, cps, 3), f0, r0, {})
    assert res is not None


def test_find_constrained_circulation_matches_bruteforce():
    rng = random.Random(109)
    done = 0
    while done < 40:
        m = random_map(rng, max_edges=10, max_vertices=4)
        if m.num_edges == 0:
            continue
        basis = homology.cohomology_basis(m)
        f0 = flows.Flow(random_nowhere_zero(rng, m))
        mod = rng.choice((3, 5))
        x = rng.randrange(m.num_faces)
        S = tuple(sorted({x} | {rng.randrange(m.num_faces) for _ in range(rng.randint(0, 2))}))
        cps = homology.copaths_from(m, x, S)
        r0 = tuple(rng.randrange(mod) for _ in basis.Y)
        r0p = {y: rng.randrange(mod) for y in S if y != x}
        solve = solve_record(m, basis, S, x, cps, mod)
        got = lattice.find_constrained_circulation(solve, f0, r0, r0p)
        pts = integer_points_bruteforce(m, basis, f0, S, x, cps)
        s_order = sorted(S)
        want = any(
            all((ai - ri) % mod == 0 for ai, ri in zip(a, r0))
            and all(
                (dict(zip(s_order, ap))[y] - r0p.get(y, 0)) % mod == 0
                for y in S
                if y != x
            )
            for a, ap in pts
        )
        assert (got is not None) == want
        if got is not None:
            for k, ri in zip(basis.cocycles, r0):
                assert (pair(got.chain, k) - ri) % mod == 0
            for y in S:
                if y != x:
                    assert (pair(got.chain, cps[y]) - r0p.get(y, 0)) % mod == 0
        done += 1


def test_a_search_reads_its_residues_mod_m(monkeypatch):
    # the search reduces no residue it is given: r0 and r shifted by
    # multiples of m give the same circulation, test the same box points,
    # each congruent to r0 mod solve.m, and keep the same cuts
    calls = []
    real = lattice.membership

    def recorded(*args):
        calls.append((args[6], args[7]))
        return real(*args)

    monkeypatch.setattr(lattice, "membership", recorded)
    rng = random.Random(503)
    counts = {"found": 0, "none": 0, "cut": 0, "layers": 0}
    searches = 0
    while searches < 80:
        # every other map a torus grid, whose boxes are large enough for
        # kept cuts to answer points
        if searches % 2:
            m = gen_grid(rng.randint(3, 6), rng.randint(3, 6))
        else:
            m = random_map(rng, max_edges=10, max_vertices=4)
        if m.num_edges == 0:
            continue
        searches += 1
        basis = homology.cohomology_basis(m)
        f0 = flows.Flow(random_nowhere_zero(rng, m))
        mod = rng.choice((3, 5))
        x = rng.randrange(m.num_faces)
        S = tuple(sorted({x} | {rng.randrange(m.num_faces) for _ in range(rng.randint(0, 2))}))
        cps = homology.copaths_from(m, x, S)
        r0 = [rng.randrange(mod) for _ in basis.Y]
        r = {y: rng.randrange(mod) for y in S if y != x}
        shifted_r0 = [c + mod * rng.randint(-9, 9) for c in r0]
        shifted_r = {y: r.get(y, 0) + mod * rng.randint(-9, 9) for y in S}
        runs = []
        for residues in ((r0, r), (shifted_r0, shifted_r)):
            del calls[:]
            solve = solve_record(m, basis, S, x, cps, mod)
            res = lattice.find_constrained_circulation(solve, f0, *residues)
            points = [u for u, _ in calls]
            assert all((ui - ri) % solve.m == 0 for u in points for ui, ri in zip(u, r0))
            cuts = calls[0][1].cuts if calls else []
            runs.append((res and res.chain, points, cuts, solve.points_tested, solve.points_cut))
        assert runs[0] == runs[1]
        counts["found" if runs[0][0] is not None else "none"] += 1
        counts["cut"] += runs[0][4] > 0
        counts["layers"] += len(S) > 1
    assert min(counts.values()) >= 5, counts


def test_searches_that_kept_cuts_answer_match_bruteforce():
    # whole searches in which kept cuts answer box points, each verdict
    # held against the brute-force integer points with its residues: maps
    # of 12 to 14 edges give boxes wide enough for cuts to answer
    rng = random.Random(563)
    cut_searches = 0
    verdicts = set()
    for _ in range(200):
        m = random_map(rng, max_edges=14, min_edges=12, max_vertices=5)
        basis = homology.cohomology_basis(m)
        f0 = flows.Flow(random_nowhere_zero(rng, m))
        x = rng.randrange(m.num_faces)
        S = tuple(sorted({x} | {rng.randrange(m.num_faces) for _ in range(rng.randint(0, 2))}))
        cps = homology.copaths_from(m, x, S)
        searches = []
        for _ in range(8):
            mod = rng.choice((3, 5))
            r0 = tuple(rng.randrange(mod) for _ in basis.Y)
            r = {y: rng.randrange(mod) for y in S if y != x}
            solve = solve_record(m, basis, S, x, cps, mod)
            got = lattice.find_constrained_circulation(solve, f0, r0, r)
            searches.append((mod, r0, r, got, solve.points_cut))
        # the brute force walks up to 2^14 edge choices, so it runs only
        # on the maps where a kept cut answered a point
        if not any(cut for *_, cut in searches):
            continue
        pts = integer_points_bruteforce(m, basis, f0, S, x, cps)
        s_order = sorted(S)
        for mod, r0, r, got, cut in searches:
            want = any(
                all((ai - ri) % mod == 0 for ai, ri in zip(a, r0))
                and all((ay - r.get(y, 0)) % mod == 0 for y, ay in zip(s_order, ap))
                for a, ap in pts
            )
            assert (got is not None) == want
            cut_searches += cut > 0
            verdicts.add(want)
    assert cut_searches >= 15 and verdicts == {True, False}, (cut_searches, verdicts)


def test_prescribed_faces_outside_s_or_the_map_are_refused():
    # a copath value at a face outside S was once dropped unread, so the
    # point below was found inside with S = (0,) and refused with
    # S = (0, 4); a face of S outside the map once raised a bare
    # IndexError from the kernel, or indexed from the end of a list
    g = surface_map.dual(gen_grid(3, 3))
    basis = homology.cohomology_basis(g)
    f0 = flows.nowhere_zero_flow_with_boundary(g, chains.Chain0(g))
    point = HomologyPoint((0, 0), {0: 0, 4: 99})
    cps = homology.copaths_from(g, 0, (0, 4))
    assert membership(g, basis, f0.chain, (0, 4), 0, cps, point) is not None
    with pytest.raises(ValueError, match="not in S"):
        membership(g, basis, f0.chain, (0,), 0, cps, point)
    with pytest.raises(ValueError, match="not in S"):
        HomologyTarget((0, 0), (0,), 0, cps, {0: 0, 4: 0})
    for y in (g.num_faces, -1):
        target = HomologyTarget((0, 0), (0, y), 0, {**cps, y: cps[0]}, {0: 0, y: 0})
        with pytest.raises(ValueError, match="not in the map"):
            circulation.circulation_or_certificate(g, basis, f0.chain, target)


def test_basis_coordinates_of_the_wrong_length_are_refused():
    # zip once cut the longer of a coordinate vector and the basis to the
    # other's length: on the dual of the 3x3 grid, with two basis
    # coordinates, the engine built a circulation for a = (), membership
    # found the point u = () inside, and a search given one residue
    # returned a circulation validated on one coordinate only
    g = surface_map.dual(gen_grid(3, 3))
    basis = homology.cohomology_basis(g)
    assert len(basis.cocycles) == 2
    cps = homology.copaths_from(g, 0, (0,))
    f0 = flows.nowhere_zero_flow_with_boundary(g, chains.Chain0(g))
    for a in ((), (0,), (0, 0, 0)):
        target = HomologyTarget(a, (0,), 0, cps, {0: 0})
        with pytest.raises(ValueError):
            circulation.circulation_or_certificate(g, basis, f0.chain, target)
        with pytest.raises(ValueError):
            membership(g, basis, f0.chain, (0,), 0, cps, HomologyPoint(a, {0: 0}))
        with pytest.raises(ValueError):
            lattice.find_constrained_circulation(solve_record(g, basis, (0,), 0, cps, 3), f0, a, {})
        with pytest.raises(ValueError):
            circulation.validate_circulation(g, basis, f0.chain, target, Circulation(Chain1(g)))
        with pytest.raises(ValueError):
            list(lattice.lex_box_points([(0, 3), (0, 3)], a, 3))
    # the zero circulation of the right length still validates
    target = HomologyTarget((0, 0), (0,), 0, cps, {0: 0})
    circulation.validate_circulation(g, basis, f0.chain, target, Circulation(Chain1(g)))


def test_translation_property_between_flows():
    # two nowhere-zero flows with equal boundary differ by a circulation;
    # their integer-point sets translate by the pairing difference / 2
    rng = random.Random(113)
    done = 0
    while done < 20:
        m = random_map(rng, max_edges=7, max_vertices=4)
        if m.num_edges == 0:
            continue
        basis = homology.cohomology_basis(m)
        f = random_nowhere_zero(rng, m)
        nonzero = [c for c in brute_circulations(m, f) if not c.is_zero()]
        if not nonzero:
            continue
        c = nonzero[rng.randrange(len(nonzero))]
        f2 = f - 2 * c
        assert chains.boundary1(f2) == chains.boundary1(f)
        x = 0
        S = (x,)
        cps = homology.copaths_from(m, x, S)
        pts1 = {a for a, _ in integer_points_bruteforce(m, basis, flows.Flow(f), S, x, cps)}
        pts2 = {a for a, _ in integer_points_bruteforce(m, basis, flows.Flow(f2), S, x, cps)}
        shift = tuple(
            (pair(f, k) - pair(f2, k)) // 2 for k in basis.cocycles
        )
        translated = {tuple(ai - si for ai, si in zip(a, shift)) for a in pts1}
        assert translated == pts2
        done += 1
