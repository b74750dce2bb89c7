"""The hollow-width enumeration, its tables and its walk, against the
exact polygon primitives of ``polygon_reference``."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from surfcolor import hollow2d as h2

from polygon_reference import ThirdIntegralPolygon as Poly
from polygon_reference import _cross, contains_integer_point, convex_hull, is_hollow, narrow_direction


def test_containment_examples():
    assert not contains_integer_point(Poly([(1, 1), (2, 1), (2, 2), (1, 2)]))
    assert contains_integer_point(Poly([(0, 0), (6, 0), (0, 6)]))
    assert not contains_integer_point(Poly([(1, 0), (2, 0)]))
    assert contains_integer_point(Poly([(3, 3)]))
    # boundary points count (closed containment)
    assert contains_integer_point(Poly([(0, 0), (2, 0), (2, 2), (0, 2)]))


def test_hollowness_antimonotone_under_adding_points():
    rng = random.Random(149)
    for _ in range(60):
        pts = [(rng.randint(0, 8), rng.randint(0, 13)) for _ in range(rng.randint(1, 5))]
        p = Poly(pts)
        if is_hollow(p):
            continue
        extra = (rng.randint(0, 8), rng.randint(0, 13))
        q = Poly(pts + [extra])
        assert not is_hollow(q)


def test_narrow_direction_order_and_examples():
    small = Poly([(1, 1), (2, 1), (2, 2), (1, 2)])
    assert narrow_direction(small, Fraction(2)) == (1, 0)
    unit = Poly([(0, 0), (3, 0), (3, 3), (0, 3)])
    assert narrow_direction(unit, Fraction(1), bound=8) is None
    wide = Poly([(0, 0), (5, 0), (5, 1), (0, 1)])  # width 5/3 along (1, 0)
    assert narrow_direction(wide, Fraction(2)) == (1, 0)


def test_direction_stream_is_primitive_and_ordered():
    ds = list(h2.coprime_directions(3))
    assert ds[0] == (1, 0)
    assert len(ds) == len(set(ds))
    from math import gcd

    for z1, z2 in ds:
        assert gcd(z1, abs(z2)) == 1
        assert z1 > 0 or (z1 == 0 and z2 > 0)
    norms = [max(abs(z1), abs(z2)) for z1, z2 in ds]
    assert norms == sorted(norms)


def test_smoke_box_verifies():
    rep = h2.enumerate_and_verify((3, 3))
    assert rep.verified
    assert rep.hulls_examined == 774
    assert rep.failures == []


def test_report_deterministic_across_jobs():
    rep1 = h2.enumerate_and_verify((5, 5), jobs=1)
    rep2 = h2.enumerate_and_verify((5, 5), jobs=4)
    assert rep1.format() == rep2.format()
    assert rep1.hulls_examined == rep2.hulls_examined == 17004


def test_enumeration_counts_match_direct_subset_scan():
    # independent oracle on a tiny box: count subsets of the grid in
    # strictly convex position with hollow hull, by raw subset scan
    import itertools

    box = (2, 2)
    grid = [(x, y) for x in range(3) for y in range(3)]
    count = 0
    for r in range(1, 10):
        for sub in itertools.combinations(grid, r):
            hull = convex_hull(list(sub))
            if len(hull) != len(sub):
                continue
            p = Poly(list(sub))
            if is_hollow(p):
                count += 1
    rep = h2.enumerate_and_verify(box)
    assert rep.hulls_examined == count


def test_degenerate_polytopes_have_narrow_directions():
    rng = random.Random(151)
    for _ in range(40):
        a = (rng.randint(0, 8), rng.randint(0, 13))
        b = (rng.randint(0, 8), rng.randint(0, 13))
        p = Poly([a, b])
        assert narrow_direction(p, Fraction(2)) is not None


def _strictly_convex_hollow(sub):
    return len(convex_hull(list(sub))) == len(sub) and is_hollow(Poly(list(sub)))


def test_enumeration_and_maximal_counts_match_subset_scan_box_3_3():
    # a hollow strictly convex subset is extension-maximal when no
    # lex-greater grid point keeps it strictly convex and hollow
    import itertools

    grid = [(x, y) for x in range(4) for y in range(4)]
    examined = maximal = 0
    for r in range(1, len(grid) + 1):
        for sub in itertools.combinations(grid, r):
            if not _strictly_convex_hollow(sub):
                continue
            examined += 1
            if not any(_strictly_convex_hollow(sub + (p,)) for p in grid if p > sub[-1]):
                maximal += 1
    rep = h2.enumerate_and_verify((3, 3))
    assert (rep.hulls_examined, rep.maximal_hulls) == (examined, maximal) == (774, 430)


def _in_closed_hull(points, q):
    """Brute force by Caratheodory: q is in the closed hull of the points
    iff it is one of them, or on a segment, or in a triangle of them,
    solved with exact barycentric coordinates."""
    q = (Fraction(q[0]), Fraction(q[1]))
    pts = sorted(set(points))
    for a in pts:
        if a == q:
            return True
    for a, b in itertools.combinations(pts, 2):
        dx, dy = b[0] - a[0], b[1] - a[1]
        qx, qy = q[0] - a[0], q[1] - a[1]
        if dx * qy - dy * qx == 0:
            t = (qx * dx + qy * dy) / Fraction(dx * dx + dy * dy)
            if 0 <= t <= 1:
                return True
    for a, b, c in itertools.combinations(pts, 3):
        m00, m01 = b[0] - a[0], c[0] - a[0]
        m10, m11 = b[1] - a[1], c[1] - a[1]
        det = m00 * m11 - m01 * m10
        if det == 0:
            continue
        qx, qy = q[0] - a[0], q[1] - a[1]
        s = Fraction(m11 * qx - m01 * qy, det)
        t = Fraction(m00 * qy - m10 * qx, det)
        if s >= 0 and t >= 0 and s + t <= 1:
            return True
    return False


def test_contains_integer_point_matches_brute_force():
    # coordinates in thirds, biased to multiples of 3 so that integer
    # points fall on vertices and on edges
    rng = random.Random(181)

    def coord():
        return 3 * rng.randint(-1, 2) if rng.random() < 0.5 else rng.randint(-3, 6)

    seen = {"point": 0, "segment": 0, "polygon": 0, "vertex": 0, "edge": 0, "hollow": 0}
    for i in range(600):
        k = (1, 2, rng.randint(3, 6))[i % 3]
        pts = [(coord(), coord()) for _ in range(k)]
        poly = Poly(pts)
        hull = poly.vertices_thirds
        xs = [x for x, _ in hull]
        ys = [y for _, y in hull]
        ints = [
            (x, y)
            for x in range(3 * (min(xs) // 3), max(xs) + 1, 3)
            for y in range(3 * (min(ys) // 3), max(ys) + 1, 3)
            if _in_closed_hull(hull, (x, y))
        ]
        assert contains_integer_point(poly) == bool(ints), hull
        seen[("point", "segment", "polygon")[min(len(hull), 3) - 1]] += 1
        seen["hollow"] += not ints
        seen["vertex"] += any(q in hull for q in ints)
        seen["edge"] += any(
            q not in hull and _in_closed_hull([a, b], q)
            for q in ints
            for a, b in zip(hull, hull[1:] + hull[:1])
        )
    assert min(seen.values()) >= 20, seen


def test_box_5_7_counts():
    rep = h2.enumerate_and_verify((5, 7))
    assert (rep.hulls_examined, rep.maximal_hulls, len(rep.failures)) == (42908, 28129, 0)


def test_pool_is_capped_at_the_number_of_roots(monkeypatch):
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(h2.multiprocessing, "Pool", FakePool)
    # the 2 x 2 grid of (1, 1) has three non-integer points, one root each
    rep = h2.enumerate_and_verify((1, 1), jobs=8)
    assert sizes == [3]
    # one root runs inline
    h2.enumerate_and_verify((1, 0), jobs=8)
    h2.enumerate_and_verify((0, 0), jobs=8)
    assert sizes == [3]
    assert rep.format() == h2.enumerate_and_verify((1, 1), jobs=1).format()


def test_roots_are_dealt_back_and_forth(monkeypatch):
    shares = []

    class RecordingPool:
        def __init__(self, processes):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            shares.extend(sorted(task[-1]) for task in tasks)
            return [fn(t) for t in tasks]

    monkeypatch.setattr(h2.multiprocessing, "Pool", RecordingPool)
    # ten roots, three workers: one block 0 1 2 2 1 0, then 0 1 2 2
    rep = h2.enumerate_and_verify((2, 3), jobs=3)
    assert shares == [[0, 5, 6], [1, 4, 7], [2, 3, 8, 9]]
    assert rep.format() == h2.enumerate_and_verify((2, 3), jobs=1).format()


def _independent_dfs(box, bound):
    """(examined, maximal, sorted failures) by a plain DFS that tries
    every lex-greater grid point at every hull, with no inherited
    candidates and no incremental hull."""
    grid = [(x, y) for x in range(box[0] + 1) for y in range(box[1] + 1)]
    examined = maximal = 0
    failures = []

    def visit(sub):
        nonlocal examined, maximal
        examined += 1
        children = [sub + (p,) for p in grid if p > sub[-1] and _strictly_convex_hollow(sub + (p,))]
        if not children:
            maximal += 1
            if narrow_direction(Poly(list(sub)), h2.THRESHOLD, bound) is None:
                failures.append(sub)
        for child in children:
            visit(child)

    for p in grid:
        if _strictly_convex_hollow((p,)):
            visit((p,))
    return examined, maximal, sorted(failures)


@pytest.mark.parametrize(
    "box, counts",
    [
        ((4, 4), (3862, 2454, 90)),
        ((4, 5), (8947, 5634, 291)),
        # a root that is a lone point, or whose hull is one segment
        ((1, 0), (1, 1, 0)),
        ((0, 1), (1, 1, 0)),
        ((2, 0), (3, 2, 0)),
        ((1, 1), (7, 4, 0)),
    ],
)
def test_enumeration_matches_independent_dfs_with_failures(monkeypatch, box, counts):
    # below the paper's threshold some maximal hulls have no narrow
    # direction, so the failure lists themselves are compared
    monkeypatch.setattr(h2, "THRESHOLD", Fraction(4, 3))
    examined, maximal, failures = _independent_dfs(box, 3)
    rep = h2.enumerate_and_verify(box, bound=3)
    assert (rep.hulls_examined, rep.maximal_hulls, rep.failures) == (examined, maximal, failures)
    assert (examined, maximal, len(failures)) == counts


@pytest.mark.parametrize("threshold, unresolved", [(1, 12003), (Fraction(4, 3), 1687), (Fraction(5, 3), 40)])
def test_box_5_7_unresolved_counts_below_the_threshold(monkeypatch, threshold, unresolved):
    monkeypatch.setattr(h2, "THRESHOLD", Fraction(threshold))
    rep = h2.enumerate_and_verify((5, 7), bound=3)
    assert (rep.hulls_examined, rep.maximal_hulls, len(rep.failures)) == (42908, 28129, unresolved)


def _extend_convex_all_edges(hull, p):
    """The insertion that crosses p with every hull edge, kept as the
    reference: exactly one visible edge and no edge collinear with p, or
    None; the hull may start at any vertex."""
    k = len(hull)
    if k == 1:
        a = hull[0]
        return [a, p], (a, p, a)
    visible = -1
    for i in range(k):
        c = _cross(hull[i], hull[(i + 1) % k], p)
        if c == 0:
            return None
        if c < 0:
            if visible >= 0:
                return None
            visible = i
    assert visible >= 0
    new_hull = hull[: visible + 1] + [p] + hull[visible + 1:]
    return new_hull, (hull[visible], p, hull[(visible + 1) % k])


def _same_cycle(a, b):
    return len(a) == len(b) and any(a[i:] + a[:i] == b for i in range(len(a)))


def _mask_extension(tables, hull, p):
    """The walk's extension of a hull (candidate indices, counterclockwise,
    ending at its lex-greatest vertex) by a lex-greater candidate p, read
    off the tables as ``_walk`` reads them: (branch, new hull, cap, cap
    hollow), branch being "one" or "two", or None when p would swallow a
    vertex."""
    points, left, hollow = tables
    k = len(hull)
    h0, h1, r, s, t = hull[0], hull[1 % k], hull[-3 % k], hull[-2 % k], hull[-1]
    bit = 1 << p
    one = bit & left[s][t] & left[h0][t] & left[h0][h1]
    two = bit & left[t][s] & left[t][h0] & left[r][s]
    # a one-point hull has every bit in both, and the walk takes "one"
    assert not (one and two) or k == 1, (hull, p)
    if one:
        return "one", hull + [p], (t, p, h0), bool(bit & hollow[t][h0])
    if two:
        return "two", [t] + hull[:-1] + [p], (s, p, t), bool(bit & hollow[s][t])
    return None


@pytest.mark.parametrize("box", [(3, 3), (4, 4)])
def test_extend_convex_matches_the_all_edges_reference(box):
    # every hull of the box walk, tried with every lex-greater point
    tables = h2._tables(box)
    points = tables[0]
    hulls = 0
    outcomes = set()  # None, or the branch the masks take

    def visit(hull):
        nonlocal hulls
        hulls += 1
        assert hull[-1] == max(hull)
        coords = [points[v] for v in hull]
        for p in range(hull[-1] + 1, len(points)):
            got = _mask_extension(tables, hull, p)
            want = _extend_convex_all_edges(coords, points[p])
            assert (got is None) == (want is None), (coords, points[p])
            if got is None:
                outcomes.add(None)
                continue
            branch, new_hull, cap, cap_hollow = got
            outcomes.add(branch)
            assert tuple(points[v] for v in cap) == want[1], (coords, points[p])
            assert _same_cycle([points[v] for v in new_hull], want[0]), (coords, points[p])
            assert cap_hollow == (not contains_integer_point(Poly(list(want[1])))), (coords, points[p])
            if cap_hollow:
                visit(new_hull)

    for root in range(len(points)):
        visit([root])
    assert hulls == h2.enumerate_and_verify(box).hulls_examined
    assert outcomes == {None, "one", "two"}


@pytest.mark.parametrize("box", [(3, 3), (4, 5), (5, 7)])
def test_tables_match_the_polygon_primitives(box):
    points, left, hollow = h2._tables(box)
    bx, by = box
    ends = points + [(x, y) for x in range(0, bx + 1, 3) for y in range(0, by + 1, 3)]
    assert len(ends) == len(left)
    n = len(points)
    for i, a in enumerate(ends[:n]):
        assert left[i][i] == (1 << n) - 1
    for i, a in enumerate(ends):
        for j, b in enumerate(ends):
            if i != j:
                want = sum(1 << p for p, c in enumerate(points) if _cross(a, b, c) > 0)
                assert left[i][j] == want, (a, b)
    seen = {"hollow": 0, "not hollow": 0, "segment hollow": 0, "segment not hollow": 0}
    for i, a in enumerate(points):
        for p in range(i + 1, n):
            want = not contains_integer_point(Poly([a, points[p]]))
            assert bool(hollow[i][i] >> p & 1) == want, (a, points[p])
            seen["segment hollow" if want else "segment not hollow"] += 1
        for j, b in enumerate(points):
            for p, c in enumerate(points):
                if _cross(a, c, b) > 0:  # (a, c, b) counterclockwise
                    want = not contains_integer_point(Poly([a, c, b]))
                    assert bool(hollow[i][j] >> p & 1) == want, (a, c, b)
                    seen["hollow" if want else "not hollow"] += 1
    # the integer points of the (3, 3) box are its corners, which no
    # triangle or segment of candidates reaches
    assert min(seen.values()) >= (0 if box == (3, 3) else 10), seen
    assert seen["hollow"] >= 500 and seen["segment hollow"] >= 50, seen


def _fresh_report(box, bound):
    code = "from surfcolor import hollow2d; print(hollow2d.enumerate_and_verify(%r, bound=%d).format(), end='')"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(h2.__file__))))
    return subprocess.run(
        [sys.executable, "-c", code % (box, bound)], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_each_call_builds_its_own_tables():
    # one process walks boxes of different sizes and bounds in turn
    calls = [((4, 4), 42), ((4, 5), 3), ((4, 4), 42)]
    fresh = {call: _fresh_report(*call) for call in set(calls)}
    for box, bound in calls:
        assert h2.enumerate_and_verify(box, bound=bound).format() == fresh[box, bound]


def test_two_workers_match_one_process(monkeypatch):
    # THRESHOLD is read by the caller, so the workers see the patched value
    monkeypatch.setattr(h2, "THRESHOLD", Fraction(4, 3))
    one = h2.enumerate_and_verify((5, 7), bound=3, jobs=1)
    two = h2.enumerate_and_verify((5, 7), bound=3, jobs=2)
    assert (one.hulls_examined, one.maximal_hulls, one.failures) == (42908, 28129, two.failures)
    assert (two.hulls_examined, two.maximal_hulls, len(two.failures)) == (42908, 28129, 1687)


def test_non_integer_coordinates_are_refused():
    # int() used to truncate these to a triangle around no integer point
    with pytest.raises(ValueError):
        is_hollow(Poly([(2.9, 2.9), (3.9, 2.9), (2.9, 3.9)]))
    for bad in (1.0, True, Fraction(3), "3", None):
        with pytest.raises(ValueError):
            Poly([(0, 0), (bad, 1)])


@pytest.mark.parametrize("bound", [0, -1])
def test_a_bound_below_one_is_refused(bound):
    # the walk settles a hull narrow along (1, 0) without asking the
    # direction stream, which has no (1, 0) below bound 1
    with pytest.raises(ValueError):
        h2.enumerate_and_verify((3, 3), bound=bound)


@pytest.mark.parametrize(
    "box, threshold, bound, unresolved, searched",
    [((6, 2), 2, 1, 0, True), ((4, 5), 1, 3, 2246, True), ((4, 5), Fraction(5, 3), 1, 0, False)],
    ids=["6x2-threshold-2", "4x5-threshold-1", "4x5-threshold-5/3"],
)
def test_width_gate_matches_independent_dfs(monkeypatch, box, threshold, bound, unresolved, searched):
    # a maximal hull whose x spans fewer than limit thirds is settled
    # without the narrow search; only the others reach _narrow, each
    # first with the list of directions drawn so far
    monkeypatch.setattr(h2, "THRESHOLD", Fraction(threshold))
    limit = 3 * Fraction(threshold)
    examined, maximal, failures = _independent_dfs(box, bound)
    spreads = []
    real_narrow = h2._narrow

    def recording_narrow(vertices, lim, directions):
        if isinstance(directions, list):
            spreads.append(max(x for x, _ in vertices) - min(x for x, _ in vertices))
        return real_narrow(vertices, lim, directions)

    monkeypatch.setattr(h2, "_narrow", recording_narrow)
    rep = h2.enumerate_and_verify(box, bound=bound)
    assert (rep.hulls_examined, rep.maximal_hulls, rep.failures) == (examined, maximal, failures)
    assert len(failures) == unresolved
    assert all(s >= limit for s in spreads)
    if searched:
        # both paths ran, and the search saw a spread of exactly limit
        assert 0 < len(spreads) < maximal
        assert limit in spreads
    else:
        assert spreads == []


def test_box_6_13_bound_1_report_is_pinned():
    # the paper's threshold with failures: the fallback of wide hulls
    # finds 705 hulls that no direction of max-norm 1 narrows
    rep = h2.enumerate_and_verify((6, 13), bound=1)
    assert (rep.hulls_examined, rep.maximal_hulls, len(rep.failures)) == (661470, 431143, 705)
    digest = hashlib.sha256(rep.format().encode()).hexdigest()
    assert digest == "b174d2bf1846d5f4c7b146221de700ed76391f44544899af4d818915d2e0b579"


def test_box_6_9_report_is_pinned():
    # the box of the benchmark's hollow2d workload
    rep = h2.enumerate_and_verify((6, 9))
    assert (rep.hulls_examined, rep.maximal_hulls, len(rep.failures)) == (161908, 102021, 0)
    digest = hashlib.sha256(rep.format().encode()).hexdigest()
    assert digest == "cbce61c416a43a237da38857f0312b9ea503e90eb4bd1854ce6866525d0c58ce"


@pytest.mark.parametrize("box", [(-3, 9), (6, -1), (-1, -1)])
def test_a_negative_box_corner_is_refused(box):
    # the grid of such a box is empty, which used to read as "verified"
    with pytest.raises(ValueError):
        h2.enumerate_and_verify(box)


@pytest.mark.parametrize("jobs", [0, -1])
def test_a_job_count_below_one_is_refused(jobs):
    with pytest.raises(ValueError):
        h2.enumerate_and_verify((3, 3), jobs=jobs)


@pytest.mark.parametrize(
    "args",
    [((True, 3), 42, 1), ((3, False), 42, 1), ((3.0, 3), 42, 1), ((3, 3), 2.5, 1), ((3, 3), True, 1),
     ((3, 3), 42, 1.0), ((3, 3), 42, True)],
)
def test_non_int_arguments_are_refused(args):
    # (True, 3) used to walk the (1, 3) box, and a float failed in range()
    with pytest.raises(ValueError):
        h2.enumerate_and_verify(*args)


def test_narrow_matches_the_list_definition():
    # the running min/max against max - min < limit over the whole list
    rng = random.Random(191)

    def by_list(vertices, limit, directions):
        for z1, z2 in directions:
            vals = [z1 * x + z2 * y for x, y in vertices]
            if max(vals) - min(vals) < limit:
                return (z1, z2)
        return None

    stream = list(h2.coprime_directions(6))
    found = lone = 0
    for i in range(3000):
        k = 1 if i % 5 == 0 else rng.randint(2, 8)
        vertices = [(rng.randint(-9, 30), rng.randint(-9, 30)) for _ in range(k)]
        limit = rng.randint(0, 12)
        directions = rng.sample(stream, rng.randint(0, len(stream)))
        want = by_list(vertices, limit, directions)
        assert h2._narrow(vertices, limit, directions) == want, (vertices, limit, directions)
        assert h2._narrow(vertices, limit, iter(directions)) == want
        found += want is not None
        lone += k == 1 and want is not None
    assert 500 < found < 2500 and lone > 100, (found, lone)


@pytest.mark.parametrize(
    "box, bound, counts, digest",
    [
        ((6, 9), 42, (161908, 102021, 0), None),
        ((6, 13), 1, (661470, 431143, 705), "b174d2bf1846d5f4c7b146221de700ed76391f44544899af4d818915d2e0b579"),
    ],
)
def test_wide_hull_search_never_tries_1_0(monkeypatch, box, bound, counts, digest):
    # the x-spread gate has settled (1, 0) for every hull the search sees
    tried = []
    real_narrow = h2._narrow

    def recording_narrow(vertices, limit, directions):
        def drawn():
            for z in directions:
                tried.append(z)
                yield z

        return real_narrow(vertices, limit, drawn())

    monkeypatch.setattr(h2, "_narrow", recording_narrow)
    rep = h2.enumerate_and_verify(box, bound=bound)
    assert (rep.hulls_examined, rep.maximal_hulls, len(rep.failures)) == counts
    if digest:
        assert hashlib.sha256(rep.format().encode()).hexdigest() == digest
    assert (1, 0) not in tried
    assert tried and set(tried) <= set(h2.coprime_directions(bound))


def _unfolded_hollow(points):
    """The cap rows before their closing edge is folded in: for a != b
    the p right of a -> b whose triangle (a, p, b) holds no integer
    point, plus every p left of or on a -> b; for
    a = b the p > a whose segment a-p has no integer point, plus every
    p <= a.  Read off the polygon primitives, one point at a time."""
    n = len(points)
    hollow = [[0] * n for _ in points]
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            row = 0
            for p, c in enumerate(points):
                if i == j:
                    keep = c <= a or is_hollow(Poly([a, c]))
                else:
                    keep = _cross(a, c, b) <= 0 or is_hollow(Poly([a, c, b]))
                row |= keep << p
            hollow[i][j] = row
    return hollow


def _ends_by_index(tables, bound):
    """(examined, maximal, failures) of a walk that reads each hull's
    five ends by modular index, ANDs both closing-edge rows itself and
    searches every maximal hull from (1, 0) on."""
    points, left, hollow = tables
    examined = maximal = 0
    failures = []

    def visit(hull, cands):
        nonlocal examined, maximal
        examined += 1
        k = len(hull)
        h0, h1, r, s, t = hull[0], hull[1 % k], hull[-3 % k], hull[-2 % k], hull[-1]
        one = cands & left[s][t] & left[h0][t] & left[h0][h1] & hollow[t][h0]
        two = cands & left[t][s] & left[t][h0] & left[r][s] & hollow[s][t]
        kept = one | two
        if not kept:
            maximal += 1
            verts = [points[v] for v in hull]
            if narrow_direction(Poly(verts), h2.THRESHOLD, bound) is None:
                failures.append(tuple(sorted(verts)))
        while kept:
            p = (kept & -kept).bit_length() - 1
            kept &= kept - 1
            visit(hull + [p] if one >> p & 1 else [t] + hull[:-1] + [p], kept)

    for root in range(len(points)):
        visit([root], -2 << root)
    return examined, maximal, sorted(failures)


@pytest.mark.parametrize("box", [(3, 3), (4, 5), (5, 7)])
def test_folded_rows_and_handed_down_ends(box):
    tables = h2._tables(box)
    points, left, hollow = tables
    n = len(points)
    unfolded = _unfolded_hollow(points)
    for i in range(n):
        for j in range(n):
            row = hollow[i][j]
            if i != j:
                # every bit of a cap row is strictly left of its closing edge
                assert row & ~left[j][i] == 0, (points[i], points[j])
            assert row == unfolded[i][j] & left[j][i], (points[i], points[j])
    for bound in (1, 42):
        rep = h2.enumerate_and_verify(box, bound=bound)
        assert _ends_by_index(tables, bound) == (rep.hulls_examined, rep.maximal_hulls, rep.failures)


def _skipped_rows_walk(tables):
    """(hulls, maximal hulls, outside) of a walk that reads each hull's
    ends by modular index and ANDs all six rows, checking at every hull
    that the neighbour row ``_walk`` skips removes no point from its cap:
    h0 -> h1 for a hull that follows its parent's t, r -> s for one that
    restarts at it, both for a segment.  Below a parent of three or more
    vertices every inherited candidate is strictly left of the skipped
    row's edge; outside counts the children of segments for which some
    are not."""
    points, left, hollow = tables
    hulls, maximal, outside = 0, [], 0

    def visit(hull, cands, followed):
        nonlocal hulls, outside
        hulls += 1
        k = len(hull)
        h0, h1, r, s, t = hull[0], hull[1 % k], hull[-3 % k], hull[-2 % k], hull[-1]
        one = cands & left[s][t] & hollow[t][h0]
        two = cands & left[t][h0] & hollow[s][t]
        if k == 2 or followed:
            assert one & ~left[h0][h1] == 0, hull
        if k == 2 or followed is False:
            assert two & ~left[r][s] == 0, hull
        if k > 2:
            row = left[h0][h1] if followed else left[r][s]
            if cands & ~row:
                assert k == 3, hull
                outside += 1
        one &= left[h0][h1]
        two &= left[r][s]
        kept = one | two
        if not kept:
            maximal.append(hull)
        while kept:
            p = (kept & -kept).bit_length() - 1
            kept &= kept - 1
            if one >> p & 1:
                visit(hull + [p], kept, True)
            else:
                visit([t] + hull[:-1] + [p], kept, False)

    for root in range(len(points)):
        visit([root], -2 << root, None)
    return hulls, maximal, outside


@pytest.mark.parametrize("box", [(3, 3), (4, 5), (5, 7)])
def test_skipped_neighbour_rows_remove_nothing(box):
    tables = h2._tables(box)
    points = tables[0]
    hulls, maximal, outside = _skipped_rows_walk(tables)
    # the segment case is real: there the other cap's points see the edge
    assert outside > 0
    for bound in (1, 42):
        failures = []
        for hull in maximal:
            verts = [points[v] for v in hull]
            if narrow_direction(Poly(verts), h2.THRESHOLD, bound) is None:
                failures.append(tuple(sorted(verts)))
        rep = h2.enumerate_and_verify(box, bound=bound)
        assert (hulls, len(maximal), sorted(failures)) == (rep.hulls_examined, rep.maximal_hulls, rep.failures)


def test_only_the_roots_left_of_x_1_are_walked(monkeypatch):
    # every other hull is an x-translate of one walked from these roots,
    # and the walk counts it without visiting it
    roots = []
    real_walk = h2._walk

    def recording_walk(args):
        roots.extend(args[-1])
        return real_walk(args)

    monkeypatch.setattr(h2, "_walk", recording_walk)
    rep = h2.enumerate_and_verify((6, 9))
    assert (rep.hulls_examined, rep.maximal_hulls, len(rep.failures)) == (161908, 102021, 0)
    points = h2._candidate_points((6, 9))
    assert len(points) == 58
    assert list(roots) == list(range(26))
    assert [p for p in points if p[0] < 3] == [points[r] for r in roots]


@pytest.mark.parametrize(
    "box, threshold, counts",
    [((7, 3), 1, (17263, 10779, 4624)), ((8, 2), Fraction(2, 3), (9839, 6233, 4659))],
    ids=["7x3-threshold-1", "8x2-threshold-2/3"],
)
def test_translated_failures_match_independent_dfs(monkeypatch, box, threshold, counts):
    # boxes 7 and 8 thirds wide, where a wide hull can have a translate;
    # below the paper's threshold its failure tuples are shifted copies
    # of the walked hull's, compared one by one
    monkeypatch.setattr(h2, "THRESHOLD", Fraction(threshold))
    examined, maximal, failures = _independent_dfs(box, 3)
    assert (examined, maximal, len(failures)) == counts
    assert sum(f[0][0] >= 3 for f in failures) > 100
    for jobs in (1, 3):
        rep = h2.enumerate_and_verify(box, bound=3, jobs=jobs)
        assert (rep.hulls_examined, rep.maximal_hulls, rep.failures) == (examined, maximal, failures)


def _first_extensions(box):
    """{hull: its lex-least extension, or None}, for every hull of the
    plain DFS of ``_independent_dfs``; a hull is its sorted vertices."""
    grid = [(x, y) for x in range(box[0] + 1) for y in range(box[1] + 1)]
    first = {}

    def visit(sub):
        children = [p for p in grid if p > sub[-1] and _strictly_convex_hollow(sub + (p,))]
        first[sub] = children[0] if children else None
        for p in children:
            visit(sub + (p,))

    for p in grid:
        if _strictly_convex_hollow((p,)):
            visit((p,))
    return first


@pytest.mark.parametrize("box", [(7, 2), (8, 1)])
def test_hulls_are_the_x_translates_of_those_rooted_left_of_x_1(box):
    # bucket i, the hulls whose root x is in [3i, 3i + 3), is bucket 0
    # cut to a last x of at most bx - 3i and shifted by (3i, 0); a
    # translate is maximal iff the bucket-0 hull's first extension, of
    # the least x, no longer fits: i > (bx - its x) // 3
    bx = box[0]
    first = _first_extensions(box)
    buckets = {}
    for hull, p in first.items():
        buckets.setdefault(hull[0][0] // 3, {})[hull] = p is None
    assert sorted(buckets) == list(range(bx // 3 + 1))
    for i, bucket in buckets.items():
        want = {}
        for hull, p in first.items():
            if hull[0][0] < 3 and hull[-1][0] <= bx - 3 * i:
                shifted = tuple((x + 3 * i, y) for x, y in hull)
                want[shifted] = p is None or i > (bx - p[0]) // 3
        assert bucket == want, i
    # a maximal translate of a hull that is not maximal is no rare case
    assert sum(
        p is not None and (bx - p[0]) // 3 < (bx - hull[-1][0]) // 3 for hull, p in first.items() if hull[0][0] < 3
    ) >= 10
    rep = h2.enumerate_and_verify(box)
    assert (rep.hulls_examined, rep.maximal_hulls) == (len(first), sum(p is None for p in first.values()))
