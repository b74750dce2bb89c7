"""Exhaustive verification that third-integral hollow polygons in a box
have lattice width below two.

Coordinates are stored as integer multiples of 1/3 ("thirds"), so every
computation is exact integer arithmetic; widths are returned as exact
fractions.  The enumeration walks all subsets of the grid in strictly
convex position in ascending lexicographic order: each such subset is
the vertex set of exactly one third-integral polytope in the box, and
growing a set can only grow its hull, so branches whose hull contains an
integer point are pruned for good.
"""

from __future__ import annotations

import multiprocessing
from fractions import Fraction
from math import gcd

from .errors import NotUnimodular, ZeroDirection


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points):
    """Strictly convex hull, counterclockwise (collinear points dropped)."""
    pts = sorted(set(points))
    if len(pts) <= 1:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _hull_contains(hull, q):
    """Closed containment of a point in a strictly convex CCW hull,
    including the degenerate point and segment cases."""
    k = len(hull)
    if k == 0:
        return False
    if k == 1:
        return hull[0] == q
    if k == 2:
        a, b = hull
        if _cross(a, b, q) != 0:
            return False
        return (
            min(a[0], b[0]) <= q[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= q[1] <= max(a[1], b[1])
        )
    for i in range(k):
        if _cross(hull[i], hull[(i + 1) % k], q) < 0:
            return False
    return True


class ThirdIntegralPolygon:
    """A polytope with vertices on the (1/3)-grid, stored in thirds.

    The stored vertex sequence is the strictly convex hull of the input,
    counterclockwise, starting at the lexicographically smallest vertex.
    """

    __slots__ = ("vertices_thirds",)

    def __init__(self, vertices_thirds):
        hull = convex_hull([(int(x), int(y)) for x, y in vertices_thirds])
        if not hull:
            raise ValueError("a polygon needs at least one vertex")
        start = hull.index(min(hull))
        self.vertices_thirds = tuple(hull[start:] + hull[:start])

    @classmethod
    def from_fractions(cls, vertices):
        """Build from exact rational points; coordinates must be thirds."""
        thirds = []
        for x, y in vertices:
            x3, y3 = 3 * Fraction(x), 3 * Fraction(y)
            if x3.denominator != 1 or y3.denominator != 1:
                raise ValueError("coordinates must be integer multiples of 1/3")
            thirds.append((int(x3), int(y3)))
        return cls(thirds)

    def vertices(self):
        return [(Fraction(x, 3), Fraction(y, 3)) for x, y in self.vertices_thirds]

    def __eq__(self, other):
        return (
            isinstance(other, ThirdIntegralPolygon)
            and self.vertices_thirds == other.vertices_thirds
        )

    def __hash__(self):
        return hash(self.vertices_thirds)

    def __repr__(self):
        return "ThirdIntegralPolygon(%r)" % (self.vertices_thirds,)


def width_along(poly, z):
    """Exact spread of the support function along an integer direction."""
    z1, z2 = z
    if z1 == 0 and z2 == 0:
        raise ZeroDirection("direction must be nonzero")
    vals = [z1 * x + z2 * y for x, y in poly.vertices_thirds]
    return Fraction(max(vals) - min(vals), 3)


def contains_integer_point(poly):
    """Closed containment of any integer lattice point."""
    hull = poly.vertices_thirds
    xs = [x for x, _ in hull]
    ys = [y for _, y in hull]
    x_lo, x_hi = -(-min(xs) // 3), max(xs) // 3
    y_lo, y_hi = -(-min(ys) // 3), max(ys) // 3
    for ix in range(x_lo, x_hi + 1):
        for iy in range(y_lo, y_hi + 1):
            if _hull_contains(hull, (3 * ix, 3 * iy)):
                return True
    return False


def is_hollow(poly):
    return not contains_integer_point(poly)


def unimodular_image(poly, a):
    """Apply the transpose of a unimodular integer matrix to the polygon;
    hollowness and lattice width are invariant under this."""
    (a00, a01), (a10, a11) = a
    det = a00 * a11 - a01 * a10
    if det not in (1, -1):
        raise NotUnimodular("matrix determinant is %d, need +-1" % det)
    return ThirdIntegralPolygon(
        [(a00 * x + a10 * y, a01 * x + a11 * y) for x, y in poly.vertices_thirds]
    )


def coprime_directions(bound):
    """Primitive directions up to sign with max-norm <= bound, by
    increasing max-norm; within a level the first coordinate descends
    from the level value, so (1, 0) comes first overall."""
    for n in range(1, bound + 1):
        for z1 in range(n, -1, -1):
            if z1 == n:
                z2s = [0]
                for k in range(1, n + 1):
                    z2s.extend((k, -k))
            elif z1 > 0:
                z2s = (n, -n)
            else:
                z2s = (n,)
            for z2 in z2s:
                if gcd(z1, abs(z2)) == 1:
                    yield (z1, z2)


def narrow_direction(poly, threshold=Fraction(2), bound=42):
    """First searched direction along which the polygon is strictly
    narrower than the threshold, or None if the bound is exhausted."""
    for z in coprime_directions(bound):
        if width_along(poly, z) < threshold:
            return z
    return None


class VerificationReport:
    """Outcome of the box enumeration."""

    __slots__ = (
        "box_thirds",
        "direction_bound",
        "hulls_examined",
        "maximal_hulls",
        "failures",
        "elapsed",
    )

    def __init__(self, box_thirds, direction_bound, hulls_examined, maximal_hulls, failures, elapsed):
        self.box_thirds = box_thirds
        self.direction_bound = direction_bound
        self.hulls_examined = hulls_examined
        self.maximal_hulls = maximal_hulls
        self.failures = failures
        self.elapsed = elapsed

    @property
    def verified(self):
        return not self.failures

    def format(self):
        bx, by = self.box_thirds
        lines = [
            "hollow2d verification report",
            "# every 1/3-integral polytope in the box is the hull of exactly one",
            "# grid subset in strictly convex position; those are enumerated by",
            "# ascending-lex DFS, pruning once the hull swallows an integer point",
            "# (hulls only grow, so non-hollowness is permanent along a branch).",
            "# a narrow direction found for an extension-maximal hull covers all",
            "# its sub-hulls, whose widths are no larger.",
            "box: [0, %d/3] x [0, %d/3]" % (bx, by),
            "grid: %d x %d" % (bx + 1, by + 1),
            "direction bound: %d" % self.direction_bound,
            "hollow hulls examined: %d" % self.hulls_examined,
            "extension-maximal hollow hulls: %d" % self.maximal_hulls,
            "unresolved hulls: %d" % len(self.failures),
        ]
        for verts in self.failures:
            lines.append("UNRESOLVED: " + " ".join("(%d/3,%d/3)" % v for v in verts))
        lines.append("verdict: %s" % ("verified" if self.verified else "FAILED"))
        return "\n".join(lines) + "\n"


def _grid_points(box_thirds):
    bx, by = box_thirds
    return [(x, y) for x in range(bx + 1) for y in range(by + 1)]


def _integer_points(box_thirds):
    bx, by = box_thirds
    return [(x, y) for x in range(0, bx + 1, 3) for y in range(0, by + 1, 3)]


def _extend_convex(hull, p):
    """Insert a point lex-greater than every hull vertex.

    Returns (new_hull, cap) where cap is the closed region added to the
    hull (a triangle, or the segment for a 1-point hull), or None when
    some existing vertex would stop being a vertex (the extended set is
    not in strictly convex position).  p lex-greater guarantees p lies
    strictly outside, so it always becomes a vertex itself.
    """
    k = len(hull)
    if k == 1:
        a = hull[0]
        return [a, p], (a, p)
    if k == 2:
        a, b = hull
        c = _cross(a, b, p)
        if c == 0:
            return None
        new_hull = [a, b, p] if c > 0 else [a, p, b]
        return new_hull, (a, b, p)
    visible = -1
    for i in range(k):
        c = _cross(hull[i], hull[(i + 1) % k], p)
        if c == 0:
            return None
        if c < 0:
            if visible >= 0:
                return None
            visible = i
    # p lex-greater than all vertices is strictly outside, so exactly one
    # edge is visible when no vertex gets swallowed
    assert visible >= 0
    new_hull = hull[: visible + 1] + [p] + hull[visible + 1:]
    return new_hull, (hull[visible], hull[(visible + 1) % k], p)


def _explore_root(args):
    """DFS all hollow strictly-convex subsets whose smallest point is
    points[root]; returns (examined, maximal, failures)."""
    box_thirds, bound, threshold, root = args
    # integer grid points can never be vertices of a hollow hull
    points = [p for p in _grid_points(box_thirds) if p[0] % 3 != 0 or p[1] % 3 != 0]
    int_pts = _integer_points(box_thirds)
    npts = len(points)

    examined = 0
    maximal = 0
    failures = []

    def cap_hollow(cap):
        if len(cap) == 2:
            a, b = cap
            lo_x, hi_x = min(a[0], b[0]), max(a[0], b[0])
            lo_y, hi_y = min(a[1], b[1]), max(a[1], b[1])
            for q in int_pts:
                if lo_x <= q[0] <= hi_x and lo_y <= q[1] <= hi_y:
                    if _cross(a, b, q) == 0:
                        return False
            return True
        a, b, p = cap
        sab = _cross(a, b, p)
        lo_x = min(a[0], b[0], p[0])
        hi_x = max(a[0], b[0], p[0])
        lo_y = min(a[1], b[1], p[1])
        hi_y = max(a[1], b[1], p[1])
        for q in int_pts:
            if not (lo_x <= q[0] <= hi_x and lo_y <= q[1] <= hi_y):
                continue
            s1 = _cross(a, b, q)
            s2 = _cross(b, p, q)
            s3 = _cross(p, a, q)
            if sab > 0:
                if s1 >= 0 and s2 >= 0 and s3 >= 0:
                    return False
            else:
                if s1 <= 0 and s2 <= 0 and s3 <= 0:
                    return False
        return True

    def narrow_direction_hull(hull):
        for z in coprime_directions(bound):
            vals = [z[0] * x + z[1] * y for x, y in hull]
            if Fraction(max(vals) - min(vals), 3) < threshold:
                return z
        return None

    def visit(hull, last):
        nonlocal examined, maximal
        examined += 1
        extended = False
        for i in range(last + 1, npts):
            ext = _extend_convex(hull, points[i])
            if ext is None:
                continue
            new_hull, cap = ext
            if not cap_hollow(cap):
                continue
            extended = True
            visit(new_hull, i)
        if not extended:
            maximal += 1
            if narrow_direction_hull(hull) is None:
                failures.append(tuple(sorted(hull)))

    if root < npts:
        visit([points[root]], root)
    return examined, maximal, failures


def enumerate_and_verify(box_thirds=(8, 13), bound=42, threshold=Fraction(2), jobs=1,
                         recheck_doubled=False):
    """Enumerate every third-integral polytope in the box and verify that
    each hollow one is strictly narrower than the threshold along some
    searched direction.  DFS roots are independent, so jobs > 1 fans them
    out over processes; the merged report is identical either way.

    With recheck_doubled, any hull left unresolved at the direction bound
    is re-searched with the bound doubled before being reported.
    """
    import time

    t0 = time.monotonic()
    points = [p for p in _grid_points(box_thirds) if p[0] % 3 != 0 or p[1] % 3 != 0]
    tasks = [(box_thirds, bound, threshold, r) for r in range(len(points))]
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(_explore_root, tasks)
    else:
        results = [_explore_root(t) for t in tasks]
    examined = sum(r[0] for r in results)
    maximal = sum(r[1] for r in results)
    failures = sorted(f for r in results for f in r[2])
    if recheck_doubled and failures:
        failures = [
            verts
            for verts in failures
            if narrow_direction(ThirdIntegralPolygon(verts), threshold, 2 * bound) is None
        ]
    return VerificationReport(
        box_thirds, bound, examined, maximal, failures, time.monotonic() - t0
    )
