"""Exhaustive verification that third-integral hollow polygons in a box
have lattice width below two.

Coordinates are stored as integer multiples of 1/3 ("thirds"), so every
computation is exact integer arithmetic; widths are returned as exact
fractions.  The enumeration walks all subsets of the grid in strictly
convex position in ascending lexicographic order: each such subset is
the vertex set of exactly one third-integral polytope in the box, and
growing a set can only grow its hull, so branches whose hull contains an
integer point are pruned for good.  Each extension adds one
counterclockwise cap triangle to the hull, and only the cap needs a
containment test.  Each hull passes its children only the points that
survived its own tests: a point that is no vertex of conv(S + p) is no
vertex of conv(S' + p) for S a subset of S', and an integer point in
conv(S + p) is in conv(S' + p), so a rejected point stays rejected in
the whole subtree.  Every hull that no grid point extends is then
checked by the same narrow-direction search as ``narrow_direction``,
with directions tried by increasing max-norm up to the given bound.
"""

from __future__ import annotations

import multiprocessing
from fractions import Fraction
from math import ceil, gcd

from .errors import NotUnimodular, ZeroDirection

# the paper's bound: every hollow polygon has lattice width below two
THRESHOLD = Fraction(2)


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
    """Closed containment of any integer lattice point: a point of the
    bounding box with every edge's cross product >= 0.  A point or a
    segment has each edge both ways round, which leaves only the points
    on it."""
    hull = poly.vertices_thirds
    edges = list(zip(hull, hull[1:] + hull[:1]))
    xs = [x for x, _ in hull]
    ys = [y for _, y in hull]
    for ix in range(-(-min(xs) // 3), max(xs) // 3 + 1):
        for iy in range(-(-min(ys) // 3), max(ys) // 3 + 1):
            q = (3 * ix, 3 * iy)
            if all(_cross(a, b, q) >= 0 for a, b in edges):
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


def narrow_direction(poly, threshold=THRESHOLD, bound=42):
    """First searched direction along which the polygon is strictly
    narrower than the threshold, or None if the bound is exhausted."""
    return _narrow(poly.vertices_thirds, ceil(3 * threshold), bound)


def _narrow(vertices, limit, bound):
    """First direction of coprime_directions(bound) along which the
    vertices, in thirds, span fewer than limit thirds, or None.  For an
    integer width, below limit = ceil(3 * threshold) is below the
    threshold."""
    for z1, z2 in coprime_directions(bound):
        vals = [z1 * x + z2 * y for x, y in vertices]
        if max(vals) - min(vals) < limit:
            return (z1, z2)
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


def _candidate_points(box_thirds):
    """The grid points of the box in lexicographic order, less the
    integer points, which can never be vertices of a hollow hull."""
    bx, by = box_thirds
    return [(x, y) for x in range(bx + 1) for y in range(by + 1) if x % 3 or y % 3]


def _extend_convex(hull, p):
    """Insert a point p lex-greater than every hull vertex.

    The hull is counterclockwise and ends at its lex-greatest vertex t;
    so does the new hull, which ends at p.  Returns (new_hull, cap) where
    cap is the closed region added to the hull as a counterclockwise
    triangle (a, p, b) of the visible edge a-b and p, or (a, p, a) for
    the segment of a 1-point hull; or None when some existing vertex
    would stop being a vertex (the extended set is not in strictly convex
    position).  p lex-greater guarantees p lies strictly outside, so it
    always becomes a vertex itself.

    Three cross products decide it.  t is the unique lex-greatest point
    of the hull, so the wedge of the hull at t (between its edges
    (hull[-2], t) and (t, hull[0])) holds no point lex-greater than t,
    and p is strictly right of (sees) at least one of those two edges.
    The edges that p sees form one contiguous chain, the edges between
    the two tangent points from p, and an edge whose line passes through
    p lies on a tangent, next to that chain.  So exactly one edge is
    visible and none is collinear with p iff one edge at t is visible
    and both its neighbours, the other edge at t and its far neighbour,
    have p strictly on their left.  For k = 2 the same formulas hold with
    indices mod k, the two edges being the segment both ways round.
    """
    k = len(hull)
    if k == 1:
        a = hull[0]
        return [a, p], (a, p, a)
    t = hull[-1]
    c_in = _cross(hull[-2], t, p)
    c_out = _cross(t, hull[0], p)
    if c_out < 0 < c_in:
        if _cross(hull[0], hull[1 % k], p) <= 0:
            return None
        return hull + [p], (t, p, hull[0])
    if c_in < 0 < c_out:
        if _cross(hull[-3 % k], hull[-2], p) <= 0:
            return None
        return [t] + hull[:-1] + [p], (hull[-2], p, t)
    # both edges at t visible (t is swallowed), or p on the line of one
    return None


def _explore_root(args):
    """DFS all hollow strictly-convex subsets whose smallest point is
    points[root]; returns (examined, maximal, failures)."""
    box_thirds, bound, root = args
    points = _candidate_points(box_thirds)
    bx, by = box_thirds
    int_pts = [(x, y) for x in range(0, bx + 1, 3) for y in range(0, by + 1, 3)]
    limit = ceil(3 * THRESHOLD)
    npts = len(points)

    examined = 0
    maximal = 0
    failures = []

    def cap_hollow(cap):
        # the cap is counterclockwise, so a point is in it (closed) when
        # it is on the left of or on each of its three edges
        a, p, b = cap
        lo_x, hi_x = min(a[0], p[0], b[0]), max(a[0], p[0], b[0])
        lo_y, hi_y = min(a[1], p[1], b[1]), max(a[1], p[1], b[1])
        for q in int_pts:
            if (
                lo_x <= q[0] <= hi_x
                and lo_y <= q[1] <= hi_y
                and _cross(a, p, q) >= 0
                and _cross(p, b, q) >= 0
                and _cross(b, a, q) >= 0
            ):
                return False
        return True

    def visit(hull, cands):
        # cands: the lex-greater points that no hull above this one rejected
        nonlocal examined, maximal
        examined += 1
        kept, hulls = [], []
        for p in cands:
            ext = _extend_convex(hull, p)
            if ext is not None and cap_hollow(ext[1]):
                kept.append(p)
                hulls.append(ext[0])
        if not kept:
            maximal += 1
            if _narrow(hull, limit, bound) is None:
                failures.append(tuple(sorted(hull)))
        for i, new_hull in enumerate(hulls):
            visit(new_hull, kept[i + 1:])

    if root < npts:
        visit([points[root]], points[root + 1:])
    return examined, maximal, failures


def enumerate_and_verify(box_thirds=(8, 13), bound=42, jobs=1):
    """Enumerate every third-integral polytope in the box and verify that
    each hollow one is strictly narrower than THRESHOLD along some
    direction of max-norm at most bound.  DFS roots are independent, so
    jobs > 1 fans them out over at most one process per root; the merged
    report is identical either way.
    """
    import time

    t0 = time.monotonic()
    tasks = [(box_thirds, bound, r) for r in range(len(_candidate_points(box_thirds)))]
    workers = min(jobs, len(tasks))
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_explore_root, tasks)
    else:
        results = [_explore_root(t) for t in tasks]
    examined = sum(r[0] for r in results)
    maximal = sum(r[1] for r in results)
    failures = sorted(f for r in results for f in r[2])
    return VerificationReport(
        box_thirds, bound, examined, maximal, failures, time.monotonic() - t0
    )
