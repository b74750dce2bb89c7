"""Exact polygon primitives on the (1/3)-grid, kept as reference oracles
for the hollow2d box walk: the strictly convex hull of a point set, the
polygon it spans, closed containment of an integer point, and the
narrow-direction search of one polygon.  Coordinates are integers in
thirds.  Tests compare ``hollow2d.enumerate_and_verify`` and its tables
against them; the walk itself reads none of them."""

from math import ceil

from surfcolor import hollow2d


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
    Every coordinate must be an int; a bool is not one.
    """

    __slots__ = ("vertices_thirds",)

    def __init__(self, vertices_thirds):
        pts = [(x, y) for x, y in vertices_thirds]
        if not all(type(x) is int and type(y) is int for x, y in pts):
            raise ValueError("vertex coordinates must be integers (in thirds)")
        hull = convex_hull(pts)
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


def narrow_direction(poly, threshold=hollow2d.THRESHOLD, bound=42):
    """First searched direction along which the polygon is strictly
    narrower than the threshold, or None if the bound is exhausted: the
    walk's own ``_narrow`` over the whole ``coprime_directions`` stream."""
    return hollow2d._narrow(
        poly.vertices_thirds, ceil(3 * threshold), hollow2d.coprime_directions(bound)
    )
