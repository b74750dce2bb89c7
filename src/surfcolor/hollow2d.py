"""Exhaustive verification that third-integral hollow polygons in a box
have lattice width below two.

Coordinates are stored as integer multiples of 1/3 ("thirds"), so every
computation is exact integer arithmetic; widths are returned as exact
fractions.  The enumeration walks all subsets of the grid in strictly
convex position in ascending lexicographic order: each such subset is
the vertex set of exactly one third-integral polytope in the box, and
growing a set can only grow its hull, so branches whose hull contains an
integer point are pruned for good.

Point sets are bitmasks over the non-integer grid points, and a hull's
children are the bits of two ANDs of table rows (see ``_walk``).  A hull
passes its children only the points that survived its own tests: a
point that is no vertex of conv(S + p) is no vertex of conv(S' + p) for
S a subset of S', and an integer point in conv(S + p) is in conv(S' + p),
so a rejected point stays rejected in the whole subtree.  Every hull
that no grid point extends is settled along (1, 0) by its x spread, last
vertex less root, or else gets the search of ``narrow_direction`` from
the next direction on, by increasing max-norm up to the given bound.
"""

from __future__ import annotations

import multiprocessing
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from math import ceil, gcd
from operator import or_

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


def width_along(poly, z):
    """Exact spread of the support function along an integer direction."""
    z1, z2 = z
    if not (type(z1) is int and type(z2) is int):
        raise ValueError("direction must have integer coordinates")
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
    return _narrow(poly.vertices_thirds, ceil(3 * threshold), coprime_directions(bound))


def _narrow(vertices, limit, directions):
    """First of the directions along which the vertices span fewer than
    limit = ceil(3 * threshold) thirds, below the threshold; or None."""
    (x0, y0), rest = vertices[0], vertices[1:]
    for z1, z2 in directions:
        lo = hi = z1 * x0 + z2 * y0
        for x, y in rest:
            v = z1 * x + z2 * y
            if v < lo:
                lo = v
            elif v > hi:
                hi = v
        if hi - lo < limit:
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


def _tables(box_thirds):
    """(points, size, left, hollow) of the box: bit i of a point set is
    points[i], the ends are the candidates and then the integer points,
    left[i * size + j] holds the candidates strictly left of ends[i] ->
    ends[j] (all of them for i = j), and for candidates a and b,
    hollow[a * size + b] holds the p strictly left of b -> a for which
    the counterclockwise triangle (a, p, b) has no integer point, or for
    a = b the p for which the segment a-p has none.  The two are the
    cap tests of ``_walk``, each with the closing-edge row it needs."""
    bx, by = box_thirds
    points = _candidate_points(box_thirds)
    ints = [(x, y) for x in range(0, bx + 1, 3) for y in range(0, by + 1, 3)]
    ends = points + ints
    n, size = len(points), len(ends)
    full = (1 << n) - 1
    left, hollow = [full] * (size * size), [0] * (n * size)
    lines = {}  # by primitive direction: the pairs of one line share its rows
    for i, a in enumerate(ends):
        for j, b in enumerate(ends):
            g = gcd(b[0] - a[0], b[1] - a[1])
            if g:  # left[i * size + i] stays full
                lines.setdefault(((b[0] - a[0]) // g, (b[1] - a[1]) // g), []).append(i * size + j)
    for (dx, dy), pairs in lines.items():
        # cross(a, a + d, p) = v(p) - v(a) for v(p) = dx * py - dy * px
        vals = [dx * y - dy * x for x, y in ends]
        order = sorted(range(n), key=vals.__getitem__)
        keys = [vals[p] for p in order]
        above = [full ^ m for m in accumulate((1 << p for p in order), or_, initial=0)]
        for ij in pairs:
            left[ij] = above[bisect_right(keys, vals[ij // size])]
    # for p strictly right of a -> b, q is in (a, p, b) iff q is left of or
    # on b -> a and p right of or on a -> q and left of or on b -> q; and
    # q is on the segment a-p, for p > a, iff q > a and p is on a -> q past q
    below = [(1 << bisect_left(points, q)) - 1 for q in ints]
    to_int = [left[i * size + n:(i + 1) * size] for i in range(n)]  # a -> q
    from_int = [left[n * size + j::size] for j in range(n)]  # q -> b
    for i, a in enumerate(points):
        ax, ay = a
        mask = full
        for q, out, back, low in zip(ints, to_int[i], from_int[i], below):
            if q > a:
                mask &= out | back | low
        hollow[i * size + i] = mask
        for j, b in enumerate(points):
            if j == i:
                continue
            # q is left of or on b -> a iff d x (q - b) >= 0 for d = a - b
            dx, dy = ax - b[0], ay - b[1]
            c = dx * b[1] - dy * b[0]
            mask = left[j * size + i]
            for (qx, qy), out, back in zip(ints, to_int[i], from_int[j]):
                if dx * qy - dy * qx >= c:
                    mask &= out | back
            hollow[i * size + j] = mask
    return points, size, left, hollow


def _walk(args):
    """(examined, maximal, failures) of the DFS from the given roots.

    A hull lists its vertices counterclockwise, h0, h1, ..., r, s, t
    (indices mod its length), t lex-greatest.  The wedge at t holds no
    lex-greater p, so p sees (is strictly right of) an edge at t; the
    edges p sees form a chain, and an edge whose line meets p lies next
    to it.  So p keeps every vertex iff it sees one edge at t and has
    both neighbours of that edge strictly on its left: t -> h0 with
    s -> t and h0 -> h1 (cap (t, p, h0); p follows t), or s -> t with
    t -> h0 and r -> s (cap (s, p, t); the hull restarts at t).  The
    cap rows of ``_tables`` hold the seen edge's test, so each branch
    is three ANDs.  A hull hands its children their five ends: h0, h1,
    s, t, p when p follows t, and t, h0, r, s, p when the hull restarts.
    A root is a one-point hull whose cap is a segment, so its children
    are the lex-greater bits of its i = j row, with ends root, p, p,
    root, p.  The last child inherits no candidates, so it is a maximal
    leaf, and only counted if its x spread, p's x less the root's, is
    below limit.  That spread settles every maximal hull along (1, 0),
    or proves it wide there, so the direction search starts at the next
    direction.
    """
    box_thirds, bound, limit, roots = args
    points, size, left, hollow = _tables(box_thirds)
    xs = [x for x, _ in points]
    stream = coprime_directions(bound)
    next(stream)  # (1, 0)
    directions = []  # listed as the narrow check first draws them
    drawn = (directions.append(z) or z for z in stream)
    examined, maximal, failures = 0, 0, []

    def visit(hull, h0, h1, r, s, t, cands):
        # cands: the lex-greater points that no hull above this one rejected
        nonlocal examined, maximal
        examined += 1
        one = cands & left[s * size + t] & left[h0 * size + h1] & hollow[t * size + h0]
        two = cands & left[t * size + h0] & left[r * size + s] & hollow[s * size + t]
        kept = one | two
        if not kept:
            maximal += 1
            if xs[t] - x0 >= limit:  # else narrow along (1, 0)
                verts = [points[v] for v in hull]
                if _narrow(verts, limit, directions) is None and _narrow(verts, limit, drawn) is None:
                    failures.append(tuple(sorted(verts)))
        while kept:
            p = (kept & -kept).bit_length() - 1
            kept &= kept - 1
            if not kept and xs[p] - x0 < limit:  # the last child: a narrow leaf
                examined += 1
                maximal += 1
            elif one >> p & 1:
                visit(hull + [p], h0, h1, s, t, p, kept)
            else:
                visit([t] + hull[:-1] + [p], t, h0, r, s, p, kept)

    for root in roots:
        x0 = xs[root]  # the least x of every hull in the root's subtree
        examined += 1
        kept = hollow[root * size + root] & -2 << root  # hollow segments up from the root
        maximal += not kept  # a lone point is narrow
        while kept:
            p = (kept & -kept).bit_length() - 1
            kept &= kept - 1
            visit([root, p], root, p, p, root, p, kept)
    return examined, maximal, failures


def enumerate_and_verify(box_thirds=(8, 13), bound=42, jobs=1):
    """Enumerate every third-integral polytope in the box and verify that
    each hollow one is strictly narrower than THRESHOLD along some
    direction of max-norm at most bound.  DFS roots are independent, so
    jobs > 1 deals them out to at most one process per root; the merged
    report is identical either way.  The roots' subtrees shrink, roughly,
    as the root grows, so the deal goes back and forth: worker w takes the
    roots at positions w and 2W - 1 - w of each block of 2W.
    """
    if bound < 1:  # the walk settles hulls along (1, 0) and skips it in the stream
        raise ValueError("the direction bound must be at least 1")
    if min(box_thirds) < 0:  # else the grid is empty and "verified"
        raise ValueError("the box corner must be non-negative")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    t0 = time.monotonic()
    limit = ceil(3 * THRESHOLD)
    roots = range(len(_candidate_points(box_thirds)))
    workers = min(jobs, len(roots))
    if workers > 1:
        # one task per worker, so that each builds the tables once
        block = 2 * workers
        shares = [[*roots[w::block], *roots[block - 1 - w::block]] for w in range(workers)]
        tasks = [(box_thirds, bound, limit, share) for share in shares]
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_walk, tasks)
    else:
        results = [_walk((box_thirds, bound, limit, roots))]
    examined = sum(r[0] for r in results)
    maximal = sum(r[1] for r in results)
    failures = sorted(f for r in results for f in r[2])
    return VerificationReport(
        box_thirds, bound, examined, maximal, failures, time.monotonic() - t0
    )
