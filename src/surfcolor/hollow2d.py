"""Exhaustive verification that third-integral hollow polygons in a box
have lattice width below two.

Coordinates are stored as integer multiples of 1/3 ("thirds"), so every
computation is exact integer arithmetic.  The enumeration walks all
subsets of the grid in strictly convex position in ascending
lexicographic order: each such subset is the vertex set of exactly one
third-integral polytope in the box, and growing a set can only grow its
hull, so branches whose hull contains an integer point are pruned for
good.

Point sets are bitmasks over the non-integer grid points, and a hull's
children are the bits of its two caps, five table rows ANDed into the
points it inherits (see ``_walk``); the rows are kept in one list per
end point.  A hull passes its children only the points that survived
its own tests: a point that is no vertex of conv(S + p) is no vertex of
conv(S' + p) for S a subset of S', and an integer point in conv(S + p)
is in conv(S' + p), so a rejected point stays rejected in the whole
subtree.  Every hull that no grid point extends is settled along (1, 0)
by its x spread, last vertex less root, or else gets the search of
``_narrow`` from the next direction on, by increasing max-norm
up to the given bound.

Only the roots of x below 3 thirds are walked.  Every hull in the box is
R + (3i, 0) for one such walked hull R and one i >= 0, and as the points
are ordered x first, the lex-greater points that the translate keeps are
those R keeps of x at most bx - 3i, shifted.  So the walk counts R's
translates, and which of them are maximal, from two x values and never
visits them.  A y-translate has no such form: its kept points, shifted
back, include points below the box, which R's kept points do not cover,
so it would need its own visit.
"""

from __future__ import annotations

import multiprocessing
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from math import ceil, gcd
from operator import or_

# the paper's bound: every hollow polygon has lattice width below two
THRESHOLD = Fraction(2)


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
    """(points, left, hollow) of the box, as lists of rows: bit i of a
    point set is points[i], the ends are the candidates and then the
    integer points, left[i][j] holds the candidates strictly left of
    ends[i] -> ends[j] (all of them for i = j), and for candidates a and
    b, hollow[a][b] holds the p strictly left of b -> a for which the
    counterclockwise triangle (a, p, b) has no integer point, or for
    a = b the p for which the segment a-p has none.  The two are the cap
    tests of ``_walk``, each with the closing-edge row it needs.

    The left rows are set a line at a time: the lines of one direction
    share one sort of the candidates, and every pair of ends on a line
    gets one of the line's two rows.  The cap rows (a, b) and (b, a)
    share one pass over the integer points, each of which lies on the
    side of one of them (of both when it is on the line a-b).
    """
    bx, by = box_thirds
    points = _candidate_points(box_thirds)
    ints = [(x, y) for x in range(0, bx + 1, 3) for y in range(0, by + 1, 3)]
    ends = points + ints
    n, size = len(points), len(ends)
    full = (1 << n) - 1
    left = [[full] * size for _ in ends]  # left[i][i] stays full
    by_lex = sorted(range(size), key=ends.__getitem__)
    # a line through two ends has a primitive lex-positive direction d,
    # and for b = a + k * d, cross(a, b, p) = k * (v(p) - v(a)), where
    # v(p) = dx * py - dy * px is constant along each line of direction d
    for dx in range(bx + 1):
        for dy in range(-by if dx else 1, by + 1):
            if gcd(dx, dy) != 1:
                continue
            vals = [dx * y - dy * x for x, y in ends]
            order = sorted(range(n), key=vals.__getitem__)
            keys = [vals[p] for p in order]
            prefix = list(accumulate((1 << p for p in order), or_, initial=0))
            lines = {}
            for e in by_lex:  # so each line lists its ends along d
                lines.setdefault(vals[e], []).append(e)
            for v, line in lines.items():
                if len(line) > 1:
                    ahead = full ^ prefix[bisect_right(keys, v)]  # for b after a
                    behind = prefix[bisect_left(keys, v)]  # for b before a
                    for k, a in enumerate(line):
                        row = left[a]
                        for b in line[:k]:
                            row[b] = behind
                        for b in line[k + 1:]:
                            row[b] = ahead
    # for p strictly right of a -> b, q is in (a, p, b) iff q is left of or
    # on b -> a and p right of or on a -> q and left of or on b -> q; and
    # q is on the segment a-p, for p > a, iff q > a and p is on a -> q past q
    below = [(1 << bisect_left(points, q)) - 1 for q in ints]
    to_int = [row[n:] for row in left[:n]]  # a -> q
    from_int = list(zip(*(row[:n] for row in left[n:])))  # q -> b
    hollow = [[0] * n for _ in points]
    for i, a in enumerate(points):
        ax, ay = a
        to_a, from_a = to_int[i], from_int[i]
        mask = full
        for q, out, back, low in zip(ints, to_a, from_a, below):
            if q > a:
                mask &= out | back | low
        hollow[i][i] = mask
        for j in range(i + 1, n):
            b = points[j]
            # cross(b, a, q) = w - c for w = dx * qy - dy * qx and d = a - b
            dx, dy = ax - b[0], ay - b[1]
            c = dx * b[1] - dy * b[0]
            ab, ba = left[j][i], left[i][j]
            for (qx, qy), out_a, back_a, out_b, back_b in zip(ints, to_a, from_a, to_int[j], from_int[j]):
                w = dx * qy - dy * qx
                if w >= c:  # q is left of or on b -> a: cap (a, p, b)
                    ab &= out_a | back_b
                if w <= c:  # q is left of or on a -> b: cap (b, p, a)
                    ba &= out_b | back_a
            hollow[i][j], hollow[j][i] = ab, ba
    return points, left, hollow


def _walk(args):
    """(examined, maximal, failures) of the DFS from the given roots,
    each hull with its x-translates.

    A hull lists its vertices counterclockwise, h0, h1, ..., r, s, t
    (indices mod its length), t lex-greatest.  The wedge at t holds no
    lex-greater p, so p sees (is strictly right of) an edge at t; the
    edges p sees form a chain, and an edge whose line meets p lies next
    to it.  So p keeps every vertex iff it sees one edge at t and has
    both neighbours of that edge strictly on its left: t -> h0 with
    s -> t and h0 -> h1 (cap one, (t, p, h0); p follows t), or s -> t
    with t -> h0 and r -> s (cap two, (s, p, t); the hull restarts at
    t).  The cap rows of ``_tables`` hold the seen edge's test, so cap
    one is left[s][t] & left[h0][h1] & hollow[t][h0] and cap two
    left[t][h0] & left[r][s] & hollow[s][t].

    One of the two neighbour rows is implied by the candidates a hull
    inherits, the points its parent kept.  A child that follows t has
    the parent's h0 and h1, and one that restarts at t the parent's r
    and s, so its row for h0 -> h1 (cap one) or r -> s (cap two) is the
    row of a parent edge e.  A point the parent kept through the cap
    that tests e passed e's row there.  One kept through the other cap
    sees exactly one parent edge and lies strictly left of that edge's
    two neighbours; as the edges it sees form a chain and an edge whose
    line meets it lies next to the chain, it lies strictly left of every
    other edge, e among them, once the parent has three vertices.  A
    parent of two, a root and q, is a segment whose two edges neighbour
    each other, and there the other cap's points see e itself; but such
    a point in the child's cap would also see the child's other edge at
    the root, which puts it in the angle opposite the child at the
    root, lex-less than the root, where no candidate lies.  So a child
    skips that row, and for its other cap the parent ANDs the neighbour
    row, a row it read for its own caps, into the candidates it hands
    down: a visit is five ANDs.  A root is the one-point hull (root,
    root, root), as left[root][root] is full and hollow[root][root] is
    its segment row; a segment's neighbour rows repeat its cap rows.

    A hull hands its children their h0, s and t: h0, t, p when p
    follows t, and t, s, p when the hull restarts.  Its vertices are the
    DFS path, the points chosen from the root down to t: t is pushed
    before a hull's children and popped after them.  The last child
    inherits no candidates, so it is a maximal leaf, and only counted
    if its x spread, p's x less the root's, is below limit.  That spread
    settles every maximal hull along (1, 0), or proves it wide there, so
    the direction search starts at the next direction.

    A visit counts the hull and its translates by (3i, 0) that fit in the
    box, fits[t] of them, as t has the greatest x.  Translate i keeps the
    points the hull keeps that still fit after the shift; the first of
    them has the least x, so the translates from fits[first] on keep
    nothing and are maximal, and all of them are when the hull keeps
    nothing.  A last child settled as a narrow leaf counts fits[p]
    maximal hulls.  Width and x spread are the same for every translate,
    so one direction search settles all the maximal ones, and each of
    them is recorded, shifted, when it fails.
    """
    box_thirds, bound, limit, roots = args
    points, left, hollow = _tables(box_thirds)
    xs = [x for x, _ in points]
    # fits[p]: the x-translates of p by multiples of 3 thirds in the box, p
    # itself included
    fits = [(box_thirds[0] - x) // 3 + 1 for x in xs]
    stream = coprime_directions(bound)
    next(stream)  # (1, 0)
    directions = []  # listed as the narrow check first draws them
    drawn = (directions.append(z) or z for z in stream)
    examined, maximal, failures = 0, 0, []
    path = []  # the hull's vertices less t
    push, pop = path.append, path.pop

    def settle(t, first, last):
        # the direction search for the hull ending at t, whose translates
        # from first to last - 1 are maximal
        verts = [points[v] for v in path]
        verts.append(points[t])
        if _narrow(verts, limit, directions) is None and _narrow(verts, limit, drawn) is None:
            verts.sort()
            failures.extend(tuple((x + 3 * i, y) for x, y in verts) for i in range(first, last))

    def visit(h0, s, t, one, two):
        # one, two: each cap's share of the lex-greater points that no
        # hull above this one rejected; the parent has ANDed the one
        # neighbour row a child needs into that cap's share
        nonlocal examined, maximal
        last = fits[t]
        examined += last
        st, th0 = left[s][t], left[t][h0]
        one &= st & hollow[t][h0]
        two &= th0 & hollow[s][t]
        kept = one | two
        if not kept:
            maximal += last
            if xs[t] - x0 >= limit:  # else narrow along (1, 0)
                settle(t, 0, last)
            return
        bit = kept & -kept
        p = bit.bit_length() - 1
        first = fits[p]
        if first < last:  # the translates from first on keep nothing
            maximal += last - first
            if xs[t] - x0 >= limit:
                settle(t, first, last)
        push(t)
        while bit:
            kept ^= bit
            if not kept and xs[p] - x0 < limit:  # the last child: narrow leaves
                examined += fits[p]
                maximal += fits[p]
            elif one & bit:
                visit(h0, t, p, kept, kept & st)
            else:
                visit(t, s, p, kept & th0, kept)
            bit = kept & -kept
            p = bit.bit_length() - 1
        pop()

    for root in roots:
        x0 = xs[root]  # the least x of every hull in the root's subtree
        above = -2 << root  # the lex-greater points
        visit(root, root, root, above, above)
    return examined, maximal, failures


def enumerate_and_verify(box_thirds=(8, 13), bound=42, jobs=1):
    """Enumerate every third-integral polytope in the box and verify that
    each hollow one is strictly narrower than THRESHOLD along some
    direction of max-norm at most bound.  Only the roots of x below 3
    thirds, a prefix of the candidates, are walked; the walk counts every
    other hull as an x-translate of one of theirs (see ``_walk``).  DFS
    roots are independent, so jobs > 1 deals them out to at most one
    process per root; the merged report is identical either way.  The
    roots' subtrees shrink, roughly, as the root grows, so the deal goes
    back and forth: worker w takes the roots at positions w and 2W - 1 - w
    of each block of 2W.
    """
    # a bool passes for 0 or 1 and a float fails deep inside range(), so
    # each number must be an int; the walk settles hulls along (1, 0) and
    # skips it in the stream, and a negative corner's grid is empty
    if type(bound) is not int or bound < 1:
        raise ValueError("the direction bound must be an integer of at least 1")
    if not all(type(c) is int for c in box_thirds) or min(box_thirds) < 0:
        raise ValueError("the box corner must have non-negative integer coordinates")
    if type(jobs) is not int or jobs < 1:
        raise ValueError("jobs must be an integer of at least 1")
    t0 = time.monotonic()
    limit = ceil(3 * THRESHOLD)
    # the candidates of x below 3 come before the integer point (3, 0)
    roots = range(bisect_left(_candidate_points(box_thirds), (3, 0)))
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
