"""Flows with prescribed boundary and enumeration of relevant boundaries.

A flow is a 1-chain with coefficients in {-1, 0, 1}; its boundary is the
0-chain of vertex excesses.  Realizing a prescribed boundary reduces to
a unit-capacity maximum flow; upgrading to a nowhere-zero flow orients
the leftover all-even-degree subgraph along Eulerian circuits.  Both
steps hold the flow under construction as one antisymmetric array over
the half-edges, f[opp(a)] = -f[a], and walk the same out lists of
(head, arc) pairs, ``CombinatorialMap.out_arcs``.
Before the max-flow, a cut check on the saturated vertices
(|d[v]| = deg(v)) rejects most unrealizable boundaries in time linear
in their degrees.
The completion's odd-degree test is the one parity test: it fails
exactly when the boundary is not parity-compliant.  Both checks read
only the map's out lists.

The relevant boundaries are streamed by a DFS over the first vertices
whose leaves are completed from a table of the last vertices' selections
grouped by sum, built once per stream.
"""

from __future__ import annotations

import itertools

from . import chains
from .chains import Chain0, Chain1
from .errors import NotAZeroBoundary
from .surface_map import check_modulus, face_candidates

# relevant_boundaries tabulates the completions of a run of last vertices
# with at most this many candidate selections
TABLE_LIMIT = 256


class Flow:
    """A 1-chain with every coefficient in {-1, 0, 1}."""

    __slots__ = ("chain", "nowhere_zero")

    def __init__(self, chain):
        if any(abs(c) > 1 for _, c in chain.coeffs.items()):
            raise ValueError("flow coefficients must lie in {-1, 0, 1}")
        self.chain = chain
        self.nowhere_zero = len(chain.coeffs) == chain.map.num_edges

    def __repr__(self):
        return "Flow(%r, nowhere_zero=%s)" % (self.chain, self.nowhere_zero)


def flow_with_boundary(m, d):
    """A flow f1 with boundary d, or None if none exists.

    Cut check first: at a saturated vertex v, |d[v]| = deg(v), every edge
    must carry flow with the sign of d[v].  So a loop at v, or an edge
    joining v to another saturated vertex whose excess has the same sign,
    makes d exceed the number of edges leaving {v} or that pair (Gale's
    cut condition), and the answer is None without a max-flow.  A loop
    puts v among its own neighbours, so it is the case u = v of that test.

    Auxiliary network: each edge becomes two opposite unit-capacity arcs;
    a super-source feeds every vertex with d[v] < 0 and every vertex with
    d[v] > 0 drains into a super-sink.  A flow with boundary d exists iff
    the max-flow value reaches half the 1-norm of d.  The flow is one
    antisymmetric array f over the half-edges: arc a has residual
    capacity iff f[a] < 1, and a push along a adds 1 to f[a] and takes
    1 from f[opp(a)].
    """
    if chains.boundary0(d) != 0:
        raise NotAZeroBoundary("boundary entries must sum to zero")
    coeffs = d.coeffs
    out, tgt, opp = m.out_arcs(), m.tgt, m.opp
    for v, c in coeffs.items():
        if abs(c) != len(out[v]):
            continue
        for u, _ in out[v]:
            cu = coeffs.get(u, 0)
            if cu * c > 0 and abs(cu) == len(out[u]):
                return None

    f = [0] * m.half_edge_count
    # excess not yet routed: below 0 at a source, above 0 at a sink
    rest = [coeffs.get(v, 0) for v in range(m.num_vertices)]

    for _ in range(d.norm() // 2):
        # BFS for an augmenting path; the loop breaks at its sink v
        parent = {v: None for v, r in enumerate(rest) if r < 0}
        queue = list(parent)
        for v in queue:
            if rest[v] > 0:
                break
            for w, a in out[v]:
                if w not in parent and f[a] < 1:
                    parent[w] = a
                    queue.append(w)
        else:
            return None
        # push one unit back along the path
        rest[v] -= 1
        while parent[v] is not None:
            a = parent[v]
            f[a] += 1
            f[opp[a]] -= 1
            v = tgt[opp[a]]
        rest[v] += 1
    return _flow(m, f)


def nowhere_zero_completion(m, f1):
    """Extend a flow to a nowhere-zero flow with the same boundary d, or
    None if none exists.

    f1 is nonzero on d[v] (mod 2) of the deg(v) half-edges at v, so the
    edges where f1 vanishes form an all-even-degree subgraph exactly when
    d is parity-compliant (d[v] = deg(v) mod 2); otherwise no nowhere-zero
    flow has boundary d, and the answer is None.  Orienting each component
    along an Eulerian circuit (Hierholzer) fills in every zero without
    touching the boundary.  The flow is one antisymmetric array over the
    half-edges, loaded with f1; the walk takes an arc a only while
    f[a] = 0 and sets f[a], f[opp(a)] = 1, -1, which marks its edge used.
    """
    opp, tgt, out = m.opp, m.tgt, m.out_arcs()
    f = [0] * m.half_edge_count
    # odd[v]: the parity of v's zero arcs, deg(v) less one per nonzero edge end
    odd = [len(arcs) & 1 for arcs in out]
    for h, c in f1.chain.coeffs.items():
        f[h], f[opp[h]] = c, -c
        odd[tgt[h]] ^= 1
        odd[tgt[opp[h]]] ^= 1
    if any(odd):
        return None

    unused = [iter(arcs) for arcs in out]  # each resumes where it stopped
    for v0 in range(m.num_vertices):
        stack = [v0]
        while stack:
            v = stack[-1]
            for w, a in unused[v]:
                if not f[a]:
                    f[a], f[opp[a]] = 1, -1
                    stack.append(w)
                    break
            else:
                stack.pop()

    flow = _flow(m, f)
    assert flow.nowhere_zero
    return flow


def _flow(m, f):
    """The Flow of an antisymmetric array f over the half-edges."""
    return Flow(Chain1._nonzero(m, {h: f[h] for h in m.canonical_half_edges() if f[h]}))


def nowhere_zero_flow_with_boundary(m, d):
    """A nowhere-zero flow with boundary d, or None if none exists: the
    max-flow's f1, completed.  Raises NotAZeroBoundary unless d sums to
    zero."""
    f1 = flow_with_boundary(m, d)
    if f1 is None:
        return None
    return nowhere_zero_completion(m, f1)


def relevant_boundaries(m, modulus):
    """Stream every relevant 0-boundary divisible by the modulus, each a
    parity-compliant Chain0 with modulus | d[v] and |d[v]| <= deg(v).

    Per vertex the candidate excesses are the integers i with
    modulus | i, i = deg(v) (mod 2) and |i| <= deg(v); the zero-sum
    selections are emitted in lexicographic vertex-id order.

    The vertices split into a prefix and a tail: the tail is the longest
    run of last vertices with at most TABLE_LIMIT candidate selections.
    Every tail selection is tabulated once, grouped by its sum, each group
    in lexicographic order.  A DFS walks the prefix only, pruned by
    partial-sum bounds, and a prefix with partial sum p is followed by
    each tail of sum -p in turn.  The stream is then the zero-sum
    (prefix, tail) pairs with prefixes in lexicographic order and, under
    one prefix, tails in lexicographic order, which is the lexicographic
    order of the whole selections.  Each Chain0 is built once, from the
    prefix's nonzero entries and the tail's.
    """
    check_modulus(modulus)
    nv = m.num_vertices
    cands = [face_candidates(m.degree(v), modulus) for v in range(nv)]
    if any(not c for c in cands):
        return
    k, size = nv, 1
    while k > 0 and size * len(cands[k - 1]) <= TABLE_LIMIT:
        k -= 1
        size *= len(cands[k])
    tails = {}
    for sel in itertools.product(*cands[k:]):
        tail = {u: c for u, c in zip(range(k, nv), sel) if c}
        tails.setdefault(sum(sel), []).append(tail)

    suffix_min = [0] * (k + 1)
    suffix_max = [0] * (k + 1)
    suffix_min[k], suffix_max[k] = min(tails), max(tails)
    for v in range(k - 1, -1, -1):
        suffix_min[v] = suffix_min[v + 1] + cands[v][0]
        suffix_max[v] = suffix_max[v + 1] + cands[v][-1]

    # explicit-stack DFS over the prefix, so the depth is not bounded by
    # the recursion limit: pos[v] is the next candidate index to try at
    # v, and partial[v] the sum chosen over the vertices before v
    chosen = [0] * k
    pos = [0] * (k + 1)
    partial = [0] * (k + 1)
    v = 0
    while v >= 0:
        if v == k:
            prefix = {u: c for u, c in enumerate(chosen) if c}
            for tail in tails.get(-partial[k], ()):
                coeffs = prefix.copy()
                coeffs.update(tail)
                yield Chain0._nonzero(m, coeffs)
            v -= 1
            continue
        row = cands[v]
        while pos[v] < len(row):
            c = row[pos[v]]
            pos[v] += 1
            s = partial[v] + c
            if s + suffix_min[v + 1] <= 0 <= s + suffix_max[v + 1]:
                chosen[v] = c
                partial[v + 1] = s
                pos[v + 1] = 0
                v += 1
                break
        else:
            v -= 1
