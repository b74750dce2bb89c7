"""The shortest-path kernel as it was before its inner loop stopped
allocating: a ``deque`` queue, one ``(tail, arc)`` tuple per lowering,
and a ``_cycle`` that walks that ``pred`` list.  Tests compare
``paths.shortest_paths`` against it: the two must return identical
``(dist, pred, cycle)`` triples."""

from __future__ import annotations

from collections import deque


def shortest_paths(n, out, length, sources):
    """Shortest paths over nodes 0..n-1, where out[u] lists the arcs
    (v, arc) leaving u and length[arc] is the integer length of arc.
    Reads out and length without changing them.

    Returns (dist, pred, None): dist[v] is the exact distance from the
    sources (None when unreachable) and pred[v] the (tail, arc) pair that
    last lowered v (None at unreached nodes and at sources still at 0).
    When a negative cycle is reachable, returns (None, None, cycle)
    instead, cycle being the arc ids of one such cycle in walk order.
    """
    root = n
    dist = [None] * n
    pred = [None] * n
    depth = [-1] * (n + 1)            # -1 marks nodes outside the tree
    nxt = [root] * (n + 1)            # preorder thread, circular at root
    prv = [root] * (n + 1)
    depth[root] = 0
    queue = deque()
    queued = [False] * n

    # a node enters the tree as its parent's first child, spliced into the
    # thread right after the parent, and joins the queue unless it is in it
    for s in sources:
        if dist[s] is None:
            dist[s] = 0
            depth[s] = 1
            w = nxt[root]
            nxt[root], prv[s], nxt[s], prv[w] = s, root, w, s
            queued[s] = True
            queue.append(s)

    # a label is the length of a simple tree path, within n * span of 0,
    # and only falls, so no node is lowered more than 2 * n * span + 1
    # times; that bound costs a scan of all arcs, so it is worked out only
    # once a run has made more than n * n lowerings
    lowered = 0
    limit = n * n
    while queue:
        u = queue.popleft()
        queued[u] = False
        if depth[u] < 0:
            continue
        du = dist[u]
        for v, arc in out[u]:
            d = du + length[arc]
            if dist[v] is not None and d >= dist[v]:
                continue
            lowered += 1
            if lowered > limit:
                span = max(map(abs, length))
                limit = n * (2 * n * span + 1)
                if lowered > limit:
                    raise AssertionError("shortest-path labels failed to converge")
            dv = depth[v]
            if dv >= 0:
                # detach v's subtree: v and the thread run below its depth
                w = v
                while True:
                    if w == u:
                        return None, None, _cycle(pred, length, v, u, arc)
                    depth[w] = -1
                    w = nxt[w]
                    if depth[w] <= dv:
                        break
                p = prv[v]
                nxt[p], prv[w] = w, p
            dist[v] = d
            pred[v] = (u, arc)
            depth[v] = depth[u] + 1
            w = nxt[u]
            nxt[u], prv[v], nxt[v], prv[w] = v, u, w, v
            if not queued[v]:
                queued[v] = True
                queue.append(v)
    return dist, pred, None


def _cycle(pred, length, v, u, arc):
    """Arcs of the tree path v -> u closed by the arc u -> v."""
    arcs = [arc]
    while u != v:
        u, a = pred[u]
        arcs.append(a)
    # checked under python -O too: a cycle that is not negative would be
    # taken for a proof of infeasibility
    if sum(length[a] for a in arcs) >= 0:
        raise AssertionError("extracted cycle is not negative")
    arcs.reverse()
    return arcs
