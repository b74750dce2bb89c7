"""Shortest paths with negative-cycle detection: the one kernel behind
the circulation engine and the residue-layered solver of the lattice
search.  The arcs and their lengths come as two lists, so one graph's
arcs can be read under several length lists.

FIFO queue-based Bellman-Ford with subtree disassembly (Tarjan 1981; see
Cherkassky & Goldberg, "Negative-cycle detection algorithms", 1999): the
shortest-path tree is kept as a preorder thread, and lowering a node's
label first detaches its subtree.  A node whose subtree holds the arc's
tail closes a cycle of negative length, so a cycle is reported as soon as
it forms in the tree, and the tree stays acyclic otherwise.
"""

from __future__ import annotations


def shortest_paths(n, out, length, sources):
    """Shortest paths over nodes 0..n-1, where out[u] lists the arcs
    (v, arc) leaving u and length[arc] is the integer length of arc.
    Reads out and length without changing them.

    Returns (dist, via, None): dist[v] is the exact distance from the
    sources (None when unreachable) and via[v] the arc that last lowered
    v (-1 at unreached nodes and at sources still at 0); a caller that
    walks the paths back knows each arc's tail.  When a negative cycle
    is reachable, returns (None, None, cycle) instead, cycle being the
    arc ids of one such cycle in walk order.
    """
    root = n
    dist = [None] * n
    tail = [-1] * n                   # tail[v], via[v]: v's last lowering,
    via = [-1] * n                    # -1 where v was never lowered
    depth = [-1] * (n + 1)            # -1 marks nodes outside the tree
    nxt = [root] * (n + 1)            # preorder thread, circular at root
    prv = [root] * (n + 1)
    depth[root] = 0
    queue = []                        # FIFO: read by one pass as it grows
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
    for u in queue:
        queued[u] = False
        child = depth[u] + 1
        if child == 0:
            continue
        # u is neither lowered nor detached while it is scanned: either
        # would close a cycle through u, which ends the run
        du = dist[u]
        for v, arc in out[u]:
            d = du + length[arc]
            old = dist[v]
            if old is not None and d >= old:
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
                        return None, None, _cycle(tail, via, length, v, u, arc)
                    depth[w] = -1
                    w = nxt[w]
                    if depth[w] <= dv:
                        break
                p = prv[v]
                nxt[p] = w
                prv[w] = p
            dist[v] = d
            tail[v] = u
            via[v] = arc
            depth[v] = child
            w = nxt[u]
            nxt[u] = v
            prv[v] = u
            nxt[v] = w
            prv[w] = v
            if not queued[v]:
                queued[v] = True
                queue.append(v)
    return dist, via, None


def _cycle(tail, via, length, v, u, arc):
    """Arcs of the tree path v -> u closed by the arc u -> v, read from
    the last lowering tail[w], via[w] of each node w on it."""
    arcs = [arc]
    while u != v:
        arcs.append(via[u])
        u = tail[u]
    # checked under python -O too: a cycle that is not negative would be
    # taken for a proof of infeasibility
    if sum(length[a] for a in arcs) >= 0:
        raise AssertionError("extracted cycle is not negative")
    arcs.reverse()
    return arcs
