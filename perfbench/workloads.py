"""Instance generators, oracles and the instance plans of the solver
workloads.

Nothing here imports surfcolor at module level: the set-up timing in
run.py re-imports the package several times, so every function that needs
it imports it on call and always gets the current copy.
"""

import hashlib
import importlib
import itertools
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

TRI_MODULUS = 3
HOLLOW_BOX = (6, 9)

# tri-stream: (a, b, diagonals deleted, precolored vertices, verdict).  A
# 3x3 map minus k diagonals keeps 18 - 2k triangles and a 3x4 map minus 4
# keeps 16, so a stream has C(14, 7) = 3,432 or C(16, 8) = 12,870 relevant
# boundaries, and a NONE walks all of them.  The verdict of each entry is
# fixed (precolorings are redrawn until backtracking agrees), so every
# seed has the same mix of full streams and early finds and the median
# lands on a full 12,870-boundary stream.  The 3x4 map minus 3 diagonals
# (48,620 boundaries, about 10 s a solve) and the full 3x4 map (over 10
# minutes) are left out.
TRI_PLAN = [
    (3, 4, 4, 0, False),
    (3, 4, 4, 2, False),
    (3, 4, 4, 3, False),
    (3, 3, 1, 0, True),
    (3, 3, 1, 2, False),
    (3, 3, 1, 3, False),
    (3, 3, 2, 0, True),
    (3, 3, 2, 2, True),
    (3, 3, 2, 3, False),
]

# quad-precolored: (n, hexagons, m, planted, |S|).  Quadrangulations go up
# to 24x24 (576 faces: relevant_boundaries recurses once per face and hits
# the recursion limit near 990).  Each (n, |S|) cell gets two of the four
# (m, planted) pairs, in rotation, so every pair appears equally often.
# Hexagon maps stay small: at m = 3 each hexagon triples the boundary
# candidates and widens the lattice box, and a NONE on 16x16 with four
# hexagons took 43 s.  A pass takes 5 to 8 s, so a run makes several.
QUAD_PAIRS = ((3, False), (5, True), (3, True), (5, False))
QUAD_PLAN = [
    (n, 0) + QUAD_PAIRS[(2 * cell + j) % 4] + (size,)
    for cell, (n, size) in enumerate(itertools.product((8, 16, 24), (0, 15, 30)))
    for j in (0, 1)
] + [
    (n, k, m, planted, size)
    for n, k in ((8, 2), (8, 4), (12, 2))
    for m in (3, 5)
    for planted in (True, False)
    for size in (7, 15)
]
# the seed of the fixed instances; see for_seed for what a run's seed changes
POOL_SEED = 20230309


class Instance:
    """One extend_precoloring call with its expected verdict and its
    expected (boundaries_tried, points_tested); None until known."""

    __slots__ = ("key", "map", "m", "psi", "planted", "expected", "counts")

    def __init__(self, key, g, m, psi, planted, expected=None, counts=None):
        self.key = key
        self.map = g
        self.m = m
        self.psi = psi
        self.planted = planted
        self.expected = expected
        self.counts = counts


# --- maps -----------------------------------------------------------------

def torus_triangulation(a, b, pkg="surfcolor"):
    """C_a x C_b plus the NE diagonal (i, j) -- (i+1, j+1) at every vertex:
    6-regular, every face a triangle, Euler genus 2.  Built with the
    package named `pkg`: surfcolor or its frozen baseline copy."""
    build_map = importlib.import_module(pkg).build_map

    nv = a * b

    def vid(i, j):
        return (i % a) * b + (j % b)

    # edge ids: east = v, north = nv + v, diagonal = 2nv + v; the canonical
    # half-edge 2e points away from v.  Rotations list the incoming
    # half-edges counterclockwise: E, NE, N, W, SW, S.
    rotations = []
    for i in range(a):
        for j in range(b):
            v = vid(i, j)
            rotations.append([
                2 * v + 1,
                2 * (2 * nv + v) + 1,
                2 * (nv + v) + 1,
                2 * vid(i - 1, j),
                2 * (2 * nv + vid(i - 1, j - 1)),
                2 * (nv + vid(i, j - 1)),
            ])
    g = build_map(rotations)
    assert set(g.face_lengths()) == {3}, "torus triangulation has a non-triangle face"
    assert g.euler_genus == 2, "torus triangulation has Euler genus %d" % g.euler_genus
    return g


def delete_edges(g, canonical_halves):
    """The map with the given edges removed (faces merge across them),
    built with the package that built g."""
    build_map = importlib.import_module(type(g).__module__.partition(".")[0]).build_map

    dead = set()
    for h in canonical_halves:
        dead.add(h)
        dead.add(g.opp[h])
    keep = [h for h in range(g.half_edge_count) if h not in dead]
    new_id = {h: i for i, h in enumerate(keep)}
    rots = [[new_id[h] for h in g.rot[v] if h not in dead] for v in range(g.num_vertices)]
    opp = [0] * len(keep)
    for h in keep:
        opp[new_id[h]] = new_id[g.opp[h]]
    return build_map(rots, opp)


def delete_disjoint(g, candidates, k, rng):
    """Delete k edges drawn from candidates that pairwise share no endpoint
    and no face, each separating two distinct faces."""
    for _ in range(1000):
        order = list(candidates)
        rng.shuffle(order)
        chosen, faces, ends = [], set(), set()
        for h in order:
            f = {g.left[h], g.left[g.opp[h]]}
            e = {g.tgt[h], g.tgt[g.opp[h]]}
            if len(f) < 2 or f & faces or e & ends:
                continue
            chosen.append(h)
            faces |= f
            ends |= e
            if len(chosen) == k:
                return delete_edges(g, chosen)
    raise ValueError("no %d disjoint edges found" % k)


# --- precolorings ---------------------------------------------------------

def adjacency(g):
    adj = [set() for _ in range(g.num_vertices)]
    for h in g.canonical_half_edges():
        u, v = g.tgt[h], g.tgt[g.opp[h]]
        adj[u].add(v)
        adj[v].add(u)
    return adj


def closed_walk(n, m, rng):
    """Colors s_0 .. s_{n-1} of a closed walk of n +-1 steps in C_m."""
    sums = [s for s in range(-n, n + 1) if (s - n) % 2 == 0 and s % m == 0]
    s = rng.choice(sums)
    steps = [1] * ((n + s) // 2) + [-1] * ((n - s) // 2)
    rng.shuffle(steps)
    out = [rng.randrange(m)]
    for step in steps[:-1]:
        out.append((out[-1] + step) % m)
    return out


def planted_precoloring(n, m, size, rng):
    """size vertices of the n x n grid colored by phi(i, j) = s_i + t_j,
    which is a homomorphism for closed walks s and t, so it extends."""
    s = closed_walk(n, m, rng)
    t = closed_walk(n, m, rng)
    return {v: (s[v // n] + t[v % n]) % m for v in rng.sample(range(n * n), size)}


def nonadjacent_precoloring(g, m, size, rng):
    """Random colors on up to size pairwise non-adjacent vertices."""
    adj = adjacency(g)
    order = list(range(g.num_vertices))
    rng.shuffle(order)
    chosen = set()
    for v in order:
        if len(chosen) == size:
            break
        if not adj[v] & chosen:
            chosen.add(v)
    return {v: rng.randrange(m) for v in sorted(chosen)}


# --- oracles --------------------------------------------------------------

def is_homomorphism(g, m, phi, psi):
    """phi colors every vertex from 0..m-1, sends each edge to an edge of
    C_m and agrees with psi.  Written against the raw map arrays so it
    shares no code with surfcolor.solver.verify_homomorphism."""
    n = g.num_vertices
    if not isinstance(phi, dict) or set(phi) != set(range(n)):
        return False
    if any(not (0 <= phi[v] < m) for v in range(n)):
        return False
    for h in range(g.half_edge_count):
        if (phi[g.tgt[h]] - phi[g.tgt[g.opp[h]]]) % m not in (1, m - 1):
            return False
    return all(phi[v] == c for v, c in psi.items())


def backtrack_extendable(g, m, psi, budget=None):
    """Exhaustive search for an extension of psi: True, False, or None
    when more than budget search nodes would be needed."""
    n = g.num_vertices
    adj = adjacency(g)
    colors = [None] * n
    nodes = 0

    class OutOfBudget(Exception):
        pass

    def rec(v):
        nonlocal nodes
        if v == n:
            return True
        nodes += 1
        if budget is not None and nodes > budget:
            raise OutOfBudget
        for c in (psi[v],) if v in psi else range(m):
            if all(colors[w] is None or (colors[w] - c) % m in (1, m - 1) for w in adj[v]):
                colors[v] = c
                if rec(v + 1):
                    return True
                colors[v] = None
        return False

    try:
        return rec(0)
    except OutOfBudget:
        return None


def fingerprint(g, m, psi):
    """A stable digest of a map, modulus and precoloring."""
    text = json.dumps([g.rot, g.opp, m, sorted(psi.items())])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- workload plans -------------------------------------------------------

def tri_base(pkg="surfcolor"):
    """The tri-stream instances; every verdict comes from backtracking."""
    rng = random.Random("tri-stream/%d" % POOL_SEED)
    out = []
    for a, b, k, size, verdict in TRI_PLAN:
        for _ in range(100):
            g = torus_triangulation(a, b, pkg)
            diagonals = [2 * (2 * a * b + v) for v in range(a * b)]
            g = delete_disjoint(g, diagonals, k, rng)
            psi = nonadjacent_precoloring(g, TRI_MODULUS, size, rng)
            if backtrack_extendable(g, TRI_MODULUS, psi) == verdict:
                break
        else:
            raise ValueError("no %r instance found" % ((a, b, k, size, verdict),))
        out.append(Instance((a, b, k, size), g, TRI_MODULUS, psi, False, verdict))
    return out


def quad_base(index, pkg="surfcolor"):
    """The instance of QUAD_PLAN[index]."""
    gen_grid = importlib.import_module(pkg + ".cli").gen_grid

    n, k, m, planted, size = QUAD_PLAN[index]
    rng = random.Random("quad-precolored/%d/%r" % (POOL_SEED, QUAD_PLAN[index]))
    g = gen_grid(n, n)
    if k:
        g = delete_disjoint(g, g.canonical_half_edges(), k, rng)
    if planted:
        psi = planted_precoloring(n, m, size, rng)
    else:
        psi = nonadjacent_precoloring(g, m, size, rng)
    return Instance((n, k, m, planted, size), g, m, psi, planted)


def load_reference():
    with open(REFERENCE_PATH, encoding="ascii") as fh:
        return json.load(fh)


def with_reference(instances, reference, name):
    """The instances with their solver counts from the reference table,
    and their verdicts where they have none of their own.  Set-up refuses
    a table whose fingerprints or verdicts do not match."""
    table = reference[name]
    if len(table) != len(instances):
        raise ValueError("reference.json has %d %s rows, not %d" % (len(table), name, len(instances)))
    for index, inst in enumerate(instances):
        row = table[str(index)]
        if row["fingerprint"] != fingerprint(inst.map, inst.m, inst.psi):
            raise ValueError("%s instance %d differs from reference.json" % (name, index))
        if inst.expected is None:
            inst.expected = row["extendable"]
        elif inst.expected != row["extendable"]:
            raise ValueError("%s instance %d: reference.json verdict differs" % (name, index))
        inst.counts = (row["boundaries_tried"], row["points_tested"])
    return instances


def for_seed(instances, seed, name):
    """The seed's copy of a workload: every precoloring shifted by its own
    rotation of C_m, in a shuffled solve order.  Rotations are automorphisms
    of C_m and the solver only sees color differences, so every seed asks
    different questions with the same verdicts and the same solver work,
    which run.py checks against the counts of every solve."""
    rng = random.Random("%s/%d" % (name, seed))
    out = []
    for inst in instances:
        shift = rng.randrange(inst.m)
        psi = {v: (c + shift) % inst.m for v, c in inst.psi.items()}
        out.append(Instance(inst.key, inst.map, inst.m, psi, inst.planted, inst.expected, inst.counts))
    rng.shuffle(out)
    return out
