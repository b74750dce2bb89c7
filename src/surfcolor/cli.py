"""Command-line front end, instance generators, and file I/O.

Subcommands: solve, stats, dual, polytope, hollow2d-verify, gen.
Exit codes: 0 = found/verified, 1 = not extendable / verification
failure, 2 = invalid input, 3 = internal error.
"""

from __future__ import annotations

import argparse
import sys

from . import flows, hollow2d, lattice, solver, surface_map
from .errors import BadDimensions, SurfcolorError
from .homology import cohomology_basis, copaths_from
from .surface_map import build_map


def gen_bouquet(num_loops):
    """One vertex with loops interleaved as (h1 .. hn, ~h1 .. ~hn); two
    loops give the standard genus-2 one-face bouquet."""
    if num_loops < 1:
        raise SurfcolorError("need at least one loop")
    rotation = [2 * i for i in range(num_loops)] + [2 * i + 1 for i in range(num_loops)]
    return build_map([rotation])


def gen_grid(a, b):
    """The torus quadrangulation C_a x C_b: vertex (i, j) is adjacent to
    (i +- 1, j) and (i, j +- 1) mod (a, b); all faces are 4-gons."""
    if a < 3 or b < 3:
        raise BadDimensions("grid dimensions must be >= 3, got %dx%d" % (a, b))
    nv = a * b

    def vid(i, j):
        return (i % a) * b + (j % b)

    # edge ids: east edge of v is v, north edge of v is nv + v;
    # canonical half-edge 2e points east/north (away from v); v's rotation
    # takes its edges in from the east, north, west and south neighbours
    rotations = [
        [2 * vid(i, j) + 1, 2 * (nv + vid(i, j)) + 1, 2 * vid(i - 1, j), 2 * (nv + vid(i, j - 1))]
        for i in range(a)
        for j in range(b)
    ]
    return build_map(rotations)


def gen_q13():
    """The Cayley graph of Z_13 with connectors {1, 5}, embedded as a
    quadrangulation of the torus: 13 vertices, 26 edges, 13 4-gon faces
    (vertex i, i+1, i+6, i+5), Euler genus 2."""
    # edge ids: the +1 edge leaving v is v, the +5 edge leaving v is 13 + v;
    # v's rotation takes the +1 edge in from v-1, the +5 edge in from v-5,
    # then the reverses of its own +1 and +5 edges, in from v+1 and v+5
    return build_map(
        [[2 * ((v - 1) % 13), 2 * (13 + (v - 5) % 13), 2 * v + 1, 2 * (13 + v) + 1] for v in range(13)]
    )


def _add_instance_args(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--grid", nargs=2, type=int, metavar=("A", "B"), help="torus grid C_A x C_B")
    g.add_argument("--q13", action="store_true", help="the Cayley graph C(Z_13; 1, 5) torus quadrangulation")
    g.add_argument("--bouquet", nargs="?", type=int, const=2, metavar="N", help="one-vertex bouquet of N loops (default 2)")
    g.add_argument("--map", metavar="FILE", help="load a SURF-MAP v1 file")


def _read_ascii(path):
    """The text of an input file, which must be ASCII throughout, comments
    included."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as e:
        raise SurfcolorError(
            "%s: non-ASCII byte 0x%02x at offset %d" % (path, data[e.start], e.start)
        )


def _load_instance(args):
    """Returns (map, vertex_labels)."""
    if args.grid:
        a, b = args.grid
        m = gen_grid(a, b)
        labels = ["v%d,%d" % (i, j) for i in range(a) for j in range(b)]
        return m, labels
    if args.q13:
        return gen_q13(), ["v%d" % i for i in range(13)]
    if args.bouquet is not None:
        m = gen_bouquet(args.bouquet)
        return m, ["v0"]
    m = surface_map.load_surfmap(_read_ascii(args.map))
    return m, ["v%d" % i for i in range(m.num_vertices)]


def _load_precoloring(path, labels, modulus):
    """Parse lines '<vertex> <color>'; vertices by label or bare id."""
    by_label = {lab: i for i, lab in enumerate(labels)}
    psi = {}
    for raw in _read_ascii(path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SurfcolorError("malformed precoloring line: %r" % raw.strip())
        name, color_s = parts
        if name in by_label:
            v = by_label[name]
        else:
            try:
                v = int(name)
            except ValueError:
                raise SurfcolorError("unknown vertex %r" % name)
            if not (0 <= v < len(labels)):
                raise SurfcolorError("vertex id %d out of range" % v)
        try:
            color = int(color_s)
        except ValueError:
            raise SurfcolorError("bad color %r" % color_s)
        if not (0 <= color < modulus):
            raise SurfcolorError("color %d out of range 0..%d" % (color, modulus - 1))
        if v in psi and psi[v] != color:
            raise SurfcolorError("conflicting colors for vertex %r" % name)
        psi[v] = color
    return psi


def brute_force_extendable(m, modulus, psi=None):
    """Exhaustive backtracking over all extensions (oracle for <= 13 vertices)."""
    n = m.num_vertices
    adj = [[] for _ in range(n)]
    for h in m.canonical_half_edges():
        u, v = m.tgt[h], m.tgt[m.opp[h]]
        if u == v:
            # a loop needs c(v) - c(v) = +-1 (mod m), which no color gives
            return False
        adj[u].append(v)
        adj[v].append(u)
    psi = psi or {}
    colors = [None] * n

    def consistent(v, c):
        for w in adj[v]:
            cw = colors[w]
            if cw is not None and (cw - c) % modulus not in (1, modulus - 1):
                return False
        return True

    def rec(v):
        if v == n:
            return True
        candidates = (psi[v],) if v in psi else range(modulus)
        for c in candidates:
            if consistent(v, c):
                colors[v] = c
                if rec(v + 1):
                    return True
                colors[v] = None
        return False

    return rec(0)


def _cmd_solve(args):
    m, labels = _load_instance(args)
    pre = solver.Precoloring(args.modulus)
    if args.precolor:
        pre = solver.Precoloring(args.modulus, _load_precoloring(args.precolor, labels, args.modulus))
    if args.oracle and m.num_vertices > 13:
        raise SurfcolorError("--oracle supports at most 13 vertices")
    res = solver.extend_precoloring(m, pre)
    if args.oracle:
        want = brute_force_extendable(m, args.modulus, pre.psi)
        # raised, not asserted, so that python -O still reports it
        if res.extendable != want:
            raise AssertionError(
                "oracle disagreement: solver says %s, brute force says %s" % (res.extendable, want)
            )
    if not res.extendable:
        print("NONE")
        return 1
    for v in range(m.num_vertices):
        print("%s %d" % (labels[v], res.coloring[v]))
    return 0


def _cmd_stats(args):
    m, _ = _load_instance(args)
    profile = surface_map.face_profile(m, args.modulus)
    print("genus %d" % m.euler_genus)
    print("qstar %d" % profile.q_star)
    print("bstar %d" % profile.b_star)
    hist = {}
    for n in m.face_lengths():
        hist[n] = hist.get(n, 0) + 1
    print("faces " + " ".join("%dx%d" % (hist[n], n) for n in sorted(hist)))
    return 0


def _cmd_dual(args):
    m, _ = _load_instance(args)
    sys.stdout.write(surface_map.save_surfmap(surface_map.dual(m)))
    return 0


def _cmd_gen(args):
    m, _ = _load_instance(args)
    sys.stdout.write(surface_map.save_surfmap(m))
    return 0


def _cmd_polytope(args):
    surface_map.check_modulus(args.modulus)
    m, _ = _load_instance(args)
    g = surface_map.dual(m)
    if g.num_edges > args.budget:
        raise SurfcolorError(
            "instance has %d edges; polytope dump limited to %d" % (g.num_edges, args.budget)
        )
    basis = cohomology_basis(g)
    x = 0
    copaths = copaths_from(g, x, [x])
    f0 = None
    for d in flows.relevant_boundaries(g, args.modulus):
        f0 = flows.nowhere_zero_flow_with_boundary(g, d)
        if f0 is not None:
            break
    if f0 is None:
        print("NONE")
        return 1
    pts = lattice.integer_points_bruteforce(
        g, basis, f0, (x,), x, copaths, edge_budget=args.budget
    )
    for a, _ in sorted(pts):
        print("(" + ",".join(str(c) for c in a) + ")")
    return 0


def _cmd_hollow2d(args):
    box = tuple(args.box)
    if box[0] < 0 or box[1] < 0:
        raise SurfcolorError("box corner must be non-negative")
    if args.jobs < 1:
        raise SurfcolorError("--jobs must be at least 1")
    if args.bound < 1:
        raise SurfcolorError("--bound must be at least 1")
    rep = hollow2d.enumerate_and_verify(box, args.bound, args.jobs)
    sys.stdout.write(rep.format())
    rate = rep.hulls_examined / rep.elapsed if rep.elapsed > 0 else 0.0
    print("wall time: %.2f s (%s hulls/s)" % (rep.elapsed, "{:,.0f}".format(rate)), file=sys.stderr)
    return 0 if rep.verified else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="surfcolor",
        description="Extend partial colorings of surface-embedded graphs to "
        "homomorphisms into odd cycles via nowhere-zero dual flows; verify "
        "hollow third-integral polygons are narrow.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide precoloring extension and print a coloring or NONE")
    _add_instance_args(p)
    p.add_argument("--modulus", type=int, default=3, help="odd cycle length (default 3)")
    p.add_argument("--precolor", metavar="FILE", help="file of '<vertex> <color>' lines")
    p.add_argument("--oracle", action="store_true", help="cross-check against brute force (<= 13 vertices)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("stats", help="print genus, face profile and q*/b*")
    _add_instance_args(p)
    p.add_argument("--modulus", type=int, default=3)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("dual", help="emit the dual map in SURF-MAP v1")
    _add_instance_args(p)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("gen", help="emit the instance in SURF-MAP v1")
    _add_instance_args(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser(
        "polytope",
        help="dump the integer points of the allowed-homology polytope of the "
        "first realizable boundary (small instances)",
    )
    _add_instance_args(p)
    p.add_argument("--modulus", type=int, default=3)
    p.add_argument("--budget", type=int, default=14, help="edge budget for the brute force")
    p.set_defaults(func=_cmd_polytope)

    p = sub.add_parser("hollow2d-verify", help="verify hollow third-integral polygons are narrow")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--box", nargs=2, type=int, default=[8, 13], metavar=("X3", "Y3"),
                   help="box corner in thirds (default 8 13)")
    g.add_argument("--smoke", action="store_const", dest="box", const=[3, 3],
                   help="shrink the box to [0,1]^2")
    p.add_argument("--bound", type=int, default=42,
                   help="direction max-norm bound (default 42); raise it to widen the search")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.set_defaults(func=_cmd_hollow2d)

    return parser


def run(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (SurfcolorError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:
        print("internal error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 3


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
