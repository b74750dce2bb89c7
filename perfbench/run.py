"""surfcolor benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; surfcolor is imported from ./src
and nowhere else.  One caller, one solve at a time (a closed loop),
in this process only.  With --trace 0 the last line of stdout is a JSON
object with the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a traced replay.  See README.md in this directory.

The end-to-end timings are paired: every call is also made on a frozen
copy of the package (baseline/surfcolor_baseline), next to it, and the
timings are scaled by how fast that copy ran in the same run against its
recorded times.  See "Paired baseline" in README.md.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import signal
import statistics
import sys
from time import perf_counter

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
BASELINE_DIR = os.path.join(HERE, "baseline")
CURRENT = "surfcolor"
BASELINE = "surfcolor_baseline"
WORKLOADS = ("tri-stream", "quad-precolored", "hollow2d-box")
# the frozen baseline's time for one pass of each workload (the sum of its
# per-instance mean calls) and for one set-up: medians over 5 runs on the
# shared 2-core VM the benchmark was written on.  They fix the unit of the
# reported timings and never change.
BASELINE_PASS_S = {"tri-stream": 13.1, "quad-precolored": 7.44, "hollow2d-box": 6.32}
BASELINE_SETUP_S = {"tri-stream": 0.0400, "quad-precolored": 0.0855, "hollow2d-box": 0.0335}
# set-ups before the timed loop, and again after it
SETUP_REPS = 10
# a run must end within 180 s; this long after the process starts, the
# solve in flight is abandoned and every first-pass solve not yet
# attempted fails
RUN_BUDGET_S = 150.0
PROCESS_START = perf_counter()


class Overrun(BaseException):
    """Raised from the timer signal when the run budget is spent.  Not an
    Exception, so no handler inside the solver can swallow it."""


def _on_alarm(signum, frame):
    raise Overrun()


# --- set-up ---------------------------------------------------------------

def import_package(name):
    """Import surfcolor from ./src, or its baseline copy from baseline/,
    dropping any copy already loaded."""
    for mod in [n for n in sys.modules if n == name or n.startswith(name + ".")]:
        del sys.modules[mod]
    pkg = importlib.import_module(name)
    home = SRC if name == CURRENT else BASELINE_DIR
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(home, name):
        raise ImportError("%s was not imported from %s" % (name, home))
    for layer in tracer.LAYERS + ("cli",):
        importlib.import_module(name + "." + layer)


def build(workload, seed, pkg):
    reference = workloads.load_reference()
    if workload == "tri-stream":
        base = workloads.tri_base(pkg)
    elif workload == "quad-precolored":
        base = [workloads.quad_base(i, pkg) for i in range(len(workloads.QUAD_PLAN))]
    else:
        return [reference["hollow2d-box"]]
    return workloads.for_seed(workloads.with_reference(base, reference, workload), seed, workload)


def setup(workload, seed, pkgs):
    """Import each package and build its copy of the instances with their
    expected answers, SETUP_REPS times, the packages in turns; the last
    copies are the ones measured.  Returns ({package: ops},
    {package: wall seconds of each set-up})."""
    ops = {}
    times = {pkg: [] for pkg in pkgs}
    for rep in range(SETUP_REPS):
        turn = rep % len(pkgs)
        for pkg in pkgs[turn:] + pkgs[:turn]:
            ops[pkg] = None
            gc.collect()
            start = perf_counter()
            import_package(pkg)
            ops[pkg] = build(workload, seed, pkg)
            times[pkg].append(perf_counter() - start)
    return ops, times


# --- one operation --------------------------------------------------------

def run_op(op, pkg):
    """Time one call of the workload's entry point in package `pkg`, in
    wall seconds.  Returns (seconds, signature, failure or None)."""
    if isinstance(op, workloads.Instance):
        solver = sys.modules[pkg + ".solver"]
        pre = solver.Precoloring(op.m, op.psi)
        start = perf_counter()
        res = solver.extend_precoloring(op.map, pre)
        elapsed = perf_counter() - start
        # a digest, not the coloring: thousands of kept colorings would slow
        # the garbage collector during the timed solves
        coloring = hash(tuple(sorted(res.coloring.items()))) if res.extendable else None
        signature = (res.extendable, coloring, res.boundaries_tried, res.points_tested)
        if res.extendable != op.expected:
            return elapsed, signature, "verdict %s, expected %s" % (res.extendable, op.expected)
        if signature[2:] != op.counts:
            return elapsed, signature, "solver counts %r, reference %r" % (signature[2:], op.counts)
        if op.planted and not res.extendable:
            return elapsed, signature, "planted precoloring reported NONE"
        if res.extendable and not workloads.is_homomorphism(op.map, op.m, res.coloring, op.psi):
            return elapsed, signature, "coloring fails the homomorphism check"
        return elapsed, signature, None
    hollow2d = sys.modules[pkg + ".hollow2d"]
    start = perf_counter()
    report = hollow2d.enumerate_and_verify(tuple(op["box"]), jobs=1)
    elapsed = perf_counter() - start
    signature = (report.hulls_examined, report.maximal_hulls, len(report.failures))
    if signature != (op["hulls_examined"], op["maximal_hulls"], op["unresolved"]):
        return elapsed, signature, "report counts %r differ from the reference" % (signature,)
    return elapsed, signature, None


class Loop:
    """A closed loop over the ops in rounds: a round calls one op once in
    every package of `pkgs`, back to back, the order turning from op to op
    and from pass to pass.  The first pass over the ops always runs.  After
    it the loop stops when `passes` are done, or before a round that would
    end after `seconds` if it took as long as that op's last round.  An
    overrun fails the call in flight and every first-pass call not
    attempted."""

    def __init__(self, ops, pkgs):
        # ops[pkg] holds the same instances in the same order for each package
        self.ops = ops
        self.pkgs = pkgs
        self.count = len(ops[pkgs[0]])
        # per package: (op index, wall seconds) of every completed call
        self.samples = {pkg: [] for pkg in pkgs}
        self.signatures = {pkg: [] for pkg in pkgs}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.rounds = 0
        self.wall = 0.0

    def run(self, deadline, seconds=None, passes=None):
        start = perf_counter()
        last = [0.0] * self.count
        index, pkg = 0, self.pkgs[0]
        signal.setitimer(signal.ITIMER_REAL, max(deadline - start, 0.001))
        try:
            while True:
                index, done_passes = self.rounds % self.count, self.rounds // self.count
                if done_passes and passes is not None and done_passes >= passes:
                    break
                if done_passes and seconds is not None and perf_counter() - start + last[index] > seconds:
                    break
                round_start = perf_counter()
                turn = (done_passes + index) % len(self.pkgs)
                for pkg in self.pkgs[turn:] + self.pkgs[:turn]:
                    self.attempted += 1
                    try:
                        elapsed, signature, failure = run_op(self.ops[pkg][index], pkg)
                    except Exception as exc:
                        self._fail(pkg, index, "%s: %s" % (type(exc).__name__, exc))
                        self.signatures[pkg].append(None)
                        continue
                    self.samples[pkg].append((index, elapsed))
                    self.signatures[pkg].append(signature)
                    if failure:
                        self._fail(pkg, index, failure)
                last[index] = perf_counter() - round_start
                self.rounds += 1
        except Overrun:
            self._fail(pkg, index, "run budget of %.0f s spent" % RUN_BUDGET_S)
            unattempted = self.count * len(self.pkgs) - self.attempted
            if unattempted > 0:
                self.attempted += unattempted
                self.failed += unattempted
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall = perf_counter() - start
        return self

    def per_op(self, pkg):
        """Each op's mean wall seconds over its calls in `pkg`; ops that
        never completed are left out."""
        calls = {}
        for index, elapsed in self.samples[pkg]:
            calls.setdefault(index, []).append(elapsed)
        return [statistics.fmean(ts) for ts in calls.values()]

    def _fail(self, pkg, index, reason):
        self.failed += 1
        self.failures.append("%s op %d: %s" % (pkg, index, reason))


# --- metrics --------------------------------------------------------------

def end_to_end(workload, loop, setup_times, peak_rss_mb):
    # Paired timings: the shared VM's cores slow down by up to half in
    # spells of seconds to many minutes, so raw timings of the same code
    # moved by 0.14 to 0.33 (interquartile range over median) between runs.
    # The baseline makes the same calls next to the current package and
    # slows with it; `speed` is its recorded pass time over its pass time
    # in this run.  Each instance's mean over all its calls, so every
    # instance weighs the same however often it ran.
    current, baseline = loop.per_op(CURRENT), loop.per_op(BASELINE)
    if not current or len(baseline) != len(current):
        current, baseline = [0.0], [1.0]
    speed = BASELINE_PASS_S[workload] / sum(baseline)
    per = [t * speed for t in current]
    setup_speed = BASELINE_SETUP_S[workload] / statistics.median(setup_times[BASELINE])
    return {
        "op_p50_ms": (statistics.median(per) * 1000.0, "ms"),
        "ops_per_s": (len(per) / sum(per) if sum(per) else 0.0, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_times[CURRENT]) * setup_speed, "s"),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tr, overhead, hollow_counts):
    ms = 1000.0
    g = tr.get
    enumerated = g("flows.relevant_boundaries").hits
    realized = g("flows.nowhere_zero_flow_with_boundary").hits
    tested = g("lattice.membership").calls
    inside = tested - g("lattice.membership").hits
    lattice_other = sum(
        rec.self for key, rec in tr.records.items()
        if key.startswith("lattice.") and key not in (
            "lattice.membership", "lattice.rhs_table", "lattice.residue_difference_solve")
    )
    hulls, maximal, unresolved = hollow_counts
    return {
        "flows.boundaries_enumerated": (enumerated, "count"),
        "flows.boundaries_realized": (realized, "count"),
        "flows.realized_ratio": (_ratio(realized, enumerated), "ratio"),
        "flows.stream_ms": (g("flows.relevant_boundaries").self * ms, "ms"),
        "flows.maxflow_ms": (g("flows.flow_with_boundary").self * ms, "ms"),
        "flows.completion_ms": (g("flows.nowhere_zero_completion").self * ms, "ms"),
        "flows.realize_calls": (g("flows.nowhere_zero_flow_with_boundary").calls, "count"),
        "circulation.engine_ms": (_layer_self(tr, "circulation") * ms, "ms"),
        "circulation.engine_calls": (g("circulation.circulation_or_certificate").calls, "count"),
        "circulation.certificates": (g("circulation.circulation_or_certificate").hits, "count"),
        "lattice.search_ms": (lattice_other * ms, "ms"),
        "lattice.points_tested": (tested, "count"),
        "lattice.points_inside": (inside, "count"),
        "lattice.inside_ratio": (_ratio(inside, tested), "ratio"),
        "lattice.membership_ms": (g("lattice.membership").self * ms, "ms"),
        "lattice.rhs_table_ms": (g("lattice.rhs_table").self * ms, "ms"),
        "lattice.rhs_table_calls": (g("lattice.rhs_table").calls, "count"),
        "lattice.residue_solve_ms": (g("lattice.residue_difference_solve").self * ms, "ms"),
        "lattice.residue_feasible": (g("lattice.residue_difference_solve").hits, "count"),
        "homology.basis_ms": (g("homology.cohomology_basis").self * ms, "ms"),
        "homology.copaths_ms": (g("homology.copaths_from").self * ms, "ms"),
        "surface_map.dual_ms": (_layer_self(tr, "surface_map") * ms, "ms"),
        "solver.decode_ms": (g("solver.flow_to_coloring").self * ms, "ms"),
        "solver.verify_ms": (g("solver.verify_homomorphism").self * ms, "ms"),
        "solver.self_ms": (g("solver.extend_precoloring").self * ms, "ms"),
        "hollow2d.hulls_examined": (hulls, "count"),
        "hollow2d.maximal_hulls": (maximal, "count"),
        "hollow2d.unresolved": (unresolved, "count"),
        "hollow2d.verify_ms": (_layer_self(tr, "hollow2d") * ms, "ms"),
        "trace.overhead_frac": (overhead, "ratio"),
    }


def _layer_self(tr, layer):
    return sum(rec.self for key, rec in tr.records.items() if key.startswith(layer + "."))


def hit_tests():
    circulation = sys.modules["surfcolor.circulation"]
    return {
        # a certificate means the queried point is outside the polytope
        "circulation.circulation_or_certificate": lambda r: isinstance(r, circulation.Certificate),
    }


# --- entry point ----------------------------------------------------------

def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "surfcolor", "__init__.py")):
        print("no surfcolor sources under %s; run from a source checkout" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BASELINE_DIR]

    # the traced run needs no baseline: its metrics are not compared
    # between runs but read side by side within one
    pkgs = (CURRENT,) if args.trace else (CURRENT, BASELINE)
    ops, setup_times = setup(args.workload, args.seed, pkgs)
    # the instances live for the whole run; keep the collector off them
    gc.collect()
    gc.freeze()
    signal.signal(signal.SIGALRM, _on_alarm)
    deadline = PROCESS_START + RUN_BUDGET_S
    plain = Loop(ops, pkgs).run(deadline, seconds=args.seconds / 2 if args.trace else args.seconds)
    if args.trace:
        with tracer.Tracer(hit_tests()) as tr:
            traced = Loop(ops, (CURRENT,)).run(deadline, passes=1)

    loops = [plain] + ([traced] if args.trace else [])
    attempted = sum(l.attempted for l in loops)
    failed = sum(l.failed for l in loops)
    notes = [f for l in loops for f in l.failures]
    count = plain.count
    first_pass = plain.signatures[CURRENT][:count]
    traced_signatures = traced.signatures[CURRENT] if args.trace else []
    solves = args.workload != "hollow2d-box"

    if args.trace:
        # the wrappers must see every call and change nothing
        mismatched = sum(a != b for a, b in zip(first_pass, traced_signatures))
        if mismatched:
            failed += mismatched
            notes.append("traced and untraced outputs differ on %d solves" % mismatched)
        hollow_counts = (0, 0, 0)
        if solves:
            reported = (sum(s[2] for s in traced_signatures if s), sum(s[3] for s in traced_signatures if s))
            seen = (tr.get("flows.nowhere_zero_flow_with_boundary").calls, tr.get("lattice.membership").calls)
            if seen != reported:
                failed += 1
                notes.append("traced (realize calls, points) %r != solver-reported %r" % (seen, reported))
        elif traced_signatures and traced_signatures[0]:
            hollow_counts = traced_signatures[0]
        overhead = 0.0
        if plain.samples[CURRENT] and len(traced.samples[CURRENT]) == count:
            overhead = sum(traced.per_op(CURRENT)) / sum(plain.per_op(CURRENT)) - 1.0
        metrics = per_layer(tr, overhead, hollow_counts)
    else:
        # read before the closing set-ups, which build a second copy of
        # the instances
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # set-up is the median of its repeats, from two windows a run
        # apart: a set-up lasts 20-80 ms and its first repeat also compiles
        for pkg, times in setup(args.workload, args.seed, pkgs)[1].items():
            setup_times[pkg] += times
        metrics = end_to_end(args.workload, plain, setup_times, peak_rss_mb)

    print("workload %s seed %d trace %d: %d rounds of %d ops in %.2f s over %s"
          % (args.workload, args.seed, args.trace, plain.rounds, plain.count, plain.wall, " and ".join(pkgs)))
    for pkg in pkgs:
        per = plain.per_op(pkg)
        if per:
            print("%s raw: %d calls, op_p50_ms %.1f, ops_per_s %.4f, pass %.3f s, set-up median %.4f s"
                  % (pkg, len(plain.samples[pkg]), statistics.median(per) * 1000.0, len(per) / sum(per),
                     sum(per), statistics.median(setup_times[pkg])))
    if len(plain.samples[CURRENT]) >= 100:
        times = [t for _, t in plain.samples[CURRENT]]
        print("op_p90_ms %.3f raw over %d calls" % (statistics.quantiles(times, n=10)[-1] * 1000.0, len(times)))
    if solves:
        print("per pass: boundaries_tried %d, points_tested %d, extendable %d of %d" % (
            sum(s[2] for s in first_pass if s), sum(s[3] for s in first_pass if s),
            sum(1 for s in first_pass if s and s[0]), count))
    elif "ops_per_s" in metrics:
        print("hulls_per_s %.1f (%d hulls per call)"
              % (ops[CURRENT][0]["hulls_examined"] * metrics["ops_per_s"][0], ops[CURRENT][0]["hulls_examined"]))
    print("fail_rate %d/%d" % (failed, attempted))
    for note in notes[:20]:
        print("FAIL " + note)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
