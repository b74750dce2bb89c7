"""Rebuild perfbench/reference.json.

    python3 perfbench/make_reference.py

Run from the root of a source checkout.  Solves every tri-stream and
quad-precolored instance, checks each coloring, requires planted
instances to extend, and cross-checks each verdict by backtracking where
that finishes within BACKTRACK_NODES search nodes (always, on tri-stream).
Records each instance's verdict and solver counts, and the hollow2d-box
report.  Stops on the first disagreement; takes about 2 minutes.
"""

import json
import os
import sys
from time import perf_counter

import workloads

ROOT = os.path.dirname(workloads.HERE)
BACKTRACK_NODES = 200000


def solve_all(name, instances):
    """The reference rows of one workload, and how many were backtracked."""
    from surfcolor import solver

    table = {}
    checked = 0
    for index, inst in enumerate(instances):
        t0 = perf_counter()
        res = solver.extend_precoloring(inst.map, solver.Precoloring(inst.m, inst.psi))
        solve_s = perf_counter() - t0
        if res.extendable and not workloads.is_homomorphism(inst.map, inst.m, res.coloring, inst.psi):
            raise SystemExit("%s instance %d: coloring fails the homomorphism check" % (name, index))
        if inst.planted and not res.extendable:
            raise SystemExit("%s instance %d: planted precoloring reported NONE" % (name, index))
        oracle = workloads.backtrack_extendable(inst.map, inst.m, inst.psi, BACKTRACK_NODES)
        if oracle is not None:
            if oracle != res.extendable:
                raise SystemExit("%s instance %d: backtracking disagrees with the solver" % (name, index))
            checked += 1
        table[str(index)] = {
            "fingerprint": workloads.fingerprint(inst.map, inst.m, inst.psi),
            "extendable": res.extendable,
            "backtracked": oracle is not None,
            "boundaries_tried": res.boundaries_tried,
            "points_tested": res.points_tested,
        }
        print("%s %d/%d %r %s %.0f ms" % (name, index + 1, len(instances), inst.key,
                                         res.extendable, solve_s * 1000.0), file=sys.stderr)
    return table, checked


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from surfcolor import hollow2d

    tri, _ = solve_all("tri-stream", workloads.tri_base())
    quad, checked = solve_all(
        "quad-precolored", [workloads.quad_base(i) for i in range(len(workloads.QUAD_PLAN))])
    report = hollow2d.enumerate_and_verify(workloads.HOLLOW_BOX, jobs=1)
    reference = {
        "quad-precolored-summary": {
            "instances": len(quad),
            "extendable": sum(r["extendable"] for r in quad.values()),
            "backtracked": checked,
            "backtrack_nodes": BACKTRACK_NODES,
        },
        "hollow2d-box": {
            "box": list(workloads.HOLLOW_BOX),
            "hulls_examined": report.hulls_examined,
            "maximal_hulls": report.maximal_hulls,
            "unresolved": len(report.failures),
        },
        "tri-stream": tri,
        "quad-precolored": quad,
    }
    with open(workloads.REFERENCE_PATH, "w", encoding="ascii") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(reference["quad-precolored-summary"]), file=sys.stderr)


if __name__ == "__main__":
    main()
