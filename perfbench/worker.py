"""One benchmark run in a fresh process, started by run.py.

Prints `ready` once its set-up (imports, inputs, known answers) is done,
then runs closed-loop passes of one workload for the given seconds and
prints one JSON line with the raw measurements and check results.  Each
timed pass samples the host's speed with the reference work of
calibrate.py and is reported both raw and at the reference speed.  With
--trace 1, untraced and traced passes alternate, so the tracing overhead
is measured in the same process.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import gridcover.bnb
import gridcover.harness

import calibrate
import tracing
import workloads

HERE = Path(__file__).resolve().parent


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    expected = json.loads((HERE / "expected.json").read_text())
    models = workloads.build_models() if args.workload == "build" else None
    namespaces = (gridcover.bnb, gridcover.harness, workloads)
    if args.trace:
        import scipy.optimize  # noqa: F401  (HiGHS, for the cross-check)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    def one_pass(timed: bool, sym: int = 0) -> dict:
        """Run and check one pass; keep only its summary, so memory does not
        grow with the number of passes."""
        trace = tracing.Trace(namespaces, timed)
        # traced passes do not sample the host speed, so no reference work
        # lands inside a span; they are rescaled by the untraced passes' speed
        clock = calibrate.PassClock(sample=not timed)
        gc.collect()  # each pass starts from the same heap, which steadies peak RSS
        with trace.installed():
            if sym:  # the symmetry recheck is not timed
                cases = workloads.run_pass(args.workload, models, sym, trace.solves)
            else:
                with clock:
                    cases = workloads.run_pass(args.workload, models, sym, trace.solves)
        workloads.check(args.workload, cases, expected, sym)
        out = {
            "cases": len(cases),
            "failed": sum(1 for c in cases if c.failures),
            "failures": [f"{c.label}: {f}" for c in cases for f in c.failures],
            "quality": workloads.quality(args.workload, cases),
        }
        if timed:
            out.update(raw_wall=clock.wall, counters=trace.counters(), timings=trace.timings(),
                       span_share=sum(trace.layer_self_s().values()) / clock.wall,
                       root_lps=trace.root_lps)
        elif not sym:
            out["wall"], out["cpu"] = clock.normalised()
            out.update(raw_wall=clock.wall, raw_cpu=clock.cpu, slowdown=clock.slowdown())
        return out

    # closed loop: start passes until the time is up; traced passes take
    # turns with untraced ones
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while not plain or time.perf_counter() < deadline or (args.trace and not traced):
        timed = bool(args.trace) and len(traced) < len(plain)
        (traced if timed else plain).append(one_pass(timed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = plain + traced
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    # every pass must give the same quality metrics: one more check
    attempted = sum(p["cases"] for p in passes) + 1
    quality = passes[0]["quality"]
    if any(p["quality"] != quality for p in passes):
        failed += 1
        failures.append("quality metrics differ between passes of one run")

    out = {
        "run_s": [p["wall"] for p in plain],
        "cpu_s": [p["cpu"] for p in plain],
        "raw_run_s": [p["raw_wall"] for p in plain],
        "raw_cpu_s": [p["raw_cpu"] for p in plain],
        "slowdown": [p["slowdown"] for p in plain],
        "peak_rss_mb": peak_rss_mb,
        "quality": quality,
    }

    if args.trace:
        counters = traced[0]["counters"]
        attempted += 1
        if any(p["counters"] != counters for p in traced):
            failed += 1
            failures.append("work counts differ between traced passes")
        # traced times at the reference speed, by the untraced passes' host speed
        scale = 1.0 / statistics.median(out["slowdown"])
        layers = dict(counters)
        for name in traced[0]["timings"]:
            layers[name] = scale * statistics.median(p["timings"][name] for p in traced)
        layers["trace.overhead_s"] = (scale * statistics.median(p["raw_wall"] for p in traced)
                                      - statistics.median(out["run_s"]))
        layers["trace.span_share"] = statistics.median(p["span_share"] for p in traced)
        root_lps = traced[0]["root_lps"]
        highs_s, mismatches = tracing.highs_check(root_lps)
        layers["simplex.root_lp_highs_s"] = scale * highs_s
        attempted += len(root_lps)
        failed += len(mismatches)
        failures += [f"HiGHS cross-check: {m}" for m in mismatches]
        out["layers"] = layers

    sym = workloads.seed_symmetry(args.seed)
    if args.workload != "build" and sym:
        recheck = one_pass(False, sym)
        attempted += recheck["cases"]
        failed += recheck["failed"]
        failures += [f"symmetry {sym}, {f}" for f in recheck["failures"]]
        out["symmetry"] = sym
        out["symmetry_quality"] = recheck["quality"]

    out.update(attempted=attempted, failed=failed, failures=failures[:20])
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
