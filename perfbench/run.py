"""Layered benchmark for gridcover: one workload per run.

    python3 perfbench/run.py --workload {build,table8,mov10} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`src/`.  The launcher pins BLAS/OpenMP pools to one thread, starts the
worker in a fresh interpreter several times to time set-up, then lets one
worker start closed-loop passes until S seconds are up (one process, one
thread, one case after another; every solve is capped by node count).  It prints each
metric as `<workload> <metric> <value> <unit>`, then one JSON line:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
It exits 1 when an output check fails and 2 when it cannot run at all.

Every time it reports (run_s, cpu_s, setup_s and the per-layer times) is
rescaled to a reference host speed by the reference work of calibrate.py,
sampled while each stretch is timed, because the shared hosts this runs on drift
in speed by more than any bound worth holding a change to.  The raw times
are printed too, as `raw_run_s`, `raw_cpu_s` and `raw_setup_s`, with
`host_slowdown`, the reference work's time over its reference time.

Seed 0 runs the acceptance configurations as written.  A seed s > 0 runs
the same timed passes and then, untimed, rechecks the known answers on the
instances that one of the square grid's symmetries makes of each solved
static deployment (see workloads.py).

Workloads (see workloads.py for the known answers they are checked against):
  build   the 144 static/cov/mov models of the criterion-1 grid set, each
          built, counted, turned into solver arrays and written as LP text;
          nothing is solved.  Isolates the model layers.
  table8  the six 8x8 coverage-table rows (criterion 4): exact placement,
          exact coverage planning, evaluation.  Many small node LPs.
  mov10   10x10 movement minimization run to a proof, then the coverage
          plan (criterion 5).  Dominated by one large cold root LP.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("build", "table8", "mov10")
SETUP_SAMPLES = 5
SETUP_REFS = 3  # units of reference work before each set-up sample
RUN_TIMEOUT_S = 170.0

END_TO_END = (("run_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
QUALITY = (("fail_frac", "ratio"), ("coverage_pct", "%"), ("optimal_frac", "ratio"),
           ("bound_gap", "count"), ("movements", "count"))
PER_LAYER = (
    ("formulations.build_s", "s"), ("formulations.build_calls", "count"),
    ("simplex.lpdata_s", "s"), ("milp.lp_text_s", "s"), ("milp.stats_s", "s"),
    ("simplex.root_lp_s", "s"), ("simplex.root_lp_calls", "count"),
    ("simplex.root_lp_pivots", "count"), ("simplex.root_lp_us_per_pivot", "us"),
    ("simplex.root_lp_highs_s", "s"),
    ("simplex.node_lp_s", "s"), ("simplex.node_lp_calls", "count"),
    ("simplex.node_lp_pivots", "count"), ("simplex.node_lp_infeasible", "count"),
    ("simplex.node_lp_us_per_pivot", "us"),
    ("simplex.repair_lp_calls", "count"), ("simplex.repair_lp_s", "s"),
    ("bnb.self_s", "s"), ("bnb.search_nodes", "count"), ("bnb.dive_calls", "count"),
    ("bnb.dive_nodes", "count"),
    ("harness.warm_start_s", "s"), ("harness.warm_start_calls", "count"),
    ("harness.warm_fallback_frac", "ratio"),
    ("formulations.decode_s", "s"), ("grid.evaluate_s", "s"),
    ("trace.overhead_s", "s"), ("trace.span_share", "ratio"),
)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def provenance() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            **versions, "commit": commit}


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def start_worker(args, setup_only: bool):
    """Start a worker; return it with its set-up time (until it says ready)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    line = proc.stdout.readline()
    took = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker failed during set-up: {line.strip()!r}")
    return proc, took


def finish(proc, deadline: float) -> str:
    try:
        stdout, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker ran past the {RUN_TIMEOUT_S} s limit")
    finally:
        if proc.poll() is None:  # timed out or interrupted: never leave it running
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return stdout


def run_worker(args):
    """Run the worker; return its result, the raw set-up times and the
    reference-work times measured between the set-up samples."""
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    setup, refs = [], []
    for sample in range(SETUP_SAMPLES):
        refs += [calibrate.measure()[0] for _ in range(SETUP_REFS)]
        proc, took = start_worker(args, setup_only=sample < SETUP_SAMPLES - 1)
        setup.append(took)
        if sample < SETUP_SAMPLES - 1:
            finish(proc, deadline)
    stdout = finish(proc, deadline)
    if not stdout.strip():
        raise RuntimeError("worker printed no result")
    return json.loads(stdout.strip().splitlines()[-1]), setup, refs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    # a terminated launcher unwinds, and so stops its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "gridcover" / "__init__.py").is_file():
        print(f"error: no gridcover sources under {SRC}", file=sys.stderr)
        return 2
    try:
        raw, setup, refs = run_worker(args)
    except (RuntimeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    w = args.workload
    print("# provenance " + json.dumps(provenance()))
    print(f"# {w}: {len(raw['run_s'])} untraced passes, run_s "
          + " ".join(f"{t:.4f}" for t in raw["run_s"]) + "; raw set-up samples "
          + " ".join(f"{t:.4f}" for t in setup))
    e2e = {
        "run_s": statistics.median(raw["run_s"]),
        "cpu_s": statistics.median(raw["cpu_s"]),
        "setup_s": calibrate.rescale(statistics.median(setup), refs),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    for name, unit in END_TO_END:
        print(f"{w} {name} {e2e[name]:.6g} {unit}")
    for name, value in (("raw_run_s", statistics.median(raw["raw_run_s"])),
                        ("raw_cpu_s", statistics.median(raw["raw_cpu_s"])),
                        ("raw_setup_s", statistics.median(setup))):
        print(f"{w} {name} {value:.6g} s")
    print(f"{w} host_slowdown {statistics.median(raw['slowdown']):.4g} ratio")
    quality = dict(raw["quality"], fail_frac=raw["failed"] / raw["attempted"])
    for name, unit in QUALITY:
        value = quality.get(name)
        print(f"{w} {name} {'n/a' if value is None else f'{value:.6g}'} {unit}")
    if "symmetry" in raw:
        for name, unit in QUALITY:
            value = raw["symmetry_quality"].get(name)
            if value is not None:
                print(f"{w} symmetry{raw['symmetry']}.{name} {value:.6g} {unit}")
    if args.trace:
        for name, unit in PER_LAYER:
            print(f"{w} {name} {raw['layers'][name]:.6g} {unit}")
    for failure in raw["failures"]:
        print(f"# FAILED {w}: {failure}")

    table, values = (PER_LAYER, raw["layers"]) if args.trace else (END_TO_END, e2e)
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }))
    return 0 if raw["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
