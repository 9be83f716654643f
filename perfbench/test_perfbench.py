"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gridcover.bnb import MilpResult, SolveParams  # noqa: E402
from gridcover.grid import GridSpec  # noqa: E402
from gridcover.harness import ExperimentConfig, place_static_milp  # noqa: E402


def bench(cwd, workload, trace=0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def metric_lines(stdout, workload):
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            out[parts[1]] = (parts[2], parts[3])
    return out


def test_benchmark_json_matches_launcher():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_traced_runs_repeat_counts_and_quality():
    runs = [bench(ROOT, "mov10", trace=1) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
    first, second = (metric_lines(p.stdout, "mov10") for p in runs)
    exact = {name for name, (_, unit) in first.items() if unit in ("count", "%")}
    exact |= {name for name, _ in run.QUALITY} | {"harness.warm_fallback_frac"}
    assert exact >= {"simplex.root_lp_pivots", "bnb.search_nodes", "movements", "coverage_pct"}
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}


@pytest.mark.parametrize("workload,corrupt", [
    ("mov10", lambda exp: exp["mov10"].update(movements=5)),
    ("build", lambda exp: exp["build"]["sha256"].update({"cov-8x8-1-1": "0" * 64})),
])
def test_wrong_expected_answer_fails(tmp_path, workload, corrupt):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    path = tmp_path / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    corrupt(expected)
    path.write_text(json.dumps(expected))
    proc = bench(tmp_path, workload)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "build")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_time_limited_solve_counts_as_failed():
    capped = SolveParams(node_limit=40)
    stopped = MilpResult("feasible", {}, 28.0, 29.0, 1 / 28, 12)
    at_cap = MilpResult("feasible", {}, 28.0, 29.0, 1 / 28, 40)
    assert workloads._solve_failures([(capped, stopped)])
    assert not workloads._solve_failures([(capped, at_cap)])
    assert workloads._solve_failures([(SolveParams(), stopped)])


def test_seed_symmetries_preserve_the_deployment():
    grid = GridSpec(8, 8)
    cells = sorted(grid.cells())
    images = {tuple(workloads.symmetry(k, 8)(c) for c in cells) for k in range(8)}
    assert len(images) == 8 and all(sorted(img) == cells for img in images)
    assert workloads.seed_symmetry(0) == 0
    assert {workloads.seed_symmetry(s) for s in range(1, 15)} == set(range(1, 8))

    cfg = ExperimentConfig(rows=8, cols=8, n_static=3, planner="none")
    dep, _ = place_static_milp(cfg)
    for k in range(8):
        moved = workloads.transform_deployment(dep, k, grid, cfg.r_s)
        assert len(moved.covered) == len(dep.covered)
        assert moved.covered | moved.uncovered == set(cells)


def test_pass_clock_leaves_its_samples_out():
    with calibrate.PassClock() as clock:
        time.sleep(1.0)
    during = clock.refs[1:-1]  # the first and last run before and after
    assert len(during) >= 2
    # time.sleep keeps its deadline, so the samples' time comes out of it
    assert abs(clock.wall + sum(r[0] for r in during) - 1.0) < 0.02
    wall, _ = clock.normalised()
    assert wall == clock.wall * calibrate.REFERENCE_S / calibrate.typical(
        [r[0] for r in clock.refs])


def test_typical_drops_preempted_samples():
    assert calibrate.typical([1.0] * 8 + [50.0, 0.01]) == 1.0
    assert calibrate.typical([2.0, 4.0]) == 3.0
