"""End-to-end acceptance suite.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion.  Exact solves are warm-started and capped well below the
reference 18000 s budget; checks are on achieved coverage/movement values
recomputed from decoded plans, never on solver-reported objectives alone.

Every exact solve performed by criteria 2-6 is recorded so the
coverage-variable integrality audit (criterion 7) runs over all of them.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from gridcover.bnb import solve_milp
from gridcover.formulations import (
    build_milp_cov,
    build_milp_mov,
    build_milp_static,
    decode_plan,
    decode_static,
)
from gridcover.grid import (
    GridSpec,
    SensorParams,
    evaluate_plan,
    sensing_footprint,
    static_coverage,
)
from gridcover.harness import (
    ExperimentConfig,
    place_static_milp,
    plan_mobile_milp,
    run_pipeline,
)
from gridcover.milp import instance_stats
from gridcover.simplex import solve_lp

from oracles import (
    best_coverage_plan,
    best_static_placement,
    milp_by_enumeration,
    min_movements_plan,
)
from test_bnb import random_milp

RECORDED_SOLVES = []  # (label, handle, assignment) from criteria 2-6


def record(label, handle, assignment):
    if assignment is not None:
        RECORDED_SOLVES.append((label, handle, assignment))


def passed(line):
    print(f"\nACCEPTANCE {line}: PASS")


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_instance_statistics_identity():
    build_milp_cov(GridSpec(4, 4), sorted(GridSpec(4, 4).cells()), 1, 1)  # warm-up
    mismatches = []
    t0 = time.perf_counter()
    for rows, cols in itertools.product((8, 10, 12), repeat=2):
        grid = GridSpec(rows, cols)
        cells_all = sorted(grid.cells())
        C = rows * cols
        for n_static in (1, 3, 5, 10):
            s = instance_stats(build_milp_static(grid, n_static).instance)
            want = (n_static * C, n_static * C, n_static + (n_static + 1) * C)
            if (s.n_binary, s.n_continuous, s.n_constraints) != want:
                mismatches.append(("static", rows, cols, n_static, s, want))
        for n_mobile in (1, 3, 5):
            for k_max in (1, 4):
                want_rows = n_mobile * k_max * (3 * C + 1) + C * (2 - n_mobile)
                sizes = (n_mobile * k_max * C, (1 + n_mobile * k_max) * C)
                s = instance_stats(
                    build_milp_cov(grid, cells_all, n_mobile, k_max).instance
                )
                if (s.n_binary, s.n_continuous, s.n_constraints) != sizes + (want_rows,):
                    mismatches.append(("cov", rows, cols, n_mobile, k_max, s))
                s = instance_stats(
                    build_milp_mov(grid, cells_all, 0, n_mobile, k_max,
                                   coverage_target=1).instance
                )
                if (s.n_binary, s.n_continuous, s.n_constraints) != sizes + (want_rows + 1,):
                    mismatches.append(("mov", rows, cols, n_mobile, k_max, s))
    elapsed = time.perf_counter() - t0
    assert not mismatches, mismatches
    assert elapsed < 1.0, f"stats sweep took {elapsed:.3f}s (budget 1 s)"
    passed(f"criterion 1 (instance statistics, {elapsed:.2f}s)")


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()

    rng = random.Random(20240817)
    for _ in range(50):
        m = random_milp(rng)
        want_status, want = milp_by_enumeration(
            m, lp_solver=lambda inst, fixed: solve_lp(inst, fixed)
        )
        res = solve_milp(m)
        if want_status == "infeasible":
            assert res.status == "infeasible"
        else:
            assert res.status == "optimal"
            assert res.objective == pytest.approx(want, abs=1e-6)

    # static placement on 3x3/4x4 against exhaustive search
    for side, n_static in [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]:
        grid = GridSpec(side, side)
        want, _ = best_static_placement(grid, n_static, 1, 1, 4.0)
        handle = build_milp_static(grid, n_static, 1, 1, 4.0)
        res = solve_milp(handle.instance)
        if want < 0:
            assert res.status == "infeasible"
        elif n_static == 2 and side == 3:
            assert res.status == "infeasible"  # no two disjoint footprints fit
        else:
            assert res.status == "optimal"
            assert res.objective == pytest.approx(want, abs=1e-6)
            record(f"static-{side}-{n_static}", handle, res.incumbent)

    # joint-path exhaustive oracles for the mobile formulations
    combos_3 = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]
    combos_4 = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]
    for side, combos in ((3, combos_3), (4, combos_4)):
        grid = GridSpec(side, side)
        c1 = sorted(grid.cells())
        for n_mobile, k_max in combos:
            want = best_coverage_plan(grid, c1, n_mobile, k_max, 1, 2, 2, 3)
            handle = build_milp_cov(grid, c1, n_mobile, k_max)
            res = solve_milp(handle.instance)
            if want < 0:
                # overlap cap exceeded by any joint plan (on 3x3 every
                # footprint contains the center cell)
                assert res.status == "infeasible", (side, n_mobile, k_max)
                continue
            assert res.status == "optimal"
            assert res.objective == pytest.approx(want, abs=1e-6), (side, n_mobile, k_max)
            record(f"cov-{side}-{n_mobile}-{k_max}", handle, res.incumbent)

            want_mov = min_movements_plan(
                grid, c1, 0, n_mobile, k_max, 1, 2, 2, 3, Fraction(1)
            )
            handle = build_milp_mov(grid, c1, 0, n_mobile, k_max, coverage_target=1)
            res = solve_milp(handle.instance)
            if want_mov is None:
                assert res.status == "infeasible"
            else:
                assert res.status == "optimal"
                assert res.objective == pytest.approx(want_mov, abs=1e-6)
                record(f"mov-{side}-{n_mobile}-{k_max}", handle, res.incumbent)

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"oracle equivalence took {elapsed:.1f}s (budget 2 min)"
    passed(f"criterion 2 (oracle equivalence, {elapsed:.1f}s)")


# -- criterion 3 -------------------------------------------------------------


def test_criterion_3a_static_desk_check_3x3():
    handle = build_milp_static(GridSpec(3, 3), 1, 1, 1, 4.0)
    res = solve_milp(handle.instance)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(33.0)
    deployment = decode_static(handle, res.incumbent)
    assert [tuple(p) for p in deployment.positions] == [(2, 2)]
    record("static-3x3", handle, res.incumbent)
    passed("criterion 3a (3x3 objective 33 at (2,2))")


def _solve_8x8_five_nodes():
    config = ExperimentConfig(rows=8, cols=8, n_static=5, placement="milp-static",
                              planner="none", time_limit=240)
    deployment, result = place_static_milp(config)
    return deployment, result


def test_criterion_3b_static_8x8_disjoint_footprints():
    deployment, result = _solve_8x8_five_nodes()
    grid = GridSpec(8, 8)
    cells = [
        c for p in deployment.positions for c in static_coverage([p], 1, grid)[0]
    ]
    assert len(cells) == len(set(cells)), "footprints overlap despite c_o=1"
    passed("criterion 3b (8x8 five-node footprints disjoint)")


def test_criterion_3c_static_8x8_covered_count_as_stated():
    # The covered count of the five-node 8x8 placement is 42, not 45 = 5 * 9.
    # Proof: a full 3x3 footprint inside 8x8 has its centre in rows and
    # columns 2..7, so it contains one of the four cells {3,6}x{3,6}. With
    # c_o = 1 the footprints are disjoint, so at most four are full, and the
    # fifth is clipped to at most 6 cells: at most 36 + 6 = 42. The
    # exhaustive search (independent of the builders and the solver) finds
    # objective 108 at 8 placements, and every one of them covers 42 cells.
    # Both facts are checked below; the harness placement must cover exactly
    # the count that every exhaustive optimum covers.
    grid, n_static = GridSpec(8, 8), 5
    hubs = {(i, j) for i in (3, 6) for j in (3, 6)}
    footprints = [sensing_footprint(c, 1, grid) for c in grid.cells()]
    full = [fp for fp in footprints if len(fp) == 9]
    assert full and all(fp & hubs for fp in full), "a full footprint misses {3,6}x{3,6}"
    largest_clipped = max(len(fp) for fp in footprints if len(fp) < 9)
    n_full = min(n_static, len(hubs))  # disjoint footprints share no hub
    bound = 9 * n_full + largest_clipped * (n_static - n_full)
    assert bound == 42 < 5 * 9

    _, optima = best_static_placement(grid, n_static, 1, 1, 4.0)
    counts = {len(static_coverage(list(p), 1, grid)[0]) for p in optima}
    assert counts == {bound}, f"exhaustive optima cover {sorted(counts)} cells"

    deployment, result = _solve_8x8_five_nodes()
    assert len(deployment.covered) == bound, (
        f"covered count is {len(deployment.covered)}; every optimal placement "
        f"covers {bound}"
    )
    passed("criterion 3c (8x8 five-node covered count 42)")


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_table_coverage_rows():
    t0 = time.perf_counter()
    expect_full = [(1, 5), (2, 3), (2, 5), (3, 3), (3, 5)]
    got = {}
    for n_mobile, n_static in expect_full + [(1, 3)]:
        config = ExperimentConfig(
            rows=8, cols=8, n_static=n_static, n_mobile=n_mobile, k_max=4,
            placement="milp-static", planner="milp-cov", seeds=(0,),
            time_limit=240, node_limit=40,
        )
        deployment, _ = place_static_milp(config)
        handle, plan, result = plan_mobile_milp(config, deployment)
        record(f"tableII-{n_mobile}-{n_static}", handle, result.incumbent)
        report = evaluate_plan(deployment, plan, config.sensor_params, config.grid)
        got[(n_mobile, n_static)] = report.coverage_pct
    for key in expect_full:
        assert got[key] == pytest.approx(100.0), (key, got[key])
    assert 85.93 - 6 <= got[(1, 3)] <= 85.93 + 6, got[(1, 3)]
    elapsed = time.perf_counter() - t0
    passed(
        "criterion 4 (coverage table rows: "
        + ", ".join(f"L={l}/N_s={n}: {got[(l, n)]:.2f}%" for l, n in got)
        + f"; {elapsed:.0f}s)"
    )


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_movement_minimization_10x10():
    t0 = time.perf_counter()
    base = dict(rows=10, cols=10, n_static=10, n_mobile=3, k_max=4,
                placement="milp-static", seeds=(0,), time_limit=300, node_limit=60)
    mov_cfg = ExperimentConfig(planner="milp-mov", coverage_target=1, **base)
    deployment, _ = place_static_milp(mov_cfg)

    handle, mov_plan, mov_result = plan_mobile_milp(mov_cfg, deployment)
    record("tableIV-mov", handle, mov_result.incumbent)
    assert mov_plan is not None
    movements = mov_plan.movements
    assert 5 <= movements <= 7, f"movement-minimization gave {movements}, expected 6 +/- 1"

    cov_cfg = ExperimentConfig(planner="milp-cov", coverage_target=1, **base)
    handle, cov_plan, cov_result = plan_mobile_milp(cov_cfg, deployment)
    record("tableIV-cov", handle, cov_result.incumbent)
    assert cov_plan is not None
    cov_movements = evaluate_plan(
        deployment, cov_plan, cov_cfg.sensor_params, cov_cfg.grid
    ).movements_to(1)
    assert cov_movements is not None, "coverage plan never reaches full coverage"
    assert cov_movements >= movements
    elapsed = time.perf_counter() - t0
    passed(
        f"criterion 5 (movements: minimization {movements} [{mov_result.status}], "
        f"coverage-derived {cov_movements}; {elapsed:.0f}s)"
    )


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_planner_ordering_10x10():
    t0 = time.perf_counter()
    seeds = (0, 1, 2, 3, 4)
    lines = []
    for n_static in (0, 5, 10):
        placement = "milp-static" if n_static else "none"
        cov_cfg = ExperimentConfig(
            rows=10, cols=10, n_static=n_static, n_mobile=3, k_max=4,
            placement=placement, planner="milp-cov", seeds=(0,),
            time_limit=300, node_limit=1 if n_static == 0 else 10,
        )
        deployment = place_static_milp(cov_cfg)[0] if n_static else None
        handle, plan, result = plan_mobile_milp(cov_cfg, deployment)
        record(f"fig3-cov-{n_static}", handle, result.incumbent)
        cov_pct = evaluate_plan(
            deployment, plan, cov_cfg.sensor_params, cov_cfg.grid
        ).coverage_pct

        means = {}
        for planner in ("greedy", "random"):
            rows = run_pipeline(ExperimentConfig(
                rows=10, cols=10, n_static=n_static, n_mobile=3, k_max=4,
                placement=placement, planner=planner, seeds=seeds,
            ))
            means[planner] = sum(r.coverage_pct for r in rows) / len(rows)

        assert cov_pct >= means["greedy"] - 1e-9, (n_static, cov_pct, means)
        assert means["greedy"] >= means["random"] - 1e-9, (n_static, means)
        assert cov_pct > means["random"], (n_static, cov_pct, means)
        lines.append(
            f"N_s={n_static}: exact {cov_pct:.1f}% >= greedy {means['greedy']:.1f}% "
            f">= random {means['random']:.1f}%"
        )
    elapsed = time.perf_counter() - t0
    passed(f"criterion 6 (planner ordering: {'; '.join(lines)}; {elapsed:.0f}s)")


# -- criterion 7 -------------------------------------------------------------


def test_criterion_7_coverage_variable_integrality():
    assert RECORDED_SOLVES, "criteria 2-6 must run first"
    audited = 0
    for label, handle, assignment in RECORDED_SOLVES:
        for vid in handle.coverage_variable_ids():
            value = assignment[vid]
            assert min(abs(value), abs(value - 1.0)) <= 1e-6, (label, vid, value)
            audited += 1
    passed(
        f"criterion 7 (coverage-variable integrality: {audited} values across "
        f"{len(RECORDED_SOLVES)} solves)"
    )


# -- criterion 8 -------------------------------------------------------------


def _cov_objective(side, n_mobile, k_max, c_o):
    grid = GridSpec(side, side)
    handle = build_milp_cov(grid, sorted(grid.cells()), n_mobile, k_max, 1, 2, 2, c_o)
    res = solve_milp(handle.instance)
    if res.status == "infeasible":
        return None
    assert res.status == "optimal", (side, n_mobile, k_max, c_o, res.status)
    record(f"mono-cov-{side}-{n_mobile}-{k_max}-{c_o}", handle, res.incumbent)
    return res.objective


def _mov_objective(side, n_mobile, k_max):
    grid = GridSpec(side, side)
    handle = build_milp_mov(grid, sorted(grid.cells()), 0, n_mobile, k_max,
                            coverage_target=1)
    res = solve_milp(handle.instance)
    if res.status == "infeasible":
        return None
    assert res.status == "optimal"
    record(f"mono-mov-{side}-{n_mobile}-{k_max}", handle, res.incumbent)
    return res.objective


def _nondecreasing(values):
    defined = [v for v in values if v is not None]
    lowest = -float("inf")
    for v in values:
        v = -float("inf") if v is None else v
        assert v >= lowest - 1e-9, values
        lowest = max(lowest, v)
    return defined


def test_criterion_8_monotonicity():
    t0 = time.perf_counter()
    for side in (4, 5):
        _nondecreasing([_cov_objective(side, 1, k, 3) for k in (1, 2, 3)])
        _nondecreasing([_cov_objective(side, l, 2, 3) for l in (1, 2)])
        _nondecreasing([_cov_objective(side, 1, 2, c_o) for c_o in (1, 2, 3)])
    # movement minimization: non-increasing in the number of nodes
    for side in (4, 5):
        values = [_mov_objective(side, l, 4) for l in (1, 2)]
        assert values[0] is not None and values[1] is not None
        assert values[1] <= values[0] + 1e-9, values
    elapsed = time.perf_counter() - t0
    passed(f"criterion 8 (monotonicity sweeps; {elapsed:.0f}s)")


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_deterministic_outputs(tmp_path):
    from gridcover.cli import main

    def run_all(into):
        into.mkdir()
        deployment = into / "deployment.txt"
        assert main(["place-static", "--rows", "5", "--cols", "5", "--ns", "1",
                     "--deterministic", "--out", str(deployment)]) == 0
        plan = into / "plan.txt"
        assert main(["plan-mov", "--rows", "5", "--cols", "5", "--l", "1",
                     "--cr", "1", "--kmax", "4", "--deterministic",
                     "--out", str(plan)]) == 0
        baseline = into / "baseline.txt"
        assert main(["baseline", "--method", "random", "--seed", "7",
                     "--rows", "6", "--cols", "6", "--l", "2", "--kmax", "5",
                     "--deterministic", "--out", str(baseline)]) == 0
        results = into / "results.csv"
        assert main(["sweep", "--rows", "4", "--cols", "4", "--placement", "none",
                     "--planner", "greedy", "--l", "1", "--kmax", "2",
                     "--seeds", "0,1", "--axis", "n_mobile=1,2",
                     "--deterministic", "--out", str(results)]) == 0
        return [deployment, plan, baseline, results]

    first = run_all(tmp_path / "run1")
    second = run_all(tmp_path / "run2")
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes(), a.name
    passed("criterion 9 (byte-identical deterministic outputs)")
