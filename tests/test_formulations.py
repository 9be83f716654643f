"""The three MILP builders, decoders and plan validation."""

import math
import random
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from gridcover.bnb import SolveParams, solve_milp
from gridcover.formulations import (
    DecodeError,
    _check_rho_components,
    MobilePlan,
    build_milp_cov,
    build_milp_mov,
    build_milp_static,
    decode_plan,
    decode_static,
    encode_plan,
    encode_static,
    validate_plan,
)
from gridcover.grid import Cell, GridSpec, sensing_footprint, static_coverage, windows
from gridcover.milp import instance_stats
from gridcover.simplex import LpData

import oracles
from oracles import best_static_placement, best_coverage_plan, min_movements_plan


def solve_handle(handle, warm=None):
    return solve_milp(handle.instance, warm_start=warm)


def assert_coverage_vars_binary(handle, assignment, tol=1e-6):
    for vid in handle.coverage_variable_ids():
        value = assignment[vid]
        assert min(abs(value), abs(value - 1.0)) <= tol, (vid, value)


class TestStaticFormulation:
    def test_3x3_center_is_optimal(self):
        # oracle: enumerate all 9 placements
        want, argbest = best_static_placement(GridSpec(3, 3), 1, 1, 1, 4.0)
        assert want == 33.0 and argbest == [(Cell(2, 2),)]
        handle = build_milp_static(GridSpec(3, 3), 1, 1, 1, 4.0)
        res = solve_handle(handle)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(33.0)
        deployment = decode_static(handle, res.incumbent)
        assert deployment.positions == (Cell(2, 2),)
        assert deployment.uncovered == frozenset()
        assert deployment.objective_value == pytest.approx(33.0)
        assert_coverage_vars_binary(handle, res.incumbent)

    def test_8x8_five_nodes_exhaustive_optimum(self):
        # the exhaustive packing search gives objective 108 with 42 covered
        # cells for every optimal placement (five full footprints cannot be
        # disjoint inside 8x8: each contains one of the four cells {3,6}^2)
        grid = GridSpec(8, 8)
        want, argbest = best_static_placement(grid, 5, 1, 1, 4.0)
        assert want == 108.0
        covered_counts = {
            len(static_coverage(list(p), 1, grid)[0]) for p in argbest
        }
        assert covered_counts == {42}

        handle = build_milp_static(grid, 5, 1, 1, 4.0)
        from gridcover.harness import pack_static_positions
        from gridcover.formulations import encode_static as enc

        warm = enc(handle, pack_static_positions(handle))
        res = solve_milp(handle.instance, SolveParams(time_limit=240), warm_start=warm)
        assert res.objective == pytest.approx(108.0)
        deployment = decode_static(handle, res.incumbent)
        assert len(deployment.covered) == 42
        # c_o = 1 means disjoint footprints
        report_cells = [c for p in deployment.positions
                        for c in static_coverage([p], 1, grid)[0]]
        assert len(report_cells) == len(set(report_cells))
        assert_coverage_vars_binary(handle, res.incumbent)

    def test_constraint_layout(self):
        handle = build_milp_static(GridSpec(3, 3), 2, 1, 1, 4.0)
        stats = instance_stats(handle.instance)
        assert (stats.n_binary, stats.n_continuous, stats.n_constraints) == (18, 18, 2 + 3 * 9)

    def test_infeasible_when_overlap_impossible(self):
        # two footprints always overlap on 3x3, so c_o=1 cannot place 2 nodes
        handle = build_milp_static(GridSpec(3, 3), 2, 1, 1, 4.0)
        assert solve_handle(handle).status == "infeasible"

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_milp_static(GridSpec(3, 3), 0)
        with pytest.raises(ValueError):
            build_milp_static(GridSpec(3, 3), 1, boundary_weight=0.5)

    @pytest.mark.parametrize("weight", [math.inf, -math.inf, math.nan])
    def test_non_finite_boundary_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="boundary_weight must be finite and >= 1"):
            build_milp_static(GridSpec(4, 4), 1, boundary_weight=weight)

    def test_decode_rejects_all_zero(self):
        handle = build_milp_static(GridSpec(3, 3), 1)
        with pytest.raises(DecodeError, match="expected exactly 1"):
            decode_static(handle, np.zeros(handle.instance.n_variables))

    @pytest.mark.parametrize("size", [0, 17, 19])
    def test_decode_rejects_a_point_of_another_length(self, size):
        handle = build_milp_static(GridSpec(3, 3), 1)
        point = encode_static(handle, [Cell(2, 2)])
        assert point.shape == (18,) and decode_static(handle, point).positions == (Cell(2, 2),)
        bad = point[:size] if size < 18 else np.append(point, 0.0)
        with pytest.raises(DecodeError, match=rf"shape \({size},\) for 18 variables"):
            decode_static(handle, bad)

    def test_decode_rejects_fractional(self):
        handle = build_milp_static(GridSpec(3, 3), 1)
        values = np.zeros(handle.instance.n_variables)
        values[np.ravel_multi_index((0, handle.index[Cell(2, 2)]), handle.x_shape)] = 0.5
        with pytest.raises(DecodeError, match="fractional"):
            decode_static(handle, values)

    def test_encode_decode_roundtrip(self):
        handle = build_milp_static(GridSpec(4, 4), 1)
        values = encode_static(handle, [Cell(2, 3)])
        assert LpData(handle.instance).feasible(values, handle.instance.lower, handle.instance.upper)
        deployment = decode_static(handle, values)
        assert deployment.positions == (Cell(2, 3),)


class TestCovFormulation:
    def test_empty_uncovered_flags_nothing_to_plan(self):
        handle = build_milp_cov(GridSpec(3, 3), [], 1, 2)
        assert handle.nothing_to_plan
        plan = decode_plan(handle, np.zeros(0))
        assert plan.movements == 0
        assert encode_plan(handle, plan).shape == (0,)
        with pytest.raises(DecodeError, match=r"shape \(1,\) for 0 variables"):
            decode_plan(handle, np.zeros(1))

    def test_3x3_single_shot_covers_everything(self):
        grid = GridSpec(3, 3)
        want = best_coverage_plan(grid, sorted(grid.cells()), 1, 1, 1, 2, 2, 3)
        assert want == 9
        handle = build_milp_cov(grid, sorted(grid.cells()), 1, 1)
        res = solve_handle(handle)
        assert res.status == "optimal" and res.objective == pytest.approx(9.0)
        plan = decode_plan(handle, res.incumbent)
        assert plan.positions[(1, 1)] == Cell(2, 2)
        assert_coverage_vars_binary(handle, res.incumbent)

    def test_windows_restricted_to_uncovered_set(self):
        # moving from one side of a covered block is impossible when the
        # uncovered set splits into step-unreachable halves
        grid = GridSpec(3, 7)
        covered, uncovered = static_coverage([Cell(2, 4)], 1, grid)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            handle = build_milp_cov(grid, sorted(uncovered), 1, 2, 1, 1, 1, 3)
        assert any("step-unreachable" in str(w.message) for w in caught)
        res = solve_handle(handle)
        plan = decode_plan(handle, res.incumbent)
        # both placements stay on one side of the covered block
        cols = {pos.j for pos in plan.positions.values()}
        assert cols <= {1, 2, 3} or cols <= {5, 6, 7}

    def test_step_warning_names_the_builders_caller(self):
        grid = GridSpec(3, 7)
        _, uncovered = static_coverage([Cell(2, 4)], 1, grid)
        builds = [
            lambda: build_milp_cov(grid, sorted(uncovered), 1, 2, 1, 1, 1, 3),
            lambda: build_milp_mov(grid, sorted(uncovered), 21 - len(uncovered), 1, 2, 1, 1, 1, 3,
                                   coverage_target="2/3"),
        ]
        for build in builds:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                build()
            assert [w.filename for w in caught] == [__file__]

    def test_decode_requires_position_each_iteration(self):
        grid = GridSpec(3, 3)
        handle = build_milp_cov(grid, sorted(grid.cells()), 1, 2)
        values = np.zeros(handle.instance.n_variables)
        values[np.ravel_multi_index((0, 0, handle.index[Cell(2, 2)]), handle.x_shape)] = 1.0
        with pytest.raises(DecodeError, match="no position"):
            decode_plan(handle, values)

    def test_objective_monotone_in_horizon_and_nodes(self):
        grid = GridSpec(4, 4)
        c1 = sorted(grid.cells())
        values = {}
        for n_mobile in (1, 2):
            for k_max in (1, 2):
                handle = build_milp_cov(grid, c1, n_mobile, k_max)
                values[(n_mobile, k_max)] = solve_handle(handle).objective
        assert values[(1, 1)] <= values[(1, 2)] <= values[(2, 2)]
        assert values[(1, 1)] <= values[(2, 1)] <= values[(2, 2)]


def _warns(check, *args) -> bool:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        check(*args)
    return any("step-unreachable" in str(w.message) for w in caught)


class TestStepComponents:
    """The mobile builder labels the uncovered set's step components by
    min-label propagation over its step-window table; the breadth-first
    search it replaced (tests/oracles.py) warns on the same sets."""

    @staticmethod
    def shapes(rng, grid):
        """Random subsets, the full grid and a sub-rectangle (where the old
        search returned early), a checkerboard, a single cell, and a
        serpentine and a grid less every third diagonal, which take many
        propagation rounds."""
        cells = sorted(grid.cells())
        yield sorted(rng.sample(cells, rng.randint(1, len(cells))))
        yield cells
        i0, j0 = rng.randint(1, grid.rows), rng.randint(1, grid.cols)
        i1, j1 = rng.randint(i0, grid.rows), rng.randint(j0, grid.cols)
        yield [c for c in cells if i0 <= c.i <= i1 and j0 <= c.j <= j1]
        yield [c for c in cells if (c.i + c.j) % 2 == rng.randint(0, 1)]
        yield [rng.choice(cells)]
        yield [c for c in cells if c.i % 2 or c.j == (grid.cols if c.i % 4 == 2 else 1)]
        yield [c for c in cells if (c.i - c.j) % 3]

    def test_warns_where_the_reference_search_warns(self):
        rng = random.Random(16)
        outcomes = set()
        for _ in range(120):
            grid = GridSpec(rng.randint(1, 9), rng.randint(1, 9))
            for c1 in self.shapes(rng, grid):
                if not c1:
                    continue
                steps = [(0, 0), (1, 1), (1, 0), (0, 2), (rng.randint(-1, 3), rng.randint(-1, 3))]
                for rho in steps:
                    want = _warns(oracles._check_rho_components, c1, *rho)
                    assert _warns(_check_rho_components, *windows(grid, c1, *rho)) == want, (
                        grid, c1, rho,
                    )
                    outcomes.add(want)
        assert outcomes == {False, True}

    def test_serpentine_is_one_component(self):
        grid = GridSpec(9, 9)
        snake = [c for c in grid.cells() if c.i % 2 or c.j == (9 if c.i % 4 == 2 else 1)]
        assert not _warns(_check_rho_components, *windows(grid, snake, 1, 1))
        cut = [c for c in snake if c != Cell(4, 1)]
        assert _warns(_check_rho_components, *windows(grid, cut, 1, 1))


class TestHandleTables:
    """A handle's footprint and step tables are the `grid.windows` tables
    over its cells, built once and read by the builder; the encoders and
    the warm-start searches read the lists, bitmasks and cell index the
    handle converts them to, once."""

    @staticmethod
    def handles():
        grid = GridSpec(6, 7)
        c1 = sorted(static_coverage([Cell(2, 2), Cell(5, 6)], 1, grid)[1])
        yield build_milp_static(grid, 3)
        yield build_milp_static(GridSpec(4, 6), 2, r_s=2, c_o=2)
        yield build_milp_cov(grid, c1, 2, 3, r_s=1, rho_x=1, rho_y=2)
        yield build_milp_mov(grid, c1, grid.n_cells - len(c1), 1, 4, r_s=2, coverage_target=0.9)
        yield build_milp_cov(grid, [], 1, 2)

    def test_tables_are_the_windows_over_the_cells(self):
        for handle in self.handles():
            cells = handle.cells
            for table, reach in ((handle.footprints, (handle.r_s,) * 2),
                                 (handle.steps, (handle.rho_x, handle.rho_y))):
                want = windows(handle.grid, cells, *reach)
                assert all(np.array_equal(a, b) for a, b in zip(table, want)), handle.kind
            for p, cell in enumerate(cells):
                sensed = {cells[q] for q in handle.footprint_lists[p]}
                assert sensed == sensing_footprint(cell, handle.r_s, handle.grid) & set(cells)

    def test_one_table_build_per_table(self, monkeypatch):
        # the static solve reads one table (footprints), a path solve two
        # (footprints and steps), however many seeders and encoders read them
        from gridcover import formulations, grid as grid_module, harness

        calls = []
        for module in (formulations, grid_module, harness):
            monkeypatch.setattr(module, "windows",
                                lambda *a, fn=windows: calls.append(a[2:]) or fn(*a), raising=False)
        cfg = harness.ExperimentConfig(rows=6, cols=6, n_static=1, n_mobile=1, k_max=2,
                                       coverage_target=0.5)
        deployment, _ = harness.place_static_milp(cfg)
        assert len(calls) == 1
        for planner in ("milp-cov", "milp-mov"):
            calls.clear()
            _, plan, _ = harness.plan_mobile_milp(replace(cfg, planner=planner), deployment)
            assert plan is not None and len(calls) == 2, planner

    def test_search_forms_are_the_windows_tables(self):
        # on random grids and cell sets, each box of a `grid.windows` table,
        # cut at its lengths, is a list, and each footprint box a bitmask;
        # a path model with a negative step range is refused
        rng = random.Random(33)
        for n in range(120):
            grid = GridSpec(rng.randint(1, 9), rng.randint(1, 9))
            r_s, rho_x, rho_y = rng.randint(0, 2), rng.randint(-1, 3), rng.randint(-1, 3)
            if n % 3 == 0:
                handle = build_milp_static(grid, rng.randint(1, 3), r_s, rng.randint(1, 3))
            else:
                c1 = rng.sample(sorted(grid.cells()), rng.randint(0, grid.n_cells))
                if min(rho_x, rho_y) < 0:
                    with pytest.raises(ValueError, match="step range must be >= 0"):
                        build_milp_cov(grid, c1, 1, 2, r_s, rho_x, rho_y)
                    continue
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # step components
                    handle = build_milp_cov(grid, c1, 1, 2, r_s, rho_x, rho_y)
            cells = handle.cells

            def boxes(dr, dc):
                lengths, flat = windows(grid, cells, dr, dc)
                ends = np.cumsum(lengths).tolist()
                return [flat[a:b].tolist() for a, b in zip([0] + ends, ends)]

            footprints = boxes(r_s, r_s)
            assert handle.footprint_lists == footprints, (grid, cells, r_s)
            assert handle.step_lists == boxes(handle.rho_x, handle.rho_y), (grid, cells, rho_x, rho_y)
            assert [[q for q in range(len(cells)) if mask >> q & 1] for mask in handle.footprint_masks] == footprints
            assert handle.index == {cell: p for p, cell in enumerate(cells)}

    def test_one_conversion_per_handle(self, monkeypatch):
        # a movement solve that runs the fewest-movements search (mov10's
        # deployment with two nodes over three iterations and a 98 % target;
        # mov10's own greedy seed is optimal) and a coverage solve that
        # reaches the single-path bound (table8's L=1/N_s=3 row) read the
        # search forms many times: the static model's footprints and each
        # path model's two tables are cut once
        from gridcover import formulations, harness

        converted, searched, static = [], [], []
        rows = formulations._rows
        monkeypatch.setattr(formulations, "_rows", lambda table: converted.append(table) or rows(table))
        for name in ("_fewest_moves_plan", "path_bound"):
            monkeypatch.setattr(harness, name, lambda *a, fn=getattr(harness, name), name=name:
                                searched.append(name) or fn(*a))
        build = harness.build_milp_static
        monkeypatch.setattr(harness, "build_milp_static", lambda *a: static.append(build(*a)) or static[-1])
        mov10 = harness.ExperimentConfig(rows=10, cols=10, n_static=10, n_mobile=2, k_max=3,
                                         planner="milp-mov", coverage_target="98/100", node_limit=60)
        table8 = harness.ExperimentConfig(rows=8, cols=8, n_static=3, n_mobile=1, k_max=4, node_limit=40)
        for cfg, search, want in ((mov10, "_fewest_moves_plan", 5.0), (table8, "path_bound", 28.0)):
            converted.clear(), searched.clear(), static.clear()
            deployment, _ = harness.place_static_milp(cfg)
            handle, plan, result = harness.plan_mobile_milp(cfg, deployment)
            assert (result.status, result.objective, result.nodes_explored) == ("optimal", want, 0)
            assert searched == [search]
            tables = [static[0].footprints, handle.footprints, handle.steps]
            assert len(converted) == 3 and all(a is b for a, b in zip(converted, tables)), cfg
            assert {"footprint_lists", "footprint_masks", "step_lists"} <= vars(handle).keys()


class TestMovFormulation:
    def test_5x5_full_sweep_needs_four_movements(self):
        grid = GridSpec(5, 5)
        want = min_movements_plan(grid, sorted(grid.cells()), 0, 1, 4, 1, 2, 2, 3, Fraction(1))
        assert want == 4
        handle = build_milp_mov(grid, sorted(grid.cells()), 0, 1, 4, coverage_target=1)
        res = solve_handle(handle)
        assert res.status == "optimal" and res.objective == pytest.approx(4.0)
        plan = decode_plan(handle, res.incumbent)
        assert plan.movements == 4
        assert not validate_plan(plan, grid, sorted(grid.cells()), 2, 2)
        assert_coverage_vars_binary(handle, res.incumbent)

    def test_static_share_already_meets_target(self):
        grid = GridSpec(4, 4)
        covered, uncovered = static_coverage([Cell(2, 2)], 1, grid)
        handle = build_milp_mov(grid, sorted(uncovered), len(covered), 1, 2,
                                coverage_target="0.5")
        res = solve_handle(handle)
        assert res.status == "optimal" and res.objective == pytest.approx(0.0)
        assert decode_plan(handle, res.incumbent).movements == 0

    def test_threshold_uses_exact_arithmetic(self):
        # 0.9 must mean nine tenths: ceil(0.9 * 100) == 90, not 91
        grid = GridSpec(10, 10)
        handle = build_milp_mov(grid, sorted(grid.cells()), 0, 3, 4, coverage_target=0.9)
        assert handle.coverage_threshold == 90
        handle = build_milp_mov(grid, sorted(grid.cells()), 0, 3, 4, coverage_target="2/3")
        assert handle.coverage_threshold == 67

    def test_unreachable_target_is_infeasible(self):
        grid = GridSpec(5, 5)
        handle = build_milp_mov(grid, sorted(grid.cells()), 0, 1, 1, coverage_target=1)
        assert solve_handle(handle).status == "infeasible"

    def test_stats_one_more_constraint_than_cov(self):
        grid = GridSpec(4, 4)
        cov = instance_stats(build_milp_cov(grid, sorted(grid.cells()), 2, 3).instance)
        mov = instance_stats(
            build_milp_mov(grid, sorted(grid.cells()), 0, 2, 3, coverage_target=1).instance
        )
        assert mov.n_constraints == cov.n_constraints + 1

    def test_objective_monotone_in_nodes(self):
        # each footprint contains at most one of the four grid corners, so
        # full coverage of 4x4 takes at least 4 placements; K_max=4 keeps the
        # single-node case feasible
        grid = GridSpec(4, 4)
        c1 = sorted(grid.cells())
        got = {}
        for n_mobile in (1, 2):
            handle = build_milp_mov(grid, c1, 0, n_mobile, 4, coverage_target=1)
            got[n_mobile] = solve_handle(handle).objective
        assert got[1] == pytest.approx(4.0)
        assert got[2] <= got[1]


class TestDecodeEncode:
    def test_decoded_plan_reencodes_feasibly(self):
        grid = GridSpec(4, 4)
        handle = build_milp_cov(grid, sorted(grid.cells()), 2, 2)
        res = solve_handle(handle)
        plan = decode_plan(handle, res.incumbent)
        values = encode_plan(handle, plan)
        assert LpData(handle.instance).feasible(values, handle.instance.lower, handle.instance.upper)
        assert handle.instance.objective() @ values == pytest.approx(res.objective)

    @pytest.mark.parametrize("kind", ["cov", "mov"])
    def test_decode_rejects_a_point_of_another_length(self, kind):
        grid = GridSpec(3, 3)
        if kind == "cov":
            handle = build_milp_cov(grid, sorted(grid.cells()), 1, 2)
        else:
            handle = build_milp_mov(grid, sorted(grid.cells()), 0, 1, 2, coverage_target=1)
        values = encode_plan(handle, MobilePlan(1, 2, {(1, 1): Cell(2, 2), (1, 2): Cell(2, 2)}))
        assert decode_plan(handle, values).movements == 2
        for bad in (values[:-1], np.append(values, 0.0), values.reshape(1, -1), np.zeros(0)):
            with pytest.raises(DecodeError, match="a point of shape"):
                decode_plan(handle, bad)

    def test_single_placement_decodes(self):
        grid = GridSpec(3, 3)
        handle = build_milp_mov(grid, sorted(grid.cells()), 0, 1, 2, coverage_target=1)
        values = np.zeros(handle.instance.n_variables)
        values[np.ravel_multi_index((0, 0, handle.index[Cell(2, 2)]), handle.x_shape)] = 1.0
        plan = decode_plan(handle, values)
        assert plan.positions == {(1, 1): Cell(2, 2)}

    def test_multi_cell_assignment_rejected(self):
        grid = GridSpec(3, 3)
        handle = build_milp_mov(grid, sorted(grid.cells()), 0, 1, 1, coverage_target="0.1")
        values = np.zeros(handle.instance.n_variables)
        values[np.ravel_multi_index((0, 0, handle.index[Cell(1, 1)]), handle.x_shape)] = 1.0
        values[np.ravel_multi_index((0, 0, handle.index[Cell(3, 3)]), handle.x_shape)] = 1.0
        with pytest.raises(DecodeError, match="occupies 2 cells"):
            decode_plan(handle, values)


class TestValidatePlan:
    grid = GridSpec(5, 5)
    c1 = sorted(grid.cells())

    def test_empty_plan_valid(self):
        plan = MobilePlan(1, 3, {})
        assert validate_plan(plan, self.grid, self.c1, 2, 2) == []

    def test_step_too_long(self):
        plan = MobilePlan(1, 2, {(1, 1): Cell(2, 2), (1, 2): Cell(2, 5)})
        violations = validate_plan(plan, self.grid, self.c1, 2, 2)
        assert [v.kind for v in violations] == ["mobility"]

    def test_position_outside_uncovered_set(self):
        c1 = [c for c in self.c1 if c != Cell(2, 2)]
        plan = MobilePlan(1, 1, {(1, 1): Cell(2, 2)})
        violations = validate_plan(plan, self.grid, c1, 2, 2)
        assert [v.kind for v in violations] == ["membership"]

    def test_resume_after_stop(self):
        plan = MobilePlan(1, 3, {(1, 1): Cell(2, 2), (1, 3): Cell(2, 3)})
        violations = validate_plan(plan, self.grid, self.c1, 2, 2)
        assert [v.kind for v in violations] == ["stop"]

    def test_off_grid(self):
        plan = MobilePlan(1, 1, {(1, 1): Cell(9, 9)})
        violations = validate_plan(plan, self.grid, self.c1, 2, 2)
        assert [v.kind for v in violations] == ["grid"]


def _outcome(fn, *args):
    """A call's result, or its exception's type and message.  The reference
    in `oracles` takes and gives points as dicts keyed by every variable
    id; they are passed and compared as the lists of their values."""
    if fn.__module__ == "oracles":
        args = [dict(enumerate(a.tolist())) if isinstance(a, np.ndarray) else a for a in args]
    try:
        result = fn(*args)
    except Exception as exc:  # compared, not handled
        return "raised", type(exc), str(exc)
    if isinstance(result, dict):
        assert list(result) == list(range(len(result)))
        return "ok", list(result.values())
    if isinstance(result, np.ndarray):
        assert result.dtype == np.float64 and result.ndim == 1
        return "ok", result.tolist()
    return "ok", result


class TestArithmeticLayout:
    """Decode and encode index the handle's arithmetic layout; they must
    agree with the dict-based reference in `oracles` on random grids,
    placements and plans, and on corrupted assignments."""

    @staticmethod
    def corruptions(rng, handle, values):
        """`values` and copies of it with one placement row made fractional,
        given a second cell, emptied, or overwritten at random."""
        rows, width = handle.placements(values).shape
        out = [values]
        for how in ("fractional", "two", "none", "noise"):
            bad = values.copy()
            row = int(rng.integers(rows))
            base = row * width
            if how == "fractional":
                bad[base + int(rng.integers(width))] = float(rng.choice([0.5, 0.25, 1e-3, 0.9999]))
            elif how == "two":
                for p in rng.choice(width, size=min(2, width), replace=False):
                    bad[base + int(p)] = 1.0
            elif how == "none":
                for p in range(width):
                    bad[base + p] = 0.0
            else:
                for vid in range(rows * width):
                    bad[vid] = float(rng.choice([0.0, 0.0, 0.0, 1.0, 1.0 + 1e-9, 0.5]))
            out.append(bad)
        out.append(np.zeros_like(values))
        return out

    def test_static_matches_the_reference(self):
        import oracles

        rng = np.random.default_rng(20261018)
        calls = errors = 0
        for _ in range(150):
            grid = GridSpec(int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            n_static = int(rng.integers(1, 4))
            handle = build_milp_static(grid, n_static, int(rng.integers(0, 3)),
                                       int(rng.integers(1, 3)), float(rng.choice([1.0, 2.5, 4.0])))
            assert handle.coverage_variable_ids() == oracles.coverage_variable_ids(handle)
            cells = sorted(grid.cells())
            positions = [cells[int(i)] for i in rng.integers(len(cells), size=n_static)]
            for placed in (positions, positions[:-1], positions + [Cell(grid.rows + 1, 1)],
                           positions[:-1] + [Cell(0, 1)]):
                got = _outcome(encode_static, handle, placed)
                assert got == _outcome(oracles.encode_static, handle, placed), placed
                calls, errors = calls + 1, errors + (got[0] == "raised")
            for values in self.corruptions(rng, handle, encode_static(handle, positions)):
                got = _outcome(decode_static, handle, values)
                assert got == _outcome(oracles.decode_static, handle, values)
                calls, errors = calls + 1, errors + (got[0] == "raised")
        assert calls == 1500 and 1000 < errors < calls, (calls, errors)

    def test_plans_match_the_reference(self):
        import oracles

        rng = np.random.default_rng(18)
        calls = errors = 0
        for trial in range(150):
            grid = GridSpec(int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            cells = sorted(grid.cells())
            keep = rng.random(len(cells)) < rng.uniform(0.2, 1.0)
            uncovered = [c for c, kept in zip(cells, keep) if kept]
            n_mobile, k_max = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            r_s, rho = int(rng.integers(0, 2)), int(rng.integers(0, 3))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                if trial % 2:
                    handle = build_milp_cov(grid, uncovered, n_mobile, k_max, r_s, rho, rho, 3)
                else:
                    handle = build_milp_mov(grid, uncovered, grid.n_cells - len(uncovered),
                                            n_mobile, k_max, r_s, rho, rho, 3,
                                            coverage_target="0.5")
            assert handle.coverage_variable_ids() == oracles.coverage_variable_ids(handle)
            outside = [c for c in cells if c not in set(uncovered)] + [Cell(0, 1)]
            plans = []
            if uncovered:
                full = {(l, k): uncovered[int(rng.integers(len(uncovered)))]
                        for l in range(1, n_mobile + 1) for k in range(1, k_max + 1)}
                stopped = {lk: pos for lk, pos in full.items() if lk[1] <= rng.integers(1, k_max + 1)}
                plans += [full, stopped, {}]
                for lk in ((0, 1), (n_mobile + 1, 1), (1, 0), (1, k_max + 1)):
                    plans.append({**stopped, lk: uncovered[0]})
                plans.append({**stopped, (1, 1): outside[int(rng.integers(len(outside)))]})
            else:
                plans += [{}, {(1, 1): Cell(1, 1)}]
            for positions in plans:
                plan = MobilePlan(n_mobile, k_max, positions)
                got = _outcome(encode_plan, handle, plan)
                assert got == _outcome(oracles.encode_plan, handle, plan), positions
                calls, errors = calls + 1, errors + (got[0] == "raised")
                if got[0] == "raised" or handle.nothing_to_plan:
                    continue
                for values in self.corruptions(rng, handle, np.array(got[1])):
                    got_plan = _outcome(decode_plan, handle, values)
                    assert got_plan == _outcome(oracles.decode_plan, handle, values)
                    calls, errors = calls + 1, errors + (got_plan[0] == "raised")
        assert calls > 3000 and 2000 < errors < calls - 500, (calls, errors)

    @pytest.mark.parametrize("node, iteration", [(0, 1), (3, 1), (1, 0), (1, 4)])
    def test_encode_plan_rejects_node_or_iteration_out_of_range(self, node, iteration):
        # ids are arithmetic, so without the range check node 0 or
        # iteration 0 would index the last node or iteration
        grid = GridSpec(4, 4)
        handle = build_milp_cov(grid, sorted(grid.cells()), 2, 3)
        plan = MobilePlan(2, 3, {(1, 1): Cell(2, 2), (node, iteration): Cell(3, 3)})
        with pytest.raises(ValueError, match=f"node {node} iteration {iteration} has no variable"):
            encode_plan(handle, plan)

    def test_encode_plan_rejects_cell_outside_uncovered_set(self):
        grid = GridSpec(4, 4)
        uncovered = [c for c in grid.cells() if c != Cell(2, 2)]
        handle = build_milp_cov(grid, uncovered, 1, 2)
        plan = MobilePlan(1, 2, {(1, 1): Cell(3, 3), (1, 2): Cell(2, 2)})
        with pytest.raises(ValueError, match=r"\(2, 2\) at node 1 iteration 2 has no variable"):
            encode_plan(handle, plan)
