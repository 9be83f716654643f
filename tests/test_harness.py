"""Pipeline orchestration, persistence, and warm-start seeding."""

import collections
import math
import random
import sys
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import oracles
from gridcover import bnb, harness
from gridcover.bnb import SolveParams, solve_milp
from gridcover.formulations import (
    MobilePlan,
    build_milp_cov,
    build_milp_mov,
    build_milp_static,
    encode_plan,
    encode_static,
    static_deployment,
)
from gridcover.grid import Cell, GridSpec, SensorParams, evaluate_plan, static_coverage
from gridcover.harness import (
    ExperimentConfig,
    best_seed_plan,
    deployment_text,
    pack_static_positions,
    parse_deployment_text,
    plan_text,
    results_csv,
    run_pipeline,
    sweep,
)
from gridcover.simplex import LpData


def tiny_config(**kw):
    defaults = dict(
        rows=3, cols=3, n_static=1, n_mobile=1, k_max=2,
        placement="milp-static", planner="milp-cov", seeds=(0,),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestRunPipeline:
    def test_static_plus_cov_covers_3x3(self):
        rows = run_pipeline(tiny_config())
        assert len(rows) == 1
        row = rows[0]
        # the center placement already covers everything: nothing to plan
        assert row.coverage_pct == pytest.approx(100.0)
        assert row.solver_status == "optimal"
        assert row.plan is not None and row.plan.movements == 0

    def test_row_per_seed_and_coverage_recomputed(self):
        config = tiny_config(rows=5, cols=5, n_static=0, placement="none",
                             planner="greedy", n_mobile=2, k_max=3,
                             seeds=(0, 1, 2))
        rows = run_pipeline(config)
        assert len(rows) == 3
        for row in rows:
            report = evaluate_plan(row.deployment, row.plan, config.sensor_params, config.grid)
            assert row.covered_cells == report.covered_count
            assert row.movements_raw == report.movements

    def test_random_static_without_replacement(self):
        config = tiny_config(rows=6, cols=6, n_static=8, placement="random-static",
                             planner="random", n_mobile=1, k_max=2, seeds=(3,))
        row = run_pipeline(config)[0]
        assert len(set(row.deployment.positions)) == 8
        again = run_pipeline(config)[0]
        assert again.deployment.positions == row.deployment.positions

    def test_mov_infeasible_recorded_not_fatal(self):
        config = tiny_config(rows=5, cols=5, n_static=0, placement="none",
                             planner="milp-mov", n_mobile=1, k_max=1,
                             coverage_target=1)
        rows = run_pipeline(config)
        assert len(rows) == 1
        assert rows[0].solver_status == "infeasible"
        assert "increase" in rows[0].note

    def test_static_infeasible_recorded_per_seed(self):
        # 14 static nodes cannot be placed on 8x8 (the static MILP is
        # infeasible): each seed gets a row, and no plan is solved
        config = tiny_config(rows=8, cols=8, n_static=14, seeds=(0, 1))
        rows = run_pipeline(config)
        assert [r.seed for r in rows] == [0, 1]
        for row in rows:
            assert (row.solver_status, row.note) == ("infeasible", "static placement infeasible")
            assert row.deployment is None and row.plan is None and row.objective is None

    @pytest.mark.parametrize("placement, n_static", [("milp-static", 1), ("none", 0)])
    def test_solver_trouble_recorded_per_seed(self, monkeypatch, placement, n_static):
        # a SimplexNumericalError of either stage (the placement's solve,
        # or the plan's when nothing is placed) is an error row per seed
        from gridcover.simplex import SimplexNumericalError

        def broken(*args, **kwargs):
            raise SimplexNumericalError("singular basis: injected")

        monkeypatch.setattr(harness, "solve_milp", broken)
        config = tiny_config(rows=4, cols=4, placement=placement, n_static=n_static, seeds=(0, 1))
        rows = run_pipeline(config)
        assert [r.seed for r in rows] == [0, 1]
        for row in rows:
            assert (row.solver_status, row.note) == ("error", "singular basis: injected")
            assert row.plan is None and row.objective is None

    def test_one_planning_solve_for_a_seed_independent_deployment(self, monkeypatch):
        # the MILP placement is the same on every seed, so its planning MILP
        # is solved once and its outcome fills every seed's row; a random
        # placement is drawn per seed and planned per seed
        calls = []
        plan_mobile_milp = harness.plan_mobile_milp
        monkeypatch.setattr(harness, "plan_mobile_milp",
                            lambda cfg, deployment: calls.append(deployment) or plan_mobile_milp(cfg, deployment))
        config = ExperimentConfig(rows=8, cols=8, n_static=3, n_mobile=1, k_max=4, seeds=(0, 1, 2, 3, 4))
        rows = run_pipeline(config)
        assert len(calls) == 1 and [row.seed for row in rows] == [0, 1, 2, 3, 4]
        for row in rows[1:]:
            assert vars(row) == {**vars(rows[0]), "seed": row.seed, "wall_time": row.wall_time}
        assert rows[0].solver_status == "optimal" and rows[0].covered_cells == 55
        calls.clear()
        rows = run_pipeline(replace(config, placement="random-static"))
        assert calls == [row.deployment for row in rows] and len(calls) == 5
        assert len({tuple(deployment.positions) for deployment in calls}) > 1

    def test_default_config_constructs(self):
        config = ExperimentConfig()
        assert (config.placement, config.n_static) == ("milp-static", 1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tiny_config(placement="magic")
        with pytest.raises(ValueError):
            tiny_config(placement="none", n_static=2)

    @pytest.mark.parametrize("target", [0, "0", -1, 1.5, "3/2"])
    def test_coverage_target_outside_zero_one_rejected(self, target):
        with pytest.raises(ValueError, match=r"coverage_target must lie in \(0, 1\]"):
            tiny_config(coverage_target=target)


class TestSweep:
    def test_rows_for_every_combination(self):
        base = tiny_config(rows=4, cols=4, n_static=0, placement="none",
                           planner="greedy", seeds=(0, 1))
        rows = sweep(base, {"n_mobile": [1, 2], "k_max": [2, 3]})
        assert len(rows) == 2 * 2 * 2
        combos = [(r.config.n_mobile, r.config.k_max, r.seed) for r in rows]
        # axes iterate in sorted-name order: k_max outer, n_mobile inner
        assert combos == [
            (1, 2, 0), (1, 2, 1), (2, 2, 0), (2, 2, 1),
            (1, 3, 0), (1, 3, 1), (2, 3, 0), (2, 3, 1),
        ]

    def test_empty_sweep(self):
        assert sweep(tiny_config(), {}) == []
        assert sweep(tiny_config(), {"n_mobile": []}) == []


class TestPersistence:
    def test_plan_text_format(self):
        plan = MobilePlan(2, 3, {
            (2, 1): Cell(5, 5), (1, 2): Cell(3, 4), (1, 1): Cell(2, 2),
        })
        assert plan_text(plan).splitlines() == ["1 1 2 2", "1 2 3 4", "2 1 5 5"]

    def test_deployment_text_roundtrip(self):
        grid = GridSpec(6, 6)
        covered, uncovered = static_coverage([Cell(2, 2), Cell(5, 5)], 1, grid)
        text = "1 2 2\n2 5 5\n"
        deployment = parse_deployment_text(text, grid, 1, 4.0)
        assert deployment.positions == (Cell(2, 2), Cell(5, 5))
        assert deployment.covered == frozenset(covered)
        assert deployment_text(deployment) == text
        # the numbering, not the line order, gives the node order
        shuffled = parse_deployment_text("2 5 5\n1 2 2\n", grid, 1, 4.0)
        assert shuffled.positions == deployment.positions

    def test_deployment_text_rejects_a_repeated_node(self):
        with pytest.raises(ValueError, match="deployment line 2: node 1 given twice"):
            parse_deployment_text("1 2 2\n1 5 5\n", GridSpec(6, 6), 1, 4.0)

    @pytest.mark.parametrize("text, message", [
        ("", "deployment lists no static node"),
        ("\n  \n", "deployment lists no static node"),
        ("1 2 2\n3 5 5\n", r"deployment nodes must be numbered 1\.\.N"),
        ("0 2 2\n-4 5 5\n", r"deployment nodes must be numbered 1\.\.N"),
        ("2 2 2\n", r"deployment nodes must be numbered 1\.\.N"),
    ], ids=["empty", "blank-lines", "gap", "zero-and-negative", "no-first"])
    def test_deployment_text_numbers_its_nodes_one_to_n(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_deployment_text(text, GridSpec(6, 6), 1, 4.0)

    def test_results_csv_deterministic_mode(self):
        config = tiny_config(rows=4, cols=4, n_static=0, placement="none",
                             planner="random", seeds=(0, 1))
        a = results_csv(run_pipeline(config), deterministic=True)
        b = results_csv(run_pipeline(config), deterministic=True)
        assert a == b
        header = a.splitlines()[0]
        assert header.startswith("rows,cols,n_static,")
        assert "wall_time" in header
        # wall_time column is blank in deterministic files
        for line in a.splitlines()[1:]:
            assert line.split(",")[-2] == ""

    def test_csv_header_is_the_result_columns(self):
        text = results_csv([])
        assert text == (
            "rows,cols,n_static,n_mobile,k_max,r_s,rho_x,rho_y,c_o_static,c_o_mobile,"
            "boundary_weight,coverage_target,placement,planner,seed,coverage_pct,"
            "covered_cells,total_cells,movements_raw,movements_trimmed,"
            "movements_to_target,solver_status,objective,best_bound,gap,wall_time,note\n"
        )

    def test_csv_config_columns_are_the_rows_config(self):
        # most config columns are set off their defaults, and the CSV
        # writes each from the row's config
        config = tiny_config(rows=5, cols=6, n_static=0, placement="none", n_mobile=2, k_max=3,
                             rho_x=1, rho_y=3, c_o_static=4, c_o_mobile=2, boundary_weight=2.5,
                             coverage_target="9/10", planner="greedy", seeds=(7,))
        (row,) = run_pipeline(config)
        assert row.config is config
        assert results_csv([row], deterministic=True).splitlines()[1] == (
            "5,6,0,2,3,1,1,3,4,2,2.5,9/10,none,greedy,7,96.66666666666667,29,30,6,6,5,ok,,,,,"
        )

    @pytest.mark.parametrize("planner", ["milp-cov", "milp-mov"])
    def test_csv_of_solved_rows_holds_no_numpy_reprs(self, planner):
        # _csv_field writes floats with repr, which spells a numpy scalar
        # "np.float64(...)" under numpy 2
        config = tiny_config(rows=5, cols=5, n_static=1, k_max=4, planner=planner, coverage_target="0.9")
        rows = run_pipeline(config)
        assert rows[0].solver_status == "optimal" and rows[0].objective is not None
        assert "np." not in results_csv(rows)

    def test_csv_quotes_notes(self):
        config = tiny_config(rows=5, cols=5, n_static=0, placement="none",
                             planner="milp-mov", n_mobile=1, k_max=1)
        text = results_csv(run_pipeline(config))
        assert '"' in text or "increase" in text


class TestWarmStartHelpers:
    def test_pack_matches_exhaustive_small(self):
        from oracles import best_static_placement
        from gridcover.grid import sensing_footprint

        grid = GridSpec(5, 5)
        want, argbest = best_static_placement(grid, 2, 1, 1, 4.0)
        packed = pack_static_positions(build_milp_static(grid, 2, 1, 1, 4.0))
        got = sum(
            (4.0 if c.i in (1, 5) or c.j in (1, 5) else 1.0)
            for p in packed
            for c in sensing_footprint(p, 1, grid)
        )
        assert got == pytest.approx(want)

    @pytest.mark.parametrize("budget", [50, 2_000])
    def test_pack_matches_the_reference_search(self, budget, monkeypatch):
        # the bitmask search visits the same cells in the same order and
        # counts the same steps, so even a truncated search returns what
        # the dict-based reference returns
        from oracles import packing_search

        monkeypatch.setattr(harness, "PACK_SEARCH_STEPS", budget)
        for size in range(3, 13):
            grid = GridSpec(size, size)
            for n_static in range(1, 11):
                for c_o in (1, 2, 3):
                    for r_s in (0, 1, 2):
                        got = pack_static_positions(build_milp_static(grid, n_static, r_s, c_o, 4.0))
                        assert got == packing_search(grid, n_static, r_s, c_o, 4.0, budget), (
                            size, n_static, c_o, r_s,
                        )

    @pytest.mark.parametrize("size, n_static, r_s", [(11, 12, 1), (11, 12, 2), (14, 14, 1)])
    def test_budget_bound_pack_matches_the_reference_search(self, size, n_static, r_s, monkeypatch):
        # searches that spend their whole budget: 11x11 N_s=12 ends at 214,
        # short of its bound of 216, and 11x11 N_s=12 at r_s=2 cannot be
        # placed (nine 5x5 footprints fit).  Cut at 20,000 steps, before
        # 11x11 N_s=12 finds its first placement, each returns the
        # reference's answer
        from oracles import packing_search

        monkeypatch.setattr(harness, "PACK_SEARCH_STEPS", 20_000)
        grid = GridSpec(size, size)
        handle = build_milp_static(grid, n_static, r_s, 1, 4.0)
        got = pack_static_positions(handle, stop_at=harness._packing_bound(handle))
        assert got == packing_search(grid, n_static, r_s, 1, 4.0, 20_000)
        assert (got is None) == (size == 11)

    def test_candidates_are_the_cells_that_fit(self, monkeypatch):
        # at every node of the search, the candidate bitmask is the
        # brute-force set {j >= start : masks[j] & top == 0} over the
        # value-ordered cells: start is the position of the node's last
        # placement (0 at the root) and top the cells that its placements
        # cover c_o times; a profile hook reads each call of the recursion
        from gridcover.grid import sensing_footprint

        dfs = next(c for c in pack_static_positions.__code__.co_consts if getattr(c, "co_name", "") == "dfs")
        monkeypatch.setattr(harness, "PACK_SEARCH_STEPS", 300)
        rng = random.Random(26)
        nodes = blocked = capped = 0
        for _ in range(40):
            grid = GridSpec(rng.randint(3, 7), rng.randint(3, 7))
            n_static, r_s, c_o = rng.randint(1, 8), rng.randint(0, 2), rng.randint(1, 3)
            alpha = rng.choice([1.0, 1.3, 4.0])
            handle = build_milp_static(grid, n_static, r_s, c_o, alpha)
            index = {c: n for n, c in enumerate(handle.cells)}
            fps = [[index[f] for f in sensing_footprint(c, r_s, grid)] for c in handle.cells]
            seen = []

            def hook(frame, event, arg):
                if event == "call" and frame.f_code is dfs:
                    node = frame.f_locals  # the arguments and the search's own lists
                    seen.append((node["avail"], list(node["chosen"]), node["order"]))

            sys.setprofile(hook)
            try:
                pack_static_positions(handle)
            finally:
                sys.setprofile(None)
            for avail, chosen, order in seen:
                start = order.index(chosen[-1]) if chosen else 0
                counts = collections.Counter(f for c in chosen for f in fps[c])
                fits = [all(counts[f] < c_o for f in fps[order[j]]) for j in range(len(order))]
                assert avail == sum(1 << j for j in range(start, len(order)) if fits[j])
                blocked += not all(fits[start:])
                capped += c_o > 1 and any(n == c_o for n in counts.values())
            nodes += len(seen)
        assert nodes > 3_000 and blocked > 2_000 and capped > 2_000, (nodes, blocked, capped)

    @pytest.mark.parametrize(
        "rows, cols, n_static, r_s, c_o",
        [(10, 10, 10, 1, 1), (8, 8, 5, 1, 1), (7, 9, 4, 1, 2), (9, 9, 6, 2, 3), (12, 12, 10, 1, 3)],
    )
    def test_full_pack_matches_the_reference_search(self, rows, cols, n_static, r_s, c_o):
        from oracles import packing_search

        grid = GridSpec(rows, cols)
        got = pack_static_positions(build_milp_static(grid, n_static, r_s, c_o, 4.0))
        assert got is not None
        assert got == packing_search(grid, n_static, r_s, c_o, 4.0)

    def test_seeded_cov_plan_is_instance_feasible(self):
        grid = GridSpec(8, 8)
        covered, uncovered = static_coverage([Cell(2, 2), Cell(7, 7)], 1, grid)
        c1 = sorted(uncovered)
        handle = build_milp_cov(grid, c1, 2, 4)
        plan, _ = harness._greedy_plan(handle, None, None)
        values = encode_plan(handle, plan)
        assert LpData(handle.instance).feasible(values, handle.instance.lower, handle.instance.upper)

    def test_seeded_mov_plan_stops_at_target(self):
        grid = GridSpec(6, 6)
        c1 = sorted(grid.cells())
        plan, _ = harness._greedy_plan(build_milp_mov(grid, c1, 0, 2, 4), 20, None)
        covered = set()
        from gridcover.grid import sensing_footprint

        for pos in plan.positions.values():
            covered |= sensing_footprint(pos, 1, grid)
        assert len(covered) >= 20

    @pytest.mark.parametrize(
        "uncovered", [[(1, 1), (1, 2), (2, 1), (2, 3)], [(2, 2), (0, 1)], [(3, 1)]]
    )
    def test_uncovered_cells_off_the_grid_rejected(self, uncovered):
        # the first list is exactly as long as the 2x2 grid
        grid = GridSpec(2, 2)
        c1 = [Cell(*c) for c in uncovered]
        reach = dict(n_mobile=1, k_max=2, r_s=1, rho_x=1, rho_y=1, c_o=2)
        with pytest.raises(ValueError, match="outside 2x2 grid"):
            build_milp_cov(grid, c1, **reach)
        with pytest.raises(ValueError, match="outside 2x2 grid"):
            build_milp_mov(grid, c1, 0, **reach)

    def test_trimmed_movements_drops_trailing_no_gain(self):
        grid = GridSpec(3, 3)
        plan = MobilePlan(1, 3, {
            (1, 1): Cell(2, 2), (1, 2): Cell(1, 1), (1, 3): Cell(2, 2),
        })
        assert evaluate_plan(None, plan, SensorParams(), grid).movements_trimmed == 1


class TestTracedNames:
    # perfbench's tracer rebinds these module attributes to time each layer
    # and skips any it does not find, so a rename would silently drop a
    # layer from the traced benchmark
    @pytest.mark.parametrize("module, names", [
        ("gridcover.harness", ["decode_static", "decode_plan", "pack_static_positions",
                               "best_seed_plan", "build_milp_static", "build_milp_cov",
                               "build_milp_mov", "solve_milp"]),
        ("gridcover.bnb", ["solve_lp", "LpData"]),
    ])
    def test_traced_names_are_module_attributes(self, module, names):
        import importlib

        namespace = importlib.import_module(module)
        assert [name for name in names if not callable(getattr(namespace, name, None))] == []

    def test_lpdata_has_the_arrays_the_highs_check_reads(self):
        # perfbench's highs_check rebuilds each captured root LP from these
        from gridcover.bnb import LpData

        data = LpData(build_milp_static(GridSpec(3, 3), 1).instance)
        names = ["senses", "A_csr", "b", "c_min", "lower", "upper", "obj_sign", "is_binary"]
        assert [name for name in names if not hasattr(data, name)] == []
        assert data.A_csr.shape == (len(data.senses), len(data.c_min))


class TestBestSeedPlan:
    def test_none_when_no_seed_reaches_stop_at(self):
        grid = GridSpec(5, 5)
        c1 = sorted(grid.cells())
        # one node placed once covers at most 9 of the 25 cells
        handle = build_milp_mov(grid, c1, 0, 1, 1)
        assert best_seed_plan(handle, stop_at=10) is None
        plan = best_seed_plan(handle, stop_at=9)
        assert plan is not None and plan.positions == {(1, 1): Cell(2, 2)}


class TestBacktrackSeed:
    """When no greedy start yields a coverage plan, best_seed_plan searches
    the greedy's own choices with backtracking; a movement seed comes from
    the greedy starts or from the fewest-movements search."""

    # the static deployment of the 8x8 coverage table's L=3 / N_s=5 row
    TABLE8_STATIC = [(2, 2), (2, 7), (7, 2), (5, 7), (8, 7)]

    @staticmethod
    def accepted(handle, plan):
        from gridcover.bnb import SolveParams, _Search

        search = _Search(handle.instance, SolveParams())
        return search.try_incumbent(encode_plan(handle, plan))

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("flip_i, flip_j", [(False, False), (True, False), (False, True), (True, True)])
    def test_table8_coverage_row_where_every_greedy_start_fails(self, transpose, flip_i, flip_j):
        # under each of the 8x8 grid's symmetries: the search order is not
        # symmetric, and the transposed deployments take thousands of steps
        from gridcover.formulations import validate_plan

        grid = GridSpec(8, 8)
        static = [(j, i) if transpose else (i, j) for i, j in self.TABLE8_STATIC]
        static = [(9 - i if flip_i else i, 9 - j if flip_j else j) for i, j in static]
        _, uncovered = static_coverage([Cell(*p) for p in static], 1, grid)
        c1 = sorted(uncovered)
        handle = build_milp_cov(grid, c1, 3, 4)
        assert all(harness._greedy_plan(handle, None, first) is None for first in [None, *range(len(c1))])
        plan = best_seed_plan(handle)
        assert plan is not None and plan.movements == 12  # every node, every iteration
        assert validate_plan(plan, grid, c1, 2, 2) == []
        assert self.accepted(handle, plan)

    def test_movement_seed_reaches_the_target(self, monkeypatch):
        # no greedy start covers 5x5 with one node in four placements; the
        # fewest-movements search, run up to L*K, seeds the solve with the
        # plan that the backtracking search once found
        from gridcover.formulations import validate_plan
        from gridcover.grid import sensing_footprint

        grid = GridSpec(5, 5)
        c1 = sorted(grid.cells())
        assert best_seed_plan(build_milp_mov(grid, c1, 0, 1, 4), stop_at=25) is None
        seeds = []
        encode = harness.encode_plan
        monkeypatch.setattr(harness, "encode_plan", lambda h, plan: seeds.append(plan) or encode(h, plan))
        cfg = ExperimentConfig(rows=5, cols=5, n_static=0, placement="none", planner="milp-mov",
                               n_mobile=1, k_max=4)
        handle, plan, result = harness.plan_mobile_milp(cfg, None)
        want = {(1, 1): Cell(2, 2), (1, 2): Cell(2, 4), (1, 3): Cell(4, 2), (1, 4): Cell(5, 4)}
        assert [seed.positions for seed in seeds] == [want] and plan.positions == want
        assert (result.status, result.objective, result.nodes_explored) == ("optimal", 4.0, 0)
        assert validate_plan(plan, grid, c1, 2, 2) == []
        assert set().union(*(sensing_footprint(p, 1, grid) for p in plan.positions.values())) == set(c1)
        assert self.accepted(handle, plan)

    def test_no_seed_when_the_target_is_out_of_reach(self):
        grid = GridSpec(5, 5)
        c1 = sorted(grid.cells())
        # a 3x3 footprint per placement: one covers 9 cells, three cover no 5x5
        for k_max in (1, 3):
            assert best_seed_plan(build_milp_mov(grid, c1, 0, 1, k_max), stop_at=25) is None

    @pytest.mark.parametrize("rows, cols, static, n_mobile, k_max, stop_at, want", [
        (8, 8, [(2, 2), (7, 7)], 2, 4, None,
         "1 1 1 4\n1 2 3 4\n1 3 5 2\n1 4 7 2\n2 1 2 7\n2 2 4 7\n2 3 6 5\n2 4 7 4\n"),
        (8, 8, [(2, 2), (2, 7), (7, 4)], 1, 4, None, "1 1 5 2\n1 2 3 4\n1 3 5 6\n1 4 7 7\n"),
        (6, 6, [], 2, 4, 20, "1 1 2 2\n1 2 4 2\n2 1 2 5\n"),
        (10, 10, [(2, 2), (5, 5), (8, 8), (2, 9)], 3, 4, 40,
         "1 1 2 5\n1 2 2 6\n2 1 5 2\n2 2 7 2\n3 1 5 8\n3 2 7 6\n"),
        (7, 9, [(4, 5)], 2, 3, None, "1 1 2 2\n1 2 4 2\n1 3 6 2\n2 1 2 8\n2 2 4 8\n2 3 6 6\n"),
    ])
    def test_greedy_seeds_are_kept(self, rows, cols, static, n_mobile, k_max, stop_at, want):
        grid = GridSpec(rows, cols)
        _, uncovered = static_coverage([Cell(*p) for p in static], 1, grid)
        plan = best_seed_plan(build_milp_cov(grid, sorted(uncovered), n_mobile, k_max), stop_at=stop_at)
        assert plan_text(plan) == want
        if stop_at is not None:
            # the first start to reach the target, which a ranking by cells
            # covered kept, took 3 and 9 movements
            assert plan.movements <= {20: 3, 40: 9}[stop_at]


class TestSeedsMatchTheReference:
    """The three warm-start searches share one coverage counter (bitmask
    layers) and read the handle's tables; the dict-based seeders they
    replaced (tests/oracles.py) give the same plan, or None, on every
    instance."""

    @staticmethod
    def instances(count, seed):
        """Random grids 2-9 x 2-9 with 0-4 static nodes, r_s 0-2, unequal
        step ranges 0-2, c_o 1-3, and stop_at None, 0, partial or full."""
        rng = random.Random(seed)
        for _ in range(count):
            grid = GridSpec(rng.randint(2, 9), rng.randint(2, 9))
            r_s = rng.randint(0, 2)
            static = rng.sample(sorted(grid.cells()), rng.randint(0, 4))
            c1 = sorted(static_coverage(static, r_s, grid)[1])
            args = (rng.randint(1, 3), rng.randint(1, 4), r_s, rng.randint(0, 2), rng.randint(0, 2),
                    rng.randint(1, 3))
            stop_at = rng.choice([None, None, 0, rng.randint(1, max(1, len(c1))), len(c1)])
            yield grid, c1, args, stop_at

    @staticmethod
    def handle(grid, c1, args):
        """The coverage model the seeders read: (n_mobile, k_max, r_s,
        rho_x, rho_y, c_o) over `c1`, step components or not."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return build_milp_cov(grid, c1, *args)

    def test_best_seed_plan(self, monkeypatch):
        # a smaller step budget keeps the reference quick, and a search
        # that runs out of it must run out at the same step; only coverage
        # seeds reach the backtracking search, so 350 draws keep it busy
        searched = []
        backtrack = harness._backtrack_plan
        monkeypatch.setattr(harness, "_backtrack_plan", lambda *a: searched.append(a) or backtrack(*a))
        monkeypatch.setattr(harness, "SEED_SEARCH_STEPS", 2_000)
        outcomes = set()
        for n, (grid, c1, args, stop_at) in enumerate(self.instances(350, 14)):
            got = best_seed_plan(self.handle(grid, c1, args), stop_at=stop_at)
            want = oracles.best_seed_plan(grid, c1, *args, stop_at=stop_at, step_budget=2_000)
            assert (got and got.positions) == (want and want.positions), (n, grid, c1, args, stop_at)
            outcomes.add((stop_at is None, got is None))
        # every mode seeds and fails, and the backtracking search runs often
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}
        assert len(searched) >= 40

    def test_no_backtracking_for_a_movement_seed(self, monkeypatch):
        # a movement seed (stop_at set) comes from the greedy starts, and a
        # movement solve's from them or the fewest-movements search; the
        # coverage draws show that the spy sees the backtracking search
        searched = []
        backtrack = harness._backtrack_plan
        monkeypatch.setattr(harness, "_backtrack_plan", lambda handle: searched.append(handle) or backtrack(handle))
        monkeypatch.setattr(harness, "SEED_SEARCH_STEPS", 2_000)
        monkeypatch.setattr(harness, "solve_milp", lambda *a, **k: bnb.MilpResult(
            "infeasible", None, None, None, None, 0))  # only the seeding is watched
        calls = collections.Counter()
        for grid, c1, args, stop_at in self.instances(350, 14):
            before = len(searched)
            best_seed_plan(self.handle(grid, c1, args), stop_at=stop_at)
            calls[stop_at is None] += len(searched) - before
        five = ExperimentConfig(rows=5, cols=5, n_static=0, placement="none", planner="milp-mov",
                                n_mobile=1, k_max=4)  # no greedy start reaches the target
        for cfg, deployment in [(five, None), *TestFewestMoves().instances(40, 22)]:
            before = len(searched)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                harness.plan_mobile_milp(cfg, deployment)
            calls[False] += len(searched) - before
        assert calls[False] == 0 and calls[True] >= 40, calls

    def test_single_start_greedy(self):
        for n, (grid, c1, args, stop_at) in enumerate(self.instances(100, 15)):
            handle = self.handle(grid, c1, args)
            for first, start in [(None, None), *enumerate(c1)]:
                got = harness._greedy_plan(handle, stop_at, first)
                want = oracles.greedy_seed_plan(grid, c1, *args, stop_at=stop_at, first_start=start)
                assert (got and got[0].positions) == (want and want.positions), (n, start)

    @pytest.mark.parametrize("sym", range(8))
    def test_table8_coverage_row_under_each_symmetry(self, sym):
        # the 8x8 L=3 / N_s=5 row, where every greedy start fails and the
        # backtracking search takes up to 2,132 steps
        grid = GridSpec(8, 8)
        static = [(j, i) if sym & 4 else (i, j) for i, j in TestBacktrackSeed.TABLE8_STATIC]
        static = [(9 - i if sym & 1 else i, 9 - j if sym & 2 else j) for i, j in static]
        c1 = sorted(static_coverage([Cell(*p) for p in static], 1, grid)[1])
        handle = build_milp_cov(grid, c1, 3, 4)
        for stop_at in (None, len(c1)):
            got = best_seed_plan(handle, stop_at=stop_at)
            want = oracles.best_seed_plan(grid, c1, 3, 4, 1, 2, 2, 3, stop_at=stop_at)
            assert got is not None and got.positions == want.positions


class TestRootBound:
    """A seeded static solve closes on the symmetry quotient's bound before
    its root LP, and the packing search stops at that bound; every answer is
    the one the solve without the bound gives."""

    @staticmethod
    def without_bound(monkeypatch):
        monkeypatch.setattr(bnb, "lp_bound", lambda *args: None)
        monkeypatch.setattr(harness, "lp_bound", lambda *args: None)

    @staticmethod
    def same(a, b):
        """Whether two results agree in everything but the node count."""
        fields = ("status", "objective", "best_bound", "gap")
        return [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields] and np.array_equal(
            a.incumbent, b.incumbent)

    @pytest.mark.parametrize("size, n_static, value", [(10, 10, 183.0), (8, 8, None), (8, 3, 72.0), (8, 5, 108.0)])
    def test_packing_seeds_close_before_the_root(self, size, n_static, value, monkeypatch):
        grid = GridSpec(size, size)
        handle = build_milp_static(grid, n_static)
        seed = encode_static(handle, pack_static_positions(handle))
        got = solve_milp(handle.instance, SolveParams(), warm_start=seed)
        assert got.status == "optimal" and got.nodes_explored == 0
        assert np.array_equal(got.incumbent, seed) and got.best_bound == got.objective
        if value is not None:
            assert got.objective == value
        self.without_bound(monkeypatch)
        want = solve_milp(build_milp_static(grid, n_static).instance, SolveParams(), warm_start=seed)
        assert want.nodes_explored == 1 and self.same(got, want)

    def test_seed_below_the_bound_solves_the_root(self, monkeypatch):
        def solve():
            handle = build_milp_static(GridSpec(8, 8), 3)
            seed = [Cell(1, 1), Cell(1, 4), Cell(1, 7)]  # disjoint footprints, short of 72
            return solve_milp(handle.instance, SolveParams(), warm_start=encode_static(handle, seed))

        got = solve()
        self.without_bound(monkeypatch)
        want = solve()
        assert got.nodes_explored == want.nodes_explored >= 1
        assert self.same(got, want) and got.objective == 72.0

    def test_placements_match_the_solve_without_the_bound(self, monkeypatch):
        cases = [(10, 10, 4.0), (10, 10, 1.0)] + [(r, n, a) for r, n in [(8, 3), (8, 5), (7, 4)]
                                                    for a in (1.0, 1.3, 4.0)]
        configs = [ExperimentConfig(rows=r, cols=r, n_static=n, boundary_weight=a) for r, n, a in cases]
        got = [harness.place_static_milp(cfg) for cfg in configs]
        self.without_bound(monkeypatch)
        for cfg, (deployment, result) in zip(configs, got):
            want_deployment, want = harness.place_static_milp(cfg)
            assert deployment == want_deployment and self.same(result, want), cfg
            assert result.nodes_explored <= want.nodes_explored

    def test_packing_stop_keeps_the_placement(self):
        met = collections.Counter()
        for size in (6, 8, 10, 12):
            for n_static in (3, 5, 7, 10):
                for alpha in (1.0, 1.3, 4.0):
                    for c_o in (1, 2, 3):
                        grid = GridSpec(size, size)
                        handle = build_milp_static(grid, n_static, 1, c_o, alpha)
                        stop_at = harness._packing_bound(handle)
                        if alpha == 1.3:
                            assert stop_at is None  # a fractional weight's sums are rounded: no stop
                            continue
                        got = pack_static_positions(handle, stop_at=stop_at)
                        assert got == pack_static_positions(handle), (size, n_static, alpha, c_o)
                        met[c_o] += got is not None and static_deployment(
                            grid, got, 1, alpha).objective_value == stop_at
        # the bound is met, so the search stops, on most of these grids at every cap
        assert min(met.values()) > 20, met  # 24, 30 and 32 at c_o 1, 2 and 3

    def test_packing_search_stops_at_the_first_placement_that_reaches_the_value(self):
        # mov10's search finds placements of lower value before its best
        # (183): below 183 it returns one of those, never one short of the
        # value it was told to stop at
        grid = GridSpec(10, 10)
        handle = build_milp_static(grid, 10)
        values = []
        for stop_at in range(171, 184):
            got = pack_static_positions(handle, stop_at=stop_at)
            values.append(static_deployment(grid, got, 1, 4.0).objective_value)
            assert values[-1] >= stop_at
        assert values == sorted(values) and values[0] < values[-1] == 183.0

    def test_infeasible_count_has_no_deployment(self):
        # nine disjoint footprints fit on 8x8: the quotient LP is infeasible,
        # so the packing search has no bound to stop at and spends its
        # budget, and the root LP proves the count infeasible
        deployment, result = harness.place_static_milp(ExperimentConfig(rows=8, cols=8, n_static=14))
        assert deployment is None and result.status == "infeasible" and result.incumbent is None

    def test_packing_stops_at_every_cap(self, monkeypatch):
        # each node scores its own footprint, so the packing value is the
        # static objective under any cap, and the solve's bound stops the
        # search on the placement that the search without a stop returns
        stops = []
        pack = harness.pack_static_positions
        monkeypatch.setattr(harness, "pack_static_positions",
                            lambda *args, stop_at=None: stops.append(stop_at) or pack(*args, stop_at=stop_at))
        configs = [ExperimentConfig(rows=8, cols=8, n_static=5, c_o_static=c_o) for c_o in (1, 2, 3)]
        got = [harness.place_static_milp(cfg) for cfg in configs]
        assert stops == [108, 120, 120]
        for cfg, (deployment, result) in zip(configs, got):
            handle = build_milp_static(cfg.grid, 5, 1, cfg.c_o_static, 4.0)
            assert (result.status, result.nodes_explored) == ("optimal", 0)
            assert result.objective == deployment.objective_value == stops[cfg.c_o_static - 1]
            assert list(deployment.positions) == pack(handle), cfg

    def test_each_model_has_one_lpdata(self, monkeypatch):
        # the packing bound, the quotient bound and the search of a static
        # solve, and the quotient bound and the search of a movement solve,
        # read one LpData per model, so each model's integrality verdict (a
        # cached property) is worked out once; each model's LpData is the
        # one built over its matrix (the quotient LPs are built over others)
        built = []
        from_arrays = LpData.from_arrays
        monkeypatch.setattr(LpData, "from_arrays",
                            classmethod(lambda cls, A, *rest: built.append(A) or from_arrays(A, *rest)))
        cfg = ExperimentConfig(**TestFewestMoves.MOV10)
        static = []
        build = harness.build_milp_static
        monkeypatch.setattr(harness, "build_milp_static", lambda *a: static.append(build(*a)) or static[-1])
        deployment, _ = harness.place_static_milp(cfg)
        handle, plan, result = harness.plan_mobile_milp(cfg, deployment)
        assert (result.status, plan.movements) == ("optimal", 6)
        models = [static[0].instance, handle.instance]
        assert [sum(A is m.matrix() for A in built) for m in models] == [1, 1]
        assert all("objective_integral" in vars(LpData(m)) for m in models)


class TestFewestMoves:
    """A movement seed above the quotient bound is replaced by the plan of
    fewest movements that a bounded search finds; the solve verifies it by
    substitution, as it does every seed."""

    @staticmethod
    def walks(c1, k_max, rho_x, rho_y):
        """The number of single-node paths of 1..k_max cells over `c1`: the
        size of the exhaustive oracle's path table."""
        pos = np.array([tuple(c) for c in c1])
        step = ((np.abs(pos[:, None, 0] - pos[None, :, 0]) <= rho_x)
                & (np.abs(pos[:, None, 1] - pos[None, :, 1]) <= rho_y)).astype(float)
        walks, total = np.ones(len(c1)), 0.0
        for _ in range(k_max):
            total += walks.sum()
            walks = step @ walks
        return total

    def instances(self, count, seed):
        """Random 4x4-6x6 grids with 0-3 static nodes, 1-2 mobile nodes,
        K 1-4, step ranges 1-2, c_o 1-3 and targets 0.70-1.  Draws whose
        path table would make the oracle slow (over 20,000 paths for one
        node, 2,000 for two) are drawn again."""
        rng = random.Random(seed)
        while count:
            grid = GridSpec(rng.randint(4, 6), rng.randint(4, 6))
            static = rng.sample(sorted(grid.cells()), rng.randint(0, 3))
            deployment = static_deployment(grid, static, 1, 4.0) if static else None
            c1 = sorted(set(grid.cells()) - set(deployment.covered if static else ()))
            n_mobile, k_max = rng.randint(1, 2), rng.randint(1, 4)
            rho_x, rho_y, c_o = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 3)
            target = Fraction(rng.randint(70, 100), 100)
            if c1 and self.walks(c1, k_max, rho_x, rho_y) <= (2_000 if n_mobile == 2 else 20_000):
                count -= 1
                yield ExperimentConfig(
                    rows=grid.rows, cols=grid.cols, n_static=len(static),
                    placement="milp-static" if static else "none", planner="milp-mov",
                    n_mobile=n_mobile, k_max=k_max, rho_x=rho_x, rho_y=rho_y, c_o_mobile=c_o,
                    coverage_target=target,
                ), deployment

    def test_search_against_the_exhaustive_oracle(self, monkeypatch):
        # the search from 0 to L*K movements finds the oracle's fewest, or
        # none when the oracle has none; the seed that plan_mobile_milp hands
        # its solve (the ranked greedy start or the search's plan) is the
        # oracle's fewest wherever there is one
        from gridcover.formulations import validate_plan

        seeds = []
        encode = harness.encode_plan
        monkeypatch.setattr(harness, "encode_plan", lambda h, plan: seeds.append(plan) or encode(h, plan))
        monkeypatch.setattr(harness, "solve_milp", lambda *a, **k: bnb.MilpResult(
            "infeasible", None, None, None, None, 0))  # only the seed is compared
        outcomes = collections.Counter()
        for n, (cfg, deployment) in enumerate(self.instances(220, 22)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                handle = harness.build_mobile_milp(cfg, deployment)
                seeds.clear()
                harness.plan_mobile_milp(cfg, deployment)
            c1 = list(handle.uncovered)
            want = oracles.min_movements_plan(
                cfg.grid, c1, handle.static_covered_count, cfg.n_mobile, cfg.k_max, 1,
                cfg.rho_x, cfg.rho_y, cfg.c_o_mobile, Fraction(cfg.coverage_target))
            stop_at = max(0, handle.coverage_threshold - handle.static_covered_count)
            plan = harness._fewest_moves_plan(handle, stop_at, 0, cfg.n_mobile * cfg.k_max)
            if plan is None and want is not None:
                outcomes["out of budget"] += 1
                continue
            assert [seed.movements for seed in seeds] == ([] if want is None else [want]), (n, cfg)
            if plan is None:
                outcomes["infeasible"] += 1
                continue
            outcomes["equal"] += 1
            assert plan.movements == want, (n, cfg)
            assert validate_plan(plan, cfg.grid, c1, cfg.rho_x, cfg.rho_y) == []
            data = LpData(handle.instance)
            assert data.feasible(encode_plan(handle, plan), data.lower, data.upper), (n, cfg)
            # the floor that the solve's search starts from is below every plan
            most = max(fp.bit_count() for fp in handle.footprint_masks)
            bound = harness.lp_bound(handle.instance)
            assert -(-stop_at // most) <= want and (bound is None or math.ceil(bound - 1e-6) <= want)
        assert outcomes == {"equal": 123, "infeasible": 97}, outcomes

    def test_seed_is_never_worse_than_the_best_greedy_start(self, monkeypatch):
        # random 6-10 x 6-10 grids with up to one static node per ten cells,
        # 1-3 mobile nodes, K 1-4, step ranges 1-2, c_o 1-3 and targets
        # 0.60-1: the seed a movement solve gets exists whenever some greedy
        # start reaches the target, and has no more movements than the best;
        # on a few draws the fewest-movements search beats every start
        seeds = []
        encode = harness.encode_plan
        monkeypatch.setattr(harness, "encode_plan", lambda h, plan: seeds.append(plan) or encode(h, plan))
        monkeypatch.setattr(harness, "solve_milp", lambda *a, **k: bnb.MilpResult(
            "infeasible", None, None, None, None, 0))  # only the seed is compared
        rng = random.Random(34)
        reached = below = 0
        for n in range(150):
            grid = GridSpec(rng.randint(6, 10), rng.randint(6, 10))
            static = rng.sample(sorted(grid.cells()), rng.randint(0, grid.n_cells // 10))
            cfg = ExperimentConfig(
                rows=grid.rows, cols=grid.cols, n_static=len(static),
                placement="milp-static" if static else "none", planner="milp-mov",
                n_mobile=rng.randint(1, 3), k_max=rng.randint(1, 4), rho_x=rng.randint(1, 2),
                rho_y=rng.randint(1, 2), c_o_mobile=rng.randint(1, 3),
                coverage_target=Fraction(rng.randint(60, 100), 100))
            deployment = static_deployment(grid, static, 1, 4.0) if static else None
            seeds.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                handle, _, _ = harness.plan_mobile_milp(cfg, deployment)
            if handle.nothing_to_plan:
                continue
            stop_at = max(0, handle.coverage_threshold - handle.static_covered_count)
            starts = [harness._greedy_plan(handle, stop_at, first)
                      for first in [None, *range(len(handle.uncovered))]]
            best = min((plan.movements for plan, covered in starts if covered >= stop_at), default=None)
            if best is None:
                continue
            reached += 1
            assert len(seeds) == 1 and seeds[0].movements <= best, (n, cfg)
            below += seeds[0].movements < best
        assert reached >= 40 and below >= 1, (reached, below)  # 47 and 2

    # criterion 5: 10x10, ten static nodes placed by the MILP, three mobile
    # nodes over four iterations, full coverage
    MOV10 = dict(rows=10, cols=10, n_static=10, n_mobile=3, k_max=4, planner="milp-mov",
                 coverage_target=1, time_limit=300, node_limit=60)

    @staticmethod
    def mov10_deployment(cfg, sym):
        """mov10's static deployment under the `sym`-th symmetry of the grid."""
        deployment = harness.place_static_milp(cfg)[0]
        n = cfg.rows

        def apply(cell):
            i, j = (cell.j, cell.i) if sym & 4 else (cell.i, cell.j)
            return Cell(n + 1 - i if sym & 1 else i, n + 1 - j if sym & 2 else j)

        return static_deployment(cfg.grid, [apply(p) for p in deployment.positions], cfg.r_s,
                                 cfg.boundary_weight)

    @pytest.mark.parametrize("sym", range(8))
    def test_mov10_closes_before_any_lp(self, sym, monkeypatch):
        cfg = ExperimentConfig(**self.MOV10)
        deployment = self.mov10_deployment(cfg, sym)
        lp_calls = []
        solve_lp = bnb.solve_lp
        monkeypatch.setattr(bnb, "solve_lp", lambda *a: lp_calls.append(a) or solve_lp(*a))
        _, plan, got = harness.plan_mobile_milp(cfg, deployment)
        assert (got.status, got.objective, got.nodes_explored, plan.movements) == ("optimal", 6.0, 0, 6)
        assert lp_calls == []
        TestRootBound.without_bound(monkeypatch)
        # the reference search runs uncapped, so that the close is compared
        # with a proven optimum: without the bound it takes up to 64 nodes
        _, _, want = harness.plan_mobile_milp(ExperimentConfig(**{**self.MOV10, "node_limit": None}), deployment)
        assert (got.status, got.objective, got.best_bound) == (want.status, want.objective, want.best_bound)


class TestMovementFloor:
    """A movement model whose counting floor, the cells to cover over the
    largest footprint rounded up, exceeds the n_mobile * horizon placements
    of any plan is "infeasible" at 0 nodes, before any seeder or LP."""

    def test_16x16_is_infeasible_without_an_lp(self, monkeypatch):
        # 112 cells to cover with footprints of at most 9: 13 placements,
        # against the 3 x 4 = 12 of a plan (the root LP took ~35 s to prove it)
        from gridcover import quotient

        cfg = ExperimentConfig(rows=16, cols=16, n_static=16, n_mobile=3, k_max=4, planner="milp-mov",
                               coverage_target=1, time_limit=120, node_limit=10)
        deployment = harness.place_static_milp(cfg)[0]
        calls = []
        for module in (bnb, quotient):
            solve_lp = module.solve_lp
            monkeypatch.setattr(module, "solve_lp", lambda *a, f=solve_lp: calls.append(a) or f(*a))
        best_seed = harness.best_seed_plan
        monkeypatch.setattr(harness, "best_seed_plan", lambda *a, **k: calls.append(a) or best_seed(*a, **k))
        handle, plan, res = harness.plan_mobile_milp(cfg, deployment)
        assert len(handle.uncovered) == 112
        assert (plan, res.status, res.objective, res.best_bound, res.nodes_explored) == (
            None, "infeasible", None, None, 0)
        assert calls == []

    def test_small_models_agree_with_the_full_solve(self):
        rng = random.Random(16)
        checked = 0
        while checked < 30:
            grid = GridSpec(rng.randint(3, 5), rng.randint(3, 5))
            static = rng.sample(sorted(grid.cells()), rng.randint(0, 2))
            cfg = ExperimentConfig(
                rows=grid.rows, cols=grid.cols, n_static=len(static),
                placement="milp-static" if static else "none", planner="milp-mov",
                n_mobile=rng.randint(1, 2), k_max=rng.randint(1, 2), rho_x=rng.randint(1, 2),
                rho_y=rng.randint(1, 2), c_o_mobile=rng.randint(1, 3),
                coverage_target=f"{rng.randint(60, 100)}/100")
            deployment = static_deployment(grid, static, 1, 4.0) if static else None
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                handle = harness.build_mobile_milp(cfg, deployment)
                if handle.nothing_to_plan:
                    continue
                stop_at = max(0, handle.coverage_threshold - handle.static_covered_count)
                most = max(fp.bit_count() for fp in handle.footprint_masks)
                if -(-stop_at // most) <= cfg.n_mobile * cfg.k_max:
                    continue
                checked += 1
                _, plan, res = harness.plan_mobile_milp(cfg, deployment)
            assert (plan, res.status, res.nodes_explored) == (None, "infeasible", 0)
            assert solve_milp(handle.instance).status == "infeasible", cfg


class TestPathBound:
    """The single-path bound of the coverage model: no plan covers more than
    n_mobile times the most that one node's path covers, and the exact
    search path_covers_more decides whether a path covers more than a
    threshold.  A seed that attains the bound closes its solve before any
    LP of the search."""

    TABLE8_L1_NS3 = ExperimentConfig(rows=8, cols=8, n_static=3, n_mobile=1, k_max=4,
                                     placement="milp-static", planner="milp-cov",
                                     time_limit=240, node_limit=40)

    @staticmethod
    def instances(count, seed, size, k_top):
        """Random grids 3-5 x 3-5 with an uncovered set of 1 to `size` cells,
        as (grid, c1, (k_max 1 to k_top, r_s 0-2, rho_x 1-2, rho_y 1-2))."""
        rng = random.Random(seed)
        for _ in range(count):
            grid = GridSpec(rng.randint(3, 5), rng.randint(3, 5))
            c1 = sorted(rng.sample(sorted(grid.cells()), rng.randint(1, min(size, grid.n_cells))))
            yield grid, c1, (rng.randint(1, k_top), rng.randint(0, 2), rng.randint(1, 2), rng.randint(1, 2))

    @staticmethod
    def handle(grid, c1, n_mobile, args, c_o=3):
        k_max, r_s, rho_x, rho_y = args
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # step components
            return build_milp_cov(grid, c1, n_mobile, k_max, r_s, rho_x, rho_y, c_o)

    @staticmethod
    def most(handle):
        """The most cells one path covers, by the search at every threshold."""
        return next(m for m in range(len(handle.uncovered) + 1)
                    if harness.path_covers_more(handle, m) is False)

    def test_search_equals_brute_force(self):
        for n, (grid, c1, args) in enumerate(self.instances(200, 32, 12, 4)):
            k_max, r_s, rho_x, rho_y = args
            paths = oracles._paths(c1, k_max, rho_x, rho_y, allow_stop=False)
            top = int((oracles._path_count_matrix(paths, c1, r_s, grid) > 0).sum(axis=1).max())
            handle = self.handle(grid, c1, 1, args)
            assert harness.path_covers_more(handle, top) is False, (n, grid, c1, args)
            assert harness.path_covers_more(handle, top - 1) is True, (n, grid, c1, args)

    def test_bound_is_never_below_the_optimum(self):
        rng = random.Random(33)
        closed = {True: 0, False: 0}
        for n_mobile, count, size, k_top in ((1, 80, 9, 4), (2, 60, 7, 2)):
            for grid, c1, args in self.instances(count, 34 + n_mobile, size, k_top):
                c_o = rng.randint(1, 3)
                handle = self.handle(grid, c1, n_mobile, args, c_o)
                best = oracles.best_coverage_plan(grid, c1, n_mobile, *args, c_o)
                assert n_mobile * self.most(handle) >= best, (grid, c1, args, c_o)
                seed = best_seed_plan(handle)
                if seed is None:
                    continue
                bound = harness.path_bound(handle, seed)
                closed[bound is not None] += 1
                if bound is not None:
                    assert bound == n_mobile * self.most(handle) == best, (grid, c1, args, c_o)
        assert min(closed.values()) >= 10, closed

    def test_a_search_out_of_its_budget_gives_no_bound(self, monkeypatch):
        # the table8 row's question (a path of more than 28 cells?) takes
        # 801 prefixes; one fewer, and the solve runs its capped search
        cfg = self.TABLE8_L1_NS3
        deployment = harness.place_static_milp(cfg)[0]
        handle = harness.build_mobile_milp(cfg, deployment)
        seed = best_seed_plan(handle)
        monkeypatch.setattr(harness, "PATH_SEARCH_STEPS", 801)
        assert harness.path_covers_more(handle, 28) is False
        assert harness.path_bound(handle, seed) == 28
        monkeypatch.setattr(harness, "PATH_SEARCH_STEPS", 800)
        assert harness.path_covers_more(handle, 28) is None
        assert harness.path_bound(handle, seed) is None
        _, _, res = harness.plan_mobile_milp(cfg, deployment)
        assert (res.status, res.objective, res.best_bound, res.nodes_explored) == ("feasible", 28.0, 29.0, 40)

    @pytest.mark.parametrize("sym", range(8))
    def test_table8_row_closes_before_any_lp(self, sym, monkeypatch):
        # the row's LP and quotient bounds are 29, its seed 28 and the most
        # that one path covers 28, under each of the grid's symmetries
        cfg = self.TABLE8_L1_NS3
        positions = harness.place_static_milp(cfg)[0].positions
        positions = [(j, i) if sym & 4 else (i, j) for i, j in positions]
        positions = [(9 - i if sym & 1 else i, 9 - j if sym & 2 else j) for i, j in positions]
        deployment = static_deployment(cfg.grid, positions, cfg.r_s, cfg.boundary_weight)
        node_lps = []
        monkeypatch.setattr(bnb, "solve_lp", lambda *a: node_lps.append(a))
        handle, plan, res = harness.plan_mobile_milp(cfg, deployment)
        assert (res.status, res.objective, res.best_bound, res.nodes_explored) == ("optimal", 28.0, 28.0, 0)
        assert node_lps == [] and len(handle.uncovered) == 37
        assert f"{evaluate_plan(deployment, plan, cfg.sensor_params, cfg.grid).coverage_pct:.2f}" == "85.94"
