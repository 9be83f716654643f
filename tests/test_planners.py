"""Greedy and random baselines: determinism, gain optimality, accounting."""

from fractions import Fraction

import pytest

from gridcover.formulations import validate_plan
from gridcover.grid import (
    Cell,
    GridSpec,
    SensorParams,
    evaluate_plan,
    reachable_window,
    sensing_footprint,
    static_coverage,
)
from gridcover.planners import BaselineConfig, greedy_plan, random_plan


def fixed_start(*cells, **kw):
    return BaselineConfig(
        n_mobile=len(cells), initial_placement=tuple(cells), **kw
    )


class TestGreedy:
    def test_tie_break_moves_to_smallest_cell(self):
        # after one center shot everything is covered; all gains are 0 and
        # the lexicographically smallest reachable cell wins
        grid = GridSpec(3, 3)
        cfg = fixed_start((2, 2), k_max=2)
        plan = greedy_plan(grid, None, cfg)
        assert plan.positions[(1, 1)] == Cell(2, 2)
        assert plan.positions[(1, 2)] == Cell(1, 1)

    def test_5x5_second_step_matches_window_scan(self):
        grid = GridSpec(5, 5)
        cfg = fixed_start((2, 2), k_max=2)
        plan = greedy_plan(grid, None, cfg)
        covered_after_first = sensing_footprint(Cell(2, 2), 1, grid)
        gains = {
            cand: len(sensing_footprint(cand, 1, grid) - covered_after_first)
            for cand in reachable_window(Cell(2, 2), 2, 2, grid)
        }
        chosen = plan.positions[(1, 2)]
        assert chosen == Cell(4, 4)
        assert gains[chosen] == max(gains.values())

    def test_per_step_gain_is_maximal(self):
        grid = GridSpec(6, 7)
        covered_static, _ = static_coverage([Cell(2, 2)], 1, grid)

        class Dep:
            covered = frozenset(covered_static)

        cfg = fixed_start((4, 4), (1, 6), k_max=3, seed=3)
        plan = greedy_plan(grid, Dep(), cfg)
        covered = set(covered_static)
        for l in (1, 2):
            covered |= sensing_footprint(plan.positions[(l, 1)], 1, grid)
        for k in (2, 3):
            for l in (1, 2):
                prev = plan.positions[(l, k - 1)]
                chosen = plan.positions[(l, k)]
                gain = len(sensing_footprint(chosen, 1, grid) - covered)
                best = max(
                    len(sensing_footprint(cand, 1, grid) - covered)
                    for cand in reachable_window(prev, 2, 2, grid)
                )
                assert gain == best
                covered |= sensing_footprint(chosen, 1, grid)

    def test_plans_validate(self):
        grid = GridSpec(8, 8)
        cfg = BaselineConfig(n_mobile=3, k_max=5, seed=11)
        plan = greedy_plan(grid, None, cfg)
        assert plan.movements == 15
        assert not validate_plan(plan, grid, sorted(grid.cells()), 2, 2)


class TestRandom:
    def test_same_seed_same_plan(self):
        grid = GridSpec(10, 10)
        cfg = BaselineConfig(n_mobile=3, k_max=6, seed=7)
        assert random_plan(grid, None, cfg) == random_plan(grid, None, cfg)

    def test_different_seeds_differ(self):
        grid = GridSpec(10, 10)
        a = random_plan(grid, None, BaselineConfig(n_mobile=2, k_max=6, seed=1))
        b = random_plan(grid, None, BaselineConfig(n_mobile=2, k_max=6, seed=2))
        assert a != b

    def test_zero_range_never_moves(self):
        grid = GridSpec(5, 5)
        cfg = fixed_start((3, 3), k_max=4, rho_x=0, rho_y=0)
        plan = random_plan(grid, None, cfg)
        assert all(pos == Cell(3, 3) for pos in plan.positions.values())
        report = evaluate_plan(None, plan, SensorParams(), grid)
        assert report.covered == frozenset(sensing_footprint(Cell(3, 3), 1, grid))

    def test_plans_stay_on_grid_and_within_step_range(self):
        grid = GridSpec(6, 9)
        cfg = BaselineConfig(n_mobile=2, k_max=8, seed=13, rho_x=1, rho_y=2)
        plan = random_plan(grid, None, cfg)
        assert not validate_plan(plan, grid, sorted(grid.cells()), 1, 2)

    def test_coverage_nondecreasing_in_horizon(self):
        grid = GridSpec(7, 7)
        params = SensorParams()
        prev = -1
        for k_max in (2, 4, 6):
            plan = random_plan(grid, None, BaselineConfig(n_mobile=2, k_max=k_max, seed=5))
            count = evaluate_plan(None, plan, params, grid).covered_count
            assert count >= prev
            prev = count


class TestGreedyVsRandom:
    def test_greedy_dominates_random_on_average(self):
        grid = GridSpec(10, 10)
        params = SensorParams()
        greedy_cov, random_cov = [], []
        for seed in range(5):
            cfg = BaselineConfig(n_mobile=3, k_max=10, seed=seed)
            greedy_cov.append(
                evaluate_plan(None, greedy_plan(grid, None, cfg), params, grid).covered_count
            )
            random_cov.append(
                evaluate_plan(None, random_plan(grid, None, cfg), params, grid).covered_count
            )
        assert sum(greedy_cov) / 5 > sum(random_cov) / 5


class TestMovementsToReach:
    params = SensorParams()

    def test_static_alone_suffices(self):
        grid = GridSpec(3, 3)

        class Dep:
            covered = frozenset(grid.cells())

        plan = greedy_plan(grid, Dep(), fixed_start((1, 1), k_max=2))
        assert evaluate_plan(Dep(), plan, self.params, grid).movements_to(1) == 0

    def test_single_center_placement(self):
        grid = GridSpec(3, 3)
        plan = greedy_plan(grid, None, fixed_start((2, 2), k_max=1))
        assert evaluate_plan(None, plan, self.params, grid).movements_to(1) == 1

    def test_four_step_sweep(self):
        from gridcover.formulations import MobilePlan

        grid = GridSpec(5, 5)
        plan = MobilePlan(1, 4, {
            (1, 1): Cell(2, 2), (1, 2): Cell(2, 4), (1, 3): Cell(4, 2), (1, 4): Cell(5, 4),
        })
        assert evaluate_plan(None, plan, self.params, grid).movements_to(1) == 4

    def test_never_reached_is_none(self):
        grid = GridSpec(9, 9)
        plan = greedy_plan(grid, None, fixed_start((1, 1), k_max=1))
        assert evaluate_plan(None, plan, self.params, grid).movements_to(1) is None

    def test_exact_fraction_threshold(self):
        grid = GridSpec(3, 3)
        plan = greedy_plan(grid, None, fixed_start((1, 1), k_max=1))
        report = evaluate_plan(None, plan, self.params, grid)
        # footprint of (1,1) covers 4 of 9 cells
        assert report.movements_to(Fraction(4, 9)) == 1
        assert report.movements_to("0.5") is None


class TestConfigValidation:
    def test_explicit_initial_length_checked(self):
        with pytest.raises(ValueError, match="one cell per node"):
            BaselineConfig(n_mobile=2, k_max=3, initial_placement=((1, 1),))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            BaselineConfig(n_mobile=1, k_max=1, initial_placement="fancy")

    def test_empty_seed_list_rejected(self):
        from gridcover.harness import ExperimentConfig

        with pytest.raises(ValueError, match="seeds must list at least one seed"):
            ExperimentConfig(seeds=())
        assert ExperimentConfig(seeds=(3,)).seeds == (3,)

    @pytest.mark.parametrize("rho", [(-1, 2), (2, -1)])
    def test_negative_step_range_rejected(self, rho):
        # the one message of the config, the baseline and the path builders
        from gridcover.formulations import build_milp_mov
        from gridcover.harness import ExperimentConfig

        rho_x, rho_y = rho
        for make in (lambda: BaselineConfig(n_mobile=1, k_max=2, rho_x=rho_x, rho_y=rho_y),
                     lambda: ExperimentConfig(planner="greedy", rho_x=rho_x, rho_y=rho_y),
                     lambda: build_milp_mov(GridSpec(5, 5), [Cell(1, 1)], 0, 1, 2, 1, rho_x, rho_y)):
            with pytest.raises(ValueError, match="step range must be >= 0"):
                make()
        # without a planner the step range plays no part
        assert ExperimentConfig(planner="none", rho_x=rho_x, rho_y=rho_y).rho_x == rho_x
