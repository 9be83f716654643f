"""Branch-and-bound against exhaustive binary enumeration."""

import math
import random
import warnings

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

import gridcover.bnb as bnb
from gridcover import harness
from gridcover.formulations import build_milp_static, encode_plan, static_deployment
from gridcover.grid import GridSpec
from gridcover.harness import ExperimentConfig
from gridcover.milp import GE, LE, MilpInstance
from gridcover.bnb import MilpResult, SolveParams, solve_milp
from gridcover.simplex import LpData, NodeBounds, _Solver, dual_bound, solve_lp

from oracles import milp_by_enumeration


def seeded_model(cfg: ExperimentConfig):
    """The coverage model of `cfg` over its static deployment, and the seed
    point that plan_mobile_milp hands its solve.  (That solve closes the
    table's L=1/N_s=3 row before any LP, on the single-path bound, so the
    tests of that row's search run the search on these directly.)"""
    handle = harness.build_mobile_milp(cfg, harness.place_static_milp(cfg)[0])
    return handle, encode_plan(handle, harness.best_seed_plan(handle))


def random_milp(rng: random.Random, n_bin=None, n_cont=None, n_rows=None) -> MilpInstance:
    n_bin = n_bin if n_bin is not None else rng.randint(2, 8)
    n_cont = n_cont if n_cont is not None else rng.randint(0, 2)
    n_rows = n_rows if n_rows is not None else rng.randint(1, 10)
    m = MilpInstance()
    for i in range(n_bin):
        m.add_variable(f"b{i}", "binary", 0, 1)
    for i in range(n_cont):
        m.add_variable(f"y{i}", "continuous", 0, rng.randint(1, 3))
    n = n_bin + n_cont
    for _ in range(n_rows):
        terms = [
            (j, rng.randint(-4, 4))
            for j in rng.sample(range(n), rng.randint(1, n))
        ]
        terms = [(j, c) for j, c in terms if c]
        if not terms:
            continue
        sense = rng.choices(["<=", ">=", "="], weights=[6, 3, 1])[0]
        rhs = rng.randint(0, 8) if sense == "<=" else rng.randint(-4, 3)
        m.add_constraint(terms, sense, rhs)
    m.set_objective(
        [(j, rng.randint(-5, 5)) for j in range(n)], rng.choice(["maximize", "minimize"])
    )
    return m


class TestBasics:
    def test_one_of_two(self):
        m = MilpInstance()
        a = m.add_variable("a", "binary", 0, 1)
        b = m.add_variable("b", "binary", 0, 1)
        m.add_constraint([(a, 1), (b, 1)], "<=", 1)
        m.set_objective([(a, 1), (b, 1)], "maximize")
        res = solve_milp(m)
        assert res.status == "optimal" and res.objective == pytest.approx(1.0)

    def test_infeasible(self):
        m = MilpInstance()
        x = m.add_variable("x", "binary", 0, 1)
        m.add_constraint([(x, 1)], ">=", 1)
        m.add_constraint([(x, 1)], "<=", 0)
        m.set_objective([(x, 1)], "maximize")
        assert solve_milp(m).status == "infeasible"

    def test_incumbent_binaries_exact_and_feasible(self):
        m = MilpInstance()
        vs = [m.add_variable(f"v{i}", "binary", 0, 1) for i in range(3)]
        m.add_constraint([(v, 2) for v in vs], "<=", 3)
        m.set_objective([(v, 1) for v in vs], "maximize")
        res = solve_milp(m)
        for v in vs:
            assert res.incumbent[v] in (0.0, 1.0)
        assert LpData(m).feasible(res.incumbent, m.lower, m.upper)
        assert m.objective() @ res.incumbent == pytest.approx(res.objective)

    def test_incumbent_is_a_float_vector_over_every_variable(self):
        m = MilpInstance()
        bs = [m.add_variable(f"b{i}", "binary", 0, 1) for i in range(3)]
        ys = [m.add_variable(f"y{i}", "continuous", 0, 2) for i in range(2)]
        m.add_constraint([(b, 1) for b in bs], "<=", 2)
        m.add_constraint([(ys[0], 1), (ys[1], 1), (bs[0], -1)], "<=", 1.5)
        m.set_objective([(v, 1) for v in bs + ys], "maximize")
        res = solve_milp(m)
        assert res.status == "optimal" and res.objective == pytest.approx(4.5)
        assert isinstance(res.incumbent, np.ndarray)
        assert res.incumbent.dtype == np.float64 and res.incumbent.shape == (m.n_variables,)

    def test_gap_definition(self):
        m = MilpInstance()
        x = m.add_variable("x", "binary", 0, 1)
        m.set_objective([(x, 5)], "maximize")
        res = solve_milp(m)
        assert res.status == "optimal"
        assert res.gap == pytest.approx(
            abs(res.objective - res.best_bound) / max(1, abs(res.objective))
        )
        assert res.gap <= 1e-9

    def test_pure_lp_instance(self):
        m = MilpInstance()
        x = m.add_variable("x", "continuous", 0, 2.5)
        m.set_objective([(x, 2)], "maximize")
        res = solve_milp(m)
        assert res.status == "optimal" and res.objective == pytest.approx(5.0)

    def test_zero_cost_ray_is_not_unbounded(self):
        # min y, x - y >= 0, x in [0, inf), y binary: the phase-2 tilt
        # improves along x's ray, the exact costs do not; the optimum is 0
        m = MilpInstance()
        x = m.add_variable("x", "continuous", 0, math.inf)
        y = m.add_variable("y", "binary", 0, 1)
        m.add_constraint([(x, 1), (y, -1)], ">=", 0)
        m.set_objective([(y, 1)], "minimize")
        res = solve_milp(m)
        assert res.status == "optimal" and res.objective == 0.0 and res.best_bound == 0.0

    @pytest.mark.parametrize("seed", [None, [0.0, 0.0]])
    def test_unbounded(self, seed):
        # max x + z, x - z >= 0, x in [0, inf), z binary: the root LP is
        # unbounded, seeded or not
        m = MilpInstance()
        x = m.add_variable("x", "continuous", 0, math.inf)
        z = m.add_variable("z", "binary", 0, 1)
        m.add_constraint([(x, 1), (z, -1)], ">=", 0)
        m.set_objective([(x, 1), (z, 1)], "maximize")
        res = solve_milp(m, warm_start=None if seed is None else np.array(seed))
        assert res.status == "unbounded" and res.nodes_explored == 1
        assert res.incumbent is None and res.objective is None and res.best_bound is None and res.gap is None


class TestWarmStart:
    def build(self):
        m = MilpInstance()
        vs = [m.add_variable(f"v{i}", "binary", 0, 1) for i in range(4)]
        m.add_constraint([(v, 1) for v in vs], "<=", 2)
        m.set_objective([(v, 1) for v in vs], "maximize")
        return m, vs

    def test_feasible_seed_does_not_change_optimum(self):
        m, vs = self.build()
        cold = solve_milp(m)
        warm = solve_milp(m, warm_start=np.array([1.0, 0.0, 0.0, 0.0]))
        assert cold.status == warm.status == "optimal"
        assert cold.objective == warm.objective == pytest.approx(2.0)

    def test_infeasible_seed_rejected(self):
        m, vs = self.build()
        with pytest.raises(ValueError, match="warm start"):
            solve_milp(m, warm_start=np.ones(len(vs)))

    def test_nan_seed_rejected(self):
        m, _ = self.build()
        with pytest.raises(ValueError, match="warm start"):
            solve_milp(m, warm_start=np.array([np.nan, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("shape", [(3,), (5,), (1, 4), ()])
    def test_seed_of_another_shape_rejected(self, shape):
        m, _ = self.build()
        with pytest.raises(ValueError, match=r"warm start has shape .*, expected \(4,\)"):
            solve_milp(m, warm_start=np.zeros(shape))

    def test_seed_left_unchanged(self):
        m, _ = self.build()
        seed = np.array([1.0, 1e-12, 0.0, 0.0])  # the solver snaps its binaries
        solve_milp(m, warm_start=seed)
        assert seed.tolist() == [1.0, 1e-12, 0.0, 0.0]

    def test_point_that_snapping_breaks_is_branched_on(self, monkeypatch):
        # a root point whose binary is off by 5e-7 reads as integral
        # (INT_TOL), but snapped to x = 0 it leaves y = 5e-7 above x, past
        # the rows' tolerance.  The node is split on x, and its x = 1 side
        # holds the optimum 0.5 (the snapped binaries' own best, y = 0, is 0)
        m = MilpInstance()
        x = m.add_variable("x", "binary", 0, 1)
        y = m.add_variable("y", "continuous", 0, 1)
        m.add_constraint([(y, 1), (x, -1)], "<=", 0)
        m.set_objective([(y, 1), (x, -0.5)], "maximize")
        calls = []

        def noisy(data, bounds=None):
            res = solve_lp(data, bounds)
            if not calls:
                res.values = np.array([5e-7, 5e-7])
            calls.append(bounds)
            return res

        monkeypatch.setattr(bnb, "solve_lp", noisy)
        got = solve_milp(m)
        assert got.status == "optimal" and got.objective == pytest.approx(0.5)
        assert got.incumbent.tolist() == [1.0, 1.0] and len(calls) == 3

    def test_optimal_seed_short_circuits(self):
        # seed attains the bound implied by variable boxes: zero nodes needed
        m = MilpInstance()
        vs = [m.add_variable(f"v{i}", "binary", 0, 1) for i in range(3)]
        m.add_constraint([(v, 1) for v in vs], "<=", 3)
        m.set_objective([(v, 1) for v in vs], "maximize")
        res = solve_milp(m, warm_start=np.ones(len(vs)))
        assert res.status == "optimal" and res.nodes_explored == 0


class TestLimits:
    def harder_instance(self):
        rng = random.Random(424)
        return random_milp(rng, n_bin=12, n_cont=0, n_rows=10)

    def test_node_limit_reports_bound(self):
        m = self.harder_instance()
        res = solve_milp(m, SolveParams(node_limit=1))
        assert res.status in ("feasible", "no-incumbent", "optimal", "infeasible")
        assert res.nodes_explored <= 1

    def test_negative_node_limit_rejected(self):
        with pytest.raises(ValueError, match="node_limit must be >= 0"):
            SolveParams(node_limit=-1)
        assert SolveParams(node_limit=0).node_limit == 0  # stop before the root LP

    def test_determinism_across_runs(self):
        m = self.harder_instance()
        a = solve_milp(m)
        b = solve_milp(m)
        assert a.nodes_explored == b.nodes_explored
        assert a.objective == b.objective
        assert np.array_equal(a.incumbent, b.incumbent)

    @pytest.mark.parametrize("order", ["best-bound", "depth-first"])
    def test_warm_node_solves_give_the_cold_answers(self, monkeypatch, order):
        # every node below the root starts from its parent's basis; its
        # status and point must be those of a cold solve of the same node
        rng = random.Random(31)
        instances = [self.harder_instance()]
        instances += [random_milp(rng, n_bin=14, n_cont=rng.randint(0, 2), n_rows=8) for _ in range(30)]
        warm_solves = []

        def compared(data, bounds=None):
            res = solve_lp(data, bounds)
            if getattr(bounds, "basis", None) is not None:
                cold = solve_lp(data, dict(bounds))
                if res.status == "cutoff":
                    # stopped at a safe bound that prunes the node: the cold
                    # solve's node is pruned by the same test, and its
                    # optimum lies on the near side of that bound
                    assert cold.status == "infeasible" or (
                        bounds.prunes(cold.objective)
                        and data.obj_sign * (cold.objective - res.objective) >= -1e-9
                    )
                else:
                    assert res.status == cold.status
                if res.status == "optimal":
                    gap = np.abs(res.values - cold.values).max()
                    assert gap <= 1e-9
                warm_solves.append(res.status)
            return res

        monkeypatch.setattr(bnb, "solve_lp", compared)
        for m in instances:
            solve_milp(m, SolveParams(node_selection=order))
        assert len(warm_solves) > 150 and {"infeasible", "cutoff"} <= set(warm_solves)

    def test_gap_stop_is_within_the_gap_of_the_optimum(self):
        # a search may stop "optimal" once the incumbent is within mip_gap of
        # the open nodes' bound; the optimum then lies between the two
        rng = random.Random(5)
        gap_stops = 0
        for _ in range(120):
            m = random_milp(rng, n_bin=rng.randint(10, 12), n_cont=0, n_rows=rng.randint(6, 10))
            want_status, want = milp_by_enumeration(m)
            sense_max = m.objective_sense == "maximize"
            for order in ("best-bound", "depth-first"):
                for mip_gap in (0.05, 0.3):
                    res = solve_milp(m, SolveParams(mip_gap=mip_gap, node_selection=order))
                    if want_status == "infeasible":
                        assert res.status == "infeasible"
                        continue
                    assert res.status == "optimal" and res.gap <= mip_gap + 1e-12
                    # on the gap's own scale, the incumbent's magnitude
                    assert abs(res.objective - want) <= mip_gap * max(1.0, abs(res.objective)) + 1e-9
                    assert (res.best_bound >= want - 1e-7) if sense_max else (res.best_bound <= want + 1e-7)
                    gap_stops += res.gap > 0
        assert gap_stops >= 10, gap_stops

    def test_depth_first_solves_the_first_child_next(self, monkeypatch):
        # right after a node is branched, depth-first solves the child on the
        # side the branching binary leans toward (down at an exact 0.5)
        solves = []

        def recorded(data, bounds=None):
            res = solve_lp(data, bounds)
            solves.append((dict(bounds or {}), getattr(bounds, "basis", None), res))
            return res

        monkeypatch.setattr(bnb, "solve_lp", recorded)
        rng = random.Random(12)
        branched = 0
        for m in [self.harder_instance()] + [random_milp(rng, n_bin=12, n_cont=1, n_rows=8) for _ in range(10)]:
            del solves[:]
            solve_milp(m, SolveParams(node_selection="depth-first"))
            binaries = np.flatnonzero(LpData(m).is_binary)
            for k, (bounds, _, res) in enumerate(solves):
                children = [j for j, (_, basis, _) in enumerate(solves) if basis is not None and basis is res.basis]
                if not children:
                    continue
                branched += 1
                assert children[0] == k + 1
                xb = res.values[binaries]
                pos = int(np.argmax(np.minimum(np.abs(xb), np.abs(1.0 - xb))))
                side = 1.0 if xb[pos] > 0.5 + 1e-9 else 0.0
                assert solves[k + 1][0] == {**bounds, int(binaries[pos]): (side, side)}
        assert branched > 50, branched

    def test_depth_first_matches_best_bound_objective(self):
        m = self.harder_instance()
        bb = solve_milp(m, SolveParams(node_selection="best-bound"))
        df = solve_milp(m, SolveParams(node_selection="depth-first"))
        assert bb.status == df.status
        if bb.status == "optimal":
            assert bb.objective == pytest.approx(df.objective, abs=1e-6)


def stopping_bound(solver: _Solver):
    """The safe bound of the basis a solver's dual stopped on, recomputed
    apart: its duals under the exact costs from a dense solve with the
    basis matrix, lifted to the full rows, then dual_bound over the node's
    boxes."""
    c = np.zeros(solver.ncols)
    c[: solver.n + solver.m] = solver.lp.cost
    y = np.linalg.solve(solver.F[:, solver.basis].toarray().T, c[solver.basis])
    return dual_bound(solver.data, solver.lp.full_duals(y, solver.data.m), solver.x_lo, solver.x_up)


class TestHandedBound:
    """A bound handed with the instance (hand_bound) closes a seeded search
    before any LP when the seed attains it.  It is read only after the box
    and quotient bounds fail to close the search, at most once, and a change
    to the model drops it."""

    @staticmethod
    def odd_cycle():
        # x_i + x_{i+1} <= 1 around a triangle at the fractional weight 1.1:
        # the LP and quotient bounds are 1.65 and the optimum is 1.1, and a
        # fractional objective is not rounded
        m = MilpInstance()
        xs = [m.add_variable(f"x{i}", "binary", 0, 1) for i in range(3)]
        for i in range(3):
            m.add_constraint([(xs[i], 1), (xs[(i + 1) % 3], 1)], "<=", 1)
        m.set_objective([(x, 1.1) for x in xs], "maximize")
        return m

    def test_a_bound_the_seed_attains_closes_before_any_lp(self, monkeypatch):
        m, seed = self.odd_cycle(), np.array([1.0, 0.0, 0.0])
        assert solve_milp(m, warm_start=seed).nodes_explored > 0
        calls, lps = [], []
        solve = bnb.solve_lp
        monkeypatch.setattr(bnb, "solve_lp", lambda *a: lps.append(a) or solve(*a))
        bnb.hand_bound(m, lambda: calls.append(1) or 1.1)
        for _ in range(2):
            res = solve_milp(m, warm_start=seed)
            assert (res.status, res.objective, res.best_bound, res.nodes_explored) == ("optimal", 1.1, 1.1, 0)
        assert calls == [1] and lps == []
        # an unseeded search has nothing to close on, and a change to the
        # model drops the bound
        assert solve_milp(m).nodes_explored > 0
        m.add_constraint([(0, 1)], "<=", 1)
        assert solve_milp(m, warm_start=seed).nodes_explored > 0 and calls == [1]

    def test_no_bound_and_a_bound_above_the_seed_leave_the_search_as_it_was(self):
        seed = np.array([1.0, 0.0, 0.0])
        want = solve_milp(self.odd_cycle(), warm_start=seed)
        for bound in (None, 1.2):
            m = self.odd_cycle()
            bnb.hand_bound(m, lambda: bound)
            got = solve_milp(m, warm_start=seed)
            assert (got.status, got.objective, got.best_bound, got.nodes_explored) == (
                want.status, want.objective, want.best_bound, want.nodes_explored)

    def test_read_only_when_the_box_and_quotient_bounds_leave_a_gap(self):
        # the box bound closes max x <= 1 at the seed 1, and the quotient
        # bound closes one of two binaries at the seed (1, 0)
        box = MilpInstance()
        x = box.add_variable("x", "binary", 0, 1)
        box.set_objective([(x, 1)], "maximize")
        pair = MilpInstance()
        a, b = pair.add_variable("a", "binary", 0, 1), pair.add_variable("b", "binary", 0, 1)
        pair.add_constraint([(a, 1), (b, 1)], "<=", 1)
        pair.set_objective([(a, 1), (b, 1)], "maximize")
        for m, seed in ((box, [1.0]), (pair, [1.0, 0.0])):
            bnb.hand_bound(m, lambda: pytest.fail("the handed bound was read"))
            res = solve_milp(m, warm_start=np.array(seed))
            assert (res.status, res.objective, res.nodes_explored) == ("optimal", 1.0, 0)


class TestCutoff:
    """A warm node LP stops once a safe bound prunes its node, with status
    "cutoff": the search is then the one that solves each node LP to its
    end (its NodeBounds stripped of `prunes`), each cut-off node is one
    that the cold solve of its bounds prunes by the same test, and the bound
    it carries is the safe bound of the basis its dual stopped on."""

    @staticmethod
    def spy(monkeypatch):
        """Route bnb's LPs through a spy; returns (strip, cutoffs): set
        strip[0] to take the prune test off every NodeBounds, and cutoffs
        collects the (bound, cold value) of each cut-off node, once it is
        checked."""
        strip, cutoffs, stopped = [False], [], []
        dual_phase = _Solver._dual_phase

        def spy_dual_phase(self, c):
            out = dual_phase(self, c)
            if out == "cutoff":
                stopped.append(self)
            return out

        def spy_solve_lp(data, bounds=None):
            if strip[0] and isinstance(bounds, NodeBounds):
                bounds.prunes = None
            res = solve_lp(data, bounds)
            assert res.status != "cutoff" or not strip[0]
            if res.status == "cutoff":
                assert res.values is None and res.basis is None
                assert res.objective == pytest.approx(stopping_bound(stopped.pop()), rel=1e-12, abs=1e-9)
                slot = data.last_factor
                cold = solve_lp(data, dict(bounds))
                data.last_factor = slot
                assert bounds.prunes(res.objective)
                assert cold.status in ("optimal", "infeasible")
                if cold.status == "optimal":
                    # pruned by the same test, and on the near side of the bound
                    assert bounds.prunes(cold.objective)
                    assert data.obj_sign * (cold.objective - res.objective) >= -1e-9
                cutoffs.append((res.objective, cold.objective))
            return res

        monkeypatch.setattr(_Solver, "_dual_phase", spy_dual_phase)
        monkeypatch.setattr(bnb, "solve_lp", spy_solve_lp)
        return strip, cutoffs

    @staticmethod
    def outcome(res: MilpResult):
        incumbent = None if res.incumbent is None else res.incumbent.tobytes()
        return res.status, res.objective, res.best_bound, res.nodes_explored, incumbent

    def test_random_searches_are_the_searches_without_the_cutoff(self, monkeypatch):
        strip, cutoffs = self.spy(monkeypatch)
        rng = random.Random(28)
        searches = 0
        for _ in range(300):
            m = random_milp(rng, n_bin=rng.randint(4, 12), n_cont=rng.randint(0, 3), n_rows=rng.randint(3, 9))
            for order in ("best-bound", "depth-first"):
                for limit in (None, 5):
                    params = SolveParams(node_selection=order, node_limit=limit)
                    strip[0] = False
                    got = solve_milp(m, params)
                    strip[0] = True
                    want = solve_milp(m, params)
                    assert self.outcome(got) == self.outcome(want)
                    searches += 1
        assert searches == 1200 and len(cutoffs) >= 100, len(cutoffs)

    def test_table8_cuts_off_thirteen_of_its_node_lps(self, monkeypatch):
        # the search of the 8x8 table's L=1/N_s=3 row under its 40-node cap
        # (seeded_model): the incumbent 28 prunes every node LP below 29,
        # and 13 of the 39 warm ones end there (LP values 25 to 28.98)
        strip, cutoffs = self.spy(monkeypatch)
        warm = []
        node_lp = bnb.solve_lp

        def counted(data, bounds=None):
            res = node_lp(data, bounds)
            if getattr(bounds, "basis", None) is not None:
                warm.append(res.status)
            return res

        monkeypatch.setattr(bnb, "solve_lp", counted)
        cfg = ExperimentConfig(rows=8, cols=8, n_static=3, n_mobile=1, k_max=4,
                               placement="milp-static", planner="milp-cov", time_limit=240, node_limit=40)
        handle, warm_start = seeded_model(cfg)
        got = solve_milp(handle.instance, cfg.solver_params(), warm_start=warm_start)
        assert (len(warm), warm.count("cutoff"), len(cutoffs)) == (39, 13, 13)
        assert all(25.0 <= cold < 29.0 for _, cold in cutoffs), cutoffs
        strip[0] = True
        want = solve_milp(handle.instance, cfg.solver_params(), warm_start=warm_start)
        assert self.outcome(got) == self.outcome(want)
        assert (got.status, got.objective, got.best_bound, got.nodes_explored) == ("feasible", 28.0, 29.0, 40)


class TestOracleEquivalence:
    def test_fifty_random_milps(self):
        rng = random.Random(20240817)
        checked = 0
        feasible_count = 0
        while checked < 50:
            m = random_milp(rng)
            want_status, want = milp_by_enumeration(
                m, lp_solver=lambda inst, fixed: solve_lp(inst, fixed)
            )
            res = solve_milp(m)
            if want_status == "infeasible":
                assert res.status == "infeasible", (checked, res)
            else:
                feasible_count += 1
                assert res.status == "optimal", (checked, res)
                assert res.objective == pytest.approx(want, abs=1e-6), checked
            checked += 1
        assert feasible_count >= 20

    def test_anytime_bound_sound(self):
        rng = random.Random(7)
        for _ in range(8):
            m = random_milp(rng, n_bin=6, n_cont=0, n_rows=6)
            want_status, want = milp_by_enumeration(m)
            if want_status != "optimal":
                continue
            sense_max = m.objective_sense == "maximize"
            for limit in (1, 2, 4, 8):
                res = solve_milp(m, SolveParams(node_limit=limit))
                if res.best_bound is None:
                    continue
                if sense_max:
                    assert res.best_bound >= want - 1e-7
                else:
                    assert res.best_bound <= want + 1e-7

    def test_incumbents_always_verified(self):
        rng = random.Random(99)
        for _ in range(20):
            m = random_milp(rng)
            res = solve_milp(m)
            if res.incumbent is None:
                continue
            assert LpData(m).feasible(res.incumbent, m.lower, m.upper)
            assert set(res.incumbent[m.is_binary].tolist()) <= {0.0, 1.0}


def scipy_milp(instance: MilpInstance, lower=None, upper=None):
    """`instance` solved by HiGHS through scipy.optimize.milp, to a zero gap,
    within its own variable bounds or `lower` and `upper`: (status,
    objective), the status in solve_milp's words."""
    sign = 1.0 if instance.objective_sense == "minimize" else -1.0
    codes, rhs = instance.sense_codes, instance.rhs
    lo = np.where(codes == LE, -np.inf, rhs)
    hi = np.where(codes == GE, np.inf, rhs)
    res = milp(sign * instance.objective(), integrality=instance.is_binary.astype(int),
               bounds=Bounds(instance.lower if lower is None else lower,
                             instance.upper if upper is None else upper),
               constraints=LinearConstraint(instance.matrix(), lo, hi),
               options={"mip_rel_gap": 0.0})
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, f"scipy status {res.status}")
    return status, None if res.fun is None else sign * res.fun


class TestAgainstScipyMilp:
    """solve_milp, unseeded and as the harness seeds it, against HiGHS's
    MILP solver: the same status, and objectives within 1e-6."""

    @staticmethod
    def agree(res, want_status, want):
        assert res.status == want_status
        if want_status == "optimal":
            assert res.objective == pytest.approx(want, abs=1e-6)

    def test_random_milps(self):
        rng = random.Random(6)
        statuses = set()
        for _ in range(120):
            m = random_milp(rng)
            want_status, want = scipy_milp(m)
            self.agree(solve_milp(m), want_status, want)
            statuses.add(want_status)
        assert statuses == {"optimal", "infeasible"}

    @staticmethod
    def configs(count, seed):
        """Random 3x3-5x5 placement, coverage and movement runs: static
        nodes 1-3 (or 0-2 around the paths), boundary weights 1, 1.3 and 4,
        1-2 mobile nodes, K 1-3, step ranges 1-2, caps 1-3, targets 0.6-1."""
        rng = random.Random(seed)
        for n in range(count):
            grid = GridSpec(rng.randint(3, 5), rng.randint(3, 5))
            kind = ("static", "milp-cov", "milp-mov")[n % 3]
            if kind == "static":
                yield kind, ExperimentConfig(
                    rows=grid.rows, cols=grid.cols, n_static=rng.randint(1, 3),
                    c_o_static=rng.randint(1, 2), boundary_weight=rng.choice([1.0, 1.3, 4.0])), None
                continue
            static = rng.sample(sorted(grid.cells()), rng.randint(0, 2))
            yield kind, ExperimentConfig(
                rows=grid.rows, cols=grid.cols, n_static=len(static),
                placement="milp-static" if static else "none", planner=kind,
                n_mobile=rng.randint(1, 2), k_max=rng.randint(1, 3), rho_x=rng.randint(1, 2),
                rho_y=rng.randint(1, 2), c_o_mobile=rng.randint(1, 3),
                coverage_target=f"{rng.randint(60, 100)}/100",
            ), static_deployment(grid, static, 1, 4.0) if static else None

    def test_paper_models(self):
        statuses = set()
        for kind, cfg, deployment in self.configs(60, 3):
            if kind == "static":
                instance = build_milp_static(cfg.grid, cfg.n_static, cfg.r_s, cfg.c_o_static,
                                             cfg.boundary_weight).instance
                res = harness.place_static_milp(cfg)[1]
            else:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    handle, _, res = harness.plan_mobile_milp(cfg, deployment)
                if handle.nothing_to_plan:
                    continue
                instance = handle.instance
            want_status, want = scipy_milp(instance)
            self.agree(res, want_status, want)
            self.agree(solve_milp(instance), want_status, want)  # and unseeded
            statuses.add((kind, want_status))
        assert {k for k, s in statuses if s == "optimal"} == {"static", "milp-cov", "milp-mov"}

    def test_table8_l1_ns3_proof(self):
        # the search of the 8x8 table's L=1/N_s=3 row (seeded_model) with
        # its 40-node cap lifted: its LP bound is 29 and the optimum 28, so
        # best-bound expands every node whose floored bound is 29, in any
        # order of ties.  How many there are turns on exact ties in
        # most-fractional branching, which rounding noise decides: 101
        # under the largest-infeasibility dual, 79 under dual Devex, whose
        # pivot paths round differently
        cfg = ExperimentConfig(rows=8, cols=8, n_static=3, n_mobile=1, k_max=4,
                               placement="milp-static", planner="milp-cov", time_limit=240)
        handle, warm_start = seeded_model(cfg)
        res = solve_milp(handle.instance, cfg.solver_params(), warm_start=warm_start)
        assert (res.status, res.objective, res.nodes_explored) == ("optimal", 28.0, 79)
        self.agree(res, *scipy_milp(handle.instance))


def planted_milp(rng: random.Random, broken=None) -> MilpInstance:
    """A random_milp over binaries with two planted continuous objective
    columns: d, which an equality row pins to an integer sum of binaries
    (p d = p (r + sum k_i b_i)), and u, pushed up by its cost toward its
    integral upper bound and capped by rows q u <= q (r + d-terms + binary
    sums).  `broken` breaks one rule of LpData.objective_integral: "coef"
    (d's coefficient 2 against binaries of 1), "rhs" (a cap of u with a
    fractional right-hand side), "bound" (a fractional upper bound on u) or
    "eq" (u in an equality row)."""
    m = random_milp(rng, n_cont=0)
    n_bin = m.n_variables

    def pick():  # a random nonempty set of binaries
        return rng.sample(range(n_bin), rng.randint(1, n_bin))

    objective = list(zip(m.objective_ids.tolist(), m.objective_coefs.tolist()))
    up = 1 if m.objective_sense == "maximize" else -1  # a cost that pushes a column up

    d = m.add_variable("d", "continuous", -20, 20)
    p = rng.choice([1, -1, 2, 3])
    terms = [(b, -p * rng.choice([-2, -1, 1, 2])) for b in pick()]
    if broken == "coef":
        p, terms = 2, [(b, -1) for b, _ in terms]
    m.add_constraint([(d, p)] + terms, "=", p * rng.randint(-2, 2))

    u = m.add_variable("u", "continuous", 0, rng.randint(1, 3) + (0.5 if broken == "bound" else 0))
    for n_cap in range(rng.randint(1, 3)):
        q, sign = rng.choice([1, 2]), rng.choice([1, -1])  # sign -1 writes the cap as >=
        terms = [(u, sign * q)] + [(b, -sign * q) for b in pick()]
        if rng.random() < 0.5:
            terms.append((d, -sign * q * rng.choice([-1, 1])))
        rhs = q * rng.randint(0, 2) + (0.5 if broken == "rhs" and n_cap == 0 else 0)
        m.add_constraint(terms, "<=" if sign == 1 else ">=", sign * rhs)
    m.add_constraint([(u, 1), (rng.randrange(n_bin), -1)], ">=", 0)  # a lower limit
    if broken == "eq":
        y = m.add_variable("y", "continuous", 0, 3)
        m.add_constraint([(u, 1), (y, 1)], "=", 3)
    objective += [(d, rng.choice([-2, -1, 1, 2])), (u, up * rng.randint(1, 3))]
    m.set_objective(objective, m.objective_sense)
    return m


class TestObjectiveIntegral:
    """LpData.objective_integral, the verdict that lets the search floor its
    bounds: true on every paper model with integral weights, false where a
    rule breaks, and sound against HiGHS's optima."""

    @staticmethod
    def paper_configs():
        """table8's rows, then criterion 6's coverage models (N_s = 0, 5,
        10), then mov10's movement model, which shares criterion 5's."""
        for n_mobile, n_static in ((1, 5), (2, 3), (2, 5), (3, 3), (3, 5), (1, 3)):
            yield ExperimentConfig(rows=8, cols=8, n_static=n_static, n_mobile=n_mobile, k_max=4)
        for n_static in (0, 5, 10):
            yield ExperimentConfig(rows=10, cols=10, n_static=n_static, n_mobile=3, k_max=4,
                                   placement="milp-static" if n_static else "none")
        yield ExperimentConfig(rows=10, cols=10, n_static=10, n_mobile=3, k_max=4, planner="milp-mov")

    def test_paper_models(self):
        for cfg in self.paper_configs():
            deployment = harness.place_static_milp(cfg)[0] if cfg.n_static else None
            handle = harness.build_mobile_milp(cfg, deployment)
            assert LpData(handle.instance).objective_integral, cfg
        for weight, verdict in ((1.0, True), (1.3, False), (4.0, True)):
            for grid, n_static, c_o in ((GridSpec(8, 8), 5, 1), (GridSpec(10, 10), 10, 2)):
                handle = build_milp_static(grid, n_static, 1, c_o, weight)
                assert LpData(handle.instance).objective_integral is verdict, (weight, grid)

    def test_fractional_weights_keep_their_optimum(self):
        # a seed of 1.3 against a bound of 1.9: flooring both to 1 would
        # close the search on the seed
        m = MilpInstance()
        x1, x2 = m.add_variable("x1", "binary", 0, 1), m.add_variable("x2", "binary", 0, 1)
        m.add_constraint([(x1, 1), (x2, 1)], "<=", 1)
        m.set_objective([(x1, 1.3), (x2, 1.9)], "maximize")
        assert not LpData(m).objective_integral
        res = solve_milp(m, warm_start=np.array([1.0, 0.0]))
        assert (res.status, res.objective) == ("optimal", pytest.approx(1.9))
        with pytest.raises(TypeError):
            SolveParams(objective_integral=True)  # no caller asserts it

    @pytest.mark.parametrize("broken", ["coef", "rhs", "bound", "eq"])
    def test_each_broken_rule_fails(self, broken):
        rng = random.Random(broken)
        assert not any(LpData(planted_milp(rng, broken)).objective_integral for _ in range(20))

    def test_verdict_is_sound(self):
        # every model the verdict calls integral has an integral optimum,
        # and so does each of its subproblems with binaries fixed at random
        rng = random.Random(24)
        verdicts = {True: 0, False: 0}
        breaks = [None, None, "coef", "rhs", "bound", "eq"]
        n = 0
        while min(verdicts.values()) < 50:
            m = planted_milp(rng, breaks[n % 6]) if n % 3 else random_milp(rng)
            n += 1
            integral = LpData(m).objective_integral
            status, value = scipy_milp(m)
            if status != "optimal":
                continue
            verdicts[integral] += 1
            if not integral:
                continue
            assert abs(value - round(value)) <= 1e-9, (n, value)
            binaries = np.flatnonzero(m.is_binary)
            for _ in range(2):
                fixed = rng.sample(binaries.tolist(), rng.randint(1, binaries.size))
                lower, upper = m.lower.copy(), m.upper.copy()
                for b in fixed:
                    lower[b] = upper[b] = rng.randint(0, 1)
                status, value = scipy_milp(m, lower, upper)
                if status == "optimal":
                    assert abs(value - round(value)) <= 1e-9, (n, fixed, value)
