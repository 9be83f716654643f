"""The symmetry-quotient bound against HiGHS on the full model."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

import gridcover.quotient as quotient
from gridcover.bnb import SolveParams, solve_milp
from gridcover.formulations import build_milp_static
from gridcover.grid import GridSpec
from gridcover.harness import ExperimentConfig, build_mobile_milp, place_static_milp
from gridcover.milp import MilpInstance
from gridcover.quotient import lp_bound, partition_bound, refine
from gridcover.simplex import LpData


def highs_value(data):
    """The full LP's optimal value, in the instance's own sense, by HiGHS."""
    senses = np.array(data.senses)
    le, ge, eq = senses == "<=", senses == ">=", senses == "="
    A = data.A_csr
    ref = linprog(
        data.c_min,
        A_ub=sp.vstack([A[le], -A[ge]]).tocsr() if (le | ge).any() else None,
        b_ub=np.concatenate([data.b[le], -data.b[ge]]) if (le | ge).any() else None,
        A_eq=A[eq] if eq.any() else None,
        b_eq=data.b[eq] if eq.any() else None,
        bounds=np.column_stack([data.lower, data.upper]),
        method="highs",
    )
    assert ref.status == 0, ref.message
    return float(ref.fun) * data.obj_sign


def assert_valid(data, bound, value):
    """`bound` (None proves nothing) lies on the far side of the LP value."""
    if bound is not None:
        slack = 1e-7 * (1.0 + abs(value))
        assert (bound >= value - slack) if data.obj_sign < 0 else (bound <= value + slack)


def paper_models():
    """The static, coverage and movement models the benchmarks solve:
    (label, instance)."""
    models = []
    for n_static in (3, 5):
        models.append((f"static 8x8 N_s={n_static}",
                       build_milp_static(GridSpec(8, 8), n_static).instance))
        for n_mobile in (1, 2, 3):
            cfg = ExperimentConfig(rows=8, cols=8, n_static=n_static, n_mobile=n_mobile, k_max=4)
            models.append((f"table8 L={n_mobile}/N_s={n_static}",
                           build_mobile_milp(cfg, place_static_milp(cfg)[0]).instance))
    mov10 = dict(rows=10, cols=10, n_static=10, n_mobile=3, k_max=4)
    mov_cfg = ExperimentConfig(planner="milp-mov", **mov10)
    deployment = place_static_milp(mov_cfg)[0]
    models.append(("mov10 static", build_milp_static(GridSpec(10, 10), 10).instance))
    models.append(("mov10 movement", build_mobile_milp(mov_cfg, deployment).instance))
    models.append(("criterion 6 N_s=10",
                   build_mobile_milp(ExperimentConfig(**mov10), deployment).instance))
    cfg = ExperimentConfig(**{**mov10, "n_static": 5})
    models.append(("criterion 6 N_s=5", build_mobile_milp(cfg, place_static_milp(cfg)[0]).instance))
    return models


@pytest.fixture(scope="module")
def paper():
    return paper_models()


def test_paper_models_bound_equals_highs(paper):
    for label, instance in paper:
        data = LpData(instance)
        rows, cols = refine(data)
        assert rows.max() + 1 < data.m and cols.max() + 1 < data.n, label  # a real quotient
        assert lp_bound(instance) == pytest.approx(highs_value(data), rel=1e-9, abs=1e-9), label


def test_static_bounds_are_the_packing_values(paper):
    bounds = {label: lp_bound(instance) for label, instance in paper if "static" in label}
    assert bounds == pytest.approx({"static 8x8 N_s=3": 72.0, "static 8x8 N_s=5": 108.0,
                                    "mov10 static": 183.0})


def test_bound_is_computed_once_per_instance(monkeypatch):
    instance = build_milp_static(GridSpec(5, 5), 2).instance
    first = lp_bound(instance)
    monkeypatch.setattr(quotient, "partition_bound", lambda *args: pytest.fail("recomputed"))
    assert lp_bound(instance) == first
    instance.add_variable("extra", "continuous", 0.0, 1.0)  # a new model: a new bound
    monkeypatch.undo()
    assert lp_bound(instance) == pytest.approx(first)


def planted_lp(rng):
    """k copies of a random boxed block, each with its columns permuted,
    tied by a coupling row that weighs a column by its place in the block,
    with the rows and columns of the whole shuffled; a point in the boxes,
    the same in every copy, meets every row.  Returns (instance, rows of
    the block, columns of the block)."""
    m0, n0, k = (int(v) for v in rng.integers([1, 2, 2], [5, 6, 5]))
    B = rng.integers(-3, 4, size=(m0, n0)).astype(float)
    lower = rng.integers(-2, 1, size=n0).astype(float)
    upper = lower + rng.integers(1, 4, size=n0)
    x0 = rng.integers(lower, upper + 1).astype(float)
    senses = rng.choice(["<=", ">=", "="], size=m0, p=[0.45, 0.45, 0.1])
    gap = rng.integers(0, 3, size=m0)
    b = B @ x0 + np.where(senses == "<=", gap, np.where(senses == ">=", -gap, 0))
    w = rng.integers(1, 3, size=n0).astype(float)
    c = rng.integers(-4, 5, size=n0).astype(float)

    place = rng.permutation(k * n0)  # the column id of (copy t, block column j)
    ids = np.array([place[t * n0 + rng.permutation(n0)] for t in range(k)])
    rows = [(ids[t], B[i], senses[i], b[i]) for t in range(k) for i in range(m0)]
    rows.append((ids.ravel(), np.tile(w, k), "<=", k * float(w @ x0) + float(rng.integers(0, 3))))
    inst = MilpInstance()
    by_id = np.empty(k * n0, dtype=np.int64)
    by_id[ids.ravel()] = np.tile(np.arange(n0), k)  # each column's place in the block
    for v in range(k * n0):
        inst.add_variable(f"x{v}", "continuous", lower[by_id[v]], upper[by_id[v]])
    for r in rng.permutation(len(rows)):
        at, coefs, sense, rhs = rows[r]
        keep = coefs != 0
        if keep.any():
            inst.add_constraint(zip(at[keep].tolist(), coefs[keep].tolist()), str(sense), rhs)
    inst.set_objective(zip(range(k * n0), c[by_id].tolist()),
                       str(rng.choice(["maximize", "minimize"])))
    return inst, m0, n0


def test_planted_symmetry_bound_equals_highs():
    rng = np.random.default_rng(17)
    for _ in range(150):
        inst, m0, n0 = planted_lp(rng)
        data = LpData(inst)
        rows, cols = refine(data)
        # at least as coarse as the copies' orbits
        assert rows.max() + 1 <= m0 + 1 and cols.max() + 1 <= n0
        assert lp_bound(inst) == pytest.approx(highs_value(data), rel=1e-7, abs=1e-7)


def wrong_partitions(rows, cols, rng):
    """Partitions that are not the refined one: classes merged in pairs,
    everything in one class, and each class split at random."""
    def dense(colour):
        return np.unique(colour, return_inverse=True)[1].reshape(-1)

    def split(colour):
        return dense(2 * colour + rng.integers(0, 2, size=colour.size))

    one_r, one_c = np.zeros_like(rows), np.zeros_like(cols)
    return [(dense(rows // 2), cols), (rows, dense(cols // 2)), (dense(rows // 2), dense(cols // 2)),
            (one_r, one_c), (rows, one_c), (split(rows), cols), (rows, split(cols)),
            (split(rows), split(cols))]


def test_wrong_partitions_only_weaken_the_bound(paper):
    rng = np.random.default_rng(3)
    cases = [planted_lp(rng)[0] for _ in range(60)]
    cases += [instance for label, instance in paper if "8x8" in label]
    bounded = 0
    for inst in cases:
        data = LpData(inst)
        value = highs_value(data)
        for rows, cols in wrong_partitions(*refine(data), rng):
            bound = partition_bound(data, rows, cols)
            assert_valid(data, bound, value)
            bounded += bound is not None
    assert bounded > 200, bounded


def test_dual_bound_needs_a_finite_end():
    # min x over x >= 1 with x free below: y = 0 leaves the reduced cost 1 on
    # an infinite lower bound, which proves nothing; y = 1 proves 1
    inst = MilpInstance()
    inst.add_variable("x", "continuous", -np.inf, 5.0)
    inst.add_constraint([(0, 1.0)], ">=", 1.0)
    inst.set_objective([(0, 1.0)], "minimize")
    data = LpData(inst)
    assert quotient.dual_bound(data, np.zeros(1)) is None
    assert quotient.dual_bound(data, np.ones(1)) == 1.0
    assert quotient.dual_bound(data, -np.ones(1)) is None  # clipped to 0 on a >= row


@pytest.mark.parametrize("sense", ["maximize", "minimize"])
def test_seeded_search_closes_only_on_a_seed_that_attains_the_bound(sense):
    # three interchangeable binaries, at most two of them on: the quotient
    # bounds the LP by two (in either sense's score), so only a seed with
    # two on closes the search before its root LP
    def three_binaries():
        inst = MilpInstance()
        inst.add_variables(["x_"], ["1", "2", "3"], "binary", 0.0, 1.0)
        inst.add_constraint([(0, 1.0), (1, 1.0), (2, 1.0)], "<=", 2.0)
        inst.set_objective([(v, 1.0 if sense == "maximize" else -1.0) for v in range(3)], sense)
        return inst

    best = 2.0 if sense == "maximize" else -2.0
    assert lp_bound(three_binaries()) == pytest.approx(best)
    for seed, nodes in (([1.0, 1.0, 0.0], 0), ([1.0, 0.0, 0.0], 1), ([0.0, 0.0, 0.0], 1)):
        res = solve_milp(three_binaries(), SolveParams(), warm_start=np.array(seed))
        assert (res.status, res.objective, res.best_bound) == ("optimal", best, best)
        assert res.nodes_explored >= nodes and (res.nodes_explored == 0) == (nodes == 0)


def two_binaries():
    """max x1 + x2 with x1 >= 1 and x2 <= 0: x1 and x2 share a kind, a box
    and a cost, but no equitable partition holds them together."""
    inst = MilpInstance()
    inst.add_variable("x1", "binary", 0.0, 1.0)
    inst.add_variable("x2", "binary", 0.0, 1.0)
    inst.add_constraint([(0, 1.0)], ">=", 1.0)
    inst.add_constraint([(1, 1.0)], "<=", 0.0)
    inst.set_objective([(0, 1.0), (1, 1.0)], "maximize")
    return inst


def test_infeasible_quotient_falls_back_to_the_root_lp(monkeypatch):
    inst = two_binaries()
    data = LpData(inst)
    rows, cols = refine(data)
    assert cols.tolist() != [0, 0]
    assert partition_bound(data, rows, np.zeros(2, dtype=np.int64)) is None  # x >= 1 and x <= 0
    seed = np.array([1.0, 0.0])
    closed = solve_milp(inst, SolveParams(), warm_start=seed)
    assert (closed.status, closed.objective, closed.nodes_explored) == ("optimal", 1.0, 0)

    inst = two_binaries()  # a fresh instance: nothing cached
    monkeypatch.setattr(quotient, "refine", lambda data: (rows, np.zeros(2, dtype=np.int64)))
    assert lp_bound(inst) is None
    res = solve_milp(inst, SolveParams(), warm_start=seed)
    assert (res.status, res.objective, res.best_bound, res.nodes_explored) == ("optimal", 1.0, 1.0, 1)
    assert np.array_equal(res.incumbent, seed)


def test_infeasible_and_empty_models_give_no_bound():
    inst = MilpInstance()
    inst.add_variable("x", "continuous", 0.0, 1.0)
    inst.add_constraint([(0, 1.0)], ">=", 2.0)
    inst.set_objective([(0, 1.0)], "maximize")
    assert lp_bound(inst) is None
    inst = MilpInstance()
    inst.add_variable("x", "continuous", 0.0, 1.0)
    inst.set_objective([(0, 1.0)], "maximize")
    assert lp_bound(inst) is None
