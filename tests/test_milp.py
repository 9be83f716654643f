"""MILP container, statistics, LP-format export, solution parsing."""

import math
import random

import numpy as np
import pytest
import scipy.sparse as sp

from gridcover.formulations import build_milp_cov, build_milp_mov, build_milp_static
from gridcover.grid import GridSpec
from gridcover.milp import (
    EQ,
    GE,
    LE,
    MilpInstance,
    instance_stats,
    max_residual,
    parse_solution_values,
    write_lp_text,
)

from lp_reader import read_lp_text, solve_parsed
from oracles import reference_lp_text


class TestAddVariable:
    def test_ids_are_dense(self):
        m = MilpInstance()
        assert m.add_variables(["x_s1_"], ["2_3"], "binary", 0, 1) == 0
        assert m.add_variables(["c_"], ["2_3", "2_4"], "continuous", 0, 1) == 1
        assert m.add_variables(["y_"], [""], "continuous", 0, 1) == 3

    def test_duplicate_name_rejected(self):
        m = MilpInstance()
        m.add_variables(["x_"], [""], "binary", 0, 1)
        with pytest.raises(ValueError, match="duplicate"):
            m.add_variables(["x_"], [""], "continuous", 0, 1)

    def test_inverted_bounds_rejected(self):
        m = MilpInstance()
        with pytest.raises(ValueError, match="bounds"):
            m.add_variables(["x_"], [""], "continuous", 2, 1)

    @pytest.mark.parametrize("bound", [math.inf, -math.inf])
    def test_fixed_at_an_infinity_rejected(self, bound):
        m = MilpInstance()
        with pytest.raises(ValueError, match="infinity"):
            m.add_variables(["x_"], ["1"], "continuous", bound, bound)
        assert m.n_variables == 0

    def test_infinite_bounds_make_a_free_variable(self):
        m = MilpInstance()
        m.add_variables(["y_"], ["1"], "continuous", -math.inf, math.inf)
        assert " y_1 free\n" in write_lp_text(m)

    def test_binary_bounds_inside_unit_box(self):
        m = MilpInstance()
        with pytest.raises(ValueError):
            m.add_variables(["x_"], [""], "binary", 0, 2)

    def test_bad_names_rejected(self):
        m = MilpInstance()
        for prefixes, tags in (([""], ["1"]), (["2x_"], ["1"]), (["a b_"], ["1"]), (["x"], ["1"]),
                               (["x_"], ["a b"]), (["x_"], ["1", "1_2"]), ([], ["1"]), (["x_"], [])):
            with pytest.raises(ValueError):
                m.add_variables(prefixes, tags, "binary", 0, 1)
        assert m.n_variables == 0


class TestAddConstraint:
    def test_insertion_order_ids(self):
        m = MilpInstance()
        x = m.add_variables(["x_"], ["0", "1"], "binary", 0, 1)
        assert m.add_constraints([2], [x, x + 1], [1, 1], "=", 1) == 0
        assert m.add_constraints([1, 0], [x], [1], "<=", 1) == 1
        assert m.add_constraints([1], [x], [1], ">=", 0) == 3

    def test_unknown_variable_rejected(self):
        m = MilpInstance()
        m.add_variables(["x_"], [""], "binary", 0, 1)
        foreign = MilpInstance()
        foreign.add_variables(["y_"], list("01234"), "binary", 0, 1)
        with pytest.raises(ValueError, match="unknown variable id"):
            m.add_constraints([1], [4], [1.0], "<=", 1)

    def test_duplicate_term_rejected(self):
        m = MilpInstance()
        x = m.add_variables(["x_"], [""], "binary", 0, 1)
        with pytest.raises(ValueError, match="duplicate"):
            m.add_constraints([2], [x, x], [1, 2], "<=", 1)

    def test_nonfinite_coefficient_rejected(self):
        m = MilpInstance()
        x = m.add_variables(["x_"], [""], "binary", 0, 1)
        with pytest.raises(ValueError, match="finite"):
            m.add_constraints([1], [x], [math.inf], "<=", 1)

    @pytest.mark.parametrize("rhs", [math.inf, -math.inf, math.nan])
    def test_nonfinite_rhs_rejected(self, rhs):
        m = MilpInstance()
        x = m.add_variables(["x_"], [""], "continuous", 0, 1)
        m.add_constraints([1], [x], [1.0], ">=", 0.0)
        with pytest.raises(ValueError, match="non-finite right-hand side .* in row 1"):
            m.add_constraints([1], [x], [1.0], "<=", rhs)
        with pytest.raises(ValueError, match="in row 3"):
            m.add_constraints([1, 1, 1], [x, x, x], [1.0, 1.0, 1.0], "=", [0.0, 1.0, rhs])
        assert m.n_constraints == 1  # nothing of a rejected block is kept


class TestSetObjective:
    @pytest.mark.parametrize("coef", [math.inf, -math.inf, math.nan])
    def test_nonfinite_objective_coefficient_rejected(self, coef):
        m = MilpInstance()
        x = m.add_variables(["v_"], ["x", "y"], "binary", 0, 1)
        m.set_objective_arrays([x], [1.0], "maximize")
        with pytest.raises(ValueError, match="non-finite coefficient .* for variable id 1 in objective"):
            m.set_objective_arrays([x, x + 1], [1.0, coef], "minimize")
        # the objective set before stays
        assert (m.objective_sense, m.objective_ids.tolist(), m.objective_coefs.tolist()) == (
            "maximize", [x], [1.0])


class TestBlocks:
    def test_block_names_round_trip(self):
        m = MilpInstance()
        m.add_variables(["y_"], [""], "continuous", 0, 2)
        first = m.add_variables(["x_a1_", "x_a2_"], ["1_1", "1_2", "2_1"], "binary", 0, 1)
        assert first == 1
        assert m.variable_names()[1:] == [
            "x_a1_1_1", "x_a1_1_2", "x_a1_2_1", "x_a2_1_1", "x_a2_1_2", "x_a2_2_1",
        ]
        for vid, name in enumerate(m.variable_names()):
            assert np.flatnonzero(parse_solution_values(f"{name} 1", m)).tolist() == [vid]
        for absent in ("x_a3_1_1", "x_a1_3_3", "x_a1_1", "x_a1_1_1_", "x", "y"):
            with pytest.raises(ValueError, match="unknown variable name"):
                parse_solution_values(f"{absent} 1", m)

    def test_block_duplicates_rejected(self):
        m = MilpInstance()
        m.add_variables(["x_"], ["1_2", "3_4"], "binary", 0, 1)
        with pytest.raises(ValueError, match="duplicate"):
            m.add_variables(["x_"], ["3_4"], "binary", 0, 1)
        with pytest.raises(ValueError, match="duplicate"):
            m.add_variables(["x_1_"], ["2"], "binary", 0, 1)  # split another way
        with pytest.raises(ValueError, match="duplicate"):
            m.add_variables(["y_"], ["1", "1"], "binary", 0, 1)
        m.add_variables(["z_"], ["5"], "continuous", 0, 1)
        with pytest.raises(ValueError, match="duplicate"):
            m.add_variables(["z_"], ["4", "5"], "continuous", 0, 1)
        assert m.n_variables == 3

    def test_row_block_validated(self):
        m = MilpInstance()
        m.add_variables(["v_"], ["0", "1"], "binary", 0, 1)
        with pytest.raises(ValueError, match="unknown variable id"):
            m.add_constraints([1], [2], [1.0], "<=", 1)
        with pytest.raises(ValueError, match="duplicate"):
            m.add_constraints([1, 2], [0, 1, 1], [1.0, 1.0, 1.0], "<=", 1)
        m.add_constraints([1, 1], [1, 1], [1.0, 1.0], "<=", 1)  # one id per row is fine
        with pytest.raises(ValueError, match="finite"):
            m.add_constraints([1], [0], [math.nan], "<=", 1)
        with pytest.raises(ValueError, match="sense"):
            m.add_constraints([1], [0], [1.0], "<", 1)
        with pytest.raises(ValueError, match="lengths"):
            m.add_constraints([2], [0], [1.0], "<=", 1)
        assert m.n_constraints == 2

    def test_arrays_read_only(self):
        m = tiny_instance()
        with pytest.raises(ValueError):
            m.upper[0] = 2.0
        with pytest.raises(ValueError):
            m.term_coefs[0] = 2.0


class TestConstraintViolation:
    def test_largest_residual_by_sense(self):
        m = MilpInstance()
        m.add_variables(["v_"], ["x", "y"], "continuous", 0, 10)  # ids 0 and 1
        m.add_constraints([2], [0, 1], [1.0, 1.0], "<=", 4.0)
        m.add_constraints([1], [0], [1.0], ">=", 2.0)
        m.add_constraints([1], [1], [2.0], "=", 2.0)
        m.add_constraints([0], [], [], "<=", 1.0)
        assert max_residual(m.matrix() @ np.array([2.0, 1.0]), m.sense_codes, m.rhs) == 0.0
        assert max_residual(m.matrix() @ np.array([3.5, 1.0]), m.sense_codes, m.rhs) == pytest.approx(0.5)
        assert max_residual(m.matrix() @ np.array([0.5, 1.0]), m.sense_codes, m.rhs) == pytest.approx(1.5)
        assert max_residual(m.matrix() @ np.array([2.0, 3.0]), m.sense_codes, m.rhs) == pytest.approx(4.0)
        assert max_residual(m.matrix() @ np.zeros(2), m.sense_codes, m.rhs) == pytest.approx(2.0)

    @pytest.mark.parametrize("code", [LE, GE, EQ])
    def test_nan_residual_is_an_infinite_violation(self, code):
        lhs, rhs = np.array([0.0, np.nan]), np.array([1.0, 1.0])
        assert max_residual(lhs, np.full(2, code), rhs) == math.inf


class TestInstanceStats:
    def test_static_formula(self):
        # N_s + (N_s + 1)|C| rows: position block, linking block, cap block
        g = GridSpec(10, 10)
        s = instance_stats(build_milp_static(g, 5).instance)
        assert (s.n_binary, s.n_continuous, s.n_constraints) == (500, 500, 605)

    def test_cov_formula(self):
        g = GridSpec(10, 10)
        s = instance_stats(build_milp_cov(g, sorted(g.cells()), 3, 4).instance)
        assert (s.n_binary, s.n_continuous, s.n_constraints) == (1200, 1300, 3512)

    def test_mov_is_cov_plus_one(self):
        g = GridSpec(10, 10)
        cov = instance_stats(build_milp_cov(g, sorted(g.cells()), 3, 4).instance)
        mov = instance_stats(
            build_milp_mov(g, sorted(g.cells()), 0, 3, 4, coverage_target=1).instance
        )
        assert mov.n_constraints == cov.n_constraints + 1
        assert (mov.n_binary, mov.n_continuous) == (cov.n_binary, cov.n_continuous)

    def test_matches_direct_recount_on_random_instances(self):
        rng = random.Random(7)
        for _ in range(25):
            m = MilpInstance()
            kinds = []
            for i in range(rng.randrange(1, 30)):
                kind = rng.choice(["binary", "continuous"])
                kinds.append(kind)
                m.add_variables(["v_"], [str(i)], kind, 0, 1)
            n_rows = rng.randrange(0, 20)
            for _ in range(n_rows):
                vid = rng.randrange(len(kinds))
                m.add_constraints([1], [vid], [rng.uniform(-3, 3)], rng.choice(["<=", "=", ">="]), 1.0)
            s = instance_stats(m)
            assert s.n_binary == sum(1 for k in kinds if k == "binary")
            assert s.n_continuous == len(kinds) - s.n_binary
            assert s.n_constraints == n_rows


def tiny_instance():
    m = MilpInstance()
    x = m.add_variables(["x_"], ["1"], "binary", 0, 1)
    m.add_constraints([1], [x], [1.0], "<=", 1.0)
    m.set_objective_arrays([x], [1.0], "maximize")
    return m


class TestWriteLpText:
    def test_sections_present(self):
        text = write_lp_text(tiny_instance())
        assert text.startswith("Maximize\n")
        assert " c1: 1 x_1 <= 1" in text
        assert "Binary\n x_1\n" in text
        assert text.endswith("End\n")

    def test_empty_objective_placeholder(self):
        m = MilpInstance()
        m.add_variables(["x_"], ["1"], "continuous", 0, 1)
        text = write_lp_text(m)
        assert " obj: 0" in text

    def test_deterministic_bytes(self):
        a = write_lp_text(tiny_instance())
        b = write_lp_text(tiny_instance())
        assert a == b

    def test_roundtrip_through_independent_reader(self):
        m = MilpInstance()
        x = m.add_variables(["v_"], ["x"], "continuous", 0, 10)
        y = m.add_variables(["v_"], ["y"], "continuous", -math.inf, math.inf)
        z = m.add_variables(["v_"], ["z"], "binary", 0, 1)
        m.add_constraints([2], [x, y], [1.5, -2.0], "<=", 4.0)
        m.add_constraints([2], [y, z], [1.0, 3.0], ">=", -1.0)
        m.add_constraints([1], [x], [1.0], "=", 2.0)
        m.set_objective_arrays([x, z], [3.0, -1.25], "maximize")
        parsed = read_lp_text(write_lp_text(m))
        assert parsed.maximize
        assert parsed.objective == {"v_x": 3.0, "v_z": -1.25}
        assert parsed.constraints[0] == ({"v_x": 1.5, "v_y": -2.0}, "<=", 4.0)
        assert parsed.constraints[1] == ({"v_y": 1.0, "v_z": 3.0}, ">=", -1.0)
        assert parsed.constraints[2] == ({"v_x": 1.0}, "=", 2.0)
        assert parsed.lower == {"v_x": 0.0, "v_y": -math.inf, "v_z": 0.0}
        assert parsed.upper == {"v_x": 10.0, "v_y": math.inf, "v_z": 1.0}
        assert parsed.binaries == ["v_z"]

    def test_static_3x3_file_solves_to_33_externally(self):
        handle = build_milp_static(GridSpec(3, 3), 1, 1, 1, 4.0)
        parsed = read_lp_text(write_lp_text(handle.instance))
        status, objective = solve_parsed(parsed, as_milp=True)
        assert status == 0
        assert objective == pytest.approx(33.0, abs=1e-6)

    def test_cov_export_declares_all_binaries(self):
        g = GridSpec(10, 10)
        handle = build_milp_cov(g, sorted(g.cells()), 3, 4)
        text = write_lp_text(handle.instance)
        binary_section = text.split("Binary\n", 1)[1].split("End", 1)[0]
        assert len(binary_section.split()) == 1200


# values that exercise the number formatter: signed zeros, fractions, and
# integral values on both sides of the 1e15 switch to repr
LP_VALUES = (0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 7.0, 0.5, -0.25, 1 / 3, -2.5e-7,
             999999999999999.0, 1e15, -1e15, 3e17, -(2.0**53), 1e300)
BINARY_BOUNDS = ((0.0, 1.0), (0.0, 0.0), (1.0, 1.0), (-0.0, 1.0))


def _random_bounds(rng: random.Random):
    kind = rng.choice(("free", "fixed", "lower", "upper", "boxed"))
    v, w = rng.choice(LP_VALUES), rng.choice(LP_VALUES)
    if kind == "free":
        return -math.inf, math.inf
    if kind == "fixed":
        return v, v  # a variable fixed at an infinity is rejected
    if kind == "lower":
        return v, math.inf
    if kind == "upper":
        return -math.inf, v
    return (min(v, w), max(v, w)) if v != w else (v, v + 1.5)


def random_lp_instance(rng: random.Random) -> MilpInstance:
    """A model mixing one-variable blocks with larger ones, every bound
    shape, empty and all-zero rows, signed zeros, fractional and huge
    values, and an objective that is unset, empty, all zero or shuffled."""
    m = MilpInstance()
    for part in range(rng.randrange(0, 5)):
        kind = rng.choice(("binary", "continuous"))
        if rng.random() < 0.5:
            for _ in range(rng.randrange(1, 4)):
                lo, up = rng.choice(BINARY_BOUNDS) if kind == "binary" else _random_bounds(rng)
                m.add_variables(["v_"], [str(m.n_variables)], kind, lo, up)
        else:
            lo, up = rng.choice(BINARY_BOUNDS) if kind == "binary" else _random_bounds(rng)
            prefixes = [f"b{part}_{p}_" for p in range(rng.randrange(1, 3))]
            tags = [f"{t}_{rng.randrange(9)}" for t in range(rng.randrange(1, 4))]
            m.add_variables(prefixes, tags, kind, lo, up)
    n = m.n_variables
    for _ in range(rng.randrange(0, 4) if rng.random() < 0.85 else 0):
        lengths = [rng.randrange(0, min(n, 4) + 1) for _ in range(rng.randrange(1, 4))]
        ids = [v for k in lengths for v in rng.sample(range(n), k)]
        zero_rows = rng.random() < 0.2
        coefs = [rng.choice((0.0, -0.0)) if zero_rows else rng.choice(LP_VALUES) for _ in ids]
        sense = rng.choice(("<=", "=", ">="))
        rhs = [rng.choice(LP_VALUES[:-1]) for _ in lengths]
        scalar = len(lengths) == 1 and rng.random() < 0.5  # one right-hand side for the block
        m.add_constraints(lengths, ids, coefs, sense, rhs[0] if scalar else rhs)
    objective = rng.random()
    if n and objective < 0.7:
        ids = rng.sample(range(n), rng.randrange(0, n + 1))
        coefs = [0.0] * len(ids) if objective < 0.1 else [rng.choice(LP_VALUES) for _ in ids]
        m.set_objective_arrays(ids, coefs, rng.choice(("maximize", "minimize")))
    elif objective < 0.85:
        m.set_objective_arrays([], [], "minimize")
    return m


def _lp_cases(m: MilpInstance) -> dict:
    """Whether model `m` exercises each case of the LP writer."""
    coefs, rhs = m.term_coefs, m.rhs
    numbers = np.concatenate([coefs, rhs, m.lower, m.upper, m.objective_coefs])
    numbers = numbers[np.isfinite(numbers)]
    lo, up = m.lower, m.upper
    integral = numbers == np.round(numbers)
    rows = np.repeat(np.arange(m.n_constraints), m.row_lengths)
    nonzero_terms = np.bincount(rows[coefs != 0], minlength=m.n_constraints)
    return {
        "empty row": bool(np.any(m.row_lengths == 0)),
        "all-zero row": bool(np.any((m.row_lengths > 0) & (nonzero_terms == 0))),
        "-0.0 coefficient": bool(np.any((coefs == 0) & np.signbit(coefs))),
        "-0.0 rhs": bool(np.any((rhs == 0) & np.signbit(rhs))),
        "fractional value": not integral.all(),
        "integral value >= 1e15": bool(np.any(integral & (abs(numbers) >= 1e15))),
        "free bound": bool(np.any(np.isneginf(lo) & np.isposinf(up))),
        "fixed bound": bool(np.any(lo == up)),
        "half-infinite bound": bool(np.any(np.isinf(lo) != np.isinf(up))),
        "boxed bound": bool(np.any(np.isfinite(lo) & np.isfinite(up) & (lo < up))),
        "no constraints": m.n_constraints == 0,
        "no binaries": not m.is_binary.any(),
        "empty objective": len(m.objective_ids) == 0,
        "all-zero objective": len(m.objective_ids) > 0 and not m.objective_coefs.any(),
    }


class TestWriteLpTextMatchesReference:
    """The gathered-token writer against the line-by-line reference, byte
    for byte."""

    def test_criterion_1_8x8_models(self):
        grid = GridSpec(8, 8)
        cells = sorted(grid.cells())
        models = [build_milp_static(grid, n).instance for n in (1, 3, 5, 10)]
        for n in (1, 3, 5):
            for k in (1, 4):
                models.append(build_milp_cov(grid, cells, n, k).instance)
                models.append(build_milp_mov(grid, cells, 0, n, k, coverage_target=1).instance)
        assert len(models) == 16
        for m in models:
            assert write_lp_text(m) == reference_lp_text(m)

    def test_random_instances(self):
        rng = random.Random(11)
        seen = set()
        for trial in range(400):
            m = random_lp_instance(rng)
            seen |= {case for case, hit in _lp_cases(m).items() if hit}
            assert write_lp_text(m) == reference_lp_text(m), f"instance {trial}"
        missing = set(_lp_cases(MilpInstance())) - seen
        assert not missing, f"no random instance had: {sorted(missing)}"


def reference_matrix(m: MilpInstance) -> sp.csr_matrix:
    """The constraint matrix through COO, CSC and CSR (scipy sorts it)."""
    rows = np.repeat(np.arange(m.n_constraints), m.row_lengths)
    return sp.csc_matrix((m.term_coefs, (rows, m.term_ids)), shape=(m.n_constraints, m.n_variables)).tocsr()


class TestMatrix:
    """The CSR built straight from the row-ordered terms against scipy's
    conversion, array for array and bit for bit."""

    @staticmethod
    def same(got: sp.csr_matrix, want: sp.csr_matrix) -> bool:
        return (got.shape == want.shape and got.indptr.dtype == want.indptr.dtype
                and got.indices.dtype == want.indices.dtype
                and np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
                and got.data.tobytes() == want.data.tobytes())

    def test_random_instances(self):
        rng = random.Random(5)
        empty_rows = signed_zeros = unsorted = 0
        for trial in range(400):
            m = random_lp_instance(rng)
            assert self.same(m.matrix(), reference_matrix(m)), f"instance {trial}"
            empty_rows += bool(np.any(m.row_lengths == 0))
            signed_zeros += bool(np.any((m.term_coefs == 0) & np.signbit(m.term_coefs)))
            rows = np.repeat(np.arange(m.n_constraints), m.row_lengths)
            unsorted += bool(np.any(np.diff(rows * max(m.n_variables, 1) + m.term_ids) < 0))
        assert empty_rows and signed_zeros and unsorted, (empty_rows, signed_zeros, unsorted)

    def test_paper_models(self):
        grid = GridSpec(6, 6)
        cells = sorted(grid.cells())
        for m in (build_milp_static(grid, 3).instance, build_milp_cov(grid, cells, 2, 4).instance,
                  build_milp_mov(grid, cells, 0, 2, 4, coverage_target=1).instance):
            assert self.same(m.matrix(), reference_matrix(m))

    def test_a_change_drops_the_matrix(self):
        m = tiny_instance()
        before = m.matrix()
        assert m.matrix() is before
        m.add_constraints([1], [0], [2.0], "<=", 1.0)
        assert m.matrix().shape == (before.shape[0] + 1, 1)


class TestParseSolutionValues:
    def test_single_value(self):
        m = tiny_instance()
        assert parse_solution_values("x_1 1\n", m).tolist() == [1.0]

    def test_empty_text_defaults_to_zero(self):
        m = tiny_instance()
        assert parse_solution_values("", m).tolist() == [0.0]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown variable"):
            parse_solution_values("y 0.5", tiny_instance())

    def test_unparseable_value_rejected(self):
        with pytest.raises(ValueError, match="unparseable"):
            parse_solution_values("x_1 abc", tiny_instance())

    def test_repeated_name_rejected(self):
        with pytest.raises(ValueError, match="line 2: variable 'x_1' given twice"):
            parse_solution_values("x_1 1\nx_1 0", tiny_instance())

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(ValueError, match="line 1: non-finite value"):
            parse_solution_values(f"x_1 {value}", tiny_instance())
