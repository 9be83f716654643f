"""The three coverage MILPs: static placement, coverage maximization and
movement minimization, plus decoding of solver points (float vectors
indexed by variable id) back into deployments and plans.

Builders are pure and deterministic: variables and constraints are emitted
in a fixed order (equation blocks in their presentation order; within a
block, cells row-major, then nodes ascending, then iterations ascending),
so exported LP text is byte-stable.  Variable ids follow one arithmetic
layout, stated on `FormulationHandle`; the decoders and encoders index
into it as arrays.

Conventions baked in here:
  - The static coverage-linking equalities are emitted for every grid cell
    (the uncovered set is only known after solving, so restricting them
    would be circular); this matches the published variable/constraint
    counts.
  - The mobility constraint is an inequality (next position within the
    reachable window of the current one); an equality would force a node
    to occupy every window cell at once, contradicting the one-cell
    position constraint.
  - Mobile-node variables exist only over the uncovered set: footprint and
    step windows are `grid.windows` over it (clipped, intersected with it),
    the handle's `footprints` and `steps`.
  - The movement-minimization coverage threshold folds the static
    contribution in as a constant and rounds the required covered-cell
    count up to the nearest integer (the left side is integral at any
    integral solution).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .grid import Cell, GridSpec, _exact_fraction, cell_weights, sensing_footprint, static_coverage, windows
from .milp import INT_TOL, MilpInstance


class DecodeError(ValueError):
    """A point cannot be decoded into a deployment/plan."""


class PlanConsistencyError(RuntimeError):
    """A decoded plan violated its own invariants (builder bug)."""


@dataclass(frozen=True)
class StaticDeployment:
    """Solved static placement and the induced covered/uncovered partition."""

    positions: Tuple[Cell, ...]
    covered: FrozenSet[Cell]  # cells sensed by some static node (C_2)
    uncovered: FrozenSet[Cell]  # complement within the grid (C_1)
    boundary_weight: float
    objective_value: float


@dataclass(frozen=True)
class MobilePlan:
    """Per-node cell positions over iterations 1..horizon.

    positions maps (node, iteration) to a Cell; a missing key means the
    node is stopped (movement-minimization plans may stop early; coverage
    plans are total).
    """

    n_mobile: int
    horizon: int
    positions: Dict[Tuple[int, int], Cell] = field(default_factory=dict)

    @property
    def movements(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class PlanViolation:
    kind: str  # "grid" | "membership" | "mobility" | "stop"
    node: int
    iteration: int
    message: str


@dataclass(eq=False)  # handles compare and hash by identity
class FormulationHandle:
    """A built instance plus what is needed to decode and to seed it.

    Variable ids follow one arithmetic layout: the placement binaries as
    one C-order block of shape `x_shape`, then the coverage variables of
    each placement in the same shape, then (mobile models only) one
    covered-at-any-iteration variable per cell of C_1.  `x_shape` is
    (n_static, |C|) for the static model and (n_mobile, horizon, |C_1|)
    for the coverage and movement models; `cells` lists the cells along
    its last axis (the grid row-major, or C_1 sorted).

    `footprints` and `steps` are the `grid.windows` tables over `cells` at
    reach r_s and (rho_x, rho_y), and the builder reads them.  The encoders
    and the warm-start searches read the same tables in the forms they
    index: `footprint_lists` and `step_lists` (one list of indices per
    cell), `footprint_masks` (each footprint as a Python-int bitmask, bit q
    for cells[q]) and `index` (each cell's position in `cells`).  Each is
    computed once, when first read.
    """

    kind: str  # "static" | "cov" | "mov"
    instance: MilpInstance
    grid: GridSpec
    n_static: int = 0
    n_mobile: int = 0
    horizon: int = 0
    r_s: int = 1
    rho_x: int = 2
    rho_y: int = 2
    c_o: int = 1
    boundary_weight: float = 1.0
    uncovered: Tuple[Cell, ...] = ()
    static_covered_count: int = 0
    coverage_threshold: Optional[int] = None

    @property
    def nothing_to_plan(self) -> bool:
        """Whether a mobile model has no uncovered cell to plan for."""
        return self.kind != "static" and not self.uncovered

    @property
    def x_shape(self) -> Tuple[int, ...]:
        if self.kind == "static":
            return (self.n_static, self.grid.n_cells)
        return (self.n_mobile, self.horizon, len(self.uncovered))

    @property
    def cells(self) -> Tuple[Cell, ...]:
        return tuple(self.grid.cells()) if self.kind == "static" else self.uncovered

    @cached_property
    def footprints(self) -> Tuple[np.ndarray, np.ndarray]:
        return windows(self.grid, self.cells, self.r_s, self.r_s)

    @cached_property
    def steps(self) -> Tuple[np.ndarray, np.ndarray]:
        return windows(self.grid, self.cells, self.rho_x, self.rho_y)

    @cached_property
    def footprint_lists(self) -> List[List[int]]:
        return _rows(self.footprints)

    @cached_property
    def footprint_masks(self) -> List[int]:
        return [sum(1 << q for q in fp) for fp in self.footprint_lists]

    @cached_property
    def step_lists(self) -> List[List[int]]:
        return _rows(self.steps)

    @cached_property
    def index(self) -> Dict[Cell, int]:
        return {cell: p for p, cell in enumerate(self.cells)}

    def placements(self, point: np.ndarray) -> np.ndarray:
        """The placement binaries' values in `point`, one row per node
        (static) or per (node, iteration), node-major (mobile).  Raises
        DecodeError unless `point` holds one value per variable."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.instance.n_variables,):
            raise DecodeError(
                f"a point of shape {point.shape} for {self.instance.n_variables} variables"
            )
        rows, width = math.prod(self.x_shape[:-1]), self.x_shape[-1]  # width 0: nothing to plan
        return point[: rows * width].reshape(rows, width)

    def coverage_variable_ids(self) -> range:
        """Ids of every continuous coverage variable (for integrality audits)."""
        return range(math.prod(self.x_shape), self.instance.n_variables)


def _rows(table: Tuple[np.ndarray, np.ndarray]) -> List[List[int]]:
    """A `grid.windows` table as one list of indices per cell."""
    lengths, flat = table
    return [box.tolist() for box in np.split(flat, np.cumsum(lengths))[:-1]]


def static_deployment(
    grid: GridSpec, positions: Sequence[Tuple[int, int]], r_s: int, boundary_weight: float
) -> StaticDeployment:
    """The deployment of static nodes at `positions`: the covered/uncovered
    partition and the boundary-weighted objective, from the geometry."""
    covered, uncovered = static_coverage(list(positions), r_s, grid)
    weight = dict(zip(grid.cells(), cell_weights(grid, boundary_weight).tolist()))
    objective = sum(
        weight[cell]
        for pos in positions
        for cell in sensing_footprint(pos, r_s, grid)
    )
    return StaticDeployment(
        positions=tuple(Cell(*p) for p in positions),
        covered=frozenset(covered),
        uncovered=frozenset(uncovered),
        boundary_weight=boundary_weight,
        objective_value=objective,
    )


def _placed(
    handle: FormulationHandle, x: np.ndarray, labels: Sequence[str]
) -> Iterator[List[Cell]]:
    """Per row of `x` (the handle's placements), in order, the cells whose
    binary is 1.  Raises DecodeError at the first row holding a fractional
    (or non-finite) value, naming the row by its label and its first such
    cell."""
    rounded = np.round(x)
    fractional = ~(np.abs(x - rounded) <= INT_TOL)
    cells = handle.cells
    for row, label in enumerate(labels):
        if fractional[row].any():
            p = int(np.argmax(fractional[row]))
            raise DecodeError(f"{label} at {tuple(cells[p])} is fractional: {float(x[row, p])}")
        yield [cells[p] for p in np.flatnonzero(rounded[row] == 1)]


def _windowed_templates(heads: np.ndarray, lengths: np.ndarray, flat: np.ndarray):
    """Row templates `[(head, 1), (w, -1) for w in window]`, one per window."""
    lengths = lengths + 1
    is_head = np.zeros(lengths.sum(), dtype=bool)
    is_head[np.cumsum(lengths) - lengths] = True
    ids = np.empty(len(is_head), dtype=np.int64)
    ids[is_head] = heads
    ids[~is_head] = flat
    return ids, np.where(is_head, 1.0, -1.0), lengths


def _rows_from_templates(ids, coefs, lengths, which, shift):
    """Rows copied from templates: row r is template `which[r]` (its
    `lengths[which[r]]` terms, stored one template after another in
    `ids`/`coefs`) with `shift[r]` added to every variable id.  Returns the
    (lengths, ids, coefs) of the rows."""
    row_lengths = lengths[which]
    src_start = (np.cumsum(lengths) - lengths)[which]
    row_start = np.cumsum(row_lengths) - row_lengths
    src = np.repeat(src_start - row_start, row_lengths) + np.arange(row_lengths.sum())
    return row_lengths, ids[src] + np.repeat(shift, row_lengths), coefs[src]


def build_milp_static(
    grid: GridSpec,
    n_static: int,
    r_s: int = 1,
    c_o: int = 1,
    boundary_weight: float = 4.0,
) -> FormulationHandle:
    """Static placement MILP: maximize covered cells with boundary cells
    weighted by `boundary_weight`, one cell per node, per-cell coverage
    capped at c_o.  Constraint count is n_static + (n_static + 1) * |C|."""
    if n_static < 1:
        raise ValueError("n_static must be >= 1")
    if not 1 <= boundary_weight < math.inf:
        raise ValueError("boundary_weight must be finite and >= 1")
    if c_o < 1:
        raise ValueError("c_o must be >= 1")
    if r_s < 0:
        raise ValueError("sensing radius must be >= 0")

    inst = MilpInstance()
    handle = FormulationHandle(
        kind="static",
        instance=inst,
        grid=grid,
        n_static=n_static,
        r_s=r_s,
        c_o=c_o,
        boundary_weight=boundary_weight,
    )
    cells = handle.cells
    n_cells = len(cells)

    cell_tag = ["%d_%d" % cell for cell in cells]
    inst.add_variables(["x_s%d_" % s for s in range(1, n_static + 1)], cell_tag, "binary", 0.0, 1.0)
    inst.add_variables(
        ["c_s%d_" % s for s in range(1, n_static + 1)], cell_tag, "continuous", 0.0, 1.0
    )
    c_base = math.prod(handle.x_shape)
    weights = cell_weights(grid, boundary_weight)
    inst.set_objective_arrays(np.arange(c_base, 2 * c_base), np.tile(weights, n_static), "maximize")

    node_base = np.arange(n_static) * n_cells
    cell_ids = np.arange(n_cells)
    # one cell per static node
    inst.add_constraints(np.full(n_static, n_cells), np.arange(c_base), np.ones(c_base), "=", 1.0)
    # coverage linking, per cell then node: c equals the footprint-window sum of x
    templates = _windowed_templates(c_base + cell_ids, *handle.footprints)
    inst.add_constraints(
        *_rows_from_templates(
            *templates, np.repeat(cell_ids, n_static), np.tile(node_base, n_cells)
        ),
        "=", 0.0,
    )
    # per-cell overlap cap
    inst.add_constraints(
        np.full(n_cells, n_static), (c_base + np.add.outer(cell_ids, node_base)).ravel(),
        np.ones(c_base), "<=", float(c_o),
    )
    return handle


def decode_static(handle: FormulationHandle, point: np.ndarray) -> StaticDeployment:
    """Positions from an integral-feasible point: exactly one placed cell
    per node; covered/uncovered computed from the geometry."""
    if handle.kind != "static":
        raise ValueError("handle is not a static-placement formulation")
    positions: List[Cell] = []
    labels = [f"placement variable for node {s}" for s in range(1, handle.n_static + 1)]
    for s, chosen in enumerate(_placed(handle, handle.placements(point), labels), start=1):
        if len(chosen) != 1:
            raise DecodeError(f"static node {s} placed in {len(chosen)} cells, expected exactly 1")
        positions.append(chosen[0])
    return static_deployment(handle.grid, positions, handle.r_s, handle.boundary_weight)


def encode_static(handle: FormulationHandle, positions: Sequence[Tuple[int, int]]) -> np.ndarray:
    """The point realizing a concrete placement: placement binaries set,
    coverage variables equal to the footprint indicators.  Feasibility
    (the overlap cap) is the caller's to verify by substitution."""
    if handle.kind != "static":
        raise ValueError("handle is not a static-placement formulation")
    if len(positions) != handle.n_static:
        raise ValueError(f"expected {handle.n_static} positions, got {len(positions)}")
    values = np.zeros((2,) + handle.x_shape)
    for s, pos in enumerate(positions):
        p = handle.index[handle.grid.require(pos, "static position")]
        values[0, s, p] = 1.0
        values[1, s, handle.footprint_lists[p]] = 1.0
    return values.ravel()


def _check_rho_components(lengths: np.ndarray, flat: np.ndarray) -> None:
    """Warn when the uncovered set splits into components no single-step
    move can bridge (a node seeded in one component can never reach the
    others).  (lengths, flat) is its step-window table; each cell takes the
    least label in its window until no label changes."""
    if not flat.size:
        return  # a negative step range: no moves, nothing to bridge
    starts = np.cumsum(lengths) - lengths
    label = np.arange(len(lengths))
    for _ in range(len(lengths)):  # labels settle within a component's size
        label, last = np.minimum.reduceat(label[flat], starts), label
        if np.array_equal(label, last):
            break
    if label.any():
        warnings.warn(
            "uncovered set splits into step-unreachable components; "
            "single-node plans cannot cover all of it",
            UserWarning,
            stacklevel=4,  # the caller of build_milp_cov / build_milp_mov
        )


def _build_mobile(
    kind: str,
    grid: GridSpec,
    uncovered: Sequence[Cell],
    n_mobile: int,
    k_max: int,
    r_s: int,
    rho_x: int,
    rho_y: int,
    c_o: int,
    static_covered_count: int = 0,
    coverage_threshold: Optional[int] = None,
) -> FormulationHandle:
    if n_mobile < 1:
        raise ValueError("n_mobile must be >= 1")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if c_o < 1:
        raise ValueError("c_o must be >= 1")
    if r_s < 0:
        raise ValueError("sensing radius must be >= 0")
    if min(rho_x, rho_y) < 0:
        raise ValueError("step range must be >= 0")

    c1 = sorted(set(Cell(*c) for c in uncovered))
    inst = MilpInstance()
    handle = FormulationHandle(
        kind=kind,
        instance=inst,
        grid=grid,
        n_mobile=n_mobile,
        horizon=k_max,
        r_s=r_s,
        rho_x=rho_x,
        rho_y=rho_y,
        c_o=c_o,
        uncovered=tuple(c1),
        static_covered_count=static_covered_count,
        coverage_threshold=coverage_threshold,
    )
    if not c1:
        return handle

    _check_rho_components(*handle.steps)  # the tables reject cells off the grid
    n1 = len(c1)
    n_lk = n_mobile * k_max
    lk_list = [(l, k) for l in range(1, n_mobile + 1) for k in range(1, k_max + 1)]

    cm_base = math.prod(handle.x_shape)
    cc_base = 2 * cm_base
    cell_tag = ["%d_%d" % cell for cell in c1]
    inst.add_variables(["x_l%d_k%d_" % lk for lk in lk_list], cell_tag, "binary", 0.0, 1.0)
    inst.add_variables(["c_l%d_k%d_" % lk for lk in lk_list], cell_tag, "continuous", 0.0, 1.0)
    inst.add_variables(["c_"], cell_tag, "continuous", 0.0, 1.0)

    pos_ids = np.arange(n1)
    if kind == "cov":
        inst.set_objective_arrays(cc_base + pos_ids, np.ones(n1), "maximize")
    else:
        inst.set_objective_arrays(np.arange(cm_base), np.ones(cm_base), "minimize")

    # position: each node occupies one cell per iteration ("cov"), or at
    # most one so nodes may stop once the target is met ("mov")
    pos_sense = "=" if kind == "cov" else "<="
    inst.add_constraints(np.full(n_lk, n1), np.arange(cm_base), np.ones(cm_base), pos_sense, 1.0)

    if kind == "mov":
        # total coverage (static constant folded in) must reach the threshold
        inst.add_constraints(
            [n1], cc_base + pos_ids, np.ones(n1), ">=",
            float(coverage_threshold - static_covered_count),
        )

    lk_base = np.arange(n_lk) * n1

    # mobility, per cell, node, iteration: next position only within the
    # step window of the current one
    templates = _windowed_templates(n1 + pos_ids, *handle.steps)
    moves = lk_base.reshape(n_mobile, k_max)[:, :-1].ravel()
    inst.add_constraints(
        *_rows_from_templates(*templates, np.repeat(pos_ids, len(moves)), np.tile(moves, n1)),
        "<=", 0.0,
    )
    # per-(node, iteration) coverage equals the footprint-window sum
    templates = _windowed_templates(cm_base + pos_ids, *handle.footprints)
    inst.add_constraints(
        *_rows_from_templates(*templates, np.repeat(pos_ids, n_lk), np.tile(lk_base, n1)),
        "=", 0.0,
    )
    # coverage variables of each cell, one row per cell, (node, iteration)-major
    cm_by_cell = cm_base + np.add.outer(pos_ids, lk_base)
    cc = cc_base + pos_ids
    # covered-any-iteration lower bounds
    inst.add_constraints(
        np.full(n1 * n_lk, 2), np.column_stack([np.repeat(cc, n_lk), cm_by_cell.ravel()]).ravel(),
        np.tile([1.0, -1.0], n1 * n_lk), ">=", 0.0,
    )
    # covered-any-iteration upper bound
    inst.add_constraints(
        np.full(n1, 1 + n_lk), np.column_stack([cc, cm_by_cell]).ravel(),
        np.tile(np.r_[1.0, np.full(n_lk, -1.0)], n1), "<=", 0.0,
    )
    # overlap cap
    inst.add_constraints(
        np.full(n1, n_lk), cm_by_cell.ravel(), np.ones(n1 * n_lk), "<=", float(c_o)
    )
    return handle


def build_milp_cov(
    grid: GridSpec,
    uncovered,
    n_mobile: int,
    k_max: int,
    r_s: int = 1,
    rho_x: int = 2,
    rho_y: int = 2,
    c_o: int = 3,
) -> FormulationHandle:
    """Coverage-maximization MILP over the uncovered set.

    An empty uncovered set yields a handle flagged `nothing_to_plan`
    (decode it to an empty plan, coverage contribution zero).
    """
    return _build_mobile(
        "cov", grid, uncovered, n_mobile, k_max, r_s, rho_x, rho_y, c_o
    )


def build_milp_mov(
    grid: GridSpec,
    uncovered,
    static_covered_count: int,
    n_mobile: int,
    k_max: int,
    r_s: int = 1,
    rho_x: int = 2,
    rho_y: int = 2,
    c_o: int = 3,
    coverage_target: Union[int, float, str, Fraction] = 1,
) -> FormulationHandle:
    """Movement-minimization MILP: fewest (node, iteration) placements such
    that total coverage (static count folded in as a constant) reaches
    `coverage_target` of the whole grid.  The required covered-cell count
    is ceil(target * |C|), computed in exact rational arithmetic.
    """
    target = _exact_fraction(coverage_target)
    if not 0 < target <= 1:
        raise ValueError("coverage_target must lie in (0, 1]")
    threshold = int(math.ceil(target * grid.n_cells))
    return _build_mobile(
        "mov",
        grid,
        uncovered,
        n_mobile,
        k_max,
        r_s,
        rho_x,
        rho_y,
        c_o,
        static_covered_count=static_covered_count,
        coverage_threshold=threshold,
    )


def decode_plan(handle: FormulationHandle, point: np.ndarray) -> MobilePlan:
    """Extract (node, iteration) positions from an integral-feasible point
    and verify the plan invariants; violations here indicate a builder bug
    and raise PlanConsistencyError."""
    if handle.kind not in ("cov", "mov"):
        raise ValueError("handle is not a mobile-path formulation")
    x = handle.placements(point)
    positions: Dict[Tuple[int, int], Cell] = {}
    if not handle.nothing_to_plan:
        lks = [(l, k) for l in range(1, handle.n_mobile + 1) for k in range(1, handle.horizon + 1)]
        labels = ["position variable node %d iteration %d" % lk for lk in lks]
        for (l, k), chosen in zip(lks, _placed(handle, x, labels)):
            if len(chosen) > 1:
                raise DecodeError(f"node {l} occupies {len(chosen)} cells at iteration {k}")
            if handle.kind == "cov" and not chosen:
                raise DecodeError(f"node {l} has no position at iteration {k}")
            if chosen:
                positions[(l, k)] = chosen[0]

    plan = MobilePlan(n_mobile=handle.n_mobile, horizon=handle.horizon, positions=positions)
    problems = validate_plan(plan, handle.grid, handle.uncovered, handle.rho_x, handle.rho_y)
    if problems:
        raise PlanConsistencyError(
            "decoded plan violates its invariants (builder bug): "
            + "; ".join(v.message for v in problems)
        )
    return plan


def encode_plan(handle: FormulationHandle, plan: MobilePlan) -> np.ndarray:
    """The point realizing `plan` in the handle's instance: positions set
    the placement binaries, coverage variables follow from the footprints.
    Feasibility (notably the overlap cap) is not checked here; substitute
    into the instance to verify."""
    if handle.nothing_to_plan:
        return np.zeros(handle.instance.n_variables)
    values = np.zeros((2,) + handle.x_shape)
    covered = np.zeros(len(handle.uncovered))
    index = handle.index
    for (l, k), pos in plan.positions.items():
        # the range check also keeps l or k = 0 from indexing the last node
        if not (1 <= l <= handle.n_mobile and 1 <= k <= handle.horizon and pos in index):
            raise ValueError(f"plan position {tuple(pos)} at node {l} iteration {k} has no variable")
        values[0, l - 1, k - 1, index[pos]] = 1.0
        sensed = handle.footprint_lists[index[pos]]
        values[1, l - 1, k - 1, sensed] = 1.0
        covered[sensed] = 1.0
    return np.concatenate([values.ravel(), covered])


def validate_plan(
    plan: MobilePlan,
    grid: GridSpec,
    uncovered,
    rho_x: int,
    rho_y: int,
) -> List[PlanViolation]:
    """Check plan invariants; violations are returned as data, the empty
    list meaning the plan is valid.

    Checks: positions on the grid and inside the uncovered set, step
    displacements within (rho_x, rho_y) for consecutive present positions,
    and stop-monotonicity (once absent, absent for good).
    """
    violations: List[PlanViolation] = []
    c1_set = set(Cell(*c) for c in uncovered)
    for l in range(1, plan.n_mobile + 1):
        prev: Optional[Cell] = None
        stopped = False
        for k in range(1, plan.horizon + 1):
            pos = plan.positions.get((l, k))
            if pos is None:
                stopped = True
                continue
            if stopped:
                violations.append(
                    PlanViolation(
                        "stop", l, k,
                        f"node {l} resumes at iteration {k} after stopping",
                    )
                )
            if pos not in grid:
                violations.append(
                    PlanViolation("grid", l, k, f"node {l} at {tuple(pos)} is off-grid at iteration {k}")
                )
            elif pos not in c1_set:
                violations.append(
                    PlanViolation(
                        "membership", l, k,
                        f"node {l} at {tuple(pos)} is outside the uncovered set at iteration {k}",
                    )
                )
            if prev is not None and not stopped:
                if abs(pos.i - prev.i) > rho_x or abs(pos.j - prev.j) > rho_y:
                    violations.append(
                        PlanViolation(
                            "mobility", l, k,
                            f"node {l} step {tuple(prev)} -> {tuple(pos)} exceeds ({rho_x}, {rho_y})",
                        )
                    )
            prev = pos if not stopped else prev
    return violations
