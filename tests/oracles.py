"""Independent brute-force oracles used to pin expected values.

Everything here recomputes results from first principles (exhaustive
enumeration or direct evaluation) without touching the simplex,
branch-and-bound, or formulation builders, so oracle agreement is a real
cross-check rather than a tautology.
"""

from __future__ import annotations

import itertools
import math
import warnings
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from gridcover.grid import Cell, GridSpec, _exact_fraction, boundary_cells, sensing_footprint


# ---------------------------------------------------------------------------
# static placement by exhaustive search
# ---------------------------------------------------------------------------


def best_static_placement(
    grid: GridSpec, n_static: int, r_s: int, c_o: int, boundary_weight: float
) -> Tuple[float, List[Tuple[Cell, ...]]]:
    """Exhaustive search over placement multisets (positions non-decreasing,
    so node permutations are counted once).  Objective: per-node sum of
    covered-cell weights, feasible iff no cell is covered more than c_o
    times.  Returns (best value, all optimal placements)."""
    boundary = boundary_cells(grid)
    weight = {c: (boundary_weight if c in boundary else 1.0) for c in grid.cells()}
    cells = sorted(grid.cells())
    fp = [sorted(sensing_footprint(c, r_s, grid)) for c in cells]
    value = [sum(weight[f] for f in fp[i]) for i in range(len(cells))]
    order = sorted(range(len(cells)), key=lambda i: (-value[i], cells[i]))

    best = -1.0
    argbest: List[Tuple[Cell, ...]] = []
    counts: Dict[Cell, int] = {}
    chosen: List[int] = []

    def dfs(start: int, current: float) -> None:
        nonlocal best, argbest
        remaining = n_static - len(chosen)
        if remaining == 0:
            if current > best + 1e-9:
                best, argbest = current, [tuple(cells[i] for i in sorted(chosen))]
            elif abs(current - best) <= 1e-9:
                argbest.append(tuple(cells[i] for i in sorted(chosen)))
            return
        for oi in range(start, len(order)):
            i = order[oi]
            if current + remaining * value[i] < best - 1e-9:
                break  # values along `order` are non-increasing
            if any(counts.get(f, 0) >= c_o for f in fp[i]):
                continue
            for f in fp[i]:
                counts[f] = counts.get(f, 0) + 1
            chosen.append(i)
            dfs(oi, current + value[i])
            chosen.pop()
            for f in fp[i]:
                counts[f] -= 1

    dfs(0, 0.0)
    return best, argbest


def packing_search(
    grid: GridSpec,
    n_static: int,
    r_s: int,
    c_o: int,
    boundary_weight: float,
    step_budget: int = 400_000,
) -> Optional[List[Cell]]:
    """The warm-start packing search as first written, kept verbatim as the
    oracle for gridcover.harness.pack_static_positions: counts per cell in
    a dict, one footprint at a time.

    Best placement found by a bounded depth-first packing search.

    Positions are chosen as a non-decreasing sequence over cells sorted by
    single-placement value (killing node-permutation symmetry); branches
    whose optimistic bound (current + remaining * best-available single
    value) cannot beat the best found are pruned.  Within the step budget
    on desk-scale grids this is exhaustive, i.e. optimal.
    """
    boundary = boundary_cells(grid)
    weight = {c: (boundary_weight if c in boundary else 1.0) for c in grid.cells()}
    cells = sorted(grid.cells())
    footprints = {c: sorted(sensing_footprint(c, r_s, grid)) for c in cells}
    value = {c: sum(weight[f] for f in footprints[c]) for c in cells}
    order = sorted(cells, key=lambda c: (-value[c], c))
    vals = [value[c] for c in order]

    best_obj = -1.0
    best: Optional[List[Cell]] = None
    counts: Dict[Cell, int] = {}
    chosen: List[Cell] = []
    steps = 0

    def feasible(cell: Cell) -> bool:
        return all(counts.get(f, 0) < c_o for f in footprints[cell])

    def dfs(start_idx: int, current: float) -> None:
        nonlocal best_obj, best, steps
        steps += 1
        if steps > step_budget:
            return
        remaining = n_static - len(chosen)
        if remaining == 0:
            if current > best_obj:
                best_obj, best = current, list(chosen)
            return
        for idx in range(start_idx, len(order)):
            if current + remaining * vals[idx] <= best_obj:
                break  # vals non-increasing: no later cell can help
            cell = order[idx]
            if not feasible(cell):
                continue
            for f in footprints[cell]:
                counts[f] = counts.get(f, 0) + 1
            chosen.append(cell)
            dfs(idx, current + vals[idx])
            chosen.pop()
            for f in footprints[cell]:
                counts[f] -= 1

    dfs(0, 0.0)
    return best


# ---------------------------------------------------------------------------
# mobile-path enumeration
# ---------------------------------------------------------------------------


def _paths(
    c1: List[Cell], k_max: int, rho_x: int, rho_y: int, allow_stop: bool
) -> List[Tuple[Cell, ...]]:
    """All single-node position sequences within the uncovered set: length
    k_max exactly, or any prefix length 0..k_max when stopping is allowed."""
    windows = {
        c: [w for w in c1 if abs(w.i - c.i) <= rho_x and abs(w.j - c.j) <= rho_y]
        for c in c1
    }
    out: List[Tuple[Cell, ...]] = []

    def extend(path: Tuple[Cell, ...]) -> None:
        if allow_stop or len(path) == k_max:
            out.append(path)
        if len(path) == k_max:
            return
        for nxt in windows[path[-1]]:
            extend(path + (nxt,))

    if allow_stop:
        out.append(())
    for start in c1:
        extend((start,))
    return out


def _path_count_matrix(
    paths: Sequence[Tuple[Cell, ...]], c1: List[Cell], r_s: int, grid: GridSpec
) -> np.ndarray:
    """Per-path vector of how many placements' footprints hit each cell."""
    pos = {c: i for i, c in enumerate(c1)}
    fp_rows = {
        c: [pos[f] for f in sensing_footprint(c, r_s, grid) if f in pos] for c in c1
    }
    mat = np.zeros((len(paths), len(c1)), dtype=np.int16)
    for r, path in enumerate(paths):
        for cell in path:
            for f in fp_rows[cell]:
                mat[r, f] += 1
    return mat


def best_coverage_plan(
    grid: GridSpec,
    c1: Sequence[Cell],
    n_mobile: int,
    k_max: int,
    r_s: int,
    rho_x: int,
    rho_y: int,
    c_o: int,
) -> int:
    """Maximum number of uncovered cells coverable by joint paths (every
    node placed each iteration) subject to the per-cell overlap cap;
    exhaustive over the joint path space."""
    c1 = sorted(set(c1))
    paths = _paths(c1, k_max, rho_x, rho_y, allow_stop=False)
    counts = _path_count_matrix(paths, c1, r_s, grid)
    best = -1
    if n_mobile == 1:
        ok = (counts <= c_o).all(axis=1)
        if ok.any():
            best = int((counts[ok] > 0).sum(axis=1).max())
        return best
    if n_mobile == 2:
        for i in range(len(paths)):
            joint = counts[i] + counts
            ok = (joint <= c_o).all(axis=1)
            if ok.any():
                cov = (joint[ok] > 0).sum(axis=1).max()
                best = max(best, int(cov))
        return best
    raise NotImplementedError("oracle handles n_mobile <= 2")


def min_movements_plan(
    grid: GridSpec,
    c1: Sequence[Cell],
    static_covered: int,
    n_mobile: int,
    k_max: int,
    r_s: int,
    rho_x: int,
    rho_y: int,
    c_o: int,
    coverage_target: Fraction,
) -> Optional[int]:
    """Minimum total placements reaching the coverage target (None when
    unreachable); exhaustive over stopped-path combinations."""
    c1 = sorted(set(c1))
    need = math.ceil(coverage_target * grid.n_cells) - static_covered
    if need <= 0:
        return 0
    paths = _paths(c1, k_max, rho_x, rho_y, allow_stop=True)
    counts = _path_count_matrix(paths, c1, r_s, grid)
    lengths = np.array([len(p) for p in paths])
    best: Optional[int] = None
    if n_mobile == 1:
        ok = (counts <= c_o).all(axis=1) & ((counts > 0).sum(axis=1) >= need)
        if ok.any():
            best = int(lengths[ok].min())
        return best
    if n_mobile == 2:
        order = np.argsort(lengths, kind="stable")
        for i in order:
            if best is not None and lengths[i] >= best:
                break
            joint = counts[i] + counts
            ok = (joint <= c_o).all(axis=1) & ((joint > 0).sum(axis=1) >= need)
            if ok.any():
                total = int(lengths[i] + lengths[ok].min())
                if best is None or total < best:
                    best = total
        return best
    raise NotImplementedError("oracle handles n_mobile <= 2")


# ---------------------------------------------------------------------------
# LP oracle: vertex enumeration for box-constrained LPs
# ---------------------------------------------------------------------------


def lp_by_vertex_enumeration(
    c: np.ndarray,
    A: np.ndarray,
    senses: Sequence[str],
    b: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    maximize: bool,
) -> Optional[float]:
    """Optimal objective by enumerating candidate vertices: every choice of
    r active rows (r <= min(m, n)) and n-r variables pinned to a bound.
    Returns None when infeasible.  Assumes the LP is not unbounded (finite
    bounds on all variables)."""
    m, n = A.shape
    best: Optional[float] = None
    tol = 1e-8

    def consider(x: np.ndarray) -> None:
        nonlocal best
        if np.any(x < lower - tol) or np.any(x > upper + tol):
            return
        lhs = A @ x
        for r in range(m):
            if senses[r] == "<=" and lhs[r] > b[r] + tol:
                return
            if senses[r] == ">=" and lhs[r] < b[r] - tol:
                return
            if senses[r] == "=" and abs(lhs[r] - b[r]) > tol:
                return
        val = float(c @ x)
        if best is None or (val > best if maximize else val < best):
            best = val

    for r in range(0, min(m, n) + 1):
        for rows in itertools.combinations(range(m), r):
            for free in itertools.combinations(range(n), r):
                fixed = [j for j in range(n) if j not in free]
                for pattern in itertools.product((0, 1), repeat=len(fixed)):
                    x = np.empty(n)
                    for j, p in zip(fixed, pattern):
                        x[j] = lower[j] if p == 0 else upper[j]
                    if r:
                        sub = A[np.ix_(list(rows), list(free))]
                        rhs = b[list(rows)] - A[np.ix_(list(rows), fixed)] @ x[fixed]
                        try:
                            sol = np.linalg.solve(sub, rhs)
                        except np.linalg.LinAlgError:
                            continue
                        x[list(free)] = sol
                    consider(x)
    return best


# ---------------------------------------------------------------------------
# MILP oracle: exhaustive binary enumeration
# ---------------------------------------------------------------------------


def milp_by_enumeration(instance, lp_solver=None) -> Tuple[str, Optional[float]]:
    """Optimal (status, objective) by trying all 2^B binary assignments.
    Pure-binary instances are evaluated directly; instances with continuous
    variables re-solve the continuous part per assignment via `lp_solver`
    (a callable (instance, fixed_bounds) -> LpResult)."""
    binaries = np.flatnonzero(instance.is_binary).tolist()
    others = np.flatnonzero(~instance.is_binary).tolist()
    sense_max = instance.objective_sense == "maximize"
    best: Optional[float] = None

    if not others:
        # each row as (terms, sense, rhs), cut from the model's arrays once
        senses = ("<=", "=", ">=")
        lengths = instance.row_lengths.tolist()
        terms = list(zip(instance.term_ids.tolist(), instance.term_coefs.tolist()))
        ends = list(itertools.accumulate(lengths))
        rows = [
            (terms[end - n : end], senses[code], rhs)
            for n, end, code, rhs in zip(
                lengths, ends, instance.sense_codes.tolist(), instance.rhs.tolist()
            )
        ]
        n = len(binaries)
        for bits in itertools.product((0.0, 1.0), repeat=n):
            x = np.zeros(instance.n_variables)
            x[binaries] = bits
            feasible = True
            for row_terms, sense, rhs in rows:
                lhs = sum(coef * x[v] for v, coef in row_terms)
                if sense == "<=" and lhs > rhs + 1e-9:
                    feasible = False
                elif sense == ">=" and lhs < rhs - 1e-9:
                    feasible = False
                elif sense == "=" and abs(lhs - rhs) > 1e-9:
                    feasible = False
                if not feasible:
                    break
            if not feasible:
                continue
            val = float(instance.objective() @ x)
            if best is None or (val > best if sense_max else val < best):
                best = val
    else:
        assert lp_solver is not None
        for bits in itertools.product((0.0, 1.0), repeat=len(binaries)):
            fixed = {v: (b, b) for v, b in zip(binaries, bits)}
            res = lp_solver(instance, fixed)
            if res.status != "optimal":
                continue
            if best is None or (res.objective > best if sense_max else res.objective < best):
                best = res.objective
    if best is None:
        return "infeasible", None
    return "optimal", best


# ---------------------------------------------------------------------------
# formulation decode/encode over explicit id maps
# ---------------------------------------------------------------------------
# The dict-based variable maps and loop-based decoders/encoders that
# gridcover.formulations replaced with array indexing over its arithmetic
# layout, kept verbatim (the maps as functions of the handle) so the two
# can be compared on random and corrupted inputs.


def x_static(handle) -> Dict[Tuple[int, Cell], int]:
    cells = list(handle.grid.cells())
    n = len(cells)
    return {
        (s, cell): (s - 1) * n + pos
        for s in range(1, handle.n_static + 1)
        for pos, cell in enumerate(cells)
    }


def c_static(handle) -> Dict[Tuple[int, Cell], int]:
    base = handle.n_static * handle.grid.n_cells
    return {key: base + vid for key, vid in x_static(handle).items()}


def x_mobile(handle) -> Dict[Tuple[int, int, Cell], int]:
    n1 = len(handle.uncovered)
    return {
        (l, k, cell): ((l - 1) * handle.horizon + (k - 1)) * n1 + pos
        for l in range(1, handle.n_mobile + 1)
        for k in range(1, handle.horizon + 1)
        for pos, cell in enumerate(handle.uncovered)
    }


def c_mobile(handle) -> Dict[Tuple[int, int, Cell], int]:
    base = handle.n_mobile * handle.horizon * len(handle.uncovered)
    return {key: base + vid for key, vid in x_mobile(handle).items()}


def c_cell(handle) -> Dict[Cell, int]:
    base = 2 * handle.n_mobile * handle.horizon * len(handle.uncovered)
    return {cell: base + pos for pos, cell in enumerate(handle.uncovered)}


def coverage_variable_ids(handle) -> range:
    if handle.kind == "static":
        n = handle.n_static * handle.grid.n_cells
        return range(n, 2 * n)
    n_x = handle.n_mobile * handle.horizon * len(handle.uncovered)
    return range(n_x, handle.instance.n_variables)


def decode_static(handle, assignment):
    from gridcover.formulations import INT_TOL, DecodeError, StaticDeployment
    from gridcover.grid import static_coverage

    if handle.kind != "static":
        raise ValueError("handle is not a static-placement formulation")
    ids = x_static(handle)
    positions: List[Cell] = []
    for s in range(1, handle.n_static + 1):
        chosen: List[Cell] = []
        for cell in handle.grid.cells():
            val = assignment.get(ids[(s, cell)], 0.0)
            if abs(val - round(val)) > INT_TOL:
                raise DecodeError(f"placement variable for node {s} at {tuple(cell)} is fractional: {val}")
            if round(val) == 1:
                chosen.append(cell)
        if len(chosen) != 1:
            raise DecodeError(f"static node {s} placed in {len(chosen)} cells, expected exactly 1")
        positions.append(chosen[0])

    covered, uncovered = static_coverage(positions, handle.r_s, handle.grid)
    boundary = boundary_cells(handle.grid)
    objective = 0.0
    for pos in positions:
        for cell in sensing_footprint(pos, handle.r_s, handle.grid):
            objective += handle.boundary_weight if cell in boundary else 1.0
    return StaticDeployment(
        positions=tuple(positions),
        covered=frozenset(covered),
        uncovered=frozenset(uncovered),
        boundary_weight=handle.boundary_weight,
        objective_value=objective,
    )


def encode_static(handle, positions):
    if handle.kind != "static":
        raise ValueError("handle is not a static-placement formulation")
    if len(positions) != handle.n_static:
        raise ValueError(f"expected {handle.n_static} positions, got {len(positions)}")
    x_ids, c_ids = x_static(handle), c_static(handle)
    values = {vid: 0.0 for vid in range(handle.instance.n_variables)}
    for s, pos in enumerate(positions, start=1):
        cell = handle.grid.require(pos, "static position")
        values[x_ids[(s, cell)]] = 1.0
        for covered in sensing_footprint(cell, handle.r_s, handle.grid):
            values[c_ids[(s, covered)]] = 1.0
    return values


def decode_plan(handle, assignment):
    from gridcover.formulations import (
        INT_TOL, DecodeError, MobilePlan, PlanConsistencyError, validate_plan,
    )

    if handle.kind not in ("cov", "mov"):
        raise ValueError("handle is not a mobile-path formulation")
    ids = x_mobile(handle)
    positions: Dict[Tuple[int, int], Cell] = {}
    if not handle.nothing_to_plan:
        for l in range(1, handle.n_mobile + 1):
            for k in range(1, handle.horizon + 1):
                chosen: List[Cell] = []
                for cell in handle.uncovered:
                    val = assignment.get(ids[(l, k, cell)], 0.0)
                    if abs(val - round(val)) > INT_TOL:
                        raise DecodeError(
                            f"position variable node {l} iteration {k} at {tuple(cell)} is fractional: {val}"
                        )
                    if round(val) == 1:
                        chosen.append(cell)
                if len(chosen) > 1:
                    raise DecodeError(
                        f"node {l} occupies {len(chosen)} cells at iteration {k}"
                    )
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


def encode_plan(handle, plan):
    values = {vid: 0.0 for vid in range(handle.instance.n_variables)}
    if handle.nothing_to_plan:
        return values
    x_ids, c_ids, cell_ids = x_mobile(handle), c_mobile(handle), c_cell(handle)
    c1_set = set(handle.uncovered)
    covered: Set[Cell] = set()
    for (l, k), pos in plan.positions.items():
        if (l, k, pos) not in x_ids:
            raise ValueError(f"plan position {tuple(pos)} at node {l} iteration {k} has no variable")
        values[x_ids[(l, k, pos)]] = 1.0
        for cell in sensing_footprint(pos, handle.r_s, handle.grid):
            if cell in c1_set:
                values[c_ids[(l, k, cell)]] = 1.0
                covered.add(cell)
    for cell in covered:
        values[cell_ids[cell]] = 1.0
    return values


# ---------------------------------------------------------------------------
# LP text export, line by line
# ---------------------------------------------------------------------------
# The writer that gridcover.milp.write_lp_text replaced with one gathered
# token stream per section, kept as it was (with its own copies of the
# number formatter, the sense names and the row offsets) so the two can be
# compared byte for byte.


def _lp_num(value: float) -> str:
    """Shortest decimal that round-trips; integral values print bare."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _lp_terms_lines(names: List[str], lengths, ids, coefs) -> List[str]:
    """Text of each row's nonzero terms, `a1 x1 + a2 x2 - a3 x3`, "" for none."""
    nonzero = coefs != 0.0
    rows = np.repeat(np.arange(len(lengths)), lengths)[nonzero]
    ids, coefs = ids[nonzero], coefs[nonzero]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    values, which = np.unique(coefs, return_inverse=True)
    # coefficient text per distinct value: [as a row's first term, as a later one]
    heads = []
    for v in values.tolist():
        heads += [f"- {_lp_num(-v)} " if v < 0 else f"+ {_lp_num(v)} ", f"{_lp_num(v)} "]
    texts = [
        heads[h] + names[vid]
        for h, vid in zip((2 * which + first).tolist(), ids.tolist())
    ]
    counts = np.bincount(rows, minlength=len(lengths))
    starts = np.concatenate([[0], np.cumsum(counts)]).tolist()
    return [" ".join(texts[a:b]) for a, b in zip(starts, starts[1:])]


def reference_lp_text(instance) -> str:
    """LP text of a MilpInstance, one line at a time: Maximize/Minimize,
    Subject To (`cK: a1 x1 + a2 x2 <= b`), Bounds (one explicit line per
    variable; infinities spelled -inf/+inf), Binary, End."""
    senses = ("<=", "=", ">=")
    names = instance.variable_names()
    lines: List[str] = []
    lines.append("Maximize" if instance.objective_sense == "maximize" else "Minimize")
    order = np.argsort(instance.objective_ids, kind="stable")
    ids = instance.objective_ids[order]
    obj = _lp_terms_lines(names, [len(ids)], ids, instance.objective_coefs[order])[0]
    lines.append(f" obj: {obj}" if obj else " obj: 0")

    lines.append("Subject To")
    bodies = _lp_terms_lines(names, instance.row_lengths, instance.term_ids, instance.term_coefs)
    for k, (body, code, rhs) in enumerate(
        zip(bodies, instance.sense_codes.tolist(), instance.rhs.tolist()), start=1
    ):
        lines.append(f" c{k}: {body or '0'} {senses[code]} {_lp_num(rhs)}")

    lines.append("Bounds")
    lowers, uppers = instance.lower.tolist(), instance.upper.tolist()
    text = {v: _lp_num(v) for v in {*lowers, *uppers} - {-math.inf, math.inf}}
    text.update({-math.inf: "-inf", math.inf: "+inf"})
    for name, lo, up in zip(names, lowers, uppers):
        if lo == -math.inf and up == math.inf:
            lines.append(f" {name} free")
        elif lo == up:
            lines.append(f" {name} = {text[lo]}")
        else:
            lines.append(f" {text[lo]} <= {name} <= {text[up]}")

    binaries = np.flatnonzero(instance.is_binary).tolist()
    if binaries:
        lines.append("Binary")
        lines.extend(f" {names[vid]}" for vid in binaries)
    lines.append("End")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# movement counts, one replay per count
# ---------------------------------------------------------------------------
# The three replays that CoverageReport's ledger replaced, kept as they were
# (each with its own covered set) so the ledger's counts can be compared
# against them.


def trimmed_movements(plan, deployment, params, grid: GridSpec) -> int:
    """Placement count up to the last placement that added new coverage,
    scanning in (iteration, node) ascending order; trailing no-gain
    placements are dropped."""
    if plan is None:
        return 0
    covered: Set[Cell] = set(deployment.covered) if deployment is not None else set()
    count = 0
    last_gain = 0
    for k in range(1, plan.horizon + 1):
        for l in range(1, plan.n_mobile + 1):
            pos = plan.positions.get((l, k))
            if pos is None:
                continue
            count += 1
            fresh = sensing_footprint(pos, params.r_s, grid) - covered
            if fresh:
                last_gain = count
                covered |= fresh
    return last_gain


def movements_to_reach(plan, static, params, grid: GridSpec, coverage_target) -> Optional[int]:
    """Number of placements, scanned in (iteration, node) ascending order,
    after which cumulative coverage first reaches the target ratio; 0 when
    static coverage alone suffices, None when the plan never gets there.
    Comparison is exact (rational arithmetic)."""
    target = _exact_fraction(coverage_target)
    total = grid.n_cells
    covered: Set[Cell] = set(static.covered) if static is not None else set()
    if Fraction(len(covered), total) >= target:
        return 0
    count = 0
    for k in range(1, plan.horizon + 1):
        for l in range(1, plan.n_mobile + 1):
            pos = plan.positions.get((l, k))
            if pos is None:
                continue
            count += 1
            covered |= sensing_footprint(pos, params.r_s, grid)
            if Fraction(len(covered), total) >= target:
                return count
    return None


def movements_to_target(plan, deployment, params, grid: GridSpec, coverage_target) -> Optional[int]:
    """A result row's movements to target: `movements_to_reach` with a
    plan; without one, 0 when the deployment alone reaches the target and
    None otherwise."""
    if plan is not None:
        return movements_to_reach(plan, deployment, params, grid, coverage_target)
    target = _exact_fraction(coverage_target)
    if deployment is not None and Fraction(len(deployment.covered), grid.n_cells) >= target:
        return 0
    return None


# ---------------------------------------------------------------------------
# mobile warm-start seeds over per-cell count dictionaries
# ---------------------------------------------------------------------------
# The greedy seeder, its multi-start search and the backtracking search as
# first written, before they shared the packing search's bitmask layers:
# counts in a dict, covered cells in a set or a counter, the tables rebuilt
# per start and the backtracking undone by hand.  Kept so the harness's
# seeds can be compared with them plan for plan.


def _seed_tables(grid: GridSpec, c1: List[Cell], r_s: int, rho_x: int, rho_y: int):
    """Each uncovered cell's footprint within `c1`, and its step window
    within `c1` in sorted order."""
    c1_set = set(c1)
    fp = {c: [f for f in sensing_footprint(c, r_s, grid) if f in c1_set] for c in c1}
    win = {c: sorted(f for f in c1 if abs(f.i - c.i) <= rho_x and abs(f.j - c.j) <= rho_y) for c in c1}
    return fp, win


def greedy_seed_plan(grid, uncovered, n_mobile, k_max, r_s, rho_x, rho_y, c_o,
                     stop_at=None, first_start=None):
    """The reference for one start of gridcover.harness._greedy_plan."""
    from gridcover.formulations import MobilePlan

    c1 = sorted(set(Cell(*c) for c in uncovered))
    if not c1:
        return MobilePlan(n_mobile=n_mobile, horizon=k_max, positions={})
    c1_set = set(c1)
    fp, win = _seed_tables(grid, c1, r_s, rho_x, rho_y)

    counts: Dict[Cell, int] = {c: 0 for c in c1}
    covered: Set[Cell] = set()
    positions: Dict[Tuple[int, int], Cell] = {}
    current: Dict[int, Optional[Cell]] = {l: None for l in range(1, n_mobile + 1)}
    stopped: Set[int] = set()

    def feasible(cell: Cell) -> bool:
        return all(counts[f] < c_o for f in fp[cell])

    def place(l: int, k: int, cell: Cell) -> None:
        positions[(l, k)] = cell
        current[l] = cell
        for f in fp[cell]:
            counts[f] += 1
            covered.add(f)

    def transit_choice(cands: List[Cell]) -> Optional[Cell]:
        hole = sorted(c1_set - covered)
        if not hole:
            return None
        best_cell, best_d = None, math.inf
        for cand in cands:
            d = min(max(abs(cand.i - h.i), abs(cand.j - h.j)) for h in hole)
            if d < best_d:
                best_cell, best_d = cand, d
        return best_cell

    def cap_pressure(cell: Cell) -> Tuple[int, int]:
        exhausted = sum(1 for f in fp[cell] if counts[f] + 1 >= c_o)
        return exhausted, len(fp[cell])

    for k in range(1, k_max + 1):
        for l in range(1, n_mobile + 1):
            if l in stopped:
                continue
            if stop_at is not None and len(covered) >= stop_at:
                stopped.add(l)
                continue
            cands = c1 if current[l] is None else win[current[l]]
            if first_start is not None and l == 1 and k == 1:
                cands = [Cell(*first_start)]
            cands = [c for c in cands if feasible(c)]
            if not cands:
                if stop_at is None:
                    return None
                stopped.add(l)
                continue
            best_cell, best_gain = None, -1
            for cand in cands:
                gain = sum(1 for f in fp[cand] if f not in covered)
                if gain > best_gain:
                    best_cell, best_gain = cand, gain
            if best_gain == 0:
                if stop_at is not None:
                    best_cell = transit_choice(cands)
                    if best_cell is None:
                        stopped.add(l)
                        continue
                else:
                    best_cell = min(cands, key=lambda c: (cap_pressure(c), c))
            place(l, k, best_cell)
    return MobilePlan(n_mobile=n_mobile, horizon=k_max, positions=positions)


def best_seed_plan(grid, uncovered, n_mobile, k_max, r_s, rho_x, rho_y, c_o,
                   stop_at=None, step_budget: int = 20_000):
    """The reference for gridcover.harness.best_seed_plan; `step_budget`
    is the backtracking search's slot budget.  Coverage seeds rank by
    cells covered, then fewer movements, and fall back to the backtracking
    search; movement seeds are the starts that reach `stop_at`, ranked by
    fewer movements, with no fallback."""
    c1 = sorted(set(Cell(*c) for c in uncovered))
    c1_set = set(c1)

    def covered_by(plan) -> int:
        hit = set()
        for pos in plan.positions.values():
            hit.update(f for f in sensing_footprint(pos, r_s, grid) if f in c1_set)
        return len(hit)

    best = None
    best_key = (-1, 0)
    for start in [None] + c1:
        plan = greedy_seed_plan(grid, c1, n_mobile, k_max, r_s, rho_x, rho_y, c_o,
                                stop_at=stop_at, first_start=start)
        if plan is None:
            continue
        if stop_at is not None:
            if covered_by(plan) >= stop_at and (best is None or plan.movements < best.movements):
                best = plan
            continue
        key = (covered_by(plan), -plan.movements)
        if key > best_key:
            best, best_key = plan, key
        if best_key[0] == len(c1):
            break
    if best is None and stop_at is None:
        fp, win = _seed_tables(grid, c1, r_s, rho_x, rho_y)
        return _backtrack_plan(c1, fp, win, n_mobile, k_max, c_o, step_budget)
    return best


def _backtrack_plan(c1, fp, win, n_mobile, k_max, c_o, step_budget):
    from gridcover.formulations import MobilePlan

    slots = [(k, l) for k in range(1, k_max + 1) for l in range(1, n_mobile + 1)]
    counts: Dict[Cell, int] = {c: 0 for c in c1}
    positions: Dict[Tuple[int, int], Cell] = {}
    current: Dict[int, Optional[Cell]] = {l: None for l in range(1, n_mobile + 1)}
    steps = 0

    def fits(cell: Cell) -> bool:
        return all(counts[f] < c_o for f in fp[cell])

    def reach(l: int) -> List[Cell]:
        return c1 if current[l] is None else win[current[l]]

    def search(s: int) -> Optional[bool]:
        nonlocal steps
        steps += 1
        if steps > step_budget:
            return None
        if s == len(slots):
            return True
        k, l = slots[s]
        if not all(any(map(fits, reach(m))) for _, m in slots[s + 1 : s + n_mobile]):
            return False
        last = current[l]
        gains = [(-sum(1 for f in fp[c] if not counts[f]), c) for c in reach(l) if fits(c)]
        if not gains:
            return False
        for _, cell in sorted(gains):
            positions[(l, k)] = cell
            current[l] = cell
            for f in fp[cell]:
                counts[f] += 1
            found = search(s + 1)
            if found is not False:
                return found
            for f in fp[cell]:
                counts[f] -= 1
            current[l] = last
            del positions[(l, k)]
        return False

    if not search(0):
        return None
    return MobilePlan(n_mobile=n_mobile, horizon=k_max, positions=dict(positions))


# ---------------------------------------------------------------------------
# the simplex's crash basis, row by row
# ---------------------------------------------------------------------------
# The crash pick that gridcover.simplex._Solver._crash_columns replaced with
# one array pick over the CSR entries, kept as it was (a method body over the
# solver's state at the cold start, `self` read as `solver`) so the two can
# be compared seat for seat.  Its unused `slack_ok` parameter is dropped.


def reference_crash_columns(solver, r: np.ndarray):
    """Seat structural columns in rows whose slack is fixed (equality
    rows): a column is eligible when its other nonzeros touch only rows
    with free slacks, so the seated set is permutable to triangular and
    the implied starting value (residual over coefficient) can be
    checked against the column's own bounds.  Cuts the starting count
    of degenerate fixed-slack basics dramatically."""
    n, m = solver.n, solver.m
    lo_s, up_s = solver.lo[n : n + m], solver.up[n : n + m]
    fixed_row = lo_s == up_s
    if not fixed_row.any():
        return {}
    A_csr = solver.lp.A_csr
    # a column is crash-eligible iff all its fixed-row entries are in one row
    fixed_hits = np.zeros(n, dtype=np.int32)
    for row in np.flatnonzero(fixed_row):
        sl = slice(A_csr.indptr[row], A_csr.indptr[row + 1])
        fixed_hits[A_csr.indices[sl]] += 1
    chosen: Dict[int, Tuple[int, float]] = {}
    used = set()
    for row in np.flatnonzero(fixed_row):
        if abs(r[row]) > 1e-12:
            continue  # only already-satisfied rows can be seated value-neutrally
        sl = slice(A_csr.indptr[row], A_csr.indptr[row + 1])
        cols = A_csr.indices[sl]
        coefs = A_csr.data[sl]
        best = None
        for j, a in zip(cols, coefs):
            if fixed_hits[j] != 1 or j in used or abs(a) < 0.01:
                continue
            if solver.lo[j] >= solver.up[j]:  # fixed variables cannot pivot later
                continue
            key = (-abs(a), j)
            if best is None or key < best[0]:
                best = (key, int(j))
        if best is not None:
            # seating at the current nonbasic value leaves every residual
            # unchanged, so the start stays feasible
            used.add(best[1])
            chosen[int(row)] = (best[1], float(solver.val[best[1]]))
    return chosen


# ---------------------------------------------------------------------------
# step-connectivity of the uncovered set, by breadth-first search
# ---------------------------------------------------------------------------
# The check that gridcover.formulations._check_rho_components replaced with
# min-label propagation over the builder's step-window table, kept as it
# was, so the two can be compared warning for warning.


def _check_rho_components(uncovered: Sequence[Cell], rho_x: int, rho_y: int) -> None:
    """Warn when the uncovered set splits into components no single-step
    move can bridge (a node seeded in one component can never reach the
    others)."""
    cells = set(uncovered)
    if not cells or rho_x < 0 or rho_y < 0:
        return
    if rho_x >= 1 and rho_y >= 1:
        rows = {i for i, _ in cells}
        columns = {j for _, j in cells}
        if len(cells) == len(rows) * len(columns) and (
            max(rows) - min(rows) + 1 == len(rows)
            and max(columns) - min(columns) + 1 == len(columns)
        ):
            return  # a full rectangle is trivially step-connected
    seen = set()
    frontier = [min(cells)]
    seen.add(frontier[0])
    while frontier:
        i, j = frontier.pop()
        for p in range(i - rho_x, i + rho_x + 1):
            for q in range(j - rho_y, j + rho_y + 1):
                nxt = (p, q)
                if nxt in cells and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    if len(seen) != len(cells):
        warnings.warn(
            "uncovered set splits into step-unreachable components; "
            "single-node plans cannot cover all of it",
            UserWarning,
            stacklevel=3,
        )


# ---------------------------------------------------------------------------
# the LP presolve, through scipy's sparse constructors and products
# ---------------------------------------------------------------------------
# The dominated-row test and column substitution that gridcover.simplex's
# _Reduced replaced with array gathers and sums over the CSR/CSC index
# arrays, kept as they were (over scipy.sparse slicing, products and stacks)
# so the two presolves can be compared array for array, byte for byte.  The
# row classes (_term_classes), the substitution pick (_substitutions) and
# the face weights are shared with gridcover.simplex: neither presolve
# changes them.


def _reference_normalized(A_csr, b, rows, cols, a):
    """Row rows[t] solved for column cols[t] (coefficient a[t]):
    x_j = beta_t + G_t . x over the row's other columns.  Returns (beta, G)."""
    import scipy.sparse as sp

    G = (sp.diags(-1.0 / a) @ A_csr[rows]).tocoo()
    own = G.col == cols[G.row]
    G = sp.csr_matrix((G.data[~own], (G.row[~own], G.col[~own])), shape=G.shape)
    return b[rows] / a, G


def _reference_box_max(G, lower, upper):
    """The maximum of each row of G . x over the column boxes."""
    import scipy.sparse as sp

    g = G.data
    v = np.where(g > 0, g * upper[G.indices], g * lower[G.indices])
    return np.asarray(sp.csr_matrix((v, G.indices, G.indptr), shape=G.shape).sum(axis=1)).ravel()


def reference_dominated_rows(data):
    """(rows, owners, needs) of the rows every optimum satisfies without
    them; see gridcover.simplex._dominated_rows for the argument."""
    import scipy.sparse as sp
    from gridcover.simplex import _term_classes

    A = data.A_csr
    nrows, owner, grows, caps = _term_classes(data)
    cols, a = A.indices, A.data
    cand = np.flatnonzero(grows & owner[cols])
    if not cand.size:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
    beta, G = _reference_normalized(A, data.b, nrows[cand], cols[cand], a[cand])
    need = beta + _reference_box_max(G, data.lower, data.upper)
    ok = need <= data.upper[cols[cand]]
    ups = np.flatnonzero(caps & owner[cols])
    if ups.size:
        on_col = [sp.csr_matrix((np.ones(t.size), (np.arange(t.size), cols[t])), shape=(t.size, data.n))
                  for t in (cand, ups)]
        pc, pu = (on_col[0] @ on_col[1].T).nonzero()
        pu = ups[pu]
        beta_u, G_u = _reference_normalized(A, data.b, nrows[pu], cols[pu], a[pu])
        D = (G_u - G[pc]).tocsr()
        D.eliminate_zeros()
        low = beta_u - beta[pc] - _reference_box_max(-D, data.lower, data.upper)
        ok[pc[~(low >= 0)]] = False
    rows, first = np.unique(nrows[cand[ok]], return_index=True)
    return rows, cols[cand[ok]][first], need[ok][first]


def reference_reduced(data, drop_rows: bool = True):
    """The arrays of data's presolved model (those of simplex._Reduced), as
    a namespace: dropped, owners, needs, m, cols, rows, kept, n, cost, face,
    A_csr, b, columns and, when a column is substituted, piv, row_terms, M,
    implied_lo and implied_up."""
    from types import SimpleNamespace

    import scipy.sparse as sp
    from gridcover.simplex import _face_weights, _substitutions

    def with_units(A, m):
        return sp.hstack([A, sp.identity(m, format="csc"), sp.identity(m, format="csc")], format="csc")

    out = SimpleNamespace()
    n = data.n
    if drop_rows:
        out.dropped, out.owners, out.needs = reference_dominated_rows(data)
    else:
        out.dropped = out.owners = np.zeros(0, dtype=np.int64)
        out.needs = np.zeros(0)
    A_csr, b, codes = data.A_csr, data.b, data.sense_codes
    if out.dropped.size:
        live = np.ones(data.m, dtype=bool)
        live[out.dropped] = False
        A_csr, b, codes = A_csr[live], b[live], codes[live]
    A = A_csr.tocsc()
    out.m = m = len(b)
    out.cols, out.rows = cols, rows = _substitutions(A_csr, codes, data.is_binary)
    keep = np.ones(n, dtype=bool)
    keep[cols] = False
    out.kept = kept = np.flatnonzero(keep)
    out.n = k = len(kept)
    w = _face_weights(n)
    out.cost = np.concatenate([data.c_min[kept], np.zeros(m)])
    out.face = np.concatenate([w[kept], np.zeros(m)])
    if not cols.size:
        out.A_csr, out.b = A_csr, b
        out.columns = with_units(A, m)
        return out
    out.piv = piv = np.asarray(A_csr[rows, cols]).ravel()
    out.cost[k + rows] = data.c_min[cols] / piv
    out.face[k + rows] = w[cols] / piv
    out.row_terms = terms = A_csr[rows][:, kept]
    terms.eliminate_zeros()
    M = A[:, cols].tocoo()
    off = M.row != rows[M.col]
    out.M = M = sp.csr_matrix(
        (M.data[off] / piv[M.col[off]], (M.row[off], M.col[off])), shape=(m, cols.size)
    )
    A = (A[:, kept] - M @ terms).tocsc()
    A.eliminate_zeros()
    A.sort_indices()
    out.A_csr, out.columns = A.tocsr(), with_units(A, m)
    out.b = b - M @ b[rows]
    lo, up = data.lower[kept], data.upper[kept]
    out.implied_lo = b[rows] - _reference_box_max(terms, lo, up)
    out.implied_up = b[rows] + _reference_box_max(-terms, lo, up)
    return out


def reference_boxes(red, lower, upper):
    """The column boxes (kept columns, slacks, artificials) of the
    presolved model `red` over the full model's column bounds, built as one
    array over every column: the kept columns' own bounds, the rows'
    slack boxes by sense, and each substitution row's slack box overwritten
    by its column's box scaled by piv, each end left off where the other
    columns' declared boxes imply it."""
    lo = np.concatenate([lower[red.kept], red.slack_lo])
    up = np.concatenate([upper[red.kept], red.slack_up])
    if red.cols.size:
        a, b = red.piv * lower[red.cols], red.piv * upper[red.cols]
        s_lo, s_up = np.minimum(a, b), np.maximum(a, b)
        at = red.n + red.rows
        lo[at] = np.where(s_lo <= red.implied_lo, -math.inf, s_lo)
        up[at] = np.where(s_up >= red.implied_up, math.inf, s_up)
    return np.concatenate([lo, np.zeros(red.m)]), np.concatenate([up, np.full(red.m, math.inf)])


# The warm dual's Farkas check on the presolved rows and the solve's own
# boxes, which simplex.proves_infeasible replaced with the check on the full
# rows, kept so that the two verdicts can be compared row for row.


def reference_proves_infeasible(solver, rho):
    """The warm dual's Farkas check as it was made on the presolved rows:
    the row combination rho^T (A x + s) = rho^T b over the solve's boxes of
    the kept columns and the slacks cannot hold anywhere, by a margin far
    above rounding.  Rounding noise in rho is dropped first."""
    from gridcover.simplex import FEAS_TOL

    n, m = solver.n, solver.m
    y = np.where(np.abs(rho) > 1e-12 * np.abs(rho).max(), rho, 0.0)
    g = (solver._rows @ y)[: n + m]
    lo, up = solver.lo[: n + m], solver.up[: n + m]
    nz = g != 0.0
    g, lo, up = g[nz], lo[nz], up[nz]
    hi_end = np.where(g > 0, up, lo)  # the bound that maximizes each term
    lo_end = np.where(g > 0, lo, up)
    top, bottom = float(g @ hi_end), float(g @ lo_end)
    rhs = float(y @ solver.lp.b)
    finite = np.isfinite(hi_end) & np.isfinite(lo_end)
    scale = float(np.abs(g[finite] * hi_end[finite]).sum() + np.abs(g[finite] * lo_end[finite]).sum())
    margin = FEAS_TOL * float(np.abs(y).max()) * (1 + m) + 1e-9 * (scale + abs(rhs))
    return rhs > top + margin or rhs < bottom - margin
