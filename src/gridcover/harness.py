"""Experiment orchestration: placement stage, planning stage, exact
coverage accounting, and machine-readable persistence.

A pipeline run is: (1) place static nodes (exact MILP or seeded uniform
random without replacement), (2) compute the uncovered set, (3) run the
selected planner (exact coverage/movement MILP or a baseline), (4)
recompute coverage and movement counts from the stored plan with one
`grid.evaluate_plan` replay, in (iteration, node) order (solver
objectives are never trusted for reporting).  One result row per seed.

Exact solves are warm-started with constructive heuristics (a packing
search for placement, an overlap-respecting multi-start greedy for paths,
a bounded backtracking search over the greedy's choices when no start
yields a coverage plan, and a bounded search for the plan of fewest
movements when no start reaches a movement target or the best one lies
above the quotient bound); seeding only tightens pruning and never
affects correctness.  The four searches share one
coverage counter: footprints are bitmasks, counts are c_o bitmask layers,
and `_add_footprint` adds one placement.  The packing search also keeps
its candidates as one bitmask, the cells whose footprints still fit, so
it never scans a blocked cell; under a cap of one it needs no layers.
Each search reads the model's geometry from the `FormulationHandle` it
seeds: the bitmasks and lists that the handle cuts once from the tables
the builder built the model from.  A coverage solve also reads the
single-path bound (path_bound): an exact depth-first search over one
node's paths, on the same bitmasks and lists, decides whether the seed
attains it.
Deployments, plans and result rows are persisted as line-oriented text so
every reported number can be re-derived offline.  A `ResultRow` holds
the `ExperimentConfig` it ran, and the CSV's config columns are read from
it (RESULT_COLUMNS).
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .bnb import MilpResult, SolveParams, hand_bound, solve_milp
from .formulations import (
    FormulationHandle,
    MobilePlan,
    StaticDeployment,
    build_milp_cov,
    build_milp_mov,
    build_milp_static,
    decode_plan,
    decode_static,
    encode_plan,
    encode_static,
    static_deployment,
)
from .grid import Cell, GridSpec, SensorParams, _exact_fraction, cell_weights, evaluate_plan
from .planners import BaselineConfig, greedy_plan, random_plan
from .quotient import lp_bound
from .simplex import LpData, SimplexNumericalError

PLACEMENTS = ("milp-static", "random-static", "none")
PLANNERS = ("milp-cov", "milp-mov", "greedy", "random", "none")
PACK_SEARCH_STEPS = 400_000  # search nodes the static packing seed may visit
SEED_SEARCH_STEPS = 20_000  # steps the backtracking and fewest-movements searches may each take
PATH_SEARCH_STEPS = 50_000  # path prefixes the single-path pricing search may visit


@dataclass(frozen=True)
class ExperimentConfig:
    """One pipeline configuration. Defaults mirror the reference setup:
    one static node placed by the MILP (as the CLI's --ns), r_s=1, rho=2,
    c_o=1 for placement and 3 for path planning, boundary weight 4,
    18000 s time limit, zero gap."""

    rows: int = 8
    cols: int = 8
    n_static: int = 1
    n_mobile: int = 1
    k_max: int = 4
    r_s: int = 1
    rho_x: int = 2
    rho_y: int = 2
    c_o_static: int = 1
    c_o_mobile: int = 3
    boundary_weight: float = 4.0
    coverage_target: Union[int, float, str] = 1
    placement: str = "milp-static"
    planner: str = "milp-cov"
    seeds: Tuple[int, ...] = (0,)
    time_limit: float = 18000.0
    mip_gap: float = 0.0
    node_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENTS:
            raise ValueError(f"placement must be one of {PLACEMENTS}")
        if self.planner not in PLANNERS:
            raise ValueError(f"planner must be one of {PLANNERS}")
        if self.placement == "none" and self.n_static:
            raise ValueError("placement 'none' requires n_static == 0")
        if self.placement != "none" and self.n_static < 1:
            raise ValueError("static placement requires n_static >= 1")
        if self.planner != "none":
            for name in ("n_mobile", "k_max"):
                if getattr(self, name) < 1:
                    raise ValueError(f"{name} must be >= 1")
            if min(self.rho_x, self.rho_y) < 0:
                raise ValueError("step range must be >= 0")
        if not 0 < _exact_fraction(self.coverage_target) <= 1:
            raise ValueError("coverage_target must lie in (0, 1]")
        if not self.seeds:
            raise ValueError("seeds must list at least one seed")
        if not math.isfinite(self.boundary_weight):
            raise ValueError("boundary_weight must be finite")
        # the sensing radius and the solver limits are checked with the rest
        self.sensor_params
        self.solver_params()

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.rows, self.cols)

    @property
    def sensor_params(self) -> SensorParams:
        return SensorParams(self.r_s)

    def solver_params(self) -> SolveParams:
        return SolveParams(
            time_limit=self.time_limit,
            mip_gap=self.mip_gap,
            node_limit=self.node_limit,
        )


@dataclass
class ResultRow:
    """Self-describing outcome of one (config, seed) pipeline run: the
    config it ran, whose fields less the run controls are the CSV's first
    columns, and the counts of one replay of its deployment and plan."""

    config: ExperimentConfig
    seed: int
    coverage_pct: float
    covered_cells: int
    total_cells: int
    movements_raw: int
    movements_trimmed: int
    movements_to_target: Optional[int]
    solver_status: str
    objective: Optional[float]
    best_bound: Optional[float]
    gap: Optional[float]
    wall_time: float
    note: str = ""
    deployment: Optional[StaticDeployment] = None
    plan: Optional[MobilePlan] = None


# ---------------------------------------------------------------------------
# warm-start heuristics
# ---------------------------------------------------------------------------


def _add_footprint(layers: List[int], fp: int) -> List[int]:
    """Coverage counts as c_o bitmask layers (layer k holds the cells
    covered more than k times), with one more cover of every cell in the
    mask `fp`; a new list, since searches keep the counts they came from.
    A footprint fits under the cap when it misses the top layer, and its
    gain is its cells outside layer 0."""
    carry, added = fp, []
    for layer in layers:
        added.append(layer | carry)
        carry = fp & layer
    return added


def pack_static_positions(
    handle: FormulationHandle, stop_at: Optional[float] = None
) -> Optional[List[Cell]]:
    """Best placement of the handle's static nodes found by a bounded
    depth-first packing search.

    Positions are chosen as a non-decreasing sequence over cells sorted by
    single-placement value (killing node-permutation symmetry); branches
    whose optimistic bound (current + remaining * best-available single
    value) cannot beat the best found are pruned.  Within PACK_SEARCH_STEPS
    on desk-scale grids this is exhaustive, i.e. optimal.  With `stop_at`,
    a proven bound on every placement's value (_packing_bound, at any
    cap), the search stops once its best reaches it: the best is replaced
    only on a strict gain, so the full search would return the same
    placement.

    Footprints are the handle's bitmasks over the cells, counted in c_o
    layers (_add_footprint).  A search node keeps its candidates as one
    bitmask over the sorted cells: those from its own cell on whose
    footprints still fit under the cap, so it never visits a blocked cell
    (the bit-parallel candidate sets of San Segundo, Rodríguez-Losada &
    Jiménez 2011).  `covers[f]` holds the candidates whose footprint holds cell f,
    and a placement blocks the covers of the cells it brings to the cap:
    under a cap of one that is its whole footprint, so its blocked set is
    the table `conflict[k]` and no layers are kept.  The nodes, their
    order and the step count are those of a scan over every cell that
    skips the blocked ones, so a truncated search returns the same
    placement too.
    """
    cells, n_static = handle.cells, handle.n_static
    footprints = handle.footprint_lists
    weights = cell_weights(handle.grid, handle.boundary_weight).tolist()
    value = [sum(weights[f] for f in fp) for fp in footprints]
    order = sorted(range(len(cells)), key=lambda c: (-value[c], c))
    vals = [value[c] for c in order]
    masks = [handle.footprint_masks[c] for c in order]
    covers = [0] * len(cells)
    for idx, c in enumerate(order):
        for f in footprints[c]:
            covers[f] |= 1 << idx
    conflict = [_union(covers, mask) for mask in masks] if handle.c_o == 1 else None
    budget = PACK_SEARCH_STEPS

    best_obj = -1.0
    best: Optional[List[Cell]] = None
    chosen: List[int] = []
    steps = 0

    def dfs(avail: int, current: float, layers: Optional[List[int]]) -> None:
        nonlocal best_obj, best, steps
        steps += 1
        if steps > budget:
            return
        remaining = n_static - len(chosen)
        if remaining == 0:
            if current > best_obj:
                best_obj, best = current, [cells[c] for c in chosen]
                if stop_at is not None and best_obj >= stop_at:
                    steps = budget  # no placement beats it: end the search
            return
        while avail:
            low = avail & -avail
            idx = low.bit_length() - 1
            if current + remaining * vals[idx] <= best_obj:
                break  # vals non-increasing: no later cell can help
            chosen.append(order[idx])
            if layers is None:
                dfs(avail & ~conflict[idx], current + vals[idx], None)
            else:
                # the footprint cells at c_o - 1 covers reach the cap
                blocked = _union(covers, masks[idx] & layers[-2])
                dfs(avail & ~blocked, current + vals[idx], _add_footprint(layers, masks[idx]))
            chosen.pop()
            avail ^= low

    dfs((1 << len(order)) - 1, 0.0, None if handle.c_o == 1 else [0] * handle.c_o)
    return best


def _union(covers: List[int], cells: int) -> int:
    """The union of `covers[f]` over the cells f in the bitmask `cells`."""
    out = 0
    while cells:
        low = cells & -cells
        out |= covers[low.bit_length() - 1]
        cells ^= low
    return out


def _greedy_plan(handle: FormulationHandle, stop_at: Optional[int],
                 first: Optional[int]) -> Optional[Tuple[MobilePlan, int]]:
    """Overlap-respecting greedy plan confined to the handle's uncovered set
    `c1`, used to seed the exact solves, with the number of `c1` cells it
    covers.
    Nodes pick the feasible reachable cell with the largest new-coverage
    gain (ties lexicographic).  With `stop_at` set (movement minimization),
    planning stops once that many uncovered cells are covered, zero-gain
    moves become transit moves toward the nearest uncovered cell, and stuck
    nodes stop; without it every node must be placed each iteration and a
    stuck node aborts the seeding (None).  `first` is node 1's initial
    cell, by its index in `c1`, or None to let the greedy pick it."""
    c1, n_mobile, k_max = handle.uncovered, handle.n_mobile, handle.horizon
    if not c1:
        return MobilePlan(n_mobile=n_mobile, horizon=k_max, positions={}), 0
    masks, windows = handle.footprint_masks, handle.step_lists
    layers = [0] * handle.c_o
    positions: Dict[Tuple[int, int], Cell] = {}
    current: Dict[int, Optional[int]] = {l: None for l in range(1, n_mobile + 1)}
    stopped: Set[int] = set()

    def transit_choice(cands: List[int]) -> Optional[int]:
        hole = [c1[n] for n in range(len(c1)) if not layers[0] >> n & 1]
        if not hole:
            return None
        return min(cands, key=lambda n: min(max(abs(c1[n].i - h.i), abs(c1[n].j - h.j)) for h in hole))

    def cap_pressure(n: int) -> Tuple[int, int]:
        # prefer parking spots that exhaust the fewest cells' remaining cap;
        # only reached when c_o > 1, since under a cap of 1 a cell that fits
        # gains at least itself
        return (masks[n] & layers[-2]).bit_count(), masks[n].bit_count()

    for k in range(1, k_max + 1):
        for l in range(1, n_mobile + 1):
            if l in stopped:
                continue
            if stop_at is not None and layers[0].bit_count() >= stop_at:
                stopped.add(l)
                continue
            cands = range(len(c1)) if current[l] is None else windows[current[l]]
            if first is not None and l == 1 and k == 1:
                cands = [first]
            cands = [n for n in cands if not masks[n] & layers[-1]]
            if not cands:
                if stop_at is None:
                    return None  # coverage plans must place every node
                stopped.add(l)
                continue
            best = max(cands, key=lambda n: (masks[n] & ~layers[0]).bit_count())  # first of the best
            if not masks[best] & ~layers[0]:
                if stop_at is not None:
                    best = transit_choice(cands)
                    if best is None:
                        stopped.add(l)
                        continue
                else:
                    best = min(cands, key=lambda n: (cap_pressure(n), n))
            positions[(l, k)] = c1[best]
            current[l] = best
            layers = _add_footprint(layers, masks[best])
    return MobilePlan(n_mobile=n_mobile, horizon=k_max, positions=positions), layers[0].bit_count()


def best_seed_plan(handle: FormulationHandle, stop_at: Optional[int] = None) -> Optional[MobilePlan]:
    """Best greedy seed over all first-node start cells (plus the free
    default).  A coverage seed (`stop_at` None) is scored by uncovered
    cells covered then fewer placements, and the starts stop early once a
    seed covers everything; when no start places every node, the seed is
    the first plan of a bounded backtracking search over the greedy's own
    rules (_backtrack_plan), or None when that finds none.  A movement
    seed must cover `stop_at` uncovered cells (a seed short of the target
    is no incumbent): of the starts that do, the one of fewest movements,
    or None when none does.  All starts and the search read the handle's
    tables."""
    best: Optional[MobilePlan] = None
    best_key = (-1, 0)
    for first in [None, *range(len(handle.uncovered))]:
        seeded = _greedy_plan(handle, stop_at, first)
        if seeded is None:
            continue
        plan, covered = seeded
        key = (covered if stop_at is None else min(covered, stop_at), -plan.movements)
        if key > best_key:
            best, best_key = plan, key
        if stop_at is None and best_key[0] == len(handle.uncovered):
            break
    if stop_at is not None:
        return best if best_key[0] >= stop_at else None
    return best if best is not None else _backtrack_plan(handle)


def _backtrack_plan(handle: FormulationHandle) -> Optional[MobilePlan]:
    """Depth-first search over the greedy coverage seeder's choices: slots
    in (k, l) order, each node within the step window of its last cell, no
    footprint cell covered more than c_o times, candidates by new-coverage
    gain descending (ties lexicographic).  The first plan that places every
    node is returned; None when there is none within SEED_SEARCH_STEPS
    slots.  A branch in which a node has no cell left to go to is cut early,
    since no plan lies below it."""
    c1, n_mobile, k_max = handle.uncovered, handle.n_mobile, handle.horizon
    masks, windows = handle.footprint_masks, handle.step_lists
    slots = [(k, l) for k in range(1, k_max + 1) for l in range(1, n_mobile + 1)]
    positions: Dict[Tuple[int, int], Cell] = {}
    current: Dict[int, Optional[int]] = {l: None for l in range(1, n_mobile + 1)}
    steps = 0

    def reach(l: int, top: int) -> List[int]:
        cands = range(len(c1)) if current[l] is None else windows[current[l]]
        return [n for n in cands if not masks[n] & top]

    def search(s: int, layers: List[int]) -> Optional[bool]:
        """True once a plan is found, False when none extends the slots
        filled, None when the step budget runs out."""
        nonlocal steps
        steps += 1
        if steps > SEED_SEARCH_STEPS:
            return None
        if s == len(slots):
            return True
        k, l = slots[s]
        if not all(reach(m, layers[-1]) for _, m in slots[s + 1 : s + n_mobile]):
            return False  # counts only grow, so that node has no cell at its slot either
        last = current[l]
        for _, n in sorted((-(masks[n] & ~layers[0]).bit_count(), n) for n in reach(l, layers[-1])):
            positions[(l, k)] = c1[n]
            current[l] = n
            found = search(s + 1, _add_footprint(layers, masks[n]))
            if found is not False:
                return found
        current[l] = last
        positions.pop((l, k), None)  # None when node l had no cell to go to
        return False

    if not search(0, [0] * handle.c_o):
        return None
    return MobilePlan(n_mobile=n_mobile, horizon=k_max, positions=dict(positions))


def _fewest_moves_plan(handle: FormulationHandle, stop_at: int, low: int,
                       high: int) -> Optional[MobilePlan]:
    """A movement plan that covers `stop_at` cells with the fewest
    movements from `low` to `high`, found by iterative deepening on the
    total budget; None when there is none in that range or the search runs
    out of SEED_SEARCH_STEPS, which all budgets share.  At each budget a
    depth-first search lays out node paths in node order: a path extends
    within the step window of its last cell or ends, and is no longer than
    the path before it (nodes are interchangeable).  A path starts only on
    a cell of positive gain, since a plan of fewest movements has no
    start whose cells the others cover.  Candidates go by new-coverage gain
    descending (ties by index), no footprint cell is covered more than c_o
    times, and a branch is cut when its open movements cannot cover the
    cells still missing."""
    c1, n_mobile = handle.uncovered, handle.n_mobile
    masks, windows = handle.footprint_masks, handle.step_lists
    most = max(fp.bit_count() for fp in masks)
    paths: List[List[int]] = [[]]
    steps = 0

    def search(budget: int, used: int, layers: List[int], cap: int) -> Optional[bool]:
        """True once a plan is found, False when none extends the paths
        laid out, None when the step budget runs out; `cap` bounds the
        length of the last path."""
        nonlocal steps
        steps += 1
        if steps > SEED_SEARCH_STEPS:
            return None
        covered = layers[0].bit_count()
        if covered >= stop_at:
            return True
        if covered + (budget - used) * most < stop_at:
            return False
        path = paths[-1]
        if len(path) < cap:
            cands = windows[path[-1]] if path else range(len(c1))
            gains = sorted((-(masks[n] & ~layers[0]).bit_count(), n)
                           for n in cands if not masks[n] & layers[-1])
            for gain, n in gains:
                if not path and not gain:
                    break  # the rest gain nothing either
                path.append(n)
                found = search(budget, used + 1, _add_footprint(layers, masks[n]), cap)
                if found is not False:
                    return found
                path.pop()
        if not path or len(paths) == n_mobile:
            return False
        paths.append([])
        found = search(budget, used, layers, len(path))
        if found is False:
            paths.pop()
        return found

    for budget in range(low, high + 1):
        found = search(budget, 0, [0] * handle.c_o, handle.horizon)
        if found is None:
            return None
        if found:
            positions = {(l, k): c1[n] for l, path in enumerate(paths, start=1)
                         for k, n in enumerate(path, start=1)}
            return MobilePlan(n_mobile=n_mobile, horizon=handle.horizon, positions=positions)
    return None


# ---------------------------------------------------------------------------
# the single-path bound of the coverage model
# ---------------------------------------------------------------------------


def path_covers_more(handle: FormulationHandle, most: int) -> Optional[bool]:
    """Whether some path of one mobile node (handle.horizon cells, each in
    the step window of the one before) covers more than `most` cells of
    the handle's uncovered set with the union of its footprints; None when
    the search runs out of PATH_SEARCH_STEPS prefixes.  The path's cells
    are the handle's footprint bitmasks, its steps the handle's step lists.

    The exact pricing of the union path master at the counting duals (1 on
    every cover row, 0 on every cap row): a depth-first search over path
    prefixes, each visited prefix one step.  A prefix is extended only
    while its cells plus the largest sum of footprint sizes over the steps
    still open exceed `most` (`ahead`, a DP over the step layers: a union
    never exceeds the sum of its parts), most promising extension first."""
    masks, windows = handle.footprint_masks, handle.step_lists
    size = [fp.bit_count() for fp in masks]
    # ahead[r][p]: the largest sum of footprint sizes over r more steps from p
    ahead = [[0] * len(masks)]
    for _ in range(handle.horizon - 1):
        last = ahead[-1]
        ahead.append([max(size[q] + last[q] for q in window) for window in windows])
    steps = 0

    def extend(union: int, cands, left: int) -> Optional[bool]:
        """True once a path covers more than `most`, False when no path
        through this prefix does, None when the budget runs out; `left`
        steps are open and `cands` may take the next one."""
        nonlocal steps
        room = ahead[left - 1]
        options = []
        for q in cands:
            grown = union | masks[q]
            reach = grown.bit_count() + room[q]
            if reach > most:
                options.append((-reach, q, grown))
        for _, q, grown in sorted(options):
            steps += 1
            if steps > PATH_SEARCH_STEPS:
                return None
            found = True if left == 1 else extend(grown, windows[q], left - 1)
            if found is not False:
                return found
        return False

    return extend(0, range(len(masks)), handle.horizon)


def path_bound(handle: FormulationHandle, seed: MobilePlan) -> Optional[int]:
    """A proven bound on the covered cells of every plan of the coverage
    model `handle`, or None: n_mobile times the most that one node's path
    covers, when no path covers more than the plan `seed` covers over
    n_mobile (the seed then attains the bound).  Every plan covers at most
    the sum of its paths' cells, caps or not; None also when the search
    (path_covers_more) runs out of its budget."""
    covered = 0
    for cell in seed.positions.values():
        covered |= handle.footprint_masks[handle.index[cell]]
    most = covered.bit_count() // handle.n_mobile
    return None if path_covers_more(handle, most) is not False else handle.n_mobile * most


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------


def _packing_bound(handle: FormulationHandle) -> Optional[int]:
    """A proven bound on every placement's packing value, or None.  Each
    node scores its own footprint under any cap, so the packing value is
    the static model's objective and the quotient bound on its LP (the one
    the solve reads) bounds it; when that objective is integral
    (simplex.LpData.objective_integral: an integral boundary weight) every
    value is an integer, summed exactly, so the bound may be floored and a
    placement that reaches it is the best.  (Sums of a fractional weight
    are rounded, and two placements of equal value could then differ in
    the last bit.)"""
    data = LpData(handle.instance)
    bound = lp_bound(handle.instance) if data.objective_integral else None
    return None if bound is None else data.round_bound(bound)


def place_static_milp(
    config: ExperimentConfig,
) -> Tuple[Optional[StaticDeployment], MilpResult]:
    """Stage 1, exact variant: build, warm-start, solve and decode."""
    handle = build_milp_static(
        config.grid, config.n_static, config.r_s, config.c_o_static, config.boundary_weight
    )
    packed = pack_static_positions(handle, stop_at=_packing_bound(handle))
    warm = None if packed is None else encode_static(handle, packed)
    result = solve_milp(handle.instance, config.solver_params(), warm_start=warm)
    if result.incumbent is None:
        return None, result
    return decode_static(handle, result.incumbent), result


def place_static_random(config: ExperimentConfig, seed: int) -> StaticDeployment:
    """Stage 1, baseline variant: uniform placement without replacement."""
    grid = config.grid
    cells = sorted(grid.cells())
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))
    idx = rng.choice(len(cells), size=config.n_static, replace=False)
    positions = [cells[int(i)] for i in sorted(idx)]
    return static_deployment(grid, positions, config.r_s, config.boundary_weight)


def build_mobile_milp(
    config: ExperimentConfig, deployment: Optional[StaticDeployment]
) -> FormulationHandle:
    """The path formulation `config.planner` selects, over the cells that
    `deployment` leaves uncovered."""
    grid = config.grid
    covered = set(deployment.covered) if deployment is not None else set()
    uncovered = sorted(set(grid.cells()) - covered)
    if config.planner == "milp-cov":
        return build_milp_cov(
            grid, uncovered, config.n_mobile, config.k_max,
            config.r_s, config.rho_x, config.rho_y, config.c_o_mobile,
        )
    return build_milp_mov(
        grid, uncovered, len(covered), config.n_mobile, config.k_max,
        config.r_s, config.rho_x, config.rho_y, config.c_o_mobile,
        coverage_target=config.coverage_target,
    )


def plan_mobile_milp(
    config: ExperimentConfig, deployment: Optional[StaticDeployment]
) -> Tuple[FormulationHandle, Optional[MobilePlan], MilpResult]:
    """Stages 2-3, exact variants: build the selected formulation over the
    uncovered set, seed it, solve, decode the incumbent.  A movement model
    whose counting floor (the cells to cover over the largest footprint,
    rounded up) exceeds the placements of a plan, n_mobile * horizon, is
    "infeasible" at 0 nodes, before any seeder or LP.  A movement seed
    with more movements than the floor (that one, or the quotient bound the
    solve reads, rounded up) gives way to the plan of fewest movements the
    bounded search finds below it (_fewest_moves_plan), and with no greedy
    seed that search runs up to n_mobile * horizon; a seed that reaches
    the quotient bound ends the solve before any LP.  A coverage solve
    also gets the single-path bound (path_bound), which it computes only
    after its box and quotient bounds have failed to close it: a seed
    that covers n_mobile times the most cells one path covers ends it
    "optimal" before any LP too."""
    handle = build_mobile_milp(config, deployment)
    if handle.nothing_to_plan:
        empty = MobilePlan(n_mobile=handle.n_mobile, horizon=handle.horizon, positions={})
        result = MilpResult("optimal", np.zeros(handle.instance.n_variables), 0.0, 0.0, 0.0, 0)
        return handle, empty, result

    stop_at = None
    if handle.coverage_threshold is not None:
        stop_at = max(0, handle.coverage_threshold - handle.static_covered_count)
    if stop_at:
        low = -(-stop_at // max(fp.bit_count() for fp in handle.footprint_masks))
        if low > handle.n_mobile * handle.horizon:  # more placements than a plan has
            return handle, None, MilpResult("infeasible", None, None, None, None, 0)
    seeded = best_seed_plan(handle, stop_at=stop_at)
    if stop_at:
        bound = lp_bound(handle.instance)  # the one the solve reads
        if bound is not None:
            low = max(low, LpData(handle.instance).round_bound(bound))
        high = handle.n_mobile * handle.horizon if seeded is None else seeded.movements - 1
        if high >= low:
            seeded = _fewest_moves_plan(handle, stop_at, low, high) or seeded
    warm = None if seeded is None else encode_plan(handle, seeded)
    if stop_at is None and seeded is not None:  # computed only if the box and quotient bounds fail
        hand_bound(handle.instance, functools.partial(path_bound, handle, seeded))
    result = solve_milp(handle.instance, config.solver_params(), warm_start=warm)
    if result.incumbent is None:
        return handle, None, result
    return handle, decode_plan(handle, result.incumbent), result


def _solve_plan(
    config: ExperimentConfig, deployment: Optional[StaticDeployment]
) -> Tuple[Optional[MobilePlan], str, Optional[float], Optional[float], Optional[float], str]:
    """The plan, status, objective, bound, gap and note of one exact
    planning solve around `deployment`; a ValueError or a
    SimplexNumericalError is an "error" with the message as its note."""
    try:
        _, plan, result = plan_mobile_milp(config, deployment)
    except (ValueError, SimplexNumericalError) as exc:
        return None, "error", None, None, None, str(exc)
    note = ""
    if plan is None and result.status == "infeasible" and config.planner == "milp-mov":
        note = "coverage target unreachable: increase k_max or n_mobile"
    elif plan is None:
        note = "no incumbent within limits"
    return plan, result.status, result.objective, result.best_bound, result.gap, note


def run_pipeline(config: ExperimentConfig) -> List[ResultRow]:
    """Run the full pipeline once per seed; solver trouble is recorded in
    the row, never fatal to the batch: a ValueError of the planning stage,
    or a SimplexNumericalError of either stage, is an "error" row with the
    message as its note.  Only a random-static deployment depends on the
    seed, so under the other placements one exact planning solve serves
    every seed's row."""
    rows: List[ResultRow] = []
    planned = None  # the last exact planning solve's outcome (_solve_plan)

    milp_deployment: Optional[StaticDeployment] = None
    static_status, static_note = "infeasible", "static placement infeasible"
    if config.placement == "milp-static":
        try:
            milp_deployment = place_static_milp(config)[0]
        except SimplexNumericalError as exc:
            static_status, static_note = "error", str(exc)

    for seed in config.seeds:
        t0 = time.monotonic()
        if config.placement == "milp-static":
            deployment = milp_deployment
            if deployment is None:
                rows.append(self_describing_row(config, seed, None, None, static_status,
                                                None, None, None, time.monotonic() - t0,
                                                static_note))
                continue
        elif config.placement == "random-static":
            deployment = place_static_random(config, seed)
        else:
            deployment = None

        plan, status, objective, bound, gap, note = None, "ok", None, None, None, ""
        if config.planner in ("milp-cov", "milp-mov"):
            if planned is None or config.placement == "random-static":
                planned = _solve_plan(config, deployment)
            plan, status, objective, bound, gap, note = planned
        elif config.planner in ("greedy", "random"):
            plan = baseline_plan(config, deployment, seed)

        rows.append(self_describing_row(
            config, seed, deployment, plan, status, objective, bound, gap,
            time.monotonic() - t0, note,
        ))
    return rows


def baseline_plan(
    config: ExperimentConfig, deployment: Optional[StaticDeployment], seed: int
) -> MobilePlan:
    """The plan of the baseline planner `config` names (greedy or random)
    around `deployment`; `seed` seeds its random choices."""
    baseline = BaselineConfig(n_mobile=config.n_mobile, k_max=config.k_max, r_s=config.r_s,
                              rho_x=config.rho_x, rho_y=config.rho_y, seed=seed)
    planner = greedy_plan if config.planner == "greedy" else random_plan
    return planner(config.grid, deployment, baseline)


def self_describing_row(
    config: ExperimentConfig,
    seed: int,
    deployment: Optional[StaticDeployment],
    plan: Optional[MobilePlan],
    status: str,
    objective: Optional[float],
    bound: Optional[float],
    gap: Optional[float],
    wall_time: float,
    note: str = "",
) -> ResultRow:
    """Assemble a row, recomputing every count from one replay of the
    stored deployment and plan."""
    report = evaluate_plan(deployment, plan, config.sensor_params, config.grid)
    return ResultRow(
        config=config,
        seed=seed,
        coverage_pct=report.coverage_pct,
        covered_cells=report.covered_count,
        total_cells=report.total_cells,
        movements_raw=report.movements,
        movements_trimmed=report.movements_trimmed,
        movements_to_target=report.movements_to(config.coverage_target),
        solver_status=status,
        objective=objective,
        best_bound=bound,
        gap=gap,
        wall_time=wall_time,
        note=note,
        deployment=deployment,
        plan=plan,
    )


def sweep(base: ExperimentConfig, axes: Dict[str, Sequence]) -> List[ResultRow]:
    """Cartesian sweep over config fields; rows ordered by config index
    (sorted axis names, values in given order), one row per seed.  Every
    cell's config is built before any cell runs, so a cell that makes no
    valid config raises ValueError, naming its axis values, before anything
    is solved.  Failures of a cell's run are error rows; the sweep goes on."""
    if not axes:
        return []
    names = sorted(axes)
    configs = []
    for combo in itertools.product(*(axes[n] for n in names)):
        try:
            configs.append(replace(base, **dict(zip(names, combo))))
        except ValueError as exc:
            cell = ", ".join(f"{n}={v}" for n, v in zip(names, combo))
            raise ValueError(f"sweep cell {cell}: {exc}") from exc
    out: List[ResultRow] = []
    for cfg in configs:
        try:
            out.extend(run_pipeline(cfg))
        except Exception as exc:  # pragma: no cover - defensive
            for seed in cfg.seeds:
                out.append(self_describing_row(cfg, seed, None, None, "error",
                                               None, None, None, 0.0, str(exc)))
    return out


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

# the CSV columns: the config's fields less the run controls, then the
# row's own fields less the config, deployment and plan objects
_CONFIG_COLUMNS = [f.name for f in fields(ExperimentConfig)
                   if f.name not in ("seeds", "time_limit", "mip_gap", "node_limit")]
RESULT_COLUMNS = _CONFIG_COLUMNS + [f.name for f in fields(ResultRow)
                                    if f.name not in ("config", "deployment", "plan")]


def _csv_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


def results_csv(rows: Sequence[ResultRow], deterministic: bool = False) -> str:
    """Fixed-header CSV; with `deterministic`, the wall_time field is left
    empty so identical runs produce byte-identical files."""
    lines = [",".join(RESULT_COLUMNS)]
    for row in rows:
        record = []
        for col in RESULT_COLUMNS:
            value = getattr(row.config if col in _CONFIG_COLUMNS else row, col)
            if col == "wall_time" and deterministic:
                value = None
            record.append(_csv_field(value))
        lines.append(",".join(record))
    return "\n".join(lines) + "\n"


def plan_text(plan: MobilePlan) -> str:
    """Line-oriented plan: `l k i j` per placement, (l, k) ascending."""
    lines = [f"{l} {k} {pos.i} {pos.j}" for (l, k), pos in sorted(plan.positions.items())]
    return "\n".join(lines) + ("\n" if lines else "")


def deployment_text(deployment: StaticDeployment) -> str:
    """Line-oriented deployment: `s i j` per static node."""
    lines = [f"{s} {pos.i} {pos.j}" for s, pos in enumerate(deployment.positions, start=1)]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_deployment_text(
    text: str, grid: GridSpec, r_s: int, boundary_weight: float = 4.0
) -> StaticDeployment:
    entries: Dict[int, Cell] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"deployment line {ln}: expected 's i j', got {raw!r}")
        s, i, j = (int(p) for p in parts)
        if s in entries:
            raise ValueError(f"deployment line {ln}: node {s} given twice")
        entries[s] = grid.require(Cell(i, j), "deployment position")
    if not entries:
        raise ValueError("deployment lists no static node")
    if sorted(entries) != list(range(1, len(entries) + 1)):
        raise ValueError("deployment nodes must be numbered 1..N")
    positions = [entries[s] for s in sorted(entries)]
    return static_deployment(grid, positions, r_s, boundary_weight)
