"""Greedy and random-movement baseline planners.

Both baselines are fully reproducible: every random draw comes from a
PCG64 generator seeded with SeedSequence([seed, node_index]), giving each
node its own platform-independent stream.  Baseline nodes move over the
full grid (only the MILP variables are restricted to the uncovered set);
coverage gain still counts only cells not already covered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple, Union

import numpy as np

from .formulations import MobilePlan
from .grid import Cell, GridSpec, reachable_window, sensing_footprint


@dataclass(frozen=True)
class BaselineConfig:
    """Baseline run parameters; a fixed seed makes the run reproducible."""

    n_mobile: int
    k_max: int
    r_s: int = 1
    rho_x: int = 2
    rho_y: int = 2
    seed: int = 0
    initial_placement: Union[str, Tuple[Tuple[int, int], ...]] = "uniform"

    def __post_init__(self) -> None:
        if self.n_mobile < 1 or self.k_max < 1:
            raise ValueError("n_mobile and k_max must be >= 1")
        if min(self.rho_x, self.rho_y) < 0:
            raise ValueError("step range must be >= 0")
        if isinstance(self.initial_placement, str):
            if self.initial_placement != "uniform":
                raise ValueError("initial_placement must be 'uniform' or explicit cells")
        elif len(self.initial_placement) != self.n_mobile:
            raise ValueError("explicit initial placement must list one cell per node")


def _node_rng(seed: int, node: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, node])))


def _initial_positions(
    grid: GridSpec, static, cfg: BaselineConfig, rngs: List[np.random.Generator]
) -> List[Cell]:
    if not isinstance(cfg.initial_placement, str):
        return [grid.require(c, "initial position") for c in cfg.initial_placement]
    uncovered = sorted(set(grid.cells()) - set(static.covered)) if static is not None else sorted(grid.cells())
    pool = uncovered if uncovered else sorted(grid.cells())
    return [pool[int(rngs[l].integers(len(pool)))] for l in range(cfg.n_mobile)]


def greedy_plan(grid: GridSpec, static, cfg: BaselineConfig) -> MobilePlan:
    """Each iteration, nodes (in ascending order) move to the reachable cell
    covering the most not-yet-covered cells, given static coverage, all
    prior footprints, and footprints already chosen this iteration; ties go
    to the lexicographically smallest (i, j)."""
    covered: Set[Cell] = set(static.covered) if static is not None else set()
    positions: Dict[Tuple[int, int], Cell] = {}
    rngs = [_node_rng(cfg.seed, l) for l in range(1, cfg.n_mobile + 1)]
    current = _initial_positions(grid, static, cfg, rngs)
    for l, pos in enumerate(current, start=1):
        positions[(l, 1)] = pos
        covered |= sensing_footprint(pos, cfg.r_s, grid)

    for k in range(2, cfg.k_max + 1):
        for l in range(1, cfg.n_mobile + 1):
            window = sorted(reachable_window(current[l - 1], cfg.rho_x, cfg.rho_y, grid))
            best_cell, best_gain = None, -1
            for cand in window:
                gain = len(sensing_footprint(cand, cfg.r_s, grid) - covered)
                if gain > best_gain:
                    best_cell, best_gain = cand, gain
            positions[(l, k)] = best_cell
            current[l - 1] = best_cell
            covered |= sensing_footprint(best_cell, cfg.r_s, grid)
    return MobilePlan(n_mobile=cfg.n_mobile, horizon=cfg.k_max, positions=positions)


def random_plan(grid: GridSpec, static, cfg: BaselineConfig) -> MobilePlan:
    """Each node's next cell is drawn uniformly from its reachable window
    (per-node PCG64 streams; identical seeds give identical plans)."""
    positions: Dict[Tuple[int, int], Cell] = {}
    rngs = [_node_rng(cfg.seed, l) for l in range(1, cfg.n_mobile + 1)]
    current = _initial_positions(grid, static, cfg, rngs)
    for l, pos in enumerate(current, start=1):
        positions[(l, 1)] = pos
    for k in range(2, cfg.k_max + 1):
        for l in range(1, cfg.n_mobile + 1):
            window = sorted(reachable_window(current[l - 1], cfg.rho_x, cfg.rho_y, grid))
            nxt = window[int(rngs[l - 1].integers(len(window)))]
            positions[(l, k)] = nxt
            current[l - 1] = nxt
    return MobilePlan(n_mobile=cfg.n_mobile, horizon=cfg.k_max, positions=positions)
