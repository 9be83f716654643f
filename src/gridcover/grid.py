"""Unit-cell grid model: coverage geometry and coverage accounting.

The network area is an M x N lattice of unit cells addressed by 1-based
(i, j) coordinates (i = row, j = column).  A node at cell (i, j) with
sensing radius r_s covers the clipped (2*r_s+1) x (2*r_s+1) square around
it; a mobile node may travel up to rho_x rows and rho_y columns per
iteration.  Coverage ratios are kept as exact integer pairs so threshold
comparisons never depend on floating point.

`windows` is the one clipped-box table (the boxes of a sorted cell list,
as indices into it).  A formulation handle builds its footprint and step
tables with it, once each; the MILP builders and the step component check
read those, and the encoders and the warm-start searches read the lists
and bitmasks the handle cuts from them.  `cell_weights` is the one
row-major vector of boundary weights.

`evaluate_plan` is the one replay of a deployment and a mobile plan: it
walks the placements once, in (iteration, node) ascending order, and its
report answers every count a result row needs (coverage, raw and trimmed
movements, movements to a target).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

import numpy as np


class Cell(NamedTuple):
    """A 1-based (row, column) grid coordinate."""

    i: int
    j: int


@dataclass(frozen=True)
class GridSpec:
    """An M x N lattice of unit cells, rows 1..M and columns 1..N."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid dimensions must be >= 1, got {self.rows}x{self.cols}")

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    def __contains__(self, cell: Tuple[int, int]) -> bool:
        i, j = cell
        return 1 <= i <= self.rows and 1 <= j <= self.cols

    def cells(self) -> Iterator[Cell]:
        """All cells in row-major order."""
        for i in range(1, self.rows + 1):
            for j in range(1, self.cols + 1):
                yield Cell(i, j)

    def require(self, cell: Tuple[int, int], what: str = "cell") -> Cell:
        if cell not in self:
            raise ValueError(f"{what} {tuple(cell)} outside {self.rows}x{self.cols} grid")
        return Cell(*cell)


@dataclass(frozen=True)
class SensorParams:
    """What coverage accounting reads of a sensor: r_s counts cells sensed
    in each direction (the footprint is a clipped (2*r_s+1)^2 square)."""

    r_s: int = 1

    def __post_init__(self) -> None:
        if self.r_s < 0:
            raise ValueError("sensing radius must be >= 0")


@dataclass(frozen=True)
class CoverageReport:
    """Outcome of evaluating a deployment plus mobile plan.

    covered_count / total_cells is the exact coverage ratio; multiplicity
    counts, per cell, how many (node, iteration) mobile footprints contain
    it (static coverage is not part of the multiplicity).  `ledger` is the
    covered-cell count with the static nodes alone, then after each
    placement in (iteration, node) ascending order; movements is the
    number of placements in the plan.
    """

    covered: frozenset
    total_cells: int
    multiplicity: Dict[Cell, int] = field(repr=False)
    ledger: Tuple[int, ...] = field(repr=False)

    @property
    def covered_count(self) -> int:
        return len(self.covered)

    @property
    def coverage_ratio(self) -> Fraction:
        return Fraction(len(self.covered), self.total_cells)

    @property
    def coverage_pct(self) -> float:
        return 100.0 * len(self.covered) / self.total_cells

    @property
    def movements(self) -> int:
        return len(self.ledger) - 1

    @property
    def movements_trimmed(self) -> int:
        """Placements up to the last one that raised the covered count (0
        when none did): trailing no-gain placements are dropped."""
        gains = [n for n in range(1, len(self.ledger)) if self.ledger[n] > self.ledger[n - 1]]
        return gains[-1] if gains else 0

    def movements_to(self, target: Union[int, float, str, Fraction]) -> Optional[int]:
        """Placements after which coverage first reaches `target` of the
        grid, compared exactly; 0 when the static nodes alone reach it,
        None when the plan never does."""
        need = _exact_fraction(target) * self.total_cells
        return next((n for n, count in enumerate(self.ledger) if count >= need), None)


def _exact_fraction(value: Union[int, float, str, Fraction]) -> Fraction:
    """Exact rational from user input; floats go via their shortest decimal
    repr so 0.9 means 9/10, not the binary float below it."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    return Fraction(value)


def sensing_footprint(center: Tuple[int, int], r_s: int, grid: GridSpec) -> Set[Cell]:
    """Cells sensed by a node at `center`: the Chebyshev ball of radius r_s
    clipped to the grid (the step window with both reaches r_s)."""
    return reachable_window(grid.require(center, "footprint center"), r_s, r_s, grid)


def reachable_window(center: Tuple[int, int], rho_x: int, rho_y: int, grid: GridSpec) -> Set[Cell]:
    """Cells a mobile node at `center` may occupy next iteration (staying
    put included), clipped to the grid."""
    ci, cj = grid.require(center, "window center")
    return {
        Cell(i, j)
        for i in range(max(1, ci - rho_x), min(grid.rows, ci + rho_x) + 1)
        for j in range(max(1, cj - rho_y), min(grid.cols, cj + rho_y) + 1)
    }


def windows(grid: GridSpec, cells: Sequence[Cell], dr: int, dc: int) -> Tuple[np.ndarray, np.ndarray]:
    """The clipped-box table.  For each of the sorted `cells`, the cells of
    the clipped (2*dr+1) x (2*dc+1) box around it that are among `cells`,
    as their indices in `cells`, in row-major order; a negative reach gives
    empty boxes.  Raises ValueError for a cell off the grid.  Returns (box
    lengths, the boxes concatenated)."""
    n = len(cells)
    at = np.fromiter(itertools.chain.from_iterable(cells), np.int64, 2 * n).reshape(n, 2)
    on_grid = ((at >= 1) & (at <= (grid.rows, grid.cols))).all(axis=1)
    if not on_grid.all():
        grid.require(cells[int(np.argmin(on_grid))])
    if dr < 0 or dc < 0:
        return np.zeros(n, dtype=np.int64), np.empty(0, dtype=np.int64)
    index_of = np.full(grid.n_cells, -1)
    index_of[(at[:, 0] - 1) * grid.cols + at[:, 1] - 1] = np.arange(n)
    dr, dc = min(dr, grid.rows - 1), min(dc, grid.cols - 1)  # wider boxes only clip
    p = at[:, :1] + np.repeat(np.arange(-dr, dr + 1), 2 * dc + 1)
    q = at[:, 1:] + np.tile(np.arange(-dc, dc + 1), 2 * dr + 1)
    inside = (p >= 1) & (p <= grid.rows) & (q >= 1) & (q <= grid.cols)
    found = np.where(inside, index_of[np.where(inside, (p - 1) * grid.cols + q - 1, 0)], -1)
    keep = found >= 0
    return keep.sum(axis=1), found[keep]


def boundary_cells(grid: GridSpec) -> Set[Cell]:
    """Perimeter cells. For M, N >= 2 there are exactly 2(M+N-2); 1-row or
    1-column grids degenerate to every cell being boundary."""
    return {cell for cell, w in zip(grid.cells(), cell_weights(grid, 0.0).tolist()) if w == 0.0}


def cell_weights(grid: GridSpec, boundary_weight: float) -> np.ndarray:
    """Each cell's weight in the boundary-weighted objective, row-major:
    `boundary_weight` on the perimeter, 1 elsewhere.  The one definition of
    the perimeter (boundary_cells reads it)."""
    weights = np.full((grid.rows, grid.cols), boundary_weight, dtype=float)
    weights[1:-1, 1:-1] = 1.0
    return weights.ravel()


def interior_cells(grid: GridSpec) -> Set[Cell]:
    """Cells that are not on the perimeter."""
    return set(grid.cells()) - boundary_cells(grid)


def static_coverage(
    placements: List[Tuple[int, int]], r_s: int, grid: GridSpec
) -> Tuple[Set[Cell], Set[Cell]]:
    """Partition the grid into (covered, uncovered) for a static deployment.

    Returns (C_2, C_1): C_2 is the union of sensing footprints, C_1 the
    complement; they partition the cell set.
    """
    c2: Set[Cell] = set()
    for pos in placements:
        c2 |= sensing_footprint(pos, r_s, grid)
    c1 = set(grid.cells()) - c2
    return c2, c1


def evaluate_plan(static, plan, params: SensorParams, grid: GridSpec) -> CoverageReport:
    """Coverage accounting for a static deployment plus a mobile plan.

    `static` is anything with a `covered` cell set (or None for no static
    nodes); `plan` is anything with a `positions` mapping of
    (node, iteration) -> cell (or None for no mobiles).  A cell counts as
    covered if a static footprint or any mobile placement's footprint
    contains it.  The placements are replayed once, in (iteration, node)
    ascending order, recording the covered count after each in the
    report's ledger.  Out-of-grid plan positions raise, listing the
    offending (node, iteration) pairs.
    """
    covered: Set[Cell] = set(static.covered) if static is not None else set()
    positions = dict(plan.positions) if plan is not None else {}
    bad = sorted(lk for lk, pos in positions.items() if pos not in grid)
    if bad:
        raise ValueError(f"plan positions outside grid at (node, iteration): {bad}")

    multiplicity: Dict[Cell, int] = {}
    ledger = [len(covered)]
    for lk in sorted(positions, key=lambda lk: (lk[1], lk[0])):
        for cell in sensing_footprint(positions[lk], params.r_s, grid):
            multiplicity[cell] = multiplicity.get(cell, 0) + 1
            covered.add(cell)
        ledger.append(len(covered))

    return CoverageReport(
        covered=frozenset(covered),
        total_cells=grid.n_cells,
        multiplicity=multiplicity,
        ledger=tuple(ledger),
    )
