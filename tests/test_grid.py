"""Grid geometry and coverage accounting."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcover.formulations import MobilePlan, static_deployment
from gridcover.grid import (
    Cell,
    GridSpec,
    SensorParams,
    boundary_cells,
    cell_weights,
    evaluate_plan,
    interior_cells,
    reachable_window,
    sensing_footprint,
    static_coverage,
    windows,
)

import oracles


def cells(*pairs):
    return {Cell(i, j) for i, j in pairs}


class TestGridSpec:
    def test_dimensions_validated(self):
        with pytest.raises(ValueError):
            GridSpec(0, 3)
        with pytest.raises(ValueError):
            GridSpec(3, -1)

    def test_contains_and_count(self):
        g = GridSpec(3, 4)
        assert g.n_cells == 12
        assert (1, 1) in g and (3, 4) in g
        assert (0, 1) not in g and (4, 1) not in g and (1, 5) not in g

    def test_cells_row_major(self):
        g = GridSpec(2, 2)
        assert list(g.cells()) == [Cell(1, 1), Cell(1, 2), Cell(2, 1), Cell(2, 2)]


class TestSensingFootprint:
    def test_interior_full_window(self):
        got = sensing_footprint(Cell(2, 2), 1, GridSpec(3, 3))
        assert got == cells(*[(i, j) for i in (1, 2, 3) for j in (1, 2, 3)])

    def test_corner_clipping(self):
        got = sensing_footprint(Cell(1, 1), 1, GridSpec(3, 3))
        assert got == cells((1, 1), (1, 2), (2, 1), (2, 2))

    def test_interior_10x10(self):
        # hand enumeration: rows 4-6 x cols 4-6 around (5,5)
        want = cells(*[(i, j) for i in (4, 5, 6) for j in (4, 5, 6)])
        assert sensing_footprint(Cell(5, 5), 1, GridSpec(10, 10)) == want

    def test_center_outside_grid_rejected(self):
        with pytest.raises(ValueError):
            sensing_footprint(Cell(0, 1), 1, GridSpec(3, 3))

    def test_zero_radius(self):
        assert sensing_footprint(Cell(2, 3), 0, GridSpec(4, 4)) == cells((2, 3))

    @given(
        rows=st.integers(1, 12),
        cols=st.integers(1, 12),
        r_s=st.integers(0, 4),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_size_bound_with_equality_iff_unclipped(self, rows, cols, r_s, data):
        grid = GridSpec(rows, cols)
        center = Cell(
            data.draw(st.integers(1, rows)), data.draw(st.integers(1, cols))
        )
        fp = sensing_footprint(center, r_s, grid)
        assert len(fp) <= (2 * r_s + 1) ** 2
        unclipped = (
            center.i - r_s >= 1
            and center.i + r_s <= rows
            and center.j - r_s >= 1
            and center.j + r_s <= cols
        )
        assert (len(fp) == (2 * r_s + 1) ** 2) == unclipped


class TestReachableWindow:
    def test_interior(self):
        assert len(reachable_window(Cell(3, 3), 2, 2, GridSpec(10, 10))) == 25

    def test_corner(self):
        assert len(reachable_window(Cell(1, 1), 2, 2, GridSpec(10, 10))) == 9

    def test_asymmetric_ranges(self):
        got = reachable_window(Cell(2, 4), 1, 2, GridSpec(4, 8))
        want = cells(*[(i, j) for i in (1, 2, 3) for j in (2, 3, 4, 5, 6)])
        assert got == want and len(got) == 15

    @given(
        rows=st.integers(1, 12),
        cols=st.integers(1, 12),
        rho=st.tuples(st.integers(0, 3), st.integers(0, 3)),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_contains_center(self, rows, cols, rho, data):
        grid = GridSpec(rows, cols)
        center = Cell(
            data.draw(st.integers(1, rows)), data.draw(st.integers(1, cols))
        )
        assert center in reachable_window(center, rho[0], rho[1], grid)


class TestBoundary:
    @pytest.mark.parametrize(
        "rows,cols,count", [(8, 8, 28), (2, 2, 4), (10, 10, 36), (3, 6, 14)]
    )
    def test_counts(self, rows, cols, count):
        g = GridSpec(rows, cols)
        b = boundary_cells(g)
        assert len(b) == count == 2 * (rows + cols - 2)
        assert interior_cells(g) == set(g.cells()) - b

    def test_degenerate_single_row(self):
        g = GridSpec(1, 5)
        assert boundary_cells(g) == set(g.cells())

    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 5), (5, 1), (2, 2), (2, 7), (3, 4), (6, 6)])
    def test_cell_weights_mark_the_boundary(self, rows, cols):
        g = GridSpec(rows, cols)
        boundary = {c for c in g.cells() if c.i in (1, rows) or c.j in (1, cols)}
        assert boundary_cells(g) == boundary
        want = [2.5 if cell in boundary else 1.0 for cell in g.cells()]
        assert cell_weights(g, 2.5).tolist() == want


class TestWindows:
    """`windows` is the set form (`sensing_footprint`, `reachable_window`)
    intersected with the cell list, as indices into it in row-major order."""

    @staticmethod
    def subsets(rng, grid):
        cells = sorted(grid.cells())
        yield []
        yield [rng.choice(cells)]
        yield sorted(rng.sample(cells, rng.randint(0, len(cells))))
        yield cells

    def test_matches_the_set_form(self):
        rng = random.Random(16)
        for _ in range(300):
            grid = GridSpec(rng.randint(1, 9), rng.randint(1, 9))
            for cells in self.subsets(rng, grid):
                dr, dc = rng.randint(-1, grid.rows + 1), rng.randint(-1, grid.cols + 1)
                members = set(cells)
                for reach in ((dr, dc), (dc, dr), (dr, dr)):
                    lengths, flat = windows(grid, cells, *reach)
                    assert len(lengths) == len(cells) and lengths.sum() == len(flat)
                    start = 0
                    for cell, n in zip(cells, lengths.tolist()):
                        box = reachable_window(cell, *reach, grid)
                        if reach[0] == reach[1]:
                            assert box == sensing_footprint(cell, reach[0], grid)
                        want = sorted(cells.index(c) for c in box & members)
                        assert flat[start : start + n].tolist() == want, (grid, cells, reach, cell)
                        start += n

    @pytest.mark.parametrize(
        "rows,cols,cells,bad",
        [
            (3, 3, [(1, 1), (1, 4)], (1, 4)),
            (3, 3, [(0, 2), (1, 1)], (0, 2)),
            # as many cells as the grid has, one of them off it
            (2, 2, [(1, 1), (1, 2), (2, 1), (2, 3)], (2, 3)),
            (2, 2, [(1, 1), (1, 2), (2, 1), (3, 2)], (3, 2)),
        ],
    )
    @pytest.mark.parametrize("reach", [(1, 1), (0, 0), (-1, 1)])
    def test_cells_outside_the_grid_rejected(self, rows, cols, cells, bad, reach):
        with pytest.raises(ValueError, match=rf"cell \({bad[0]}, {bad[1]}\) outside {rows}x{cols} grid"):
            windows(GridSpec(rows, cols), [Cell(*c) for c in cells], *reach)


class TestStaticCoverage:
    def test_no_nodes(self):
        g = GridSpec(3, 3)
        c2, c1 = static_coverage([], 1, g)
        assert c2 == set() and c1 == set(g.cells())

    def test_center_covers_3x3(self):
        g = GridSpec(3, 3)
        c2, c1 = static_coverage([Cell(2, 2)], 1, g)
        assert c2 == set(g.cells()) and c1 == set()

    def test_two_nodes_cover_3x6(self):
        g = GridSpec(3, 6)
        c2, c1 = static_coverage([Cell(2, 2), Cell(2, 5)], 1, g)
        assert c2 == set(g.cells()) and c1 == set()

    @given(
        rows=st.integers(2, 10),
        cols=st.integers(2, 10),
        r_s=st.integers(0, 2),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition(self, rows, cols, r_s, data):
        grid = GridSpec(rows, cols)
        n = data.draw(st.integers(0, 4))
        placements = [
            Cell(data.draw(st.integers(1, rows)), data.draw(st.integers(1, cols)))
            for _ in range(n)
        ]
        c2, c1 = static_coverage(placements, r_s, grid)
        assert c1 | c2 == set(grid.cells())
        assert c1 & c2 == set()


def plan_of(horizon, *steps):
    return MobilePlan(
        n_mobile=1,
        horizon=horizon,
        positions={(1, k): Cell(i, j) for k, (i, j) in enumerate(steps, start=1)},
    )


class TestEvaluatePlan:
    params = SensorParams(r_s=1)

    def test_empty(self):
        report = evaluate_plan(None, None, self.params, GridSpec(3, 3))
        assert report.coverage_ratio == 0 and report.movements == 0

    def test_single_center_placement(self):
        report = evaluate_plan(None, plan_of(1, (2, 2)), self.params, GridSpec(3, 3))
        assert report.coverage_ratio == 1
        assert report.movements == 1

    def test_four_step_sweep_of_5x5(self):
        # footprint-union oracle: the four footprints cover all 25 cells and
        # (3,3) lies in exactly the first three
        plan = plan_of(4, (2, 2), (2, 4), (4, 2), (5, 4))
        report = evaluate_plan(None, plan, self.params, GridSpec(5, 5))
        assert report.coverage_ratio == 1
        assert report.movements == 4
        assert max(report.multiplicity.values()) == 3
        assert report.multiplicity[Cell(3, 3)] == 3

    def test_out_of_grid_positions_listed(self):
        plan = MobilePlan(1, 2, {(1, 1): Cell(2, 2), (1, 2): Cell(9, 9)})
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            evaluate_plan(None, plan, self.params, GridSpec(3, 3))

    def test_static_counts_toward_coverage_not_multiplicity(self):
        g = GridSpec(3, 3)

        class Dep:
            covered = frozenset({Cell(1, 1)})

        report = evaluate_plan(Dep(), plan_of(1, (3, 3)), self.params, g)
        assert Cell(1, 1) in report.covered
        assert Cell(1, 1) not in report.multiplicity

    def test_monotone_under_added_placement(self):
        g = GridSpec(5, 5)
        base = plan_of(2, (2, 2), (4, 4))
        more = plan_of(3, (2, 2), (4, 4), (4, 2))
        a = evaluate_plan(None, base, self.params, g)
        b = evaluate_plan(None, more, self.params, g)
        assert b.covered >= a.covered

    def test_exact_ratio(self):
        report = evaluate_plan(None, plan_of(1, (1, 1)), self.params, GridSpec(3, 3))
        assert report.coverage_ratio == Fraction(4, 9)

    def test_ledger_replays_in_iteration_then_node_order(self):
        # (iteration, node) order: node 2's first cell before node 1's second
        plan = MobilePlan(2, 2, {
            (1, 1): Cell(1, 1), (1, 2): Cell(1, 7), (2, 1): Cell(1, 4), (2, 2): Cell(1, 4),
        })
        report = evaluate_plan(None, plan, self.params, GridSpec(1, 7))
        assert report.ledger == (0, 2, 5, 7, 7)
        assert report.movements == 4
        assert report.movements_trimmed == 3
        assert report.movements_to(Fraction(5, 7)) == 2
        assert report.movements_to(1) == 3


class TestCoverageLedger:
    """The report's movement counts against the separate replays they
    replaced (`tests/oracles.py`)."""

    params = SensorParams(r_s=1)

    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        r_s=st.integers(0, 2),
        # a coverage target lies in (0, 1]; the row's only int target is 1
        target=st.one_of(
            st.just(1),
            st.floats(0, 1, exclude_min=True),
            st.fractions(0, 1, max_denominator=40).filter(bool),
            st.fractions(0, 1, max_denominator=40).filter(bool).map(str),
        ),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_counts_match_the_reference_replays(self, rows, cols, r_s, target, data):
        grid = GridSpec(rows, cols)
        params = SensorParams(r_s)
        cell = st.builds(Cell, st.integers(1, rows), st.integers(1, cols))
        static = data.draw(st.lists(cell, max_size=3))
        deployment = static_deployment(grid, static, r_s, 4.0) if static else None
        plan = None
        if data.draw(st.booleans()):
            n_mobile, horizon = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
            # a missing key is a stopped node; the keys come in drawn order
            keys = data.draw(st.lists(
                st.tuples(st.integers(1, n_mobile), st.integers(1, horizon)), unique=True))
            plan = MobilePlan(n_mobile, horizon, {key: data.draw(cell) for key in keys})

        report = evaluate_plan(deployment, plan, params, grid)
        assert report.movements_trimmed == oracles.trimmed_movements(plan, deployment, params, grid)
        assert report.movements_to(target) == oracles.movements_to_target(
            plan, deployment, params, grid, target)

    def test_no_plan(self):
        grid = GridSpec(3, 3)
        full = static_deployment(grid, [Cell(2, 2)], 1, 4.0)
        corner = static_deployment(grid, [Cell(1, 1)], 1, 4.0)
        assert evaluate_plan(full, None, self.params, grid).movements_to(1) == 0
        assert evaluate_plan(corner, None, self.params, grid).movements_to(1) is None
        assert evaluate_plan(corner, None, self.params, grid).movements_to("4/9") == 0
        assert evaluate_plan(None, None, self.params, grid).movements_to(1) is None
        assert evaluate_plan(corner, None, self.params, grid).movements_trimmed == 0
