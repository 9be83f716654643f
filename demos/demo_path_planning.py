"""Mobile path planning walkthrough: coverage maximization then movement
minimization over the cells a static deployment leaves uncovered.
"""

from types import SimpleNamespace

from gridcover import (
    GridSpec,
    SensorParams,
    build_milp_cov,
    build_milp_mov,
    decode_plan,
    evaluate_plan,
    solve_milp,
    static_coverage,
)
from gridcover.grid import Cell


def print_plan(plan):
    for l in range(1, plan.n_mobile + 1):
        path = [plan.positions.get((l, k)) for k in range(1, plan.horizon + 1)]
        steps = " -> ".join("stop" if p is None else f"({p.i},{p.j})" for p in path)
        print(f"  node {l}: {steps}")


def main():
    grid = GridSpec(6, 6)
    covered, uncovered = static_coverage([Cell(2, 2), Cell(5, 5)], 1, grid)
    print(f"static nodes cover {len(covered)}/{grid.n_cells}; "
          f"{len(uncovered)} cells left for the mobiles\n")
    params = SensorParams(r_s=1)
    deployment = SimpleNamespace(covered=frozenset(covered))

    # maximize coverage within 3 iterations
    cov = build_milp_cov(grid, sorted(uncovered), n_mobile=1, k_max=3)
    res = solve_milp(cov.instance)
    plan = decode_plan(cov, res.incumbent)
    report = evaluate_plan(deployment, plan, params, grid)
    print(f"coverage-maximizing plan ({res.status}, objective {res.objective:g}):")
    print_plan(plan)
    print(f"  -> total coverage {report.coverage_pct:.1f}%\n")

    # reach 90% total coverage with as few movements as possible
    mov = build_milp_mov(grid, sorted(uncovered), len(covered), n_mobile=1,
                         k_max=3, coverage_target="0.9")
    res = solve_milp(mov.instance)
    plan = decode_plan(mov, res.incumbent)
    report = evaluate_plan(deployment, plan, params, grid)
    print(f"movement-minimizing plan for a 90% target ({res.status}):")
    print_plan(plan)
    print(f"  -> {report.movements} movements, coverage {report.coverage_pct:.1f}%")


if __name__ == "__main__":
    main()
