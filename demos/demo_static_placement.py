"""Static placement walkthrough: exact MILP vs random deployment.

Places five static nodes on an 8x8 grid with the boundary-weighted
placement MILP, prints the covered region, and contrasts it with a seeded
uniform-random deployment.
"""

import numpy as np

from gridcover import GridSpec, build_milp_static, decode_static, solve_milp
from gridcover.bnb import SolveParams
from gridcover.harness import (
    ExperimentConfig,
    pack_static_positions,
    place_static_random,
)
from gridcover.formulations import encode_static


def show(grid, covered, positions):
    art = np.full((grid.rows, grid.cols), ".", dtype=object)
    for c in covered:
        art[c.i - 1][c.j - 1] = "#"
    for p in positions:
        art[p.i - 1][p.j - 1] = "S"
    for row in art:
        print(" ".join(row))


def main():
    grid = GridSpec(8, 8)
    handle = build_milp_static(grid, n_static=5, r_s=1, c_o=1, boundary_weight=4)

    # warm-start the exact solve with a packing search, then prove/improve
    warm = encode_static(handle, pack_static_positions(handle))
    result = solve_milp(
        handle.instance,
        SolveParams(time_limit=120),
        warm_start=warm,
    )
    deployment = decode_static(handle, result.incumbent)
    print(f"exact placement ({result.status}), objective {result.objective:g}")
    print(f"covers {len(deployment.covered)}/{grid.n_cells} cells:\n")
    show(grid, deployment.covered, deployment.positions)

    config = ExperimentConfig(rows=8, cols=8, n_static=5, placement="random-static",
                              planner="none")
    random_dep = place_static_random(config, seed=1)
    print(f"\nrandom placement covers {len(random_dep.covered)}/{grid.n_cells} cells:\n")
    show(grid, random_dep.covered, random_dep.positions)


if __name__ == "__main__":
    main()
