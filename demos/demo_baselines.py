"""Exact planner vs greedy and random-movement baselines.

Runs the full pipeline on a 10x10 grid with five optimally-placed static
nodes and compares mean coverage over several seeds.
"""

from gridcover.harness import ExperimentConfig, results_csv, run_pipeline


def main():
    seeds = (0, 1, 2, 3, 4)
    base = dict(rows=10, cols=10, n_static=5, n_mobile=3, k_max=4,
                placement="milp-static")

    rows = []
    cov_cfg = ExperimentConfig(planner="milp-cov", seeds=(0,),
                               time_limit=120, node_limit=4, **base)
    rows += run_pipeline(cov_cfg)
    for planner in ("greedy", "random"):
        rows += run_pipeline(ExperimentConfig(planner=planner, seeds=seeds, **base))

    print(f"{'planner':<10} {'seed':>4} {'coverage %':>10} {'movements':>9}")
    for row in rows:
        print(f"{row.config.planner:<10} {row.seed:>4} {row.coverage_pct:>10.2f} {row.movements_raw:>9}")

    by_planner = {}
    for row in rows:
        by_planner.setdefault(row.config.planner, []).append(row.coverage_pct)
    print()
    for planner, values in by_planner.items():
        print(f"mean {planner}: {sum(values) / len(values):.2f}%")

    with open("baseline_results.csv", "w") as fh:
        fh.write(results_csv(rows, deterministic=True))
    print("\nwrote baseline_results.csv")


if __name__ == "__main__":
    main()
