"""Command-line interface: static placement, path planning, baselines,
LP-format export, and experiment sweeps.

Flags not given on the command line fall back to an optional key=value
config file (--config), then to the built-in defaults (sensing radius 1,
step range 2, overlap cap 1 for placement / 3 for planning, boundary
weight 4, horizon 4, 18000 s limit, zero gap).  Exit codes: 0 success,
1 infeasible or limit reached without an incumbent, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from typing import Dict, List, Optional, Sequence

from .formulations import build_milp_cov, build_milp_mov, build_milp_static
from .grid import GridSpec
from .harness import (
    ExperimentConfig,
    deployment_text,
    parse_deployment_text,
    plan_text,
    results_csv,
    run_pipeline,
    sweep,
)
from .milp import write_lp_text

DEFAULTS: Dict[str, object] = {
    "ns": 1,
    "l": 1,
    "kmax": 4,
    "rs": 1,
    "rho_x": 2,
    "rho_y": 2,
    "co_static": 1,
    "co_mobile": 3,
    "alpha": 4.0,
    "cr": "1",
    "seed": 0,
    "seeds": "0",
    "time_limit": 18000.0,
    "gap": 0.0,
    "node_limit": None,
    "threads": None,
    "backend": "embedded",
}

_TYPES = {
    "rows": int, "cols": int, "ns": int, "l": int, "kmax": int, "rs": int,
    "rho_x": int, "rho_y": int, "co_static": int, "co_mobile": int,
    "alpha": float, "cr": str, "seed": int, "seeds": str,
    "time_limit": float, "gap": float, "node_limit": int, "threads": int,
    "backend": str, "method": str, "formulation": str,
}


class UsageError(Exception):
    pass


def _read_config_file(path: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{ln}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _merged(args: argparse.Namespace, key: str):
    """CLI flag > config file > built-in default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    file_cfg: Dict[str, str] = getattr(args, "_file_cfg", {})
    if key in file_cfg:
        caster = _TYPES.get(key, str)
        return caster(file_cfg[key])
    return DEFAULTS.get(key)


def _add_common(p: argparse.ArgumentParser, mobile: bool) -> None:
    p.add_argument("--config", help="key=value file supplying flag defaults")
    p.add_argument("--rows", type=int, help="grid rows (required)")
    p.add_argument("--cols", type=int, help="grid columns (required)")
    p.add_argument("--rs", type=int, help="sensing radius in cells")
    p.add_argument("--time-limit", dest="time_limit", type=float, help="solver wall-clock limit, seconds")
    p.add_argument("--gap", type=float, help="relative MIP gap target")
    p.add_argument("--node-limit", dest="node_limit", type=int,
                   help="deterministic node-count cap (alternative to --time-limit)")
    p.add_argument("--deterministic", action="store_true", default=None,
                   help="leave the CSV's wall_time field empty, so sweep files are byte-stable")
    p.add_argument("--threads", type=int,
                   help="reserved; the embedded solver is single-threaded "
                        "(default from GRIDCOVER_THREADS)")
    p.add_argument("--out", help="output file path")
    if mobile:
        p.add_argument("--l", type=int, help="number of mobile nodes")
        p.add_argument("--kmax", type=int, help="iteration horizon")
        p.add_argument("--rho-x", dest="rho_x", type=int, help="per-step row range")
        p.add_argument("--rho-y", dest="rho_y", type=int, help="per-step column range")
        p.add_argument("--co-mobile", dest="co_mobile", type=int, help="overlap cap for planning")
        p.add_argument("--deployment", help="deployment file from place-static")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridcover",
        description="Grid coverage planning: exact placement and path MILPs plus baselines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("place-static", help="optimal static placement")
    _add_common(p, mobile=False)
    p.add_argument("--ns", type=int, help="number of static nodes (>= 1)")
    p.add_argument("--co-static", dest="co_static", type=int, help="overlap cap for placement")
    p.add_argument("--alpha", type=float, help="boundary cell weight")
    p.add_argument("--backend", choices=["embedded", "export-lp"],
                   help="solve in-process or only write the LP file")

    for name, help_text in (("plan-cov", "coverage-maximizing paths"),
                            ("plan-mov", "movement-minimizing paths")):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, mobile=True)
        p.add_argument("--cr", help="coverage-ratio target in (0, 1] (plan-mov)")
        p.add_argument("--backend", choices=["embedded", "export-lp"])

    p = sub.add_parser("baseline", help="greedy or random-movement baseline")
    _add_common(p, mobile=True)
    p.add_argument("--method", choices=["greedy", "random"], required=True)
    p.add_argument("--seed", type=int, help="baseline RNG seed")

    p = sub.add_parser("export-lp", help="write a formulation as LP text without solving")
    _add_common(p, mobile=True)
    p.add_argument("--formulation", choices=["static", "cov", "mov"], required=True)
    p.add_argument("--ns", type=int, help="number of static nodes (static formulation)")
    p.add_argument("--co-static", dest="co_static", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--cr", help="coverage-ratio target (mov formulation)")

    p = sub.add_parser("sweep", help="cartesian experiment sweep, CSV output")
    _add_common(p, mobile=True)
    p.add_argument("--ns", type=int)
    p.add_argument("--co-static", dest="co_static", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--cr", help="coverage-ratio target")
    p.add_argument("--placement", choices=["milp-static", "random-static", "none"])
    p.add_argument("--planner", choices=["milp-cov", "milp-mov", "greedy", "random"])
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--axis", action="append", default=[],
                   help="sweep axis as field=v1,v2,... (repeatable)")
    return parser


def _require_grid(args) -> GridSpec:
    rows, cols = _merged(args, "rows"), _merged(args, "cols")
    if rows is None or cols is None:
        raise UsageError("--rows and --cols are required")
    return GridSpec(int(rows), int(cols))


def _experiment_config(args, placement: str, planner: str, seeds,
                       n_static_override: Optional[int] = None) -> ExperimentConfig:
    if placement == "none":
        n_static = 0
    elif n_static_override is not None:
        n_static = n_static_override
    else:
        n_static = int(_merged(args, "ns"))
    return ExperimentConfig(
        rows=int(_merged(args, "rows")),
        cols=int(_merged(args, "cols")),
        n_static=n_static,
        n_mobile=int(_merged(args, "l")),
        k_max=int(_merged(args, "kmax")),
        r_s=int(_merged(args, "rs")),
        rho_x=int(_merged(args, "rho_x")),
        rho_y=int(_merged(args, "rho_y")),
        c_o_static=int(_merged(args, "co_static")),
        c_o_mobile=int(_merged(args, "co_mobile")),
        boundary_weight=float(_merged(args, "alpha")),
        coverage_target=str(_merged(args, "cr")),
        placement=placement,
        planner=planner,
        seeds=tuple(seeds),
        time_limit=float(_merged(args, "time_limit")),
        mip_gap=float(_merged(args, "gap")),
        node_limit=_merged(args, "node_limit"),
    )


def _load_deployment(args, grid: GridSpec):
    path = getattr(args, "deployment", None)
    if not path:
        return None
    with open(path) as fh:
        return parse_deployment_text(
            fh.read(), grid, int(_merged(args, "rs")), float(_merged(args, "alpha") or 4.0)
        )


def _write(path: str, content: str) -> None:
    with open(path, "w") as fh:
        fh.write(content)


def _cmd_place_static(args) -> int:
    grid = _require_grid(args)
    ns = int(_merged(args, "ns"))
    if ns < 1:
        raise UsageError("--ns must be >= 1")
    if _merged(args, "backend") == "export-lp":
        handle = build_milp_static(grid, ns, int(_merged(args, "rs")),
                                   int(_merged(args, "co_static")), float(_merged(args, "alpha")))
        out = _merged(args, "out") or "model.lp"
        _write(out, write_lp_text(handle.instance))
        print(f"wrote {out}")
        return 0
    config = _experiment_config(args, "milp-static", "none", (0,))
    from .harness import place_static_milp

    deployment, result = place_static_milp(config)
    if deployment is None:
        print(f"static placement {result.status}: no deployment", file=sys.stderr)
        return 1
    out = _merged(args, "out") or "deployment.txt"
    _write(out, deployment_text(deployment))
    placed = " ".join(f"({p.i},{p.j})" for p in deployment.positions)
    print(f"deployment: {placed}")
    print(f"objective: {deployment.objective_value:g} ({result.status}, "
          f"{len(deployment.covered)}/{grid.n_cells} cells covered)")
    print(f"wrote {out}")
    return 0


def _cmd_plan(args, planner: str) -> int:
    grid = _require_grid(args)
    deployment = _load_deployment(args, grid)
    if _merged(args, "backend") == "export-lp":
        return _cmd_export_lp(args, forced="cov" if planner == "milp-cov" else "mov")
    config = _experiment_config(
        args, "none" if deployment is None else "milp-static", planner,
        (int(_merged(args, "seed") or 0),),
        n_static_override=len(deployment.positions) if deployment else None,
    )

    from .harness import plan_mobile_milp, self_describing_row

    handle, plan, result = plan_mobile_milp(config, deployment)
    if handle.nothing_to_plan:
        out = _merged(args, "out") or "plan.txt"
        _write(out, "")
        print("nothing to plan: every cell is already covered")
        return 0
    if plan is None:
        hint = " (increase --kmax or --l)" if result.status == "infeasible" and planner == "milp-mov" else ""
        print(f"solver status {result.status}: no plan{hint}", file=sys.stderr)
        return 1
    out = _merged(args, "out") or "plan.txt"
    _write(out, plan_text(plan))
    row = self_describing_row(config, 0, deployment, plan, result.status,
                              result.objective, result.best_bound, result.gap, 0.0)
    print(f"coverage: {row.coverage_pct:.2f}% ({row.covered_cells}/{row.total_cells} cells)")
    print(f"movements: {row.movements_raw} raw, {row.movements_trimmed} trimmed, "
          f"{row.movements_to_target if row.movements_to_target is not None else 'target not reached'} to target")
    print(f"solver: {result.status}, objective {result.objective:g}, bound {result.best_bound:g}")
    print(f"wrote {out}")
    return 0


def _cmd_baseline(args) -> int:
    grid = _require_grid(args)
    deployment = _load_deployment(args, grid)
    seed = int(_merged(args, "seed") or 0)
    config = _experiment_config(
        args, "none" if deployment is None else "milp-static", args.method, (seed,),
        n_static_override=len(deployment.positions) if deployment else None,
    )
    from .planners import greedy_plan, random_plan
    from .harness import _baseline_cfg, self_describing_row

    fn = greedy_plan if args.method == "greedy" else random_plan
    plan = fn(grid, deployment, _baseline_cfg(config, seed))
    out = _merged(args, "out") or "plan.txt"
    _write(out, plan_text(plan))
    row = self_describing_row(config, seed, deployment, plan, "ok", None, None, None, 0.0)
    print(f"coverage: {row.coverage_pct:.2f}% ({row.covered_cells}/{row.total_cells} cells); "
          f"movements: {row.movements_raw}")
    print(f"wrote {out}")
    return 0


def _cmd_export_lp(args, forced: Optional[str] = None) -> int:
    grid = _require_grid(args)
    kind = forced or args.formulation
    if kind == "static":
        handle = build_milp_static(grid, int(_merged(args, "ns")), int(_merged(args, "rs")),
                                   int(_merged(args, "co_static")), float(_merged(args, "alpha")))
    else:
        deployment = _load_deployment(args, grid)
        covered = set(deployment.covered) if deployment else set()
        uncovered = sorted(set(grid.cells()) - covered)
        if kind == "cov":
            handle = build_milp_cov(grid, uncovered, int(_merged(args, "l")), int(_merged(args, "kmax")),
                                    int(_merged(args, "rs")), int(_merged(args, "rho_x")),
                                    int(_merged(args, "rho_y")), int(_merged(args, "co_mobile")))
        else:
            handle = build_milp_mov(grid, uncovered, len(covered), int(_merged(args, "l")),
                                    int(_merged(args, "kmax")), int(_merged(args, "rs")),
                                    int(_merged(args, "rho_x")), int(_merged(args, "rho_y")),
                                    int(_merged(args, "co_mobile")), coverage_target=str(_merged(args, "cr")))
    out = _merged(args, "out") or "model.lp"
    _write(out, write_lp_text(handle.instance))
    print(f"wrote {out}")
    return 0


def _cmd_sweep(args) -> int:
    _require_grid(args)
    seeds = tuple(int(s) for s in str(_merged(args, "seeds")).split(",") if s != "")
    placement = getattr(args, "placement", None) or ("milp-static" if int(_merged(args, "ns")) else "none")
    planner = getattr(args, "planner", None) or "milp-cov"
    base = _experiment_config(args, placement, planner, seeds)
    axes: Dict[str, List] = {}
    valid_fields = {f.name for f in fields(ExperimentConfig)}
    for spec_text in args.axis:
        if "=" not in spec_text:
            raise UsageError(f"--axis expects field=v1,v2,..., got {spec_text!r}")
        name, values = spec_text.split("=", 1)
        name = name.strip().replace("-", "_")
        if name not in valid_fields:
            raise UsageError(f"unknown sweep axis {name!r}")
        caster = type(getattr(base, name))
        axes[name] = [caster(v) for v in values.split(",")]
    rows = sweep(base, axes) if axes else run_pipeline(base)
    out = _merged(args, "out") or "results.csv"
    _write(out, results_csv(rows, deterministic=bool(_merged(args, "deterministic"))))
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg_path = getattr(args, "config", None)
        args._file_cfg = _read_config_file(cfg_path) if cfg_path else {}
        if args.threads is None and os.environ.get("GRIDCOVER_THREADS"):
            args.threads = int(os.environ["GRIDCOVER_THREADS"])
        if args.threads is not None and args.threads < 1:
            raise UsageError("--threads must be >= 1")

        if args.command == "place-static":
            return _cmd_place_static(args)
        if args.command == "plan-cov":
            return _cmd_plan(args, "milp-cov")
        if args.command == "plan-mov":
            return _cmd_plan(args, "milp-mov")
        if args.command == "baseline":
            return _cmd_baseline(args)
        if args.command == "export-lp":
            return _cmd_export_lp(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
