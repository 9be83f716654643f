"""Command-line interface: static placement, path planning, baselines,
LP-format export, and experiment sweeps.

argparse names, types and defaults every parameter.  A flag's dest is the
`ExperimentConfig` field it sets (--ns n_static, --l n_mobile, --kmax
k_max, --rs r_s, --co-static/--co-mobile c_o_static/c_o_mobile, --alpha
boundary_weight, --cr coverage_target, --gap mip_gap), and a command's
config is `ExperimentConfig(**flags given)`, so its defaults fill the rest
(sensing radius 1, step range 2, overlap cap 1 for placement / 3 for
planning, boundary weight 4, horizon 4, 18000 s limit, zero gap).

A --config file holds `key = value` lines, one per flag (the flag name
without its dashes; `deterministic = true|false`).  They are parsed as
flags placed before the command line's own, so a flag beats the file and
the file beats the default; a key the command has no flag for is a usage
error.  `sweep --axis field=v1,v2,...` casts each value with that field's
flag.  Only the commands that solve (place-static, plan-cov, plan-mov,
sweep) take the solver limits --time-limit, --gap and --node-limit, and
only the ones that plan around a deployment (plan-cov, plan-mov, baseline,
export-lp) take --deployment.  baseline takes no --co-mobile: its planners
have no overlap cap.  No flag or key is taken for a prefix of
another.  A warning prints as `warning: <message>` on stderr.  Exit codes:
0 success, 1 infeasible or limit reached without an incumbent, 2 usage
error.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import fields, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from .formulations import StaticDeployment, build_milp_static
from .harness import (
    PLACEMENTS,
    PLANNERS,
    ExperimentConfig,
    baseline_plan,
    build_mobile_milp,
    deployment_text,
    parse_deployment_text,
    place_static_milp,
    plan_mobile_milp,
    plan_text,
    results_csv,
    run_pipeline,
    sweep,
)
from .grid import evaluate_plan
from .milp import write_lp_text

CONFIG_FIELDS = frozenset(f.name for f in fields(ExperimentConfig))


class UsageError(Exception):
    pass


def _config_file_flags(path: str) -> List[str]:
    """The `key = value` lines of a --config file as `--key=value` flags."""
    flags: List[str] = []
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise UsageError(f"{path}:{ln}: expected key=value, got {raw.strip()!r}")
            flag, value = "--" + key.strip().replace("_", "-"), value.strip()
            if flag != "--deterministic":
                flags.append(f"{flag}={value}")
            elif value not in ("true", "false"):
                raise UsageError(f"{path}:{ln}: deterministic must be true or false, got {value!r}")
            elif value == "true":
                flags.append(flag)
    return flags


def _seed_tuple(text: str) -> Tuple[int, ...]:
    """A comma-separated seed list; an empty item among seeds is an error,
    and a list of nothing but empty items is the empty list."""
    items = text.split(",")
    if any(items) and not all(items):
        raise argparse.ArgumentTypeError(f"item {items.index('') + 1} of {text!r} is empty")
    return tuple(int(s) for s in items if s)


def _add_flags(p: argparse.ArgumentParser, out: str, mobile: bool = False, static: bool = False,
               target: bool = False, solve: bool = False, deployment: bool = False,
               overlap: bool = True) -> List[argparse.Action]:
    """Add a command's shared flags; returns the actions of those that set
    an ExperimentConfig field.  `solve` adds the solver limits, `deployment`
    the --deployment file a path model plans around; `overlap` False leaves
    --co-mobile off the mobile flags."""
    p.add_argument("--config", help="file of key = value lines, read as flags before the command line's")
    p.add_argument("--out", default=out, help=f"output file path (default {out})")
    p.add_argument("--deterministic", action="store_true",
                   help="leave the CSV's wall_time field empty, so sweep files are byte-stable")
    actions = [
        p.add_argument("--rows", type=int, help="grid rows (required)"),
        p.add_argument("--cols", type=int, help="grid columns (required)"),
        p.add_argument("--rs", dest="r_s", type=int, help="sensing radius in cells"),
    ]
    if solve:
        actions += [
            p.add_argument("--time-limit", type=float, help="solver wall-clock limit, seconds"),
            p.add_argument("--gap", dest="mip_gap", type=float, help="relative MIP gap target"),
            p.add_argument("--node-limit", type=int,
                           help="deterministic node-count cap (alternative to --time-limit)"),
        ]
    if deployment:
        p.add_argument("--deployment", help="deployment file from place-static")
    if mobile:
        actions += [
            p.add_argument("--l", dest="n_mobile", type=int, help="number of mobile nodes"),
            p.add_argument("--kmax", dest="k_max", type=int, help="iteration horizon"),
            p.add_argument("--rho-x", type=int, help="per-step row range"),
            p.add_argument("--rho-y", type=int, help="per-step column range"),
        ]
        if overlap:
            actions.append(p.add_argument("--co-mobile", dest="c_o_mobile", type=int,
                                          help="overlap cap for planning"))
    if static:
        actions += [
            p.add_argument("--ns", dest="n_static", type=int, default=1,
                           help="number of static nodes (default 1)"),
            p.add_argument("--co-static", dest="c_o_static", type=int, help="overlap cap for placement"),
            p.add_argument("--alpha", dest="boundary_weight", type=float, help="boundary cell weight"),
        ]
    if target:
        actions.append(p.add_argument("--cr", dest="coverage_target",
                                      help="coverage-ratio target in (0, 1]"))
    return actions


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridcover",
        allow_abbrev=False,
        description="Grid coverage planning: exact placement and path MILPs plus baselines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("place-static", allow_abbrev=False, help="optimal static placement")
    _add_flags(p, "deployment.txt", static=True, solve=True)
    p.set_defaults(run=_cmd_place_static)

    for name, planner, help_text in (("plan-cov", "milp-cov", "coverage-maximizing paths"),
                                     ("plan-mov", "milp-mov", "movement-minimizing paths")):
        p = sub.add_parser(name, allow_abbrev=False, help=help_text)
        _add_flags(p, "plan.txt", mobile=True, target=True, solve=True, deployment=True)
        p.set_defaults(run=partial(_cmd_plan, planner=planner))

    p = sub.add_parser("baseline", allow_abbrev=False, help="greedy or random-movement baseline")
    # the baseline planners have no overlap cap, so no --co-mobile
    _add_flags(p, "plan.txt", mobile=True, deployment=True, overlap=False)
    p.add_argument("--method", choices=["greedy", "random"], required=True)
    p.add_argument("--seed", type=int, default=0, help="baseline RNG seed (default 0)")
    p.set_defaults(run=_cmd_baseline)

    p = sub.add_parser("export-lp", allow_abbrev=False, help="write a formulation as LP text without solving")
    _add_flags(p, "model.lp", mobile=True, static=True, target=True, deployment=True)
    p.add_argument("--formulation", choices=["static", "cov", "mov"], required=True)
    p.set_defaults(run=_cmd_export_lp)

    p = sub.add_parser("sweep", allow_abbrev=False, help="cartesian experiment sweep, CSV output")
    actions = _add_flags(p, "results.csv", mobile=True, static=True, target=True, solve=True) + [
        p.add_argument("--placement", choices=PLACEMENTS,
                       help="default milp-static, or none with --ns 0"),
        p.add_argument("--planner", choices=PLANNERS),
        p.add_argument("--seeds", type=_seed_tuple, help="comma-separated seed list"),
    ]
    p.add_argument("--axis", action="append", default=[],
                   help="sweep axis as field=v1,v2,... (repeatable)")
    p.set_defaults(run=partial(_cmd_sweep, axis_flags={a.dest: a for a in actions}))
    return parser


def _config(args: argparse.Namespace, **fixed) -> ExperimentConfig:
    """The config of the flags given, with `fixed` on top of them."""
    if args.rows is None or args.cols is None:
        raise UsageError("--rows and --cols are required")
    given = {k: v for k, v in vars(args).items() if k in CONFIG_FIELDS and v is not None}
    return ExperimentConfig(**{**given, **fixed})


def _planning_config(
    args: argparse.Namespace, **fixed
) -> Tuple[ExperimentConfig, Optional[StaticDeployment]]:
    """The config of a path-planning command and the --deployment it plans
    around (None without one)."""
    config = _config(args, placement="none", n_static=0, **fixed)
    if not args.deployment:
        return config, None
    with open(args.deployment) as fh:
        deployment = parse_deployment_text(fh.read(), config.grid, config.r_s, config.boundary_weight)
    return replace(config, placement="milp-static", n_static=len(deployment.positions)), deployment


def _write(path: str, content: str) -> None:
    with open(path, "w") as fh:
        fh.write(content)


def _cmd_place_static(args) -> int:
    if args.n_static < 1:
        raise UsageError("--ns must be >= 1")
    config = _config(args)
    deployment, result = place_static_milp(config)
    if deployment is None:
        print(f"static placement {result.status}: no deployment", file=sys.stderr)
        return 1
    _write(args.out, deployment_text(deployment))
    placed = " ".join(f"({p.i},{p.j})" for p in deployment.positions)
    print(f"deployment: {placed}")
    print(f"objective: {deployment.objective_value:g} ({result.status}, "
          f"{len(deployment.covered)}/{config.grid.n_cells} cells covered)")
    print(f"wrote {args.out}")
    return 0


def _cmd_plan(args, planner: str) -> int:
    config, deployment = _planning_config(args, planner=planner)
    handle, plan, result = plan_mobile_milp(config, deployment)
    if handle.nothing_to_plan:
        _write(args.out, "")
        print("nothing to plan: every cell is already covered")
        return 0
    if plan is None:
        hint = " (increase --kmax or --l)" if result.status == "infeasible" and planner == "milp-mov" else ""
        print(f"solver status {result.status}: no plan{hint}", file=sys.stderr)
        return 1
    _write(args.out, plan_text(plan))
    report = evaluate_plan(deployment, plan, config.sensor_params, config.grid)
    print(f"coverage: {report.coverage_pct:.2f}% ({report.covered_count}/{report.total_cells} cells)")
    to_target = report.movements_to(config.coverage_target)
    to_target = "target not reached" if to_target is None else f"{to_target} to target"
    print(f"movements: {report.movements} raw, {report.movements_trimmed} trimmed, {to_target}")
    bound = "none" if result.best_bound is None else f"{result.best_bound:g}"  # stopped before the root LP
    print(f"solver: {result.status}, objective {result.objective:g}, bound {bound}")
    print(f"wrote {args.out}")
    return 0


def _cmd_baseline(args) -> int:
    config, deployment = _planning_config(args, planner=args.method)
    plan = baseline_plan(config, deployment, args.seed)
    _write(args.out, plan_text(plan))
    report = evaluate_plan(deployment, plan, config.sensor_params, config.grid)
    print(f"coverage: {report.coverage_pct:.2f}% ({report.covered_count}/{report.total_cells} cells); "
          f"movements: {report.movements}")
    print(f"wrote {args.out}")
    return 0


def _cmd_export_lp(args) -> int:
    if args.formulation == "static":
        config = _config(args, planner="none")  # the path flags play no part
        handle = build_milp_static(config.grid, config.n_static, config.r_s,
                                   config.c_o_static, config.boundary_weight)
    else:
        # --ns belongs to the static formulation; the path models take the
        # static count from --deployment
        handle = build_mobile_milp(*_planning_config(args, planner="milp-" + args.formulation))
    _write(args.out, write_lp_text(handle.instance))
    print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args, axis_flags: Dict[str, argparse.Action]) -> int:
    placement = args.placement or ("milp-static" if args.n_static else "none")
    base = _config(args, placement=placement, n_static=0 if placement == "none" else args.n_static)
    axes: Dict[str, List] = {}
    for spec_text in args.axis:
        name, sep, values = spec_text.partition("=")
        name = name.strip().replace("-", "_")
        if not sep:
            raise UsageError(f"--axis expects field=v1,v2,..., got {spec_text!r}")
        if name not in axis_flags:
            raise UsageError(f"unknown sweep axis {name!r}")
        flag = axis_flags[name]
        axes[name] = [(flag.type or str)(v) for v in values.split(",")]
        for value in axes[name]:
            if flag.choices is not None and value not in flag.choices:
                raise UsageError(f"--axis {name}: invalid choice {value!r} "
                                 f"(choose from {', '.join(flag.choices)})")
    rows = sweep(base, axes) if axes else run_pipeline(base)
    _write(args.out, results_csv(rows, deterministic=args.deterministic))
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """A warning as the command line shows it: its message, without the
    source path and line that Python's default adds."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    config_flag = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    config_flag.add_argument("--config")
    try:
        path = config_flag.parse_known_args(argv)[0].config
        if path:
            # the file's flags go right after the command, before the user's
            argv = argv[:1] + _config_file_flags(path) + argv[1:]
        args = build_parser().parse_args(argv)
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.run(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
