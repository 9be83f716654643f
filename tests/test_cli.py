"""Command-line interface: subcommands, files, exit codes."""

import csv
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import gridcover.cli
import gridcover.harness
from gridcover.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


SMALL_SWEEP = ["sweep", "--rows", "4", "--cols", "4", "--l", "1", "--kmax", "2"]


class TestPlaceStatic:
    def test_3x3_center(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "deployment.txt"
        code, stdout, _ = run(
            ["place-static", "--rows", "3", "--cols", "3", "--ns", "1",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "(2,2)" in stdout
        assert "33" in stdout
        assert out.read_text() == "1 2 2\n"

    def test_zero_nodes_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            ["place-static", "--rows", "3", "--cols", "3", "--ns", "0",
             "--out", str(tmp_path / "d.txt")],
            capsys,
        )
        assert code == 2
        assert "--ns" in err

    def test_missing_grid_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(["place-static", "--ns", "1"], capsys)
        assert code == 2
        assert "--rows" in err

    def test_negative_sensing_radius_exits_two(self, tmp_path, capsys):
        out = tmp_path / "d.txt"
        code, stdout, err = run(["place-static", "--rows", "4", "--cols", "4", "--rs", "-1",
                                 "--out", str(out)], capsys)
        assert (code, stdout, err) == (2, "", "error: sensing radius must be >= 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", [
        ["place-static"], ["export-lp", "--formulation", "static"],
        ["export-lp", "--formulation", "cov", "--l", "1", "--kmax", "2"],
        ["sweep", "--planner", "greedy", "--l", "1", "--kmax", "2"],
    ], ids=["place-static", "export-static", "export-cov", "sweep"])
    def test_non_finite_boundary_weight_exits_two(self, tmp_path, capsys, monkeypatch,
                                                  command, alpha):
        calls = []
        monkeypatch.setattr(gridcover.harness, "run_pipeline", lambda cfg: calls.append(cfg) or [])
        out = tmp_path / "out.txt"
        code, stdout, err = run(command + ["--rows", "4", "--cols", "4", "--ns", "1",
                                           f"--alpha={alpha}", "--out", str(out)], capsys)
        assert (code, stdout, err) == (2, "", "error: boundary_weight must be finite\n")
        assert calls == []
        assert not out.exists()

    def test_infeasible_exits_one(self, tmp_path, capsys):
        # two disjoint footprints cannot fit on 3x3
        code, _, err = run(
            ["place-static", "--rows", "3", "--cols", "3", "--ns", "2",
             "--out", str(tmp_path / "d.txt")],
            capsys,
        )
        assert code == 1
        assert "infeasible" in err


class TestPlanCommands:
    def test_place_then_plan_cov_full_coverage(self, tmp_path, capsys):
        deployment = tmp_path / "deployment.txt"
        plan = tmp_path / "plan.txt"
        code, _, _ = run(
            ["place-static", "--rows", "8", "--cols", "8", "--ns", "5",
             "--out", str(deployment)],
            capsys,
        )
        assert code == 0
        code, stdout, _ = run(
            ["plan-cov", "--rows", "8", "--cols", "8", "--l", "1", "--kmax", "4",
             "--deployment", str(deployment), "--out", str(plan)],
            capsys,
        )
        assert code == 0
        assert "coverage: 100.00%" in stdout
        assert plan.read_text().strip() != ""

    def test_step_warning_prints_its_message_only(self, tmp_path, capsys):
        # the node at (2, 4) splits the 3x7 grid's uncovered set into two
        # halves no single step bridges
        deployment = tmp_path / "deployment.txt"
        deployment.write_text("1 2 4\n")
        code, _, err = run(
            ["plan-cov", "--rows", "3", "--cols", "7", "--l", "1", "--kmax", "2",
             "--rho-x", "1", "--rho-y", "1", "--deployment", str(deployment),
             "--out", str(tmp_path / "plan.txt")],
            capsys,
        )
        assert code == 0
        assert err == (
            "warning: uncovered set splits into step-unreachable components; "
            "single-node plans cannot cover all of it\n"
        )

    def test_plan_mov_5x5_four_movements(self, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        code, stdout, _ = run(
            ["plan-mov", "--rows", "5", "--cols", "5", "--l", "1", "--cr", "1",
             "--kmax", "4", "--out", str(plan)],
            capsys,
        )
        assert code == 0
        assert "movements: 4 raw" in stdout
        assert len(plan.read_text().splitlines()) == 4

    def test_plan_mov_infeasible_hint(self, tmp_path, capsys):
        code, _, err = run(
            ["plan-mov", "--rows", "5", "--cols", "5", "--l", "1", "--cr", "1",
             "--kmax", "1", "--out", str(tmp_path / "p.txt")],
            capsys,
        )
        assert code == 1
        assert "increase" in err

    @pytest.mark.parametrize("command, kmax", [("plan-cov", "2"), ("plan-mov", "4")])
    def test_search_stopped_before_the_root_lp_prints_no_bound(self, tmp_path, capsys, command, kmax):
        # with no node allowed the plan is the warm start, and no LP bound exists
        plan = tmp_path / "plan.txt"
        code, stdout, _ = run(
            [command, "--rows", "6", "--cols", "6", "--l", "2", "--kmax", kmax,
             "--node-limit", "0", "--out", str(plan)],
            capsys,
        )
        assert code == 0
        assert "bound none" in stdout
        assert plan.read_text().strip() != ""

    @pytest.mark.parametrize("flag, message", [
        ("--time-limit", "time_limit must be positive"), ("--gap", "mip_gap must be >= 0"),
    ])
    def test_nan_solver_limit_exits_two(self, tmp_path, capsys, flag, message):
        # a NaN limit never trips, so it would mean no limit at all
        plan = tmp_path / "plan.txt"
        code, stdout, err = run(
            ["plan-cov", "--rows", "5", "--cols", "5", "--l", "1", "--kmax", "2",
             flag, "nan", "--out", str(plan)],
            capsys,
        )
        assert (code, stdout, err) == (2, "", f"error: {message}\n")
        assert not plan.exists()

    def test_negative_node_limit_exits_two(self, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        code, stdout, err = run(
            ["plan-cov", "--rows", "6", "--cols", "6", "--l", "1", "--kmax", "3",
             "--node-limit", "-3", "--out", str(plan)],
            capsys,
        )
        assert (code, stdout, err) == (2, "", "error: node_limit must be >= 0\n")
        assert not plan.exists()

    def test_plan_short_of_the_target_says_so_once(self, tmp_path, capsys):
        # one node for two iterations covers 17 of 36 cells, short of the default full target
        code, stdout, _ = run(
            ["plan-cov", "--rows", "6", "--cols", "6", "--l", "1", "--kmax", "2",
             "--node-limit", "0", "--out", str(tmp_path / "plan.txt")],
            capsys,
        )
        assert code == 0
        assert "movements: 2 raw, 2 trimmed, target not reached\n" in stdout

    def test_repeated_deployment_node_exits_two(self, tmp_path, capsys):
        deployment = tmp_path / "deployment.txt"
        deployment.write_text("1 2 2\n1 5 5\n")
        code, _, err = run(
            ["plan-cov", "--rows", "6", "--cols", "6", "--l", "1", "--kmax", "2",
             "--deployment", str(deployment), "--out", str(tmp_path / "p.txt")],
            capsys,
        )
        assert code == 2
        assert "deployment line 2" in err

    @pytest.mark.parametrize("text, message", [
        ("", "deployment lists no static node"),
        ("1 2 2\n3 5 5\n", "deployment nodes must be numbered 1..N"),
        ("0 2 2\n-4 5 5\n", "deployment nodes must be numbered 1..N"),
    ], ids=["empty", "gap", "zero-and-negative"])
    def test_misnumbered_deployment_exits_two(self, tmp_path, capsys, text, message):
        deployment, plan = tmp_path / "deployment.txt", tmp_path / "plan.txt"
        deployment.write_text(text)
        code, stdout, err = run(
            ["plan-cov", "--rows", "6", "--cols", "6", "--l", "1", "--kmax", "2",
             "--deployment", str(deployment), "--out", str(plan)],
            capsys,
        )
        assert (code, stdout, err) == (2, "", f"error: {message}\n")
        assert not plan.exists()

    @pytest.mark.parametrize("target, message", [("-1", "must lie in"), ("abc", "abc")])
    def test_coverage_target_outside_the_range_exits_two(self, tmp_path, capsys, target, message):
        # checked with the config, before anything is solved or written
        plan = tmp_path / "plan.txt"
        code, stdout, err = run(
            ["plan-cov", "--rows", "3", "--cols", "3", "--l", "1", "--kmax", "1",
             "--cr", target, "--out", str(plan)],
            capsys,
        )
        assert code == 2
        assert message in err and stdout == ""
        assert not plan.exists()

    def test_plan_cov_nothing_to_plan(self, tmp_path, capsys):
        deployment = tmp_path / "deployment.txt"
        deployment.write_text("1 2 2\n")
        plan = tmp_path / "plan.txt"
        code, stdout, _ = run(
            ["plan-cov", "--rows", "3", "--cols", "3", "--l", "1", "--kmax", "2",
             "--deployment", str(deployment), "--out", str(plan)],
            capsys,
        )
        assert code == 0
        assert "nothing to plan" in stdout
        assert plan.read_text() == ""


class TestBaseline:
    def test_random_seed_reproducible_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            code, _, _ = run(
                ["baseline", "--method", "random", "--seed", "7",
                 "--rows", "6", "--cols", "6", "--l", "2", "--kmax", "5",
                 "--out", str(out)],
                capsys,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_greedy_summary(self, tmp_path, capsys):
        code, stdout, _ = run(
            ["baseline", "--method", "greedy", "--seed", "1",
             "--rows", "5", "--cols", "5", "--l", "1", "--kmax", "3",
             "--out", str(tmp_path / "p.txt")],
            capsys,
        )
        assert code == 0
        assert "coverage:" in stdout and "movements: 3" in stdout


    @pytest.mark.parametrize("flag", [["--time-limit", "-5"], ["--gap", "-1"], ["--node-limit", "0"]])
    def test_solver_limit_exits_two(self, tmp_path, capsys, flag):
        # a baseline solves nothing, so it takes no solver limit
        out = tmp_path / "p.txt"
        with pytest.raises(SystemExit) as exc:
            main(["baseline", "--method", "greedy", "--rows", "4", "--cols", "4",
                  "--out", str(out)] + flag)
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("given", ["flag", "key"])
    def test_overlap_cap_exits_two(self, tmp_path, capsys, given):
        # the greedy and random baselines have no overlap cap to set
        cfg = tmp_path / "run.cfg"
        cfg.write_text("co_mobile = 9\n")
        out = tmp_path / "p.txt"
        extra = ["--co-mobile", "9"] if given == "flag" else ["--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            main(["baseline", "--method", "greedy", "--rows", "6", "--cols", "6", "--l", "2", "--kmax", "3",
                  "--out", str(out)] + extra)
        assert exc.value.code == 2
        assert "--co-mobile" in capsys.readouterr().err
        assert not out.exists()


class TestStepRange:
    @pytest.mark.parametrize("command", [
        ["baseline", "--method", "greedy", "--rho-x", "-1"],
        ["baseline", "--method", "random", "--rho-y", "-1"],
        ["plan-cov", "--rho-x", "-1"],
        ["sweep", "--axis", "rho_x=1,-1"],
    ], ids=["greedy", "random", "plan-cov", "sweep"])
    def test_negative_step_range_exits_two(self, tmp_path, capsys, monkeypatch, command):
        # a usage error before anything is planned or solved
        calls = []
        for name in ("plan_mobile_milp", "baseline_plan", "run_pipeline"):
            monkeypatch.setattr(gridcover.cli, name, lambda *a, **k: calls.append(a))
        monkeypatch.setattr(gridcover.harness, "run_pipeline", lambda cfg: calls.append(cfg) or [])
        out = tmp_path / "out.txt"
        code, _, err = run(command + ["--rows", "5", "--cols", "5", "--l", "1", "--kmax", "2",
                                      "--out", str(out)], capsys)
        cell = "sweep cell rho_x=-1: " if command[0] == "sweep" else ""
        assert (code, err) == (2, f"error: {cell}step range must be >= 0\n")
        assert calls == []
        assert not out.exists()


class TestExportLp:
    def test_cov_export_declares_binaries(self, tmp_path, capsys):
        out = tmp_path / "model.lp"
        code, stdout, _ = run(
            ["export-lp", "--formulation", "cov", "--rows", "10", "--cols", "10",
             "--l", "3", "--kmax", "4", "--out", str(out)],
            capsys,
        )
        assert code == 0
        text = out.read_text()
        binary_section = text.split("Binary\n", 1)[1].split("End", 1)[0]
        assert len(binary_section.split()) == 1200

    def test_static_export_solves_externally(self, tmp_path, capsys):
        from lp_reader import read_lp_text, solve_parsed

        out = tmp_path / "model.lp"
        code, _, _ = run(
            ["export-lp", "--formulation", "static", "--rows", "3", "--cols", "3",
             "--ns", "1", "--out", str(out)],
            capsys,
        )
        assert code == 0
        status, objective = solve_parsed(read_lp_text(out.read_text()))
        assert status == 0 and objective == pytest.approx(33.0)

    def test_static_export_ignores_the_path_flags(self, tmp_path, capsys):
        # --l and --kmax set the path models only, so no value of theirs is wrong here
        texts = []
        for flags in ([], ["--l", "0", "--kmax", "0"]):
            out = tmp_path / "model.lp"
            code, _, _ = run(["export-lp", "--formulation", "static", "--rows", "3", "--cols", "3",
                              "--out", str(out)] + flags, capsys)
            assert code == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("formulation", ["static", "cov", "mov"])
    def test_negative_sensing_radius_exits_two(self, tmp_path, capsys, formulation):
        out = tmp_path / "model.lp"
        code, stdout, err = run(["export-lp", "--formulation", formulation, "--rows", "4",
                                 "--cols", "4", "--rs", "-1", "--out", str(out)], capsys)
        assert (code, stdout, err) == (2, "", "error: sensing radius must be >= 0\n")
        assert not out.exists()

    def test_unknown_flag_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["export-lp", "--formulation", "bogus", "--rows", "3", "--cols", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [["--time-limit", "5"], ["--gap", "0.1"], ["--node-limit", "3"]])
    def test_solver_limit_exits_two(self, tmp_path, capsys, flag):
        # writing the model solves nothing, so it takes no solver limit
        out = tmp_path / "model.lp"
        with pytest.raises(SystemExit) as exc:
            main(["export-lp", "--formulation", "static", "--rows", "3", "--cols", "3",
                  "--out", str(out)] + flag)
        assert exc.value.code == 2
        assert not out.exists()


class TestConfigFile:
    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rows = 3\ncols = 3\nns = 1\nalpha = 4\n")
        out = tmp_path / "d.txt"
        code, stdout, _ = run(
            ["place-static", "--config", str(cfg), "--out", str(out)],
            capsys,
        )
        assert code == 0 and "(2,2)" in stdout
        # explicit flag beats the file value
        code, stdout, _ = run(
            ["place-static", "--config", str(cfg), "--rows", "4", "--cols", "4",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "4/16" not in stdout  # sanity: ran on 4x4, 9 cells covered
        assert "9/16" in stdout

    def test_malformed_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("rows 3\n")
        code, _, err = run(
            ["place-static", "--config", str(cfg), "--out", str(tmp_path / "d")],
            capsys,
        )
        assert code == 2
        assert "key=value" in err


    def test_sweep_takes_placement_and_planner_from_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("placement = none\nplanner = greedy\n")
        out = tmp_path / "results.csv"
        code, _, _ = run(SMALL_SWEEP + ["--config", str(cfg), "--out", str(out)], capsys)
        assert code == 0
        (row,) = csv_rows(out)
        assert (row["placement"], row["planner"], row["n_static"]) == ("none", "greedy", "0")
        assert row["solver_status"] == "ok"

    @pytest.mark.parametrize("value, wall_time_blank", [("false", False), ("true", True)])
    def test_deterministic_key(self, tmp_path, capsys, value, wall_time_blank):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"placement = none\nplanner = greedy\ndeterministic = {value}\n")
        out = tmp_path / "results.csv"
        assert run(SMALL_SWEEP + ["--config", str(cfg), "--out", str(out)], capsys)[0] == 0
        (row,) = csv_rows(out)
        assert (row["wall_time"] == "") == wall_time_blank

    def test_deterministic_key_takes_only_true_or_false(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("placement = none\nplanner = greedy\ndeterministic = maybe\n")
        out = tmp_path / "results.csv"
        code, _, err = run(SMALL_SWEEP + ["--config", str(cfg), "--out", str(out)], capsys)
        assert code == 2 and "deterministic" in err
        assert not out.exists()

    def test_truncated_key_exits_two(self, tmp_path, capsys):
        # "alp" is not "alpha": no key or flag is taken for a prefix of another
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alp = 2\n")
        out = tmp_path / "d.txt"
        for argv in (["--config", str(cfg)], ["--alp", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(["place-static", "--rows", "3", "--cols", "3", "--out", str(out)] + argv)
            assert exc.value.code == 2
        assert not out.exists()

    def test_key_without_a_flag_on_the_command_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ns = 1\n")  # plan-cov takes the static count from --deployment
        out = tmp_path / "plan.txt"
        with pytest.raises(SystemExit) as exc:
            main(["plan-cov", "--rows", "3", "--cols", "3", "--config", str(cfg), "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()


class TestSweepCommand:
    def test_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code, stdout, _ = run(
            ["sweep", "--rows", "4", "--cols", "4", "--placement", "none",
             "--planner", "greedy", "--l", "1", "--kmax", "2",
             "--seeds", "0,1", "--axis", "n_mobile=1,2",
             "--deterministic", "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * 2
        assert lines[0].startswith("rows,cols,")

    def test_solver_trouble_without_an_axis_writes_error_rows(self, tmp_path, capsys, monkeypatch):
        from gridcover.simplex import SimplexNumericalError

        def broken(*args, **kwargs):
            raise SimplexNumericalError("singular basis: injected")

        monkeypatch.setattr(gridcover.harness, "solve_milp", broken)
        out = tmp_path / "results.csv"
        code, _, _ = run(["sweep", "--rows", "4", "--cols", "4", "--ns", "1", "--l", "1",
                          "--kmax", "2", "--seeds", "0,1", "--out", str(out)], capsys)
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [(r["solver_status"], r["note"]) for r in rows] == [("error", "singular basis: injected")] * 2

    def test_deterministic_sweep_byte_identical(self, tmp_path, capsys):
        args = ["sweep", "--rows", "4", "--cols", "4", "--placement", "none",
                "--planner", "random", "--l", "2", "--kmax", "3",
                "--seeds", "0,1,2", "--deterministic"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)], capsys)[0] == 0
        assert run(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("axis, values", [
        ("node_limit=5,10", [5, 10]),
        ("seeds=0,1", [(0,), (1,)]),
    ])
    def test_axis_values_cast_by_their_flag(self, tmp_path, capsys, monkeypatch, axis, values):
        seen = []
        real_sweep = gridcover.cli.sweep

        def recording_sweep(base, axes):
            rows = real_sweep(base, axes)
            seen.extend([axes, rows])
            return rows

        monkeypatch.setattr(gridcover.cli, "sweep", recording_sweep)
        out = tmp_path / "results.csv"
        code, _, _ = run(SMALL_SWEEP + ["--placement", "none", "--planner", "greedy",
                                        "--axis", axis, "--out", str(out)], capsys)
        assert code == 0
        axes, rows = seen
        (name,) = axes
        assert axes[name] == values
        assert [type(v) for v in axes[name]] == [type(v) for v in values]
        assert all(type(row.seed) is int for row in rows)
        assert len(csv_rows(out)) == 2

    def test_deployment_flag_exits_two(self, tmp_path, capsys):
        # a sweep places its own static nodes; it reads no deployment file
        out = tmp_path / "results.csv"
        with pytest.raises(SystemExit) as exc:
            main(SMALL_SWEEP + ["--placement", "none", "--planner", "greedy",
                                "--deployment", str(tmp_path / "missing.txt"), "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_coverage_target_above_one_exits_two(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code, _, err = run(["sweep", "--rows", "3", "--cols", "3", "--ns", "0", "--planner", "greedy",
                            "--cr", "1.5", "--out", str(out)], capsys)
        assert code == 2
        assert "coverage_target must lie in (0, 1]" in err
        assert not out.exists()

    @pytest.mark.parametrize("axis, message", [
        ("n_static", "--axis expects field=v1,v2,..., got 'n_static'"),
        ("bogus=1", "unknown sweep axis 'bogus'"),
    ])
    def test_malformed_axis_exits_two(self, tmp_path, capsys, axis, message):
        out = tmp_path / "results.csv"
        code, _, err = run(SMALL_SWEEP + ["--placement", "none", "--planner", "greedy",
                                          "--axis", axis, "--out", str(out)], capsys)
        assert code == 2
        assert message in err
        assert not out.exists()

    def test_axis_value_outside_the_flag_choices_exits_two(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code, _, err = run(SMALL_SWEEP + ["--placement", "none", "--axis", "planner=bogus",
                                          "--out", str(out)], capsys)
        assert code == 2
        assert "invalid choice" in err and "bogus" in err
        assert not out.exists()

    def test_contradictory_axis_exits_two_before_any_cell_runs(self, tmp_path, capsys, monkeypatch):
        # the n_static=0 cell cannot take the milp-static placement that --ns 1
        # (the default) chose for the sweep; the n_static=5 cell comes first
        calls = []
        monkeypatch.setattr(gridcover.harness, "run_pipeline", lambda cfg: calls.append(cfg) or [])
        out = tmp_path / "results.csv"
        code, _, err = run(["sweep", "--rows", "10", "--cols", "10", "--planner", "greedy",
                            "--l", "3", "--kmax", "4", "--seeds", "0,1", "--axis", "n_static=5,0",
                            "--out", str(out)], capsys)
        assert code == 2
        assert "n_static" in err
        assert calls == []
        assert not out.exists()

    def test_contradictory_cell_is_named_by_its_axis_values(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(gridcover.harness, "run_pipeline", lambda cfg: calls.append(cfg) or [])
        out = tmp_path / "results.csv"
        code, _, err = run(["sweep", "--rows", "6", "--cols", "6", "--planner", "greedy", "--l", "1",
                            "--kmax", "2", "--seeds", "0", "--axis", "n_static=2,0",
                            "--axis", "k_max=2,3", "--out", str(out)], capsys)
        assert code == 2
        assert err == (
            "error: sweep cell k_max=2, n_static=0: static placement requires n_static >= 1\n"
        )
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--gap", "-1", "--axis", "k_max=2,3"], "mip_gap must be >= 0"),
        (["--axis", "time_limit=5,0"], "sweep cell time_limit=0.0: time_limit must be positive"),
        (["--axis", "node_limit=5,-1"], "sweep cell node_limit=-1: node_limit must be >= 0"),
        (["--axis", "mip_gap=0,nan"], "sweep cell mip_gap=nan: mip_gap must be >= 0"),
        (["--planner", "milp-cov", "--axis", "r_s=1,-1"],
         "sweep cell r_s=-1: sensing radius must be >= 0"),
    ])
    def test_bad_solver_limit_exits_two_before_any_cell_runs(self, tmp_path, capsys, monkeypatch,
                                                             flags, message):
        calls = []
        monkeypatch.setattr(gridcover.harness, "run_pipeline", lambda cfg: calls.append(cfg) or [])
        out = tmp_path / "results.csv"
        code, _, err = run(["sweep", "--rows", "5", "--cols", "5", "--l", "1", "--kmax", "2",
                            "--out", str(out)] + flags, capsys)
        assert (code, err) == (2, f"error: {message}\n")
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--seeds", ","], "seeds must list at least one seed"),
        (["--seeds", ""], "seeds must list at least one seed"),
        (["--seeds", "0", "--axis", "seeds=,"], "sweep cell seeds=(): seeds must list at least one seed"),
        (["--axis", "boundary_weight=4,nan"],
         "sweep cell boundary_weight=nan: boundary_weight must be finite"),
    ], ids=["comma", "empty", "axis", "weight-axis"])
    def test_empty_seed_list_or_non_finite_weight_exits_two_before_any_cell_runs(
            self, tmp_path, capsys, monkeypatch, flags, message):
        calls = []
        monkeypatch.setattr(gridcover.harness, "run_pipeline", lambda cfg: calls.append(cfg) or [])
        out = tmp_path / "results.csv"
        code, stdout, err = run(SMALL_SWEEP + ["--planner", "greedy", "--out", str(out)] + flags,
                                capsys)
        assert (code, stdout, err) == (2, "", f"error: {message}\n")
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("flags, rows", [
        (["--rows", "6", "--cols", "6", "--planner", "milp-mov", "--l", "2", "--kmax", "3", "--ns", "2",
          "--axis", "boundary_weight=1,4", "--cr", "0.9", "--node-limit", "30"], [
            "6,6,2,2,3,1,2,2,1,3,1.0,0.9,milp-static,milp-mov,0,100.0,36,36,2,2,2,optimal,2.0,2.0,0.0,,",
            "6,6,2,2,3,1,2,2,1,3,4.0,0.9,milp-static,milp-mov,0,100.0,36,36,2,2,2,optimal,2.0,2.0,0.0,,",
        ]),
    ])
    def test_csv_rows_are_pinned(self, tmp_path, capsys, flags, rows):
        # the config columns come from each row's config, the rest from its run
        out = tmp_path / "results.csv"
        assert run(["sweep", "--deterministic", "--out", str(out)] + flags, capsys)[0] == 0
        assert out.read_text().splitlines()[1:] == rows

    @pytest.mark.parametrize("planner", ["milp-cov", "milp-mov", "greedy", "random"])
    @pytest.mark.parametrize("flags, message", [
        (["--l", "0", "--kmax", "2"], "n_mobile must be >= 1"),
        (["--l", "0", "--kmax", "2", "--axis", "k_max=2,3"], "n_mobile must be >= 1"),
        (["--l", "1", "--kmax", "0"], "k_max must be >= 1"),
        (["--l", "1", "--kmax", "2", "--axis", "n_mobile=1,0"], "sweep cell n_mobile=0: n_mobile must be >= 1"),
    ], ids=["l0", "l0-axis", "kmax0", "l0-cell"])
    def test_no_mobile_node_exits_two_before_any_cell_runs(self, tmp_path, capsys, monkeypatch,
                                                          planner, flags, message):
        calls = []
        monkeypatch.setattr(gridcover.harness, "run_pipeline", lambda cfg: calls.append(cfg) or [])
        monkeypatch.setattr(gridcover.harness, "place_static_milp", lambda cfg: calls.append(cfg))
        out = tmp_path / "results.csv"
        code, _, err = run(["sweep", "--rows", "5", "--cols", "5", "--planner", planner,
                            "--out", str(out)] + flags, capsys)
        assert (code, err) == (2, f"error: {message}\n")
        assert calls == []
        assert not out.exists()

    def test_readme_sweep_example_runs(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (line,) = [ln for ln in readme.replace("\\\n", " ").splitlines()
                   if ln.startswith("gridcover sweep")]
        argv = shlex.split(line)[1:]
        out = tmp_path / "results.csv"
        code, _, _ = run(argv + ["--out", str(out)], capsys)
        assert code == 0
        rows = csv_rows(out)
        axis = argv[argv.index("--axis") + 1]
        seeds = argv[argv.index("--seeds") + 1]
        assert len(rows) == len(axis.split(",")) * len(seeds.split(","))
        assert {row["solver_status"] for row in rows} == {"ok"}


@pytest.mark.parametrize("block", [0, 1], ids=["quickstart", "harness"])
def test_readme_python_block_runs(tmp_path, block):
    # each ```python block of the README, as written, in a fresh interpreter
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) == 2
    src = str(Path(gridcover.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", blocks[block]], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
