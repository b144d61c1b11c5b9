"""CLI surfaces: flags, config files, trace files, exit codes."""

import csv
import math
import os

import numpy as np
import pytest

from trajopt import cli
from trajopt.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    RunConfig,
    TraceFile,
    VERIFY_CHECKS,
    initial_controls,
    main,
    parse_config,
)
from trajopt.envs import build_problem
from trajopt.errors import ConfigError, TrajoptError

from conftest import load_script


def run_cli(*argv):
    return main(list(argv))


class TestSolveCommand:
    def test_pendulum_gn_converges_with_monotone_trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli("solve", "--env", "pendulum", "--algo", "gn",
                       "--linesearch", "directional", "--horizon", "30",
                       "--out", str(out))
        assert code == EXIT_OK
        trace = TraceFile.read(str(out))
        assert trace.status == "converged"
        costs = [row[1] for row in trace.rows]
        assert all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(costs, costs[1:]))

    def test_cartpole_rk4_cell_ends_with_a_status(self, tmp_path, capsys):
        # cart-pole's roll meets cos(inf) in a gradient trial of this cell
        out = tmp_path / "trace.csv"
        code = run_cli("solve", "--env", "cartpole", "--discretizer", "rk4", "--algo", "gd",
                       "--linesearch", "regularized", "--horizon", "10", "--seed", "0",
                       "--out", str(out))
        assert code == EXIT_OK
        assert "status=max-iters" in capsys.readouterr().out
        assert TraceFile.read(str(out)).status == "max-iters"

    def test_unknown_env_exits_one(self, capsys):
        assert run_cli("solve", "--env", "foo") == EXIT_CONFIG
        assert "env" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--rel-tol", "nan"), ("--rel-tol", "inf"),
                                            ("--min-step", "nan")])
    def test_non_finite_tolerance_exits_one(self, capsys, flag, value):
        code = run_cli("solve", "--env", "pendulum", "--horizon", "20", flag, value)
        assert code == EXIT_CONFIG
        field = flag[2:].replace("-", "_")
        assert f"configuration error: {field}:" in capsys.readouterr().err

    def test_zero_iteration_budget_writes_single_row(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli("solve", "--env", "pendulum", "--algo", "gn",
                       "--horizon", "10", "--max-iters", "0", "--out", str(out))
        assert code == EXIT_OK
        trace = TraceFile.read(str(out))
        assert len(trace.rows) == 1
        assert trace.rows[0][0] == 0
        assert trace.rows[0][1] == pytest.approx(math.pi**2)

    def test_seed_recorded_and_randomizes_start(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("solve", "--env", "pendulum", "--horizon", "10",
                "--max-iters", "0", "--out", str(out_a))
        run_cli("solve", "--env", "pendulum", "--horizon", "10",
                "--max-iters", "0", "--seed", "3", "--out", str(out_b))
        plain, seeded = TraceFile.read(str(out_a)), TraceFile.read(str(out_b))
        assert seeded.footer["seed"] == "3"
        assert plain.rows[0][1] != seeded.rows[0][1]
        # the start: zeros, plus 0.01 * N(0, 1) drawn from a non-negative seed
        problem = build_problem("pendulum", 10)
        assert not initial_controls(problem, -1).any()
        drawn = 0.01 * np.random.default_rng(3).standard_normal((10, 1))
        np.testing.assert_array_equal(initial_controls(problem, 3), drawn)

    def test_trace_columns_finite(self, tmp_path):
        out = tmp_path / "trace.csv"
        run_cli("solve", "--env", "pendulum", "--algo", "gd", "--horizon", "20",
                "--max-iters", "5", "--out", str(out))
        trace = TraceFile.read(str(out))
        for row in trace.rows[1:]:
            assert all(np.isfinite(v) for v in row)


class TestConfigFiles:
    def test_round_trip_is_idempotent(self):
        text = "# comment\nenv=cartpole\nalgo = ddp-lq\nhorizon=25\n"
        assert parse_config(text) == {"env": "cartpole", "algo": "ddp-lq", "horizon": "25"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("envv=pendulum\n")

    def test_flags_override_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("env=cartpole\nalgo=gd\nhorizon=25\nmax_iters=0\n")
        out = tmp_path / "trace.csv"
        code = run_cli("solve", "--config", str(cfg_file), "--algo", "gn",
                       "--out", str(out))
        assert code == EXIT_OK
        trace = TraceFile.read(str(out))
        assert trace.footer["algo"] == "gn"
        assert trace.footer["env"] == "cartpole"

    def test_a_line_without_equals_names_its_line(self):
        with pytest.raises(ConfigError, match="line 2 is not key=value"):
            parse_config("env=pendulum\nhorizon 25\n")

    def test_an_unreadable_config_exits_one(self, tmp_path, capsys):
        assert run_cli("solve", "--config", str(tmp_path / "missing.cfg")) == EXIT_CONFIG
        assert "configuration error: config: cannot read" in capsys.readouterr().err

    def test_validation_names_the_field(self):
        with pytest.raises(ConfigError) as err:
            RunConfig(horizon=0).validate()
        assert err.value.field == "horizon"


class TestBenchmarkCommand:
    def test_small_grid_layout(self, tmp_path):
        out = tmp_path / "bench"
        code = run_cli("benchmark", "--env", "pendulum", "--algo", "gn,gd",
                       "--linesearch", "directional", "--horizon", "15",
                       "--max-iters", "10", "--out", str(out))
        assert code == EXIT_OK
        files = sorted(os.listdir(out))
        assert "summary.csv" in files
        assert len([f for f in files if f != "summary.csv"]) == 2
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        rel = [float(r["rel_subopt"]) for r in rows]
        assert min(rel) == 0.0  # the winning cell defines the optimum estimate

    def test_cartpole_rk4_grid_writes_a_status_for_every_cell(self, tmp_path):
        out = tmp_path / "bench"
        code = run_cli("benchmark", "--env", "cartpole", "--discretizer", "rk4",
                       "--algo", "gn,gd", "--linesearch", "directional,regularized",
                       "--horizon", "10", "--seed", "0", "--out", str(out))
        assert code == EXIT_OK
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {r["status"] for r in rows} <= {"converged", "max-iters", "stalled", "diverged"}

    @pytest.mark.parametrize("horizon", ["abc", "1.5"])
    def test_unparsable_horizon_exits_one(self, tmp_path, capsys, horizon):
        code = run_cli("benchmark", "--env", "pendulum", "--horizon", horizon,
                       "--out", str(tmp_path / "grid"))
        assert code == 1
        assert "configuration error: horizon:" in capsys.readouterr().err

    def test_discretizer_one_env_does_not_allow_refuses_the_grid(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = run_cli("benchmark", "--env", "pendulum,bicycle-car", "--algo", "gn",
                       "--horizon", "5", "--max-iters", "1", "--discretizer", "rk4-varying",
                       "--out", str(out))
        assert code == EXIT_CONFIG
        assert "configuration error: discretizer:" in capsys.readouterr().err
        assert not out.exists()  # refused before any cell ran

    def test_empty_grid_exits_one(self, tmp_path):
        code = run_cli("benchmark", "--env", ",", "--out", str(tmp_path / "bench"))
        assert code == EXIT_CONFIG

    def test_a_cell_that_raises_gets_an_error_row(self, tmp_path, monkeypatch):
        """The other cells still run and write; the summary row carries the message."""
        real = cli.run_cell

        def run_cell(cfg):
            if cfg.algo == "gd":
                raise TrajoptError("this cell failed")
            return real(cfg)

        monkeypatch.setattr(cli, "run_cell", run_cell)
        out = tmp_path / "bench"
        code = run_cli("benchmark", "--env", "pendulum", "--algo", "gn,gd", "--horizon", "10",
                       "--max-iters", "5", "--out", str(out))
        assert code == EXIT_OK
        assert sorted(os.listdir(out)) == ["pendulum_gn_directional_h10.csv", "summary.csv"]
        with open(out / "summary.csv") as fh:
            rows = {row[1]: row for row in list(csv.reader(fh))[1:]}
        assert rows["gd"][4:] == ["error", "", "", "", "this cell failed"]
        assert rows["gn"][4] == "max-iters"

    def test_parallel_matches_serial(self, tmp_path):
        """Every CSV, summary.csv included, agrees field by field apart from time_ms."""
        serial, par = tmp_path / "s", tmp_path / "p"
        args = ["benchmark", "--env", "pendulum,cartpole", "--algo", "gn,ddp-lq",
                "--linesearch", "directional,regularized", "--horizon", "12", "--max-iters", "8"]
        assert run_cli(*args, "--out", str(serial), "--parallel", "1") == EXIT_OK
        assert run_cli(*args, "--out", str(par), "--parallel", "2") == EXIT_OK
        assert len(list(serial.rglob("*.csv"))) == 9  # eight cells and the summary
        assert load_script("compare_traces").first_difference(serial, par) is None


BAD_COMMAND_LINES = [
    *[(["solve", "--env", "pendulum", "--horizon", "5", flag, "abc"],
       f"configuration error: {field}:")
      for flag, field in (("--max-iters", "max_iters"), ("--rel-tol", "rel_tol"),
                          ("--min-step", "min_step"), ("--seed", "seed"),
                          ("--parallel", "parallel"))],
    (["solve", "--env", "pendulum", "--horizon", "abc"], "configuration error: horizon:"),
    (["benchmark", "--env", "pendulum", "--parallel", "abc"], "configuration error: parallel:"),
    (["verify", "--scale", "abc"], "configuration error: scale:"),
    (["verify", "--scale", "1e308"], "configuration error: scale:"),
    (["verify", "--scale", "1e300"], "configuration error: scale:"),
    (["verify", "--scale", "1000.0000000000001"], "configuration error: scale:"),
    (["verify", "--only", "nope"], "invalid choice: 'nope'"),
    (["solve", "--no-such-flag", "1"], "unrecognized arguments: --no-such-flag"),
    ([], "required: command"),
]


@pytest.mark.parametrize("argv,message", BAD_COMMAND_LINES,
                         ids=[" ".join(argv[:1] + argv[-2:]) or "no-command"
                              for argv, _ in BAD_COMMAND_LINES])
def test_bad_command_line_exits_one(argv, message, capsys):
    # exit 2 would read as "stalled"
    assert run_cli(*argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"], ["verify", "--help"]])
def test_help_exits_zero(argv, capsys):
    assert run_cli(*argv) == EXIT_OK
    assert "usage: trajopt" in capsys.readouterr().out


class TestVerifyCommand:
    def test_single_check_passes(self):
        assert run_cli("verify", "--only", "policy-scaling") == EXIT_OK

    def test_unknown_check_rejected(self):
        assert run_cli("verify", "--only", "nope") == EXIT_CONFIG

    @pytest.mark.parametrize(
        "scale", ["nan", "inf", "0", "-1", "1e308", "1e300", "1000.0000000000001"])
    def test_scale_must_be_positive_and_finite(self, scale, capsys):
        # 1e300 is finite, with finite trial counts, but they would run for
        # ever; 1000.0000000000001 is the first float above the bound
        assert run_cli("verify", "--only", "policy-scaling", "--scale", scale) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error: scale: must be a real number in (0.0, " in err

    def test_perturbation_hook_fails_the_run(self):
        code = run_cli("verify", "--only", "policy-scaling", "--selftest-perturb")
        assert code != EXIT_OK

    def test_every_check_passes_and_fails_when_perturbed(self, capsys):
        for argv, code, verdict in [((), EXIT_OK, "PASS"), (("--selftest-perturb",), 4, "FAIL")]:
            assert run_cli("verify", *argv) == code
            lines = capsys.readouterr().out.splitlines()
            assert [line.split()[0] for line in lines] == list(VERIFY_CHECKS)
            assert all(line.endswith(verdict) for line in lines)


class TestTraceFileFormat:
    def test_write_read_round_trip(self, tmp_path):
        rows = [[0, 2.0, 1.0, float("nan"), float("nan"), 0.5, 0.0],
                [1, 1.0, 0.0, 0.5, 1e-6, 0.1, 3.25]]
        path = tmp_path / "t.csv"
        TraceFile(rows, "converged", {"seed": -1}).write(str(path))
        back = TraceFile.read(str(path))
        assert back.status == "converged"
        assert back.footer["seed"] == "-1"
        assert back.rows[1] == rows[1]
        assert math.isnan(back.rows[0][3])

    def test_a_failed_replace_leaves_no_temporary_file(self, tmp_path):
        taken = tmp_path / "taken"
        taken.mkdir()  # os.replace cannot put a file over a directory
        with pytest.raises(OSError):
            TraceFile([], "converged", {}).write(str(taken))
        assert [path.name for path in tmp_path.iterdir()] == ["taken"]

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError):
            TraceFile.read(str(path))

    def test_empty_trace_from_diverged_start(self, tmp_path):
        from trajopt.linesearch import SolveTrace

        empty = SolveTrace(rows=[], status="diverged")
        assert empty.iterations == 0
        tf = TraceFile.from_trace(empty, None, {"seed": -1})
        path = tmp_path / "diverged.csv"
        tf.write(str(path))
        back = TraceFile.read(str(path))
        assert back.status == "diverged"
        assert back.rows == []
