"""Command-line artifacts: schemas, determinism, config precedence, exit codes."""

import csv
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import sqccqkd.cli as cli
from sqccqkd import finitekey, keyrate, montecarlo
from sqccqkd.channel import ChannelParams
from sqccqkd.errors import NumericError
from sqccqkd.keyrate import optimise_v, rate_at
from sqccqkd.channel import ProtocolParams


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestOptimizeCommand:
    def test_single_row_matches_library(self, tmp_path):
        out = tmp_path / "opt.csv"
        code = cli.main(["optimize", "--T", "0.6", "--W", "1e-3",
                         "--eps", "0.05", "--output", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 1
        opt = optimise_v(ChannelParams(0.6, 0.05), 1e-3)
        assert float(rows[0]["k_star"]) == opt.k_star
        assert float(rows[0]["v_star"]) == opt.v_star
        assert rows[0]["T"] == "0.6" and rows[0]["W"] == "0.001"


class TestValidateCommand:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["validate-fig2", "--n", "20000", "--seed", "42",
                         "--output", str(a)]) == 0
        assert cli.main(["validate-fig2", "--n", "20000", "--seed", "42",
                         "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rows_and_pass_flags(self, tmp_path):
        out = tmp_path / "f.csv"
        cli.main(["validate-fig2", "--n", "20000", "--seed", "42",
                  "--output", str(out)])
        rows = read_csv(out)
        assert [float(r["d"]) for r in rows] == [float(x) for x in range(0, 21, 2)]
        assert all(r["pass"] == "true" for r in rows)
        assert all(r["rng"] == "numpy-philox4x64-v1" for r in rows)


class TestSweepCommands:
    def test_decoupled_sweep_matches_heterodyne(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli.main(["sweep-asymptotic", "--W", "0.5",
                         "--T-grid", "log:0.05:0.9:6", "--V", "5",
                         "--output", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 6
        for row in rows:
            ref = rate_at(ProtocolParams(5.0, 0.0, 0.95),
                          ChannelParams(float(row["T"]), 0.05))
            assert float(row["K"]) == pytest.approx(ref["K"], rel=1e-12)
            assert row["feasible"] == "true"

    def test_finite_sweep_columns(self, tmp_path):
        out = tmp_path / "fin.json"
        code = cli.main(["sweep-finite", "--T", "0.9", "--W", "1e-3",
                         "--V", "3", "--N", "1e8", "--format", "json",
                         "--output", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 1
        row = rows[0]
        assert row["epsilon_total"] == pytest.approx(7e-10)
        assert row["K_F"] > 0.0
        assert row["ell"] == pytest.approx(row["K_F"] * 1e8, rel=1e-9)

    def test_compare_baseline(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = cli.main(["compare-baseline", "--T", "0.3", "--W", "1e-6",
                         "--output", str(out)])
        assert code == 0
        row = read_csv(out)[0]
        assert row["advantage"] == "true"
        assert float(row["k_star_sqcc"]) >= float(row["k_star_baseline"])

    def test_db_specification(self, tmp_path):
        out = tmp_path / "db.csv"
        cli.main(["sweep-asymptotic", "--db", "10", "--W", "0.5", "--V", "5",
                  "--output", str(out)])
        assert float(read_csv(out)[0]["T"]) == pytest.approx(0.1)

    def test_row_flagging_on_numeric_failure(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise NumericError("synthetic failure")

        monkeypatch.setattr(cli, "rate_rows", boom)
        out = tmp_path / "warn.csv"
        code = cli.main(["sweep-asymptotic", "--T", "0.5", "--W", "0.5",
                         "--V", "5", "--output", str(out)])
        assert code == 0
        row = read_csv(out)[0]
        assert row["feasible"] == "false"
        assert "synthetic failure" in row["error"]
        assert "1 row(s) failed" in capsys.readouterr().err


    def test_large_noise_row_is_feasible(self, tmp_path):
        out = tmp_path / "noisy.csv"
        assert cli.main(["sweep-asymptotic", "--eps", "1e40", "--output", str(out)]) == 0
        row = read_csv(out)[0]
        assert row["feasible"] == "true" and row["error"] == ""
        assert float(row["chi_EB"]) > 129.0 and float(row["K"]) < 0.0


class TestSimulateCommand:
    def test_empirical_columns_and_shots_dump(self, tmp_path):
        out = tmp_path / "sim.csv"
        shots = tmp_path / "shots.csv"
        code = cli.main(["simulate", "--T", "0.1", "--eps", "0.05", "--V", "5",
                         "--d", "12", "--n", "5000", "--seed", "7",
                         "--symbol", "1", "--shots-output", str(shots),
                         "--output", str(out)])
        assert code == 0
        row = read_csv(out)[0]
        assert abs(float(row["b_hat"]) - float(row["b_d"])) < 6 * float(row["b_se"])
        dump = read_csv(shots)
        assert len(dump) == 5000
        assert set(dump[0]) == {"shot", "alice_x", "alice_y", "bob_raw_x",
                                "bob_raw_y", "bob_post_x", "bob_post_y",
                                "true_symbol", "decided_symbol"}

    def test_pipeline_columns_with_disclosure(self, tmp_path):
        out = tmp_path / "sim2.csv"
        cli.main(["simulate", "--T", "0.1", "--eps", "0.05", "--V", "5",
                  "--d", "12", "--n", "20000", "--seed", "8",
                  "--disclose", "0.1", "--output", str(out)])
        row = read_csv(out)[0]
        assert float(row["snr_hat"]) > 0.0
        assert 0.0 < float(row["delta_v_hat"]) < 1.5


class TestConfigPrecedence:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": [0.4], "W": [0.5], "V": 2.0,
                                   "eps": 0.02}))
        out = tmp_path / "o.csv"
        cli.main(["sweep-asymptotic", "--config", str(cfg), "--V", "7",
                  "--output", str(out)])
        row = read_csv(out)[0]
        assert float(row["V"]) == 7.0     # flag wins
        assert float(row["T"]) == 0.4     # file value survives
        assert float(row["eps"]) == 0.02

    def test_other_commands_keys_are_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": [0.4], "seed": 3, "d": [1.0], "disclose": 0.5}))
        out = tmp_path / "o.csv"
        assert cli.main(["sweep-asymptotic", "--config", str(cfg),
                         "--output", str(out)]) == 0
        assert read_csv(out)[0]["T"] == "0.4"

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        assert cli.main(["optimize", "--T", "0.5", "--W", "0.5"]) == 0
        assert (tmp_path / "optimize.csv").exists()


class TestUsageErrors:
    def test_mutually_exclusive_t_and_db(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep-asymptotic", "--T", "0.5", "--db", "3",
                      "--output", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_grid_descriptor(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep-asymptotic", "--T-grid", "log:0.9:0.1:5"])
        assert exc.value.code == 2

    def test_log_grid_from_a_subnormal_bound(self):
        """hi / lo overflows to inf here; the grid must not."""
        grid = cli._parse_t_grid("log:1e-310:0.9:5")
        assert grid[0] == 1e-310 and grid[-1] == 0.9
        assert all(0.0 < a < b < 1.0 for a, b in zip(grid, grid[1:]))

    def test_exclusive_t_and_grid_via_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": [0.5], "t_grid": "log:0.01:0.9:4"}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep-asymptotic", "--config", str(cfg)])
        assert exc.value.code == 2

    def test_invalid_symbol_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--T", "0.1", "--symbol", "7"])
        assert exc.value.code == 2

    def test_invalid_disclose_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--T", "0.1", "--disclose", "1.5"])
        assert exc.value.code == 2

    def test_out_of_range_parameters_are_usage_errors(self):
        for argv in (["optimize", "--T", "0"],
                     ["optimize", "--T", "0.5", "--W", "0.7"],
                     ["optimize", "--T", "0.5", "--beta", "1.5"],
                     ["sweep-asymptotic", "--T", "0.5", "--V", "0.5"],
                     ["simulate", "--T", "0.1", "--mi-double"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2


class TestHardenedInputs:
    @pytest.mark.parametrize("config", [
        {"T": 0.3}, {"N": 1e6}, {"W": "abc"}, {"n": "abc"}, {"strategy": "x"},
        {"output": 5}, {"format": "json", "T-grid": "log:0.1:0.9:3"},
    ], ids=lambda c: json.dumps(c))
    def test_bad_config_value_is_usage_error_naming_key(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            cli.main(["optimize", "--config", str(cfg),
                      "--output", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        assert f"config key {next(iter(config))!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, key", [
        (["simulate", "--seed", "-1", "--n", "200"], "seed"),
        (["sweep-finite", "--N", "1"], "N"),
        (["optimize", "--T", "0.6", "--W", "1e-3", "--N", "inf"], "N"),
    ])
    def test_bad_flag_is_usage_error_naming_key(self, tmp_path, capsys, argv, key):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--output", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        assert f"{key} must be >= " in capsys.readouterr().err


    @pytest.mark.parametrize("argv, values", [
        (["sweep-finite", "--N", "2", "--p-f", "0.1"], "0.1 * 2.0"),
        (["optimize", "--N", "1e3", "--p-f", "1e-4"], "0.0001 * 1000.0"),
        (["sweep-finite", "--N", "1e10", "1e8", "--p-f", "1e-9"], "1e-09 * 100000000.0"),
        (["sweep-finite", "--p-f", "1e-9"], "1e-09 * 100000000.0"),  # the default N
    ], ids=["sweep-finite", "optimize", "second-N", "default-N"])
    def test_p_f_times_n_below_one_is_usage_error(self, tmp_path, capsys, argv, values):
        """The finite-block penalty takes log2(p_f N), which needs p_f N >= 1."""
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--T", "0.5", "--W", "1e-3",
                      "--output", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        assert f"frame_success * block_size must be >= 1, got {values}" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["sweep-finite", "--N", "1e10", "--p-f", "1e-9"],
        ["optimize", "--p-f", "1e-9"],  # asymptotic: p_f is not used
    ], ids=["sweep-finite", "optimize-asymptotic"])
    def test_small_p_f_runs_where_p_f_n_is_at_least_one(self, tmp_path, argv):
        out = tmp_path / "o.csv"
        assert cli.main([*argv, "--T", "0.5", "--W", "1e-3", "--output", str(out)]) == 0
        assert [row["error"] for row in read_csv(out)] == [""]


class TestReusedParser:
    def test_each_run_writes_what_a_fresh_process_writes(self, tmp_path, capsys):
        """One parser serves every ``main`` call; no run leaves state for the next."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": [0.4, 0.8], "W": [1e-3], "N": [1e6],
                                   "eps_pe": 1e-9, "optimize_v": True}))
        runs = [
            ["optimize", "--T", "0.6", "--W", "1e-3"],
            ["sweep-finite", "--config", str(cfg)],
            ["sweep-finite", "--T", "0.5", "--W", "1e-3", "--N", "2", "--p-f", "0.1"],
            ["simulate", "--T", "0.2", "--d", "4", "--n", "300", "--seed", "3",
             "--shots-output", "{dir}/shots.csv"],
            ["sweep-asymptotic", "--T", "0.3", "0.7", "--W", "0.5", "--format", "json"],
            ["optimize", "--T", "0.2", "0.9", "--W", "1e-6", "--eps", "0.01",
             "--strategy", "c-preserving", "--N", "1e8", "--d-rx", "5"],
        ]
        src = str(pathlib.Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}

        def argv(run, directory):
            directory.mkdir()
            return [arg.format(dir=directory) for arg in run] + [
                "--output", str(directory / "out")]

        fresh = [subprocess.Popen([sys.executable, "-m", "sqccqkd.cli",
                                   *argv(run, tmp_path / f"fresh{i}")], env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                 for i, run in enumerate(runs)]
        for i, (run, proc) in enumerate(zip(runs, fresh)):
            try:
                code = cli.main(argv(run, tmp_path / f"reused{i}"))
            except SystemExit as exc:
                code = exc.code
            _, err = capsys.readouterr()
            _, fresh_err = proc.communicate(timeout=120)
            assert (code, err) == (proc.returncode, fresh_err.decode()), run
            written, expected = ({p.name: p.read_bytes()
                                  for p in (tmp_path / f"{side}{i}").iterdir()}
                                 for side in ("reused", "fresh"))
            assert written == expected, run
            assert (code, len(written)) == ((2, 0) if "--p-f" in run else
                                            (0, 2 if "--shots-output" in run else 1))


class TestEveryCommandFlags:
    @pytest.mark.parametrize("argv, echoed", [
        (["optimize", "--T", "0.3", "--W", "1e-3", "--eps", "1e300"],
         {"T": "0.3", "W": "0.001", "eps": "1e+300", "strategy": "b-preserving",
          "model": "sqcc", "v_star": "", "error": "covariance a=1.001e+00, "
          "b=3.000e+299, c=2.403e-02 overflows its symplectic invariants"}),
        (["compare-baseline", "--T", "0.3", "--W", "1e-6", "--eps", "1e300"],
         {"T": "0.3", "W": "1e-06", "eps": "1e+300", "advantage": "",
          "error": "covariance a=1.001e+00, b=3.000e+299, c=2.450e-02 overflows "
          "its symplectic invariants"}),
        (["simulate", "--d", "1e200", "--n", "200"],
         {"T": "0.1", "V": "5.0", "d": "1e+200", "n": "200", "seed": "42",
          "schedule": "uniform-random", "error": "displacement 1e+200 is too large"}),
        (["validate-fig2", "--d", "1e200", "--n", "200"],
         {"d": "1e+200", "n": "200", "seed": "42", "T": "0.1", "pass": "",
          "error": "displacement 1e+200 is too large"}),
        (["sweep-asymptotic", "--T", "0.1", "--eps", "1e300"],
         {"eps": "1e+300", "feasible": "false", "error": "covariance a=5.000e+00, "
          "b=1.000e+299, c=1.549e+00 overflows its symplectic invariants"}),
    ], ids=["optimize", "compare-baseline", "simulate", "validate-fig2",
            "sweep-asymptotic-overflow"])
    def test_failing_point_is_flagged_row(self, tmp_path, capsys, argv, echoed):
        out = tmp_path / "o.csv"
        assert cli.main([*argv, "--output", str(out)]) == 0
        row = read_csv(out)[0]
        assert {k: row[k] for k in echoed} == echoed
        assert "1 row(s) failed" in capsys.readouterr().err


class TestPipelineEvaluations:
    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """The element count of each ``keyrate.rate_cells`` call."""
        calls = []
        original = keyrate.rate_cells

        def counted(v, *args, **kwargs):
            calls.append(np.size(v))
            return original(v, *args, **kwargs)

        monkeypatch.setattr(keyrate, "rate_cells", counted)
        return calls

    @pytest.mark.parametrize("argv, ceiling", [
        (["sweep-asymptotic"], {"rate_cells": 1}),
        (["sweep-finite", "--N", "1e8", "1e6"], {"rate_cells": 1}),
    ])
    def test_closed_form_chain_calls_per_fixed_v_row(self, tmp_path, kernel_calls,
                                                     argv, ceiling):
        """A fixed-V sweep evaluates all its rows in one kernel call."""
        out = tmp_path / "o.csv"
        assert cli.main([*argv, "--T", "0.3", "0.6", "--W", "1e-3", "--V", "5",
                         "--output", str(out)]) == 0
        rows = read_csv(out)
        assert all(row["error"] == "" for row in rows)
        assert {"rate_cells": len(kernel_calls)} == ceiling
        assert kernel_calls == [len(rows)]

    @pytest.mark.parametrize("argv, ceiling", [
        (["sweep-asymptotic", "--optimize-v"], 25),
        (["compare-baseline"], 50),
    ], ids=["sweep-asymptotic-optimize-v", "compare-baseline"])
    def test_kernel_calls_per_rate_command(self, tmp_path, kernel_calls, argv, ceiling):
        """The README grid runs in a few array calls, not one call per V per row."""
        out = tmp_path / "o.csv"
        assert cli.main([*argv, "--W", "0.5", "1e-3", "--T-grid", "log:0.01:0.9:50",
                         "--output", str(out)]) == 0
        assert len(read_csv(out)) == 100
        assert len(kernel_calls) <= ceiling
        assert max(kernel_calls) <= keyrate._BLOCK  # the kernel's memory stays bounded
        assert kernel_calls[0] == keyrate._BLOCK // 60 * 60  # coarse grids, many rows

    @pytest.fixture
    def quantile_calls(self, monkeypatch):
        calls = []
        original = finitekey.beta_inv_cdf_symmetric

        def counted(z, half_n, *args, **kwargs):
            calls.append(half_n)
            return original(z, half_n, *args, **kwargs)

        monkeypatch.setattr(finitekey, "beta_inv_cdf_symmetric", counted)
        return calls

    @pytest.mark.parametrize("argv, rows", [
        (["optimize", "--T", "0.6", "--N", "1e6"], 1),
        (["optimize", "--T", "0.6"], 0),
        (["sweep-finite", "--optimize-v", "--T", "0.3", "0.6", "--N", "1e8", "1e4"], 4),
    ], ids=["optimize-N", "optimize-asymptotic", "sweep-finite-optimize-v"])
    def test_two_beta_quantiles_per_finite_row(self, tmp_path, quantile_calls,
                                               argv, rows):
        """The optimiser and the row's K^F share one pair of quantiles per block size."""
        out = tmp_path / "o.csv"
        assert cli.main([*argv, "--W", "1e-3", "--output", str(out)]) == 0
        assert len(quantile_calls) == 2 * rows
        # a second run in the same process pays for its own quantiles
        assert cli.main([*argv, "--W", "1e-3", "--output", str(out)]) == 0
        assert len(quantile_calls) == 4 * rows

    def test_one_delta_terms_per_finite_row(self, tmp_path, monkeypatch):
        """The finite-size penalties are computed once per row, not per evaluation."""
        calls = []
        original = finitekey.delta_terms

        def counted(sec):
            calls.append(sec.block_size)
            return original(sec)

        monkeypatch.setattr(finitekey, "delta_terms", counted)
        argv = ["optimize", "--T", "0.6", "--W", "1e-3", "--N", "1e6",
                "--output", str(tmp_path / "o.csv")]
        assert cli.main(argv) == 0
        assert calls == [1e6]
        # a second run in the same process computes its own penalties
        assert cli.main(argv) == 0
        assert calls == [1e6, 1e6]

    def test_one_classification_per_disclosed_batch(self, tmp_path, monkeypatch):
        calls = []
        original = montecarlo._classify

        def counted(points):
            calls.append(len(points))
            return original(points)

        monkeypatch.setattr(montecarlo, "_classify", counted)
        assert cli.main(["simulate", "--T", "0.1", "--V", "5", "--d", "12", "0",
                         "--n", "2000", "--disclose", "0.1",
                         "--output", str(tmp_path / "o.csv")]) == 0
        assert calls == [2000, 2000]
