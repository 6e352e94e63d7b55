"""Command-line artifacts: schemas, determinism, config precedence, exit codes."""

import csv
import functools
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import sqccqkd.cli as cli
from sqccqkd import finitekey, keyrate, montecarlo, special
from sqccqkd.channel import ChannelParams
from sqccqkd.errors import DomainError, NumericError
from sqccqkd.keyrate import optimise_v, rate_at
from sqccqkd.montecarlo import estimate, shot_chunks
from sqccqkd.channel import ProtocolParams

from oracles import write_shots_csv


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

    def test_each_block_size_is_a_row(self, tmp_path):
        """Every --N gives its own row, as a run at that N alone writes it."""
        out = tmp_path / "optn.csv"
        assert cli.main(["optimize", "--T", "0.6", "--W", "1e-3", "--N", "1e6", "1e8",
                         "--output", str(out)]) == 0
        rows = read_csv(out)
        assert [row["N"] for row in rows] == ["1000000.0", "100000000.0"]
        for n, row in zip((1e6, 1e8), rows):
            alone = tmp_path / "alone.csv"
            assert cli.main(["optimize", "--T", "0.6", "--W", "1e-3", "--N", str(n),
                             "--output", str(alone)]) == 0
            assert read_csv(alone) == [row]


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

    def test_config_file_keeps_the_reference_point(self, tmp_path, monkeypatch):
        """Other commands' keys in a config file change nothing: the sweep stays at
        its reference point and writes no shots file."""
        monkeypatch.chdir(tmp_path)  # where a relative shots file would go
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"V": 3.0, "T": [0.5], "eps": 0.01, "sigma": 0.2,
                                   "beta": 0.9, "symbol": "2", "disclose": 0.1,
                                   "shots_output": "shots.csv"}))
        plain, configured = tmp_path / "plain.csv", tmp_path / "configured.csv"
        # 500 shots: a disclosed fraction of 0.1 would flag each row (50 < 100 shots)
        argv = ["validate-fig2", "--n", "500", "--d", "0", "12"]
        assert cli.main([*argv, "--output", str(plain)]) == 0
        assert cli.main([*argv, "--config", str(cfg), "--output", str(configured)]) == 0
        assert configured.read_bytes() == plain.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cfg.json", "configured.csv", "plain.csv"]


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

        monkeypatch.setattr(keyrate._Rows, "cells", boom)
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

    @pytest.mark.parametrize("argv, b_d, error", [
        (["--T", "0.1", "--V", "1", "--eps", "1e100", "--d", "0"],
         "1.0000000000000001e+99", ""),
        (["--T", "0.1", "--V", "1.001", "--sigma", "1", "--d", "1e10"],
         "9.573611027154671e+17", ""),
        (["--T", "0.1", "--V", "1e20", "--d", "12"], "",
         "outcome covariance must be positive-definite"),
        (["--T", "0.999", "--V", "1", "--d", "1e154", "--eps", "0"], "",
         "b_d must be finite"),
    ], ids=["huge-noise-row", "receiver-noise-far-above-a", "indefinite-outcome-covariance",
            "non-finite-analytic-moments"])
    def test_edge_rows(self, tmp_path, argv, b_d, error):
        """The analytic moments come from the shared-state stage, not from the rate's
        renormalisation checks: a huge-noise batch is a row, a receiver variance
        far above the sender's is one too, and an outcome covariance that is not
        positive-definite in double precision flags the row, as do analytic
        moments that overflow (2 T d^2 e_c is inf times 0 at d = 1e154)."""
        out = tmp_path / "edge.csv"
        assert cli.main(["simulate", *argv, "--n", "300", "--output", str(out)]) == 0
        row = read_csv(out)[0]
        assert (row["b_d"], row["error"]) == (b_d, error)

    def test_no_numpy_warning(self, tmp_path):
        """A sub-batch spread that overflows is an inf standard error, not a warning."""
        out = tmp_path / "w.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["simulate", "--T", "0.1", "--V", "1", "--eps", "1e160",
                             "--d", "0", "--n", "300", "--output", str(out)]) == 0
        row = read_csv(out)[0]
        assert (row["b_d"], row["b_hat"], row["b_se"], row["error"]) == (
            "1.0000000000000001e+159", "1.02449430371852e+159", "inf", "")

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

    @pytest.mark.parametrize("command, config", [
        ("sweep-asymptotic", {"disclose": 1.5}),
        ("validate-fig2", {"T": [5]}),
    ])
    def test_other_commands_keys_are_not_range_checked(self, tmp_path, command, config):
        """A value that would be out of range for its own command is still ignored."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [command, "--config", str(cfg), "--output", str(tmp_path / "o.csv")]
        if command == "validate-fig2":
            argv += ["--n", "300"]
        assert cli.main(argv) == 0

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        assert cli.main(["optimize", "--T", "0.5", "--W", "0.5"]) == 0
        assert (tmp_path / "optimize.csv").exists()


# descriptors of four fields whose bound is not finite or whose count is not an integer
NOT_FINITE_OR_NOT_INTEGER = ("log:0.1:inf:5", "lin:0.1:inf:5", "log:0.1:0.9:5.0")


class TestUsageErrors:
    def test_mutually_exclusive_t_and_db(self, tmp_path, capsys):
        """One check decides every pair of T, db and T-grid, by flag or by file."""
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps({"T": [0.5]}))
        grid = "log:0.01:0.9:4"
        for pair in (["--T", "0.5", "--db", "3"], ["--T", "0.5", "--T-grid", grid],
                     ["--db", "3", "--T-grid", grid], ["--db", "3", "--config", str(cfg)]):
            with pytest.raises(SystemExit) as exc:
                cli.main(["sweep-asymptotic", *pair, "--output", str(tmp_path / "x.csv")])
            assert exc.value.code == 2
            assert "T, db and T-grid are mutually exclusive" in capsys.readouterr().err

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_grid_descriptor(self, capsys):
        """A bound out of order or not finite, or a count that is not an integer, is
        the parser's usage error naming the descriptor, and numpy warns of nothing."""
        for grid in ("log:0.9:0.1:5", *NOT_FINITE_OR_NOT_INTEGER):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SystemExit) as exc:
                    cli.main(["sweep-asymptotic", "--T-grid", grid])
            assert exc.value.code == 2
            assert "--T-grid: grid must look like log:0.01:0.9:50" in (
                err := capsys.readouterr().err)
            assert repr(grid) in err

    @pytest.mark.parametrize("grid", ["log:0.1:0.9", "exp:0.1:0.9:5",
                                      *NOT_FINITE_OR_NOT_INTEGER])
    def test_malformed_grid_descriptor(self, capsys, grid):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep-asymptotic", "--T-grid", grid])
        assert exc.value.code == 2
        assert "grid must look like log:0.01:0.9:50" in capsys.readouterr().err

    def test_malformed_grid_in_config_names_its_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_grid": "log:0.1"}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep-asymptotic", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "config key 't_grid': grid must look like" in capsys.readouterr().err

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
                     ["optimize", "--T", "0.5", "--mi-double"],  # no such switch
                     ["simulate", "--T", "0.1", "--optimize-v"],
                     # rate options: simulate's strategy and beta cells echo the defaults
                     ["simulate", "--T", "0.1", "--d", "12", "--n", "300",
                      "--strategy", "c-preserving"],
                     ["simulate", "--T", "0.1", "--d", "12", "--n", "300",
                      "--beta", "0.9"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2


class TestHardenedInputs:
    @pytest.mark.parametrize("config", [
        {"T": 0.3}, {"N": 1e6}, {"W": "abc"}, {"n": "abc"}, {"strategy": "x"},
        {"output": 5}, {"format": "json", "T-grid": "log:0.1:0.9:3"},
        {"mi_double": True},
    ], ids=lambda c: json.dumps(c))
    def test_bad_config_value_is_usage_error_naming_key(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            cli.main(["optimize", "--config", str(cfg),
                      "--output", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        assert f"config key {next(iter(config))!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("config, flag, message", [
        ({"disclose": 1.5}, ["--disclose", "1.5"],
         "disclose fraction must be in (0, 1), got 1.5"),
        ({"T": [5]}, ["--T", "5"], "transmissivity must be in (0, 1], got 5.0"),
        ({"eps": -1}, ["--eps", "-1"], "excess_noise must be >= 0, got -1.0"),
    ], ids=["disclose", "T", "eps"])
    def test_config_range_error_names_key(self, tmp_path, capsys, config, flag, message):
        """A file value out of range names its key; the same flag value does not."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        for argv in (["--config", str(cfg)], flag):
            with pytest.raises(SystemExit) as exc:
                cli.main(["simulate", *argv, "--n", "300",
                          "--output", str(tmp_path / "o.csv")])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            named = f"config key {next(iter(config))!r}: {message}" in err
            assert message in err and named == (argv != flag)
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("argv, key", [
        (["simulate", "--seed", "-1", "--n", "200"], "seed"),
        (["sweep-finite", "--N", "1"], "N"),
        (["optimize", "--T", "0.6", "--W", "1e-3", "--N", "inf"], "N"),
        (["simulate", "--T", "0.1", "--d", "12", "--n", "0"], "n"),
        (["validate-fig2", "--n", "1"], "n"),
        (["simulate", "--T", "0.1", "--d", "-1", "--n", "300"], "displacement"),
        (["simulate", "--T", "0.1", "--d", "nan", "--n", "300"], "displacement"),
        (["validate-fig2", "--d", "-2"], "displacement"),
    ])
    def test_bad_flag_is_usage_error_naming_key(self, tmp_path, capsys, argv, key):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--output", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        assert f"{key} must be >= " in capsys.readouterr().err

    @pytest.mark.parametrize("n, fraction, m", [
        (500, 0.1, 50), (999, 0.1, 99), (175, 0.57, 99), (1001, 0.0999, 99),
        (1000, 0.1, 100), (200, 0.5, 100),
    ])
    def test_small_disclosed_sample_is_usage_error(self, tmp_path, capsys, n, fraction,
                                                   m):
        """Below int(f n) = 100 disclosed shots, exit 2 exactly where ``estimate``
        raises, with its message: 50 shots once wrote a flagged row."""
        chunks = shot_chunks(ProtocolParams(5.0, 12.0), ChannelParams(0.1, 0.05),
                             "uniform-random", n, 42)
        try:
            estimate(chunks, n, fraction)
            message = None
        except DomainError as exc:
            message = str(exc)
        argv = ["simulate", "--T", "0.1", "--d", "12", "--n", str(n),
                "--disclose", str(fraction), "--output", str(tmp_path / "o.csv")]
        assert message == (None if m >= 100 else
                           f"disclosed sample too small: {m} shots (need >= 100)")
        if message is None:
            assert cli.main(argv) == 0
            assert read_csv(tmp_path / "o.csv")[0]["error"] == ""
            return
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"{message}\n")
        assert not any(tmp_path.iterdir())

    def test_shot_count_beyond_floats_is_usage_error(self, tmp_path, capsys):
        """int(0.1 * 10**400) ended in an OverflowError traceback (exit 1)."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 10 ** 400}))
        message = f"n must be >= 2 and <= {2 ** 53}, got {10 ** 400}\n"
        for argv in (["--n", str(10 ** 400)], ["--config", str(cfg)]):
            with pytest.raises(SystemExit) as exc:
                cli.main(["simulate", "--T", "0.1", "--d", "12", "--disclose", "0.1",
                          *argv, "--output", str(tmp_path / "o.csv")])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.endswith(message)
            assert ("config key 'n'" in err) == (argv[0] == "--config")
        assert not (tmp_path / "o.csv").exists()

    def test_shots_output_takes_one_displacement(self, tmp_path, capsys):
        """One shots file cannot hold the shots of two batches."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--T", "0.1", "--V", "5", "--d", "12", "20",
                      "--n", "300", "--shots-output", str(tmp_path / "s.csv"),
                      "--output", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        assert "--shots-output holds the shots of one displacement, got 2" in (
            capsys.readouterr().err)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["--T", "0.1", "0.2"], "simulate runs at one T, got 2 transmissivities"),
        (["--db", "3", "10"], "simulate runs at one T, got 2 transmissivities"),
        (["--T-grid", "log:0.1:0.9:2"], "unrecognized arguments: --T-grid"),
        (["--config", "{dir}/cfg.json"], "simulate runs at one T, got 2 transmissivities"),
    ], ids=["T", "db", "T-grid", "config"])
    def test_simulate_takes_one_t(self, tmp_path, capsys, argv, message):
        """A simulate run is one batch per displacement at a single T; it has no grid."""
        (tmp_path / "cfg.json").write_text(json.dumps({"T": [0.1, 0.2]}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", *[arg.format(dir=tmp_path) for arg in argv],
                      "--n", "300", "--output", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

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

    @pytest.mark.parametrize("config, message", [
        ({"eps_qrng": math.nan}, "eps_qrng must be in [0, 1), got nan"),
        ({"eps_cal": math.inf}, "eps_cal must be in [0, 1), got inf"),
        ({"eps_ir": 1.0}, "eps_ir must be in [0, 1), got 1.0"),
        ({"eps_ir": 0.7, "eps_cal": 0.7}, "epsilon_total must be < 1, got 1.4000000005"),
        ({"d_rx": 10**400}, f"discretization_bits must be in 1..64, got {10**400}"),
        ({"d_rx": 99999999999999999999},
         "discretization_bits must be in 1..64, got 99999999999999999999"),
    ], ids=["eps_qrng-nan", "eps_cal-inf", "eps_ir-1", "eps-sum", "d_rx-huge", "d_rx-20"])
    @pytest.mark.parametrize("command", ["sweep-finite", "optimize"])
    def test_security_value_out_of_range_is_usage_error(self, tmp_path, capsys, command,
                                                        config, message):
        """Such values once gave a row with a nan, infinite or vacuous epsilon_total,
        a K_F of -4.7e18, or an OverflowError traceback."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in config.items()]
        for argv in (["--config", str(cfg)], flags):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--T", "0.5", "--W", "1e-3", "--N", "1e6", *argv,
                          "--output", str(tmp_path / "o.csv")])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            named = f"config key {next(iter(config))!r}: {message}\n" in err
            assert err.endswith(f"{message}\n") and named == (argv != flags)
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("flag, error", [
        ("--eps-ent=5e-324", "finite-size penalties out of range: ("),
        ("--eps-pe=5e-324", "estimator confidence out of range: eps_pe^2 / 1296 "
                            "underflows at eps_pe = 5e-324"),
    ], ids=["eps_ent", "eps_pe"])
    def test_penalty_out_of_range_flags_its_row(self, tmp_path, capsys, flag, error):
        """2 / eps_ent overflows: the row was once feasible with K_F = -inf.  eps_pe^2
        / 1296 underflows: the flag once named only the Beta quantile's z = 0."""
        out = tmp_path / "o.csv"
        assert cli.main(["sweep-finite", "--T", "0.5", "--W", "1e-3", "--N", "1e6", flag,
                         "--output", str(out)]) == 0
        row = read_csv(out)[0]
        assert (row["feasible"], row["K_F"], row["epsilon_total"]) == ("false", "", "")
        assert row["error"].startswith(error)
        assert ("inf" in row["error"]) == (flag == "--eps-ent=5e-324")
        assert "1 row(s) failed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep-asymptotic", "sweep-finite", "optimize"])
    def test_displacement_overflow_flags_its_row_without_warnings(self, tmp_path, capsys,
                                                                  command):
        """2 / T overflows: numpy warned on stderr, and the flag read
        "displacement must be >= 0, got nan"."""
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, "--T", "5e-324", "--W", "0.5",
                             "--output", str(out)]) == 0
        error = read_csv(out)[0]["error"]
        assert error.startswith("required displacement overflows: V + eps - 1 + 2 / T is "
                                "not finite at V = ")
        assert error.endswith(", eps = 0.05, T = 5e-324")
        assert "Warning" not in capsys.readouterr().err

    def test_displacement_overflow_in_the_v_search_flags_its_row(self, tmp_path, capsys):
        """The search's own error flags the row, at its first trial V."""
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["sweep-asymptotic", "--T", "5e-324", "--W", "0.5",
                             "--optimize-v", "--output", str(out)]) == 0
        (row,) = read_csv(out)
        assert (row["v_star"], row["feasible"]) == ("", "false")
        assert row["error"] == ("required displacement overflows: V + eps - 1 + 2 / T is "
                                "not finite at V = 1.001, eps = 0.05, T = 5e-324")
        assert "Warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["{", None], ids=["not-json", "missing"])
    def test_unreadable_config_file_is_usage_error(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        with pytest.raises(SystemExit) as exc:
            cli.main(["optimize", "--config", str(cfg), "--output", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        assert "cannot read config file: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep-finite", "--N", "1e10", "--p-f", "1e-9"],
        ["optimize", "--p-f", "1e-9"],  # asymptotic: p_f is not used
    ], ids=["sweep-finite", "optimize-asymptotic"])
    def test_small_p_f_runs_where_p_f_n_is_at_least_one(self, tmp_path, argv):
        out = tmp_path / "o.csv"
        assert cli.main([*argv, "--T", "0.5", "--W", "1e-3", "--output", str(out)]) == 0
        assert [row["error"] for row in read_csv(out)] == [""]

    def test_pure_state_is_a_row(self, tmp_path, capsys):
        """A lossless, noiseless channel keeps the state pure; from V of about 128 its
        second symplectic eigenvalue rounds below 1 by more than 1e-12, and g(x) flagged
        the row ("entropy g(x) requires x >= 1, got 0.999999999992724") although the
        physicality verdict had just accepted that eigenvalue within its 1e-9 slack."""
        out = tmp_path / "o.csv"
        assert cli.main(["optimize", "--T", "1", "--eps", "0", "--W", "0.5",
                         "--output", str(out)]) == 0
        (row,) = read_csv(out)
        assert (row["v_star"], row["k_star"], row["error"]) == (
            "999.9999999999998", "8.518864943775455", "")
        assert "failed" not in capsys.readouterr().err

    def test_pure_state_at_large_v_is_a_row(self, tmp_path, capsys):
        """At T = 1 and eps = 0 chi cancels to 0 within rounding that grows with V; at
        this V it is -1.3e-12, and the floor of -1e-12 on chi flagged the row ("negative
        holevo bound -1.320e-12")."""
        out = tmp_path / "o.csv"
        assert cli.main(["sweep-asymptotic", "--T", "1", "--eps", "0", "--W", "0.5",
                         "--V", "415.7809240652578", "--output", str(out)]) == 0
        (row,) = read_csv(out)
        assert (row["chi_EB"], row["K"], row["error"]) == ("0.0", "7.317988165334075", "")
        assert "failed" not in capsys.readouterr().err

    def test_stalled_beta_inverse_flags_its_row(self, tmp_path, capsys, monkeypatch):
        """A numerical budget that runs out flags the row, without a traceback."""
        monkeypatch.setattr(special, "_BISECT_STEPS", 1)
        out = tmp_path / "o.csv"
        assert cli.main(["optimize", "--T", "0.6", "--W", "1e-3", "--N", "1e6",
                         "--output", str(out)]) == 0
        (row,) = read_csv(out)
        assert row["v_star"] == ""
        assert row["error"].startswith(
            "beta inverse bisection stalled for a=500000, b=500000 (residual=")
        assert "1 row(s) failed" in capsys.readouterr().err


class TestRunErrors:
    """A run that cannot finish exits 1 with one JSON error record on stderr."""

    def test_output_below_a_regular_file(self, tmp_path, capsys):
        blocker = tmp_path / "f"
        blocker.write_text("")
        assert cli.main(["optimize", "--T", "0.6", "--W", "1e-3",
                         "--output", str(blocker / "o.csv")]) == 1
        out, err = capsys.readouterr()
        record = json.loads(err)
        assert set(record) == {"error", "message"}
        assert record["error"] == "FileExistsError"
        assert "wrote" not in out + err

    def test_shots_output_in_a_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert cli.main(["simulate", "--T", "0.1", "--d", "12", "--n", "300",
                         "--shots-output", str(tmp_path / "missing" / "s.csv"),
                         "--output", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert json.loads(err)["error"] == "FileNotFoundError"
        assert "wrote" not in stdout
        assert list(tmp_path.iterdir()) == []  # no artifact, no shots file


# one bad value per checked option, in the order in which values are checked
BAD = {"db": -1, "p_f": 1.5, "d_rx": 0,
       **{key: -1 for key in ("eps_pe", "eps_s", "eps_h", "eps_ent", "eps_qrng", "eps_ir",
                              "eps_cal")},
       "N": 1, "T": 2, "eps": -1, "sigma": -1, "V": 0.5, "beta": 1.5, "W": 0.7,
       "seed": -1, "disclose": 1.5, "d": -1, "n": 1}


class TestFirstErrorOrder:
    """With two bad values, the usage error is the one the earlier value alone
    gives, whether each value comes from a flag or from the config file."""

    OPTIONS = {opt.dest: opt for opt in cli._OPTIONS}

    def usage_error(self, tmp_path, capsys, command, values, in_file):
        """The stderr of a run given ``values``, each by the config file if its key
        is in ``in_file``, else by its flag, in the order of ``values``."""
        argv = [command, "--output", str(tmp_path / "o.csv")]
        argv += [f"--{key.replace('_', '-')}={value}" for key, value in values.items()
                 if key not in in_file]
        if in_file:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: [value] if self.OPTIONS[key].many else value
                                       for key, value in values.items() if key in in_file}))
            argv += ["--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize("command", [name for name in cli._COMMANDS if sum(
        name in opt.commands for opt in cli._OPTIONS if opt.dest in BAD) > 1])
    def test_pairs_report_the_earlier_option(self, tmp_path, capsys, command):
        keys = [key for key in BAD if command in self.OPTIONS[key].commands]
        alone = {(key, bool(in_file)): self.usage_error(
                     tmp_path, capsys, command, {key: BAD[key]}, in_file)
                 for key in keys for in_file in ((), (key,))}
        assert len(set(alone.values())) == len(alone)  # each names its option apart
        for i, first in enumerate(keys):
            for second in keys[i + 1:]:
                if {first, second} <= set(cli._T_ALTERNATIVES):
                    continue  # mutually exclusive
                for in_file in ((), (first,), (second,), (first, second)):
                    for pair in ((first, second), (second, first)):  # both orders given
                        err = self.usage_error(tmp_path, capsys, command,
                                               {key: BAD[key] for key in pair}, in_file)
                        assert err == alone[first, first in in_file], (pair, in_file)

    def test_transmissivity_from_db_is_checked_at_its_turn(self, tmp_path, capsys):
        """4,000 dB is a valid attenuation whose T underflows to 0: the T it gives
        is reported after the security options and before eps, named by db."""
        t_error = "config key 'db': transmissivity must be in (0, 1], got 0.0\n"
        for other, first in (("eps_pe", False), ("eps", True)):
            err = self.usage_error(tmp_path, capsys, "sweep-finite",
                                   {"db": 4000, other: BAD[other]}, ("db",))
            assert err.endswith(t_error) == first, other


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
        # (p_f eps_s^2 / 3)^2 underflows to 0: once a ZeroDivisionError traceback
        (["optimize", "--T", "0.5", "--W", "1e-3", "--N", "1e6", "--eps-s", "1e-200"],
         {"N": "1000000.0", "v_star": "", "error": "smoothing penalty out of range: "
          "(p_f eps_s^2 / 3)^2 underflows at p_f = 0.9964, eps_s = 1e-200"}),
    ], ids=["optimize", "compare-baseline", "simulate", "validate-fig2",
            "sweep-asymptotic-overflow", "optimize-eps-s-underflow"])
    def test_failing_point_is_flagged_row(self, tmp_path, capsys, argv, echoed):
        out = tmp_path / "o.csv"
        assert cli.main([*argv, "--output", str(out)]) == 0
        row = read_csv(out)[0]
        assert {k: row[k] for k in echoed} == echoed
        assert "1 row(s) failed" in capsys.readouterr().err


class TestPipelineEvaluations:
    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """The element count of each ``keyrate._chain`` call: every evaluation, from
        ``rate_cells`` or from a search row, passes through it."""
        calls = []
        original = keyrate._chain

        def counted(checks, v, *args):
            calls.append(np.size(v))
            return original(checks, v, *args)

        monkeypatch.setattr(keyrate, "_chain", counted)
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

    @pytest.mark.parametrize("extra", [[], ["--N", "1e6"]], ids=["asymptotic", "N1e6"])
    def test_lone_search_call_pattern(self, tmp_path, kernel_calls, extra):
        """A lone search is one call on its 60-point coarse grid, then one one-element
        call for each later evaluation: its two first inner points and 17 steps."""
        assert cli.main(["optimize", "--T", "0.6", "--W", "1e-3", *extra,
                         "--output", str(tmp_path / "o.csv")]) == 0
        assert read_csv(tmp_path / "o.csv")[0]["evaluations"] == "79"
        assert kernel_calls == [60] + [1] * 19

    @pytest.mark.parametrize("argv, rows, models", [
        (["sweep-asymptotic", "--W", "0.5", "1e-3", "--T-grid", "log:0.01:0.9:50",
          "--optimize-v"], 100, 1),
        (["sweep-finite", "--T-grid", "log:0.1:0.9:20", "--W", "1e-3", "--optimize-v",
          "--N", "1e8"], 20, 1),
        (["compare-baseline", "--W", "0.5", "1e-3", "--T-grid", "log:0.01:0.9:50"], 100, 2),
    ], ids=["sweep-asymptotic", "sweep-finite", "compare-baseline"])
    def test_row_constants_once_per_run_and_model(self, tmp_path, monkeypatch, argv,
                                                  rows, models):
        """A sweep's V search and its diagnostics share one set of kernel rows: each
        row's displacement factor and finite-block terms are resolved once per model."""
        calls = {"factor": 0, "terms": 0}
        factor, terms = keyrate._displacement_factor, finitekey.SecurityParams._rate_terms

        def counted_factor(w):
            calls["factor"] += 1
            return factor(w)

        def counted_terms(sec):
            calls["terms"] += 1
            return terms(sec)

        monkeypatch.setattr(keyrate, "_displacement_factor", counted_factor)
        monkeypatch.setattr(finitekey.SecurityParams, "_rate_terms", counted_terms)
        out = tmp_path / "o.csv"
        assert cli.main([*argv, "--output", str(out)]) == 0
        assert len(read_csv(out)) == rows
        assert calls == {"factor": rows * models, "terms": rows if "--N" in argv else 0}

    @pytest.fixture
    def quantile_calls(self, monkeypatch):
        calls = []
        original = finitekey.beta_inv_cdf_symmetric

        def counted(z, half_n, *args, **kwargs):
            calls.append(half_n)
            return original(z, half_n, *args, **kwargs)

        monkeypatch.setattr(finitekey, "beta_inv_cdf_symmetric", counted)
        return calls

    @pytest.mark.parametrize("argv, blocks", [
        (["optimize", "--T", "0.6", "--N", "1e6"], 1),
        (["optimize", "--T", "0.6"], 0),
        (["sweep-finite", "--optimize-v", "--T", "0.3", "0.6", "--N", "1e8", "1e4"], 2),
        (["optimize", "--T", "0.6", "--N", "1e6", "1e4"], 2),
    ], ids=["optimize-N", "optimize-asymptotic", "sweep-finite-optimize-v",
            "optimize-two-N"])
    def test_two_beta_quantiles_per_finite_row(self, tmp_path, quantile_calls,
                                               argv, blocks):
        """Every row at a block size, its search and its K^F share one pair of
        quantiles: a run makes two per block size, however many rows it has."""
        out = tmp_path / "o.csv"
        assert cli.main([*argv, "--W", "1e-3", "--output", str(out)]) == 0
        assert len(quantile_calls) == 2 * blocks
        # a second run in the same process pays for its own quantiles
        assert cli.main([*argv, "--W", "1e-3", "--output", str(out)]) == 0
        assert len(quantile_calls) == 4 * blocks

    def test_one_delta_terms_per_finite_row(self, tmp_path, monkeypatch):
        """The finite-size penalties are computed once per row, not per evaluation."""
        calls = []
        original = finitekey.SecurityParams._penalties.func

        def counted(sec):
            calls.append(sec.block_size)
            return original(sec)

        penalties = functools.cached_property(counted)
        penalties.__set_name__(finitekey.SecurityParams, "_penalties")
        monkeypatch.setattr(finitekey.SecurityParams, "_penalties", penalties)
        argv = ["optimize", "--T", "0.6", "--W", "1e-3", "--N", "1e6",
                "--output", str(tmp_path / "o.csv")]
        assert cli.main(argv) == 0
        assert calls == [1e6]
        # a second run in the same process computes its own penalties
        assert cli.main(argv) == 0
        assert calls == [1e6, 1e6]

    def test_each_shot_classified_once(self, tmp_path, monkeypatch):
        """Each shot is classified exactly once, one chunk at a time.

        The calls of each batch sum to its shots, and no call exceeds a chunk.
        """
        calls = []
        original = montecarlo._classify

        def counted(points):
            calls.append(len(points))
            return original(points)

        monkeypatch.setattr(montecarlo, "_classify", counted)
        monkeypatch.setattr(montecarlo, "_CHUNK", 700)
        assert cli.main(["simulate", "--T", "0.1", "--V", "5", "--d", "12", "0",
                         "--n", "2000", "--disclose", "0.1",
                         "--output", str(tmp_path / "o.csv")]) == 0
        assert calls == [700, 700, 600] * 2


class TestShotsFile:
    # floats at the edges of repr's forms: non-finite, signed zeros, subnormals,
    # the switches to and from exponent notation and the largest double
    EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1e-5, 1e-4,
             1e16, 1.7976931348623157e308]

    def test_dump_writes_the_bytes_of_the_csv_module(self, tmp_path):
        """Two hand-built chunks, after a non-zero start, holding every edge value
        in every float column and its negation in the next chunk."""
        edges = np.array(self.EDGES)
        cells = np.stack([np.roll(edges, j) for j in range(6)], axis=1)
        symbols = np.arange(len(edges), dtype=np.int64)
        chunks = [montecarlo.ShotChunk(3, cells[:, :4], cells[:, 4:],
                                       symbols % 4 + 1, (symbols + 1) % 4 + 1),
                  montecarlo.ShotChunk(3 + len(edges), -cells[:5, :4], -cells[:5, 4:],
                                       symbols[:5] % 2 + 3, symbols[:5] % 3 + 1)]
        passed = list(cli._dumped(iter(chunks), str(tmp_path / "dump.csv")))
        assert all(a is b for a, b in zip(passed, chunks)) and len(passed) == 2
        write_shots_csv(chunks, tmp_path / "oracle.csv")
        dump = (tmp_path / "dump.csv").read_bytes()
        assert dump == (tmp_path / "oracle.csv").read_bytes()
        assert dump.count(b"\r\n") == 1 + len(edges) + 5

    @pytest.mark.parametrize("shots, output, config", [
        ("same.csv", "same.csv", None),
        ("sub/../same.csv", "{dir}/same.csv", None),
        ("simulate.csv", None, None),  # the default artifact path
        ("./simulate.json", None, {"fmt": "json"}),
        (None, "same.csv", {"shots_output": "same.csv"}),
    ], ids=["flags", "aliased", "default", "default-json", "config"])
    def test_shots_file_that_is_the_artifact_is_usage_error(
            self, tmp_path, monkeypatch, capsys, shots, output, config):
        """The artifact, written last, would overwrite the shots it names."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
        (tmp_path / "sub").mkdir()
        argv = ["simulate", "--T", "0.1", "--d", "12", "--n", "300"]
        if shots is not None:
            argv += ["--shots-output", shots]
        if output is not None:
            argv += ["--output", output.format(dir=tmp_path)]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", "cfg.json"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "names the artifact's file" in err
        assert ("config key 'shots_output'" in err) == (shots is None)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["sub"] + ["cfg.json"] * (config is not None))


class TestStreamedMonteCarlo:
    """The Monte Carlo streams in chunks: outputs do not depend on their size,
    and memory does not grow with the number of shots."""

    RUNS = {
        # m = 1,000 disclosed shots ends inside a chunk of 7 and of 4,099
        "disclose": ["--n", "10007", "--seed", "5", "--disclose", "0.1"],
        "shots": ["--n", "10007", "--seed", "6", "--symbol", "2",
                  "--shots-output", "{dir}/scatter.csv"],
        "two": ["--n", "2", "--seed", "7"],
        "three": ["--n", "3", "--seed", "8", "--symbol", "1"],
    }
    EXACT = {"e_C_hat", "e_C_se", "snr_hat"}  # from error counts alone

    def outputs(self, directory: pathlib.Path) -> dict:
        """Each run's row, and the dump's bytes."""
        directory.mkdir()
        out = {}
        for name, flags in self.RUNS.items():
            argv = ["simulate", "--T", "0.1", "--V", "5", "--d", "12",
                    *[flag.format(dir=directory) for flag in flags],
                    "--output", str(directory / f"{name}.csv")]
            assert cli.main(argv) == 0
            out[name] = read_csv(directory / f"{name}.csv")[0]
        out["dump"] = (directory / "scatter.csv").read_bytes()
        return out

    @pytest.mark.parametrize("chunk", [7, 4_099])
    def test_chunk_size_changes_no_output(self, tmp_path, monkeypatch, chunk):
        expected = self.outputs(tmp_path / "default")
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        got = self.outputs(tmp_path / "patched")
        # the dump holds the bytes the csv module writes for the same chunks
        write_shots_csv(montecarlo.shot_chunks(ProtocolParams(5.0, 12.0, 0.95),
                                               ChannelParams(0.1, 0.05), 2, 10_007, 6),
                        tmp_path / "oracle.csv")
        assert got["dump"] == (tmp_path / "oracle.csv").read_bytes()
        assert got["dump"].count(b"\r\n") == 10_008
        assert got.pop("dump") == expected.pop("dump")
        for name, row in got.items():
            assert row.keys() == expected[name].keys()
            for column, value in row.items():
                ref = expected[name][column]
                if column in self.EXACT or value == ref:
                    assert value == ref, (name, column)
                else:
                    assert float(value) == pytest.approx(float(ref), rel=1e-12), (
                        name, column)
        for name in ("two", "three"):
            assert all(got[name][se] == "nan" for se in (
                "a_se", "b_se", "c_se", "e_C_se", "mean_bx_se", "mean_by_se"))

    def test_memory_does_not_grow_with_shots(self, tmp_path):
        def simulate(n):
            assert cli.main(["simulate", "--T", "0.1", "--V", "5", "--d", "20",
                             "--n", str(n), "--disclose", "0.1",
                             "--output", str(tmp_path / "o.csv")]) == 0

        simulate(2_000)  # one-time allocations (imports, caches) out of the peaks
        peaks = {}
        for n in (200_000, 1_000_000):
            tracemalloc.start()
            try:
                simulate(n)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[1_000_000] <= 1.25 * peaks[200_000], peaks
        assert peaks[1_000_000] < 32 * 2**20, peaks
