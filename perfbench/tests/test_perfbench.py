"""Tests of the benchmark itself, at a tiny size.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run as bench_run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("asymptotic", "finite-key", "monte-carlo")
SEED = 3

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Two traced tiny runs per workload with the same seed, spans loaded after each."""
    out = {}
    for workload in WORKLOADS:
        runs = []
        for _ in range(2):
            result = result_of(bench(workload, 1))
            path = os.path.join(ROOT, bench_run.OUT_DIR,
                                f"{workload}-seed{SEED}-trace1.spans.npz")
            with np.load(path) as z:
                spans = {k: z[k] for k in z.files}
            runs.append((result, spans))
        out[workload] = runs
    return out


def test_benchmark_json_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == bench_run.END_TO_END_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_passes_its_checks(workload):
    result = result_of(bench(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(bench_run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(traced, workload):
    result, _ = traced[workload][0]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(traced, workload):
    (first, _), (second, _) = traced[workload]
    timed = ("self_s", "total_s", "overhead_frac")
    counts = [k for k in first["metrics"] if not k.endswith(timed)]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest_and_self_times_sum_to_commands(traced, workload):
    _, spans = traced[workload][0]
    parent, start, end = spans["parent"], spans["start_ns"], spans["end_ns"]
    names, cmd, self_ns = spans["names"], spans["cmd"], spans["self_ns"]
    idx = np.arange(len(parent))
    child = parent >= 0
    assert np.all(parent[child] < idx[child])
    assert np.all(start[child] >= start[parent[child]])
    assert np.all(end[child] <= end[parent[child]])
    assert np.all(cmd[child] == cmd[parent[child]])
    assert np.all(self_ns >= 0)
    roots = np.flatnonzero(~child)
    assert all(names[spans["name"][r]] == "cli.main" for r in roots)
    per_cmd = np.bincount(cmd, weights=self_ns)
    for r in roots:
        assert per_cmd[cmd[r]] == end[r] - start[r]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("asymptotic", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_checks_reject_wrong_rows():
    refs = workloads.References()
    good = dict(refs.asymptotic_sweep[0])
    assert workloads.compare_rows([good], [refs.asymptotic_sweep[0]], "x") == []
    bad = dict(good, K=repr(float(good["K"]) * (1 + 1e-4)))
    assert workloads.compare_rows([bad], [refs.asymptotic_sweep[0]], "x")
    flagged = dict(good, error="boom")
    assert workloads.compare_rows([flagged], [refs.asymptotic_sweep[0]], "x")

    ref = refs.mc[refs.mc_d[0]]
    row = dict(ref, n="100000", a_hat=ref["a_d"], a_se="0.01", b_hat=ref["b_d"],
               b_se="0.01", c_hat=ref["c_d"], c_se="0.01", e_C_hat=ref["e_C"],
               snr_hat=repr(0.5 * float(ref["snr"])), error="")
    assert workloads.check_moments(row, ref, "x") == []
    shifted = dict(row, b_hat=repr(float(ref["b_d"]) + 0.1))
    assert workloads.check_moments(shifted, ref, "x")
    overstated = dict(row, snr_hat=repr(2.0 * float(ref["snr"])))
    assert workloads.check_moments(overstated, ref, "x")
