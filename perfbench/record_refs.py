"""Record the reference outputs that the benchmark's checks compare against.

Run from the repository root:  python3 perfbench/record_refs.py

The files in perfbench/refs/ were recorded at the commit named in
refs/meta.json.  They define the input pools the workloads draw from and
the rows those inputs must produce, so re-recording them is a change to
the benchmark, never part of a change that claims a speed-up.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from env import git_commit  # noqa: E402

POOL_SEED = 20250503
OPTIMIZE_POOL = 1024
FINITE_POOL = 96
MC_D = [f"{20 + 0.5 * i:.1f}" for i in range(7)]


def _cli(argv: list[str], path: str) -> list[dict]:
    from sqccqkd import cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([*argv, "--output", path])
    if rc != 0:
        raise SystemExit(f"reference command failed: {argv}")
    return workloads.read_csv(path)


def _write(name: str, rows: list[dict], columns: list[str] | None = None) -> None:
    columns = columns or list(rows[0])
    with open(os.path.join(workloads.REFS_DIR, name), "w", newline="") as fh:
        writer = csv.DictWriter(fh, columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    print(f"{name}: {len(rows)} rows")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> str:
    return repr(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def main() -> None:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    os.makedirs(workloads.REFS_DIR, exist_ok=True)
    scratch = os.path.join(workloads.REFS_DIR, "_scratch.csv")
    rng = random.Random(POOL_SEED)
    grid = ["--W", *workloads.README_W, "--T-grid", workloads.README_T_GRID]
    try:
        _write("asymptotic_sweep.csv",
               _cli(["sweep-asymptotic", *grid, "--optimize-v"], scratch))
        _write("compare_baseline.csv", _cli(["compare-baseline", *grid], scratch))

        pool = []
        for _ in range(OPTIMIZE_POOL):
            t, w = _log_uniform(rng, 0.01, 0.9), _log_uniform(rng, 1e-6, 0.5)
            pool += _cli(["optimize", "--T", t, "--W", w], scratch)
        _write("optimize_pool.csv", pool,
               ["T", "W", "v_star", "k_star", "bracket_low", "bracket_high"])

        ts = [_log_uniform(rng, 0.1, 0.9) for _ in range(FINITE_POOL)]
        _write("finite_pool.csv",
               _cli(["sweep-finite", "--T", *ts, "--W", workloads.FINITE_W,
                     "--optimize-v", "--N", *workloads.FINITE_N], scratch))

        analytic = ["snr", "e_C", "a_d", "b_d", "c_d"]
        _write("mc_analytic.csv",
               _cli(["simulate", "--T", workloads.MC_T, "--V", workloads.MC_V,
                     "--d", *MC_D, "--n", "1000"], scratch),
               ["T", "V", "d", "eps", "beta", *analytic])
        _write("validate_fig2.csv", _cli(["validate-fig2", "--n", "1000"], scratch),
               ["d", "V", "T", "eps", *analytic])
    finally:
        if os.path.exists(scratch):
            os.remove(scratch)

    import numpy
    import sqccqkd

    meta = {"commit": git_commit(os.getcwd()), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "rng": sqccqkd.RNG_ALGORITHM,
            "pool_seed": POOL_SEED}
    with open(os.path.join(workloads.REFS_DIR, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
