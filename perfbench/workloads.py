"""Workload plans and the correctness checks that run after every command.

A plan draws cycles from the workload seed; a cycle is a list of CLI
commands, each with the check that judges its artifact.  An untraced run
draws one cycle and repeats it.  Every input is
drawn from the workload seed.  Analytic inputs are drawn from pools whose
outputs were recorded at the seed commit (``refs/``, written by
``record_refs.py``); Monte Carlo rows are judged statistically against
the recorded analytic moments, so a new random stream is not a failure.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Iterator

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

README_T_GRID = "log:0.01:0.9:50"
README_W = ("0.5", "1e-3")
FINITE_W = "1e-3"
FINITE_N = ("1e4", "1e6", "1e8")
MC_T, MC_V = "0.1", "5"
# query timings an untraced run takes at least; an asymptotic cycle holds
# 200 distinct queries, so >= 20 lie beyond its p90
MIN_QUERIES = 100

# Tolerances against the seed-commit references.  Rates are flat at the
# optimum, so they are held tightly; the location of the optimum (V and
# what is evaluated at it) may move by the optimiser's own tolerance
# (1e-4 in log V) when a comparison flips on last-digit drift.
RATE_RTOL, RATE_ATOL = 1e-6, 1e-9
LOCATION_RTOL = 1e-3
VALUE_RTOL = 1e-6
RATE_COLUMNS = {"k_star", "K", "K_PE", "K_F", "k_star_sqcc", "k_star_baseline", "ell"}
LOCATION_COLUMNS = {"v_star", "V", "bracket_low", "bracket_high",
                    "v_star_sqcc", "v_star_baseline"}
UNCHECKED_COLUMNS = {"evaluations", "rng", "error"}

# Monte Carlo standard errors come from 16 sub-batches, so the studentised
# deviation follows t(15).  8.267 SE under t(15) has the two-sided tail of
# 5 SE under the normal law (5.7e-7), which keeps false alarms negligible
# over thousands of checks.  The binomial e_C error is not estimated, so it
# keeps the 5 SE criterion.
MC_T15_LIMIT = 8.267
MC_Z_LIMIT = 5.0


@dataclass
class Command:
    """One CLI invocation and how to judge what it wrote."""

    argv: list[str]
    output: str
    check: Callable[[list[dict]], list[str]]
    query: bool = False
    shots: int = 0
    dump: str = ""
    dump_rows: int = 0


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- comparisons --------------------------------------------------------------


def _close(new: str, ref: str, rtol: float, atol: float = 0.0) -> bool:
    if new == ref:
        return True
    try:
        x, y = float(new), float(ref)
    except ValueError:
        return False
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= atol + rtol * abs(y)


def compare_row(new: dict, ref: dict, label: str) -> list[str]:
    """Compare the columns the two rows share, by column class."""
    if new.get("error"):
        return [f"{label}: flagged row: {new['error']}"]
    v_new, v_ref = new.get("V"), ref.get("V")
    tight = v_new is None or v_ref is None or _close(v_new, v_ref, 1e-12)
    failures = []
    for col, ref_value in ref.items():
        if col in UNCHECKED_COLUMNS or col not in new:
            continue
        value = new[col]
        if col in RATE_COLUMNS:
            atol = RATE_ATOL * float(ref.get("N") or 1.0) if col == "ell" else RATE_ATOL
            ok = _close(value, ref_value, RATE_RTOL, atol)
        elif col in LOCATION_COLUMNS:
            ok = _close(value, ref_value, LOCATION_RTOL)
        else:
            ok = _close(value, ref_value, VALUE_RTOL if tight else LOCATION_RTOL,
                        RATE_ATOL)
        if not ok:
            failures.append(f"{label}: {col}={value} but reference {ref_value}")
    return failures


def compare_rows(rows: list[dict], refs: list[dict], label: str) -> list[str]:
    if len(rows) != len(refs):
        return [f"{label}: {len(rows)} rows, reference has {len(refs)}"]
    failures = []
    for i, (row, ref) in enumerate(zip(rows, refs)):
        failures += compare_row(row, ref, f"{label} row {i}")
    return failures


def check_moments(row: dict, ref: dict, label: str) -> list[str]:
    """Simulated moments against the recorded analytic ones."""
    failures = compare_row(row, ref, label)
    if failures:
        return failures
    for q in ("a", "b", "c"):
        dev = abs(float(row[f"{q}_hat"]) - float(ref[f"{q}_d"]))
        if not dev <= MC_T15_LIMIT * float(row[f"{q}_se"]):
            failures.append(f"{label}: {q}_hat={row[f'{q}_hat']} vs {ref[f'{q}_d']} "
                            f"(se {row[f'{q}_se']})")
    e_c, n = float(ref["e_C"]), int(row["n"])
    binom_se = math.sqrt(max(e_c * (1.0 - e_c), 1e-12) / (2 * n))
    if not abs(float(row["e_C_hat"]) - e_c) <= MC_Z_LIMIT * binom_se:
        failures.append(f"{label}: e_C_hat={row['e_C_hat']} vs {e_c}")
    if row.get("snr_hat"):
        # certified floor: exceeds the truth with probability <= eps_pe
        if not 0.0 < float(row["snr_hat"]) <= float(ref["snr"]):
            failures.append(f"{label}: snr_hat={row['snr_hat']} above snr={ref['snr']}")
    return failures


def check_dump(path: str, n: int) -> list[str]:
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.rstrip(b"\n").split(b"\n")
    if len(lines) != n + 1:
        return [f"{path}: {len(lines) - 1} shots dumped, expected {n}"]
    last = lines[-1].split(b",")
    if len(last) != 9 or last[0] != str(n - 1).encode():
        return [f"{path}: malformed last shot row"]
    return []


# -- references ---------------------------------------------------------------


class References:
    """Seed-commit outputs that define the input pools and expected rows."""

    def __init__(self, directory: str = REFS_DIR):
        def load(name):
            return read_csv(os.path.join(directory, name))

        self.asymptotic_sweep = load("asymptotic_sweep.csv")
        self.compare_baseline = load("compare_baseline.csv")
        self.optimize_pool = load("optimize_pool.csv")
        self.finite = {(r["T"], float(r["N"])): r for r in load("finite_pool.csv")}
        self.finite_t = sorted({t for t, _ in self.finite}, key=float)
        self.mc = {r["d"]: r for r in load("mc_analytic.csv")}
        self.mc_d = sorted(self.mc, key=float)
        self.validate = {r["d"]: r for r in load("validate_fig2.csv")}


def _draws(rng: random.Random, pool: list) -> Iterator:
    """Endless draws without replacement, reshuffled when the pool runs out."""
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order


# -- plans --------------------------------------------------------------------


class Plan:
    """Seeded command cycles for one workload; ``tiny`` shrinks every part."""

    def __init__(self, refs: References, seed: int, workdir: str, tiny: bool = False):
        self.refs = refs
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.tiny = tiny

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def cycle(self) -> list[Command]:
        raise NotImplementedError


class Asymptotic(Plan):
    """README asymptotic sweep, compare-baseline, and seeded optimize queries."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.points = _draws(self.rng, self.refs.optimize_pool)

    def cycle(self) -> list[Command]:
        grid = ["--W", *README_W, "--T-grid", README_T_GRID]
        sweep = Command(
            ["sweep-asymptotic", *grid, "--optimize-v",
             "--output", self.path("asymptotic-rates.csv")],
            self.path("asymptotic-rates.csv"),
            lambda rows: compare_rows(rows, self.refs.asymptotic_sweep, "sweep-asymptotic"))
        compare = Command(
            ["compare-baseline", *grid, "--output", self.path("compare-baseline.csv")],
            self.path("compare-baseline.csv"),
            lambda rows: compare_rows(rows, self.refs.compare_baseline, "compare-baseline"))
        half = 2 if self.tiny else 100
        first = [self.query() for _ in range(half)]
        second = [self.query() for _ in range(half)]
        return [sweep, *first, compare, *second]

    def query(self) -> Command:
        ref = next(self.points)
        out = self.path("opt.csv")
        return Command(
            ["optimize", "--T", ref["T"], "--W", ref["W"], "--output", out], out,
            lambda rows: compare_rows(rows, [ref], f"optimize T={ref['T']} W={ref['W']}"),
            query=True)


class FiniteKey(Plan):
    """Finite-size sweep and optimize queries at N = 1e4, 1e6 and 1e8."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.t_values = _draws(self.rng, self.refs.finite_t)

    def cycle(self) -> list[Command]:
        n_sweep, n_query = (1, 1) if self.tiny else (4, 12)
        ts = [next(self.t_values) for _ in range(n_sweep)]
        out = self.path("finite-rates.csv")
        expected = [self.refs.finite[(t, float(n))] for n in FINITE_N for t in ts]
        sweep = Command(
            ["sweep-finite", "--T", *ts, "--W", FINITE_W, "--optimize-v",
             "--N", *FINITE_N, "--output", out], out,
            lambda rows: compare_rows(rows, expected, "sweep-finite"))
        queries = []
        for _ in range(n_query):
            t = next(self.t_values)
            for n in FINITE_N:
                queries.append(self.query(t, n))
        return [sweep, *queries]

    def query(self, t: str, n: str) -> Command:
        ref = self.refs.finite[(t, float(n))]
        out = self.path("opt-finite.csv")
        return Command(
            ["optimize", "--T", t, "--W", FINITE_W, "--N", n, "--output", out], out,
            lambda rows: compare_rows(rows, [ref], f"optimize T={t} N={n}"),
            query=True)


class MonteCarlo(Plan):
    """1e6-shot uniform-schedule simulate with disclosure, validate-fig2,
    the README shot dump, and 1e5-shot simulate queries."""

    def seed(self) -> str:
        return str(self.rng.randrange(2 ** 31))

    def cycle(self) -> list[Command]:
        scale = 100 if self.tiny else 1
        big_n, small_n = 1_000_000 // scale, 100_000 // scale
        common = ["--T", MC_T, "--V", MC_V]
        ds = self.rng.sample(self.refs.mc_d, 3)
        out = self.path("sim.csv")
        big = Command(
            ["simulate", *common, "--d", *ds, "--n", str(big_n), "--seed", self.seed(),
             "--disclose", "0.1", "--output", out], out,
            lambda rows: self.check_moment_rows(rows, ds, self.refs.mc, "simulate"),
            shots=3 * big_n)

        out_v = self.path("moment-validation.csv")
        validate_d = sorted(self.refs.validate, key=float)
        d_flags = []
        if self.tiny:
            validate_d = validate_d[::5]
            d_flags = ["--d", *validate_d]
        validate = Command(
            ["validate-fig2", "--n", str(small_n), "--seed", self.seed(), *d_flags,
             "--output", out_v], out_v,
            lambda rows: self.check_moment_rows(rows, validate_d, self.refs.validate,
                                                "validate-fig2"),
            shots=len(validate_d) * small_n)

        d = self.rng.choice(self.refs.mc_d)
        out_s = self.path("scatter-sim.csv")
        dump = Command(
            ["simulate", *common, "--d", d, "--n", str(small_n), "--seed", self.seed(),
             "--symbol", str(self.rng.randint(1, 4)),
             "--shots-output", self.path("scatter.csv"), "--output", out_s], out_s,
            lambda rows: self.check_moment_rows(rows, [d], self.refs.mc, "simulate"),
            shots=small_n,
            dump=self.path("scatter.csv"), dump_rows=small_n)

        queries = []
        for _ in range(2 if self.tiny else 25):
            dq = self.rng.choice(self.refs.mc_d)
            out_q = self.path("sim-query.csv")
            queries.append(Command(
                ["simulate", *common, "--d", dq, "--n", str(small_n), "--seed",
                 self.seed(), "--disclose", "0.1", "--output", out_q], out_q,
                lambda rows, dq=dq: self.check_moment_rows(rows, [dq], self.refs.mc,
                                                           "simulate"),
                query=True, shots=small_n))
        return [big, validate, dump, *queries]

    @staticmethod
    def check_moment_rows(rows: list[dict], ds: list[str], refs: dict,
                          label: str) -> list[str]:
        if len(rows) != len(ds):
            return [f"{label}: {len(rows)} rows, expected {len(ds)}"]
        return [m for row, d in zip(rows, ds)
                for m in check_moments(row, refs[d], f"{label} d={d}")]


PLANS = {"asymptotic": Asymptotic, "finite-key": FiniteKey, "monte-carlo": MonteCarlo}
