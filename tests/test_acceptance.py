"""Acceptance gate: eleven criteria, each printed as its own pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

import sqccqkd.cli as cli
from sqccqkd.channel import ChannelParams, ProtocolParams
from sqccqkd.finitekey import SecurityParams
from sqccqkd.keyrate import optimise_v, rate_at
from sqccqkd.montecarlo import estimate, shot_chunks
from sqccqkd.postprocess import RenormStrategy, required_displacement
from sqccqkd.special import _erfc, beta_inv_cdf_symmetric, beta_reg, erfc_inv, \
    normal_quantile

from helpers import qos_objective, renormalised, shared
from oracles import beta_density_integral, brute_force_optimum

REF_CHAN = ChannelParams(0.1, 0.05)
D_GRID = [float(d) for d in range(0, 21, 2)]
SHOTS = 100_000


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {criterion:2d}: {status} - {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


@dataclass
class SweepPoint:
    d: float
    stats: object
    moments: object


@pytest.fixture(scope="module")
def reference_sweep():
    """Shared simulation of the reference sweep (criteria 1 and 2)."""
    t0 = time.monotonic()
    points = []
    for i, d in enumerate(D_GRID):
        proto = ProtocolParams(5.0, d, 0.95)
        stats = renormalised(proto, REF_CHAN)
        moments, _ = estimate(shot_chunks(proto, REF_CHAN, 1, SHOTS, 1000 + i), SHOTS)
        points.append(SweepPoint(d, stats, moments))
    return points, time.monotonic() - t0


@pytest.fixture(scope="module")
def advantage_grid():
    """Optimised new-model and baseline rates over the figure grid (4, 5, 6)."""
    t0 = time.monotonic()
    t_grid = [float(t) for t in np.geomspace(0.01, 0.9, 24)]
    table = {}
    for w in (1e-3, 1e-6):
        per_t = []
        for t in t_grid:
            chan = ChannelParams(t, 0.05)
            new_b = optimise_v(chan, w, RenormStrategy.B_PRESERVING)
            new_c = optimise_v(chan, w, RenormStrategy.C_PRESERVING)
            base = optimise_v(chan, w, model="baseline")
            per_t.append((t, new_b, new_c, base))
        table[w] = per_t
    return t_grid, table, time.monotonic() - t0


def test_criterion_1_moment_reproduction(reference_sweep):
    points, elapsed = reference_sweep
    worst = 0.0
    for p in points:
        for hat, se, ref in ((p.moments.a_hat, p.moments.a_se, p.stats.a_d),
                             (p.moments.b_hat, p.moments.b_se, p.stats.b_d),
                             (p.moments.c_hat, p.moments.c_se, p.stats.c_d)):
            worst = max(worst, abs(hat - ref) / se)
    passed = worst <= 5.0 and elapsed < 60.0
    report(1, passed,
           f"moment deviation max {worst:.2f} SE over d grid "
           f"(n={SHOTS}), runtime {elapsed:.1f}s < 60s")


def test_criterion_2_classical_ber_oracle(reference_sweep):
    points, _ = reference_sweep
    worst = 0.0
    for p in points:
        m = p.moments
        se = math.sqrt(max(p.stats.e_c * (1 - p.stats.e_c), 1e-12) / (2 * SHOTS))
        worst = max(worst, abs(m.e_c_hat - p.stats.e_c) / se)
    rng = np.random.default_rng(2024)
    worst_rt = 0.0
    for _ in range(100):
        v = 10 ** rng.uniform(0.001, 2.0)
        chan = ChannelParams(rng.uniform(0.02, 1.0), rng.uniform(0.0, 0.4))
        w = 10 ** rng.uniform(-8, math.log10(0.5))
        d = required_displacement(v, chan, w)
        e_c = renormalised(ProtocolParams(v, d), chan).e_c
        worst_rt = max(worst_rt, abs(e_c - w))
    passed = worst <= 5.0 and worst_rt < 1e-9
    report(2, passed,
           f"e_C deviation max {worst:.2f} binomial SE; "
           f"QoS roundtrip residual max {worst_rt:.2e} < 1e-9")


def test_criterion_3_limit_consistency():
    t_grid = np.geomspace(0.01, 0.9, 20)
    worst_half = worst_big = 0.0
    for t in t_grid:
        chan = ChannelParams(float(t), 0.05)
        plain = rate_at(ProtocolParams(5.0, 0.0, 0.95), chan)["K"]
        d_half = required_displacement(5.0, chan, 0.5)
        at_half = rate_at(ProtocolParams(5.0, d_half, 0.95), chan)["K"]
        worst_half = max(worst_half, abs(at_half - plain))
        b = shared(ProtocolParams(5.0, 0.0), chan)[1]
        d_big = math.sqrt(1e4 * (b + 1.0) / float(t))  # snr = 1e4
        at_big = rate_at(ProtocolParams(5.0, d_big, 0.95), chan)["K"]
        worst_big = max(worst_big, abs(at_big - plain))
    passed = worst_half < 1e-9 and worst_big < 1e-6
    report(3, passed,
           f"|K(W=0.5) - K_het| max {worst_half:.2e} < 1e-9; "
           f"|K(snr=1e4) - K_het| max {worst_big:.2e} < 1e-6 on 20-point grid")


def test_criterion_4_advantage_claim(advantage_grid):
    t_grid, table, elapsed = advantage_grid
    dominated = True
    cutoffs_ok = True
    detail = []
    for w, rows in table.items():
        for _, new_b, _, base in rows:
            if new_b.k_star < base.k_star - 1e-12:
                dominated = False
        t_new = next((t for t, nb, _, _ in rows if nb.k_star > 0.0), None)
        t_base = next((t for t, _, _, ba in rows if ba.k_star > 0.0), None)
        if t_new is None:
            cutoffs_ok = False
        elif t_base is not None and not t_new < t_base:
            cutoffs_ok = False
        detail.append(f"W={w:g}: first positive T new={t_new} baseline={t_base}")
    passed = dominated and cutoffs_ok and elapsed < 300.0
    report(4, passed,
           f"optimised K >= baseline everywhere; {'; '.join(detail)}; "
           f"runtime {elapsed:.1f}s < 300s")


def test_criterion_5_physicality_suite(advantage_grid):
    t_grid, table, _ = advantage_grid
    violations = 0
    checks = 0
    for w in table:
        for t in t_grid:
            chan = ChannelParams(t, 0.05)
            for v in (1.5, 3.0, 5.0, 12.0, 60.0):
                d = required_displacement(v, chan, w)
                proto = ProtocolParams(v, d, 0.95)
                _, b, c = shared(proto, chan)
                res_b = renormalised(proto, chan, RenormStrategy.B_PRESERVING)
                res_c = renormalised(proto, chan, RenormStrategy.C_PRESERVING)
                checks += 1
                if not (res_b.c_prime <= c + 1e-12
                        and res_b.t_v <= 1.0 + 1e-12
                        and res_b.passed
                        and res_c.b_prime >= b - 1e-12
                        and res_c.passed):
                    violations += 1
    passed = violations == 0
    report(5, passed, f"{checks} grid points, {violations} physicality violations")


def test_criterion_6_renormalisation_ordering(advantage_grid):
    t_grid, table, _ = advantage_grid
    worst = -math.inf
    ordered = True
    for w, rows in table.items():
        for _, new_b, new_c, _ in rows:
            if new_b.k_star < new_c.k_star - 1e-12:
                ordered = False
            worst = max(worst, new_c.k_star - new_b.k_star)
    report(6, ordered,
           f"K(B-preserving) >= K(C-preserving) at every grid point "
           f"(max shortfall {worst:.2e})")


def test_criterion_7_finite_key_behaviour():
    sec8 = SecurityParams(block_size=1e8)
    positive = []
    for t in (0.1, 0.3, 0.5, 0.7, 0.9):
        opt = optimise_v(ChannelParams(t, 0.05), 1e-3, sec=sec8)
        if opt.k_star > 0.0:
            positive.append((t, opt.k_star))
    some_positive = bool(positive)

    chan = ChannelParams(0.9, 0.05)
    d = required_displacement(3.0, chan, 1e-3)
    proto = ProtocolParams(3.0, d, 0.95)
    rates = [rate_at(proto, chan, sec=SecurityParams(block_size=n))["K_F"]
             for n in (1e6, 1e7, 1e8, 1e10, 1e14)]
    monotone = all(b >= a for a, b in zip(rates, rates[1:]))

    res = rate_at(proto, chan, sec=SecurityParams(block_size=1e16))
    rel = abs(res["K_F"] - 0.9964 * res["K_PE"]) / abs(res["K_F"])
    converged = rel < 1e-3

    passed = some_positive and monotone and converged
    report(7, passed,
           f"K_F > 0 at T>=0.1/W=1e-3/N=1e8 at {positive}; monotone in N: "
           f"{monotone}; N=1e16 relative gap {rel:.2e} < 1e-3")


def test_criterion_8_special_function_oracles():
    rng = np.random.default_rng(808)
    worst_beta = 0.0
    for _ in range(1000):
        a = 10 ** rng.uniform(-1, 3)
        b = 10 ** rng.uniform(-1, 3)
        x = rng.uniform(0.0, 1.0)
        worst_beta = max(worst_beta,
                         abs(beta_reg(x, a, b) - beta_density_integral(x, a, b)))

    worst_branch = 0.0
    for z in (0.025, 0.1, 0.3, 8.333333e-12):
        bisect = beta_inv_cdf_symmetric(z, 1e6)
        normal = 0.5 + normal_quantile(z) / math.sqrt(8e6 + 4.0)
        worst_branch = max(worst_branch, abs(bisect - normal))

    ys = np.random.default_rng(809).uniform(1e-12, 2 - 1e-12, 10_000)
    worst_rt = max(abs(_erfc(erfc_inv(float(y))) - float(y)) for y in ys)

    passed = worst_beta < 1e-10 and worst_branch < 1e-6 and worst_rt < 1e-12
    report(8, passed,
           f"beta vs quadrature max {worst_beta:.2e} < 1e-10 (1e3 draws); "
           f"branch gap max {worst_branch:.2e} < 1e-6; "
           f"erfc_inv roundtrip max {worst_rt:.2e} < 1e-12 (1e4 points)")


def test_criterion_9_optimiser_oracle():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(10):
        t = rng.uniform(0.3, 0.9)
        eps = rng.uniform(0.005, 0.08)
        w = 10 ** rng.uniform(-4, math.log10(0.5))
        chan = ChannelParams(t, eps)
        opt = optimise_v(chan, w)
        ref = brute_force_optimum(qos_objective(chan, w), n_points=10_000)
        if ref > 0.0:
            worst = max(worst, abs(opt.k_star - ref) / ref)
        else:
            worst = max(worst, abs(opt.k_star - ref))
    passed = worst < 1e-5
    report(9, passed,
           f"golden-section vs 1e4-point brute force: max relative gap "
           f"{worst:.2e} < 1e-5 over 10 instances")


def test_criterion_10_determinism(tmp_path):
    first = tmp_path / "run1.csv"
    second = tmp_path / "run2.csv"
    assert cli.main(["validate-fig2", "--seed", "42", "--output", str(first)]) == 0
    assert cli.main(["validate-fig2", "--seed", "42", "--output", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    report(10, identical,
           f"two validate-fig2 --seed 42 runs byte-identical "
           f"({first.stat().st_size} bytes)")


def test_criterion_11_finite_key_advantage():
    """The finite-key SQCC rate is never below the prior model's where either has key."""
    t0 = time.monotonic()
    keyed, violations, sqcc_keyed = 0, [], set()
    for n in (1e6, 1e8, 1e10):
        sec = SecurityParams(block_size=n)
        for w in (1e-3, 1e-6):
            for t in np.geomspace(0.01, 0.9, 24):
                chan = ChannelParams(float(t), 0.05)
                new = optimise_v(chan, w, sec=sec).k_star
                old = optimise_v(chan, w, model="baseline", sec=sec).k_star
                if new > 0.0 or old > 0.0:
                    keyed += 1
                    if new < old - 1e-12:
                        violations.append((n, w, float(t)))
                if new > 0.0:
                    sqcc_keyed.add(n)
    elapsed = time.monotonic() - t0
    passed = not violations and {1e8, 1e10} <= sqcc_keyed
    report(11, passed,
           f"K_F(SQCC) >= K_F(baseline) at all {keyed} keyed points of 24 T x 2 W x "
           f"N in {{1e6, 1e8, 1e10}} (violations {violations}); SQCC key at N = "
           f"{sorted(sqcc_keyed)}; runtime {elapsed:.1f}s")
