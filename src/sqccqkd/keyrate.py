"""Asymptotic secret-key rate and the scalar search over modulation variance.

Rates follow the reverse-reconciliation recipe: K = beta * I_AB - chi_EB,
with both information quantities evaluated on the Gaussian-equivalent
state after postprocessing and renormalisation.  The residual mean is
recorded on the state but never enters the entropies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import ChannelParams, ProtocolParams, qi_baseline_state
from .errors import DomainError, NumericError, PhysicalityError
from .gaussian import (
    TwoModeGaussian,
    conditional_eigenvalue,
    g_function,
    is_physical,
    symplectic_spectrum,
)
from .postprocess import (
    RenormResult,
    RenormStrategy,
    postprocess_stats,
    renormalised_moments,
    required_displacement,
)

__all__ = [
    "KeyRateResult",
    "Optimum",
    "mutual_information",
    "holevo_bound",
    "asymptotic_rate",
    "asymptotic_rate_of",
    "baseline_rate",
    "optimise_v",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_V_BRACKET = (1.001, 1e3)  # the search range of V
_LOG_V_TOL = 1e-4  # golden-section stop: bracket width in log V


@dataclass(frozen=True)
class KeyRateResult:
    """Rate decomposition K = beta * I_AB - chi_EB and the physicality flag."""

    mutual_information: float
    holevo: float
    rate: float
    feasible: bool


@dataclass(frozen=True)
class Optimum:
    """Result of the scalar maximisation over the modulation variance."""

    v_star: float
    k_star: float
    evaluations: int
    bracket: tuple[float, float]


def mutual_information(state: TwoModeGaussian, double: bool = False) -> float:
    """Reverse-reconciliation mutual information of the Gaussian state (bits).

    ``double`` applies a factor 2 for dual-quadrature accounting; it is
    off by default and excluded from all shipped figures.
    """
    denom = state.a + 1.0 - state.c ** 2 / (state.b + 1.0)
    if denom <= 0.0:
        raise NumericError(f"mutual information denominator {denom:.3e} <= 0")
    value = math.log2((state.a + 1.0) / denom)
    return 2.0 * value if double else value


def holevo_bound(state: TwoModeGaussian) -> float:
    """Eavesdropper information bound under collective Gaussian attacks (bits)."""
    verdict = is_physical(state)
    if not verdict.physical:
        raise PhysicalityError(
            f"holevo bound needs a physical state; {verdict.reason} violates "
            f"the vacuum limit by {verdict.margin:.3e}"
        )
    spectrum = symplectic_spectrum(state)
    lam3 = conditional_eigenvalue(state)
    chi = g_function(spectrum.lambda1) + g_function(spectrum.lambda2) - g_function(lam3)
    if chi < 0.0:
        if chi < -1e-12:
            raise NumericError(f"negative holevo bound {chi:.3e}")
        chi = 0.0
    return chi


def asymptotic_rate(proto: ProtocolParams, chan: ChannelParams,
                    strategy: RenormStrategy = RenormStrategy.B_PRESERVING,
                    mi_double: bool = False) -> KeyRateResult:
    """Asymptotic secret-key rate of the full postprocessing pipeline.

    An infeasible renormalisation is flagged, not raised, so parameter
    sweeps can record the region instead of aborting.
    """
    _, renorm = renormalised_moments(proto, chan, strategy)
    return asymptotic_rate_of(renorm, proto, mi_double)


def asymptotic_rate_of(renorm: RenormResult, proto: ProtocolParams,
                       mi_double: bool = False) -> KeyRateResult:
    """``asymptotic_rate`` of a renormalisation already computed at (proto, chan)."""
    return _rate(renorm.state_prime, renorm.physical.passed, proto, mi_double)


def baseline_rate(proto: ProtocolParams, chan: ChannelParams,
                  mi_double: bool = False) -> KeyRateResult:
    """Rate under the prior-literature coupling model (no renormalisation)."""
    e_c = postprocess_stats(proto, chan).e_c
    state = qi_baseline_state(proto, chan, e_c)
    return _rate(state, is_physical(state).physical, proto, mi_double)


def _rate(state: TwoModeGaussian, feasible: bool, proto: ProtocolParams,
          mi_double: bool, eve: TwoModeGaussian | None = None) -> KeyRateResult:
    """K = beta * I_AB - chi_EB, with I_AB on ``state`` and chi_EB on ``eve``.

    ``eve`` defaults to ``state``; the finite-key rate passes the state
    widened to its worst-case covariance estimates.
    """
    mi = mutual_information(state, double=mi_double)
    chi = holevo_bound(state if eve is None else eve)
    return KeyRateResult(
        mutual_information=mi,
        holevo=chi,
        rate=proto.reconciliation_efficiency * mi - chi,
        feasible=feasible,
    )


def _pinned_objective(chan: ChannelParams, qos_threshold: float, beta: float, rate):
    """V -> ``rate(proto).rate`` with d pinned by the QoS threshold; -inf if infeasible."""

    def objective(v: float) -> float:
        d = required_displacement(v, chan, qos_threshold)
        res = rate(ProtocolParams(v, d, beta))
        return res.rate if res.feasible else -math.inf

    return objective


def _qos_objective(chan: ChannelParams, qos_threshold: float, beta: float,
                   strategy: RenormStrategy, model: str, mi_double: bool):
    """Rate as a function of V alone, with d pinned by the QoS constraint."""
    rates = {"sqcc": lambda proto: asymptotic_rate(proto, chan, strategy, mi_double),
             "baseline": lambda proto: baseline_rate(proto, chan, mi_double)}
    if model not in rates:
        raise DomainError(f"unknown rate model {model!r}")
    return _pinned_objective(chan, qos_threshold, beta, rates[model])


def maximise_scalar(objective, coarse_points: int = 60) -> Optimum:
    """Coarse log grid over V in [1.001, 1e3] plus golden-section refinement.

    Deterministic by construction.  If no evaluated point yields a
    positive value the optimum is reported as no-key: k_star = 0 with
    v_star = nan.
    """
    log_low, log_high = (math.log(v) for v in _V_BRACKET)
    logs = [log_low + i * (log_high - log_low) / (coarse_points - 1)
            for i in range(coarse_points)]
    grid = [math.exp(u) for u in logs]
    values = [objective(v) for v in grid]
    evaluations = len(grid)
    i_best = max(range(len(grid)), key=lambda i: values[i])

    lo = logs[max(i_best - 1, 0)]
    hi = logs[min(i_best + 1, len(logs) - 1)]
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1 = objective(math.exp(x1))
    f2 = objective(math.exp(x2))
    evaluations += 2
    while (hi - lo) > _LOG_V_TOL:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = objective(math.exp(x2))
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = objective(math.exp(x1))
        evaluations += 1

    candidates = [
        (values[i_best], grid[i_best]),
        (f1, math.exp(x1)),
        (f2, math.exp(x2)),
    ]
    k_best, v_best = max(candidates, key=lambda kv: kv[0])
    bracket = (math.exp(lo), math.exp(hi))
    if not (k_best > 0.0) or not math.isfinite(k_best):
        return Optimum(v_star=math.nan, k_star=0.0,
                       evaluations=evaluations, bracket=bracket)
    return Optimum(v_star=v_best, k_star=k_best,
                   evaluations=evaluations, bracket=bracket)


def optimise_v(chan: ChannelParams, qos_threshold: float,
               strategy: RenormStrategy = RenormStrategy.B_PRESERVING,
               beta: float = 0.95, model: str = "sqcc",
               mi_double: bool = False) -> Optimum:
    """Maximise the asymptotic rate over the modulation variance.

    The displacement is re-derived from the QoS threshold at every trial
    V, so the classical bit-error rate stays pinned across the search.
    """
    objective = _qos_objective(chan, qos_threshold, beta, strategy, model, mi_double)
    return maximise_scalar(objective)
