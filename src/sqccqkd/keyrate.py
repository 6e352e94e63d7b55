"""Secret-key rates, asymptotic and finite-block, and the search over modulation variance.

Rates follow the reverse-reconciliation recipe: K = beta * I_AB - chi_EB,
with both information quantities evaluated on the Gaussian-equivalent
state after postprocessing and renormalisation; the finite-block rate
takes chi_EB at worst-case estimates and subtracts ``finitekey``'s
penalties.  The residual mean never enters the entropies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import ChannelParams, ProtocolParams, qi_baseline_state
from .errors import DomainError, NumericError, PhysicalityError
from .finitekey import FiniteKeyResult, SecurityParams, worst_case_estimators
from .gaussian import TwoModeGaussian, conditional_eigenvalue, g_function, is_physical
from .postprocess import (
    RenormStrategy,
    postprocess_stats,
    renormalise,
    required_displacement,
)

__all__ = [
    "KeyRateResult",
    "Optimum",
    "mutual_information",
    "holevo_bound",
    "key_rate",
    "asymptotic_rate",
    "baseline_rate",
    "finite_rate",
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
    spectrum = verdict.spectrum
    lam3 = conditional_eigenvalue(state)
    chi = g_function(spectrum.lambda1) + g_function(spectrum.lambda2) - g_function(lam3)
    if chi < 0.0:
        if chi < -1e-12:
            raise NumericError(f"negative holevo bound {chi:.3e}")
        chi = 0.0
    return chi


def key_rate(state: TwoModeGaussian, feasible: bool, proto: ProtocolParams,
             mi_double: bool = False,
             sec: SecurityParams | None = None) -> KeyRateResult | FiniteKeyResult:
    """K = beta * I_AB - chi_EB of ``state``; with ``sec``, the finite-block K^F = l / N.

    With ``sec``, chi_EB is taken at the worst-case covariance estimates of
    ``state`` and the finite-size penalties are subtracted.
    """
    eve = state
    if sec is not None:
        sig_a, sig_b, sig_c = worst_case_estimators(state.a, state.b, state.c, sec)
        eve = TwoModeGaussian(mean=state.mean, a=sig_a, b=sig_b, c=sig_c)
    mi = mutual_information(state, double=mi_double)
    chi = holevo_bound(eve)
    k = proto.reconciliation_efficiency * mi - chi
    if sec is None:
        return KeyRateResult(mutual_information=mi, holevo=chi, rate=k,
                             feasible=feasible)

    d = sec._delta_terms
    n = sec.block_size
    p_f = sec.frame_success
    rate = (p_f * k
            - math.sqrt(p_f / n) * d.aep
            - math.sqrt(p_f * math.log2(p_f * n) / n) * d.ent
            + d.s / n
            + d.h / n)
    return FiniteKeyResult(
        k_pe_inf=k,
        key_length=rate * n,
        rate=rate,
        epsilon_total=sec.epsilon_total(),
        feasible=feasible,
    )


def _sqcc_state(proto: ProtocolParams, chan: ChannelParams,
                strategy: RenormStrategy) -> tuple[TwoModeGaussian, bool]:
    """The renormalised SQCC state and whether the renormalisation passed."""
    renorm = renormalise(proto, chan, strategy)
    return renorm.state_prime, renorm.physical.passed


def _baseline_state(proto: ProtocolParams, chan: ChannelParams,
                    strategy: RenormStrategy) -> tuple[TwoModeGaussian, bool]:
    """The prior-literature state (bit errors as excess noise; no renormalisation)."""
    state = qi_baseline_state(proto, chan, postprocess_stats(proto, chan).e_c)
    return state, is_physical(state).physical


def asymptotic_rate(proto: ProtocolParams, chan: ChannelParams,
                    strategy: RenormStrategy = RenormStrategy.B_PRESERVING,
                    mi_double: bool = False) -> KeyRateResult:
    """Asymptotic secret-key rate of the full postprocessing pipeline.

    An infeasible renormalisation is flagged, not raised, so parameter
    sweeps can record the region instead of aborting.
    """
    return key_rate(*_sqcc_state(proto, chan, strategy), proto, mi_double)


def baseline_rate(proto: ProtocolParams, chan: ChannelParams,
                  mi_double: bool = False) -> KeyRateResult:
    """Rate under the prior-literature coupling model (no renormalisation)."""
    return key_rate(*_baseline_state(proto, chan, None), proto, mi_double)


def finite_rate(proto: ProtocolParams, chan: ChannelParams,
                strategy: RenormStrategy = RenormStrategy.B_PRESERVING,
                sec: SecurityParams = SecurityParams(block_size=1e8),
                mi_double: bool = False) -> FiniteKeyResult:
    """Finite-block secret-key rate K^F = l / N of the full pipeline."""
    return key_rate(*_sqcc_state(proto, chan, strategy), proto, mi_double, sec)


def _qos_objective(chan: ChannelParams, qos_threshold: float, beta: float,
                   strategy: RenormStrategy, model: str, mi_double: bool,
                   sec: SecurityParams | None = None):
    """Rate as a function of V alone, with d pinned by the QoS constraint.

    ``model`` picks the coupling model and ``sec`` the finite-block rate;
    an infeasible point scores -inf.
    """
    state_of = {"sqcc": _sqcc_state, "baseline": _baseline_state}.get(model)
    if state_of is None:
        raise DomainError(f"unknown rate model {model!r}")

    def objective(v: float) -> float:
        proto = ProtocolParams(v, required_displacement(v, chan, qos_threshold), beta)
        res = key_rate(*state_of(proto, chan, strategy), proto, mi_double, sec)
        return res.rate if res.feasible else -math.inf

    return objective


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
    if not (k_best > 0.0) or not math.isfinite(k_best):
        k_best, v_best = 0.0, math.nan
    return Optimum(v_star=v_best, k_star=k_best, evaluations=evaluations,
                   bracket=(math.exp(lo), math.exp(hi)))


def optimise_v(chan: ChannelParams, qos_threshold: float,
               strategy: RenormStrategy = RenormStrategy.B_PRESERVING,
               beta: float = 0.95, model: str = "sqcc",
               mi_double: bool = False, sec: SecurityParams | None = None) -> Optimum:
    """Maximise the asymptotic rate, or with ``sec`` the finite-block rate, over V.

    The displacement is re-derived from the QoS threshold at every trial
    V, so the classical bit-error rate stays pinned across the search.
    """
    return maximise_scalar(_qos_objective(chan, qos_threshold, beta, strategy, model,
                                          mi_double, sec))
