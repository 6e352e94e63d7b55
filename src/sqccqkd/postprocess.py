"""Threshold discrimination, re-displacement moments, and renormalisation.

The receiver classifies each heterodyne outcome by phase-space quadrant,
subtracts the centroid of the decided symbol, and rescales the result so
the surviving Gaussian-order statistics match a physically legitimate
effective channel.  This module carries the closed-form moments of that
pipeline and both renormalisation strategies, written once over arrays
(the ``_moments`` and ``_rescale`` stages of ``keyrate.rate_cells``); the
public functions evaluate them at one point.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, ProtocolParams, shared_state
from .errors import Checks, DomainError, NumericError
from .gaussian import TwoModeGaussian, _check_finite, _check_overflow, _physicality
from .special import _erfc, _exp, _isinf, _square, _where, erfc_inv

__all__ = [
    "RenormStrategy",
    "PostprocessStats",
    "RenormResult",
    "error_rate_from_snr",
    "shrinkage_from_snr",
    "variance_shift_factor",
    "postprocess_stats",
    "renormalise",
    "required_displacement",
]

_MARGIN_TOL = 1e-12


class RenormStrategy(enum.Enum):
    """Which second moment the electronic rescaling holds fixed."""

    B_PRESERVING = "b-preserving"
    C_PRESERVING = "c-preserving"


@dataclass(frozen=True)
class PostprocessStats:
    """Gaussian-order statistics after discrimination and re-displacement.

    ``base`` is the shared state (first alphabet symbol) they derive from.
    """

    snr: float
    e_c: float
    delta: float
    a_d: float
    b_d: float
    c_d: float
    mean_d: np.ndarray
    base: TwoModeGaussian

    def __post_init__(self):
        object.__setattr__(self, "mean_d", np.asarray(self.mean_d, dtype=float))


@dataclass(frozen=True)
class RenormResult:
    """Postprocessed moments, their rescaled state and its effective channel.

    ``effective_transmissivity``/``effective_excess_noise`` describe the
    single bosonic channel reproducing the rescaled covariance: (T, eps +
    eps_eff) for the correlation-preserving choice, (T*T_v, eps + eps_v/T)
    for the variance-preserving one.  ``passed`` says the rescaling
    emulates a physical operation: its ``margin`` (slack where > 0) holds
    and the rescaled state passes the uncertainty-principle test.
    """

    stats: PostprocessStats
    strategy: RenormStrategy
    delta_v: float
    state_prime: TwoModeGaussian
    effective_transmissivity: float
    effective_excess_noise: float
    virtual_transmissivity: float
    virtual_excess_noise: float
    passed: bool
    margin: float


def _check_snr(checks: Checks, snr) -> None:
    checks.add(snr < 0.0, DomainError, "snr must be >= 0, got {}", snr)


def _error_rate(snr):
    """``error_rate_from_snr`` over arrays of valid SNR."""
    return _where(_isinf(snr), 0.0, 0.5 * _erfc(np.sqrt(snr) / 2.0))


def _shrinkage(snr):
    """``shrinkage_from_snr`` over arrays of valid SNR."""
    return _where(_isinf(snr), 0.0, np.sqrt(snr / math.pi) * _exp(-snr / 4.0))


@np.errstate(all="ignore")
def error_rate_from_snr(snr: float) -> float:
    """Per-axis classical bit-error rate at a given quasi-SNR."""
    checks = Checks()
    _check_snr(checks, snr)
    checks.add(np.isnan(snr), DomainError, "x must be finite, got nan")  # erfc's check
    checks.raise_first()
    return float(_error_rate(np.float64(snr)))


@np.errstate(all="ignore")
def shrinkage_from_snr(snr: float) -> float:
    """Correlation-shrinkage factor from erroneous re-displacement."""
    checks = Checks()
    _check_snr(checks, snr)
    checks.raise_first()
    return float(_shrinkage(np.float64(snr)))


def variance_shift_factor(snr: float) -> float:
    """Relative shift g of the receiver outcome variance: b_d + 1 = (b + 1)(1 + g).

    g = 2*snr*e_c - 2*delta - 2*snr*e_c^2; this is also Delta_V - 1 for the
    variance-preserving rescaling, which makes it the quantity the receiver
    infers from a bit-error-rate estimate alone.
    """
    if math.isinf(snr):
        return 0.0
    e_c = error_rate_from_snr(snr)
    delta = shrinkage_from_snr(snr)
    return 2.0 * snr * e_c - 2.0 * delta - 2.0 * snr * e_c * e_c


def _snr(t, d, b):
    """T d^2 and the quasi-SNR T d^2 / (b + 1) over arrays."""
    td2 = t * d * d
    return td2, td2 / (b + 1.0)


def _moments(checks: Checks, td2, snr, b, c):
    """(e_c, delta, b_d, c_d) after discrimination and re-displacement, over arrays."""
    _check_snr(checks, snr)
    e_c = _error_rate(snr)
    delta = _shrinkage(snr)
    b_d = b + 2.0 * td2 * e_c - 2.0 * (b + 1.0) * delta - 2.0 * td2 * e_c * e_c
    return e_c, delta, b_d, c * (1.0 - delta)


def _rescale(checks: Checks, strategy: RenormStrategy, a, b, c, b_d, c_d, delta):
    """``renormalise`` over arrays: (delta_v, b', c', margin, passed, verdict).

    ``verdict`` is the physicality verdict of the rescaled state, taken
    for every element; its overflow is recorded only where the margin holds.
    """
    if strategy is RenormStrategy.B_PRESERVING:
        delta_v = (b_d + 1.0) / (b + 1.0)
    elif strategy is RenormStrategy.C_PRESERVING:
        delta_v = _square(1.0 - delta)
    else:
        checks.add(True, DomainError, "unknown renormalisation strategy {!r}", strategy)
        delta_v = np.full(np.shape(b), math.nan)
    checks.add(delta_v <= 0.0, NumericError, "non-positive rescaling factor {:.3e}",
               delta_v)
    if strategy is RenormStrategy.C_PRESERVING:
        b_prime = (b_d + 1.0) / delta_v - 1.0
        c_prime = c
    else:
        b_prime = b
        c_prime = c_d / np.sqrt(delta_v)
    _check_finite(checks, a, b_prime, c_prime)
    margin = _margin(strategy, b, c, b_prime, c_prime)
    passed, verdict = _judge(checks, margin, a, b_prime, c_prime)
    return delta_v, b_prime, c_prime, margin, passed, verdict


def _margin(strategy: RenormStrategy, b, c, b_prime, c_prime):
    """B_PRESERVING must not grow the correlation (margin = c - c'),
    C_PRESERVING must not shrink the receiver variance (margin = b' - b)."""
    if strategy is RenormStrategy.B_PRESERVING:
        return c - c_prime
    return b_prime - b


def _judge(checks: Checks, margin, a, b_prime, c_prime):
    """(passed, verdict) of the rescaled state over arrays.

    The uncertainty-principle test is only taken where the margin holds,
    so only there can its overflow raise.
    """
    margin_ok = margin >= -_MARGIN_TOL
    verdict = _physicality(a, b_prime, c_prime)
    _check_overflow(checks, verdict.overflow & margin_ok, a, b_prime, c_prime)
    return margin_ok & verdict.physical, verdict


@np.errstate(all="ignore")
def postprocess_stats(proto: ProtocolParams, chan: ChannelParams) -> PostprocessStats:
    """Closed-form moments of the discriminated and re-displaced outcomes.

    Derived for the sub-ensemble of the first alphabet symbol; by symmetry
    the covariance applies to every symbol, with the residual mean pattern
    reflected into the matching quadrant.
    """
    state = shared_state(proto, chan, symbol_index=1)
    t = chan.transmissivity
    d = proto.displacement
    checks = Checks()
    td2, snr = _snr(np.float64(t), d, state.b)
    e_c, delta, b_d, c_d = (float(x)
                            for x in _moments(checks, td2, snr, state.b, state.c))
    checks.raise_first()
    residual = 2.0 * math.sqrt(t) * d * e_c / math.sqrt(2.0)
    return PostprocessStats(
        snr=float(snr),
        e_c=e_c,
        delta=delta,
        a_d=state.a,
        b_d=b_d,
        c_d=c_d,
        mean_d=np.array([0.0, 0.0, residual, residual]),
        base=state,
    )


@np.errstate(all="ignore")
def renormalise(proto: ProtocolParams, chan: ChannelParams,
                strategy: RenormStrategy = RenormStrategy.B_PRESERVING) -> RenormResult:
    """Postprocessed moments at one operating point, rescaled by 1/sqrt(Delta_V).

    B_PRESERVING restores the receiver variance (Delta_V = (b_d+1)/(b+1));
    C_PRESERVING restores the cross correlation (Delta_V = (1-delta)^2).
    The attached effective channel, built on the physical (T, eps_tot) of
    ``chan``, reproduces the rescaled (b', c') exactly when re-composed,
    which is the property the physicality check rests on.
    """
    stats = postprocess_stats(proto, chan)
    base = stats.base
    checks = Checks()
    delta_v, b_prime, c_prime, margin, passed = (np.asarray(x).item() for x in _rescale(
        checks, strategy, stats.a_d, np.float64(base.b), base.c, stats.b_d, stats.c_d,
        stats.delta)[:5])
    checks.raise_first()
    t = chan.transmissivity
    eps_tot = chan.total_excess_noise(proto.displacement)
    if strategy is RenormStrategy.B_PRESERVING:
        # virtual channel appended after the physical one; T_v is fixed by
        # requiring the composed covariance to reproduce (b', c') exactly
        t_v = (1.0 - stats.delta) ** 2 / delta_v
        eps_v = (base.b - 1.0) * (1.0 / t_v - 1.0)
        eff_t = t * t_v
        eff_eps = eps_tot + eps_v / t
    else:
        t_v = 1.0
        eps_v = 0.0
        eff_t = t
        eff_eps = eps_tot + (b_prime - base.b) / t
    mean_prime = base.mean.copy()
    mean_prime[2:] = stats.mean_d[2:] / math.sqrt(delta_v)
    return RenormResult(
        stats=stats,
        strategy=strategy,
        delta_v=delta_v,
        state_prime=TwoModeGaussian(mean=mean_prime, a=stats.a_d, b=b_prime, c=c_prime),
        effective_transmissivity=eff_t,
        effective_excess_noise=eff_eps,
        virtual_transmissivity=t_v,
        virtual_excess_noise=eps_v,
        passed=passed,
        margin=margin,
    )


def _displacement_factor(qos_threshold: float) -> float:
    """2 erfc^-1(2W): the displacement per unit receiver noise at threshold W."""
    if not (0.0 < qos_threshold <= 0.5):
        raise DomainError(f"qos_threshold must be in (0, 0.5], got {qos_threshold}")
    return 2.0 * erfc_inv(2.0 * qos_threshold)


def _displacement(v, t, eps, factor):
    """``required_displacement`` over arrays, from ``_displacement_factor``."""
    return factor * np.sqrt(v + eps - 1.0 + 2.0 / t)


def required_displacement(modulation_variance: float, chan: ChannelParams,
                          qos_threshold: float) -> float:
    """Smallest displacement meeting a classical bit-error-rate target.

    Inverts e_c = W at fixed channel parameters (phase noise excluded, so
    the bit-error rate evaluated at the returned displacement reproduces W
    exactly).  W = 0.5 needs no classical separation and returns 0.
    """
    factor = _displacement_factor(qos_threshold)
    if not (1.0 <= modulation_variance < math.inf):
        raise DomainError(
            f"modulation_variance must be >= 1, got {modulation_variance}"
        )
    return float(_displacement(modulation_variance, chan.transmissivity,
                              chan.excess_noise, factor))
