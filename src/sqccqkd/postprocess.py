"""Threshold discrimination, re-displacement moments, and renormalisation.

The receiver classifies each heterodyne outcome by phase-space quadrant,
subtracts the centroid of the decided symbol, and rescales the result so
the surviving Gaussian-order statistics match a physically legitimate
effective channel.  This module carries the closed-form moments of that
pipeline and both renormalisation strategies.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, ProtocolParams, shared_state
from .errors import DomainError, NumericError
from .gaussian import TwoModeGaussian, is_physical
from .special import erfc, erfc_inv

__all__ = [
    "RenormStrategy",
    "PostprocessStats",
    "RenormResult",
    "CheckResult",
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
    for the variance-preserving one.
    """

    stats: PostprocessStats
    strategy: RenormStrategy
    delta_v: float
    state_prime: TwoModeGaussian
    effective_transmissivity: float
    effective_excess_noise: float
    virtual_transmissivity: float
    virtual_excess_noise: float
    physical: "CheckResult"


@dataclass(frozen=True)
class CheckResult:
    """Physicality verdict for a renormalisation; margin > 0 is slack."""

    passed: bool
    margin: float

    def __bool__(self) -> bool:
        return self.passed


def error_rate_from_snr(snr: float) -> float:
    """Per-axis classical bit-error rate at a given quasi-SNR."""
    if snr < 0.0:
        raise DomainError(f"snr must be >= 0, got {snr}")
    if math.isinf(snr):
        return 0.0
    return 0.5 * erfc(math.sqrt(snr) / 2.0)


def shrinkage_from_snr(snr: float) -> float:
    """Correlation-shrinkage factor from erroneous re-displacement."""
    if snr < 0.0:
        raise DomainError(f"snr must be >= 0, got {snr}")
    if math.isinf(snr):
        return 0.0
    return math.sqrt(snr / math.pi) * math.exp(-snr / 4.0)


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


def postprocess_stats(proto: ProtocolParams, chan: ChannelParams) -> PostprocessStats:
    """Closed-form moments of the discriminated and re-displaced outcomes.

    Derived for the sub-ensemble of the first alphabet symbol; by symmetry
    the covariance applies to every symbol, with the residual mean pattern
    reflected into the matching quadrant.
    """
    state = shared_state(proto, chan, symbol_index=1)
    b = state.b
    t = chan.transmissivity
    d = proto.displacement
    td2 = t * d * d
    snr = td2 / (b + 1.0)
    e_c = error_rate_from_snr(snr)
    delta = shrinkage_from_snr(snr)
    b_d = b + 2.0 * td2 * e_c - 2.0 * (b + 1.0) * delta - 2.0 * td2 * e_c * e_c
    c_d = state.c * (1.0 - delta)
    residual = 2.0 * math.sqrt(t) * d * e_c / math.sqrt(2.0)
    return PostprocessStats(
        snr=snr,
        e_c=e_c,
        delta=delta,
        a_d=state.a,
        b_d=b_d,
        c_d=c_d,
        mean_d=np.array([0.0, 0.0, residual, residual]),
        base=state,
    )


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
    b, c = base.b, base.c
    t = chan.transmissivity
    eps_tot = chan.total_excess_noise(proto.displacement)
    if strategy is RenormStrategy.B_PRESERVING:
        delta_v = (stats.b_d + 1.0) / (b + 1.0)
        if delta_v <= 0.0:
            raise NumericError(f"non-positive rescaling factor {delta_v:.3e}")
        b_prime = b
        c_prime = stats.c_d / math.sqrt(delta_v)
        # virtual channel appended after the physical one; T_v is fixed by
        # requiring the composed covariance to reproduce (b', c') exactly
        t_v = (1.0 - stats.delta) ** 2 / delta_v
        eps_v = (b - 1.0) * (1.0 / t_v - 1.0)
        eff_t = t * t_v
        eff_eps = eps_tot + eps_v / t
    elif strategy is RenormStrategy.C_PRESERVING:
        delta_v = (1.0 - stats.delta) ** 2
        if delta_v <= 0.0:
            raise NumericError(f"non-positive rescaling factor {delta_v:.3e}")
        b_prime = (stats.b_d + 1.0) / delta_v - 1.0
        c_prime = c
        t_v = 1.0
        eps_v = 0.0
        eff_t = t
        eff_eps = eps_tot + (b_prime - b) / t
    else:
        raise DomainError(f"unknown renormalisation strategy {strategy!r}")

    mean_prime = base.mean.copy()
    mean_prime[2:] = stats.mean_d[2:] / math.sqrt(delta_v)
    state_prime = TwoModeGaussian(mean=mean_prime, a=stats.a_d, b=b_prime, c=c_prime)
    check = _check(strategy, state_prime, base)
    return RenormResult(
        stats=stats,
        strategy=strategy,
        delta_v=delta_v,
        state_prime=state_prime,
        effective_transmissivity=eff_t,
        effective_excess_noise=eff_eps,
        virtual_transmissivity=t_v,
        virtual_excess_noise=eps_v,
        physical=check,
    )


def _check(strategy: RenormStrategy, state_prime: TwoModeGaussian,
           base: TwoModeGaussian) -> CheckResult:
    """Does the rescaling emulate a legitimate physical operation?

    B_PRESERVING must not grow the correlation (margin = c - c'),
    C_PRESERVING must not shrink the receiver variance (margin = b' - b),
    and the rescaled state must pass the uncertainty-principle test.
    """
    if strategy is RenormStrategy.B_PRESERVING:
        margin = base.c - state_prime.c
    else:
        margin = state_prime.b - base.b
    passed = margin >= -_MARGIN_TOL and is_physical(state_prime).physical
    return CheckResult(passed=passed, margin=margin)


def required_displacement(modulation_variance: float, chan: ChannelParams,
                          qos_threshold: float) -> float:
    """Smallest displacement meeting a classical bit-error-rate target.

    Inverts e_c = W at fixed channel parameters (phase noise excluded, so
    the bit-error rate evaluated at the returned displacement reproduces W
    exactly).  W = 0.5 needs no classical separation and returns 0.
    """
    if not (0.0 < qos_threshold <= 0.5):
        raise DomainError(f"qos_threshold must be in (0, 0.5], got {qos_threshold}")
    if modulation_variance < 1.0:
        raise DomainError(
            f"modulation_variance must be >= 1, got {modulation_variance}"
        )
    t = chan.transmissivity
    eps = chan.excess_noise
    return 2.0 * erfc_inv(2.0 * qos_threshold) * math.sqrt(
        modulation_variance + eps - 1.0 + 2.0 / t
    )
