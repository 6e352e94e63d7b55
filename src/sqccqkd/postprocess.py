"""Threshold discrimination, re-displacement moments, and renormalisation.

The receiver classifies each heterodyne outcome by phase-space quadrant,
subtracts the centroid of the decided symbol, and rescales the result so
the surviving Gaussian-order statistics match a physically legitimate
effective channel.  This module carries the closed-form moments of that
pipeline and both renormalisation strategies over arrays (the ``_moments``
and ``_rescale`` stages of ``keyrate.rate_cells``), and the displacement
that meets a classical bit-error-rate target.
"""

from __future__ import annotations

import enum
import math

from .channel import ChannelParams
from .errors import Checks, DomainError, NumericError
from .gaussian import _check_finite, _check_overflow, _physicality
from .special import _div, _erfc, _exp, _sqrt, _where, erfc_inv

__all__ = [
    "RenormStrategy",
    "required_displacement",
]

_MARGIN_TOL = 1e-12


class RenormStrategy(enum.Enum):
    """Which second moment the electronic rescaling holds fixed."""

    B_PRESERVING = "b-preserving"
    C_PRESERVING = "c-preserving"


def _check_snr(checks: Checks, snr) -> None:
    checks.add(snr < 0.0, DomainError, "snr must be >= 0, got {}", snr)


def _error_rate(snr):
    """Per-axis classical bit-error rate e_c at a quasi-SNR, over valid SNR arrays."""
    return _where(abs(snr) == math.inf, 0.0, 0.5 * _erfc(_sqrt(snr) / 2.0))


def _shrinkage(snr):
    """Correlation shrinkage delta of erroneous re-displacement, over valid SNR arrays."""
    return _where(abs(snr) == math.inf, 0.0, _sqrt(snr / math.pi) * _exp(-snr / 4.0))


def _snr(t, d, b):
    """T d^2 and the quasi-SNR T d^2 / (b + 1) over arrays."""
    td2 = t * d * d
    return td2, _div(td2, b + 1.0)


def _moments(checks: Checks, td2, snr, b, c):
    """(e_c, delta, b_d, c_d) after discrimination and re-displacement, over arrays."""
    _check_snr(checks, snr)
    e_c = _error_rate(snr)
    delta = _shrinkage(snr)
    b_d = b + 2.0 * td2 * e_c - 2.0 * (b + 1.0) * delta - 2.0 * td2 * e_c * e_c
    return e_c, delta, b_d, c * (1.0 - delta)


def _rescale(checks: Checks, strategy: RenormStrategy, a, b, c, b_d, c_d, delta):
    """The moments rescaled by 1/sqrt(Delta_V), over arrays.

    Returns (delta_v, b', c', margin, passed, verdict).  B_PRESERVING
    restores the receiver variance (Delta_V = (b_d+1)/(b+1)) and must not
    grow the correlation (margin = c - c'); C_PRESERVING restores the cross
    correlation (Delta_V = (1-delta)^2) and must not shrink the receiver
    variance (margin = b' - b).  ``verdict`` is the physicality verdict of
    the rescaled state, taken for every element; its overflow is recorded
    only where the margin holds.
    """
    if strategy is RenormStrategy.B_PRESERVING:
        delta_v = _div(b_d + 1.0, b + 1.0)
        b_prime, c_prime = b, _div(c_d, _sqrt(delta_v))
        margin = c - c_prime
    else:
        delta_v = (1.0 - delta) * (1.0 - delta)
        b_prime, c_prime = _div(b_d + 1.0, delta_v) - 1.0, c
        margin = b_prime - b
    checks.add(delta_v <= 0.0, NumericError, "non-positive rescaling factor {:.3e}",
               delta_v)
    _check_finite(checks, a, b_prime, c_prime)
    margin_ok = margin >= -_MARGIN_TOL
    verdict = _physicality(a, b_prime, c_prime)
    _check_overflow(checks, verdict.overflow & margin_ok, a, b_prime, c_prime)
    return delta_v, b_prime, c_prime, margin, margin_ok & verdict.physical, verdict


def _displacement_factor(qos_threshold: float) -> float:
    """2 erfc^-1(2W): the displacement per unit receiver noise at threshold W."""
    if not (0.0 < qos_threshold <= 0.5):
        raise DomainError(f"qos_threshold must be in (0, 0.5], got {qos_threshold}")
    return 2.0 * erfc_inv(2.0 * qos_threshold)


def _displacement(v, t, eps, factor):
    """``required_displacement`` over arrays, from ``_displacement_factor``."""
    return factor * _sqrt(v + eps - 1.0 + _div(2.0, t))


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
