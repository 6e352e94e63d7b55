"""Lossy thermal channel acting on the entangled source, and the state sent through it.

The source is a two-mode squeezed vacuum of variance V; one mode passes a
bosonic channel with transmissivity T and excess noise eps (shot-noise
units, referred to the channel input), optionally with power-dependent
phase noise.  Classical QPSK symbols ride on the same mode as large
displacements d * exp(i*pi*(2k-1)/4), k = 1..4.  The prior model lives in
``keyrate.rate_cells`` (``model="baseline"``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Checks, DomainError
from .gaussian import _check_finite
from .special import _isfinite, _sqrt

__all__ = [
    "ChannelParams",
    "ProtocolParams",
    "qpsk_symbol",
    "attenuation_db_to_transmissivity",
]

@dataclass(frozen=True)
class ChannelParams:
    """Bosonic channel: transmissivity, excess noise, optional phase-noise factor."""

    transmissivity: float
    excess_noise: float = 0.0
    phase_noise_factor: float = 0.0

    def __post_init__(self):
        checks = Checks()
        _check_channel(checks, self.transmissivity, self.excess_noise,
                       self.phase_noise_factor)
        checks.raise_first()


@dataclass(frozen=True)
class ProtocolParams:
    """Source and reconciliation parameters chosen by the sender."""

    modulation_variance: float
    displacement: float = 0.0
    reconciliation_efficiency: float = 0.95

    def __post_init__(self):
        checks = Checks()
        _check_protocol(checks, self.modulation_variance, self.displacement,
                        self.reconciliation_efficiency)
        checks.raise_first()


def _check_protocol(checks: Checks, v, d, beta) -> None:
    """``ProtocolParams`` validation over arrays."""
    checks.add(np.logical_not((v >= 1.0) & _isfinite(v)), DomainError,
               "modulation_variance must be >= 1, got {}", v)
    checks.add(np.logical_not((d >= 0.0) & _isfinite(d)), DomainError,
               "displacement must be >= 0, got {}", d)
    checks.add(np.logical_not((0.0 < beta) & (beta <= 1.0)), DomainError,
               "reconciliation_efficiency must be in (0, 1], got {}", beta)


def _check_channel(checks: Checks, t, eps, sigma) -> None:
    """``ChannelParams`` validation over arrays."""
    checks.add(np.logical_not((0.0 < t) & (t <= 1.0)), DomainError,
               "transmissivity must be in (0, 1], got {}", t)
    checks.add(np.logical_not((eps >= 0.0) & _isfinite(eps)), DomainError,
               "excess_noise must be >= 0, got {}", eps)
    checks.add(np.logical_not((sigma >= 0.0) & _isfinite(sigma)), DomainError,
               "phase_noise_factor must be >= 0, got {}", sigma)


def _shared_state(checks: Checks, v, d, t, eps, sigma):
    """(eps_tot, b, c) of the state the parties share after the channel, over arrays.

    eps_tot is the excess noise plus the power-proportional phase-noise
    term sigma*T*d^2.  The covariance is a = V, b = T*(V + eps_tot - 1) + 1,
    c = sqrt(T*(V^2 - 1)); the receiver mode of symbol k is displaced by
    sqrt(T) times its alphabet point, which only the Monte Carlo draws.
    """
    power = d * d
    checks.add((abs(power) == math.inf) & _isfinite(d), DomainError,
               "displacement {} is too large", d)
    eps_tot = eps + sigma * t * power
    b, c = _covariance(v, t, eps_tot)
    _check_finite(checks, v, b, c)
    return eps_tot, b, c


def _covariance(v, t, eps_tot):
    """(b, c) of the state through a channel of noise eps_tot over arrays; a = V."""
    return t * (v + eps_tot - 1.0) + 1.0, _sqrt(t * (v * v - 1.0))


def qpsk_symbol(displacement: float, symbol_index: int) -> complex:
    """Classical alphabet point d * exp(i*pi*(2k - 1)/4) for k in 1..4."""
    if symbol_index not in (1, 2, 3, 4):
        raise DomainError(f"symbol_index must be in 1..4, got {symbol_index}")
    phase = math.pi * (2 * symbol_index - 1) / 4.0
    return displacement * complex(math.cos(phase), math.sin(phase))


def attenuation_db_to_transmissivity(db: float) -> float:
    """Convert channel attenuation in dB to transmissivity."""
    if not (db >= 0.0 and math.isfinite(db)):
        raise DomainError(f"attenuation must be >= 0 dB, got {db}")
    return 10.0 ** (-db / 10.0)
