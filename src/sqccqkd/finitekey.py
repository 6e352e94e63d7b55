"""Composable finite-size statistics: security parameters, worst-case estimators, penalties.

The finite-block rate (``keyrate.rate_at`` with a ``SecurityParams``)
subtracts entropy-smoothing, discretization and hashing penalties from the
rate at worst-case covariance estimates, so the quoted key length fails
with probability at most the summed epsilon budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import Checks, DomainError
from .gaussian import _check_finite
from .special import _square, beta_inv_cdf_symmetric

__all__ = [
    "SecurityParams",
    "DeltaTerms",
    "delta_terms",
    "worst_case_estimators",
]


@dataclass(frozen=True)
class SecurityParams:
    """Block size, reconciliation statistics, and the epsilon budget.

    ``eps_qrng``, ``eps_ir`` and ``eps_cal`` enter only the summed budget,
    not the rate formula; they are carried implicitly by the other terms.
    """

    block_size: float
    frame_success: float = 0.9964
    discretization_bits: int = 6
    eps_pe: float = 1e-10
    eps_s: float = 1e-10
    eps_h: float = 1e-10
    eps_ent: float = 1e-10
    eps_qrng: float = 1e-10
    eps_ir: float = 1e-10
    eps_cal: float = 1e-10

    def __post_init__(self):
        if not (self.block_size >= 2):
            raise DomainError(f"block_size must be >= 2, got {self.block_size}")
        if not (0.0 < self.frame_success <= 1.0):
            raise DomainError(
                f"frame_success must be in (0, 1], got {self.frame_success}"
            )
        if not (self.frame_success * self.block_size >= 1.0):
            raise DomainError("frame_success * block_size must be >= 1, got "
                              f"{self.frame_success} * {self.block_size}")
        if self.discretization_bits < 1:
            raise DomainError(
                f"discretization_bits must be >= 1, got {self.discretization_bits}"
            )
        for name in ("eps_pe", "eps_s", "eps_h", "eps_ent"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise DomainError(f"{name} must be in (0, 1), got {value}")
        for name in ("eps_qrng", "eps_ir", "eps_cal"):
            if getattr(self, name) < 0.0:
                raise DomainError(f"{name} must be >= 0")

    def epsilon_total(self) -> float:
        """Seven-term composable failure budget."""
        return (self.eps_qrng + self.eps_h + self.eps_s + self.eps_ir
                + self.eps_ent + self.eps_pe + self.eps_cal)

    @cached_property
    def _estimator_margins(self) -> tuple[float, float]:
        """(delta_var, delta_cov) of ``worst_case_estimators``.

        They depend on (N, eps_pe) alone, so the two Beta quantile
        bisections run once per instance rather than once per rate
        evaluation.  The cache lives in the instance ``__dict__``:
        ``dataclasses.replace`` builds a fresh instance without it.
        """
        n = self.block_size
        shrink_var = _confidence_shrink(self.eps_pe / 12.0, n)
        shrink_cov = _confidence_shrink(self.eps_pe ** 2 / 1296.0, n)
        delta_var = ((1.0 + shrink_var)
                     * (1.0 + 240.0 / self.eps_pe * math.exp(-n / 32.0)) - 1.0)
        return delta_var, 0.5 * shrink_var + shrink_cov

    @cached_property
    def _delta_terms(self) -> DeltaTerms:
        """``delta_terms(self)``, computed once per instance like the margins."""
        return delta_terms(self)


@dataclass(frozen=True)
class DeltaTerms:
    """Finite-size penalty terms (bits, before block-size scaling)."""

    aep: float
    ent: float
    s: float
    h: float


def delta_terms(sec: SecurityParams) -> DeltaTerms:
    """Penalties for min-entropy smoothing, entropy estimation, frame errors, hashing."""
    p_f = sec.frame_success
    inner = 2.0 / (p_f * sec.eps_s ** 2 / 3.0) ** 2
    if inner <= 1.0:
        raise DomainError("smoothing penalty logarithm out of range")
    aep = 4.0 * (sec.discretization_bits + 1) * math.sqrt(math.log2(inner))
    ent = math.sqrt(2.0 * math.log2(2.0 / sec.eps_ent))
    s_arg = p_f - p_f * sec.eps_s ** 2 / 3.0
    if s_arg <= 0.0:
        raise DomainError("frame-error penalty logarithm out of range")
    s = math.log2(s_arg)
    h = 2.0 * math.log2(math.sqrt(2.0) * sec.eps_h)
    return DeltaTerms(aep=aep, ent=ent, s=s, h=h)


def _confidence_shrink(z: float, n: float) -> float:
    """1 - A(z) with A(z) twice the Beta(n/2, n/2) quantile at z."""
    return 1.0 - 2.0 * beta_inv_cdf_symmetric(z, n / 2.0)


def _check_correlation(checks: Checks, c_hat) -> None:
    checks.add(c_hat == 0.0, DomainError,
               "worst-case correlation estimate undefined for c = 0")


def _worst_case(a_hat, b_hat, c_hat, delta_var, delta_cov):
    """``worst_case_estimators`` over arrays, from the margins of each element."""
    sigma_a = (1.0 + delta_var) * a_hat
    sigma_b = (1.0 + delta_var) * b_hat
    sigma_c = (1.0 - 2.0 * np.sqrt(a_hat * b_hat / _square(c_hat)) * delta_cov) * c_hat
    return sigma_a, sigma_b, sigma_c


@np.errstate(all="ignore")
def worst_case_estimators(a_hat: float, b_hat: float, c_hat: float,
                          sec: SecurityParams) -> tuple[float, float, float]:
    """Confidence-interval extremes of the covariance triple.

    Variances are inflated and the correlation deflated, which is the
    direction that enlarges the eavesdropper bound.  The true values lie
    outside these extremes with probability at most eps_pe.  A non-finite
    extreme raises ``DomainError``, as it does in the rate.
    """
    checks = Checks()
    _check_correlation(checks, c_hat)
    checks.raise_first()
    sigmas = _worst_case(np.float64(a_hat), b_hat, c_hat, *sec._estimator_margins)
    _check_finite(checks, *sigmas)
    checks.raise_first()
    return tuple(float(x) for x in sigmas)
