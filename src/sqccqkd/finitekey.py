"""Composable finite-size statistics: security parameters, worst-case estimators, penalties.

The finite-block rate (``keyrate.rate_at`` with a ``SecurityParams``)
subtracts entropy-smoothing, discretization and hashing penalties from the
rate at worst-case covariance estimates, so the quoted key length fails
with probability at most the summed epsilon budget.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

from .errors import Checks, DomainError
from .special import _div, _real, _sqrt, beta_inv_cdf_symmetric

__all__ = ["SecurityParams"]

_MAX_BITS = 64  # the largest discretization_bits


@dataclass(frozen=True)
class SecurityParams:
    """Block size, reconciliation statistics, and the epsilon budget.

    ``eps_qrng``, ``eps_ir`` and ``eps_cal`` enter only the summed budget,
    not the rate formula; they are carried implicitly by the other terms.
    ``discretization_bits`` is at most 64: a finer ADC is not physical, and
    the smoothing penalty grows with it.
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
        object.__setattr__(self, "block_size", _real(self.block_size))  # 10**400 is N = inf
        if not (self.block_size >= 2):
            raise DomainError(f"block_size must be >= 2, got {self.block_size}")
        if not (0.0 < self.frame_success <= 1.0):
            raise DomainError(
                f"frame_success must be in (0, 1], got {self.frame_success}"
            )
        if not (self.frame_success * self.block_size >= 1.0):
            raise DomainError("frame_success * block_size must be >= 1, got "
                              f"{self.frame_success} * {self.block_size}")
        if not 1 <= self.discretization_bits <= _MAX_BITS:
            raise DomainError(f"discretization_bits must be in 1..{_MAX_BITS}, "
                              f"got {self.discretization_bits}")
        for name in ("eps_pe", "eps_s", "eps_h", "eps_ent"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise DomainError(f"{name} must be in (0, 1), got {value}")
        for name in ("eps_qrng", "eps_ir", "eps_cal"):
            value = getattr(self, name)
            if not (0.0 <= value < 1.0):  # nan fails too
                raise DomainError(f"{name} must be in [0, 1), got {value}")
        if not self.epsilon_total() < 1.0:
            raise DomainError(f"epsilon_total must be < 1, got {self.epsilon_total()}")

    def epsilon_total(self) -> float:
        """Seven-term composable failure budget."""
        return (self.eps_qrng + self.eps_h + self.eps_s + self.eps_ir
                + self.eps_ent + self.eps_pe + self.eps_cal)

    @cached_property
    def _estimator_margins(self) -> tuple[float, float]:
        """(delta_var, delta_cov) of ``_worst_case``.

        They depend on (N, eps_pe) alone, so the two Beta quantile
        bisections run once per instance rather than once per rate
        evaluation.  The cache lives in the instance ``__dict__``, so the
        CLI builds one instance per block size and shares it across rows.
        """
        n = self.block_size
        z_cov = self.eps_pe ** 2 / 1296.0
        if z_cov == 0.0:  # eps_pe below about 1e-160; eps_pe / 12 underflows later
            raise DomainError(f"estimator confidence out of range: eps_pe^2 / 1296 "
                              f"underflows at eps_pe = {self.eps_pe}")
        shrink_var = _confidence_shrink(self.eps_pe / 12.0, n)
        shrink_cov = _confidence_shrink(z_cov, n)
        delta_var = ((1.0 + shrink_var)
                     * (1.0 + 240.0 / self.eps_pe * math.exp(-n / 32.0)) - 1.0)
        return delta_var, 0.5 * shrink_var + shrink_cov

    @cached_property
    def _penalties(self) -> tuple[float, float, float, float]:
        """The rate's finite-size penalties, scaled by N and p_f, once per instance.

        sqrt(p_f / N) Delta_AEP, sqrt(p_f log2(p_f N) / N) Delta_ent,
        Delta_S / N and Delta_H / N: min-entropy smoothing, entropy
        estimation, frame errors and hashing.
        """
        n = self.block_size
        p_f = self.frame_success
        square = (p_f * self.eps_s ** 2 / 3.0) ** 2
        if square <= 2.0 / sys.float_info.max:  # 2 / square = inf: eps_s below ~1e-77
            raise DomainError(f"smoothing penalty out of range: (p_f eps_s^2 / 3)^2 "
                              f"underflows at p_f = {p_f}, eps_s = {self.eps_s}")
        aep = 4.0 * (self.discretization_bits + 1) * math.sqrt(math.log2(2.0 / square))
        ent = math.sqrt(2.0 * math.log2(2.0 / self.eps_ent))
        h = 2.0 * math.log2(math.sqrt(2.0) * self.eps_h)
        penalties = (math.sqrt(p_f / n) * aep,
                     math.sqrt(p_f * math.log2(p_f * n) / n) * ent,
                     math.log2(p_f - p_f * self.eps_s ** 2 / 3.0) / n, h / n)
        if not all(map(math.isfinite, penalties)):  # 2 / eps_ent overflows below ~1e-308
            raise DomainError(f"finite-size penalties out of range: {penalties} at "
                              f"eps_s = {self.eps_s}, eps_ent = {self.eps_ent}, "
                              f"eps_h = {self.eps_h}")
        return penalties

    def _rate_terms(self) -> tuple[float, ...]:
        """The eight constants of the finite-block rate: the two estimator margins,
        p_f, the four penalties and N."""
        return (*self._estimator_margins, self.frame_success, *self._penalties,
                self.block_size)


def _confidence_shrink(z: float, n: float) -> float:
    """1 - A(z) with A(z) twice the Beta(n/2, n/2) quantile at z."""
    return 1.0 - 2.0 * beta_inv_cdf_symmetric(z, n / 2.0)


def _check_correlation(checks: Checks, c_hat) -> None:
    checks.add(c_hat == 0.0, DomainError,
               "worst-case correlation estimate undefined for c = 0")


def _worst_case(a_hat, b_hat, c_hat, delta_var, delta_cov):
    """Confidence-interval extremes of the covariance triple over arrays, from the
    margins of each element.

    Variances are inflated and the correlation deflated, which is the
    direction that enlarges the eavesdropper bound.  The true values lie
    outside these extremes with probability at most eps_pe.
    """
    sigma_a = (1.0 + delta_var) * a_hat
    sigma_b = (1.0 + delta_var) * b_hat
    sigma_c = (1.0 - 2.0 * _sqrt(_div(a_hat * b_hat, c_hat * c_hat)) * delta_cov) * c_hat
    return sigma_a, sigma_b, sigma_c
