"""Two-mode Gaussian states: symplectic spectra, entropy kernel, heterodyne statistics.

Conventions: shot-noise units (vacuum quadrature variance 1), quadrature
ordering (q_A, p_A, q_B, p_B).  All heterodyne outcome statistics live in
"double-quadrature" coordinates, chosen so that the outcome mean equals the
state quadrature mean and the outcome covariance equals the state covariance
plus one unit of shot noise per quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import Checks, DomainError, NumericError, PhysicalityError
from .special import _isfinite, _log1p, _log2, _where

__all__ = [
    "TwoModeGaussian",
    "SymplecticSpectrum",
    "MeasurementDistribution",
    "PhysicalityVerdict",
    "symplectic_spectrum",
    "conditional_eigenvalue",
    "g_function",
    "measurement_distribution",
    "is_physical",
]

# clamping windows for floating-point noise at physical boundaries
_DISCRIMINANT_CLAMP = 1e-12
_G_CLAMP = 1e-12
_PHYSICALITY_SLACK = 1e-9
_LN2 = math.log(2.0)
_REASONS = np.array(["a", "b", "symplectic"], dtype=object)  # is_physical names these


@dataclass(frozen=True)
class TwoModeGaussian:
    """Bipartite Gaussian state in (a, b, c) covariance form.

    ``mean`` is the 4-vector of quadrature means; ``a`` and ``b`` are the
    per-quadrature variances of the two modes and ``c`` the cross
    correlation, entering the covariance matrix with a sigma_z sign fold
    (+c on q, -c on p).  Sub-shot-noise values are representable on
    purpose: physicality is a predicate (:func:`is_physical`), not a
    construction constraint.
    """

    mean: np.ndarray
    a: float
    b: float
    c: float

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if mean.shape != (4,):
            raise DomainError(f"mean must be a 4-vector, got shape {mean.shape}")
        if not np.all(np.isfinite(mean)):
            raise DomainError("mean must be finite")
        checks = Checks()
        _check_finite(checks, self.a, self.b, self.c)
        checks.raise_first()
        object.__setattr__(self, "mean", mean)

    def covariance(self) -> np.ndarray:
        """Full 4x4 covariance matrix."""
        a, b, c = self.a, self.b, self.c
        return np.array([
            [a, 0.0, c, 0.0],
            [0.0, a, 0.0, -c],
            [c, 0.0, b, 0.0],
            [0.0, -c, 0.0, b],
        ])


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Symplectic eigenvalues and the two invariants they derive from."""

    lambda1: float
    lambda2: float
    d1: float
    d2: float


@dataclass(frozen=True)
class MeasurementDistribution:
    """Gaussian outcome distribution of dual-quadrature (heterodyne) detection."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (4, 4) or not np.allclose(cov, cov.T):
            raise DomainError("covariance must be a symmetric 4x4 matrix")
        if np.any(np.diag(cov) < 1.0 - _PHYSICALITY_SLACK):
            raise DomainError("outcome variances cannot be below one shot-noise unit")
        if np.linalg.eigvalsh(cov)[0] <= 0.0:
            raise DomainError("outcome covariance must be positive-definite")
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))


@dataclass(frozen=True)
class PhysicalityVerdict:
    """Outcome of an uncertainty-principle check; margin is the worst violation.

    A physical verdict carries the symplectic spectrum it was judged on.
    """

    physical: bool
    margin: float
    reason: str = field(default="")
    spectrum: SymplecticSpectrum | None = None

    def __bool__(self) -> bool:
        return self.physical


def _check_finite(checks: Checks, a, b, c) -> None:
    """The covariance entries of a state must be finite."""
    for name, value in (("a", a), ("b", b), ("c", c)):
        checks.add(np.logical_not(_isfinite(value)), DomainError,
                   f"{name} must be finite")


class _Verdict(NamedTuple):
    """``is_physical`` over arrays; ``overflow`` marks where it raises instead."""

    physical: np.ndarray
    worst: np.ndarray
    reason: np.ndarray  # index into _REASONS
    spectrum: SymplecticSpectrum
    overflow: np.ndarray


def _spectrum(a, b, c):
    """Symplectic spectrum over arrays and its discriminant, before clamping.

    The eigenvalues mean nothing where the discriminant is not finite (the
    invariants overflow) or is negative beyond the clamp.
    """
    d1 = a * a + b * b - 2.0 * c * c
    d2 = a * b - c * c
    disc = d1 * d1 - 4.0 * d2 * d2
    half = (d1 + np.sqrt(_where(disc < 0.0, 0.0, disc))) / 2.0
    lam1 = np.sqrt(_where(0.0 > half, 0.0, half))
    # lambda1 * lambda2 = |d2|; (d1 - root) / 2 would cancel at large noise
    lam2 = _where(lam1 > 0.0, abs(d2) / lam1, 0.0)
    return SymplecticSpectrum(lambda1=lam1, lambda2=lam2, d1=d1, d2=d2), disc


def _check_overflow(checks: Checks, overflow, a, b, c) -> None:
    checks.add(overflow, DomainError, "covariance a={:.3e}, b={:.3e}, c={:.3e} overflows "
               "its symplectic invariants", a, b, c)


def _physicality(a, b, c) -> _Verdict:
    """The verdict of ``is_physical`` over arrays, and where its spectrum overflows."""
    spectrum, disc = _spectrum(a, b, c)
    # the first largest violation names the verdict, as max() over (a, b, symplectic)
    worst = 1.0 - a
    reason = 0
    symplectic = _where(disc < -_DISCRIMINANT_CLAMP, math.inf, 1.0 - spectrum.lambda2)
    for index, violation in ((1, 1.0 - b), (2, symplectic)):
        larger = violation > worst
        worst = _where(larger, violation, worst)
        reason = _where(larger, index, reason)
    return _Verdict(worst <= _PHYSICALITY_SLACK, worst, reason, spectrum,
                    np.logical_not(_isfinite(disc)))


def _conditional(checks: Checks, a, b, c):
    """``conditional_eigenvalue`` over arrays."""
    lam3 = a - c * c / (b + 1.0)
    checks.add(lam3 < 1.0 - _PHYSICALITY_SLACK, PhysicalityError,
               "conditional eigenvalue {:.12g} below the vacuum limit", lam3)
    return _where(lam3 < 1.0, 1.0, lam3)


def _entropy(checks: Checks, x):
    """``g_function`` over arrays."""
    checks.add(np.logical_not(_isfinite(x)), DomainError,
               "g_function argument must be finite, got {}", x)
    checks.add(x < 1.0 - _G_CLAMP, DomainError, "g_function requires x >= 1, got {}", x)
    xp = (x + 1.0) / 2.0
    xm = (x - 1.0) / 2.0
    # xp log2 xp - xm log2 xm, rearranged so it does not cancel at large x
    return _where(x <= 1.0, 0.0, _log2(xp) + xm * _log1p(1.0 / xm) / _LN2)


@np.errstate(all="ignore")
def symplectic_spectrum(state: TwoModeGaussian) -> SymplecticSpectrum:
    """Symplectic eigenvalues of the two-mode covariance matrix."""
    a, b, c = _floats(state)
    checks = Checks()
    spectrum, disc = _spectrum(a, b, c)
    _check_overflow(checks, ~np.isfinite(disc), a, b, c)
    checks.add(disc < -_DISCRIMINANT_CLAMP, NumericError,
               "negative symplectic discriminant {:.3e} beyond tolerance", disc)
    checks.raise_first()
    return _scalar_spectrum(spectrum)


@np.errstate(all="ignore")
def conditional_eigenvalue(state: TwoModeGaussian) -> float:
    """Symplectic eigenvalue of mode A conditioned on heterodyne of mode B."""
    checks = Checks()
    lam3 = _conditional(checks, *_floats(state))
    checks.raise_first()
    return float(lam3)


@np.errstate(all="ignore")
def g_function(x: float) -> float:
    """Von Neumann entropy (bits) of a thermal mode with symplectic eigenvalue x."""
    checks = Checks()
    value = _entropy(checks, np.float64(x))
    checks.raise_first()
    return float(value)


def measurement_distribution(state: TwoModeGaussian) -> MeasurementDistribution:
    """Joint dual-quadrature outcome distribution of the state.

    In double-quadrature coordinates the outcome mean equals the state mean
    and the covariance gains one unit of shot noise per quadrature.
    """
    return MeasurementDistribution(
        mean=state.mean.copy(),
        covariance=state.covariance() + np.eye(4),
    )


@np.errstate(all="ignore")
def is_physical(state: TwoModeGaussian) -> PhysicalityVerdict:
    """Uncertainty-principle test: both symplectic eigenvalues at or above vacuum."""
    a, b, c = _floats(state)
    verdict = _physicality(a, b, c)
    checks = Checks()
    _check_overflow(checks, verdict.overflow, a, b, c)
    checks.raise_first()
    if verdict.physical:
        return PhysicalityVerdict(physical=True, margin=0.0,
                                  spectrum=_scalar_spectrum(verdict.spectrum))
    return PhysicalityVerdict(physical=False, margin=float(verdict.worst),
                              reason=str(_REASONS[verdict.reason]))


def _floats(state: TwoModeGaussian) -> tuple:
    """The covariance triple as numpy floats, which divide by zero without raising."""
    return np.float64(state.a), np.float64(state.b), np.float64(state.c)


def _scalar_spectrum(spectrum: SymplecticSpectrum) -> SymplecticSpectrum:
    return SymplecticSpectrum(*(float(x) for x in (spectrum.lambda1, spectrum.lambda2,
                                                    spectrum.d1, spectrum.d2)))
