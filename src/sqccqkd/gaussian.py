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

import numpy as np

from .errors import DomainError, NumericError, PhysicalityError

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
        for name in ("a", "b", "c"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
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


def symplectic_spectrum(state: TwoModeGaussian) -> SymplecticSpectrum:
    """Symplectic eigenvalues of the two-mode covariance matrix."""
    a, b, c = state.a, state.b, state.c
    d1 = a * a + b * b - 2.0 * c * c
    d2 = a * b - c * c
    disc = d1 * d1 - 4.0 * d2 * d2
    if not math.isfinite(disc):
        raise DomainError(f"covariance a={a:.3e}, b={b:.3e}, c={c:.3e} overflows "
                          "its symplectic invariants")
    if disc < 0.0:
        if disc < -_DISCRIMINANT_CLAMP:
            raise NumericError(
                f"negative symplectic discriminant {disc:.3e} beyond tolerance"
            )
        disc = 0.0
    lam1 = math.sqrt(max((d1 + math.sqrt(disc)) / 2.0, 0.0))
    # lambda1 * lambda2 = |d2|; (d1 - root) / 2 would cancel at large noise
    lam2 = abs(d2) / lam1 if lam1 > 0.0 else 0.0
    return SymplecticSpectrum(lambda1=lam1, lambda2=lam2, d1=d1, d2=d2)


def conditional_eigenvalue(state: TwoModeGaussian) -> float:
    """Symplectic eigenvalue of mode A conditioned on heterodyne of mode B."""
    lam3 = state.a - state.c * state.c / (state.b + 1.0)
    if lam3 < 1.0 - _PHYSICALITY_SLACK:
        raise PhysicalityError(
            f"conditional eigenvalue {lam3:.12g} below the vacuum limit"
        )
    return max(lam3, 1.0) if lam3 < 1.0 else lam3


def g_function(x: float) -> float:
    """Von Neumann entropy (bits) of a thermal mode with symplectic eigenvalue x."""
    if not math.isfinite(x):
        raise DomainError(f"g_function argument must be finite, got {x}")
    if x < 1.0 - _G_CLAMP:
        raise DomainError(f"g_function requires x >= 1, got {x}")
    if x <= 1.0:
        return 0.0
    xp = (x + 1.0) / 2.0
    xm = (x - 1.0) / 2.0
    # xp log2 xp - xm log2 xm, rearranged so it does not cancel at large x
    return math.log2(xp) + xm * math.log1p(1.0 / xm) / _LN2


def measurement_distribution(state: TwoModeGaussian) -> MeasurementDistribution:
    """Joint dual-quadrature outcome distribution of the state.

    In double-quadrature coordinates the outcome mean equals the state mean
    and the covariance gains one unit of shot noise per quadrature.
    """
    return MeasurementDistribution(
        mean=state.mean.copy(),
        covariance=state.covariance() + np.eye(4),
    )


def is_physical(state: TwoModeGaussian) -> PhysicalityVerdict:
    """Uncertainty-principle test: both symplectic eigenvalues at or above vacuum."""
    violations = {
        "a": 1.0 - state.a,
        "b": 1.0 - state.b,
    }
    try:
        spectrum = symplectic_spectrum(state)
        violations["symplectic"] = 1.0 - spectrum.lambda2
    except NumericError:
        violations["symplectic"] = math.inf
    reason, worst = max(violations.items(), key=lambda kv: kv[1])
    if worst <= _PHYSICALITY_SLACK:
        return PhysicalityVerdict(physical=True, margin=0.0, spectrum=spectrum)
    return PhysicalityVerdict(physical=False, margin=worst, reason=reason)
