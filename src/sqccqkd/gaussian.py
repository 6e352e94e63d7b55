"""Two-mode Gaussian states in (a, b, c) form: symplectic spectra, physicality, entropy.

Conventions: shot-noise units (vacuum quadrature variance 1), quadrature
ordering (q_A, p_A, q_B, p_B).  ``a`` and ``b`` are the per-quadrature
variances of the two modes and ``c`` the cross correlation, entering the
covariance matrix with a sigma_z sign fold (+c on q, -c on p).
Sub-shot-noise triples are representable on purpose: physicality is a
verdict (``_physicality``), not a construction constraint.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import Checks, DomainError, PhysicalityError
from .special import _div, _isfinite, _log1p, _log2, _sqrt, _where

# clamping windows for floating-point noise at physical boundaries
_DISCRIMINANT_CLAMP = 1e-12
_PHYSICALITY_SLACK = 1e-9
_LN2 = math.log(2.0)
_REASONS = np.array(["a", "b", "symplectic"], dtype=object)  # what a verdict fails on


def _check_finite(checks: Checks, *entries, names=("a", "b", "c")) -> None:
    """The covariance entries of a state, named ``names``, must be finite."""
    for name, value in zip(names, entries):
        checks.add(np.logical_not(_isfinite(value)), DomainError,
                   f"{name} must be finite")


class _Verdict(NamedTuple):
    """Physicality verdict per element; ``overflow`` marks where it raises instead."""

    physical: np.ndarray
    worst: np.ndarray
    reason: np.ndarray  # index into _REASONS
    lambda1: np.ndarray  # the symplectic eigenvalues, lambda1 >= lambda2
    lambda2: np.ndarray
    overflow: np.ndarray


def _spectrum(a, b, c):
    """Symplectic eigenvalues over arrays and their discriminant, before clamping.

    The eigenvalues mean nothing where the discriminant is not finite (the
    invariants overflow) or is negative beyond the clamp.
    """
    d1 = a * a + b * b - 2.0 * c * c
    d2 = a * b - c * c
    disc = d1 * d1 - 4.0 * d2 * d2
    half = (d1 + _sqrt(_where(disc < 0.0, 0.0, disc))) / 2.0
    lam1 = _sqrt(_where(0.0 > half, 0.0, half))
    # lambda1 * lambda2 = |d2|; (d1 - root) / 2 would cancel at large noise
    lam2 = _where(lam1 > 0.0, _div(abs(d2), lam1), 0.0)
    return lam1, lam2, disc


def _check_overflow(checks: Checks, overflow, a, b, c) -> None:
    checks.add(overflow, DomainError, "covariance a={:.3e}, b={:.3e}, c={:.3e} overflows "
               "its symplectic invariants", a, b, c)


def _physicality(a, b, c) -> _Verdict:
    """Uncertainty-principle test over arrays: both symplectic eigenvalues >= vacuum."""
    lam1, lam2, disc = _spectrum(a, b, c)
    # the first largest violation names the verdict, as max() over (a, b, symplectic)
    worst = 1.0 - a
    reason = 0
    symplectic = _where(disc < -_DISCRIMINANT_CLAMP, math.inf, 1.0 - lam2)
    for index, violation in ((1, 1.0 - b), (2, symplectic)):
        larger = violation > worst
        worst = _where(larger, violation, worst)
        reason = _where(larger, index, reason)
    return _Verdict(worst <= _PHYSICALITY_SLACK, worst, reason, lam1, lam2,
                    np.logical_not(_isfinite(disc)))


def _conditional(checks: Checks, a, b, c):
    """Eigenvalue of mode A conditioned on heterodyne of mode B, over arrays."""
    lam3 = a - _div(c * c, b + 1.0)
    checks.add(lam3 < 1.0 - _PHYSICALITY_SLACK, PhysicalityError,
               "conditional eigenvalue {:.12g} below the vacuum limit", lam3)
    return _where(lam3 < 1.0, 1.0, lam3)


def _entropy(checks: Checks, x):
    """g(x): entropy (bits) of a thermal mode of symplectic eigenvalue x, over arrays."""
    checks.add(np.logical_not(_isfinite(x)), DomainError,
               "entropy argument must be finite, got {}", x)
    checks.add(x < 1.0 - _PHYSICALITY_SLACK, DomainError,  # the verdict's slack
               "entropy g(x) requires x >= 1, got {}", x)
    xp = (x + 1.0) / 2.0
    xm = (x - 1.0) / 2.0
    # xp log2 xp - xm log2 xm, rearranged so it does not cancel at large x
    return _where(x <= 1.0, 0.0, _log2(xp) + xm * _log1p(_div(1.0, xm)) / _LN2)

