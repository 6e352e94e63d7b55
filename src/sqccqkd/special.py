"""Self-contained special-function kernel.

The inverse complementary error function, the regularized incomplete beta
function and its inverse CDF, which evaluates I_x only at its iterates (its
callers' bracket ends have exact values: see ``_invert_beta``), and the normal
quantile, the standard library's ``statistics.NormalDist().inv_cdf`` (Wichura's
AS241, near 1 ulp).  Everything downstream (bit-error rates, confidence bounds,
worst-case covariance estimators) is built on these scalars.  The array kernels
call libm (erfc, exp, log2, log1p) elementwise through the helpers at the end, so
an array result equals the scalar one bit for bit; given a scalar they give a
Python float or bool, the fastest to chain.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "erfc_inv",
    "normal_quantile",
    "beta_reg",
    "beta_inv_cdf_symmetric",
    "beta_quantile",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)
_CF_TINY = 1e-300
_NORMAL_HALF_N = 1e6  # Beta(half_n, half_n) above this half_n is taken as normal
_CF_MAX_TERMS = 20_000  # near x = 1/2 the continued fraction needs ~sqrt(a) terms
_BISECT_REL_TOL = 1e-10  # relative residual that ends a Beta quantile search
_BISECT_STEPS = 200


def _real(x):
    """``x``, or the infinity of its sign if it is an int beyond the float range."""
    if isinstance(x, int):
        try:
            float(x)
        except OverflowError:
            return math.inf if x > 0 else -math.inf
    return x


def _require_finite(name: str, x: float) -> float:
    x = float(_real(x))
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x}")
    return x


_NORMAL = statistics.NormalDist()


def normal_quantile(z: float) -> float:
    """Inverse of the standard normal CDF; odd about z = 1/2."""
    z = _require_finite("z", z)
    if not 0.0 < z < 1.0:
        raise DomainError(f"normal_quantile requires 0 < z < 1, got {z}")
    return _NORMAL.inv_cdf(z)


def erfc_inv(y: float) -> float:
    """Inverse complementary error function on (0, 2); odd about y = 1."""
    y = _require_finite("y", y)
    if not 0.0 < y < 2.0:
        raise DomainError(f"erfc_inv requires 0 < y < 2, got {y}")
    if y == 1.0:
        return 0.0
    # solve at z = min(y, 2 - y) in (0, 1), where erfc_inv(z) > 0; Newton polish on erfc
    z = y if y < 1.0 else 2.0 - y
    t = -normal_quantile(0.5 * z) / _SQRT2
    for _ in range(2):
        tt = t * t
        if tt > 700.0:  # derivative underflows; the AS241 start is already near 1 ulp
            break
        t += (math.erfc(t) - z) * (_SQRT_PI / 2.0) * math.exp(tt)
    return t if y < 1.0 else -t


def _beta_cont_frac(x: float, a: float, b: float) -> float:
    """Modified-Lentz continued fraction for the incomplete beta integral; from
    c = inf the first term sets h = d, and odd terms past it test convergence."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c, d, h = math.inf, 1.0, 1.0
    terms = (-qab * x / qap,)  # the partial numerators since the last test
    for m in range(1, _CF_MAX_TERMS + 2):
        for num in terms:
            d = 1.0 + num * d
            if abs(d) < _CF_TINY:
                d = _CF_TINY
            c = 1.0 + num / c
            if abs(c) < _CF_TINY:
                c = _CF_TINY
            d = 1.0 / d
            step = d * c
            h *= step
        if m > 1 and abs(step - 1.0) < 1e-15:
            return h
        terms = (m * (b - m) * x / ((qam + 2 * m) * (a + 2 * m)),
                 -(a + m) * (qab + m) * x / ((a + 2 * m) * (qap + 2 * m)))
    raise ConvergenceError(
        f"incomplete beta continued fraction stalled at a={a:g}, b={b:g}, x={x:g}",
        residual=abs(step - 1.0),
    )


def beta_reg(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Continued-fraction evaluation with the log-beta prefactor; the
    reflection I_x(a,b) = 1 - I_{1-x}(b,a) keeps the fraction in its
    fast-converging region.
    """
    x = _require_finite("x", x)
    a = _require_finite("a", a)
    b = _require_finite("b", b)
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"beta_reg requires a, b > 0, got a={a}, b={b}")
    if x < 0.0 or x > 1.0:
        raise DomainError(f"beta_reg requires 0 <= x <= 1, got x={x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_pre = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
              + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(ln_pre) * _beta_cont_frac(x, a, b) / a
    return 1.0 - math.exp(ln_pre) * _beta_cont_frac(1.0 - x, b, a) / b


def _invert_beta(z: float, a: float, b: float, lo: float, hi: float) -> float:
    """Solve I_x(a, b) = z for x in [lo, hi] by safeguarded Halley steps.

    Every call has I_lo <= z <= I_hi, so the ends are not evaluated: ``beta_reg``
    is exactly 0.0 at x = 0 and 1.0 at x = 1, I_1/2(h, h) = 1/2 by symmetry,
    ``beta_quantile`` solves on [0, 1] for z in (0, 1) and ``beta_inv_cdf_symmetric``
    on [0, 1/2] only for z < 1/2.  From the normal approximation of Beta(a, b),
    each evaluation narrows the bracket; a Halley step that would leave it, or that
    is not at most half the step before, is replaced by bisection.  Ends on interval
    collapse or a relative residual below ``_BISECT_REL_TOL`` (deep-tail z is tiny).
    """
    ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    mean = a / (a + b)
    x = mean + normal_quantile(z) * math.sqrt(mean * (1.0 - mean) / (a + b + 1.0))
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    resid = math.inf
    step = last_step = hi - lo
    scale = min(z, 1.0 - z)  # the informative tail mass near either endpoint
    for _ in range(_BISECT_STEPS):
        resid = beta_reg(x, a, b) - z
        if resid < 0.0:
            lo = x
        else:
            hi = x
        if abs(resid) <= _BISECT_REL_TOL * scale or (hi - lo) < 2e-16 * max(x, 1e-10):
            return x
        # Halley on I_x - z: u = f / f', and f'' / f' is the log-density's slope
        density = math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - ln_beta)
        u = resid / density if density > 0.0 else math.inf
        halley = u / (1.0 - 0.5 * u * ((a - 1.0) / x - (b - 1.0) / (1.0 - x)))
        last_step, step = step, halley
        x_new = x - halley
        if not (lo < x_new < hi and abs(halley) <= 0.5 * abs(last_step)):
            x_new = 0.5 * (lo + hi)
            step = hi - lo
        x = x_new
    raise ConvergenceError(
        f"beta inverse bisection stalled for a={a:g}, b={b:g}", residual=abs(resid)
    )


def beta_quantile(z: float, a: float, b: float) -> float:
    """Quantile of the Beta(a, b) distribution: x with I_x(a, b) = z."""
    z = _require_finite("z", z)
    a, b = _real(a), _real(b)
    if not 0.0 < z < 1.0:
        raise DomainError(f"beta_quantile requires 0 < z < 1, got {z}")
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"beta_quantile requires a, b > 0, got a={a}, b={b}")
    return _invert_beta(z, a, b, 0.0, 1.0)


def beta_inv_cdf_symmetric(z: float, half_n: float) -> float:
    """Inverse CDF of Beta(half_n, half_n).

    Up to half_n = 1e6 the quantile is found by safeguarded Halley steps
    on :func:`beta_reg`; above it the closed-form quantile of
    Normal(1/2, 1/(8*half_n + 4)) is used instead.  That is not exact: at the
    finite-key levels (z from 1e-43 to 1e-3) the shrink 1 - 2x it gives is
    too wide, by 8.6e-7 to 2.4e-5 relative just above half_n = 1e6, falling as
    1/half_n; the error is conservative.  ROADMAP item 13 plans a finer form.
    """
    z = _require_finite("z", z)
    half_n = _require_finite("half_n", half_n)
    if not 0.0 < z < 1.0:
        raise DomainError(f"beta_inv_cdf_symmetric requires 0 < z < 1, got {z}")
    if half_n < 0.5:
        raise DomainError(f"half_n must be >= 0.5, got {half_n}")
    if z == 0.5:
        return 0.5
    if half_n > _NORMAL_HALF_N:
        return 0.5 + normal_quantile(z) / math.sqrt(8.0 * half_n + 4.0)
    if z > 0.5:
        return 1.0 - _invert_beta(1.0 - z, half_n, half_n, 0.0, 0.5)
    return _invert_beta(z, half_n, half_n, 0.0, 0.5)


def _elementwise(fn, outside: float, ufunc=None):
    """``fn`` applied to each element of an array, or to a scalar, as float64.

    numpy's own exp/log family has SIMD versions that differ from libm in
    the last bit on some CPUs; calling the Python function on each element
    keeps array results equal to scalar ones on every machine.  An element
    outside ``fn``'s domain, or whose result overflows, gives ``outside``.
    A scalar gives a Python float.  An array goes to ``ufunc`` if one is given:
    only a correctly rounded one, as sqrt is, gives ``fn``'s bits on every CPU.
    """
    def apply(x):
        if isinstance(x, np.ndarray):
            if ufunc is not None:
                return ufunc(x)
            items = x.ravel().tolist()
            try:
                values = np.fromiter(map(fn, items), float, len(items))
            except (ValueError, OverflowError):  # again, each element guarded
                values = np.fromiter(map(apply, items), float, len(items))
            return values.reshape(x.shape)
        try:
            return fn(x)
        except (ValueError, OverflowError):
            return outside

    return apply


def _where(condition, x, y):
    """``np.where`` that keeps a scalar condition's result a scalar.

    ``x`` and ``y`` are no larger than ``condition``, as when they are the
    operands the condition was computed from.  A scalar condition picks
    its operand as it is: a Python float stays a float.
    """
    if isinstance(condition, np.ndarray):
        return np.where(condition, x, y)
    return x if condition else y


def _div(x, y):
    """``x / y``, where a scalar zero ``y`` gives numpy's inf or nan, not an error."""
    try:
        return x / y
    except ZeroDivisionError:
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.float64(x) / y)


def _isfinite(x):
    """``np.isfinite``; a scalar compares several times faster than the ufunc runs."""
    return np.isfinite(x) if isinstance(x, np.ndarray) else abs(x) < math.inf


_erfc = _elementwise(math.erfc, math.nan)
_exp = _elementwise(math.exp, math.inf)
_log2 = _elementwise(math.log2, math.nan)
_log1p = _elementwise(math.log1p, math.nan)
_sqrt = _elementwise(math.sqrt, math.nan, np.sqrt)
