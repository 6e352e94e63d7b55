"""Self-contained special-function kernel.

The inverse complementary error function, the regularized incomplete beta
function and its inverse CDF, which evaluates I_x only at its iterates (its
callers' bracket ends have exact values: see ``_invert_beta``), and the normal
quantile.  Everything downstream (bit-error rates, confidence bounds, worst-case
covariance estimators) is built on these scalars.  The array kernels call libm
(erfc, exp, log2, log1p) elementwise through the helpers at the end, so an array
result equals the scalar one bit for bit; given a scalar they give a Python float
or bool, the fastest to chain.
"""

from __future__ import annotations

import math

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


def _require_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x}")
    return x


# Rational initial estimate for the normal quantile (Acklam's coefficients),
# refined below to machine precision with Halley steps on erfc.
_NQ_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_NQ_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
_NQ_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_NQ_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
_NQ_P_LOW = 0.02425


def _normal_quantile_estimate(p: float) -> float:
    # valid for 0 < p <= 0.5; relative error ~1e-9 before refinement
    if p < _NQ_P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((_NQ_C[0] * q + _NQ_C[1]) * q + _NQ_C[2]) * q + _NQ_C[3]) * q
                 + _NQ_C[4]) * q + _NQ_C[5]) / \
               ((((_NQ_D[0] * q + _NQ_D[1]) * q + _NQ_D[2]) * q + _NQ_D[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (((((_NQ_A[0] * r + _NQ_A[1]) * r + _NQ_A[2]) * r + _NQ_A[3]) * r
             + _NQ_A[4]) * r + _NQ_A[5]) * q / \
           (((((_NQ_B[0] * r + _NQ_B[1]) * r + _NQ_B[2]) * r + _NQ_B[3]) * r
             + _NQ_B[4]) * r + 1.0)


def _normal_quantile_half(p: float) -> float:
    # p in (0, 0.5]; two Halley refinements pin the residual to ~1 ulp
    x = _normal_quantile_estimate(p)
    for _ in range(2):
        err = 0.5 * math.erfc(-x / _SQRT2) - p
        density = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        if density <= 0.0:
            break
        u = err / density
        x -= u / (1.0 + 0.5 * x * u)
    return x


def normal_quantile(z: float) -> float:
    """Inverse of the standard normal CDF; odd about z = 1/2."""
    z = _require_finite("z", z)
    if not 0.0 < z < 1.0:
        raise DomainError(f"normal_quantile requires 0 < z < 1, got {z}")
    if z == 0.5:
        return 0.0
    if z > 0.5:
        return -_normal_quantile_half(1.0 - z)
    return _normal_quantile_half(z)


def _erfc_inv_positive(y: float) -> float:
    # y in (0, 1): erfc_inv(y) >= 0; Newton polish on erfc itself
    t = -normal_quantile(0.5 * y) / _SQRT2
    for _ in range(2):
        tt = t * t
        if tt > 700.0:  # derivative underflows; estimate already exact to ~1e-9 rel
            break
        t += (math.erfc(t) - y) * (_SQRT_PI / 2.0) * math.exp(tt)
    return t


def erfc_inv(y: float) -> float:
    """Inverse complementary error function on (0, 2)."""
    y = _require_finite("y", y)
    if not 0.0 < y < 2.0:
        raise DomainError(f"erfc_inv requires 0 < y < 2, got {y}")
    if y == 1.0:
        return 0.0
    if y > 1.0:
        return -_erfc_inv_positive(2.0 - y)
    return _erfc_inv_positive(y)


def _beta_cont_frac(x: float, a: float, b: float) -> float:
    """Modified-Lentz continued fraction for the incomplete beta integral."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_TERMS + 1):
        m2 = 2 * m
        num = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + num * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + num / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        num = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + num * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + num / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < 1e-15:
            return h
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
    if not 0.0 < z < 1.0:
        raise DomainError(f"beta_quantile requires 0 < z < 1, got {z}")
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"beta_quantile requires a, b > 0, got a={a}, b={b}")
    return _invert_beta(z, a, b, 0.0, 1.0)


def beta_inv_cdf_symmetric(z: float, half_n: float) -> float:
    """Inverse CDF of Beta(half_n, half_n).

    Up to half_n = 1e6 the quantile is found by safeguarded Halley steps
    on :func:`beta_reg`; above it the distribution is indistinguishable
    from Normal(1/2, 1/(8*half_n + 4)) at double precision and the
    closed-form quantile is used instead.
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
