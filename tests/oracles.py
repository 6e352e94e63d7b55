"""Independent reference implementations used only to check the package.

Nothing here may import from the code paths under test beyond plain data:
the error-function oracle is a Maclaurin series / Laplace continued
fraction, the moment oracles integrate truncated-Gaussian densities with
adaptive quadrature, the beta oracle integrates the density directly, the
Holevo oracle works in 50-digit decimals, the V-search oracle steps one row
on Python floats, and the shots-file oracle writes its rows with the csv
module.
"""

from __future__ import annotations

import csv
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
from scipy import integrate


def erf_series(x: float, terms: int = 300) -> float:
    """Maclaurin series for erf, accurate to ~1e-16 for |x| <= 5."""
    total = []
    term = x
    for n in range(terms):
        total.append(term / (2 * n + 1))
        term *= -x * x / (n + 1)
        if abs(term) < 1e-22:
            break
    return 2.0 / math.sqrt(math.pi) * math.fsum(total)


def erfc_cf(x: float, max_iter: int = 400) -> float:
    """Laplace continued fraction for erfc, accurate for x >= 1.5."""
    if x < 1.5:
        raise ValueError("continued fraction oracle needs x >= 1.5")
    # erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    tiny = 1e-300
    f = x if x != 0 else tiny
    c, d = f, 0.0
    for k in range(1, max_iter):
        an = k / 2.0
        d = x + an * d
        if d == 0:
            d = tiny
        c = x + an / c
        if c == 0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return math.exp(-x * x) / math.sqrt(math.pi) / f


def erfc_oracle(x: float) -> float:
    """Series below 1.5, continued fraction above; reflection for x < 0."""
    if x < 0:
        return 2.0 - erfc_oracle(-x)
    if x < 1.5:
        return 1.0 - erf_series(x)
    return erfc_cf(x)


def _normal_pdf(y: float, mu: float, sigma: float) -> float:
    z = (y - mu) / sigma
    return math.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))


def postprocessed_axis_moments(mu: float, sigma: float) -> dict:
    """Quadrature oracle for the single-axis re-displacement statistics.

    The receiver outcome on one axis is y ~ N(mu, sigma^2); he subtracts
    sign(y) * mu.  Everything below is an adaptive integral over y, making
    no use of erfc-based closed forms.
    """
    lim = 12.0 * sigma + abs(mu)

    def split(f):
        lo, _ = integrate.quad(f, -lim, 0.0, epsabs=1e-13, epsrel=1e-13, limit=200)
        hi, _ = integrate.quad(f, 0.0, lim, epsabs=1e-13, epsrel=1e-13, limit=200)
        return lo + hi

    e_c = integrate.quad(lambda y: _normal_pdf(y, mu, sigma), -lim, 0.0,
                         epsabs=1e-14, epsrel=1e-14, limit=200)[0]
    mean = split(lambda y: (y - math.copysign(mu, y)) * _normal_pdf(y, mu, sigma))
    second = split(lambda y: (y - math.copysign(mu, y)) ** 2 * _normal_pdf(y, mu, sigma))
    # E[(y - mu) * (y - sign(y) mu)] drives the alice-bob correlation through
    # the Gaussian conditional mean of the sender outcome
    cross = split(lambda y: (y - mu) * (y - math.copysign(mu, y))
                  * _normal_pdf(y, mu, sigma))
    return {
        "e_c": e_c,
        "mean": mean,
        "variance": second - mean * mean,
        "cross": cross,
    }


def beta_density_integral(x: float, a: float, b: float) -> float:
    """Adaptive quadrature of the Beta(a, b) density up to x."""
    ln_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(ln_norm + (a - 1.0) * math.log(t)
                        + (b - 1.0) * math.log1p(-t))

    mode = (a - 1.0) / (a + b - 2.0) if a > 1.0 and b > 1.0 else 0.5
    points = [p for p in (mode,) if 0.0 < p < x]
    with warnings.catch_warnings():
        # requested tolerance sits at float64 roundoff for sharp densities;
        # the returned value is still comfortably inside the 1e-10 oracle bar
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _ = integrate.quad(density, 0.0, x, points=points or None,
                                  epsabs=1e-13, epsrel=1e-13, limit=400)
    return value


def entropy_g(x: float) -> float:
    """Direct evaluation of the bosonic entropy function (test-side copy)."""
    if x <= 1.0:
        return 0.0
    xp, xm = (x + 1.0) / 2.0, (x - 1.0) / 2.0
    return xp * math.log2(xp) - xm * math.log2(xm)


def rate_from_triple(a: float, b: float, c: float, beta: float) -> tuple:
    """Spreadsheet-style recomputation of (I, chi, K) from a covariance triple."""
    i_ab = math.log2((a + 1.0) / (a + 1.0 - c * c / (b + 1.0)))
    d1 = a * a + b * b - 2.0 * c * c
    d2 = a * b - c * c
    root = math.sqrt(max(d1 * d1 - 4.0 * d2 * d2, 0.0))
    lam1 = math.sqrt((d1 + root) / 2.0)
    lam2 = math.sqrt((d1 - root) / 2.0)
    lam3 = a - c * c / (b + 1.0)
    chi = entropy_g(lam1) + entropy_g(lam2) - entropy_g(lam3)
    return i_ab, chi, beta * i_ab - chi


def holevo_decimal(a: float, b: float, c: float, digits: int = 50) -> dict:
    """The symplectic invariants, eigenvalues and chi of a triple, to ``digits`` digits.

    The floats are exact binary numbers, so only the arithmetic here rounds:
    d1 = a^2 + b^2 - 2c^2 and d2 = ab - c^2, the eigenvalues lambda1 >= lambda2
    of the state, lambda3 of mode A given heterodyne of mode B, and chi =
    g(lambda1) + g(lambda2) - g(lambda3) with g = 0 at or below 1.  A negative
    discriminant d1^2 - 4 d2^2 (a triple unphysical by the rounding of its
    entries) is taken as 0, as ``rate_from_triple`` takes it.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        a, b, c = Decimal(a), Decimal(b), Decimal(c)
        ln2 = Decimal(2).ln()

        def g(x):
            if x <= 1:
                return Decimal(0)
            xp, xm = (x + 1) / 2, (x - 1) / 2
            return (xp * xp.ln() - xm * xm.ln()) / ln2

        d1 = a * a + b * b - 2 * c * c
        d2 = a * b - c * c
        root = max(d1 * d1 - 4 * d2 * d2, Decimal(0)).sqrt()
        lam1, lam2 = ((d1 + root) / 2).sqrt(), ((d1 - root) / 2).sqrt()
        lam3 = a - c * c / (b + 1)
        return {"d1": d1, "d2": d2, "lambda1": lam1, "lambda2": lam2, "lambda3": lam3,
                "chi": g(lam1) + g(lam2) - g(lam3)}


def brute_force_optimum(objective, n_points: int = 10_000,
                        v_low: float = 1.001, v_high: float = 1e3) -> float:
    """Dense-grid maximum used as the optimiser oracle.

    An objective that takes an array of V is evaluated in one call; any
    other objective point by point.
    """
    grid = np.geomspace(v_low, v_high, n_points)
    try:
        values = np.asarray(objective(grid), dtype=float)
    except (TypeError, ValueError):
        values = None
    if values is None or values.shape != grid.shape:
        values = np.array([objective(v) for v in grid])
    best = max(values.tolist())
    return max(best, 0.0)


def write_shots_csv(chunks, path) -> None:
    """The per-shot scatter file of shot chunks, as the csv module writes it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["shot", "alice_x", "alice_y", "bob_raw_x", "bob_raw_y",
                         "bob_post_x", "bob_post_y", "true_symbol", "decided_symbol"])
        for chunk in chunks:
            columns = (*chunk.joint[:, :2].T, *chunk.bob_raw.T, *chunk.joint[:, 2:].T,
                       chunk.true_symbols, chunk.decided_symbols)
            writer.writerows(zip(range(chunk.start, chunk.start + len(chunk.joint)),
                                 *(column.tolist() for column in columns)))


def golden_section_optimum(score, points: int = 60, v_low: float = 1.001,
                           v_high: float = 1e3, log_tol: float = 1e-4) -> tuple:
    """One row's V search from its definition: (v_star, k_star, evaluations, bracket).

    ``score(v)`` is the rate at V = v; the search stops at the first error
    it raises.  The best of ``points`` log-spaced V over [v_low, v_high]
    (the first, on a tie) is bracketed by its neighbours, and golden
    sections narrow the bracket to a width of ``log_tol`` in log V.  The
    optimum is the best of that grid point and the last two inner points,
    or no key (k_star 0 at v_star nan) where none of them is positive.
    """
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    log_low, log_high = math.log(v_low), math.log(v_high)
    logs = [log_low + i * (log_high - log_low) / (points - 1) for i in range(points)]
    values = [score(math.exp(u)) for u in logs]
    best = max(range(points), key=values.__getitem__)
    lo, hi = logs[max(best - 1, 0)], logs[min(best + 1, points - 1)]
    x1, x2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
    f1 = score(math.exp(x1))
    f2 = score(math.exp(x2))
    evaluations = points + 2
    while hi - lo > log_tol:
        if f1 < f2:  # the maximum lies above x1
            lo, x1, f1 = x1, x2, f2
            x2 = lo + golden * (hi - lo)
            f2 = score(math.exp(x2))
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - golden * (hi - lo)
            f1 = score(math.exp(x1))
        evaluations += 1
    k, v = max([(values[best], math.exp(logs[best])), (f1, math.exp(x1)),
                (f2, math.exp(x2))], key=lambda kv: kv[0])
    if not (k > 0.0 and math.isfinite(k)):
        k, v = 0.0, math.nan
    return v, k, evaluations, (math.exp(lo), math.exp(hi))
