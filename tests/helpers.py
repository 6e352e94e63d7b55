"""Test paths into the kernel: state-level quantities and the V search's objective.

The package evaluates its formulas at operating points (``keyrate.rate_at``)
and over arrays (``keyrate.rate_cells``).  ``rate_rows`` evaluates rows of
(channel, QoS threshold) at one V each, as the CLI's fixed-V sweeps do, and
``worst_case_estimators`` gives the worst-case extremes of one covariance
triple.  ``on_point`` runs one of the
private array stages on scalar arguments, and ``on_triple`` on any
(a, b, c), physical or not; each raises the first error the stage records,
as the kernel reports it.  ``shared`` and
``renormalised`` run the kernel's stages at one operating point and return
what its cells leave out: the shared state, the rescaled state, the
residual mean and the effective channel.
"""

import math
from types import SimpleNamespace

import numpy as np

from sqccqkd.channel import _shared_state
from sqccqkd.errors import Checks
from sqccqkd.finitekey import _check_correlation, _worst_case
from sqccqkd.gaussian import _check_finite, _check_overflow, _physicality
from sqccqkd.keyrate import _Rows, rate_cells
from sqccqkd.postprocess import RenormStrategy, _moments, _rescale


@np.errstate(all="ignore")
def on_point(fn, *args):
    """``fn(checks, *args)`` with each argument a float64; raises its first error."""
    checks = Checks()
    value = fn(checks, *(np.float64(x) for x in args))
    checks.raise_first()
    return value


def vacuum_moments(snr):
    """``_moments`` of a vacuum receiver (b = c = 0) at ``snr``: (e_c, delta, g, 0).

    Its b_d is the relative shift g of the receiver variance,
    b_d + 1 = (b + 1)(1 + g), which ``montecarlo.estimate`` infers from.
    """
    return on_point(_moments, snr, snr, 0.0, 0.0)


@np.errstate(all="ignore")
def on_triple(fn, a, b, c, *args):
    """``fn(checks, a, b, c, *args)`` on one triple; raises its first error."""
    checks = Checks()
    value = fn(checks, *(np.float64(x) for x in (a, b, c)), *args)
    checks.raise_first()
    return value


def worst_case_estimators(a_hat, b_hat, c_hat, sec):
    """Confidence-interval extremes of one covariance triple at ``sec``'s margins,
    as the finite-block rate takes them; raises the first error it records there."""
    def extremes(checks, a, b, c):
        _check_correlation(checks, c)
        sigmas = _worst_case(a, b, c, *sec._estimator_margins)
        _check_finite(checks, *sigmas)
        return tuple(float(x) for x in sigmas)

    return on_triple(extremes, a_hat, b_hat, c_hat)


def rate_rows(chans, thresholds, v):
    """The asymptotic cells of the rows (channel, QoS threshold) at one V per row (or
    one V for all), with d from the row's threshold, and their checks."""
    rows = _Rows(chans, thresholds, RenormStrategy.B_PRESERVING, 0.95, "sqcc", None)
    cells, checks = rows.cells(np.arange(len(chans)), np.asarray(v, dtype=float))
    return {name: np.reshape(x, checks.shape) for name, x in cells.items()}, checks


def verdict(checks, a, b, c):
    """The uncertainty-principle verdict, whose spectrum may not overflow."""
    result = _physicality(a, b, c)
    _check_overflow(checks, result.overflow, a, b, c)
    return result


def _inputs(proto, chan):
    return (np.float64(x) for x in (proto.modulation_variance, proto.displacement,
                                    chan.transmissivity, chan.excess_noise,
                                    chan.phase_noise_factor))


@np.errstate(all="ignore")
def shared(proto, chan):
    """(a, b, c) of the state shared after the channel, as the kernel's first stage
    computes it; raises its first error."""
    checks = Checks()
    v, d, t, eps, sigma = _inputs(proto, chan)
    _, b, c = _shared_state(checks, v, d, t, eps, sigma)
    checks.raise_first()
    return float(v), float(b), float(c)


@np.errstate(all="ignore")
def renormalised(proto, chan, strategy=RenormStrategy.B_PRESERVING):
    """The postprocessed and renormalised chain at one operating point.

    Holds the cells of ``rate_cells`` (``snr``, ``e_c``, ``delta``, ``a_d``,
    ``b_d``, ``c_d``, ``delta_v`` and ``passed`` for its ``feasible``), the
    shared state (``a``, ``b``, ``c``), the rescaled state (``b_prime``,
    ``c_prime``) with its ``margin``, the residual receiver mean per
    quadrature before (``mean_d``) and after (``mean_prime``) rescaling, and
    the effective channel.  That is the single channel (``t_eff``,
    ``eps_eff``), built on the physical (T, eps_tot), that reproduces the
    rescaled covariance: (T, eps_tot + eps_eff) for C_PRESERVING, and for
    B_PRESERVING the physical channel followed by a virtual one (``t_v``,
    ``eps_v``), so (T T_v, eps_tot + eps_v / T).
    """
    v, d, t, eps, sigma = _inputs(proto, chan)
    cells, checks = rate_cells(v, d, t, eps, sigma, proto.reconciliation_efficiency,
                               strategy, asymptotic=False)
    checks.raise_first()
    eps_tot, b, c = _shared_state(Checks(), v, d, t, eps, sigma)
    _, b_prime, c_prime, margin, _, _ = _rescale(
        Checks(), strategy, v, b, c, cells["b_d"], cells["c_d"], cells["delta"])
    delta, delta_v = float(cells["delta"]), float(cells["delta_v"])
    if strategy is RenormStrategy.B_PRESERVING:
        # T_v is fixed by requiring the composed covariance to reproduce (b', c')
        t_v = (1.0 - delta) ** 2 / delta_v
        eps_v = (b - 1.0) * (1.0 / t_v - 1.0)
        t_eff, eps_eff = t * t_v, eps_tot + eps_v / t
    else:
        t_v, eps_v = 1.0, 0.0
        t_eff, eps_eff = t, eps_tot + (b_prime - b) / t
    mean_d = 2.0 * math.sqrt(t) * d * float(cells["e_C"]) / math.sqrt(2.0)
    return SimpleNamespace(
        snr=float(cells["snr"]), e_c=float(cells["e_C"]), delta=delta,
        a_d=float(cells["a_d"]), b_d=float(cells["b_d"]), c_d=float(cells["c_d"]),
        delta_v=delta_v, passed=bool(cells["feasible"]), strategy=strategy,
        a=float(v), b=float(b), c=float(c), b_prime=float(b_prime),
        c_prime=float(c_prime), margin=float(margin), mean_d=mean_d,
        mean_prime=mean_d / math.sqrt(delta_v), t_v=float(t_v), eps_v=float(eps_v),
        t_eff=float(t_eff), eps_eff=float(eps_eff))


def qos_objective(chan, qos_threshold):
    """The asymptotic rate at an array of V, -inf where infeasible; d meets the QoS."""
    def objective(v):
        cells, checks = rate_rows([chan], [qos_threshold], v)
        assert not checks.code.any()
        return np.where(cells["feasible"], cells["K"], -np.inf)

    return objective
