"""Secret-key rates, asymptotic and finite-block, and the search over modulation variance.

Rates follow the reverse-reconciliation recipe: K = beta * I_AB - chi_EB,
with both information quantities evaluated on the Gaussian-equivalent
state after postprocessing and renormalisation; the finite-block rate
takes chi_EB at worst-case estimates and subtracts ``finitekey``'s
penalties.  The residual mean never enters the entropies.

``rate_cells`` checks its inputs and evaluates the whole chain, ``_chain``, over
broadcast arrays of operating points, recording per element the error the chain
raises first there.  ``rate_at`` evaluates it at one operating point, and
``optimise_rows`` searches V for many rows in lockstep, through ``_chain`` too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import (
    ChannelParams,
    ProtocolParams,
    _check_channel,
    _check_protocol,
    _covariance,
    _shared_state,
)
from .errors import Checks, DomainError, NumericError, PhysicalityError, SqccError
from .finitekey import SecurityParams, _check_correlation, _worst_case
from .gaussian import (
    _PHYSICALITY_SLACK,
    _REASONS,
    _check_finite,
    _check_overflow,
    _conditional,
    _entropy,
    _physicality,
)
from .postprocess import (
    RenormStrategy,
    _displacement,
    _displacement_factor,
    _error_rate,
    _moments,
    _rescale,
    _snr,
)
from .special import _div, _exp, _isfinite, _log2, _real, _where

__all__ = [
    "Optimum",
    "rate_cells",
    "rate_at",
    "optimise_v",
    "optimise_rows",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_V_BRACKET = (1.001, 1e3)  # the search range of V
_LOG_V_TOL = 1e-4  # golden-section stop: bracket width in log V
_COARSE_POINTS = 60  # log-spaced V of the grid that brackets each row's maximum
# elements per kernel call of a V search: the kernel holds about 40 float64
# arrays of this length, so a block bounds its working memory near 0.7 MB
_BLOCK = 2048
# near a pure state chi cancels to 0 within a rounding that a 50-digit oracle bounds
# below g(1 + slack) = 1.6e-8, the entropy of an eigenvalue one slack above vacuum
_CHI_FLOOR = -_entropy(Checks(), 1.0 + _PHYSICALITY_SLACK)


@dataclass(frozen=True)
class Optimum:
    """Result of the scalar maximisation over the modulation variance."""

    v_star: float
    k_star: float
    evaluations: int
    bracket: tuple[float, float]


def _table(constants: Callable, items: list, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``width`` floats ``constants(item)`` gives, one column per item, and the
    SqccError it raises per item (None where it returns; the column is NaN)."""
    table = np.full((width, len(items)), math.nan)
    errors = np.full(len(items), None, dtype=object)
    for i, item in enumerate(items):
        try:
            table[:, i] = constants(item)
        except SqccError as exc:
            errors[i] = exc
    return table, errors


def _check_options(strategy: RenormStrategy, model: str) -> None:
    if model not in ("sqcc", "baseline"):
        raise DomainError(f"unknown rate model {model!r}")
    if not isinstance(strategy, RenormStrategy):
        raise DomainError(f"unknown renormalisation strategy {strategy!r}")


def _mutual_information(checks: Checks, a, b, c):
    """Reverse-reconciliation mutual information (bits) over arrays.

    Heterodyne on both quadratures: log2((a+1)(b+1) / ((a+1)(b+1) - c^2)),
    the conditional of the Holevo bound being heterodyne too.
    """
    denom = a + 1.0 - _div(c * c, b + 1.0)
    checks.add(denom <= 0.0, NumericError, "mutual information denominator {:.3e} <= 0",
               denom)
    return _log2(_div(a + 1.0, denom))


def _holevo(checks: Checks, a, b, c, verdict=None):
    """The Holevo bound chi_EB (bits) over arrays, with the state's verdict if taken."""
    if verdict is None:
        verdict = _physicality(a, b, c)
    _check_overflow(checks, verdict.overflow, a, b, c)
    checks.add(np.logical_not(verdict.physical), PhysicalityError,
               "holevo bound needs a physical state; {} violates the vacuum limit by "
               "{:.3e}", _REASONS[verdict.reason], verdict.worst)
    lam3 = _conditional(checks, a, b, c)
    chi = (_entropy(checks, verdict.lambda1) + _entropy(checks, verdict.lambda2)
           - _entropy(checks, lam3))
    checks.add(chi < _CHI_FLOOR, NumericError, "negative holevo bound {:.3e}", chi)
    return _where(chi < 0.0, 0.0, chi)


def _rate(checks: Checks, a, b, c, reconciliation_efficiency, finite=None, verdict=None):
    """(I_AB, chi_EB, K = beta I_AB - chi_EB) over arrays, and with ``finite`` (K^F, l).

    ``verdict`` is the state's physicality verdict, if already taken; with
    ``finite`` (the ``_table`` of ``SecurityParams._rate_terms``) chi_EB is
    taken at the worst-case estimates instead, where its errors meet the chain.
    """
    eve = (a, b, c)
    if finite is not None:
        (delta_var, delta_cov, p_f, aep, ent, s, h, n), errors = finite
        _check_correlation(checks, c)
        checks.add(np.not_equal(errors, None), errors)
        eve = _worst_case(a, b, c, delta_var, delta_cov)
        _check_finite(checks, *eve)
        verdict = None
    mi = _mutual_information(checks, a, b, c)
    chi = _holevo(checks, *eve, verdict)
    k = reconciliation_efficiency * mi - chi
    if finite is None:
        return mi, chi, k
    rate = p_f * k - aep - ent + s + h
    return mi, chi, k, rate, rate * n


@np.errstate(all="ignore")
def rate_cells(v, d, t, eps, sigma, beta=0.95,
               strategy: RenormStrategy = RenormStrategy.B_PRESERVING,
               model: str = "sqcc", finite=None, asymptotic: bool = True) -> tuple[dict, Checks]:
    """The closed-form chain at broadcast arrays of (V, d, T, eps, sigma).

    ``model`` "sqcc" postprocesses and renormalises with ``strategy``;
    "baseline" is the prior model, which folds the bit errors into the
    channel as Gaussian excess noise 4 d^2 e_c on a zero-mean state, takes
    e_c straight from the shared state's SNR, and does not renormalise.
    Returns the cells named as the CSV columns (``V``, ``d``, ``snr``,
    ``e_C``, the moments and ``delta_v`` for "sqcc", ``feasible``; with
    ``asymptotic`` also ``I_AB``, ``chi_EB`` and ``K``; with ``finite`` (see
    ``_rate``, broadcasting per element) also ``K_PE``, ``K_F`` and
    ``ell``) and the checks, whose ``error(index)`` is the exception the chain
    raises first on that element alone.  Cells of a failed element are
    meaningless; at the broadcast shape () the cells are Python floats and bools.
    """
    _check_options(strategy, model)
    shape = ()  # one element computes on floats
    beta = _real(beta)
    if not all(type(x) is float for x in (v, d, t, eps, sigma)):
        inputs = [np.asarray(_real(x), dtype=float) for x in (v, d, t, eps, sigma)]
        shape = np.broadcast(*inputs).shape
        v, d, t, eps, sigma = (x.item() for x in inputs) if math.prod(shape) == 1 else inputs
    if finite is not None and math.prod(shape) == 1:
        finite = np.ravel(finite[0]).tolist(), np.ravel(finite[1])[0]
    checks = Checks(shape)
    _check_protocol(checks, v, d, beta)
    _check_channel(checks, t, eps, sigma)
    return _chain(checks, v, d, t, eps, sigma, beta, strategy, model, finite, asymptotic)


def _chain(checks: Checks, v, d, t, eps, sigma, beta, strategy, model, finite, asymptotic):
    """``rate_cells`` past its entry checks, on inputs that broadcast to ``checks.shape``
    (arrays under ``np.errstate``): every evaluation of the package runs here."""
    eps_tot, b, c = _shared_state(checks, v, d, t, eps, sigma)
    td2, snr = _snr(t, d, b)
    if model == "sqcc":
        e_c, delta, b_d, c_d = _moments(checks, td2, snr, b, c)
        delta_v, b, c, _, feasible, verdict = _rescale(checks, strategy, v, b, c, b_d,
                                                       c_d, delta)
        cells = {"snr": snr, "e_C": e_c, "delta": delta, "a_d": v, "b_d": b_d,
                 "c_d": c_d, "delta_v": delta_v}
    else:
        # snr is finite and >= 0 on a valid shared state, so e_c is in [0, 0.5];
        # the bit errors become excess noise
        e_c = _error_rate(snr)
        b, c = _covariance(v, t, eps_tot + 4.0 * d * d * e_c)
        _check_finite(checks, v, b, c)
        verdict = _physicality(v, b, c)
        _check_overflow(checks, verdict.overflow, v, b, c)
        feasible = verdict.physical
        cells = {"snr": snr, "e_C": e_c}
    cells.update(V=v, d=d, feasible=feasible)
    if asymptotic:
        cells["I_AB"], cells["chi_EB"], cells["K"] = _rate(checks, v, b, c, beta,
                                                           verdict=verdict)
    if finite is not None:
        mi, _, cells["K_PE"], cells["K_F"], cells["ell"] = _rate(
            checks, v, b, c, beta, finite)
        cells["I_AB"] = mi
    if shape := checks.shape:  # at shape () the cells stay Python scalars
        cells = {name: x if np.shape(x) == shape else np.broadcast_to(x, shape)
                 for name, x in cells.items()}
    return cells, checks


def rate_at(proto: ProtocolParams, chan: ChannelParams,
            strategy: RenormStrategy = RenormStrategy.B_PRESERVING, model: str = "sqcc",
            sec: SecurityParams | None = None) -> dict:
    """``rate_cells`` at one operating point; raises the error the chain meets first.

    The cells are named as the CSV columns: ``I_AB``, ``chi_EB``, ``K`` and
    ``feasible``, or with ``sec`` the finite-block ``K_PE``, ``K_F`` and
    ``ell`` in place of ``chi_EB`` and ``K``.  An infeasible renormalisation
    is flagged in ``feasible``, not raised, so parameter sweeps can record
    the region instead of aborting.  ``model`` "baseline" ignores ``strategy``.
    """
    finite = None if sec is None else _table(SecurityParams._rate_terms, [sec], 8)
    cells, checks = rate_cells(proto.modulation_variance, proto.displacement,
                               chan.transmissivity, chan.excess_noise,
                               chan.phase_noise_factor, proto.reconciliation_efficiency,
                               strategy, model, finite, sec is None)
    checks.raise_first()
    return cells


class _Rows:
    """Rate evaluations for rows of (channel, QoS threshold, optional SecurityParams).

    The displacement of each element is re-derived from its row's
    threshold, so the classical bit-error rate stays pinned at every V.
    """

    def __init__(self, chans: list[ChannelParams], thresholds: list[float],
                 strategy: RenormStrategy, beta: float, model: str,
                 secs: list[SecurityParams] | None):
        _check_options(strategy, model)
        (factor,), errors = _table(_displacement_factor, thresholds, 1)
        self.finite = None if secs is None else _table(SecurityParams._rate_terms, secs, 8)
        channel = [[getattr(chan, name) for chan in chans] for name in
                   ("transmissivity", "excess_noise", "phase_noise_factor")]
        late = []  # each row's channel error, checked once here, not at every V
        for t, eps, sigma in zip(*channel):
            _check_channel(constants := Checks(), t, eps, sigma)
            late.append(constants.error())
        # T, eps, sigma, the displacement factor, and the threshold and channel errors
        self.columns = (*map(np.array, channel), factor, np.not_equal(errors, None), errors,
                        np.not_equal(late, None), np.array(late, dtype=object))
        terms = ([None] * len(chans) if secs is None else
                 zip(self.finite[0].T.tolist(), self.finite[1]))
        self.lone = list(zip(*(x.tolist() for x in self.columns), terms))  # as floats
        self.options = (_real(beta), strategy, model)

    def __len__(self) -> int:
        return len(self.lone)

    def cells(self, rows, v, asymptotic: bool = True) -> tuple[dict, Checks]:
        """Kernel cells at ``v`` of ``rows`` (broadcasting), or of one row (an int)
        at one V on floats, which warn of nothing."""
        if not isinstance(rows, np.ndarray):
            return self._cells(Checks(), v, *self.lone[rows], asymptotic)
        finite = self.finite and (self.finite[0][:, rows], self.finite[1][rows])
        with np.errstate(all="ignore"):
            return self._cells(Checks(np.broadcast(rows, v).shape), v,
                               *(x[rows] for x in self.columns), finite, asymptotic)

    def _cells(self, checks, v, t, eps, sigma, factor, invalid, errors, bad, late, finite,
               asymptotic):
        d = _displacement(v, t, eps, factor)
        checks.add(invalid, errors)
        checks.add(np.logical_not(_isfinite(d)), DomainError, "required displacement "
                   "overflows: V + eps - 1 + 2 / T is not finite at V = {}, eps = {}, "
                   "T = {}", v, eps, t)
        _check_protocol(checks, v, d, self.options[0])
        checks.add(bad, late)  # the channel's, after the protocol's as in rate_cells
        return _chain(checks, v, d, t, eps, sigma, *self.options, finite, asymptotic)

    def scores(self, rows, v) -> tuple[np.ndarray, dict]:
        """The rate (finite-block with SecurityParams) where feasible, else -inf.

        Returns the scores, shaped as ``v`` (one row per entry of ``rows``),
        and the error of each failed row at its first failed element; one row
        (an int) at one V gives a float.  The rows go to the kernel in blocks
        of at most ``_BLOCK`` elements.
        """
        finite = self.finite is not None
        key = "K_F" if finite else "K"
        if not isinstance(rows, np.ndarray):
            cells, checks = self.cells(rows, v, asymptotic=not finite)
            error = checks.error()
            return (_where(cells["feasible"], cells[key], -math.inf),
                    {} if error is None else {rows: error})
        score = np.empty(v.shape)
        errors = {}
        step = max(1, _BLOCK // max(v.shape[1], 1))
        for start in range(0, len(rows), step):
            part = slice(start, start + step)
            cells, checks = self.cells(rows[part, None], v[part], asymptotic=not finite)
            score[part] = _where(cells["feasible"], cells[key], -math.inf)
            failed = checks.code != 0
            for i in np.flatnonzero(failed.any(axis=1)):
                errors[int(rows[start + i])] = checks.error((i, int(np.argmax(failed[i]))))
            del cells, checks  # before the next block's arrays exist
        return score, errors


def _lockstep(scores, n_rows: int) -> list[Optimum | SqccError]:
    """Coarse log grid over V in [1.001, 1e3] plus golden-section refinement, per row.

    ``scores(rows, v)`` evaluates the rows listed in ``rows`` at the V
    values of each, one row of ``v`` each (a lone row: an int, at a float),
    returning the scores and the errors of failed rows.  Each row's bracket,
    inner points and their scores are a column of one state array.  While
    several rows refine, they take each golden-section step together; the
    last row refining steps on Python floats.  Every row gets exactly the
    points, evaluation count and bracket of a search of its own; a row stops
    at its first error, as that search would.  If no evaluated point yields
    a positive value the optimum is reported as no-key: k_star = 0 with
    v_star = nan.
    """
    log_low, log_high = (math.log(v) for v in _V_BRACKET)
    logs = [log_low + i * (log_high - log_low) / (_COARSE_POINTS - 1)
            for i in range(_COARSE_POINTS)]
    grid = [math.exp(u) for u in logs]
    errors = {}  # row -> the error its search stopped at
    failed = np.zeros(n_rows, dtype=bool)

    def evaluate(rows, v):
        values, new_errors = scores(rows, v)
        if new_errors:
            errors.update(new_errors)
            failed[list(new_errors)] = True
        return values

    def inner(rows, x):
        """The scores of ``rows`` at log V ``x``, one each; a lone row's on floats."""
        if rows.size == 1:
            return evaluate(rows.item(), _exp(x if type(x) is float else x.item()))
        return evaluate(rows, _exp(x)[:, None])[:, 0]

    def step(rows, part):
        """The state ``part`` of ``rows`` after one golden-section step."""
        a, b, p1, p2, g1, g2 = part
        up = g1 < g2
        a = _where(up, p1, a)
        b = _where(up, b, p2)
        span = _GOLDEN * (b - a)
        x = _where(up, a + span, b - span)  # the new inner point
        g = inner(rows, x)
        return [a, b, _where(up, p2, x), _where(up, x, p1), _where(up, g2, g),
                _where(up, g, g1)]

    values = evaluate(np.arange(n_rows), np.tile(grid, (n_rows, 1)))
    i_best = np.argmax(values, axis=1)  # NaN only on failed rows, reported by error
    state = np.full((6, n_rows), math.nan)
    lo, hi, x1, x2, f1, f2 = state  # views of each row's bracket, inner points, scores
    lo[:] = np.array(logs)[np.maximum(i_best - 1, 0)]
    hi[:] = np.array(logs)[np.minimum(i_best + 1, _COARSE_POINTS - 1)]
    x1[:] = hi - _GOLDEN * (hi - lo)
    x2[:] = lo + _GOLDEN * (hi - lo)
    for point, value in ((x1, f1), (x2, f2)):
        rows = np.flatnonzero(~failed)
        value[rows] = inner(rows, point[rows])
    evaluations = np.full(n_rows, _COARSE_POINTS + 2)
    while (rows := np.flatnonzero(~failed & (hi - lo > _LOG_V_TOL))).size > 1:
        state[:, rows] = step(rows, state[:, rows])
        evaluations[rows] += 1
    if rows.size:  # the last row refining steps on floats, faster, until it stops
        i = rows.item()
        part = state[:, i].tolist()
        while not failed[i] and part[1] - part[0] > _LOG_V_TOL:
            part = step(rows, part)
            evaluations[i] += 1
        state[:, i] = part

    results = []
    for i, (a, b, p1, p2, g1, g2) in enumerate(state.T.tolist()):
        if i in errors:
            results.append(errors[i])
            continue
        best = int(i_best[i])
        k_best, v_best = max([(values[i, best].item(), grid[best]), (g1, math.exp(p1)),
                              (g2, math.exp(p2))], key=lambda kv: kv[0])
        if not (k_best > 0.0) or not math.isfinite(k_best):
            k_best, v_best = 0.0, math.nan
        results.append(Optimum(v_star=v_best, k_star=k_best,
                               evaluations=int(evaluations[i]),
                               bracket=(math.exp(a), math.exp(b))))
    return results


def optimise_rows(chans: list[ChannelParams], thresholds: list[float],
                  strategy: RenormStrategy = RenormStrategy.B_PRESERVING,
                  beta: float = 0.95, model: str = "sqcc",
                  secs: list[SecurityParams] | None = None) -> list[Optimum | SqccError]:
    """``optimise_v`` for each (channel, threshold[, SecurityParams]) row, in lockstep.

    Each row gets the Optimum its own search returns, or the error it
    raises.
    """
    rows = _Rows(chans, thresholds, strategy, beta, model, secs)
    return _lockstep(rows.scores, len(chans))


def optimise_v(chan: ChannelParams, qos_threshold: float,
               strategy: RenormStrategy = RenormStrategy.B_PRESERVING,
               beta: float = 0.95, model: str = "sqcc",
               sec: SecurityParams | None = None) -> Optimum:
    """Maximise the asymptotic rate, or with ``sec`` the finite-block rate, over V.

    The displacement is re-derived from the QoS threshold at every trial
    V, so the classical bit-error rate stays pinned across the search.
    """
    result = optimise_rows([chan], [qos_threshold], strategy, beta, model,
                           None if sec is None else [sec])[0]
    if isinstance(result, SqccError):
        raise result
    return result
