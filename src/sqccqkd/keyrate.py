"""Secret-key rates, asymptotic and finite-block, and the search over modulation variance.

Rates follow the reverse-reconciliation recipe: K = beta * I_AB - chi_EB,
with both information quantities evaluated on the Gaussian-equivalent
state after postprocessing and renormalisation; the finite-block rate
takes chi_EB at worst-case estimates and subtracts ``finitekey``'s
penalties.  The residual mean never enters the entropies.

``rate_cells`` is the one implementation: it evaluates the whole chain
over broadcast arrays of operating points and records, per element, the
error the chain raises first there.  ``rate_at`` evaluates it at one
operating point, and ``optimise_rows`` searches V for many rows in lockstep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelParams,
    ProtocolParams,
    _baseline_noise,
    _check_protocol,
    _covariance,
    _total_excess_noise,
)
from .errors import Checks, DomainError, NumericError, PhysicalityError, SqccError
from .finitekey import SecurityParams, _check_correlation, _worst_case
from .gaussian import (
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
from .special import _exp, _log2, _square, _where

__all__ = [
    "Optimum",
    "rate_cells",
    "rate_at",
    "optimise_v",
    "optimise_rows",
    "rate_rows",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_V_BRACKET = (1.001, 1e3)  # the search range of V
_LOG_V_TOL = 1e-4  # golden-section stop: bracket width in log V
# elements per kernel call of a V search: the kernel holds about 40 float64
# arrays of this length, so a block bounds its working memory near 0.7 MB
_BLOCK = 2048


@dataclass(frozen=True)
class Optimum:
    """Result of the scalar maximisation over the modulation variance."""

    v_star: float
    k_star: float
    evaluations: int
    bracket: tuple[float, float]


@dataclass(frozen=True)
class _FiniteTerms:
    """Per-element finite-size constants of the rate, from SecurityParams.

    The estimator margins and the penalties are those of the finite-block
    rate with ``sec``; ``errors`` holds, per element, the error computing
    the margins raised (None where they exist), which the chain meets at
    the worst-case estimators.
    """

    delta_var: np.ndarray
    delta_cov: np.ndarray
    frame_success: np.ndarray
    aep: np.ndarray  # sqrt(p_f / N) * Delta_AEP
    ent: np.ndarray  # sqrt(p_f log2(p_f N) / N) * Delta_ent
    s: np.ndarray  # Delta_S / N
    h: np.ndarray  # Delta_H / N
    block_size: np.ndarray
    errors: np.ndarray

    @classmethod
    def of(cls, secs: list[SecurityParams]) -> _FiniteTerms:
        """One element per SecurityParams, from its cached margins and penalties."""
        rows = []
        for sec in secs:
            try:
                margins, error = sec._estimator_margins, None
            except SqccError as exc:
                margins, error = (math.nan, math.nan), exc
            d = sec._delta_terms
            n = sec.block_size
            p_f = sec.frame_success
            rows.append((*margins, p_f, math.sqrt(p_f / n) * d.aep,
                         math.sqrt(p_f * math.log2(p_f * n) / n) * d.ent,
                         d.s / n, d.h / n, n, error))
        *columns, errors = zip(*rows)
        return cls(*(np.array(col, dtype=float) for col in columns),
                   errors=np.array(errors, dtype=object))

    def take(self, index) -> _FiniteTerms:
        """The elements at ``index`` (an integer array, or one position)."""
        return _FiniteTerms(*(getattr(self, f)[index] for f in self.__dataclass_fields__))


def _check_model(model: str) -> None:
    if model not in ("sqcc", "baseline"):
        raise DomainError(f"unknown rate model {model!r}")


def _mutual_information(checks: Checks, a, b, c, double: bool):
    """Reverse-reconciliation mutual information (bits) over arrays.

    ``double`` (dual-quadrature accounting) is off in all shipped figures.
    """
    denom = a + 1.0 - _square(c) / (b + 1.0)
    checks.add(denom <= 0.0, NumericError, "mutual information denominator {:.3e} <= 0",
               denom)
    value = _log2((a + 1.0) / denom)
    return 2.0 * value if double else value


def _holevo(checks: Checks, a, b, c, verdict=None):
    """The Holevo bound chi_EB (bits) over arrays, with the state's verdict if taken."""
    if verdict is None:
        verdict = _physicality(a, b, c)
    _check_overflow(checks, verdict.overflow, a, b, c)
    checks.add(np.logical_not(verdict.physical), PhysicalityError,
               "holevo bound needs a physical state; {} violates the vacuum limit by "
               "{:.3e}", _REASONS[verdict.reason], verdict.worst)
    lam3 = _conditional(checks, a, b, c)
    spectrum = verdict.spectrum
    chi = (_entropy(checks, spectrum.lambda1) + _entropy(checks, spectrum.lambda2)
           - _entropy(checks, lam3))
    checks.add(chi < -1e-12, NumericError, "negative holevo bound {:.3e}", chi)
    return _where(chi < 0.0, 0.0, chi)


def _rate(checks: Checks, a, b, c, reconciliation_efficiency, mi_double: bool,
          finite: _FiniteTerms | None = None, verdict=None):
    """(I_AB, chi_EB, K = beta I_AB - chi_EB) over arrays, and with ``finite`` (K^F, l).

    ``verdict`` is the state's physicality verdict, if already taken; with
    ``finite`` chi_EB is taken at the worst-case estimates instead.
    """
    eve = (a, b, c)
    if finite is not None:
        _check_correlation(checks, c)
        checks.add(np.not_equal(finite.errors, None), finite.errors)
        eve = _worst_case(a, b, c, finite.delta_var, finite.delta_cov)
        _check_finite(checks, *eve)
        verdict = None
    mi = _mutual_information(checks, a, b, c, mi_double)
    chi = _holevo(checks, *eve, verdict)
    k = reconciliation_efficiency * mi - chi
    if finite is None:
        return mi, chi, k
    rate = finite.frame_success * k - finite.aep - finite.ent + finite.s + finite.h
    return mi, chi, k, rate, rate * finite.block_size


@np.errstate(all="ignore")
def rate_cells(v, d, t, eps, sigma, beta=0.95,
               strategy: RenormStrategy = RenormStrategy.B_PRESERVING,
               model: str = "sqcc", mi_double: bool = False,
               finite: _FiniteTerms | None = None, asymptotic: bool = True,
               checks: Checks | None = None) -> tuple[dict, Checks]:
    """The closed-form chain at broadcast arrays of (V, d, T, eps, sigma).

    ``model`` "sqcc" postprocesses and renormalises with ``strategy``;
    "baseline" is the prior model (``qi_baseline_state``), whose e_c comes
    straight from the shared state's SNR.  Returns the cells named as the
    CSV columns (``V``, ``d``, ``snr``, ``e_C``, the moments and ``delta_v``
    for "sqcc", ``feasible``; with ``asymptotic`` also ``I_AB``,
    ``chi_EB`` and ``K``; with ``finite`` also ``K_PE``, ``K_F`` and
    ``ell``) and the checks, whose ``error(index)`` is the exception the
    scalar chain raises first at that element.  ``checks`` may carry
    errors found before the chain.  Cells of a failed element are
    meaningless; at the broadcast shape () the cells are numpy scalars.
    """
    _check_model(model)
    inputs = [np.asarray(x, dtype=float) for x in (v, d, t, eps, sigma)]
    shape = np.broadcast(*inputs).shape
    if checks is None:
        checks = Checks(shape)
    if math.prod(shape) == 1:
        # one element computes on numpy scalars, several times faster than arrays
        v, d, t, eps, sigma = (x.ravel()[0] for x in inputs)
        if finite is not None:
            finite = _FiniteTerms(*(np.ravel(x)[0] for x in vars(finite).values()))
    else:
        v, d, t, eps, sigma = np.broadcast_arrays(*inputs)
    _check_protocol(checks, v, d, beta)
    eps_tot = _total_excess_noise(checks, eps, sigma, t, d)
    b, c = _covariance(v, t, eps_tot)
    _check_finite(checks, v, b, c)  # the shared state
    td2, snr = _snr(t, d, b)
    if model == "sqcc":
        e_c, delta, b_d, c_d = _moments(checks, td2, snr, b, c)
        delta_v, b, c, _, feasible, verdict = _rescale(checks, strategy, v, b, c, b_d,
                                                       c_d, delta)
        cells = {"snr": snr, "e_C": e_c, "delta": delta, "a_d": v, "b_d": b_d,
                 "c_d": c_d, "delta_v": delta_v}
    else:
        # snr is finite and >= 0 on a valid shared state, so e_c is in [0, 0.5]
        e_c = _error_rate(snr)
        b, c = _covariance(v, t, _baseline_noise(eps_tot, d, e_c))
        _check_finite(checks, v, b, c)
        verdict = _physicality(v, b, c)
        _check_overflow(checks, verdict.overflow, v, b, c)
        feasible = verdict.physical
        cells = {"snr": snr, "e_C": e_c}
    cells.update(V=v, d=d, feasible=feasible)
    if asymptotic:
        cells["I_AB"], cells["chi_EB"], cells["K"] = _rate(checks, v, b, c, beta,
                                                           mi_double, verdict=verdict)
    if finite is not None:
        mi, _, cells["K_PE"], cells["K_F"], cells["ell"] = _rate(
            checks, v, b, c, beta, mi_double, finite)
        cells["I_AB"] = mi
    if shape:  # at shape () the cells stay numpy scalars
        cells = {name: np.asarray(x).reshape(shape) for name, x in cells.items()}
    return cells, checks


def rate_at(proto: ProtocolParams, chan: ChannelParams,
            strategy: RenormStrategy = RenormStrategy.B_PRESERVING, model: str = "sqcc",
            mi_double: bool = False, sec: SecurityParams | None = None) -> dict:
    """``rate_cells`` at one operating point; raises the error the chain meets first.

    The cells are named as the CSV columns: ``I_AB``, ``chi_EB``, ``K`` and
    ``feasible``, or with ``sec`` the finite-block ``K_PE``, ``K_F`` and
    ``ell`` in place of ``chi_EB`` and ``K``.  An infeasible renormalisation
    is flagged in ``feasible``, not raised, so parameter sweeps can record
    the region instead of aborting.  ``model`` "baseline" ignores ``strategy``.
    """
    finite = None if sec is None else _FiniteTerms.of([sec]).take(0)
    cells, checks = rate_cells(proto.modulation_variance, proto.displacement,
                               chan.transmissivity, chan.excess_noise,
                               chan.phase_noise_factor, proto.reconciliation_efficiency,
                               strategy, model, mi_double, finite, sec is None)
    checks.raise_first()
    return cells


class _Rows:
    """Rate evaluations for rows of (channel, QoS threshold, optional SecurityParams).

    The displacement of each element is re-derived from its row's
    threshold, so the classical bit-error rate stays pinned at every V.
    """

    def __init__(self, chans: list[ChannelParams], thresholds: list[float],
                 strategy: RenormStrategy, beta: float, model: str, mi_double: bool,
                 secs: list[SecurityParams] | None):
        _check_model(model)
        self.t = np.array([chan.transmissivity for chan in chans])
        self.eps = np.array([chan.excess_noise for chan in chans])
        self.sigma = np.array([chan.phase_noise_factor for chan in chans])
        self.factor = np.full(len(chans), math.nan)
        self.errors = np.full(len(chans), None, dtype=object)
        for i, w in enumerate(thresholds):
            try:
                self.factor[i] = _displacement_factor(w)
            except SqccError as exc:
                self.errors[i] = exc
        self.invalid = np.not_equal(self.errors, None)
        self.finite = None if secs is None else _FiniteTerms.of(secs)
        self.options = (beta, strategy, model, mi_double)

    def cells(self, rows: np.ndarray, v: np.ndarray,
              asymptotic: bool = True) -> tuple[dict, Checks]:
        """Kernel cells at ``v`` of ``rows`` (broadcasting), scalars at one element."""
        checks = Checks(np.broadcast(rows, v).shape)
        if math.prod(checks.shape) == 1:  # one element computes on numpy scalars, faster
            rows, v = rows.ravel()[0], v.ravel()[0]
        checks.add(self.invalid[rows], self.errors[rows])
        t, eps = self.t[rows], self.eps[rows]
        d = _displacement(v, t, eps, self.factor[rows])
        finite = None if self.finite is None else self.finite.take(rows)
        beta, strategy, model, mi_double = self.options
        return rate_cells(v, d, t, eps, self.sigma[rows], beta, strategy, model,
                          mi_double, finite, asymptotic, checks)

    def scores(self, rows: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, dict]:
        """The rate (finite-block with SecurityParams) where feasible, else -inf.

        Returns the scores, shaped as ``v`` (one row per entry of ``rows``),
        and the error of each failed row at its first failed element.  The
        rows go to the kernel in blocks of at most ``_BLOCK`` elements.
        """
        finite = self.finite is not None
        score = np.empty(v.shape)
        errors = {}
        step = max(1, _BLOCK // max(v.shape[1], 1))
        for start in range(0, len(rows), step):
            part = slice(start, start + step)
            cells, checks = self.cells(rows[part, None], v[part], asymptotic=not finite)
            score[part] = _where(cells["feasible"], cells["K_F" if finite else "K"],
                                 -math.inf)
            if np.count_nonzero(checks.code):
                failed = checks.code != 0
                for i in np.flatnonzero(failed.any(axis=1)):
                    errors[int(rows[start + i])] = checks.error(
                        (i, int(np.argmax(failed[i]))))
            del cells, checks  # before the next block's arrays exist
        return score, errors


def _first_max(values: np.ndarray) -> np.ndarray:
    """Per row, the index ``max(range(n), key=row.__getitem__)`` picks."""
    best = np.argmax(values, axis=1)
    for i in np.flatnonzero(np.isnan(values).any(axis=1)):
        row = values[i].tolist()
        best[i] = max(range(len(row)), key=row.__getitem__)
    return best


def _lockstep(scores, n_rows: int, coarse_points: int = 60) -> list[Optimum | SqccError]:
    """Coarse log grid over V in [1.001, 1e3] plus golden-section refinement, per row.

    ``scores(rows, v)`` evaluates the rows listed in ``rows`` at the V
    values of each, one row of ``v`` each, returning the scores and the
    errors of failed rows.  Every row gets exactly the points, evaluation
    count and bracket of a search of its own; a row stops at its first
    error, as that search would.  If no evaluated point yields a positive
    value the optimum is reported as no-key: k_star = 0 with v_star = nan.
    """
    log_low, log_high = (math.log(v) for v in _V_BRACKET)
    logs = [log_low + i * (log_high - log_low) / (coarse_points - 1)
            for i in range(coarse_points)]
    grid = [math.exp(u) for u in logs]
    all_rows = np.arange(n_rows)
    errors = {}  # row -> the error its search stopped at
    failed = np.zeros(n_rows, dtype=bool)

    def evaluate(rows, v):
        values, new_errors = scores(rows, v)
        errors.update(new_errors)
        failed[list(new_errors)] = True
        return values

    values = evaluate(all_rows, np.tile(grid, (n_rows, 1)))
    i_best = _first_max(values)
    logs = np.array(logs)
    lo = logs[np.maximum(i_best - 1, 0)]
    hi = logs[np.minimum(i_best + 1, coarse_points - 1)]
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1 = np.full(n_rows, math.nan)
    f2 = np.full(n_rows, math.nan)
    for point, value in ((x1, f1), (x2, f2)):  # a lone row's calls are then scalar
        rows = all_rows[~failed]
        value[rows] = evaluate(rows, _exp(point[rows])[:, None])[:, 0]
    rows = all_rows[~failed]
    evaluations = np.full(n_rows, coarse_points + 2)
    # the refining rows' brackets, points and values, compacted as rows finish
    state = [x[rows] for x in (lo, hi, x1, x2, f1, f2)]
    steps = 0
    while rows.size:
        a, b, p1, p2, g1, g2 = state
        going = ~failed[rows] & ((b - a) > _LOG_V_TOL)
        if not going.all():
            done = rows[~going]
            for full, part in zip((lo, hi, x1, x2, f1, f2), state):
                full[done] = np.reshape(part, -1)[~going]
            evaluations[done] += steps
            rows = rows[going]
            state = [np.reshape(x, -1)[going] for x in state]
            continue
        if rows.size == 1 and np.ndim(a):  # a lone row steps on numpy scalars, faster
            a, b, p1, p2, g1, g2 = (x[0] for x in state)
        up = g1 < g2
        a = _where(up, p1, a)
        b = _where(up, b, p2)
        span = _GOLDEN * (b - a)
        x = _where(up, a + span, b - span)  # the new inner point
        g = evaluate(rows, _exp(x).reshape(-1, 1))
        g = g[:, 0] if np.ndim(x) else g[0, 0]
        state = [a, b, _where(up, p2, x), _where(up, x, p1), _where(up, g2, g),
                 _where(up, g, g1)]
        steps += 1

    results = []
    for i in all_rows.tolist():
        if i in errors:
            results.append(errors[i])
            continue
        candidates = [
            (float(values[i, i_best[i]]), grid[i_best[i]]),
            (float(f1[i]), math.exp(x1[i])),
            (float(f2[i]), math.exp(x2[i])),
        ]
        k_best, v_best = max(candidates, key=lambda kv: kv[0])
        if not (k_best > 0.0) or not math.isfinite(k_best):
            k_best, v_best = 0.0, math.nan
        results.append(Optimum(v_star=v_best, k_star=k_best,
                               evaluations=int(evaluations[i]),
                               bracket=(math.exp(lo[i]), math.exp(hi[i]))))
    return results


def optimise_rows(chans: list[ChannelParams], thresholds: list[float],
                  strategy: RenormStrategy = RenormStrategy.B_PRESERVING,
                  beta: float = 0.95, model: str = "sqcc", mi_double: bool = False,
                  secs: list[SecurityParams] | None = None) -> list[Optimum | SqccError]:
    """``optimise_v`` for each (channel, threshold[, SecurityParams]) row, in lockstep.

    Each row gets the Optimum its own search returns, or the error it
    raises.
    """
    rows = _Rows(chans, thresholds, strategy, beta, model, mi_double, secs)
    return _lockstep(rows.scores, len(chans))


def optimise_v(chan: ChannelParams, qos_threshold: float,
               strategy: RenormStrategy = RenormStrategy.B_PRESERVING,
               beta: float = 0.95, model: str = "sqcc",
               mi_double: bool = False, sec: SecurityParams | None = None) -> Optimum:
    """Maximise the asymptotic rate, or with ``sec`` the finite-block rate, over V.

    The displacement is re-derived from the QoS threshold at every trial
    V, so the classical bit-error rate stays pinned across the search.
    """
    result = optimise_rows([chan], [qos_threshold], strategy, beta, model, mi_double,
                           None if sec is None else [sec])[0]
    if isinstance(result, SqccError):
        raise result
    return result


def rate_rows(chans: list[ChannelParams], thresholds: list[float], v,
              strategy: RenormStrategy = RenormStrategy.B_PRESERVING,
              beta: float = 0.95, mi_double: bool = False,
              secs: list[SecurityParams] | None = None) -> tuple[dict, Checks]:
    """``rate_cells`` at one V per row, with d from the row's QoS threshold.

    Returns the asymptotic cells, and with ``secs`` the finite-block ones.
    """
    rows = _Rows(chans, thresholds, strategy, beta, "sqcc", mi_double, secs)
    cells, checks = rows.cells(np.arange(len(chans)), np.asarray(v, dtype=float))
    return {name: np.reshape(x, checks.shape) for name, x in cells.items()}, checks
