"""The array kernel ``rate_cells``: one element at a time or many, the same bits.

Every rate in the package is ``keyrate.rate_cells`` evaluated somewhere:
at one point by ``keyrate.rate_at``, over a whole grid by the CLI and
the lockstep V search.  These properties pin that an element's cells and
error do not depend on the array around it, that the rate matches the
spreadsheet oracle on the rescaled state, and that the lockstep search
gives each row the optimum of its own search.
"""

import itertools
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqccqkd.channel import ChannelParams, ProtocolParams, attenuation_db_to_transmissivity
from sqccqkd.errors import Checks, DomainError, NumericError, SqccError
from sqccqkd.finitekey import SecurityParams
from sqccqkd.keyrate import (_lockstep, _Rows, _table, optimise_rows, optimise_v,
                             rate_at, rate_cells)
from sqccqkd.postprocess import (RenormStrategy, _displacement, _displacement_factor,
                                 required_displacement)
from sqccqkd.special import (beta_inv_cdf_symmetric, beta_quantile, beta_reg, erfc_inv,
                              normal_quantile)

from helpers import rate_rows, renormalised
from oracles import golden_section_optimum, rate_from_triple

# a few block sizes, so the Beta-quantile margins are computed once per module
SECS = [SecurityParams(block_size=n) for n in (1e4, 1e6, 1e8, 1e10)]

EDGE_V = st.sampled_from([1.0, 1.0 + 1e-12, 1e154, 1e160, 1e300])
EDGE_EPS = st.sampled_from([0.0, 1e40, 1e200, 1e300])
EDGE_D = st.sampled_from([0.0, 1e100, 1e153, 1e160])
INSIDE = st.tuples(
    st.one_of(st.floats(1.0, 1e3), EDGE_V),  # V
    st.floats(1e-3, 1.0),  # T
    st.floats(1e-9, 0.5),  # W, giving d unless an edge d is drawn
    st.one_of(st.floats(0.0, 1.0), EDGE_EPS),  # eps
    st.one_of(st.just(0.0), st.floats(0.0, 1e-2)),  # sigma
    st.one_of(st.none(), EDGE_D),
    st.integers(0, len(SECS) - 1),  # block size
)
# outside the domain an earlier check fails, and the later stages go on computing
# on what it spoiled: zero divisors, square roots of negatives, NaN and inf
OUTSIDE = st.tuples(
    st.one_of(st.floats(1.0, 1e3), st.sampled_from([1.0 - 1e-12, 0.5, 0.0, -1.0])),  # V
    st.one_of(st.floats(1e-3, 1.0), st.sampled_from([0.0, 1.5, math.nan])),  # T
    st.none(),  # no W: d is an edge d
    st.one_of(st.floats(0.0, 1.0), st.sampled_from([-1e-300, -0.2, -1.0, -1e300])),  # eps
    st.one_of(st.just(0.0), st.sampled_from([-1e-300, -1.0])),  # sigma
    EDGE_D,
    st.integers(0, len(SECS) - 1),
)
POINT = st.one_of(INSIDE, OUTSIDE)


def _inputs(points):
    """Arrays of (V, d, T, eps, sigma) and the finite-size terms of each point."""
    rows = []
    for v, t, w, eps, sigma, d, _ in points:
        if d is None:
            d = required_displacement(v, ChannelParams(t, eps), w)
        rows.append((v, d, t, eps, sigma))
    finite = _table(SecurityParams._rate_terms, [SECS[p[-1]] for p in points], 8)
    return [np.array(col) for col in zip(*rows)], finite


def _same_bits(x, y) -> bool:
    """Equal bits (so 0.0 differs from -0.0); any NaN equals any NaN.

    A NaN's sign bit can depend on the instruction that made it, and every
    NaN is written as ``nan``.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.tobytes() == y.tobytes() or bool(np.isnan(x) and np.isnan(y))


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(POINT, min_size=1, max_size=13), st.sampled_from(list(RenormStrategy)),
       st.sampled_from(["sqcc", "baseline"]), st.booleans())
def test_array_equals_each_element(points, strategy, model, finite):
    """Each element's cells, error class and message equal its 0-d evaluation."""
    (v, d, t, eps, sigma), terms = _inputs(points)
    kwargs = {"strategy": strategy, "model": model,
              "finite": terms if finite else None}
    cells, checks = rate_cells(v, d, t, eps, sigma, **kwargs)
    # the V search's score is NaN only where a check failed, so np.argmax over a row's
    # scores picks the first maximum on every row that reports an optimum
    score = np.where(cells["feasible"], cells["K_F" if finite else "K"], -math.inf)
    assert not np.isnan(score[checks.code == 0]).any()
    for i in range(len(points)):
        one = {**kwargs, "finite": (terms[0][:, i], terms[1][i]) if finite else None}
        cells_i, checks_i = rate_cells(v[i], d[i], t[i], eps[i], sigma[i], **one)
        assert cells.keys() == cells_i.keys()
        for name in cells:
            assert _same_bits(cells[name][i], cells_i[name]), name
        assert checks.code[i] == checks_i.code
        error, error_i = checks.error(i), checks_i.error()
        assert type(error) is type(error_i)
        assert str(error) == str(error_i)


@settings(max_examples=40, deadline=None, database=None)
@given(st.lists(st.tuples(st.floats(1.5, 100.0), st.floats(0.05, 1.0),
                          st.floats(1e-6, 0.5), st.floats(0.0, 0.2),
                          st.floats(0.0, 1e-3)), min_size=1, max_size=8),
       st.sampled_from(list(RenormStrategy)))
def test_rate_matches_spreadsheet_oracle(points, strategy):
    """K of every element matches the oracle on its renormalised triple."""
    chans = [ChannelParams(t, eps, sigma) for _, t, _, eps, sigma in points]
    d = [required_displacement(p[0], chan, p[2]) for p, chan in zip(points, chans)]
    v = np.array([p[0] for p in points])
    cells, checks = rate_cells(v, np.array(d), [c.transmissivity for c in chans],
                               [c.excess_noise for c in chans],
                               [c.phase_noise_factor for c in chans], strategy=strategy)
    for i, chan in enumerate(chans):
        if checks.error(i) is not None:
            continue
        res = renormalised(ProtocolParams(v[i], d[i]), chan, strategy)
        _, _, k_ref = rate_from_triple(res.a, res.b_prime, res.c_prime, 0.95)
        assert cells["K"][i] == pytest.approx(k_ref, abs=1e-10)


def test_rate_rows_broadcasts_one_v_over_rows():
    """One V for several rows gives each row its own cell, as a V per row does."""
    chans = [ChannelParams(t, 0.05) for t in (0.5, 0.7, 0.9)]
    cells, checks = rate_rows(chans, [1e-3, 1e-3, 0.7], 5.0)
    each, each_checks = rate_rows(chans, [1e-3, 1e-3, 0.7], [5.0] * 3)
    assert checks.shape == each_checks.shape == (3,)
    for name, x in cells.items():
        np.testing.assert_array_equal(x, each[name], err_msg=name)
    assert [str(checks.error(i)) for i in range(3)] == [
        str(each_checks.error(i)) for i in range(3)]
    assert checks.error(0) is None and checks.error(2) is not None


def _outcome(search):
    try:
        return repr(search())
    except SqccError as exc:
        return f"{type(exc).__name__}: {exc}"


# the c-preserving cases keep their first ids; "finite" is at N = 1e8 unless named
@pytest.mark.parametrize("strategy, model, sec", [
    (strategy, model, sec)
    for strategy in (RenormStrategy.C_PRESERVING, RenormStrategy.B_PRESERVING)
    for model, sec in (("sqcc", None), ("baseline", None), ("sqcc", SECS[2]),
                       ("sqcc", SECS[0]))], ids=[
    prefix + name for prefix in ("", "b-preserving-")
    for name in ("sqcc", "baseline", "sqcc-finite", "sqcc-finite-1e4")])
def test_lockstep_rows_equal_their_own_searches(strategy, model, sec):
    """Rows searched together get the result (or error) of their own search, whose
    lone row steps on floats: equal by repr, so to the last bit."""
    chans = [ChannelParams(t, eps) for t in (0.02, 0.3, 0.9) for eps in (0.05, 1e300)]
    thresholds = [1e-3, 0.5, 1e-6, 1e-3, 0.2, 0.7]
    together = optimise_rows(chans, thresholds, strategy, model=model,
                             secs=None if sec is None else [sec] * len(chans))
    for chan, w, result in zip(chans, thresholds, together):
        alone = _outcome(lambda: optimise_v(chan, w, strategy, model=model, sec=sec))
        assert _outcome(lambda: _raise_or(result)) == alone
    assert sum(isinstance(r, SqccError) for r in together) >= 3
    # at N = 1e4 the penalties leave no key at any V: the brackets are compared alone
    assert any(not isinstance(r, SqccError) and r.k_star > 0 for r in together) or (
        sec is SECS[0])


def _raise_or(result):
    if isinstance(result, SqccError):
        raise result
    return result


def _peak(centre):
    return lambda v: 0.3 - (math.log(v) - math.log(centre)) ** 2


def _failing(score, fails):
    """``score``, raising a NumericError at every V where ``fails(v)``."""
    def failing(v):
        if fails(v):
            raise NumericError(f"no score at V = {v!r}")
        return score(v)
    return failing


def _off_grid(v):
    """Whether V is none of the 60 log-spaced coarse points over [1.001, 1e3]."""
    position = (math.log(v) - math.log(1.001)) / (math.log(1e3) - math.log(1.001)) * 59
    return abs(position - round(position)) > 1e-6


# each row's score as a function of V, and the evaluation its own search fails at
SEARCH_ROWS = {
    "interior": (_peak(17.0), None),
    "max-at-low-edge": (lambda v: 1.0 / v, None),
    "max-at-high-edge": (lambda v: math.log(v) / 10.0 - 0.5, None),
    "no-key": (lambda v: -math.inf, None),
    "coarse-error": (_failing(_peak(17.0), lambda v: v > 300.0), 50),
    "first-inner-error": (_failing(_peak(17.0), _off_grid), 61),
    # the late errors: while every other row refines (68), and after the rows whose
    # maximum is at an edge stop at 77 evaluations (79)
    "mid-error": (_failing(_peak(17.0), lambda v: abs(math.log(v / 17.0)) < 1e-3), 68),
    "last-step-error": (_failing(_peak(31.0), lambda v: abs(math.log(v / 31.0)) < 1e-5),
                        79),
}


class _FakeScores:
    """``_Rows.scores`` over rows given as functions of V; it records where rows fail."""

    def __init__(self, names):
        self.functions = [SEARCH_ROWS[name][0] for name in names]
        self.failures = []  # (row, whether the call was on that row alone, at one V)

    def __call__(self, rows, v):
        if not isinstance(rows, np.ndarray):
            score, errors = self.score(rows, v)
        else:
            score = np.empty(v.shape)
            errors = {}
            for i, row in enumerate(rows.tolist()):
                for j, x in enumerate(v[i].tolist()):
                    score[i, j], error = self.score(row, x)
                    errors = {**error, **errors}  # a row's first failed element names it
        self.failures += [(row, not isinstance(rows, np.ndarray)) for row in errors]
        return score, errors

    def score(self, row, v):
        try:
            return self.functions[row](v), {}
        except SqccError as exc:
            return math.nan, {row: exc}


def _plain_search(name):
    calls = []
    score = SEARCH_ROWS[name][0]
    try:
        return repr(golden_section_optimum(lambda v: calls.append(v) or score(v))), None
    except SqccError as exc:
        return f"{type(exc).__name__}: {exc}", len(calls)


@pytest.mark.parametrize("size", [1, 2, len(SEARCH_ROWS)])
def test_lockstep_equals_a_plain_search(size):
    """Each row searched alone, with any other row, or with all, gets the optimum
    (by repr: to the last bit, evaluations and bracket included) or the error of
    the plain one-row search in ``oracles``, wherever its rows fail."""
    plain = {name: _plain_search(name) for name in SEARCH_ROWS}
    assert {name: failure for name, (_, failure) in plain.items()} == {
        name: fails_at for name, (_, fails_at) in SEARCH_ROWS.items()}
    failures = set()
    for names in itertools.combinations(SEARCH_ROWS, size):
        fake = _FakeScores(names)
        for name, result in zip(names, _lockstep(fake, len(names))):
            got = (f"{type(result).__name__}: {result}" if isinstance(result, SqccError)
                   else repr((result.v_star, result.k_star, result.evaluations,
                              result.bracket)))
            assert got == plain[name][0], (names, name)
        failures.update((names[row], lone) for row, lone in fake.failures)
    # a lone row's float steps meet the errors, inside a search of two rows too, while
    # with all rows the interior one steps on with them to the end
    lone = size < len(SEARCH_ROWS)
    assert {("mid-error", lone), ("last-step-error", lone)} <= failures


@pytest.mark.parametrize("model", ["sqcc", "baseline"])
def test_unknown_strategy_raises_at_entry(model):
    """A strategy that is not a RenormStrategy, its value string included, raises
    before any element is evaluated, for either model, as an unknown model does."""
    with pytest.raises(DomainError, match="unknown renormalisation strategy 'b-preserving'"):
        rate_cells(5, 1, 0.5, 0.05, 0, strategy="b-preserving", model=model)
    with pytest.raises(DomainError, match="unknown renormalisation strategy 'x'"):
        optimise_rows([ChannelParams(0.5, 0.05)], [1e-3], strategy="x", model=model)
    with pytest.raises(DomainError, match="unknown rate model 'x'"):
        rate_cells(5, 1, 0.5, 0.05, 0, strategy="x", model="x")


def test_large_displacement_error_is_per_element():
    """An overflowing element flags only itself, with the scalar chain's message."""
    cells, checks = rate_cells([5.0, 5.0, 5.0], [3.0, 1e160, 4.0], 0.3, 0.05, 0.0)
    assert [str(checks.error(i)) if checks.error(i) else "" for i in range(3)] == [
        "", "displacement 1e+160 is too large", ""]
    assert math.isfinite(cells["K"][0]) and math.isfinite(cells["K"][2])


def test_channel_error_is_per_element():
    """Each element's channel fails as ``ChannelParams`` fails on it, after its protocol.

    T = 0 once gave K = 0 on a feasible row, and T = 1.5 with negative noise
    reported a negative SNR.
    """
    v = [5.0] * 7 + [0.5]
    t = [0.6, 0.0, 1.5, 0.6, 0.6, 0.6, math.nan, 0.0]
    eps = [0.05, 0.05, -0.2, -0.2, math.inf, 0.05, 0.05, 0.05]
    sigma = [0.0, 0.0, -1.0, -1.0, 0.0, -1.0, 0.0, 0.0]
    _, checks = rate_cells(v, 3.0, t, eps, sigma)
    errors = [checks.error(i) for i in range(len(v))]
    assert [str(e) if e else "" for e in errors] == [
        "", "transmissivity must be in (0, 1], got 0.0",
        "transmissivity must be in (0, 1], got 1.5", "excess_noise must be >= 0, got -0.2",
        "excess_noise must be >= 0, got inf", "phase_noise_factor must be >= 0, got -1.0",
        "transmissivity must be in (0, 1], got nan", "modulation_variance must be >= 1, got 0.5"]
    for (v_i, *channel), error in list(zip(zip(v, t, eps, sigma), errors))[1:]:
        with pytest.raises(DomainError, match=re.escape(str(error))):
            ProtocolParams(v_i, 3.0)
            ChannelParams(*channel)
    _, checks = rate_cells(5.0, 3.0, 0.0, 0.05, 0.0)  # one element computes on scalars
    assert str(checks.error()) == "transmissivity must be in (0, 1], got 0.0"


_CHAN = ChannelParams(0.5, 0.05)


@pytest.mark.parametrize("call", [
    pytest.param(lambda x: ProtocolParams(x), id="ProtocolParams-V"),
    pytest.param(lambda x: ProtocolParams(5.0, x), id="ProtocolParams-d"),
    pytest.param(lambda x: ChannelParams(0.5, x), id="ChannelParams-eps"),
    pytest.param(lambda x: ChannelParams(0.5, 0.0, x), id="ChannelParams-sigma"),
    pytest.param(lambda x: attenuation_db_to_transmissivity(x), id="attenuation_db"),
    pytest.param(lambda x: rate_at(ProtocolParams(5.0), _CHAN, sec=SecurityParams(x)),
                 id="rate_at-N"),
    pytest.param(lambda x: optimise_v(_CHAN, 1e-3, sec=SecurityParams(x)),
                 id="optimise_v-N"),
    pytest.param(lambda x: optimise_v(_CHAN, 1e-3, beta=x), id="optimise_v-beta"),
    pytest.param(lambda x: rate_cells(x, 1.0, 0.5, 0.05, 0.0)[1].raise_first(),
                 id="rate_cells-V"),
    pytest.param(lambda x: rate_cells(5.0, 1.0, 0.5, 0.05, 0.0, x)[1].raise_first(),
                 id="rate_cells-beta"),
    pytest.param(lambda x: required_displacement(x, _CHAN, 1e-3),
                 id="required_displacement"),
    pytest.param(lambda x: beta_quantile(0.5, x, 2), id="beta_quantile-a"),
    pytest.param(lambda x: beta_quantile(0.5, 2, x), id="beta_quantile-b"),
    pytest.param(lambda x: erfc_inv(x), id="erfc_inv"),
    pytest.param(lambda x: normal_quantile(x), id="normal_quantile"),
    pytest.param(lambda x: beta_reg(0.5, x, 2), id="beta_reg"),
    pytest.param(lambda x: beta_inv_cdf_symmetric(0.25, x), id="beta_inv_cdf_symmetric"),
])
@pytest.mark.parametrize("sign", [1, -1])
def test_int_beyond_floats_fails_as_its_infinity(call, sign):
    """An int too large for a float raises the DomainError its infinity raises.

    It once ended in OverflowError: the parameter classes accepted 10**400 as
    finite, and ``rate_at``, ``optimise_v``, ``shot_chunks`` and
    ``required_displacement`` then failed to convert it.
    """
    with pytest.raises(DomainError) as at_infinity:
        call(sign * math.inf)
    with pytest.raises(DomainError, match=f"^{re.escape(str(at_infinity.value))}$"):
        call(sign * 10 ** 400)


def test_margin_error_meets_the_chain_at_the_estimators():
    """A block whose margins or penalties cannot be computed fails where the chain
    needs them.

    eps_pe = 1e-200 makes eps_pe^2 / 1296 underflow to 0, which the margins
    name before the Beta quantile sees it, and eps_s = 1e-200 makes (p_f eps_s^2 / 3)^2 underflow
    to 0 in the smoothing penalty; points that fail earlier keep their own error.
    """
    for field, error in (
            ("eps_pe", "estimator confidence out of range: eps_pe^2 / 1296 underflows "
                       "at eps_pe = 1e-200"),
            ("eps_s", "smoothing penalty out of range: (p_f eps_s^2 / 3)^2 underflows "
                      "at p_f = 0.9964, eps_s = 1e-200")):
        sec = SecurityParams(block_size=1e6, **{field: 1e-200})
        _, checks = rate_cells([5.0, 1e300, 5.0], [3.0, 3.0, 1e160], 0.3, 0.05, 0.0,
                               finite=_table(SecurityParams._rate_terms, [sec] * 3, 8))
        assert [str(checks.error(i)) for i in range(3)] == [
            error, "c must be finite", "displacement 1e+160 is too large"]


# rows that fail, each in its own way: (channel, threshold, beta, block or None)
FAILING_ROWS = {
    "beta": (ChannelParams(0.6, 0.05), 1e-3, 1.5, None),
    "threshold": (ChannelParams(0.6, 0.05), 0.7, 0.95, None),
    "tiny-T": (ChannelParams(1e-320, 0.05), 1e-3, 0.95, None),  # 2 / T overflows
    "huge-eps": (ChannelParams(0.6, 1e300), 1e-3, 0.95, None),
    "smoothing": (ChannelParams(0.6, 0.05), 1e-3, 0.95,
                  SecurityParams(block_size=1e6, eps_s=1e-200)),
    # a channel built without ChannelParams' own check
    "channel": (SimpleNamespace(transmissivity=1.5, excess_noise=0.05,
                                phase_noise_factor=0.0), 1e-3, 0.95, None),
}
# a V below the search's range, its first coarse V (as the search computes it), an
# inner V, its upper end, and inf, where every displacement overflows
ROW_V = [0.5, math.exp(math.log(1.001)), 5.0, 1e3, math.inf]


@np.errstate(all="ignore")
def _kernel_errors(chans, thresholds, beta, secs, v):
    """Each row's error at each V (rows x V) as ``rate_cells`` reports it at the row's
    inputs, given the checks a row makes before the kernel: its threshold's, then
    whether its displacement overflows."""
    t, eps, sigma = (np.array([[getattr(chan, name)] for chan in chans])
                     for name in ("transmissivity", "excess_noise", "phase_noise_factor"))
    (factor,), errors = _table(_displacement_factor, thresholds, 1)
    d = _displacement(v, t, eps, factor[:, None])
    before = Checks(d.shape)
    before.add(np.not_equal(errors, None)[:, None], errors[:, None])
    before.add(~np.isfinite(d), DomainError, "required displacement overflows: V + eps "
               "- 1 + 2 / T is not finite at V = {}, eps = {}, T = {}", v, eps, t)
    finite = None
    if secs is not None:
        table, errors = _table(SecurityParams._rate_terms, secs, 8)
        finite = table[:, :, None], errors[:, None]
    _, checks = rate_cells(v, d, t, eps, sigma, beta, finite=finite, asymptotic=secs is None)
    return [[before.error((i, j)) or checks.error((i, j)) for j in range(v.shape[1])]
            for i in range(len(chans))]


def _described(error):
    return None if error is None else (type(error), str(error))


@pytest.mark.parametrize("name", FAILING_ROWS)
@pytest.mark.parametrize("among_valid", [False, True], ids=["alone", "among-valid"])
def test_row_errors_are_the_public_kernels(name, among_valid):
    """A search row checks its channel once, not at each evaluation, and every
    element still reports the error ``rate_cells`` reports at its inputs: on arrays
    and on floats, and as the first error of its V search."""
    chan, w, beta, sec = FAILING_ROWS[name]
    chans, thresholds, secs = [chan], [w], None if sec is None else [sec]
    if among_valid:
        chans = [ChannelParams(0.3, 0.05), chan, ChannelParams(0.9, 0.01)]
        thresholds = [1e-3, w, 0.2]
        secs = None if sec is None else [SecurityParams(block_size=1e6), sec,
                                         SecurityParams(block_size=1e8)]
    v = np.tile(ROW_V, (len(chans), 1))
    expected = [[_described(e) for e in row]
                for row in _kernel_errors(chans, thresholds, beta, secs, v)]
    bad = chans.index(chan)
    assert all(error is not None for error in expected[bad])  # the row fails at every V
    rows = _Rows(chans, thresholds, RenormStrategy.B_PRESERVING, beta, "sqcc", secs)
    _, checks = rows.cells(np.arange(len(chans))[:, None], v, asymptotic=sec is None)
    assert [[_described(checks.error((i, j))) for j in range(len(ROW_V))]
            for i in range(len(chans))] == expected
    for i, j in itertools.product(range(len(chans)), range(len(ROW_V))):
        _, checks = rows.cells(i, ROW_V[j], asymptotic=sec is None)
        assert _described(checks.error()) == expected[i][j], (i, ROW_V[j])
    # each search stops at its first coarse V, where the row fails first
    results = optimise_rows(chans, thresholds, beta=beta, secs=secs)
    assert _described(results[bad]) == expected[bad][1]
    with pytest.raises(type(results[bad]), match=re.escape(str(results[bad]))):
        optimise_v(chan, w, beta=beta, sec=sec)
    if name == "beta":  # every row fails with it
        assert [_described(r) for r in results] == len(chans) * [
            (DomainError, "reconciliation_efficiency must be in (0, 1], got 1.5")]
