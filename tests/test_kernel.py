"""The array kernel ``rate_cells``: one element at a time or many, the same bits.

Every rate in the package is ``keyrate.rate_cells`` evaluated somewhere:
at one point by ``keyrate.rate_at``, over a whole grid by the CLI and
the lockstep V search.  These properties pin that an element's cells and
error do not depend on the array around it, that the rate matches the
spreadsheet oracle on the rescaled state, and that the lockstep search
gives each row the optimum of its own search.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqccqkd.channel import ChannelParams, ProtocolParams
from sqccqkd.errors import SqccError
from sqccqkd.finitekey import SecurityParams
from sqccqkd.keyrate import _FiniteTerms, optimise_rows, optimise_v, rate_cells, rate_rows
from sqccqkd.postprocess import RenormStrategy, renormalise, required_displacement

from oracles import rate_from_triple

# a few block sizes, so the Beta-quantile margins are computed once per module
SECS = [SecurityParams(block_size=n) for n in (1e4, 1e6, 1e8, 1e10)]

EDGE_V = st.sampled_from([1.0, 1.0 + 1e-12, 1e154, 1e160, 1e300])
EDGE_EPS = st.sampled_from([0.0, 1e40, 1e200, 1e300])
EDGE_D = st.sampled_from([0.0, 1e100, 1e153, 1e160])
POINT = st.tuples(
    st.one_of(st.floats(1.0, 1e3), EDGE_V),  # V
    st.floats(1e-3, 1.0),  # T
    st.floats(1e-9, 0.5),  # W, giving d unless an edge d is drawn
    st.one_of(st.floats(0.0, 1.0), EDGE_EPS),  # eps
    st.one_of(st.just(0.0), st.floats(0.0, 1e-2)),  # sigma
    st.one_of(st.none(), EDGE_D),
    st.integers(0, len(SECS) - 1),  # block size
)


def _inputs(points):
    """Arrays of (V, d, T, eps, sigma) and the finite-size terms of each point."""
    rows = []
    for v, t, w, eps, sigma, d, _ in points:
        if d is None:
            d = required_displacement(v, ChannelParams(t, eps), w)
        rows.append((v, d, t, eps, sigma))
    finite = _FiniteTerms.of([SECS[p[-1]] for p in points])
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
    for i in range(len(points)):
        one = {**kwargs, "finite": terms.take(i) if finite else None}
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
        state = renormalise(ProtocolParams(v[i], d[i]), chan, strategy).state_prime
        _, _, k_ref = rate_from_triple(state.a, state.b, state.c, 0.95)
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


@pytest.mark.parametrize("model, sec", [("sqcc", None), ("baseline", None),
                                        ("sqcc", SECS[2])], ids=["sqcc", "baseline",
                                                                  "sqcc-finite"])
def test_lockstep_rows_equal_their_own_searches(model, sec):
    """Rows searched together get the result (or error) of their own search."""
    chans = [ChannelParams(t, eps) for t in (0.02, 0.3, 0.9) for eps in (0.05, 1e300)]
    thresholds = [1e-3, 0.5, 1e-6, 1e-3, 0.2, 0.7]
    together = optimise_rows(chans, thresholds, RenormStrategy.C_PRESERVING, model=model,
                             secs=None if sec is None else [sec] * len(chans))
    for chan, w, result in zip(chans, thresholds, together):
        alone = _outcome(lambda: optimise_v(chan, w, RenormStrategy.C_PRESERVING,
                                            model=model, sec=sec))
        assert _outcome(lambda: _raise_or(result)) == alone
    assert sum(isinstance(r, SqccError) for r in together) >= 3
    assert any(not isinstance(r, SqccError) and r.k_star > 0 for r in together)


def _raise_or(result):
    if isinstance(result, SqccError):
        raise result
    return result


def test_large_displacement_error_is_per_element():
    """An overflowing element flags only itself, with the scalar chain's message."""
    cells, checks = rate_cells([5.0, 5.0, 5.0], [3.0, 1e160, 4.0], 0.3, 0.05, 0.0)
    assert [str(checks.error(i)) if checks.error(i) else "" for i in range(3)] == [
        "", "displacement 1e+160 is too large", ""]
    assert math.isfinite(cells["K"][0]) and math.isfinite(cells["K"][2])


def test_margin_error_meets_the_chain_at_the_estimators():
    """A block whose margins cannot be computed fails where the chain needs them.

    eps_pe = 1e-200 makes eps_pe^2 / 1296 underflow to 0, which the Beta
    quantile rejects; points that fail earlier keep their own error.
    """
    sec = SecurityParams(block_size=1e6, eps_pe=1e-200)
    _, checks = rate_cells([5.0, 1e300, 5.0], [3.0, 3.0, 1e160], 0.3, 0.05, 0.0,
                           finite=_FiniteTerms.of([sec] * 3))
    assert [str(checks.error(i)) for i in range(3)] == [
        "beta_inv_cdf_symmetric requires 0 < z < 1, got 0.0", "c must be finite",
        "displacement 1e+160 is too large"]
