"""Information quantities, asymptotic rates, model comparison, V-optimisation."""

import math

import numpy as np
import pytest

from sqccqkd import gaussian
from sqccqkd.channel import ChannelParams, ProtocolParams, shared_state
from sqccqkd.errors import PhysicalityError
from sqccqkd.gaussian import TwoModeGaussian, g_function
from sqccqkd.finitekey import SecurityParams
from sqccqkd.keyrate import (
    _FiniteTerms,
    _holevo,
    _lockstep,
    _mutual_information,
    _Rows,
    optimise_v,
    rate_at,
    rate_cells,
)
from sqccqkd.postprocess import RenormStrategy, required_displacement

from helpers import on_triple, qos_objective
from oracles import brute_force_optimum, rate_from_triple

REF_PROTO = ProtocolParams(5.0, 12.0, 0.95)
REF_CHAN = ChannelParams(0.1, 0.05)


def triple(a, b, c):
    return TwoModeGaussian(np.zeros(4), a, b, c)


def mi_of(state, double=False):
    return on_triple(_mutual_information, state, double)


def chi_of(state):
    return on_triple(_holevo, state)


class TestMutualInformation:
    def test_uncorrelated_is_zero(self):
        assert mi_of(triple(5.0, 3.0, 0.0)) == 0.0

    def test_reference_value(self):
        state = triple(5.0, 1.405, math.sqrt(2.4))
        assert mi_of(state) == pytest.approx(0.2624346573151216,
                                                          rel=1e-12)

    def test_monotone_in_correlation(self):
        values = [mi_of(triple(5.0, 1.405, c))
                  for c in np.linspace(0.0, 1.5, 15)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_double_flag(self):
        state = triple(5.0, 1.405, math.sqrt(2.4))
        assert mi_of(state, double=True) == pytest.approx(
            2.0 * mi_of(state), rel=1e-15)


class TestHolevoBound:
    def test_pure_lossless_protocol_leaks_nothing(self):
        v = 4.0
        assert chi_of(triple(v, v, math.sqrt(v * v - 1))) == pytest.approx(
            0.0, abs=1e-9)

    def test_product_state_gives_receiver_entropy(self):
        assert chi_of(triple(5.0, 3.0, 0.0)) == pytest.approx(
            g_function(3.0), abs=1e-12)

    def test_dual_path_recomputation(self):
        """Match an independent spreadsheet-style evaluation at 1e-10."""
        state = triple(5.0, 1.405, math.sqrt(2.4))
        _, chi_ref, _ = rate_from_triple(5.0, 1.405, math.sqrt(2.4), 0.95)
        assert chi_of(state) == pytest.approx(chi_ref, abs=1e-10)
        assert chi_of(state) == pytest.approx(0.2315266894726877, rel=1e-11)

    def test_unphysical_rejected(self):
        with pytest.raises(PhysicalityError):
            chi_of(triple(1.0, 0.8, 0.0))

    def test_one_spectrum_per_holevo_bound(self, monkeypatch):
        """One spectrum per state: per bound, and per state in the kernel."""
        calls = []
        original = gaussian._spectrum

        def counted(a, b, c):
            calls.append(np.size(a))
            return original(a, b, c)

        monkeypatch.setattr(gaussian, "_spectrum", counted)
        states = [triple(5.0, 1.405, math.sqrt(2.4)), triple(5.0, 3.0, 0.0)]
        for state in states:
            chi_of(state)
        assert len(calls) == len(states)
        # the rescaled (or prior-model) state is judged once and bounded with that
        # spectrum; the finite-block rate adds the worst-case state
        v = np.geomspace(1.5, 50.0, 7)
        sec = SecurityParams(block_size=1e8)
        for kwargs, spectra in (({}, 1), ({"model": "baseline"}, 1),
                                ({"finite": _FiniteTerms.of([sec]).take(0)}, 2)):
            calls.clear()
            _, checks = rate_cells(v, 3.0, 0.3, 0.05, 0.0, **kwargs)
            assert not checks.code.any()
            assert calls == [v.size] * spectra

class TestAsymptoticRate:
    def test_zero_displacement_equals_plain_heterodyne(self):
        proto = ProtocolParams(5.0, 0.0, 0.95)
        res = rate_at(proto, REF_CHAN)
        state = shared_state(proto, REF_CHAN, 1)
        i_ref, chi_ref, k_ref = rate_from_triple(state.a, state.b, state.c, 0.95)
        assert res["K"] == pytest.approx(k_ref, abs=1e-12)
        assert res["K"] == pytest.approx(0.017786234976678, abs=1e-12)

    def test_large_displacement_recovers_decoupled_curve(self):
        chan = ChannelParams(0.5, 0.05)
        b = shared_state(ProtocolParams(5.0, 0.0), chan, 1).b
        d = math.sqrt(1e4 * (b + 1.0) / 0.5)  # snr = 1e4
        with_d = rate_at(ProtocolParams(5.0, d, 0.95), chan)
        without = rate_at(ProtocolParams(5.0, 0.0, 0.95), chan)
        assert abs(with_d["K"] - without["K"]) < 1e-6

    def test_reference_point_full_chain(self):
        """End-to-end frozen values for the heavy-coupling operating point."""
        res = rate_at(REF_PROTO, REF_CHAN, RenormStrategy.B_PRESERVING)
        assert res["I_AB"] == pytest.approx(0.1395152442185363, rel=1e-12)
        assert res["chi_EB"] == pytest.approx(0.5736533381107158, rel=1e-11)
        assert res["K"] == pytest.approx(-0.4411138561031062, rel=1e-11)
        assert res["feasible"]
        res_c = rate_at(REF_PROTO, REF_CHAN, RenormStrategy.C_PRESERVING)
        assert res_c["K"] == pytest.approx(-1.9694772269975586, rel=1e-11)

    def test_rate_identity_and_bounds(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            proto = ProtocolParams(10 ** rng.uniform(0.01, 1.5),
                                   rng.uniform(0.0, 25.0), 0.95)
            chan = ChannelParams(rng.uniform(0.05, 1.0), rng.uniform(0.0, 0.2))
            res = rate_at(proto, chan)
            assert res["chi_EB"] >= 0.0
            assert res["K"] == pytest.approx(
                0.95 * res["I_AB"] - res["chi_EB"], abs=1e-14)
            assert res["K"] <= 0.95 * res["I_AB"] + 1e-14

    def test_strategy_ordering(self):
        """Variance-preserving rescaling never does worse than c-preserving."""
        rng = np.random.default_rng(43)
        for _ in range(80):
            proto = ProtocolParams(10 ** rng.uniform(0.01, 1.5),
                                   rng.uniform(0.0, 30.0), 0.95)
            chan = ChannelParams(rng.uniform(0.05, 1.0), rng.uniform(0.0, 0.2))
            k_b = rate_at(proto, chan, RenormStrategy.B_PRESERVING)["K"]
            k_c = rate_at(proto, chan, RenormStrategy.C_PRESERVING)["K"]
            assert k_b >= k_c - 1e-12


class TestBaselineRate:
    def test_zero_coupling_matches_decoupled(self):
        proto = ProtocolParams(5.0, 0.0, 0.95)
        assert rate_at(proto, REF_CHAN, model="baseline")["K"] == pytest.approx(
            rate_at(proto, REF_CHAN)["K"], abs=1e-12)

    def test_reference_point_frozen(self):
        res = rate_at(REF_PROTO, REF_CHAN, model="baseline")
        assert res["I_AB"] == pytest.approx(0.1251965431869072, rel=1e-11)
        assert res["chi_EB"] == pytest.approx(2.3121252073081626, rel=1e-11)
        assert res["K"] == pytest.approx(-2.1931884912806008, rel=1e-11)

    def test_new_model_dominates_at_coupled_point(self):
        new = rate_at(REF_PROTO, REF_CHAN)
        old = rate_at(REF_PROTO, REF_CHAN, model="baseline")
        assert new["K"] > old["K"]

    def test_negative_rates_not_clamped(self):
        assert rate_at(REF_PROTO, REF_CHAN, model="baseline")["K"] < -1.0


class TestOptimiseV:
    def test_decoupled_limit_matches_heterodyne_optimum(self):
        """W = 0.5 searches exactly the plain heterodyne rate curve."""
        chan = ChannelParams(0.3, 0.05)
        opt = optimise_v(chan, 0.5)

        def het(v):
            return rate_at(ProtocolParams(v, 0.0, 0.95), chan)["K"]

        ref = brute_force_optimum(het, n_points=4000)
        assert opt.k_star == pytest.approx(ref, rel=1e-6)

    def test_brute_force_oracle(self):
        chan = ChannelParams(0.6, 0.03)
        opt = optimise_v(chan, 1e-3)
        ref = brute_force_optimum(qos_objective(chan, 1e-3))
        assert opt.k_star == pytest.approx(ref, rel=1e-5)

    def test_no_key_regime(self):
        opt = optimise_v(ChannelParams(0.05, 0.05), 1e-2)
        assert opt.k_star == 0.0
        assert math.isnan(opt.v_star)

    def test_no_key_agrees_with_brute_force(self):
        """Moderate loss at a strict QoS admits no key; brute force concurs."""
        chan = ChannelParams(0.2, 0.05)
        opt = optimise_v(chan, 1e-3)
        ref = brute_force_optimum(qos_objective(chan, 1e-3), n_points=3000)
        assert opt.k_star == ref == 0.0

    def test_grid_density_invariance(self):
        rows = _Rows([ChannelParams(0.7, 0.05)], [1e-3], RenormStrategy.B_PRESERVING,
                     0.95, "sqcc", False, None)
        k60 = _lockstep(rows.scores, 1, 60)[0].k_star
        k240 = _lockstep(rows.scores, 1, 240)[0].k_star
        assert k240 == pytest.approx(k60, rel=1e-5)

    def test_sandwich_bound(self):
        """Coupled rates stay below the decoupled curve, meeting it at both ends."""
        chan = ChannelParams(0.35, 0.05)
        k0 = rate_at(ProtocolParams(5.0, 0.0, 0.95), chan)["K"]
        for w in (0.5, 0.1, 1e-2, 1e-3, 1e-6, 1e-12):
            d = required_displacement(5.0, chan, w)
            k = rate_at(ProtocolParams(5.0, d, 0.95), chan)["K"]
            assert k <= k0 + 1e-12
        near_half = rate_at(
            ProtocolParams(5.0, required_displacement(5.0, chan, 0.5), 0.95), chan)["K"]
        tiny_w = rate_at(
            ProtocolParams(5.0, required_displacement(5.0, chan, 1e-12), 0.95), chan)["K"]
        assert near_half == pytest.approx(k0, abs=1e-12)
        assert tiny_w == pytest.approx(k0, abs=1e-6)
