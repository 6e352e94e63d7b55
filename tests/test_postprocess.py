"""Postprocessed moments, both renormalisations, effective channels, QoS inverse.

The closed-form moments are cross-checked against an adaptive-quadrature
oracle that integrates the truncated-Gaussian re-displacement statistics
directly, with no shared code path.
"""

import math

import numpy as np
import pytest

from sqccqkd.channel import ChannelParams, ProtocolParams
from sqccqkd.errors import Checks, DomainError
from sqccqkd.montecarlo import _centroids
from sqccqkd.postprocess import (
    RenormStrategy,
    _rescale,
    required_displacement,
)

from helpers import on_triple, renormalised, shared, vacuum_moments, verdict
from oracles import postprocessed_axis_moments

REF_PROTO = ProtocolParams(5.0, 12.0, 0.95)
REF_CHAN = ChannelParams(0.1, 0.05)


class TestPostprocessStats:
    def test_no_classical_signal_is_identity(self):
        proto = ProtocolParams(5.0, 0.0)
        stats = renormalised(proto, REF_CHAN)
        assert stats.snr == 0.0
        assert stats.e_c == 0.5
        assert stats.delta == 0.0
        assert (stats.a_d, stats.b_d, stats.c_d) == shared(proto, REF_CHAN)
        assert stats.mean_d == 0.0

    def test_reference_point_frozen(self):
        stats = renormalised(REF_PROTO, REF_CHAN)
        assert stats.snr == pytest.approx(5.987525987525988, rel=1e-14)
        assert stats.e_c == pytest.approx(0.04179286266808296, rel=1e-12)
        assert stats.delta == pytest.approx(0.3090020745681698, rel=1e-12)
        assert stats.a_d == 5.0
        assert stats.b_d == pytest.approx(1.072031137112087, rel=1e-12)
        assert stats.c_d == pytest.approx(1.070489382984541, rel=1e-12)
        assert stats.mean_d == pytest.approx(0.22428403656035215, rel=1e-12)

    def test_against_quadrature_oracle(self):
        """Closed forms match direct integration of the re-displaced Gaussian."""
        for t, eps, v, d in [(0.1, 0.05, 5.0, 12.0), (0.3, 0.02, 3.0, 6.0),
                             (0.8, 0.1, 10.0, 15.0), (0.1, 0.05, 5.0, 2.0)]:
            proto = ProtocolParams(v, d)
            chan = ChannelParams(t, eps)
            _, b, c = shared(proto, chan)
            stats = renormalised(proto, chan)
            mu = _centroids(proto, chan)[0][0]  # the first symbol's mean per axis
            sigma = math.sqrt(b + 1.0)
            oracle = postprocessed_axis_moments(mu, sigma)
            assert stats.e_c == pytest.approx(oracle["e_c"], abs=1e-11)
            assert stats.mean_d == pytest.approx(oracle["mean"], abs=1e-10)
            assert stats.b_d + 1.0 == pytest.approx(oracle["variance"], abs=1e-9)
            # correlation shrinks by cross / sigma^2 through the conditional mean
            assert stats.c_d == pytest.approx(
                c * oracle["cross"] / (b + 1.0), abs=1e-9)

    def test_asymptotic_decoupling(self):
        # snr > 100: coupling suppressed to analytical noise level
        chan = ChannelParams(0.5, 0.05)
        proto = ProtocolParams(3.0, 40.0)
        stats = renormalised(proto, chan)
        _, b, c = shared(proto, chan)
        assert stats.snr > 100.0
        assert stats.e_c < 1e-6
        assert stats.delta < 1e-9
        assert abs(stats.b_d - b) < 1e-4
        assert abs(stats.c_d - c) < 1e-4

    def test_a_invariant_and_c_shrinks(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            proto = ProtocolParams(10 ** rng.uniform(0.01, 1.5),
                                   rng.uniform(0.01, 25.0))
            chan = ChannelParams(rng.uniform(0.05, 1.0), rng.uniform(0, 0.3))
            a, _, c = shared(proto, chan)
            stats = renormalised(proto, chan)
            assert stats.a_d == a
            assert stats.c_d <= c
            if stats.delta > 1e-15:  # strict below the float-equality regime
                assert stats.c_d < c

    def test_mean_tracks_error_rate(self):
        # residual mean vanishes with the bit-error rate
        chan = ChannelParams(0.2, 0.05)
        smaller = None
        for d in (30.0, 40.0, 50.0):
            stats = renormalised(ProtocolParams(5.0, d), chan)
            if smaller is not None:
                assert stats.mean_d < smaller
            smaller = stats.mean_d


class TestScalarHelpers:
    def test_error_rate_limits(self):
        assert vacuum_moments(0.0)[0] == 0.5
        assert vacuum_moments(math.inf)[0] == 0.0

    def test_shrinkage_limits(self):
        assert vacuum_moments(0.0)[1] == 0.0
        assert vacuum_moments(math.inf)[1] == 0.0
        assert vacuum_moments(1e9)[1] == 0.0  # exponent underflow

    def test_shift_consistency(self):
        stats = renormalised(REF_PROTO, REF_CHAN)
        g = vacuum_moments(stats.snr)[2]
        assert stats.b_d + 1.0 == pytest.approx((stats.b + 1.0) * (1.0 + g),
                                                rel=1e-12)

    def test_negative_snr_rejected(self):
        with pytest.raises(DomainError):
            vacuum_moments(-1.0)


class TestRenormalise:
    def test_zero_displacement_identity(self):
        proto = ProtocolParams(5.0, 0.0)
        _, b, c = shared(proto, REF_CHAN)
        for strategy in RenormStrategy:
            res = renormalised(proto, REF_CHAN, strategy)
            assert res.delta_v == pytest.approx(1.0, abs=1e-15)
            assert res.b_prime == pytest.approx(b, abs=1e-14)
            assert res.c_prime == pytest.approx(c, abs=1e-14)
            assert res.t_v == pytest.approx(1.0, abs=1e-14)
            assert res.eps_v == pytest.approx(0.0, abs=1e-12)
            assert res.passed

    def test_b_preserving_frozen(self):
        _, b, c = shared(REF_PROTO, REF_CHAN)
        res = renormalised(REF_PROTO, REF_CHAN, RenormStrategy.B_PRESERVING)
        assert res.delta_v == pytest.approx(0.8615514083626141, rel=1e-12)
        assert res.b_prime == b
        assert res.c_prime == pytest.approx(1.1532986031165338, rel=1e-12)
        assert res.c_prime <= c
        assert res.t_v == pytest.approx(0.5542073616460618, rel=1e-12)
        assert res.eps_v == pytest.approx(0.3257734036536466, rel=1e-11)
        assert res.t_eff == pytest.approx(0.05542073616460618, rel=1e-12)
        assert res.eps_eff == pytest.approx(3.3077340365364662, rel=1e-11)
        assert res.passed
        assert res.margin == pytest.approx(0.3958947353664329, rel=1e-10)

    def test_c_preserving_frozen(self):
        _, b, c = shared(REF_PROTO, REF_CHAN)
        res = renormalised(REF_PROTO, REF_CHAN, RenormStrategy.C_PRESERVING)
        assert res.delta_v == pytest.approx(0.4774781329510931, rel=1e-12)
        assert res.c_prime == c
        assert res.b_prime == pytest.approx(3.3395309525605435, rel=1e-12)
        assert res.b_prime >= b
        # effective channel keeps T and absorbs the inflation as excess noise
        assert res.t_eff == pytest.approx(0.1, rel=1e-12)
        assert res.eps_eff == pytest.approx(
            0.05 + 19.345309525605435, rel=1e-11)
        assert res.passed

    def test_mean_rescaled(self):
        res = renormalised(REF_PROTO, REF_CHAN, RenormStrategy.B_PRESERVING)
        expected = res.mean_d / math.sqrt(res.delta_v)
        assert res.mean_prime == pytest.approx(expected, rel=1e-14)

    def test_effective_channel_at_unit_variance(self):
        """At V = 1 (c = 0) the effective channel still rests on the physical T.

        Only T_eff * eps_eff enters b there, so the composition test cannot
        see a wrong split between the two.
        """
        proto = ProtocolParams(1.0, 5.0)
        res_c = renormalised(proto, REF_CHAN, RenormStrategy.C_PRESERVING)
        res_b = renormalised(proto, REF_CHAN, RenormStrategy.B_PRESERVING)
        assert res_c.t_eff == 0.1
        assert res_b.t_eff == 0.1 * res_b.t_v
        for res in (res_c, res_b):
            near = renormalised(ProtocolParams(1.0 + 1e-9, 5.0), REF_CHAN, res.strategy)
            assert res.eps_eff == pytest.approx(near.eps_eff, rel=1e-6)

    def test_composition_reproduces_rescaled_covariance(self):
        """Arbiter: the two-channel composition must reproduce (b', c') exactly.

        A signal through the physical channel followed by the virtual one of
        this result has covariance b = T_tot (V + eps_tot - 1) + 1 and
        c = sqrt(T_tot (V^2 - 1)); these must equal the rescaled moments.
        """
        rng = np.random.default_rng(29)
        for _ in range(100):
            v = 10 ** rng.uniform(0.01, 1.5)
            t = rng.uniform(0.05, 1.0)
            eps = rng.uniform(0.0, 0.3)
            d = rng.uniform(0.5, 25.0)
            proto = ProtocolParams(v, d)
            chan = ChannelParams(t, eps)
            res = renormalised(proto, chan, RenormStrategy.B_PRESERVING)
            t_tot = res.t_eff
            eps_tot = res.eps_eff
            b_comp = t_tot * (v + eps_tot - 1.0) + 1.0
            c_comp = math.sqrt(t_tot * (v * v - 1.0))
            assert b_comp == pytest.approx(res.b_prime, abs=1e-10)
            assert c_comp == pytest.approx(res.c_prime, abs=1e-10)

    def test_first_order_effective_noise(self):
        """(b'_C - b)/T tracks 2 d^2 e_C (1 + 2 delta) within 5% for snr > 25."""
        for t, eps, v in [(0.1, 0.05, 5.0), (0.5, 0.02, 3.0), (0.9, 0.1, 8.0)]:
            chan = ChannelParams(t, eps)
            for snr_target in (25.5, 40.0, 60.0):
                b = shared(ProtocolParams(v, 0.0), chan)[1]
                d = math.sqrt(snr_target * (b + 1.0) / t)
                proto = ProtocolParams(v, d)
                res = renormalised(proto, chan, RenormStrategy.C_PRESERVING)
                eps_eff = (res.b_prime - res.b) / t
                approx = 2.0 * d * d * res.e_c * (1.0 + 2.0 * res.delta)
                assert eps_eff == pytest.approx(approx, rel=0.05)


class TestPhysicalityCheck:
    def test_reference_margin(self):
        _, _, c = shared(REF_PROTO, REF_CHAN)
        res = renormalised(REF_PROTO, REF_CHAN, RenormStrategy.B_PRESERVING)
        assert res.passed
        assert res.margin == pytest.approx(c - res.c_prime, abs=1e-15)

    def test_constructed_violation(self):
        """b_d = b, c_d = 1.05 c and no shrinkage give Delta_V = 1 and c' = 1.05 c,
        a correlation grown past the state's."""
        a, b, c = shared(REF_PROTO, REF_CHAN)
        delta_v, _, c_prime, margin, passed, _ = _rescale(
            Checks(), RenormStrategy.B_PRESERVING, a, b, c, b, 1.05 * c, 0.0)
        assert delta_v == 1.0 and c_prime == 1.05 * c
        assert not passed
        assert margin == pytest.approx(-0.05 * c, rel=1e-12)

    def test_grid_physicality(self):
        """Both strategies stay physical across the operating grid."""
        rng = np.random.default_rng(31)
        for _ in range(150):
            proto = ProtocolParams(10 ** rng.uniform(0.01, 1.7),
                                   rng.uniform(0.0, 30.0))
            chan = ChannelParams(rng.uniform(0.02, 1.0), rng.uniform(0.0, 0.2))
            for strategy in RenormStrategy:
                res = renormalised(proto, chan, strategy)
                assert res.passed
                assert on_triple(verdict, res.a, res.b_prime, res.c_prime).physical
            res_b = renormalised(proto, chan, RenormStrategy.B_PRESERVING)
            assert res_b.t_v <= 1.0 + 1e-12


class TestRequiredDisplacement:
    def test_half_threshold_needs_nothing(self):
        assert required_displacement(5.0, REF_CHAN, 0.5) == 0.0

    def test_reference_value(self):
        d = required_displacement(5.0, REF_CHAN, 1e-3)
        assert d == pytest.approx(21.432047673113365, rel=1e-12)

    def test_roundtrip_error_rate(self):
        """e_C at the returned displacement reproduces the QoS threshold."""
        rng = np.random.default_rng(37)
        for _ in range(100):
            v = 10 ** rng.uniform(0.01, 2.0)
            chan = ChannelParams(rng.uniform(0.02, 1.0), rng.uniform(0.0, 0.4))
            w = 10 ** rng.uniform(-8, math.log10(0.5))
            d = required_displacement(v, chan, w)
            stats = renormalised(ProtocolParams(v, d), chan)
            assert abs(stats.e_c - w) < 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            required_displacement(5.0, REF_CHAN, 0.0)
        with pytest.raises(DomainError):
            required_displacement(5.0, REF_CHAN, 0.6)

    @pytest.mark.parametrize("v", [math.nan, math.inf])
    def test_non_finite_variance_rejected(self, v):
        """The same check and message as ProtocolParams, not a nan or inf d."""
        message = f"^modulation_variance must be >= 1, got {v}$"
        with pytest.raises(DomainError, match=message):
            required_displacement(v, ChannelParams(0.6, 0.05), 1e-3)
