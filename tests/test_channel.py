"""Channel construction, alphabet geometry, and the prior coupling model."""

import math

import numpy as np
import pytest

from sqccqkd.channel import (
    ChannelParams,
    ProtocolParams,
    attenuation_db_to_transmissivity,
    qi_baseline_state,
    qpsk_symbol,
    shared_state,
)
from sqccqkd.errors import DomainError
from sqccqkd.gaussian import is_physical


class TestSharedState:
    def test_reference_point(self):
        state = shared_state(ProtocolParams(5.0, 12.0), ChannelParams(0.1, 0.05), 1)
        assert state.a == 5.0
        assert state.b == pytest.approx(1.405, abs=1e-15)
        assert state.c == pytest.approx(1.5491933384829668, abs=1e-14)
        expected = math.sqrt(0.1) * 12.0 / math.sqrt(2.0)
        np.testing.assert_allclose(state.mean, [0, 0, expected, expected],
                                   atol=1e-12)

    def test_lossless_pure(self):
        state = shared_state(ProtocolParams(4.0, 3.0), ChannelParams(1.0, 0.0), 3)
        assert state.b == pytest.approx(4.0, abs=1e-15)
        assert state.c == pytest.approx(math.sqrt(15.0), abs=1e-14)
        np.testing.assert_allclose(
            state.mean[2:], [-3.0 / math.sqrt(2), -3.0 / math.sqrt(2)], atol=1e-14)

    def test_zero_displacement_zero_mean(self):
        for k in (1, 2, 3, 4):
            state = shared_state(ProtocolParams(5.0, 0.0), ChannelParams(0.3, 0.02), k)
            np.testing.assert_array_equal(state.mean, np.zeros(4))

    def test_symbol_quadrant_signs(self):
        signs = {1: (1, 1), 2: (-1, 1), 3: (-1, -1), 4: (1, -1)}
        for k, (sx, sy) in signs.items():
            state = shared_state(ProtocolParams(2.0, 5.0), ChannelParams(0.5, 0.0), k)
            assert math.copysign(1, state.mean[2]) == sx
            assert math.copysign(1, state.mean[3]) == sy

    def test_invalid_symbol(self):
        with pytest.raises(DomainError):
            shared_state(ProtocolParams(2.0, 1.0), ChannelParams(0.5, 0.0), 5)
        with pytest.raises(DomainError):
            qpsk_symbol(1.0, 0)

    def test_b_affine_in_noise_with_slope_t(self):
        t = 0.37
        proto = ProtocolParams(4.0, 7.0)
        b0 = shared_state(proto, ChannelParams(t, 0.0), 1).b
        b1 = shared_state(proto, ChannelParams(t, 0.8), 1).b
        assert (b1 - b0) / 0.8 == pytest.approx(t, abs=1e-12)

    def test_c_independent_of_noise_and_displacement(self):
        c_ref = shared_state(ProtocolParams(4.0, 0.0), ChannelParams(0.4, 0.0), 1).c
        for eps, d in ((0.3, 0.0), (0.0, 9.0), (0.7, 15.0)):
            state = shared_state(ProtocolParams(4.0, d), ChannelParams(0.4, eps), 1)
            assert state.c == c_ref

    def test_always_physical(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            proto = ProtocolParams(10 ** rng.uniform(0.001, 2), rng.uniform(0, 25))
            chan = ChannelParams(rng.uniform(0.01, 1.0), rng.uniform(0, 0.5))
            assert is_physical(shared_state(proto, chan, 1)).physical

    def test_phase_noise_adds_power_term(self):
        proto = ProtocolParams(5.0, 10.0)
        quiet = shared_state(proto, ChannelParams(0.2, 0.05), 1)
        noisy = shared_state(
            proto, ChannelParams(0.2, 0.05, 1e-4), 1)
        # eps grows by sigma * T * d^2, and b by T times that
        assert noisy.b - quiet.b == pytest.approx(
            0.2 * (1e-4 * 0.2 * 100.0), rel=1e-12)
        assert noisy.c == quiet.c


    def test_displacement_overflow_is_domain_error(self):
        with pytest.raises(DomainError):
            ChannelParams(0.1, 0.05).total_excess_noise(1e200)


class TestBaselineState:
    def test_no_coupling_matches_channel_output(self):
        proto = ProtocolParams(5.0, 12.0)
        chan = ChannelParams(0.1, 0.05)
        base = qi_baseline_state(proto, chan, 0.0)
        ref = shared_state(proto, chan, 1)
        assert base.b == ref.b and base.c == ref.c
        np.testing.assert_array_equal(base.mean, np.zeros(4))

    def test_reference_point(self):
        # eps' = eps + 4 d^2 e_C, frozen at the heavy-coupling point
        base = qi_baseline_state(ProtocolParams(5.0, 12.0), ChannelParams(0.1, 0.05),
                                 0.04179286266808296)
        assert base.b == pytest.approx(3.8122688896815785, abs=1e-12)

    def test_zero_displacement_decouples(self):
        base = qi_baseline_state(ProtocolParams(5.0, 0.0), ChannelParams(0.1, 0.05),
                                 0.5)
        assert base.b == pytest.approx(1.405, abs=1e-15)

    def test_probability_domain(self):
        with pytest.raises(DomainError):
            qi_baseline_state(ProtocolParams(5.0, 1.0), ChannelParams(0.1, 0.05), 0.6)


class TestParamValidation:
    def test_channel_bounds(self):
        with pytest.raises(DomainError):
            ChannelParams(0.0, 0.0)
        with pytest.raises(DomainError):
            ChannelParams(1.2, 0.0)
        with pytest.raises(DomainError):
            ChannelParams(0.5, -0.1)

    def test_protocol_bounds(self):
        with pytest.raises(DomainError):
            ProtocolParams(0.5, 0.0)
        with pytest.raises(DomainError):
            ProtocolParams(2.0, -1.0)
        with pytest.raises(DomainError):
            ProtocolParams(2.0, 1.0, 1.5)

    def test_db_helper(self):
        assert attenuation_db_to_transmissivity(0.0) == 1.0
        assert attenuation_db_to_transmissivity(10.0) == pytest.approx(0.1)
        assert attenuation_db_to_transmissivity(3.0) == pytest.approx(0.501187,
                                                                      abs=1e-6)
        with pytest.raises(DomainError):
            attenuation_db_to_transmissivity(-1.0)
