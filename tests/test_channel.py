"""Channel construction, the shared state, alphabet geometry, the prior coupling model."""

import math

import numpy as np
import pytest

from sqccqkd.channel import (
    ChannelParams,
    ProtocolParams,
    _covariance,
    _shared_state,
    attenuation_db_to_transmissivity,
    qpsk_symbol,
)
from sqccqkd.errors import Checks, DomainError
from sqccqkd.keyrate import rate_at
from sqccqkd.montecarlo import _centroids

from helpers import on_triple, shared, verdict


def mean_of(proto, chan, k):
    """The shared state's mean, (0, 0) on the sender mode and on the receiver
    mode sqrt(T) times the alphabet point of symbol k."""
    return np.concatenate([[0.0, 0.0], _centroids(proto, chan)[k - 1]])


class TestSharedState:
    def test_reference_point(self):
        proto, chan = ProtocolParams(5.0, 12.0), ChannelParams(0.1, 0.05)
        a, b, c = shared(proto, chan)
        assert a == 5.0
        assert b == pytest.approx(1.405, abs=1e-15)
        assert c == pytest.approx(1.5491933384829668, abs=1e-14)
        expected = math.sqrt(0.1) * 12.0 / math.sqrt(2.0)
        np.testing.assert_allclose(mean_of(proto, chan, 1), [0, 0, expected, expected],
                                   atol=1e-12)

    def test_lossless_pure(self):
        proto, chan = ProtocolParams(4.0, 3.0), ChannelParams(1.0, 0.0)
        _, b, c = shared(proto, chan)
        assert b == pytest.approx(4.0, abs=1e-15)
        assert c == pytest.approx(math.sqrt(15.0), abs=1e-14)
        np.testing.assert_allclose(
            mean_of(proto, chan, 3)[2:], [-3.0 / math.sqrt(2), -3.0 / math.sqrt(2)],
            atol=1e-14)

    def test_zero_displacement_zero_mean(self):
        for k in (1, 2, 3, 4):
            mean = mean_of(ProtocolParams(5.0, 0.0), ChannelParams(0.3, 0.02), k)
            np.testing.assert_array_equal(mean, np.zeros(4))

    def test_symbol_quadrant_signs(self):
        signs = {1: (1, 1), 2: (-1, 1), 3: (-1, -1), 4: (1, -1)}
        for k, (sx, sy) in signs.items():
            mean = mean_of(ProtocolParams(2.0, 5.0), ChannelParams(0.5, 0.0), k)
            assert math.copysign(1, mean[2]) == sx
            assert math.copysign(1, mean[3]) == sy

    def test_invalid_symbol(self):
        with pytest.raises(DomainError):
            qpsk_symbol(1.0, 5)
        with pytest.raises(DomainError):
            qpsk_symbol(1.0, 0)

    def test_b_affine_in_noise_with_slope_t(self):
        t = 0.37
        proto = ProtocolParams(4.0, 7.0)
        b0 = shared(proto, ChannelParams(t, 0.0))[1]
        b1 = shared(proto, ChannelParams(t, 0.8))[1]
        assert (b1 - b0) / 0.8 == pytest.approx(t, abs=1e-12)

    def test_c_independent_of_noise_and_displacement(self):
        c_ref = shared(ProtocolParams(4.0, 0.0), ChannelParams(0.4, 0.0))[2]
        for eps, d in ((0.3, 0.0), (0.0, 9.0), (0.7, 15.0)):
            assert shared(ProtocolParams(4.0, d), ChannelParams(0.4, eps))[2] == c_ref

    def test_always_physical(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            proto = ProtocolParams(10 ** rng.uniform(0.001, 2), rng.uniform(0, 25))
            chan = ChannelParams(rng.uniform(0.01, 1.0), rng.uniform(0, 0.5))
            assert on_triple(verdict, *shared(proto, chan)).physical

    def test_phase_noise_adds_power_term(self):
        proto = ProtocolParams(5.0, 10.0)
        _, quiet_b, quiet_c = shared(proto, ChannelParams(0.2, 0.05))
        _, noisy_b, noisy_c = shared(proto, ChannelParams(0.2, 0.05, 1e-4))
        # eps grows by sigma * T * d^2, and b by T times that
        assert noisy_b - quiet_b == pytest.approx(
            0.2 * (1e-4 * 0.2 * 100.0), rel=1e-12)
        assert noisy_c == quiet_c


    def test_displacement_overflow_is_domain_error(self):
        with pytest.raises(DomainError, match="^displacement 1e\\+200 is too large$"):
            shared(ProtocolParams(5.0, 1e200), ChannelParams(0.1, 0.05))


@np.errstate(all="ignore")
def baseline_b(proto, chan, e_c):
    """b of the prior model's state at this e_c, through the kernel's stages: the
    bit errors become excess noise 4 d^2 e_c on top of the shared state's."""
    v, d, t = proto.modulation_variance, proto.displacement, chan.transmissivity
    eps_tot, _, _ = _shared_state(Checks(), v, d, t, chan.excess_noise,
                                  chan.phase_noise_factor)
    return float(_covariance(v, t, eps_tot + 4.0 * d * d * e_c)[0])


class TestBaselineState:
    def test_no_coupling_matches_channel_output(self):
        proto = ProtocolParams(5.0, 12.0)
        chan = ChannelParams(0.1, 0.05)
        assert baseline_b(proto, chan, 0.0) == shared(proto, chan)[1]
        # with no displacement the prior model's rate is the shared state's
        zero = ProtocolParams(5.0, 0.0)
        assert (rate_at(zero, chan, model="baseline")["I_AB"]
                == rate_at(zero, chan)["I_AB"])

    def test_reference_point(self):
        # eps' = eps + 4 d^2 e_C, frozen at the heavy-coupling point
        proto, chan = ProtocolParams(5.0, 12.0), ChannelParams(0.1, 0.05)
        assert baseline_b(proto, chan, 0.04179286266808296) == pytest.approx(
            3.8122688896815785, abs=1e-12)
        a, b, c = 5.0, 3.8122688896815785, math.sqrt(0.1 * 24.0)
        i_ab = math.log2((a + 1.0) / (a + 1.0 - c * c / (b + 1.0)))
        assert rate_at(ProtocolParams(5.0, 12.0, 0.95), chan,
                       model="baseline")["I_AB"] == pytest.approx(i_ab, rel=1e-11)

    def test_zero_displacement_decouples(self):
        assert baseline_b(ProtocolParams(5.0, 0.0), ChannelParams(0.1, 0.05),
                          0.5) == pytest.approx(1.405, abs=1e-15)

    def test_probability_domain(self):
        """The prior model's e_c comes from the SNR, so it stays in [0, 0.5]."""
        for d in (0.0, 1.0, 12.0, 1e3):
            e_c = rate_at(ProtocolParams(5.0, d), ChannelParams(0.1, 0.05),
                          model="baseline")["e_C"]
            assert 0.0 <= e_c <= 0.5


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
