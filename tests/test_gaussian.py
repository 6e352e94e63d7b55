"""State representation, symplectic spectra, entropy kernel, physicality."""

import math

import numpy as np
import pytest

from sqccqkd.channel import ChannelParams, ProtocolParams, shared_state
from sqccqkd.errors import DomainError, PhysicalityError
from sqccqkd.gaussian import (
    TwoModeGaussian,
    conditional_eigenvalue,
    g_function,
    is_physical,
    measurement_distribution,
    symplectic_spectrum,
)
from sqccqkd.postprocess import postprocess_stats


def tmsvs(v: float) -> TwoModeGaussian:
    return TwoModeGaussian(np.zeros(4), v, v, math.sqrt(v * v - 1.0))


def random_channel_states(n: int, seed: int):
    """Physical states produced by the lossy channel over random parameters."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        v = 10 ** rng.uniform(0.01, 2)
        t = rng.uniform(0.05, 1.0)
        eps = rng.uniform(0.0, 0.3)
        d = rng.uniform(0.0, 20.0)
        k = int(rng.integers(1, 5))
        yield shared_state(ProtocolParams(v, d), ChannelParams(t, eps), k)


class TestSymplecticSpectrum:
    def test_pure_tmsvs_is_vacuum_spectrum(self):
        for v in (1.0, 2.7, 5.0, 40.0):
            spec = symplectic_spectrum(tmsvs(v))
            assert spec.lambda1 == pytest.approx(1.0, abs=1e-9)
            assert spec.lambda2 == pytest.approx(1.0, abs=1e-9)

    def test_product_state(self):
        state = TwoModeGaussian(np.zeros(4), 5.0, 3.0, 0.0)
        spec = symplectic_spectrum(state)
        assert spec.lambda1 == pytest.approx(5.0, abs=1e-12)
        assert spec.lambda2 == pytest.approx(3.0, abs=1e-12)

    def test_invariant_identities(self):
        """lambda1*lambda2 = D2 and lambda1^2 + lambda2^2 = D1 on channel states."""
        for state in random_channel_states(200, seed=42):
            spec = symplectic_spectrum(state)
            d1 = state.a ** 2 + state.b ** 2 - 2 * state.c ** 2
            d2 = state.a * state.b - state.c ** 2
            assert spec.lambda1 * spec.lambda2 == pytest.approx(d2, rel=1e-10)
            assert spec.lambda1 ** 2 + spec.lambda2 ** 2 == pytest.approx(d1, rel=1e-10)
            assert spec.lambda1 >= spec.lambda2
            assert spec.d1 ** 2 >= 4 * spec.d2 ** 2 - 1e-9

    def test_specific_point(self):
        state = TwoModeGaussian(np.zeros(4), 5.0, 1.405, math.sqrt(2.4))
        spec = symplectic_spectrum(state)
        assert spec.lambda1 * spec.lambda2 == pytest.approx(spec.d2, rel=1e-10)
        assert spec.lambda1 ** 2 + spec.lambda2 ** 2 == pytest.approx(spec.d1,
                                                                      rel=1e-10)

    def test_large_noise_keeps_second_eigenvalue(self):
        """At eps = 1e40 lambda2 survives: (d1 - root) / 2 would cancel it to 0."""
        state = shared_state(ProtocolParams(5.0, 0.0), ChannelParams(0.1, 1e40), 1)
        spec = symplectic_spectrum(state)
        assert spec.lambda1 * spec.lambda2 == pytest.approx(spec.d2, rel=1e-12)
        assert spec.lambda2 == pytest.approx(5.0, rel=1e-12)
        assert is_physical(state).physical

    def test_overflow_is_a_domain_error_not_a_verdict(self):
        """An overflowing covariance is named, not read as a vacuum violation."""
        state = TwoModeGaussian(np.zeros(4), 5.0, 1e299, 1.5)
        for check in (symplectic_spectrum, is_physical):
            with pytest.raises(DomainError, match="overflows"):
                check(state)


class TestConditionalEigenvalue:
    def test_pure_state_gives_vacuum(self):
        for v in (1.0, 3.0, 17.5):
            assert conditional_eigenvalue(tmsvs(v)) == pytest.approx(1.0, abs=1e-12)

    def test_uncorrelated_passthrough(self):
        state = TwoModeGaussian(np.zeros(4), 5.0, 3.0, 0.0)
        assert conditional_eigenvalue(state) == 5.0

    def test_reference_point(self):
        state = TwoModeGaussian(np.zeros(4), 5.0, 1.405, math.sqrt(2.4))
        assert conditional_eigenvalue(state) == pytest.approx(
            4.002079002079002, abs=1e-12)

    def test_unphysical_rejected(self):
        state = TwoModeGaussian(np.zeros(4), 1.0, 1.0, 1.2)
        with pytest.raises(PhysicalityError):
            conditional_eigenvalue(state)


class TestGFunction:
    def test_vacuum_limit(self):
        assert g_function(1.0) == 0.0

    def test_exact_value_at_three(self):
        assert g_function(3.0) == pytest.approx(2.0, abs=1e-15)

    def test_near_one_series_bound(self):
        # frozen from the series expansion of the entropy near the vacuum
        value = g_function(1.0001)
        assert value == pytest.approx(7.865221743606664e-4, rel=1e-10)
        assert 0.0 < value < 0.002

    def test_monotone_increasing(self):
        xs = np.linspace(1.0, 100.0, 500)
        vals = [g_function(float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v >= 0.0 for v in vals)

    @pytest.mark.parametrize("x", [1e4, 1e12, 1e16, 1e39])
    def test_large_argument_series(self, x):
        """No cancellation at large x: matches log2(xp) + xm log2(1 + 1/xm) expanded."""
        xp, xm = (x + 1.0) / 2.0, (x - 1.0) / 2.0
        series = math.log2(xp) + (1.0 - 1.0 / (2.0 * xm) + 1.0 / (3.0 * xm ** 2)
                                  - 1.0 / (4.0 * xm ** 3)) / math.log(2.0)
        assert g_function(x) == pytest.approx(series, rel=1e-13)

    def test_clamp_window(self):
        assert g_function(1.0 - 5e-13) == 0.0
        with pytest.raises(DomainError):
            g_function(0.999)


class TestMeasurementDistribution:
    def test_vacuum_heterodyne(self):
        dist = measurement_distribution(TwoModeGaussian(np.zeros(4), 1.0, 1.0, 0.0))
        np.testing.assert_allclose(dist.covariance, 2.0 * np.eye(4))

    def test_receiver_marginal_variance(self):
        state = TwoModeGaussian(np.zeros(4), 5.0, 1.405, math.sqrt(2.4))
        dist = measurement_distribution(state)
        assert dist.covariance[2, 2] == pytest.approx(2.405)
        assert dist.covariance[3, 3] == pytest.approx(2.405)

    def test_mean_passthrough(self):
        m = np.array([0.0, 0.0, 1.7, 1.7])
        state = TwoModeGaussian(m, 2.0, 1.5, 0.5)
        dist = measurement_distribution(state)
        np.testing.assert_array_equal(dist.mean, m)

    def test_covariance_roundtrip(self):
        """Outcome covariance minus identity reproduces the state covariance."""
        for state in random_channel_states(50, seed=9):
            dist = measurement_distribution(state)
            np.testing.assert_allclose(dist.covariance - np.eye(4),
                                       state.covariance(), atol=1e-14)

    def test_indefinite_covariance_rejected(self):
        # correlation beyond the geometric bound makes cov + I indefinite
        wild = TwoModeGaussian(np.zeros(4), 1.0, 1.0, 3.0)
        with pytest.raises(DomainError):
            measurement_distribution(wild)


class TestIsPhysical:
    def test_pure_state(self):
        verdict = is_physical(tmsvs(4.0))
        assert verdict.physical and verdict.margin == 0.0

    def test_sub_shot_noise_mode(self):
        verdict = is_physical(TwoModeGaussian(np.zeros(4), 1.0, 0.8, 0.0))
        assert not verdict.physical
        assert verdict.margin == pytest.approx(0.2, abs=1e-12)

    def test_zero_symplectic_invariant_root(self):
        """d1 = -2 * |d2| gives lambda1 = 0: flagged, not a division error."""
        verdict = is_physical(TwoModeGaussian(np.zeros(4), 1.0, 1.0, 2.0))
        assert not verdict.physical
        assert verdict.reason == "symplectic" and verdict.margin == 1.0

    def test_channel_states_always_physical(self):
        assert all(is_physical(s).physical for s in random_channel_states(200, 3))

    def test_postprocessed_dip_detected(self):
        """Small displacements drive the receiver variance sub-shot-noise."""
        stats = postprocess_stats(ProtocolParams(5.0, 6.0),
                                  ChannelParams(0.1, 0.05))
        assert stats.b_d < 1.0
        dipped = TwoModeGaussian(np.zeros(4), stats.a_d, stats.b_d, stats.c_d)
        verdict = is_physical(dipped)
        assert not verdict.physical and verdict.margin > 0.1


class TestTwoModeGaussian:
    def test_covariance_layout(self):
        state = TwoModeGaussian(np.zeros(4), 2.0, 1.5, 0.7)
        cov = state.covariance()
        assert cov[0, 2] == 0.7 and cov[1, 3] == -0.7
        np.testing.assert_allclose(cov, cov.T)

    def test_rejects_bad_mean(self):
        with pytest.raises(DomainError):
            TwoModeGaussian(np.zeros(3), 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            TwoModeGaussian(np.array([0.0, 0.0, math.nan, 0.0]), 1.0, 1.0, 0.0)
