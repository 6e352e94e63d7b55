"""(a, b, c) covariance triples: symplectic spectra, entropy kernel, physicality,
and the heterodyne outcome covariance the Monte Carlo draws from."""

import math

import numpy as np
import pytest

from sqccqkd.channel import ChannelParams, ProtocolParams
from sqccqkd.errors import DomainError, PhysicalityError
from sqccqkd.gaussian import _REASONS, _conditional, _entropy
from sqccqkd.montecarlo import _centroids, _outcome_covariance

from helpers import on_point, on_triple, renormalised, shared, verdict


def tmsvs(v: float) -> tuple:
    return v, v, math.sqrt(v * v - 1.0)


def physicality(state):
    return on_triple(verdict, *state)


def invariants(a, b, c):
    """The symplectic invariants (D1, D2) of a triple."""
    return a * a + b * b - 2.0 * c * c, a * b - c * c


def lambda3(state):
    return on_triple(_conditional, *state)


def state_covariance(a, b, c):
    """The 4x4 covariance of a triple, with the sigma_z sign fold."""
    return np.array([[a, 0.0, c, 0.0], [0.0, a, 0.0, -c],
                     [c, 0.0, b, 0.0], [0.0, -c, 0.0, b]])


def random_channel_states(n: int, seed: int):
    """Physical states produced by the lossy channel over random parameters."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        v = 10 ** rng.uniform(0.01, 2)
        t = rng.uniform(0.05, 1.0)
        eps = rng.uniform(0.0, 0.3)
        d = rng.uniform(0.0, 20.0)
        rng.integers(1, 5)  # the symbol, which only moves the mean
        yield shared(ProtocolParams(v, d), ChannelParams(t, eps))


class TestSymplecticSpectrum:
    def test_pure_tmsvs_is_vacuum_spectrum(self):
        for v in (1.0, 2.7, 5.0, 40.0):
            spec = physicality(tmsvs(v))
            assert spec.lambda1 == pytest.approx(1.0, abs=1e-9)
            assert spec.lambda2 == pytest.approx(1.0, abs=1e-9)

    def test_product_state(self):
        state = (5.0, 3.0, 0.0)
        spec = physicality(state)
        assert spec.lambda1 == pytest.approx(5.0, abs=1e-12)
        assert spec.lambda2 == pytest.approx(3.0, abs=1e-12)

    def test_invariant_identities(self):
        """lambda1*lambda2 = D2 and lambda1^2 + lambda2^2 = D1 on channel states."""
        for a, b, c in random_channel_states(200, seed=42):
            spec = physicality((a, b, c))
            d1, d2 = invariants(a, b, c)
            assert spec.lambda1 * spec.lambda2 == pytest.approx(d2, rel=1e-10)
            assert spec.lambda1 ** 2 + spec.lambda2 ** 2 == pytest.approx(d1, rel=1e-10)
            assert spec.lambda1 >= spec.lambda2
            assert d1 ** 2 >= 4 * d2 ** 2 - 1e-9

    def test_specific_point(self):
        state = (5.0, 1.405, math.sqrt(2.4))
        spec = physicality(state)
        d1, d2 = invariants(*state)
        assert spec.lambda1 * spec.lambda2 == pytest.approx(d2, rel=1e-10)
        assert spec.lambda1 ** 2 + spec.lambda2 ** 2 == pytest.approx(d1, rel=1e-10)

    def test_large_noise_keeps_second_eigenvalue(self):
        """At eps = 1e40 lambda2 survives: (d1 - root) / 2 would cancel it to 0."""
        state = shared(ProtocolParams(5.0, 0.0), ChannelParams(0.1, 1e40))
        spec = physicality(state)
        assert spec.lambda1 * spec.lambda2 == pytest.approx(invariants(*state)[1],
                                                            rel=1e-12)
        assert spec.lambda2 == pytest.approx(5.0, rel=1e-12)
        assert physicality(state).physical

    def test_overflow_is_a_domain_error_not_a_verdict(self):
        """An overflowing covariance is named, not read as a vacuum violation."""
        state = (5.0, 1e299, 1.5)
        with pytest.raises(DomainError, match="overflows"):
            physicality(state)


class TestConditionalEigenvalue:
    def test_pure_state_gives_vacuum(self):
        for v in (1.0, 3.0, 17.5):
            assert lambda3(tmsvs(v)) == pytest.approx(1.0, abs=1e-12)

    def test_uncorrelated_passthrough(self):
        state = (5.0, 3.0, 0.0)
        assert lambda3(state) == 5.0

    def test_reference_point(self):
        state = (5.0, 1.405, math.sqrt(2.4))
        assert lambda3(state) == pytest.approx(
            4.002079002079002, abs=1e-12)

    def test_unphysical_rejected(self):
        state = (1.0, 1.0, 1.2)
        with pytest.raises(PhysicalityError):
            lambda3(state)


def entropy(x: float) -> float:
    """The entropy stage g(x) at one x; raises its first error."""
    return on_point(_entropy, x)


class TestGFunction:
    def test_vacuum_limit(self):
        assert entropy(1.0) == 0.0

    def test_exact_value_at_three(self):
        assert entropy(3.0) == pytest.approx(2.0, abs=1e-15)

    def test_near_one_series_bound(self):
        # frozen from the series expansion of the entropy near the vacuum
        value = entropy(1.0001)
        assert value == pytest.approx(7.865221743606664e-4, rel=1e-10)
        assert 0.0 < value < 0.002

    def test_monotone_increasing(self):
        xs = np.linspace(1.0, 100.0, 500)
        vals = [entropy(float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v >= 0.0 for v in vals)

    @pytest.mark.parametrize("x", [1e4, 1e12, 1e16, 1e39])
    def test_large_argument_series(self, x):
        """No cancellation at large x: matches log2(xp) + xm log2(1 + 1/xm) expanded."""
        xp, xm = (x + 1.0) / 2.0, (x - 1.0) / 2.0
        series = math.log2(xp) + (1.0 - 1.0 / (2.0 * xm) + 1.0 / (3.0 * xm ** 2)
                                  - 1.0 / (4.0 * xm ** 3)) / math.log(2.0)
        assert entropy(x) == pytest.approx(series, rel=1e-13)

    def test_clamp_window(self):
        assert entropy(1.0 - 5e-13) == 0.0
        with pytest.raises(DomainError):
            entropy(0.999)


class TestMeasurementDistribution:
    def test_vacuum_heterodyne(self):
        np.testing.assert_allclose(_outcome_covariance(1.0, 1.0, 0.0), 2.0 * np.eye(4))

    def test_receiver_marginal_variance(self):
        cov = _outcome_covariance(5.0, 1.405, math.sqrt(2.4))
        assert cov[2, 2] == pytest.approx(2.405)
        assert cov[3, 3] == pytest.approx(2.405)

    def test_mean_passthrough(self):
        """The outcome mean is the state's: sqrt(T) times the symbol's alphabet point."""
        d = 1.7 * math.sqrt(2.0) / math.sqrt(0.5)
        centroid = _centroids(ProtocolParams(2.0, d), ChannelParams(0.5, 0.0))[0]
        np.testing.assert_allclose(centroid, [1.7, 1.7], rtol=1e-15)

    def test_covariance_roundtrip(self):
        """Outcome covariance minus identity reproduces the state covariance."""
        for state in random_channel_states(50, seed=9):
            np.testing.assert_allclose(_outcome_covariance(*state) - np.eye(4),
                                       state_covariance(*state), atol=1e-14)

    def test_indefinite_covariance_rejected(self):
        # correlation beyond the geometric bound makes cov + I indefinite
        with pytest.raises(DomainError, match="must be positive-definite"):
            _outcome_covariance(1.0, 1.0, 3.0)


class TestIsPhysical:
    def test_pure_state(self):
        assert physicality(tmsvs(4.0)).physical

    def test_sub_shot_noise_mode(self):
        result = physicality((1.0, 0.8, 0.0))
        assert not result.physical
        assert result.worst == pytest.approx(0.2, abs=1e-12)

    def test_zero_symplectic_invariant_root(self):
        """d1 = -2 * |d2| gives lambda1 = 0: flagged, not a division error."""
        result = physicality((1.0, 1.0, 2.0))
        assert not result.physical
        assert _REASONS[result.reason] == "symplectic" and result.worst == 1.0

    def test_channel_states_always_physical(self):
        assert all(physicality(s).physical for s in random_channel_states(200, 3))

    def test_postprocessed_dip_detected(self):
        """Small displacements drive the receiver variance sub-shot-noise."""
        stats = renormalised(ProtocolParams(5.0, 6.0), ChannelParams(0.1, 0.05))
        assert stats.b_d < 1.0
        dipped = (stats.a_d, stats.b_d, stats.c_d)
        result = physicality(dipped)
        assert not result.physical and result.worst > 0.1


class TestTwoModeGaussian:
    def test_covariance_layout(self):
        """The outcome covariance carries the sigma_z fold: +c on q, -c on p."""
        cov = _outcome_covariance(2.0, 1.5, 0.7)
        assert cov[0, 2] == 0.7 and cov[1, 3] == -0.7
        np.testing.assert_allclose(cov, cov.T)
