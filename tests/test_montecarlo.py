"""Monte Carlo engine: sampler calibration, postprocessing, estimation chain.

Statistical checks assert agreement within 5 standard errors at fixed seeds;
the seeds are part of the test contract and any failure is reproducible.
"""

import math

import numpy as np
import pytest

from sqccqkd.channel import ChannelParams, ProtocolParams, shared_state
from sqccqkd.errors import DomainError
from sqccqkd.montecarlo import (
    conditional_variance,
    discriminate_and_redisplace,
    empirical_moments,
    estimation_pipeline,
    sample_joint,
)
from sqccqkd.postprocess import postprocess_stats, renormalise, RenormStrategy

REF_PROTO = ProtocolParams(5.0, 12.0, 0.95)
REF_CHAN = ChannelParams(0.1, 0.05)


class TestSampler:
    def test_deterministic(self):
        a = sample_joint(REF_PROTO, REF_CHAN, "uniform-random", 20_000, 42)
        b = sample_joint(REF_PROTO, REF_CHAN, "uniform-random", 20_000, 42)
        np.testing.assert_array_equal(a.alice_outcomes, b.alice_outcomes)
        np.testing.assert_array_equal(a.bob_outcomes, b.bob_outcomes)
        np.testing.assert_array_equal(a.true_symbols, b.true_symbols)

    def test_seed_changes_stream(self):
        a = sample_joint(REF_PROTO, REF_CHAN, "uniform-random", 1000, 1)
        b = sample_joint(REF_PROTO, REF_CHAN, "uniform-random", 1000, 2)
        assert not np.array_equal(a.bob_outcomes, b.bob_outcomes)

    def test_outcome_variance_calibration(self):
        """Per-component sample variance equals the state variance plus one."""
        proto = ProtocolParams(5.0, 0.0)
        batch = sample_joint(proto, REF_CHAN, "uniform-random", 200_000, 10)
        state = shared_state(proto, REF_CHAN, 1)
        targets = [state.a + 1, state.a + 1, state.b + 1, state.b + 1]
        joint = np.hstack([batch.alice_outcomes, batch.bob_outcomes])
        for col, target in enumerate(targets):
            sample = np.var(joint[:, col], ddof=1)
            se = target * math.sqrt(2.0 / 200_000)
            assert abs(sample - target) < 5 * se

    def test_zero_displacement_symbols_uniform(self):
        batch = sample_joint(ProtocolParams(5.0, 0.0), REF_CHAN,
                             "uniform-random", 100_000, 11)
        counts = np.bincount(batch.decided_symbols, minlength=5)[1:]
        se = math.sqrt(100_000 * 0.25 * 0.75)
        assert all(abs(c - 25_000) < 5 * se for c in counts)

    def test_fixed_symbol_mean(self):
        """Receiver sample mean sits on the analytic centroid."""
        batch = sample_joint(REF_PROTO, REF_CHAN, 1, 100_000, 12)
        expected = math.sqrt(0.1) * 12.0 / math.sqrt(2.0)
        se = math.sqrt(2.405 / 100_000)
        assert abs(batch.bob_outcomes[:, 0].mean() - expected) < 5 * se
        assert abs(batch.bob_outcomes[:, 1].mean() - expected) < 5 * se

    def test_rejects_bad_schedule_and_size(self):
        with pytest.raises(DomainError):
            sample_joint(REF_PROTO, REF_CHAN, 5, 100, 1)
        with pytest.raises(DomainError):
            sample_joint(REF_PROTO, REF_CHAN, 1, 0, 1)


class TestDiscrimination:
    def test_bit_error_rate_matches_analytic(self):
        stats = postprocess_stats(REF_PROTO, REF_CHAN)
        batch = sample_joint(REF_PROTO, REF_CHAN, "uniform-random", 200_000, 13)
        post = discriminate_and_redisplace(batch, REF_PROTO, REF_CHAN)
        e_hat = empirical_moments(post).e_c_hat
        se = math.sqrt(stats.e_c * (1 - stats.e_c) / (2 * 200_000))
        assert abs(e_hat - stats.e_c) < 5 * se

    def test_zero_displacement_rates(self):
        """Bitwise rate 1/2 and quadrant mismatch 3/4 with no separation."""
        proto = ProtocolParams(5.0, 0.0)
        batch = sample_joint(proto, REF_CHAN, "uniform-random", 100_000, 14)
        post = discriminate_and_redisplace(batch, proto, REF_CHAN)
        assert abs(empirical_moments(post).e_c_hat - 0.5) < 5 * math.sqrt(
            0.25 / 200_000)
        symbol_errors = np.mean(post.decided_symbols != post.true_symbols)
        assert abs(symbol_errors - 0.75) < 5 * math.sqrt(0.1875 / 100_000)

    def test_decoupled_regime_error_free(self):
        chan = ChannelParams(0.5, 0.05)
        proto = ProtocolParams(3.0, 50.0)  # snr ~ 280
        batch = sample_joint(proto, chan, "uniform-random", 100_000, 15)
        post = discriminate_and_redisplace(batch, proto, chan)
        assert empirical_moments(post).e_c_hat == 0.0

    def test_decision_no_op_on_redisplaced_batch(self):
        batch = sample_joint(REF_PROTO, REF_CHAN, "uniform-random", 50_000, 16)
        post = discriminate_and_redisplace(batch, REF_PROTO, REF_CHAN)
        assert np.array_equal(post.true_symbols, batch.true_symbols)
        assert post.n_shots == batch.n_shots


class TestEmpiricalMoments:
    def test_identity_at_zero_displacement(self):
        proto = ProtocolParams(5.0, 0.0)
        state = shared_state(proto, REF_CHAN, 1)
        batch = sample_joint(proto, REF_CHAN, "uniform-random", 200_000, 17)
        m = empirical_moments(batch)
        assert abs(m.a_hat - state.a) < 5 * m.a_se
        assert abs(m.b_hat - state.b) < 5 * m.b_se
        assert abs(m.c_hat - state.c) < 5 * m.c_se

    def test_postprocessed_moments_match_analytics(self):
        """The acceptance core at one point: 5-SE agreement with closed forms."""
        stats = postprocess_stats(REF_PROTO, REF_CHAN)
        batch = sample_joint(REF_PROTO, REF_CHAN, 1, 200_000, 18)
        post = discriminate_and_redisplace(batch, REF_PROTO, REF_CHAN)
        m = empirical_moments(post)
        assert abs(m.a_hat - stats.a_d) < 5 * m.a_se
        assert abs(m.b_hat - stats.b_d) < 5 * m.b_se
        assert abs(m.c_hat - stats.c_d) < 5 * m.c_se
        assert abs(m.mean_hat[2] - stats.mean_d[2]) < 5 * m.mean_se[2]
        assert abs(m.mean_hat[3] - stats.mean_d[3]) < 5 * m.mean_se[3]

    def test_standard_errors_scale_with_shots(self):
        """Doubling twice halves the standard error, within a factor two."""
        small = empirical_moments(sample_joint(REF_PROTO, REF_CHAN,
                                               "uniform-random", 25_000, 19))
        large = empirical_moments(sample_joint(REF_PROTO, REF_CHAN,
                                               "uniform-random", 100_000, 19))
        for lo, hi in ((small.b_se, large.b_se), (small.c_se, large.c_se)):
            ratio = lo / hi  # expect ~2 from a 4x shot increase
            assert 1.0 < ratio < 4.0

    def test_needs_two_shots(self):
        batch = sample_joint(REF_PROTO, REF_CHAN, 1, 1, 20)
        with pytest.raises(DomainError):
            empirical_moments(batch)


class TestSubShotNoiseHazard:
    def test_dip_and_rescue(self):
        """Small displacements drive the receiver sub-shot-noise; rescaling fixes it."""
        proto = ProtocolParams(5.0, 6.0)
        stats = postprocess_stats(proto, REF_CHAN)
        state = shared_state(proto, REF_CHAN, 1)
        assert stats.b_d < 1.0
        batch = sample_joint(proto, REF_CHAN, 1, 100_000, 21)
        post = discriminate_and_redisplace(batch, proto, REF_CHAN)
        m = empirical_moments(post)
        assert m.b_hat < 1.0  # illegitimate before rescaling
        renorm = renormalise(proto, REF_CHAN, RenormStrategy.B_PRESERVING)
        rescaled = post.bob_outcomes / math.sqrt(renorm.delta_v)
        b_rescaled = (np.var(rescaled[:, 0], ddof=1)
                      + np.var(rescaled[:, 1], ddof=1)) / 2.0 - 1.0
        assert b_rescaled >= 1.0
        se = (state.b + 1.0) * math.sqrt(2.0 / (2 * 100_000))
        assert abs(b_rescaled - state.b) < 5 * se


class TestEstimationPipeline:
    def test_noiseless_large_displacement(self):
        chan = ChannelParams(1.0, 0.0)
        proto = ProtocolParams(5.0, 40.0)
        batch = sample_joint(proto, chan, "uniform-random", 50_000, 22)
        est = estimation_pipeline(batch, 0.1)
        pattern = 40.0 / math.sqrt(2.0)
        se = math.sqrt((5.0 + 1.0) / 12_500)
        for k, (sx, sy) in enumerate([(1, 1), (-1, 1), (-1, -1), (1, -1)]):
            assert abs(est.centroid_hat[k][0] - sx * pattern) < 5 * se
            assert abs(est.centroid_hat[k][1] - sy * pattern) < 5 * se
        assert est.delta_v_hat == pytest.approx(1.0, abs=1e-6)

    def test_certified_snr_within_ten_percent(self):
        stats = postprocess_stats(REF_PROTO, REF_CHAN)
        batch = sample_joint(REF_PROTO, REF_CHAN, "uniform-random", 1_000_000, 23)
        est = estimation_pipeline(batch, 0.1)
        assert abs(est.snr_hat - stats.snr) / stats.snr < 0.10
        assert est.e_c_bound > est.e_c_point  # one-sided upper bound

    def test_rescaled_variance_hits_target(self):
        """After rescaling the conditional receiver variance returns to b + 1."""
        chan = REF_CHAN
        proto = ProtocolParams(5.0, 20.0)  # snr ~ 16.6, e_C ~ 2e-3
        state = shared_state(proto, chan, 1)
        batch = sample_joint(proto, chan, "uniform-random", 200_000, 24)
        est = estimation_pipeline(batch, 0.1)
        rescaled_var = conditional_variance(est.rescaled)
        se = (state.b + 1.0) * math.sqrt(2.0 / (2 * 200_000))
        assert abs(rescaled_var - (state.b + 1.0)) < 5 * se

    def test_delta_v_tracks_analytic_value(self):
        stats = postprocess_stats(REF_PROTO, REF_CHAN)
        state = shared_state(REF_PROTO, REF_CHAN, 1)
        true_dv = (stats.b_d + 1.0) / (state.b + 1.0)
        batch = sample_joint(REF_PROTO, REF_CHAN, "uniform-random", 1_000_000, 25)
        est = estimation_pipeline(batch, 0.1)
        assert est.delta_v_hat == pytest.approx(true_dv, rel=0.01)

    def test_zero_error_bound_is_finite(self):
        chan = ChannelParams(0.5, 0.05)
        proto = ProtocolParams(3.0, 50.0)
        batch = sample_joint(proto, chan, "uniform-random", 10_000, 26)
        est = estimation_pipeline(batch, 0.1)
        assert est.e_c_point == 0.0
        assert 0.0 < est.e_c_bound < 1.0
        assert est.e_c_bound == pytest.approx(1 - (1e-10) ** (1 / 2000.0), rel=1e-4)

    def test_disclosure_floor(self):
        batch = sample_joint(REF_PROTO, REF_CHAN, "uniform-random", 500, 27)
        with pytest.raises(DomainError):
            estimation_pipeline(batch, 0.1)
