"""Monte Carlo engine: sampler calibration, postprocessing, estimation chain.

Statistical checks assert agreement within 5 standard errors at fixed seeds;
the seeds are part of the test contract and any failure is reproducible.
The streamed pass is also checked against whole-batch numpy formulas.
"""

import math

import numpy as np
import pytest

from sqccqkd import montecarlo
from sqccqkd.channel import ChannelParams, ProtocolParams
from sqccqkd.errors import DomainError
from sqccqkd.montecarlo import estimate, shot_chunks
from sqccqkd.postprocess import RenormStrategy
from sqccqkd.special import beta_quantile

from helpers import renormalised, shared, vacuum_moments

REF_PROTO = ProtocolParams(5.0, 12.0, 0.95)
REF_CHAN = ChannelParams(0.1, 0.05)


def whole(proto, chan, schedule, n, seed) -> dict:
    """All shots of one batch as whole arrays, joined from its chunks."""
    chunks = list(shot_chunks(proto, chan, schedule, n, seed))
    joint = np.concatenate([c.joint for c in chunks])
    return {"alice": joint[:, :2], "bob_raw": np.concatenate([c.bob_raw for c in chunks]),
            "bob_post": joint[:, 2:], "joint": joint,
            "true": np.concatenate([c.true_symbols for c in chunks]),
            "decided": np.concatenate([c.decided_symbols for c in chunks])}


def moments(proto, chan, schedule, n, seed):
    return estimate(shot_chunks(proto, chan, schedule, n, seed), n)[0]


def estimation(proto, chan, schedule, n, seed, disclose_fraction=0.1):
    return estimate(shot_chunks(proto, chan, schedule, n, seed), n, disclose_fraction)[1]


def pooled_class_variance(bob, decided) -> float:
    """Per-quadrature receiver variance pooled within decided-symbol classes."""
    total, dof = 0.0, 0
    for k in (1, 2, 3, 4):
        sub = bob[decided == k]
        if len(sub) >= 2:
            total += float(((sub - sub.mean(axis=0)) ** 2).sum())
            dof += 2 * (len(sub) - 1)
    return total / dof


class TestSampler:
    def test_deterministic(self):
        a = whole(REF_PROTO, REF_CHAN, "uniform-random", 20_000, 42)
        b = whole(REF_PROTO, REF_CHAN, "uniform-random", 20_000, 42)
        np.testing.assert_array_equal(a["alice"], b["alice"])
        np.testing.assert_array_equal(a["bob_raw"], b["bob_raw"])
        np.testing.assert_array_equal(a["true"], b["true"])

    def test_seed_changes_stream(self):
        a = whole(REF_PROTO, REF_CHAN, "uniform-random", 1000, 1)
        b = whole(REF_PROTO, REF_CHAN, "uniform-random", 1000, 2)
        assert not np.array_equal(a["bob_raw"], b["bob_raw"])

    def test_outcome_variance_calibration(self):
        """Per-component sample variance equals the state variance plus one."""
        proto = ProtocolParams(5.0, 0.0)
        batch = whole(proto, REF_CHAN, "uniform-random", 200_000, 10)
        a, b, _ = shared(proto, REF_CHAN)
        targets = [a + 1, a + 1, b + 1, b + 1]
        joint = np.hstack([batch["alice"], batch["bob_raw"]])
        for col, target in enumerate(targets):
            sample = np.var(joint[:, col], ddof=1)
            se = target * math.sqrt(2.0 / 200_000)
            assert abs(sample - target) < 5 * se

    def test_zero_displacement_symbols_uniform(self):
        batch = whole(ProtocolParams(5.0, 0.0), REF_CHAN, "uniform-random", 100_000, 11)
        counts = np.bincount(batch["decided"], minlength=5)[1:]
        se = math.sqrt(100_000 * 0.25 * 0.75)
        assert all(abs(c - 25_000) < 5 * se for c in counts)

    def test_fixed_symbol_mean(self):
        """Receiver sample mean sits on the analytic centroid."""
        bob = whole(REF_PROTO, REF_CHAN, 1, 100_000, 12)["bob_raw"]
        expected = math.sqrt(0.1) * 12.0 / math.sqrt(2.0)
        se = math.sqrt(2.405 / 100_000)
        assert abs(bob[:, 0].mean() - expected) < 5 * se
        assert abs(bob[:, 1].mean() - expected) < 5 * se

    def test_rejects_bad_schedule_and_size(self):
        """Arguments are checked when the stream is made, before any chunk is drawn."""
        with pytest.raises(DomainError):
            shot_chunks(REF_PROTO, REF_CHAN, 5, 100, 1)
        with pytest.raises(DomainError):
            shot_chunks(REF_PROTO, REF_CHAN, 1, 0, 1)
        with pytest.raises(DomainError, match=f"n must be >= 1 and <= {2 ** 53}"):
            shot_chunks(REF_PROTO, REF_CHAN, 1, 2 ** 53 + 1, 1)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_rejects_bad_seed(self, seed):
        """A negative or fractional seed is a DomainError when the stream is made,
        not numpy's error at the first chunk."""
        with pytest.raises(DomainError, match=f"^seed must be >= 0, got {seed}$"):
            shot_chunks(REF_PROTO, REF_CHAN, 1, 100, seed)


class TestDiscrimination:
    def test_bit_error_rate_matches_analytic(self):
        stats = renormalised(REF_PROTO, REF_CHAN)
        e_hat = moments(REF_PROTO, REF_CHAN, "uniform-random", 200_000, 13).e_c_hat
        se = math.sqrt(stats.e_c * (1 - stats.e_c) / (2 * 200_000))
        assert abs(e_hat - stats.e_c) < 5 * se

    def test_zero_displacement_rates(self):
        """Bitwise rate 1/2 and quadrant mismatch 3/4 with no separation."""
        proto = ProtocolParams(5.0, 0.0)
        assert abs(moments(proto, REF_CHAN, "uniform-random", 100_000, 14).e_c_hat
                   - 0.5) < 5 * math.sqrt(0.25 / 200_000)
        batch = whole(proto, REF_CHAN, "uniform-random", 100_000, 14)
        symbol_errors = np.mean(batch["decided"] != batch["true"])
        assert abs(symbol_errors - 0.75) < 5 * math.sqrt(0.1875 / 100_000)

    def test_decoupled_regime_error_free(self):
        chan = ChannelParams(0.5, 0.05)
        proto = ProtocolParams(3.0, 50.0)  # snr ~ 280
        assert moments(proto, chan, "uniform-random", 100_000, 15).e_c_hat == 0.0

    def test_classify_keeps_the_case_order(self):
        """Signed zeros, infinities and NaN decide as the case list 1, 2, 3 with
        default 4 does; continuous draws reach none of these points."""
        values = [-math.inf, -1.0, -0.0, 0.0, 1.0, math.inf, math.nan]
        points = np.array([[x, y] for x in values for y in values])
        x, y = points[:, 0], points[:, 1]
        oracle = np.select([(x >= 0.0) & (y >= 0.0), (x < 0.0) & (y > 0.0),
                            (x <= 0.0) & (y <= 0.0)], [1, 2, 3], default=4)
        decided = montecarlo._classify(points)
        assert decided.dtype == np.int64
        np.testing.assert_array_equal(decided, oracle)

    def test_decision_no_op_on_redisplaced_batch(self):
        """Re-displacement subtracts the decided centroid; every shot stays, in order."""
        n = 150_000  # three chunks
        centroids = montecarlo._centroids(REF_PROTO, REF_CHAN)
        chunks = list(shot_chunks(REF_PROTO, REF_CHAN, "uniform-random", n, 16))
        assert [c.start for c in chunks] == list(range(0, n, montecarlo._CHUNK))
        assert sum(len(c.joint) for c in chunks) == n
        for c in chunks:
            assert np.array_equal(c.decided_symbols, montecarlo._classify(c.bob_raw))
            assert np.array_equal(c.joint[:, 2:],
                                  c.bob_raw - centroids[c.decided_symbols - 1])


class TestEmpiricalMoments:
    def test_identity_at_zero_displacement(self):
        proto = ProtocolParams(5.0, 0.0)
        a, b, c = shared(proto, REF_CHAN)
        m = moments(proto, REF_CHAN, "uniform-random", 200_000, 17)
        assert abs(m.a_hat - a) < 5 * m.a_se
        assert abs(m.b_hat - b) < 5 * m.b_se
        assert abs(m.c_hat - c) < 5 * m.c_se

    def test_postprocessed_moments_match_analytics(self):
        """The acceptance core at one point: 5-SE agreement with closed forms."""
        stats = renormalised(REF_PROTO, REF_CHAN)
        m = moments(REF_PROTO, REF_CHAN, 1, 200_000, 18)
        assert abs(m.a_hat - stats.a_d) < 5 * m.a_se
        assert abs(m.b_hat - stats.b_d) < 5 * m.b_se
        assert abs(m.c_hat - stats.c_d) < 5 * m.c_se
        assert abs(m.mean_hat[2] - stats.mean_d) < 5 * m.mean_se[2]
        assert abs(m.mean_hat[3] - stats.mean_d) < 5 * m.mean_se[3]

    def test_standard_errors_scale_with_shots(self):
        """Doubling twice halves the standard error, within a factor two."""
        small = moments(REF_PROTO, REF_CHAN, "uniform-random", 25_000, 19)
        large = moments(REF_PROTO, REF_CHAN, "uniform-random", 100_000, 19)
        for lo, hi in ((small.b_se, large.b_se), (small.c_se, large.c_se)):
            ratio = lo / hi  # expect ~2 from a 4x shot increase
            assert 1.0 < ratio < 4.0

    def test_needs_two_shots(self):
        with pytest.raises(DomainError):
            estimate(shot_chunks(REF_PROTO, REF_CHAN, 1, 1, 20), 1)

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 4_099, 16_384, montecarlo._CHUNK + 1])
    def test_add_keeps_the_bits_of_centring_by_rows(self, k, dim):
        """``_Moments.add`` centres a column-major copy of its rows; the BLAS
        product of it sums as the row-major ``rows - mean`` did, bit for bit.
        Its mean sums with a slice of a shared ones vector, or, past ``_CHUNK``
        rows, with a new one, as a fresh ``np.ones(k)`` does."""
        rng = np.random.default_rng(1000 * k + dim)
        scale = np.array([1.0, 3.0, 1e-3, 7.0])[:dim]
        wide = rng.standard_normal((k + 3, dim))
        cases = [rng.standard_normal((k, dim)),
                 40.0 + scale * rng.standard_normal((k, dim)),  # offset, scaled columns
                 -1e6 + 1e-4 * rng.standard_normal((k, dim)),
                 wide[2:k + 2]]  # a row slice, as estimate passes its sub-batches
        got, ref = montecarlo._Moments(dim), montecarlo._Moments(dim)
        for rows in cases:
            before = rows.copy()
            got.add(rows)
            assert np.array_equal(rows, before)  # centred in a copy, even at k = 1
            mean = np.ones(k) @ rows / k
            centred = rows - mean
            ref.merge(k, mean, centred.T @ centred)
            assert got.n == ref.n
            assert np.array_equal(got.mean.view(np.int64), ref.mean.view(np.int64))
            assert np.array_equal(got.m2.view(np.int64), ref.m2.view(np.int64))


class TestSubShotNoiseHazard:
    def test_dip_and_rescue(self):
        """Small displacements drive the receiver sub-shot-noise; rescaling fixes it."""
        proto = ProtocolParams(5.0, 6.0)
        renorm = renormalised(proto, REF_CHAN, RenormStrategy.B_PRESERVING)
        assert renorm.b_d < 1.0
        m = moments(proto, REF_CHAN, 1, 100_000, 21)
        assert m.b_hat < 1.0  # illegitimate before rescaling
        post = whole(proto, REF_CHAN, 1, 100_000, 21)["bob_post"]
        rescaled = post / math.sqrt(renorm.delta_v)
        b_rescaled = (np.var(rescaled[:, 0], ddof=1)
                      + np.var(rescaled[:, 1], ddof=1)) / 2.0 - 1.0
        assert b_rescaled >= 1.0
        se = (renorm.b + 1.0) * math.sqrt(2.0 / (2 * 100_000))
        assert abs(b_rescaled - renorm.b) < 5 * se


class TestEstimationPipeline:
    def test_noiseless_large_displacement(self):
        chan = ChannelParams(1.0, 0.0)
        proto = ProtocolParams(5.0, 40.0)
        est = estimation(proto, chan, "uniform-random", 50_000, 22)
        pattern = 40.0 / math.sqrt(2.0)
        se = math.sqrt((5.0 + 1.0) / 12_500)
        for k, (sx, sy) in enumerate([(1, 1), (-1, 1), (-1, -1), (1, -1)]):
            assert abs(est.centroid_hat[k][0] - sx * pattern) < 5 * se
            assert abs(est.centroid_hat[k][1] - sy * pattern) < 5 * se
        assert est.delta_v_hat == pytest.approx(1.0, abs=1e-6)

    def test_certified_snr_within_ten_percent(self):
        stats = renormalised(REF_PROTO, REF_CHAN)
        est = estimation(REF_PROTO, REF_CHAN, "uniform-random", 1_000_000, 23)
        assert abs(est.snr_hat - stats.snr) / stats.snr < 0.10
        assert est.e_c_bound > est.e_c_point  # one-sided upper bound

    def test_rescaled_variance_hits_target(self):
        """After rescaling the conditional receiver variance returns to b + 1."""
        chan = REF_CHAN
        proto = ProtocolParams(5.0, 20.0)  # snr ~ 16.6, e_C ~ 2e-3
        _, b, _ = shared(proto, chan)
        est = estimation(proto, chan, "uniform-random", 200_000, 24)
        batch = whole(proto, chan, "uniform-random", 200_000, 24)
        decided = batch["decided"]
        rescaled = ((batch["bob_raw"] - est.centroid_hat[decided - 1])
                    / math.sqrt(est.delta_v_hat))
        rescaled_var = pooled_class_variance(rescaled, decided)
        se = (b + 1.0) * math.sqrt(2.0 / (2 * 200_000))
        assert abs(rescaled_var - (b + 1.0)) < 5 * se

    def test_delta_v_tracks_analytic_value(self):
        stats = renormalised(REF_PROTO, REF_CHAN)
        true_dv = (stats.b_d + 1.0) / (stats.b + 1.0)
        est = estimation(REF_PROTO, REF_CHAN, "uniform-random", 1_000_000, 25)
        assert est.delta_v_hat == pytest.approx(true_dv, rel=0.01)

    def test_zero_error_bound_is_finite(self):
        chan = ChannelParams(0.5, 0.05)
        proto = ProtocolParams(3.0, 50.0)
        est = estimation(proto, chan, "uniform-random", 10_000, 26)
        assert est.e_c_point == 0.0
        assert 0.0 < est.e_c_bound < 1.0
        assert est.e_c_bound == pytest.approx(1 - (1e-10) ** (1 / 2000.0), rel=1e-4)

    def test_disclosure_floor(self):
        with pytest.raises(DomainError):
            estimation(REF_PROTO, REF_CHAN, "uniform-random", 500, 27)

    def test_shot_count_beyond_floats(self):
        """int(0.1 * 10**400) raised OverflowError; the count is checked first."""
        with pytest.raises(DomainError, match=f"n must be <= {2 ** 53}, got {10 ** 400}"):
            estimate(iter(()), 10 ** 400, 0.1)

    def test_all_disclosed_bits_wrong(self):
        """Every disclosed bit wrong bounds the error rate by 1 without a Beta
        quantile, and certifies an SNR floor of 0."""
        n = 1000
        rng = np.random.default_rng(28)
        chunk = montecarlo.ShotChunk(0, rng.normal(size=(n, 4)), rng.normal(size=(n, 2)),
                                     np.full(n, 1), np.full(n, 3))
        _, est = estimate(iter([chunk]), n, 0.1)
        assert (est.e_c_point, est.e_c_bound) == (1.0, 1.0)
        assert (est.snr_point, est.snr_hat) == (0.0, 0.0)


class TestDisclosedBitCoverage:
    """The disclosed-bit bound covers the true error rate at its confidence level.

    ``estimate`` bounds e_C by the one-sided binomial tail inversion
    ``beta_quantile(1 - eps, k + 1, 2m - k)`` (1 when all 2m bits are wrong).
    Drawn here directly as k ~ Binomial(2m, e), at eps = 0.05 so that misses
    are countable, the bound must miss the true e in at most eps of the draws,
    within 3 binomial standard errors.
    """

    EPS = 0.05
    DRAWS = 2000

    @pytest.mark.parametrize("e", [1e-3, 0.02, 0.2])
    @pytest.mark.parametrize("comparisons", [200, 10_000])
    def test_miss_rate_at_most_eps(self, comparisons, e):
        rng = np.random.default_rng(29)
        errors = rng.binomial(comparisons, e, self.DRAWS)
        bound = {k: 1.0 if k == comparisons else
                 beta_quantile(1.0 - self.EPS, k + 1, comparisons - k)
                 for k in np.unique(errors).tolist()}
        misses = sum(e > bound[k] for k in errors.tolist())
        limit = self.EPS + 3 * math.sqrt(self.EPS * (1 - self.EPS) / self.DRAWS)
        assert misses / self.DRAWS <= limit


def whole_batch_reference(batch: dict, m: int) -> dict:
    """The moments and estimates by whole-batch numpy formulas, as a plain reference."""
    joint, n = batch["joint"], len(batch["joint"])
    n_sub = min(16, n // 2)

    def with_se(values, stat):
        per_sub = [stat(part) for part in np.array_split(values, n_sub)]
        return (float(stat(values)), float(np.std(per_sub, ddof=1) / math.sqrt(n_sub))
                if n_sub >= 2 else math.nan)

    def variance(cols):
        return lambda x: (np.var(x[:, cols[0]], ddof=1) + np.var(x[:, cols[1]], ddof=1)
                          ) / 2.0 - 1.0

    def fold(x):
        return (np.cov(x[:, 0], x[:, 2])[0, 1] - np.cov(x[:, 1], x[:, 3])[0, 1]) / 2.0

    signs = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])  # per symbol
    bits = (signs[batch["true"] - 1] != signs[batch["decided"] - 1]).astype(float)
    out = {}
    for name, (value, se) in {"a": with_se(joint, variance((0, 1))),
                              "b": with_se(joint, variance((2, 3))),
                              "c": with_se(joint, fold),
                              "e_c": with_se(bits, np.mean)}.items():
        out[f"{name}_hat"], out[f"{name}_se"] = value, se
    for i in range(4):
        out[f"mean{i}_hat"], out[f"mean{i}_se"] = with_se(joint[:, i], np.mean)
    if m:
        decided = batch["decided"]
        centroids = np.array([batch["bob_raw"][decided == k].mean(axis=0)
                              for k in (1, 2, 3, 4)])
        out["centroid_hat"] = centroids
        out["pooled"] = pooled_class_variance(
            batch["bob_raw"] - centroids[decided - 1], decided)
        out["disclosed_errors"] = int(bits[:m].sum())
    return out


class TestStreamedPass:
    @pytest.mark.parametrize("schedule, n, chunk", [
        ("uniform-random", 200_003, montecarlo._CHUNK),  # chunks cross sub-batches
        ("uniform-random", 10_007, 7),
        (3, 4_099, 1_000),
        (1, 5, 2),
    ])
    def test_matches_whole_batch_reference(self, monkeypatch, schedule, n, chunk):
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        proto = ProtocolParams(5.0, 8.0, 0.95)
        fraction = 0.1 if n >= 1000 else None
        m = int(fraction * n) if fraction else 0
        ref = whole_batch_reference(whole(proto, REF_CHAN, schedule, n, 31), m)
        got, est = estimate(shot_chunks(proto, REF_CHAN, schedule, n, 31), n, fraction)
        # error counts are exact, so the bit-error cells are too
        assert (got.e_c_hat, got.e_c_se) == (ref["e_c_hat"], ref["e_c_se"])
        for name in ("a", "b", "c"):
            assert getattr(got, f"{name}_hat") == pytest.approx(ref[f"{name}_hat"],
                                                                rel=1e-12)
            assert getattr(got, f"{name}_se") == pytest.approx(ref[f"{name}_se"],
                                                               rel=1e-12)
        for i in range(4):
            assert got.mean_hat[i] == pytest.approx(ref[f"mean{i}_hat"], rel=1e-12)
            assert got.mean_se[i] == pytest.approx(ref[f"mean{i}_se"], rel=1e-12)
        if m:
            np.testing.assert_allclose(est.centroid_hat, ref["centroid_hat"], rtol=1e-12)
            assert est.e_c_point == ref["disclosed_errors"] / (2 * m)
            b_d_hat = ref["pooled"] - 1.0
            assert est.delta_v_hat == pytest.approx(
                (b_d_hat + 1.0) / (est.b_hat + 1.0), rel=1e-12)
            assert est.b_hat + 1.0 == pytest.approx(
                ref["pooled"] / (1.0 + vacuum_moments(est.snr_point)[2]),
                rel=1e-12)

    def test_bit_error_counts_match_the_two_dimensional_sum(self, monkeypatch):
        """Chunks of 1,000 cross the 16 sub-batches of 625 or 626 shots, and the
        m = 1,501 disclosed shots end inside a chunk; every count is exact."""
        monkeypatch.setattr(montecarlo, "_CHUNK", 1_000)
        n, fraction = 10_007, 0.15
        proto = ProtocolParams(5.0, 3.0)  # e_C ~ 0.3: errors in every sub-batch
        chunks = list(shot_chunks(proto, REF_CHAN, "uniform-random", n, 34))
        for c in chunks:
            np.testing.assert_array_equal(
                montecarlo._bit_errors(c.true_symbols, c.decided_symbols),
                montecarlo._BIT_ERRORS[c.true_symbols, c.decided_symbols])
        per_shot = montecarlo._BIT_ERRORS[np.concatenate([c.true_symbols for c in chunks]),
                                          np.concatenate([c.decided_symbols for c in chunks])]
        subs = np.array_split(per_shot, 16)
        rates = [int(sub.sum()) / (2 * len(sub)) for sub in subs]
        m = int(fraction * n)
        got, est = estimate(iter(chunks), n, fraction)
        assert got.e_c_hat == int(per_shot.sum()) / (2 * n)
        assert got.e_c_se == float(np.std(rates, ddof=1) / 4.0)
        assert est.e_c_point == int(per_shot[:m].sum()) / (2 * m)

    def test_chunk_count_must_match(self):
        chunks = shot_chunks(REF_PROTO, REF_CHAN, 1, 100, 33)
        with pytest.raises(DomainError):
            estimate(chunks, 101)


def draw_args(monkeypatch, proto, chan, schedule, n, seed) -> tuple:
    """The arguments ``shot_chunks`` passes to ``_draw``: the Cholesky factor, the
    centroids, the schedule, n and the seed."""
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_draw", lambda *args: args)
        return shot_chunks(proto, chan, schedule, n, seed)


def redrawn_chunks(lower, centroids, schedule, n, seed):
    """The stream as a plain reference makes it: a second generator draws and discards
    the n symbols chunk by chunk, so that its normals follow them, and the centroids
    are gathered as (k, 2) rows, added and subtracted."""
    table = np.vstack([np.full(2, np.nan), centroids])
    symbol_rng = normal_rng = np.random.Generator(np.random.Philox(seed))
    uniform = schedule == "uniform-random"
    if uniform:
        normal_rng = np.random.Generator(np.random.Philox(seed))
        for start in range(0, n, montecarlo._CHUNK):
            normal_rng.integers(1, 5, size=min(montecarlo._CHUNK, n - start),
                                dtype=np.int64)
    for start in range(0, n, montecarlo._CHUNK):
        k = min(montecarlo._CHUNK, n - start)
        symbols = (symbol_rng.integers(1, 5, size=k, dtype=np.int64) if uniform
                   else np.full(k, schedule, dtype=np.int64))
        joint = normal_rng.standard_normal((k, 4)) @ lower.T
        bob = joint[:, 2:] + table[symbols]
        decided = montecarlo._classify(bob)
        joint[:, 2:] = bob - table[decided]
        yield start, joint, bob, symbols, decided


def assert_same_chunks(got, ref) -> None:
    """Chunk for chunk, every array equal bit for bit (NaN payloads and signed zeros)."""
    got, ref = list(got), list(ref)
    assert len(got) == len(ref)
    for chunk, (start, joint, bob, symbols, decided) in zip(got, ref):
        assert chunk.start == start
        assert chunk.bob_raw.shape == bob.shape
        for a, b in ((chunk.joint, joint), (chunk.bob_raw, bob)):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        assert np.array_equal(chunk.true_symbols, symbols)
        assert np.array_equal(chunk.decided_symbols, decided)


class TestShotStream:
    # (n + 1) // 2 % 4 is 1, 1, 2, 3, 0, 0, 0, 1, 1 and 2: the normals start at
    # every offset within a Philox block of four words
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 16_383, 16_384, 16_385,
                                   2 * 16_384 + 1, 100_003])
    @pytest.mark.parametrize("chunk", [7, 1_000, montecarlo._CHUNK])
    @pytest.mark.parametrize("schedule", ["uniform-random", 2])
    def test_advancing_matches_drawing_the_symbols(self, monkeypatch, schedule, n, chunk):
        """The normals start where the n symbols end, whatever the chunk size:
        bit-identical shots to a stream that draws the symbols and discards them."""
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        proto = ProtocolParams(5.0, 8.0, 0.95)
        args = draw_args(monkeypatch, proto, REF_CHAN, schedule, n, 35)
        assert_same_chunks(shot_chunks(proto, REF_CHAN, schedule, n, 35),
                           redrawn_chunks(*args))

    def test_chunk_size_keeps_the_shots(self, monkeypatch):
        """One stream, cut at 7, 1,000 or the default chunk size, holds the same shots."""
        def joined(chunk):
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
            return whole(REF_PROTO, REF_CHAN, "uniform-random", 20_001, 36)
        ref = joined(montecarlo._CHUNK)
        for chunk in (7, 1_000):
            got = joined(chunk)
            for name in ref:
                assert np.array_equal(got[name].view(np.int64), ref[name].view(np.int64))

    @pytest.mark.parametrize("schedule", ["uniform-random", 1])
    def test_complex_redisplacement_matches_the_gathers(self, schedule):
        """Adding and subtracting centroids as complex numbers is two real additions:
        NaNs, infinities, zeros and subnormals come out as the gathers make them."""
        lower = np.diag([1.0, 1.0, 1e-310, 1e300])  # bob_x subnormal, bob_y huge
        centroids = np.array([[-0.0, 0.0], [-1e-310, np.inf], [np.nan, -0.0],
                              [1e300, -1e300]])
        args = (lower, centroids, schedule, 5_003, 37)
        with np.errstate(invalid="ignore"):
            chunks = list(montecarlo._draw(*args))
            assert_same_chunks(chunks, redrawn_chunks(*args))
        post = np.concatenate([c.joint[:, 2:] for c in chunks])
        assert np.isnan(post).any() and np.isinf(post).any()
        assert (np.isfinite(post) & (np.abs(post) < np.finfo(float).tiny)).any()
