"""Seeded Monte Carlo engine for the discrimination/re-displacement pipeline.

Samples joint heterodyne outcomes, classifies them by quadrant, re-displaces,
estimates empirical moments with standard errors, and runs the receiver-side
estimation chain (peak location, disclosed-bit error bound, rescaling).
Identical seed and parameters reproduce bit-identical batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelParams, ProtocolParams, qpsk_symbol, shared_state
from .errors import DomainError, NumericError
from .gaussian import measurement_distribution
from .postprocess import variance_shift_factor
from .special import beta_quantile, erfc_inv

__all__ = [
    "RNG_ALGORITHM",
    "ShotBatch",
    "EmpiricalMoments",
    "EstimationResult",
    "sample_joint",
    "discriminate_and_redisplace",
    "empirical_moments",
    "estimation_pipeline",
]

# counter-based generator; the identifier is recorded in exported artifacts
RNG_ALGORITHM = "numpy-philox4x64-v1"

_N_CHUNKS = 16

_EPS_PE = 1e-10  # failure probability of the disclosed-bit error-rate bound

# (x, y) signs of each alphabet point, indexed by symbol - 1
_SIGNS = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


@dataclass(frozen=True, eq=False)
class ShotBatch:
    """One reproducible batch of joint dual-quadrature outcomes."""

    seed: int
    n_shots: int
    alice_outcomes: np.ndarray
    bob_outcomes: np.ndarray
    true_symbols: np.ndarray
    decided_symbols: np.ndarray


@dataclass(frozen=True)
class EmpiricalMoments:
    """Sample covariance triple, residual mean, and bit-error rate with errors."""

    a_hat: float
    b_hat: float
    c_hat: float
    mean_hat: np.ndarray
    e_c_hat: float
    a_se: float
    b_se: float
    c_se: float
    mean_se: np.ndarray
    e_c_se: float


@dataclass(frozen=True)
class EstimationResult:
    """Receiver-side estimates: centroids, certified SNR, rescaling factor."""

    centroid_hat: np.ndarray
    e_c_point: float
    e_c_bound: float
    snr_point: float
    snr_hat: float
    b_hat: float
    delta_v_hat: float
    disclosed_shots: int
    rescaled: ShotBatch


def _make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _centroids(proto: ProtocolParams, chan: ChannelParams) -> np.ndarray:
    """Analytic per-symbol outcome centroids, shape (4, 2)."""
    sqrt_t = math.sqrt(chan.transmissivity)
    points = [qpsk_symbol(proto.displacement, k) for k in (1, 2, 3, 4)]
    return np.array([[sqrt_t * p.real, sqrt_t * p.imag] for p in points])


def _classify(points: np.ndarray) -> np.ndarray:
    """Quadrant decision with boundary ties resolved in case order 1, 2, 3, 4."""
    x, y = points[:, 0], points[:, 1]
    return np.select(
        [
            (x >= 0.0) & (y >= 0.0),
            (x < 0.0) & (y > 0.0),
            (x <= 0.0) & (y <= 0.0),
        ],
        [1, 2, 3],
        default=4,
    ).astype(np.int64)


def sample_joint(proto: ProtocolParams, chan: ChannelParams,
                 symbol_schedule: str | int, n: int, seed: int) -> ShotBatch:
    """Draw n joint outcomes from the post-channel state.

    ``symbol_schedule`` is either ``"uniform-random"`` or a fixed symbol
    index 1..4.  Outcomes are the 4-dimensional Gaussian with the state
    mean and state covariance plus identity, generated through the
    lower-triangular factor of the covariance.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    state = shared_state(proto, chan, symbol_index=1)
    outcome_cov = measurement_distribution(state).covariance
    try:
        lower = np.linalg.cholesky(outcome_cov)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"outcome covariance not positive-definite: {exc}") from exc

    rng = _make_rng(seed)
    if symbol_schedule == "uniform-random":
        symbols = rng.integers(1, 5, size=n, dtype=np.int64)
    elif isinstance(symbol_schedule, int) and symbol_schedule in (1, 2, 3, 4):
        symbols = np.full(n, symbol_schedule, dtype=np.int64)
    else:
        raise DomainError(
            f"symbol_schedule must be 'uniform-random' or 1..4, got {symbol_schedule!r}"
        )
    outcomes = rng.standard_normal((n, 4)) @ lower.T
    bob = outcomes[:, 2:] + _centroids(proto, chan)[symbols - 1]
    return ShotBatch(
        seed=seed,
        n_shots=n,
        alice_outcomes=outcomes[:, :2],
        bob_outcomes=bob,
        true_symbols=symbols,
        decided_symbols=_classify(bob),
    )


def discriminate_and_redisplace(batch: ShotBatch, proto: ProtocolParams,
                                chan: ChannelParams) -> ShotBatch:
    """Subtract from each raw receiver outcome the centroid of its decided quadrant."""
    bob = batch.bob_outcomes - _centroids(proto, chan)[batch.decided_symbols - 1]
    return replace(batch, bob_outcomes=bob)


def _bit_errors(true_symbols: np.ndarray, decided_symbols: np.ndarray) -> np.ndarray:
    """Per-shot (x, y) bit errors, shape (n, 2): the axis signs that differ."""
    return _SIGNS[true_symbols - 1] != _SIGNS[decided_symbols - 1]


def _chunked(values: np.ndarray, stat) -> tuple[float, float]:
    """Statistic over the full array and its standard error from 16 sub-batches."""
    n = len(values)
    n_chunks = min(_N_CHUNKS, n // 2)
    if n_chunks < 2:
        return float(stat(values)), math.nan
    chunks = np.array_split(values, n_chunks)
    per_chunk = np.array([stat(chunk) for chunk in chunks])
    return float(stat(values)), float(np.std(per_chunk, ddof=1) / math.sqrt(n_chunks))


def empirical_moments(batch: ShotBatch) -> EmpiricalMoments:
    """Sample estimates of the covariance triple in state units.

    Dual-quadrature detection adds one shot-noise unit per quadrature, so
    variances are reduced by one; the correlation folds the sigma_z sign:
    c = (Cov(x_A, x_B) - Cov(y_A, y_B)) / 2.
    """
    if batch.n_shots < 2:
        raise DomainError("empirical moments need at least 2 shots")
    ax, ay = batch.alice_outcomes[:, 0], batch.alice_outcomes[:, 1]
    bx, by = batch.bob_outcomes[:, 0], batch.bob_outcomes[:, 1]

    def var_minus_one(cols):
        return lambda data: (np.var(data[:, cols[0]], ddof=1)
                             + np.var(data[:, cols[1]], ddof=1)) / 2.0 - 1.0

    def corr_fold(data):
        cx = np.cov(data[:, 0], data[:, 2], ddof=1)[0, 1]
        cy = np.cov(data[:, 1], data[:, 3], ddof=1)[0, 1]
        return (cx - cy) / 2.0

    joint = np.column_stack([ax, ay, bx, by])
    a_hat, a_se = _chunked(joint, var_minus_one((0, 1)))
    b_hat, b_se = _chunked(joint, var_minus_one((2, 3)))
    c_hat, c_se = _chunked(joint, corr_fold)

    mean_hat = joint.mean(axis=0)
    mean_se = np.empty(4)
    for i in range(4):
        _, mean_se[i] = _chunked(joint[:, i], np.mean)

    bits = _bit_errors(batch.true_symbols, batch.decided_symbols).astype(float)
    e_c_hat, e_c_se = _chunked(bits, np.mean)

    return EmpiricalMoments(
        a_hat=a_hat, b_hat=b_hat, c_hat=c_hat,
        mean_hat=mean_hat, e_c_hat=e_c_hat,
        a_se=a_se, b_se=b_se, c_se=c_se,
        mean_se=mean_se, e_c_se=e_c_se,
    )


def _snr_from_error_rate(e_c: float) -> float:
    """Invert the per-axis bit-error formula; clamps outside (0, 0.5)."""
    if e_c <= 0.0:
        return math.inf
    if e_c >= 0.5:
        return 0.0
    return (2.0 * erfc_inv(2.0 * e_c)) ** 2


def conditional_variance(batch: ShotBatch) -> float:
    """Pooled per-quadrature receiver variance within decided-symbol classes.

    Removes the class-mean spread that a global variance would pick up on a
    mixed-symbol batch; as the bit-error rate vanishes this estimates the
    single-sub-ensemble outcome variance.
    """
    total = 0.0
    dof = 0
    for k in (1, 2, 3, 4):
        sub = batch.bob_outcomes[batch.decided_symbols == k]
        if len(sub) >= 2:
            total += float(((sub - sub.mean(axis=0)) ** 2).sum())
            dof += 2 * (len(sub) - 1)
    if dof == 0:
        raise DomainError("no decided-symbol class holds two shots")
    return total / dof


def estimation_pipeline(batch: ShotBatch,
                        disclose_fraction: float = 0.1) -> EstimationResult:
    """Receiver-side estimation chain on a raw sampled batch.

    Steps: locate the four outcome centroids from the raw data, re-displace
    against the estimated centroids, bound the bit-error rate from a
    disclosed fraction of the classical bits (one-sided binomial tail at
    confidence 1 - ``_EPS_PE``), invert it to a certified SNR floor, and
    rescale with the variance-shift factor inferred from the point estimate.
    """
    if not 0.0 < disclose_fraction < 1.0:
        raise DomainError(
            f"disclose_fraction must be in (0, 1), got {disclose_fraction}"
        )
    n = batch.n_shots
    m = int(disclose_fraction * n)
    if m < 100:
        raise DomainError(
            f"disclosed sample too small: {m} shots (need >= 100)"
        )

    decided = batch.decided_symbols
    centroid_hat = np.zeros((4, 2))
    for k in range(4):
        mask = decided == k + 1
        if np.any(mask):
            centroid_hat[k] = batch.bob_outcomes[mask].mean(axis=0)

    bob_post = batch.bob_outcomes - centroid_hat[decided - 1]

    errors = int(_bit_errors(batch.true_symbols[:m], decided[:m]).sum())
    comparisons = 2 * m
    e_c_point = errors / comparisons
    if errors == comparisons:
        e_c_bound = 1.0
    else:
        # exact one-sided binomial tail inversion; errors = 0 reduces to
        # the rule-of-three style bound 1 - _EPS_PE**(1/comparisons)
        e_c_bound = beta_quantile(1.0 - _EPS_PE, errors + 1, comparisons - errors)

    snr_point = _snr_from_error_rate(e_c_point)
    snr_hat = _snr_from_error_rate(min(e_c_bound, 0.5))
    shift = variance_shift_factor(snr_point)

    post = replace(batch, bob_outcomes=bob_post)
    b_d_hat = conditional_variance(post) - 1.0
    b_hat = (b_d_hat + 1.0) / (1.0 + shift) - 1.0
    delta_v_hat = (b_d_hat + 1.0) / (b_hat + 1.0)

    rescaled = replace(
        post,
        bob_outcomes=bob_post / math.sqrt(delta_v_hat),
    )
    return EstimationResult(
        centroid_hat=centroid_hat,
        e_c_point=e_c_point,
        e_c_bound=e_c_bound,
        snr_point=snr_point,
        snr_hat=snr_hat,
        b_hat=b_hat,
        delta_v_hat=delta_v_hat,
        disclosed_shots=m,
        rescaled=rescaled,
    )
