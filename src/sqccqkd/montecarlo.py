"""Seeded Monte Carlo engine for the discrimination/re-displacement pipeline.

Samples joint heterodyne outcomes, classifies them by quadrant, re-displaces,
estimates empirical moments with standard errors, and runs the receiver-side
estimation chain (peak location, disclosed-bit error bound, rescaling) in
one pass over chunks of shots, so memory does not grow with their number.
Identical seed and parameters reproduce bit-identical shots at any chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .channel import ChannelParams, ProtocolParams, _shared_state, qpsk_symbol
from .errors import Checks, DomainError, NumericError
from .postprocess import _displacement_factor, _moments
from .special import beta_quantile

__all__ = [
    "RNG_ALGORITHM",
    "ShotChunk",
    "EmpiricalMoments",
    "EstimationResult",
    "shot_chunks",
    "estimate",
]

# counter-based generator; the identifier is recorded in exported artifacts
RNG_ALGORITHM = "numpy-philox4x64-v1"

_CHUNK = 16_384  # shots drawn, classified and accumulated at a time

_MAX_SHOTS = 2 ** 53  # the largest batch; every count up to it is exact as a float

# all ones, read-only: its slices sum up to _CHUNK rows in _Moments.add
_ONES = np.ones(_CHUNK)
_ONES.flags.writeable = False

_N_CHUNKS = 16  # sub-batches of the standard errors

_EPS_PE = 1e-10  # failure probability of the disclosed-bit error-rate bound

# the number of (x, y) bits in which the quadrants of two symbols differ,
# indexed by the true and the decided symbol
_BIT_ERRORS = np.array([[0, 0, 0, 0, 0], [0, 0, 1, 2, 1], [0, 1, 0, 1, 2],
                        [0, 2, 1, 0, 1], [0, 1, 2, 1, 0]])

# the decided symbol, indexed by 4 * x's sign class + y's; a coordinate's class is
# 2 * (u >= 0) + (u <= 0): 0 NaN, 1 negative, 2 positive, 3 zero (either sign)
_DECISIONS = np.array([4, 4, 4, 4,  # x NaN
                       4, 3, 2, 3,  # x < 0
                       4, 4, 1, 1,  # x > 0
                       4, 3, 1, 1], dtype=np.int64)  # x = 0


@dataclass(frozen=True, eq=False)
class ShotChunk:
    """Consecutive shots ``start, start + 1, ...`` of one seeded stream.

    ``joint`` holds (alice_x, alice_y, bob_post_x, bob_post_y): the receiver
    outcomes re-displaced by the analytic centroid of their decided quadrant.
    """

    start: int
    joint: np.ndarray
    bob_raw: np.ndarray
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


def _centroids(proto: ProtocolParams, chan: ChannelParams) -> np.ndarray:
    """Analytic per-symbol outcome centroids, shape (4, 2)."""
    sqrt_t = math.sqrt(chan.transmissivity)
    points = [qpsk_symbol(proto.displacement, k) for k in (1, 2, 3, 4)]
    return np.array([[sqrt_t * p.real, sqrt_t * p.imag] for p in points])


def _outcome_covariance(a, b, c) -> np.ndarray:
    """Covariance of the dual-quadrature (heterodyne) outcomes of the state (a, b, c).

    In double-quadrature coordinates the outcome mean is the state's
    quadrature mean, and the covariance is the state's plus one unit of
    shot noise per quadrature.
    """
    cov = np.array([[a, 0.0, c, 0.0], [0.0, a, 0.0, -c],
                    [c, 0.0, b, 0.0], [0.0, -c, 0.0, b]]) + np.eye(4)
    # each quadrature's 2x2 block is [[a + 1, +-c], [+-c, b + 1]]: positive-definite
    # iff a + 1 > 0 and its Schur complement is, here beyond 4 ulp of b + 1
    schur = (b + 1.0) - c * c / (a + 1.0)
    if not (a + 1.0 > 0.0 and schur > 4.0 * np.finfo(float).eps * (b + 1.0)):
        raise DomainError("outcome covariance must be positive-definite")
    return cov


def _classify(points: np.ndarray) -> np.ndarray:
    """Quadrant decision with boundary ties resolved in case order 1, 2, 3, 4.

    Symbol 1 takes x >= 0 and y >= 0, then 2 takes x < 0 and y > 0, then 3
    x <= 0 and y <= 0; every other point, a NaN coordinate included, is 4.
    """
    sign = (points >= 0.0).view(np.uint8) * np.uint8(2)
    sign += (points <= 0.0).view(np.uint8)
    return _DECISIONS.take(sign[:, 0] * np.uint8(4) + sign[:, 1])


@np.errstate(all="ignore")
def shot_chunks(proto: ProtocolParams, chan: ChannelParams,
                symbol_schedule: str | int, n: int, seed: int) -> Iterator[ShotChunk]:
    """The n joint outcomes of one seeded batch, in chunks of at most ``_CHUNK``.

    ``symbol_schedule`` is either ``"uniform-random"`` or a fixed symbol
    index 1..4.  Outcomes are the 4-dimensional Gaussian with the shared
    state's mean and its ``_outcome_covariance``, generated through the
    lower-triangular factor of the covariance, from the stream of one
    generator drawing all n symbols and then an (n, 4) normal array.  The
    uniform symbols take (n + 1) // 2 of its 64-bit words, so the normals come
    from a second generator advanced that far, drawn alongside the symbols.
    Arguments are checked here, before the first chunk is drawn.
    """
    if not 1 <= n <= _MAX_SHOTS:
        raise DomainError(f"n must be >= 1 and <= {_MAX_SHOTS}, got {n}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise DomainError(f"seed must be >= 0, got {seed}")
    v = proto.modulation_variance
    checks = Checks()
    _, b, c = _shared_state(checks, v, proto.displacement, chan.transmissivity,
                            chan.excess_noise, chan.phase_noise_factor)
    checks.raise_first()
    try:
        lower = np.linalg.cholesky(_outcome_covariance(v, b, c))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"outcome covariance not positive-definite: {exc}") from exc
    if symbol_schedule != "uniform-random" and not (
            isinstance(symbol_schedule, int) and symbol_schedule in (1, 2, 3, 4)):
        raise DomainError(f"symbol_schedule must be 'uniform-random' or 1..4, "
                          f"got {symbol_schedule!r}")
    return _draw(lower, _centroids(proto, chan), symbol_schedule, n, seed)


def _draw(lower: np.ndarray, centroids: np.ndarray, symbol_schedule: str | int,
          n: int, seed: int) -> Iterator[ShotChunk]:
    # row k: symbol k's centroid as one complex number x + iy (row 0 is never taken)
    table = np.vstack([np.full(2, np.nan), centroids]).view(np.complex128).ravel()
    seeds = np.random.SeedSequence(seed)
    symbol_rng = np.random.Generator(np.random.Philox(seeds))
    uniform = symbol_schedule == "uniform-random"
    # an int64 symbol in [1, 5) takes one 32-bit word, so the normals start (n + 1) // 2
    # 64-bit words in (none for a fixed symbol); each Philox counter step yields four
    words = (n + 1) // 2 if uniform else 0
    bits = np.random.Philox(seeds)
    bits.advance(words // 4)
    bits.random_raw(words % 4)
    normal_rng = np.random.Generator(bits)
    for start in range(0, n, _CHUNK):
        k = min(_CHUNK, n - start)
        symbols = (symbol_rng.integers(1, 5, size=k, dtype=np.int64) if uniform
                   else np.full(k, symbol_schedule, dtype=np.int64))
        joint = normal_rng.standard_normal((k, 4)) @ lower.T
        # (bob_x, bob_y) as complex: adding a centroid adds both coordinates
        post = joint.view(np.complex128)[:, 1]
        bob = post + table.take(symbols)
        bob_raw = bob.view(np.float64).reshape(k, 2)
        decided = _classify(bob_raw)
        np.subtract(bob, table.take(decided), out=post)
        yield ShotChunk(start, joint, bob_raw, symbols, decided)


def _bit_errors(true_symbols: np.ndarray, decided_symbols: np.ndarray) -> np.ndarray:
    """The (x, y) bit errors of each shot: the axis signs that differ."""
    return _BIT_ERRORS.take(5 * true_symbols + decided_symbols)


class _Moments:
    """Count, mean and centred co-moment matrix of a growing set of rows."""

    def __init__(self, dim: int):
        self.n = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros((dim, dim))

    def add(self, rows: np.ndarray) -> None:
        k = len(rows)
        if k:
            # numpy's column sums of narrow rows are slow, and so is subtracting
            # the mean from each row: subtract it in place from a column-major copy
            mean = (_ONES[:k] if k <= len(_ONES) else np.ones(k)) @ rows / k
            centred = np.array(rows, order="F")
            centred -= mean
            self.merge(k, mean, centred.T @ centred)

    def merge(self, k: int, mean: np.ndarray, m2: np.ndarray) -> None:
        """Chan, Golub and LeVeque's pairwise update with k rows of these moments."""
        n = self.n + k
        delta = mean - self.mean
        self.mean = self.mean + delta * (k / n)
        self.m2 = self.m2 + m2 + delta[:, None] * delta * (self.n * k / n)
        self.n = n


def _triple(m: _Moments) -> tuple[float, float, float]:
    """(a, b, c) in state units from the co-moments of (ax, ay, bx, by).

    Dual-quadrature detection adds one shot-noise unit per quadrature, so
    variances are reduced by one; the correlation folds the sigma_z sign:
    c = (Cov(x_A, x_B) - Cov(y_A, y_B)) / 2.
    """
    cov = m.m2 / (m.n - 1)
    return (float(cov[0, 0] + cov[1, 1]) / 2.0 - 1.0,
            float(cov[2, 2] + cov[3, 3]) / 2.0 - 1.0, float(cov[0, 2] - cov[1, 3]) / 2.0)


def _standard_error(per_chunk) -> float:
    """Standard error of a statistic from its values on the sub-batches (NaN below two)."""
    k = len(per_chunk)
    return float(np.std(per_chunk, ddof=1) / math.sqrt(k)) if k >= 2 else math.nan


def _snr_from_error_rate(e_c: float) -> float:
    """Invert the per-axis bit-error formula; clamps outside (0, 0.5)."""
    if e_c <= 0.0:
        return math.inf
    if e_c >= 0.5:
        return 0.0
    return _displacement_factor(e_c) ** 2


def _disclosed(fraction: float, n: int) -> int:
    """The shots of a batch of n whose bits a fraction discloses: at least 100."""
    m = int(fraction * n)
    if m < 100:
        raise DomainError(f"disclosed sample too small: {m} shots (need >= 100)")
    return m


@np.errstate(all="ignore")
def estimate(chunks: Iterable[ShotChunk], n: int, disclose_fraction: float | None = None
             ) -> tuple[EmpiricalMoments, EstimationResult | None]:
    """Empirical moments, and with a disclosed fraction the estimation chain, in one pass.

    ``chunks`` are the n shots of one batch in order.  The moments are those
    of the re-displaced outcomes, with standard errors from 16 sub-batches
    laid out as ``np.array_split`` lays them out (NaN below 4 shots).  The
    estimation chain locates the four centroids in the raw receiver outcomes,
    re-displaces against them, bounds the bit-error rate from the first
    ``int(disclose_fraction * n)`` shots (one-sided binomial tail at
    confidence 1 - ``_EPS_PE``), inverts it to a certified SNR floor, and
    infers the rescaling from the variance-shift factor of the point estimate.
    As b_hat = (b_d_hat + 1) / (1 + g) - 1 at the shift g of ``snr_point``, the
    pooled variance cancels: ``delta_v_hat`` is 1 + g up to one rounding.
    """
    if n < 2:
        raise DomainError("empirical moments need at least 2 shots")
    if n > _MAX_SHOTS:
        raise DomainError(f"n must be <= {_MAX_SHOTS}, got {n}")
    m = 0
    if disclose_fraction is not None:
        if not 0.0 < disclose_fraction < 1.0:
            raise DomainError(
                f"disclose_fraction must be in (0, 1), got {disclose_fraction}")
        m = _disclosed(disclose_fraction, n)

    n_sub = min(_N_CHUNKS, n // 2)
    size, longer = divmod(n, n_sub)
    ends = [(i + 1) * size + min(i + 1, longer) for i in range(n_sub)]
    subs = [_Moments(4) for _ in range(n_sub)]
    sub_errors = [0] * n_sub
    classes = [_Moments(2) for _ in range(4)]
    disclosed_errors = 0
    j = pos = 0
    for chunk in chunks:
        base, pos = pos, pos + len(chunk.joint)
        if pos > n:
            break
        errors = _bit_errors(chunk.true_symbols, chunk.decided_symbols)
        lo = base
        while lo < pos:  # the pieces of this chunk in each sub-batch
            hi = min(pos, ends[j])
            piece = slice(lo - base, hi - base)
            subs[j].add(chunk.joint[piece])
            sub_errors[j] += int(errors[piece].sum())
            if hi == ends[j]:
                j += 1
            lo = hi
        if m:
            for k, moments in enumerate(classes):
                moments.add(chunk.bob_raw.compress(chunk.decided_symbols == k + 1, axis=0))
            if base < m:
                disclosed_errors += int(errors[:m - base].sum())
    if pos != n:
        raise DomainError(f"the chunks hold other than the {n} shots of the batch")

    total = _Moments(4)
    for sub in subs:
        total.merge(sub.n, sub.mean, sub.m2)
    a_hat, b_hat, c_hat = _triple(total)
    a_se, b_se, c_se = map(_standard_error, np.array([_triple(sub) for sub in subs]).T)
    moments = EmpiricalMoments(
        a_hat=a_hat, b_hat=b_hat, c_hat=c_hat, mean_hat=total.mean,
        e_c_hat=sum(sub_errors) / (2 * n), a_se=a_se, b_se=b_se, c_se=c_se,
        mean_se=np.array([_standard_error(col) for col in
                          np.array([sub.mean for sub in subs]).T]),
        e_c_se=_standard_error([e / (2 * sub.n) for e, sub in zip(sub_errors, subs)]),
    )
    if not m:
        return moments, None

    comparisons = 2 * m
    e_c_point = disclosed_errors / comparisons
    if disclosed_errors == comparisons:
        e_c_bound = 1.0
    else:
        # exact one-sided binomial tail inversion; errors = 0 reduces to
        # the rule-of-three style bound 1 - _EPS_PE**(1/comparisons)
        e_c_bound = beta_quantile(1.0 - _EPS_PE, disclosed_errors + 1,
                                  comparisons - disclosed_errors)
    snr_point = _snr_from_error_rate(e_c_point)
    # the shift g of b_d + 1 = (b + 1)(1 + g) is the b_d of a vacuum receiver (b = 0)
    shift = (0.0 if math.isinf(snr_point)
             else float(_moments(Checks(), snr_point, snr_point, 0.0, 0.0)[2]))
    # pooled per-quadrature variance within decided-symbol classes: removes
    # the class-mean spread that a global variance would pick up
    pooled = (sum(float(np.trace(c.m2)) for c in classes if c.n >= 2)
              / sum(2 * (c.n - 1) for c in classes if c.n >= 2))
    b_d_hat = pooled - 1.0
    b_hat = (b_d_hat + 1.0) / (1.0 + shift) - 1.0
    return moments, EstimationResult(
        centroid_hat=np.array([c.mean for c in classes]),
        e_c_point=e_c_point,
        e_c_bound=e_c_bound,
        snr_point=snr_point,
        snr_hat=_snr_from_error_rate(min(e_c_bound, 0.5)),
        b_hat=b_hat,
        delta_v_hat=(b_d_hat + 1.0) / (b_hat + 1.0),
    )
