"""Random sifted-set model of primes in a short window.

One uniform residue class is deleted modulo every prime up to a cutoff;
the survivors in (0, window_len] model the shifted primes. This module
selects the cutoff from the Mertens product, computes exact membership
probabilities (one point's is the Mertens product), draws reproducible
Monte Carlo samples, and estimates the moment and parity statistics of
the survivor count, with truncated binomial (Bonferroni) expansions of
the parity as exact companions, summed in full by exact_parity_bias.
Every reader takes the primes up to its cutoff through
``PrimeTable.upto``, so a table that stops short of the cutoff raises
BoundsError instead of sifting fewer primes; sieve_cutoff alone walks
the table, until its product crosses the threshold.

Randomness is a SplitMix64 counter stream per prime: the word consumed by
(seed, prime rank, sample index, attempt) is a pure function of those
four integers, so results are independent of how the samples are cut
into spans. Sifting runs serially, span by span: a span forms its draw
positions once, and each prime adds its stream key, mixes, reduces mod p,
gathers its keep masks and ANDs them in, one numpy call per step, too
short to gain from threads. Residues are drawn by rejection from 64-bit
words to avoid modulo bias. A residue never depends on the window,
so one sift at the widest window serves every window that shares a seed
and a cutoff (parity_biases); survivors are counted from the packed
masks with np.bitwise_count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BoundsError
from .primes import PrimeTable
from .singular import OffsetTuple, _log_head

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)

# 64-bit words reserved per (sample, prime) residue draw. A word is rejected
# with probability ((2^64) mod p) / 2^64 < min(p / 2^64, 1/2), so all of them
# are with probability below 2^-8; such a draw goes on to the next block.
_DRAW_BLOCK = 8

# Samples sifted together: _sift cuts its samples into spans of this size,
# which bounds the survivor masks and the draw positions a span forms once.
# parity_biases at x = 1e6, lambda 1 and 5, 10^5 samples (2-core Xeon) took
# 389, 294, 229, 210 and 220 ms at spans of 2^11 ... 2^15.
_SPAN = 1 << 14

_LD = np.longdouble

# The 64 one-bit words, for decoding packed survivor masks.
_BIT = _U64(1) << np.arange(64, dtype=_U64)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, applied in place."""
    z ^= z >> _U64(30)
    z *= _MIX1
    z ^= z >> _U64(27)
    z *= _MIX2
    z ^= z >> _U64(31)
    return z


@lru_cache(maxsize=4096)
def _stream_key(seed: int, stream: int, block: int = 0) -> np.uint64:
    """Key of a stream; block b > 0 keys its b-th substream, mixed from the stream's key."""
    mask = 0xFFFFFFFFFFFFFFFF
    start = (seed + (stream + 1) * 0x9E3779B97F4A7C15) & mask
    key = _mix64(np.array([start], dtype=_U64))
    if block:
        key ^= _U64(block)
        _mix64(key)
    return key[0]


def uniform_ints(seed: int, stream: int, count: int, bound: int) -> np.ndarray:
    """count uniform draws from [0, bound), bias-free via rejection."""
    return residues_for_prime(seed, stream, bound, np.arange(count))


def residues_for_prime(seed: int, prime_rank: int, p: int, sample_indices: np.ndarray) -> np.ndarray:
    """Uniform residues mod p for the given samples, one substream per prime.

    ``prime_rank`` is the 0-based rank of p among all primes, which keeps
    the substream identity stable however the cutoff is chosen. Any bound
    p in [1, 2^63) is accepted, and any sample index in [0, 2^61). Attempt
    a of sample i reads the mixed word of (i * _DRAW_BLOCK + a % _DRAW_BLOCK
    + 1) * _GOLDEN plus the key of block a // _DRAW_BLOCK, where block 0 is
    the stream itself and block b > 0 a substream no other draw reads. Only
    the samples whose word was rejected read the next.
    """
    if p < 1 or p >= 1 << 63:
        raise ValueError(f"bound must be in [1, 2^63), got {p}")
    return _residues(seed, prime_rank, p, _draw_bases(sample_indices))


def _draw_bases(sample_indices) -> np.ndarray:
    """The draw bases (i * _DRAW_BLOCK + 1) * _GOLDEN of the indices i, uint64.

    Attempt a of index i reads the mixed word of its base plus (a %
    _DRAW_BLOCK) * _GOLDEN plus the key of block a // _DRAW_BLOCK. An index
    outside [0, 2^61) raises ValueError: its positions would wrap onto those
    of another index.
    """
    idx = np.asarray(sample_indices, dtype=np.int64)
    bases = idx.astype(_U64)
    if bases.size and bases.max() >= _U64(1 << 61):  # a negative index wraps to 2^63 or more
        raise ValueError(f"sample indices must be in [0, 2^61), got {idx.min()} ... {idx.max()}")
    bases *= _U64(_DRAW_BLOCK)
    bases += _U64(1)
    bases *= _GOLDEN
    return bases


def _residues(seed: int, prime_rank: int, p: int, bases: np.ndarray) -> np.ndarray:
    """residues_for_prime at the indices whose draw bases (see _draw_bases) are given."""
    rem = (1 << 64) % p
    limit = _U64((1 << 64) - rem) if rem else None  # words from limit on are rejected
    words = _mix64(bases + _stream_key(seed, prime_rank))
    # a rejected word is rare: one max() usually spares the nonzero() scan
    rejected = rem and words.size and words.max() >= limit
    pending = (words >= limit).nonzero()[0] if rejected else np.empty(0, dtype=np.intp)
    # words % p, as numpy divides by a scalar several times faster than it takes a
    # remainder; the product goes in place, so one temporary is live beside bases
    quotient = words // _U64(p)
    quotient *= _U64(p)
    words -= quotient
    out = words.view(np.int64)
    attempt = 1
    while pending.size:
        block, slot = divmod(attempt, _DRAW_BLOCK)
        # slot * _GOLDEN as a Python int: a uint64 scalar product would warn as it wraps
        words = bases[pending] + _U64(slot * int(_GOLDEN) % 2**64)
        words += _stream_key(seed, prime_rank, block)
        _mix64(words)
        ok = words < limit
        out[pending[ok]] = (words[ok] % _U64(p)).view(np.int64)
        pending = pending[~ok]
        attempt += 1
    return out


def mertens_product(w: int, table: PrimeTable) -> float:
    """prod_{p <= w} (1 - 1/p), the survival probability of one point."""
    return membership_probability(OffsetTuple([0]), w, table)


def sieve_cutoff(x: float, table: PrimeTable) -> int:
    """Smallest prime z at which prod_{p<=z}(1 - 1/p) first drops to <= 1/log x.

    The product is decreasing, so this z is the unique prime where the
    threshold is crossed; the previous prime's product still exceeds it.
    It is taken in longdouble over the runs of ``walk``, carried from one
    run to the next.
    """
    x = float(x)
    if x < 10:
        raise ValueError(f"x must be >= 10, got {x}")
    target = 1.0 / math.log(x)
    carry = _LD(1.0)
    for s, e, p in table.walk(0, table.count):
        p = p[: e - s]  # without the next run's first prime
        cum = carry * np.cumprod((1.0 - 1.0 / p.astype(np.float64)).astype(_LD))
        hits = np.flatnonzero(cum <= _LD(target))
        if hits.size:
            return int(p[hits[0]])
        carry = cum[-1]
    raise BoundsError(
        f"table limit {table.limit} too small to reach the Mertens threshold for x={x}"
    )


@dataclass(frozen=True)
class ModelConfig:
    """Window and cutoff parameters of one model instance.

    Built from a scale via :meth:`from_scale`; direct construction is for
    edge cases (window_len 0, hand-picked cutoffs) and skips the Mertens
    consistency check.
    """

    x: float
    lam: float
    window_len: int
    cutoff_z: int
    seed: int = 0

    @classmethod
    def from_scale(cls, x: float, lam: float, table: PrimeTable, seed: int = 0) -> "ModelConfig":
        x = float(x)
        if lam <= 0:
            raise ValueError(f"lambda must be positive, got {lam}")
        window_len = int(round(lam * math.log(x)))
        if window_len < 1:
            raise ValueError(
                f"lambda log x rounds to {window_len}; construct ModelConfig directly for empty windows"
            )
        z = sieve_cutoff(x, table)
        return cls(x=x, lam=float(lam), window_len=window_len, cutoff_z=z, seed=int(seed))


@dataclass
class SiftedSample:
    """One realization: the residue drawn for each sifting prime and the surviving offsets."""

    residues: dict[int, int]
    survivors: np.ndarray

    @property
    def size(self) -> int:
        return int(self.survivors.size)


def _keep_masks(window_len: int, primes: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Packed mask of the whole window and, per prime, the mask each residue keeps.

    Offset h in [1, window_len] is bit (h - 1) % 64 of word (h - 1) // 64.
    Row a of the table of p keeps every offset with h % p != a. A prime
    above the window meets it in at most the offset h = a, so all of them
    share the table of p = window_len + 2, read with mode="clip": larger
    residues land on its last row, which keeps the whole window.
    """
    h = np.arange(1, window_len + 1)
    word = (h - 1) // 64
    bit = _BIT[(h - 1) % 64]
    whole = np.zeros(-(-window_len // 64), dtype=_U64)
    np.bitwise_or.at(whole, word, bit)

    def table(p: int) -> np.ndarray:
        keep = np.tile(whole, (p, 1))
        np.bitwise_and.at(keep, (h % p, word), ~bit)
        return keep

    shared = table(window_len + 2)
    return whole, [table(p) if p <= window_len else shared for p in map(int, primes)]


def _offsets(alive: np.ndarray) -> list[np.ndarray]:
    """Surviving offsets of each row of packed masks, in increasing order."""
    rows, cols = np.nonzero((alive[:, :, None] & _BIT).reshape(len(alive), -1))
    return np.split(cols + 1, np.cumsum(np.bincount(rows, minlength=len(alive)))[:-1])


def _sift(config: ModelConfig, primes: np.ndarray, samples: int, sample_start: int = 0):
    """Sift the windows of samples sample_start + [0, samples) by each prime in rank order.

    Samples go in fixed spans of _SPAN, which share the keep masks. For the
    span at position lo, yields (lo, 0, None, alive) before any prime and
    (lo, k, a, alive) after the k-th prime, whose residues are a. alive
    holds the span's packed survivor masks and is updated in place.
    """
    whole, keep = _keep_masks(config.window_len, primes)
    for lo in range(0, samples, _SPAN):
        bases = _draw_bases(np.arange(sample_start + lo, sample_start + min(lo + _SPAN, samples)))
        alive = np.tile(whole, (bases.size, 1))
        yield lo, 0, None, alive
        for k, (p, table) in enumerate(zip(primes, keep), 1):
            a = _residues(config.seed, k - 1, int(p), bases)
            np.bitwise_and(alive, table.take(a, axis=0, mode="clip"), out=alive)
            yield lo, k, a, alive


def _sifting_primes(config: ModelConfig, w: int | None, table: PrimeTable) -> tuple[int, np.ndarray]:
    if w is None:
        w = config.cutoff_z
    if w > config.cutoff_z:
        raise ValueError(f"w={w} exceeds the configured cutoff {config.cutoff_z}")
    return int(w), table.upto(w)


def sifted_sets(
    config: ModelConfig, samples: int, w: int | None = None, *, table: PrimeTable,
) -> list[np.ndarray]:
    """Surviving offsets of samples 0 .. samples - 1 after every p <= w is sifted."""
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    _, primes = _sifting_primes(config, w, table)
    out: list[np.ndarray] = []
    for _, k, _, alive in _sift(config, primes, samples):
        if k == primes.size:
            out += _offsets(alive)
    return out


def draw_sample(
    config: ModelConfig, w: int | None = None, *, table: PrimeTable, sample_index: int = 0,
) -> SiftedSample:
    """Materialize one sample: residues for every p <= w and the sifted set."""
    _, primes = _sifting_primes(config, w, table)
    residues: dict[int, int] = {}
    for _, k, a, alive in _sift(config, primes, 1, sample_index):
        if k:
            residues[int(primes[k - 1])] = int(a[0])
    return SiftedSample(residues=residues, survivors=_offsets(alive)[0])


def membership_probability(tup, w: int, table: PrimeTable) -> float:
    """Exact survival probability prod_{p <= w} (1 - nu(p)/p), in log space."""
    primes = table.upto(w)
    if tup.k and w < tup.span:
        raise ValueError(f"w={w} below tuple span {tup.span}")
    if tup.k == 0:
        return 1.0
    total, cut = _log_head(tup, primes, 0)
    if total is None:
        return 0.0
    big = primes[cut:].astype(np.float64)
    if big.size:
        total += np.sum(np.log1p(-tup.k / big).astype(_LD))
    return float(np.exp(total))


def _span_counts(configs: list[ModelConfig], samples: int, table: PrimeTable, w: int | None = None):
    """Survivor counts of several windows that share a seed and a cutoff, from one sift.

    Offset h survives p iff h % p != a_p, whatever the window length, and
    a_p does not depend on the window. So one sift at the widest window
    serves them all: a narrower window's survivors are the low bits of the
    widest mask. Returns an iterator over spans of (lo, counts), where
    counts[c, j] is the survivor count of configs[c] at sample lo + j after
    every p <= w (default: the cutoff) is sifted.
    """
    if not configs:
        raise ValueError("need at least one config")
    seed, cutoff = configs[0].seed, configs[0].cutoff_z
    if any(c.seed != seed or c.cutoff_z != cutoff for c in configs):
        raise ValueError("configs must share one seed and one cutoff")
    widest = max(configs, key=lambda c: c.window_len)
    _, primes = _sifting_primes(widest, w, table)
    words = -(-widest.window_len // 64)
    wholes = [_keep_masks(c.window_len, primes[:0])[0] for c in configs]
    # each window's mask, padded to the widest: shape (configs, 1, words)
    wholes = np.stack([np.pad(m, (0, words - m.size)) for m in wholes])[:, None]

    def spans():
        for lo, k, _, alive in _sift(widest, primes, samples):
            if k == primes.size:
                yield lo, np.bitwise_count(alive & wholes).sum(axis=2, dtype=np.int64)

    return spans()


def survivor_counts(
    config: ModelConfig, samples: int, table: PrimeTable, w: int | None = None, workers: int = 1,
) -> np.ndarray:
    """Survivor count of each sample 0 .. samples - 1 after every p <= w is sifted.

    w defaults to the cutoff. Samples are sifted serially in spans of _SPAN; a sample's count depends
    only on (seed, sample index), never on the spans, so the counts of
    samples [a, b) are survivor_counts(config, b, table, w)[a:].
    ``workers`` is accepted and ignored.
    """
    out = np.empty(samples, dtype=np.int64)
    for lo, counts in _span_counts([config], samples, table, w):
        out[lo : lo + counts.shape[1]] = counts[0]
    return out


@dataclass(frozen=True)
class MomentReport:
    """Sample moments of the survivor count at a level w of the lemma range, against their predictions."""

    w: int
    sample_count: int
    mean: float
    variance: float
    predicted_mean: float
    predicted_variance_bound: float

    @property
    def mean_stderr(self) -> float:
        return math.sqrt(self.variance / self.sample_count)


def moments(config: ModelConfig, w: int, samples: int, table: PrimeTable) -> MomentReport:
    """Monte Carlo mean/variance of the survivor count at level w.

    The variance bound is c_var * window_len / log w, with c_var from the
    checked-in calibration fixture, so w must be at least 2. Levels
    outside the lemma range [window_len, cutoff] raise BoundsError.
    """
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    if w < 2:  # before log w
        raise ValueError(f"w must be >= 2, got {w}")
    if not config.window_len <= w <= config.cutoff_z:
        raise BoundsError(f"w={w} outside lemma range [{config.window_len}, {config.cutoff_z}]")
    from .calibration import load_fixture

    c_var = float(load_fixture()["model"]["c_var"])
    sizes = survivor_counts(config, samples, table, w)
    return MomentReport(
        w=int(w),
        sample_count=samples,
        mean=float(sizes.mean()),
        variance=float(sizes.var(ddof=1)),
        predicted_mean=config.window_len * mertens_product(w, table),
        predicted_variance_bound=c_var * config.window_len / math.log(w),
    )


def parity_biases(configs: list[ModelConfig], samples: int, table: PrimeTable) -> list[float]:
    """Monte Carlo estimates of the mean of (-1)^(survivor count) at the cutoff, per config.

    The configs must share a seed and a cutoff; one sift at the widest
    window serves every window (see _span_counts).
    """
    if samples < 10_000:
        raise ValueError(f"need at least 10000 samples, got {samples}")
    odd = np.zeros(len(configs), dtype=np.int64)
    for _, counts in _span_counts(configs, samples, table):
        odd += np.count_nonzero(counts & 1, axis=1)
    # the int quotient is correctly rounded, as is binomial_moment_sum's, so
    # the r >= max(S) collapse identity holds bit for bit
    return [(samples - 2 * int(o)) / samples for o in odd]


def parity_bias(
    config: ModelConfig,
    samples: int,
    table: PrimeTable,
) -> float:
    """Monte Carlo estimate of the mean of (-1)^(survivor count) at the cutoff."""
    return parity_biases([config], samples, table)[0]


def parity_bias_stderr(estimate: float, samples: int) -> float:
    return math.sqrt(max(1.0 - estimate * estimate, 0.0) / samples)


@dataclass(frozen=True)
class BonferroniBound:
    """Truncated binomial expansion sum_{k<=r} (-2)^k C(N, k) of (-1)^N.

    The value is an integer; ``side`` records whether it bounds (-1)^N
    from above (r even) or below (r odd), and the bound is exact once
    r >= N.
    """

    value: int
    side: str
    exact: bool


def bonferroni_bound(N: int, r: int) -> BonferroniBound:
    N, r = int(N), int(r)
    if N < 0 or r < 0:
        raise ValueError("N and r must be non-negative")
    value = sum((-2) ** k * math.comb(N, k) for k in range(min(r, N) + 1))
    return BonferroniBound(value=value, side="upper" if r % 2 == 0 else "lower", exact=r >= N)


def binomial_moment_sum(
    config: ModelConfig,
    r: int,
    samples: int,
    table: PrimeTable,
) -> float:
    """Monte Carlo estimate of sum_{k<=r} (-2)^k E C(S, k).

    Evaluated per sample through the exact truncated expansion (integer
    arithmetic), then averaged, so no cancellation occurs across samples;
    means too large for float64 come back as +/-inf.
    """
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    counts = np.bincount(survivor_counts(config, samples, table))
    total = sum(
        int(c) * bonferroni_bound(s, r).value for s, c in enumerate(counts) if c
    )
    try:
        return total / samples
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def exact_parity_bias(config: ModelConfig, table: PrimeTable) -> float:
    """Mean of (-1)^(survivor count) over all residue tuples, exactly.

    Gallagher's expansion E(-1)^S = sum_k (-2)^k E C(S, k). The primes
    p <= L = window_len sift the reachable survivor masks of [1, L] with
    the keep tables of the Monte Carlo kernel, carrying a float64 count of
    residue tuples per mask: exact while their total, the product of those
    primes, is below 2^53 (L <= 42) and a mask is one word (L <= 64), and
    refused with ValueError beyond. A larger prime p meets the window at
    most once, so it multiplies the k-th binomial moment by (1 - k/p). The
    result is one exact integer ratio, correctly rounded.
    """
    L = config.window_len
    primes = [int(p) for p in table.upto(config.cutoff_z)]
    small, big = [p for p in primes if p <= L], [p for p in primes if p > L]
    total = math.prod(small)
    if L > 64 or total >= 2**53:
        raise ValueError(f"exact counts need a window of at most 64 offsets and fewer than "
                         f"2^53 residue tuples of the primes <= {L}, got {L} and {total}")
    masks, counts = np.full(1, 2**L - 1, dtype=_U64), np.ones(1)
    for p, keep in zip(small, _keep_masks(L, small)[1]):
        masks, inv = np.unique(np.concatenate([masks & row[0] for row in keep]), return_inverse=True)
        counts = np.bincount(inv, weights=np.tile(counts, p))
    n = np.bincount(np.bitwise_count(masks), weights=counts)  # tuples per survivor count
    binom = [sum(int(c) * math.comb(s, k) for s, c in enumerate(n)) for k in range(n.size)]
    num = sum((-2) ** k * c * math.prod(p - k for p in big) for k, c in enumerate(binom) if c)
    return num / (total * math.prod(big))
