"""Random sifted-set model of primes in a short window.

One uniform residue class is deleted modulo every prime up to a cutoff;
the survivors in (0, window_len] model the shifted primes. This module
selects the cutoff from the Mertens product, computes exact membership
probabilities (one point's is the Mertens product), draws reproducible
Monte Carlo samples, and estimates the moment and parity statistics of
the survivor count, with truncated binomial (Bonferroni) expansions of
the parity as exact companions. Every reader takes the primes up to its
cutoff through ``PrimeTable.upto``, so a table that stops short of the
cutoff raises BoundsError instead of sifting fewer primes; sieve_cutoff
alone walks the table, until its product crosses the threshold.

Randomness is a SplitMix64 counter stream per prime: the word consumed by
(seed, prime rank, sample index, attempt) is a pure function of those
four integers, so results are independent of how the samples are cut
into spans. Sifting runs serially: each step is one numpy call on a span,
too short to gain from threads. Residues are drawn by rejection from
64-bit words to avoid modulo bias. A residue never depends on the window,
so one sift at the widest window serves every window that shares a seed
and a cutoff (parity_biases); survivors are counted from the packed
masks with a byte popcount table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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
# which bounds the survivor masks.
_SPAN = 1 << 14

_LD = np.longdouble

# The 64 one-bit words, for decoding packed survivor masks.
_BIT = _U64(1) << np.arange(64, dtype=_U64)

# Set bits of every byte value, for counting survivors.
_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


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


def _stream_words(seed: int, stream: int, positions: np.ndarray, block: int = 0) -> np.ndarray:
    """Words at the given uint64 positions of one (sub)stream, computed in ``positions``."""
    positions += _U64(1)
    positions *= _GOLDEN
    positions += _stream_key(seed, stream, block)
    return _mix64(positions)


def uniform_ints(seed: int, stream: int, count: int, bound: int) -> np.ndarray:
    """count uniform draws from [0, bound), bias-free via rejection."""
    return residues_for_prime(seed, stream, bound, np.arange(count))


def residues_for_prime(seed: int, prime_rank: int, p: int, sample_indices: np.ndarray) -> np.ndarray:
    """Uniform residues mod p for the given samples, one substream per prime.

    ``prime_rank`` is the 0-based rank of p among all primes, which keeps
    the substream identity stable however the cutoff is chosen. Any bound
    p in [1, 2^63) is accepted. Attempt a of sample i reads word
    i * _DRAW_BLOCK + a % _DRAW_BLOCK of block a // _DRAW_BLOCK, where
    block 0 is the stream itself and block b > 0 a substream no other draw
    reads. Only the samples whose word was rejected read the next.
    """
    if p < 1 or p >= 1 << 63:
        raise ValueError(f"bound must be in [1, 2^63), got {p}")
    idx = np.asarray(sample_indices, dtype=np.int64)
    rem = (1 << 64) % p
    limit = _U64((1 << 64) - rem) if rem else None  # words from limit on are rejected
    words = _stream_words(seed, prime_rank, idx.astype(_U64) * _U64(_DRAW_BLOCK))
    # a rejected word is rare: one max() usually spares the nonzero() scan
    rejected = rem and words.size and words.max() >= limit
    pending = (words >= limit).nonzero()[0] if rejected else idx[:0]
    # words % p, as numpy divides by a scalar several times faster than it takes a remainder
    words -= words // _U64(p) * _U64(p)
    out = words.view(np.int64)
    attempt = 1
    while pending.size:
        block, slot = divmod(attempt, _DRAW_BLOCK)
        pos = idx[pending].astype(_U64) * _U64(_DRAW_BLOCK) + _U64(slot)
        words = _stream_words(seed, prime_rank, pos, block)
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
    """One realization: the drawn residues and the surviving offsets."""

    residues: dict[int, int]
    survivors: np.ndarray
    w: int
    window_len: int
    sample_index: int
    seed: int

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
    bit = _U64(1) << ((h - 1) % 64).astype(_U64)
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
        idx = np.arange(sample_start + lo, sample_start + min(lo + _SPAN, samples), dtype=np.int64)
        alive = np.tile(whole, (idx.size, 1))
        yield lo, 0, None, alive
        for k, (p, table) in enumerate(zip(primes, keep), 1):
            a = residues_for_prime(config.seed, k - 1, int(p), idx)
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
    w, primes = _sifting_primes(config, w, table)
    residues: dict[int, int] = {}
    for _, k, a, alive in _sift(config, primes, 1, sample_index):
        if k:
            residues[int(primes[k - 1])] = int(a[0])
    return SiftedSample(
        residues=residues,
        survivors=_offsets(alive)[0],
        w=w,
        window_len=config.window_len,
        sample_index=sample_index,
        seed=config.seed,
    )


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


def _span_counts(configs: list[ModelConfig], samples: int, table: PrimeTable,
                 w_marks: list[int] | None = None, sample_start: int = 0):
    """Survivor counts of several windows that share a seed and a cutoff, from one sift.

    Offset h survives p iff h % p != a_p, whatever the window length, and
    a_p does not depend on the window. So one sift at the widest window
    serves them all: a narrower window's survivors are the low bits of the
    widest mask. Returns the sorted marks and an iterator over spans of
    (lo, counts), where counts[c, i, j] is the survivor count of configs[c]
    at sample sample_start + lo + j after every p <= marks[i] is sifted.
    """
    if not configs:
        raise ValueError("need at least one config")
    seed, cutoff = configs[0].seed, configs[0].cutoff_z
    if any(c.seed != seed or c.cutoff_z != cutoff for c in configs):
        raise ValueError("configs must share one seed and one cutoff")
    marks = sorted(set(int(w) for w in (w_marks or [cutoff])))
    if marks[-1] > cutoff:
        raise ValueError(f"w marks exceed cutoff {cutoff}")
    primes = table.upto(marks[-1])
    # row i holds the count after the first sifted[i] primes; 0 primes leave L
    sifted = np.array([table.pi(w) for w in marks])
    taken = set(sifted.tolist())
    widest = max(configs, key=lambda c: c.window_len)
    words = -(-widest.window_len // 64)
    wholes = []
    for c in configs:
        whole = _keep_masks(c.window_len, primes[:0])[0]
        wholes.append(np.pad(whole, (0, words - whole.size)))

    def spans():
        for lo, k, _, alive in _sift(widest, primes, samples, sample_start):
            if k == 0:
                counts = np.empty((len(configs), len(marks), len(alive)), dtype=np.int64)
            if k in taken:
                for c, whole in enumerate(wholes):
                    bits = (alive & whole).view(np.uint8)
                    counts[c, sifted == k] = _POPCOUNT8[bits].sum(axis=1, dtype=np.int64)
            if k == primes.size:
                yield lo, counts

    return marks, spans()


def survivor_counts(
    config: ModelConfig,
    samples: int,
    table: PrimeTable,
    w_marks: list[int] | None = None,
    sample_start: int = 0,
    workers: int = 1,
) -> np.ndarray:
    """Survivor-count matrix, one row per mark in w_marks, columns = samples.

    Each entry [i, j] is the sifted-set size of absolute sample index
    sample_start + j after removing residue classes for all p <= w_marks[i].
    Samples are sifted serially in spans of _SPAN; results depend only on
    (seed, sample index), never on spans. ``workers`` is accepted and
    ignored.
    """
    marks, spans = _span_counts([config], samples, table, w_marks, sample_start)
    out = np.empty((len(marks), samples), dtype=np.int64)
    for lo, counts in spans:
        out[:, lo : lo + counts.shape[2]] = counts[0]
    return out


@dataclass(frozen=True)
class MomentReport:
    """Sample moments of the survivor count against their predictions."""

    w: int
    sample_count: int
    mean: float
    variance: float
    predicted_mean: float
    predicted_variance_bound: float
    in_lemma_range: bool

    @property
    def mean_stderr(self) -> float:
        return math.sqrt(self.variance / self.sample_count)


def moments(
    config: ModelConfig,
    w: int,
    samples: int,
    table: PrimeTable,
    c_var: float | None = None,
    allow_out_of_range: bool = False,
) -> MomentReport:
    """Monte Carlo mean/variance of the survivor count at level w.

    The variance bound constant defaults to the checked-in calibration
    fixture. Levels outside [window_len, cutoff] are rejected unless
    ``allow_out_of_range`` (the report records the flag either way).
    """
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    in_range = config.window_len <= w <= config.cutoff_z
    if not in_range and not allow_out_of_range:
        raise BoundsError(
            f"w={w} outside lemma range [{config.window_len}, {config.cutoff_z}]; "
            "pass allow_out_of_range=True to compute anyway"
        )
    if c_var is None:
        from .calibration import load_fixture

        c_var = float(load_fixture()["model"]["c_var"])
    sizes = survivor_counts(config, samples, table, [w])[0]
    mean = float(sizes.mean())
    var = float(sizes.var(ddof=1)) if samples > 1 else 0.0
    pred_mean = config.window_len * mertens_product(w, table)
    bound = c_var * config.window_len / math.log(w) if config.window_len else 0.0
    return MomentReport(
        w=int(w),
        sample_count=samples,
        mean=mean,
        variance=var,
        predicted_mean=pred_mean,
        predicted_variance_bound=bound,
        in_lemma_range=in_range,
    )


def parity_biases(configs: list[ModelConfig], samples: int, table: PrimeTable) -> list[float]:
    """Monte Carlo estimates of the mean of (-1)^(survivor count) at the cutoff, per config.

    The configs must share a seed and a cutoff; one sift at the widest
    window serves every window (see _span_counts).
    """
    if samples < 10_000:
        raise ValueError(f"need at least 10000 samples, got {samples}")
    _, spans = _span_counts(configs, samples, table)
    odd = np.zeros(len(configs), dtype=np.int64)
    for _, counts in spans:
        odd += np.count_nonzero(counts[:, -1] & 1, axis=1)
    # same exact rational as binomial_moment_sum, so the r >= max(S)
    # collapse identity holds bit for bit
    return [float(Fraction(samples - 2 * int(o), samples)) for o in odd]


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
    """Truncated binomial expansion sum_{k<=r} (phase-1)^k C(N, k).

    For phase -1 the value is an integer and ``side`` records whether it
    bounds (-1)^N from above (r even) or below (r odd); the bound is exact
    once r >= N.
    """

    value: int | float | complex
    side: str | None
    exact: bool


def bonferroni_bound(N: int, r: int, phase: complex = -1.0) -> BonferroniBound:
    N, r = int(N), int(r)
    if N < 0 or r < 0:
        raise ValueError("N and r must be non-negative")
    top = min(r, N)
    if phase == -1:
        value = sum((-2) ** k * math.comb(N, k) for k in range(top + 1))
        return BonferroniBound(value=value, side="upper" if r % 2 == 0 else "lower", exact=r >= N)
    z = complex(phase) - 1.0
    value = sum(z**k * math.comb(N, k) for k in range(top + 1))
    return BonferroniBound(value=value, side=None, exact=r >= N)


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
    sizes = survivor_counts(config, samples, table)[0]
    counts = np.bincount(sizes)
    total = sum(
        int(c) * bonferroni_bound(s, r).value for s, c in enumerate(counts) if c
    )
    try:
        return float(Fraction(total, samples))
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def exact_parity_bias(config: ModelConfig, table: PrimeTable, combo_limit: int = 10**7) -> float:
    """Mean of (-1)^(survivor count) over all residue tuples, exactly.

    Primes p <= L = window_len sift a count of tuples per survivor mask of
    [1, L], exact in float64 (below primorial(L) < 2^53 for L <= 42). A
    larger prime meets the window at most once, so s of its p residues kill
    one of s survivors. combo_limit bounds the 2^L masks.
    """
    L = config.window_len
    primes = [int(p) for p in table.upto(config.cutoff_z)]
    if 2**L > combo_limit:
        raise ValueError(f"{2**L} survivor masks exceed limit {combo_limit}")
    masks, counts, total = np.arange(2**L), np.zeros(2**L), 1
    counts[-1] = 1.0  # before any sifting, every offset survives
    for p in (p for p in primes if p <= L):
        kills = [sum(1 << i for i in range(a, L, p)) for a in range(p)]
        counts = sum(np.bincount(masks & ~k, weights=counts, minlength=2**L) for k in kills)
        total *= p
    pop = _POPCOUNT8[masks.view(np.uint8)].reshape(2**L, -1).sum(axis=1)
    n = [int(c) for c in np.bincount(pop, weights=counts, minlength=L + 1)]
    for p in (p for p in primes if p > L):
        n = [c * (p - s) + d * (s + 1) for s, (c, d) in enumerate(zip(n, n[1:] + [0]))]
        total *= p
    return (sum(n[::2]) - sum(n[1::2])) / total
