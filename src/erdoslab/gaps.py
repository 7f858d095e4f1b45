"""Series and counts driven by gaps between consecutive primes.

Covers the three gap series (reciprocal with an iterated-log weight, the
alternating reciprocal gap, and its index-weighted variant plus the
n^theta family), dyadic-block gap statistics, small-gap counts in [X, 2X)
against the Gallagher-type main term, and the empirical parity statistic
of prime counts in short windows over real primes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import parity_bias_stderr, residues_for_prime
from .primes import PrimeTable
from .series import PartialSumTrace, _scan, checkpoint_indices
from .singular import gallagher_sum

KINDS = ("reciprocal_weighted", "alternating_gap", "alternating_weighted_gap", "theta_family")

# stream id of the base-point sampler. It is also the model's stream of prime
# rank 0x5057 = 20567, the prime 231 571, which the model sifts once its cutoff
# passes it (z = 112 771 at x = 1e9, 411 259 at 1e10): from there, parity point
# i and model sample i of one seed read the same word. The id stays, as parity
# artifacts and the fixture's gaps section depend on it.
_PARITY_STREAM = 0x5057

# base points per block of the parity statistic's draw and count, and
# integers per primality window of its count (a 1 MB bool window)
_PARITY_BLOCK, _PARITY_SPAN = 1 << 16, 1 << 20


@dataclass(frozen=True)
class GapSeriesConfig:
    """Which gap series to sum and its exponents.

    ``c`` weights the iterated logarithm of the reciprocal series;
    ``theta`` is the index exponent of the n^theta family.
    """

    kind: str
    c: float = 3.0
    theta: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind == "reciprocal_weighted" and self.c <= 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if self.kind == "theta_family" and not 0 < self.theta <= 1:
            raise ValueError(f"theta must be in (0, 1], got {self.theta}")

    @property
    def start_index(self) -> int:
        # log log n must be defined and positive
        return 10 if self.kind == "reciprocal_weighted" else 1

    @property
    def alternating(self) -> bool:
        return self.kind != "reciprocal_weighted"


def gap_series_partial(table: PrimeTable, config: GapSeriesConfig, n_max: int) -> PartialSumTrace:
    """Compensated partial sums of the selected gap series at the default checkpoints."""
    n_max = int(n_max)
    start = config.start_index
    if n_max < start:
        raise ValueError(f"n_max must be >= {start} for kind {config.kind}")

    cps = checkpoint_indices(start, n_max)
    # k counts from start_index, so the chunks of every kind begin there
    pieces = ((n, n - start + 1, t) for n, t in _gap_terms(table, config, n_max))
    return _scan(cps, pieces, -1.0 if config.alternating else 1.0)


def _gap_terms(table: PrimeTable, config: GapSeriesConfig, n_max: int):
    """Yield pieces (n, t), one per walk run, of the unsigned gap series terms for start_index <= n <= n_max."""
    # term n takes the gap p_(n+1) - p_n: the walk runs to rank n_max + 1
    for s, _, p in table.walk(config.start_index - 1, n_max + 1):
        g = np.diff(p).astype(np.float64)
        if not g.size:  # a last run of one prime adds no term
            continue
        idx = np.arange(s + 1, s + 1 + g.size)
        n = idx.astype(np.float64)
        if config.kind == "reciprocal_weighted":
            t = 1.0 / (n * np.log(np.log(n)) ** config.c * g)
        elif config.kind == "alternating_gap":
            t = 1.0 / g
        elif config.kind == "alternating_weighted_gap":
            t = 1.0 / (n * g)
        else:
            t = 1.0 / (n**config.theta * g)
        yield idx, t


@dataclass(frozen=True)
class DyadicBlockStats:
    """Gap statistics over prime indices n in [n_lo, n_hi)."""

    n_lo: int
    n_hi: int
    min_gap: int
    max_gap: int
    has_gap_two: bool


def dyadic_gap_stats(table: PrimeTable) -> list[DyadicBlockStats]:
    """Min/max prime gap over each dyadic index block [N, 2N), N = 2, 4, 8, ..., in the table.

    Each block folds over the runs of ``table.walk``, whose diffs already
    hold the gap to the next run, so no more than one run is decoded at once.
    """
    out = []
    n_lo = 2
    while n_lo < table.count:
        n_hi = min(2 * n_lo, table.count)
        gaps = (np.diff(p) for _, _, p in table.walk(n_lo - 1, n_hi))
        lo, hi, two = zip(*((g.min(), g.max(), (g == 2).any()) for g in gaps if g.size))
        out.append(DyadicBlockStats(n_lo, n_hi, int(min(lo)), int(max(hi)), bool(any(two))))
        n_lo = 2 * n_lo
    return out


@dataclass(frozen=True)
class SmallGapReport:
    """Count of gaps below lambda log X among primes in [X, 2X)."""

    X: int
    lam: float
    count: int
    gallagher_main: float
    density_ratio: float
    in_lambda_range: bool


def small_gap_count(table: PrimeTable, X: int, lam: float) -> SmallGapReport:
    """Exact small-gap count plus the Gallagher-type main term.

    The main term is the k=2 singular-series sum up to floor(lambda log X),
    shared verbatim with the singular-series module.
    """
    X = int(X)
    if X < 3:
        raise ValueError(f"X must be >= 3, got {X}")
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    logX = math.log(X)
    # primes p_(i0+1) ... p_(i1) lie in [X, 2X); the last gap needs p_(i1+1)
    i0, i1 = table.pi(X - 1), table.pi(2 * X - 1)
    threshold = lam * logX
    count = sum(int(np.count_nonzero(np.diff(p) <= threshold)) for _, _, p in table.walk(i0, i1 + 1))
    M = int(threshold)
    main = gallagher_sum(2, M) if M >= 2 else 0.0
    return SmallGapReport(
        X=X,
        lam=float(lam),
        count=count,
        gallagher_main=main,
        density_ratio=count * logX / (lam * X),
        in_lambda_range=2.0 / logX <= lam <= 1.0,
    )


@dataclass(frozen=True)
class ParityStatReport:
    """Average of (-1)^(prime count in a window) over random base points."""

    x: int
    lam: float
    window: int
    base_points: int
    estimate: float
    stderr: float


def _parity_window(x: int, lam: float) -> int:
    """floor(lambda log x), the window length w; x below 10 or a window below 1 raises ValueError."""
    if x < 10:  # before log(x)
        raise ValueError(f"x must be >= 10, got {x}")
    window = int(lam * math.log(x))
    if window < 1:
        raise ValueError(
            f"lambda log x truncates to {window}; the window must hold at least 1 integer")
    return window


def empirical_parity_statistic(
    table: PrimeTable, x: int, lam: float, base_points: int, seed: int
) -> ParityStatReport:
    """Mean of (-1)^(pi(n + floor(lambda log x)) - pi(n)) over seeded random n.

    The window w = floor(lambda log x) must hold at least 1 integer.

    Base points are drawn uniformly from [x, x + floor(x^0.9)]; the draw
    for position i depends only on (seed, i), so estimates reproduce
    exactly for a given seed. The sorted points are counted in groups of
    at most _PARITY_BLOCK, each of whose primality windows (first point,
    last point + w] spans at most _PARITY_SPAN integers, or 2w when w is
    larger than half of that. Each window is packed into 64-bit words with
    a running popcount, so pi(n + w) - pi(n) is two O(1) rank reads.
    """
    x = int(x)
    window = _parity_window(x, lam)
    if base_points < 1000:
        raise ValueError(f"need at least 1000 base points, got {base_points}")
    spread = int(x**0.9)
    table.pi(x + spread + window)  # BoundsError before any draw, if the table is short
    # uint32 holds every point, as table limits lie below 2^32; each
    # block's draws are those of uniform_ints at its positions
    keys = np.empty(base_points, dtype=np.uint32)
    for a in range(0, base_points, _PARITY_BLOCK):
        idx = np.arange(a, min(a + _PARITY_BLOCK, base_points))
        keys[a : a + idx.size] = residues_for_prime(seed, _PARITY_STREAM, spread + 1, idx)
    keys += np.uint32(x)
    # only the count of odd pi(n + w) - pi(n) matters, so the points may be sorted
    keys.sort()
    # a group's points span at most reach integers, so its window spans at most reach + w
    # (the bound is capped at the last possible point, which uint32 holds)
    reach = max(_PARITY_SPAN - window, window)
    odd = a = 0
    while a < base_points:
        first = int(keys[a])
        n = keys[a : a + _PARITY_BLOCK]
        n = n[: np.searchsorted(n, np.uint32(min(first + reach, x + spread)), side="right")]
        # integers first + 1 ... last + w, packed little-endian: bit i of the window is bit
        # i % 64 of word i // 64, and the spare word keeps rank reads at the end in range
        win = table.is_prime_range(first + 1, int(n[-1]) + window + 1)
        win = np.packbits(win, bitorder="little")
        words = np.zeros(win.size // 8 + 1, dtype="<u8")
        words.view(np.uint8)[: win.size] = win
        # ranks mod 256, enough for parity: primes in words [0, q] less those at bits >= r of word q
        ends = np.cumsum(np.bitwise_count(words), dtype=np.uint8)
        par = np.zeros(n.size, dtype=np.uint8)
        s = n - np.uint32(first)
        for p in (s, s + np.uint32(window)):  # n - first and n + w - first <= spread + w, below 2^32
            q = p >> 6
            g = words[q]
            g >>= p & 63
            par += ends[q]
            par += np.bitwise_count(g)
        odd += int(np.count_nonzero(par & 1))
        a += n.size
    est = 1.0 - 2.0 * odd / base_points
    return ParityStatReport(
        x=x,
        lam=float(lam),
        window=window,
        base_points=base_points,
        estimate=est,
        stderr=parity_bias_stderr(est, base_points),
    )
