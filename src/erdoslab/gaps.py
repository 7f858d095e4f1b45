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

from .errors import BoundsError
from .model import uniform_ints
from .primes import PrimeTable
from .series import PartialSumTrace, _pieces, _scan, checkpoint_indices
from .singular import gallagher_sum

KINDS = ("reciprocal_weighted", "alternating_gap", "alternating_weighted_gap", "theta_family")

# stream id for the base-point sampler, separating it from model substreams
_PARITY_STREAM = 0x5057


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
    if n_max + 1 > table.primes.size:
        raise BoundsError(f"need p_(n+1) for n={n_max}; table holds {table.primes.size} primes")

    cps = checkpoint_indices(start, n_max)
    # k counts from start_index, so the chunks of every kind begin there
    pieces = ((n, n - start + 1, t) for n, t in _gap_terms(table, config, n_max))
    return _scan(cps, pieces, -1.0 if config.alternating else 1.0)


def _gap_terms(table: PrimeTable, config: GapSeriesConfig, n_max: int):
    """Yield pieces (n, t) of the unsigned gap series terms for start_index <= n <= n_max."""
    for a, b in _pieces(config.start_index, n_max + 1):
        idx = np.arange(a, b)
        n = idx.astype(np.float64)
        g = (table.primes[a:b] - table.primes[a - 1 : b - 1]).astype(np.float64)
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
    """Min/max prime gap over each dyadic index block [N, 2N), N = 2, 4, 8, ..., in the table."""
    gaps = np.diff(table.primes)
    out = []
    n_lo = 2
    while n_lo <= gaps.size:
        n_hi = min(2 * n_lo, gaps.size + 1)
        block = gaps[n_lo - 1 : n_hi - 1]
        out.append(
            DyadicBlockStats(
                n_lo=n_lo,
                n_hi=n_hi,
                min_gap=int(block.min()),
                max_gap=int(block.max()),
                has_gap_two=bool((block == 2).any()),
            )
        )
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
    if 2 * X > table.limit:
        raise BoundsError(f"need primes to 2X={2 * X} > table limit {table.limit}")
    logX = math.log(X)
    i0 = int(np.searchsorted(table.primes, X, side="left"))
    i1 = int(np.searchsorted(table.primes, 2 * X, side="left"))
    if i1 >= table.primes.size:
        raise BoundsError("table ends inside [X, 2X); the last gap is unknown")
    g = table.primes[i0 + 1 : i1 + 1] - table.primes[i0:i1]
    threshold = lam * logX
    count = int(np.count_nonzero(g <= threshold))
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


def empirical_parity_statistic(
    table: PrimeTable, x: int, lam: float, base_points: int, seed: int
) -> ParityStatReport:
    """Mean of (-1)^(pi(n + floor(lambda log x)) - pi(n)) over seeded random n.

    Base points are drawn uniformly from [x, x + floor(x^0.9)]; the draw
    for position i depends only on (seed, i), so estimates reproduce
    exactly for a given seed.
    """
    x = int(x)
    if x < 10:
        raise ValueError(f"x must be >= 10, got {x}")
    if base_points < 1000:
        raise ValueError(f"need at least 1000 base points, got {base_points}")
    window = int(lam * math.log(x))
    spread = int(x**0.9)
    if x + spread + window > table.limit:
        raise BoundsError(
            f"need primes to {x + spread + window} > table limit {table.limit}"
        )
    n = x + uniform_ints(seed, _PARITY_STREAM, base_points, spread + 1)
    # only the count of odd (hi - lo) matters, and sorted keys let each
    # binary search start from the last one's bound
    n.sort()
    lo = np.searchsorted(table.primes, n, side="right")
    hi = np.searchsorted(table.primes, n + window, side="right")
    odd = int(np.count_nonzero((hi - lo) & 1))
    est = 1.0 - 2.0 * odd / base_points
    return ParityStatReport(
        x=x,
        lam=float(lam),
        window=window,
        base_points=base_points,
        estimate=est,
        stderr=math.sqrt(max(1.0 - est * est, 0.0) / base_points),
    )
