"""Singular series of prime tuples and the sums built from them.

A tuple of offsets gets a local residue count nu(p) at every prime, an
Euler-product density correction computed as a truncated product with a
certified multiplicative tail bound, and two aggregate sums: the
pair-correlation sum over all pairs in a window and Gallagher-style sums
over k-tuple families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .primes import small_sieve

# Multiplicative tail of the omitted p > P factors is bounded by
# exp(TAIL_CONSTANT * k^2 / P) - 1 for every k; the proof is in the
# singular_series docstring.
TAIL_CONSTANT = 2.0

DEFAULT_TRUNCATION = 100_000

EULER_GAMMA = float(np.euler_gamma)

_LD = np.longdouble


class OffsetTuple:
    """A finite set of distinct non-negative integer offsets h_1 < ... < h_k."""

    __slots__ = ("offsets",)

    def __init__(self, offsets=()):
        offs = tuple(sorted(int(h) for h in offsets))
        if any(h < 0 for h in offs):
            raise ValueError(f"offsets must be non-negative, got {offs}")
        if len(set(offs)) != len(offs):
            raise ValueError(f"offsets must be distinct, got {offs}")
        self.offsets = offs

    @property
    def k(self) -> int:
        return len(self.offsets)

    @property
    def span(self) -> int:
        return self.offsets[-1] - self.offsets[0] if self.offsets else 0

    def __iter__(self):
        return iter(self.offsets)

    def __eq__(self, other):
        return isinstance(other, OffsetTuple) and self.offsets == other.offsets

    def __hash__(self):
        return hash(self.offsets)

    def __repr__(self):
        return f"OffsetTuple({list(self.offsets)})"


def _is_prime_small(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def nu(tup: OffsetTuple, p: int) -> int:
    """Number of distinct residue classes mod p occupied by the offsets."""
    p = int(p)
    if not _is_prime_small(p):
        raise ValueError(f"p={p} is not prime")
    return len({h % p for h in tup})


@dataclass(frozen=True)
class SingularValue:
    """Truncated Euler-product value with a certified multiplicative tail.

    When admissible, the untruncated product lies within
    [value*(1-tail_bound), value*(1+tail_bound)].
    """

    value: float
    truncation_prime: int
    tail_bound: float
    admissible: bool

    def interval(self) -> tuple[float, float]:
        lo = self.value * (1.0 - self.tail_bound)
        hi = self.value * (1.0 + self.tail_bound)
        return (min(lo, hi), max(lo, hi))


@lru_cache(maxsize=8)
def _primes_upto(limit: int) -> np.ndarray:
    primes = small_sieve(limit)
    primes.flags.writeable = False  # shared by every caller of this limit
    return primes


def _log_head(tup: OffsetTuple, primes: np.ndarray, norm_k: int) -> tuple[np.longdouble | None, int]:
    """Sum of log(1 - nu(p)/p) - norm_k * log(1 - 1/p) over primes p <= max(span, k).

    These are the primes where nu(p) can differ from k; ``primes`` is an
    increasing array starting at 2. Returns the sum and the number of
    primes it covers; the sum is None when some nu(p) = p, i.e. the tuple
    is not admissible and the product vanishes.
    """
    cut = int(np.searchsorted(primes, primes.dtype.type(max(tup.span, tup.k)), side="right"))
    total = _LD(0.0)
    for p in primes[:cut]:
        p = int(p)
        v = len({h % p for h in tup.offsets})
        if v == p:
            return None, cut
        total += _LD(math.log1p(-v / p) - norm_k * math.log1p(-1.0 / p))
    return total, cut


@lru_cache(maxsize=64)
def _cumlog_full_nu(k: int, truncation_prime: int) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative sum of log[(1 - k/p)/(1 - 1/p)^k] over primes <= P.

    Valid only where nu = k, i.e. for primes beyond both k and the tuple
    span; callers slice accordingly.
    """
    primes = _primes_upto(truncation_prime).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log1p(-k / primes) - k * np.log1p(-1.0 / primes)
    logs[primes <= k] = 0.0  # callers slice past p <= max(span, k); keep cumsum finite
    cum = np.cumsum(logs.astype(_LD))
    return _primes_upto(truncation_prime), cum


def singular_series(tup: OffsetTuple, truncation_prime: int | None = None) -> SingularValue:
    """Truncated singular-series product prod_{p<=P} (1 - nu(p)/p)/(1 - 1/p)^k.

    The truncation prime must exceed max(2k^2, span). The tail bound
    exp(TAIL_CONSTANT * k^2 / P) - 1 then holds for every k:

    * Each omitted prime p > P exceeds the span, so the offsets are
      distinct mod p and nu(p) = k. Its factor f = (1 - k/p)/(1 - 1/p)^k
      has log f = sum_{m>=2} (k - k^m) / (m p^m); the m = 1 terms cancel
      and every remaining term is <= 0, so f <= 1.
    * For k = 1, f = 1. For k >= 2, p > 2k^2 gives k/p < 1/(2k) <= 1/4,
      so -log f <= (1/2) sum_{m>=2} (k/p)^m = (k/p)^2 / (2(1 - k/p))
      < (2/3) (k/p)^2. Hence f lies in [exp(-k^2/p^2), 1].
    * sum_{p>P} 1/p^2 < sum_{n>P} 1/n^2 < integral_P^inf dt/t^2 = 1/P,
      so the omitted product lies in [exp(-k^2/P), 1].

    The untruncated value therefore lies in [value * exp(-k^2/P), value],
    inside [value * (1 - tail), value * (1 + tail)] because
    1 - exp(-x) <= x <= exp(2x) - 1.
    """
    k = tup.k
    span = tup.span
    if truncation_prime is None:
        truncation_prime = max(DEFAULT_TRUNCATION, 2 * k * k, 2 * span)
    P = int(truncation_prime)
    if k and P <= max(2 * k * k, span):
        raise ValueError(
            f"truncation prime {P} too small; need > max(2k^2, span) = {max(2 * k * k, span)}"
        )
    if k == 0:
        return SingularValue(1.0, P, 0.0, True)

    tail = float(np.expm1(TAIL_CONSTANT * k * k / P))
    primes_all, cum = _cumlog_full_nu(k, P)
    log_head, cut = _log_head(tup, primes_all, k)
    if log_head is None:
        return SingularValue(0.0, P, 0.0, False)
    log_tail_part = cum[-1] - (cum[cut - 1] if cut > 0 else _LD(0.0))
    return SingularValue(float(np.exp(log_head + log_tail_part)), P, tail, True)


@lru_cache(maxsize=16)
def pair_singular_table(h_max: int, truncation_prime: int = DEFAULT_TRUNCATION) -> np.ndarray:
    """Values of the pair singular series for every gap d in [0, h_max].

    Entry d holds the {0, d} value (0 for odd d, and entry 0 is 0 by
    convention since {0, 0} is not a pair). Computed by one sieve pass:
    even gaps start at twice the twin constant and each odd prime divisor
    p contributes (p-1)/(p-2). The array is cached and read-only.
    """
    P = int(truncation_prime)
    if P < 3:
        raise ValueError(f"truncation prime {P} too small; the twin constant needs P >= 3")
    primes = _primes_upto(P)
    odd = primes[1:].astype(np.float64)
    twin2 = 2.0 * float(np.exp(np.cumsum(np.log1p(-1.0 / (odd - 1.0) ** 2).astype(_LD))[-1]))

    vals = np.zeros(h_max + 1, dtype=np.float64)
    vals[2::2] = twin2
    for p in map(int, _primes_upto(min(h_max, P))[1:]):  # the odd primes
        vals[p::p] *= (p - 1.0) / (p - 2.0)
    vals.flags.writeable = False  # shared by every caller with these arguments
    return vals


def pair_correlation_sum(H: int) -> float:
    """2 * sum of pair singular-series values over 0 < h1 < h2 <= H.

    Shift invariance reduces the double sum to sum_d 2(H-d) * pair(d). The
    pair values are those of pair_singular_table at DEFAULT_TRUNCATION.
    """
    H = int(H)
    if H < 2:
        raise ValueError(f"H must be >= 2, got {H}")
    vals = pair_singular_table(H - 1)
    d = np.arange(H, dtype=np.float64)
    return float(2.0 * np.sum((H - d[1:]) * vals[1:]))


def pair_correlation_curve(h_values) -> np.ndarray:
    """pair_correlation_sum evaluated at many H via shared prefix sums."""
    hs = np.asarray(h_values, dtype=np.int64)
    if hs.size == 0 or hs.min() < 2:
        raise ValueError("H values must be >= 2")
    vals = pair_singular_table(int(hs.max()) - 1)
    s1 = np.concatenate([[0.0], np.cumsum(vals[1:])])
    s2 = np.concatenate([[0.0], np.cumsum(np.arange(1, vals.size) * vals[1:])])
    return 2.0 * (hs * s1[hs - 1] - s2[hs - 1])


def pair_correlation_asymptotic(H: float) -> float:
    """Second-order prediction H^2 - H log H + (1 - gamma - log 2 pi) H."""
    return H * H - H * math.log(H) + (1.0 - EULER_GAMMA - math.log(2.0 * math.pi)) * H


def gallagher_sum(k: int, H: int) -> float:
    """Sum of singular-series values over the k-tuple family in (0, H].

    k=1 sums the singleton value 1 over the H offsets; k=2 sums the pair
    value over gaps h <= H (the h=1 term vanishes); k=3 sums over gap
    pairs h < h' <= H. Larger k is unsupported (exact enumeration only).
    Every value is truncated at DEFAULT_TRUNCATION; for k = 3 the cap
    H <= 300 keeps that above max(2k^2, span).
    """
    H = int(H)
    if H < 2:
        raise ValueError(f"H must be >= 2, got {H}")
    if k == 1:
        return float(H)
    if k == 2:
        vals = pair_singular_table(H)
        return float(np.sum(vals[1:]))
    if k == 3:
        if H > 300:
            raise ValueError(f"k=3 enumeration capped at H=300, got {H}")
        total = _LD(0.0)
        for h1 in range(1, H):
            for h2 in range(h1 + 1, H + 1):
                sv = singular_series(OffsetTuple((0, h1, h2)), DEFAULT_TRUNCATION)
                total += _LD(sv.value)
        return float(total)
    raise ValueError(f"k={k} unsupported; exact enumeration covers k in 1..3")
