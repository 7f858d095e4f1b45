"""Exact prime-tuple counts against their density predictions.

count_tuples counts over odd integers. Every prime but 2 is odd, so a
tuple whose offsets share one parity holds at n only where n + h0 is odd
(k = 1 counts pi(x + h0) - pi(h0) instead), and one of mixed parity only
at the k values n = 2 - h, each checked directly. The rest walk chunks of
odd indices j, one odd-only primality window W[j] = isprime(2j + 1) per
chunk from the table's ``is_prime_range``; tuples sharing leading
relative offsets share the ANDs of one trie.
log_integral evaluates the density integral int_2^x dy/log^k y by
adaptive Gauss-Kronrod bisection, and check_tuples packages both sides
with a normalized error, one report per tuple.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .primes import PrimeTable
from .singular import OffsetTuple, SingularValue, singular_series

_COUNT_CHUNK = 1 << 18  # odd indices: 2^19 integers, in 256 KB bool buffers that stay in L2

# log_integral stops once its summed |K15 - G7| is at most max(_ABS_FLOOR, _REL_TOL * |total|).
_REL_TOL, _ABS_FLOOR = 1e-10, 1e-14

# 15-point Kronrod abscissae/weights with the embedded 7-point Gauss rule.
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767,
    0.3818300505051189, 0.4179591836734694,
])
# the 15 nodes on [-1, 1], their Kronrod weights, and the Gauss weights of nodes 1, 3, ..., 13
_X15 = np.concatenate([-_XGK[:-1], [0.0], _XGK[-2::-1]])
_W15 = np.concatenate([_WGK[:-1], [_WGK[-1]], _WGK[-2::-1]])
_W7, _G7 = np.concatenate([_WG[:-1], [_WG[-1]], _WG[-2::-1]]), np.arange(1, 15, 2)


def count_tuples(table: PrimeTable, tup: OffsetTuple, x: int) -> int:
    """Number of n <= x with n + h prime for every offset h."""
    return _count_many(table, [tup], x)[0]


def _count_many(table: PrimeTable, tups: list[OffsetTuple], x: int) -> list[int]:
    """count_tuples for each tuple; those of k >= 2 offsets of one parity share each chunk's work.

    The empty tuple counts x, and one offset h0 counts pi(x + h0) - pi(h0).
    Offsets of mixed parity make some n + h even, so n + h = 2: only the
    k values n = 2 - h can count, and each is checked directly. In the rest
    every n + h is odd, since a second offset keeps n + h0 from being 2, so
    n + h0 = 2j + 1 for j in [(h0 + 1) // 2, (x + h0 + 1) // 2), and the
    tuple holds at j when W[j + (h - h0) / 2] for every offset, where
    W[j] = isprime(2j + 1). Their relative offsets (h - h0) / 2 form a
    trie: per chunk of _COUNT_CHUNK odd indices, depth-first, each edge is
    one AND of its parent's buffer with a shifted slice of W, and a tuple
    counts at its last node over its own j-range. Chunks whose j meet no
    tuple's range are skipped.
    """
    x = int(x)
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    max_off = max((tup.offsets[-1] for tup in tups if tup.k), default=None)
    if max_off is None:
        return [x] * len(tups)
    table.pi(x + max_off)  # BoundsError before any counting, if the table is short
    totals = [0] * len(tups)
    # relative offset -> (children, [(tuple index, first j, end j) of each tuple ending there])
    trie: dict = {}
    ranges = []  # (first j, end j, last relative offset) of each tuple in the trie
    for i, tup in enumerate(tups):
        if not tup.k:
            totals[i] = x
            continue
        h0, *rest = tup.offsets
        if not rest:
            totals[i] = table.pi(x + h0) - table.pi(h0)
        elif any((h - h0) % 2 for h in rest):
            cands = (2 - h for h in tup.offsets)
            totals[i] = sum(all(n + h in table for h in tup.offsets) for n in cands if 1 <= n <= x)
        else:
            children = trie
            for h in rest:
                children, ends = children.setdefault((h - h0) // 2, ({}, []))
            lo, hi = (h0 + 1) // 2, (x + h0 + 1) // 2
            ends.append((i, lo, hi))
            ranges.append((lo, hi, (rest[-1] - h0) // 2))
    if not trie:
        return totals
    j0, j1 = min(r[0] for r in ranges), max(r[1] for r in ranges)
    max_r = max(r[2] for r in ranges)
    jtop = max(hi + r for _, hi, r in ranges)  # W[j] for j >= jtop is never counted
    size = min(_COUNT_CHUNK, j1 - j0)
    bufs = np.empty((max(tup.k for tup in tups) - 1, size), dtype=bool)  # one per trie depth
    odd = np.zeros(size + max_r, dtype=np.uint8)  # W[a:top], as 0/1 bytes
    w = odd.view(bool)

    def descend(children, d, acc):
        for r, (sub, ends) in children.items():
            out = bufs[d, : acc.size]
            np.logical_and(acc, w[r : r + acc.size], out=out)
            for i, lo, hi in ends:
                if lo < a + acc.size and hi > a:
                    totals[i] += int(np.count_nonzero(out[max(lo - a, 0) : hi - a]))
            descend(sub, d + 1, out)

    for a in range(j0, j1, _COUNT_CHUNK):
        b = min(a + _COUNT_CHUNK, j1)
        if all(hi <= a or lo >= b for lo, hi, _ in ranges):
            continue
        top = min(b + max_r, jtop)
        # integers 2a ... 2top - 1 as little-endian pairs (2j, 2j + 1): the high byte is W[j]
        pairs = table.is_prime_range(2 * a, 2 * top).view("<u2")
        np.right_shift(pairs, 8, out=odd[: top - a], casting="unsafe")
        descend(trie, 0, w[: b - a])
    return totals


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    """Kronrod-15 estimate over [a, b] and |K15 - G7| as error proxy."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fx = f(c + h * _X15)
    k15 = h * float(np.dot(_W15, fx))
    g7 = h * float(np.dot(_W7, fx[_G7]))  # a gather, so the dot reads a contiguous copy
    return k15, abs(k15 - g7)


def log_integral(x: float, k: int) -> float:
    """int_2^x dy / log(y)^k by adaptive bisection of a Gauss-Kronrod pair."""
    x = float(x)
    k = int(k)
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    def f(y):
        return np.log(y) ** (-float(k))

    i0, e0 = _gk15(f, 2.0, x)
    heap = [(-e0, 2.0, x, i0)]
    total, err = i0, e0
    for _ in range(20_000):
        if err <= max(_ABS_FLOOR, _REL_TOL * abs(total)):
            return total
        neg_e, a, b, i_ab = heapq.heappop(heap)
        m = 0.5 * (a + b)
        i1, e1 = _gk15(f, a, m)
        i2, e2 = _gk15(f, m, b)
        total += (i1 + i2) - i_ab
        err += (e1 + e2) - (-neg_e)
        heapq.heappush(heap, (-e1, a, m, i1))
        heapq.heappush(heap, (-e2, m, b, i2))
    raise RuntimeError(f"quadrature failed to converge for x={x}, k={k}")


@dataclass(frozen=True)
class TupleCheckReport:
    """Both sides of the tuple-count estimate at one scale.

    ``normalized_error`` divides the absolute error by x^(1-epsilon); the
    in_*_range flags mark whether k <= (log log x)^5 and the offsets fit
    in [0, log^2 x], the window where the prediction is meaningful.
    """

    tup: OffsetTuple
    x: int
    count: int
    prediction: float
    abs_error: float
    normalized_error: float
    epsilon: float
    singular: SingularValue
    in_offset_range: bool
    in_k_range: bool


def check_tuple(
    table: PrimeTable,
    tup: OffsetTuple,
    x: int,
    epsilon: float = 0.05,
    strict_range: bool = False,
) -> TupleCheckReport:
    """Exact count vs singular-series prediction with normalized error."""
    return check_tuples(table, [tup], x, epsilon, strict_range)[0]


def check_tuples(
    table: PrimeTable,
    tups: list[OffsetTuple],
    x: int,
    epsilon: float = 0.05,
    strict_range: bool = False,
) -> list[TupleCheckReport]:
    """check_tuple for each tuple, counted in one shared walk over [1, x].

    Each tuple is checked in input order, completely, before anything is
    counted, so the first bad tuple raises the error check_tuple raises
    for it.
    """
    x = int(x)
    if x < 3:
        raise ValueError(f"x must be >= 3, got {x}")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0,1), got {epsilon}")

    log2x = math.log(x) ** 2
    loglog5 = math.log(math.log(x)) ** 5
    sides = []
    for tup in tups:
        if tup.k == 0:
            raise ValueError("tuple must have at least one offset")
        in_offset_range = tup.offsets[-1] <= log2x
        in_k_range = tup.k <= loglog5
        if strict_range and not (in_offset_range and in_k_range):
            raise ValueError(
                f"tuple outside strict ranges at x={x}: offsets<=log^2 x is {in_offset_range}, "
                f"k<=(loglog x)^5 is {in_k_range}"
            )
        table.pi(x + tup.offsets[-1])  # BoundsError if the table is short
        sv = singular_series(tup)
        prediction = sv.value * log_integral(x, tup.k) if sv.admissible else 0.0
        sides.append((sv, prediction, in_offset_range, in_k_range))

    reports = []
    for tup, count, (sv, prediction, in_offset_range, in_k_range) in zip(
        tups, _count_many(table, tups, x), sides
    ):
        abs_error = abs(count - prediction)
        reports.append(TupleCheckReport(
            tup=tup,
            x=x,
            count=count,
            prediction=prediction,
            abs_error=abs_error,
            normalized_error=abs_error / x ** (1.0 - epsilon),
            epsilon=epsilon,
            singular=sv,
            in_offset_range=in_offset_range,
            in_k_range=in_k_range,
        ))
    return reports
