"""Prime generation, caching, and rank queries.

The central object is :class:`PrimeTable`: every prime up to a limit
below 2^32, in one uint32 array from a segmented odd-only sieve of
Eratosthenes, with O(log) rank queries (``pi``, ``nth_prime``, ``gap``)
and the bounded reads ``upto`` and ``first``: readers elsewhere take
their primes through these, so a short table raises BoundsError and
never truncates. A key searched in a primes array is cast to its dtype
first: numpy would otherwise convert the whole array to int64 for each
search. The binary cache (``PRIMECACHE2``) stores the half-gaps
(p_{i+1} - p_i)/2 from p = 3 on as uint8: every prime gap below 3.04e11
is at most 500 (Oliveira e Silva, Herzog and Pardi, Math. Comp. 2014).
A file that fails a check, such as an old ``PRIMECACHE1`` bitset, is
rebuilt on first use.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import BoundsError

MAGIC = b"PRIMECACHE2"

# After MAGIC: CRC-32 of all that follows it, then limit and prime count.
_HEADER = struct.Struct("<IQQ")

# Odd numbers per sieve segment, and gaps per step of the half-gap encoder,
# whose 512 KiB temporaries reuse heap pages (8 MiB ones fault in afresh).
SEGMENT_ODDS, _GAP_CHUNK = 1 << 20, 1 << 16

# Every table limit lies below this: its primes are uint32.
LIMIT_CAP = 1 << 32


def small_sieve(limit: int) -> np.ndarray:
    """All primes <= limit < 2^32 as a uint32 array, empty below 2: build_table's primes."""
    if limit < 2:
        return np.array([], dtype=np.uint32)
    return build_table(limit).primes


class PrimeTable:
    """Immutable table of all primes <= ``limit``.

    Attributes
    ----------
    limit : int
        Inclusive sieving bound, below 2^32.
    primes : numpy.ndarray
        Strictly increasing uint32 array of every prime <= limit.
    """

    def __init__(self, limit: int, primes: np.ndarray):
        self.limit = int(limit)
        self.primes = primes

    # -- rank queries ------------------------------------------------

    def pi(self, x: int) -> int:
        """Number of primes <= x, by one binary search of the table."""
        x = int(x)
        if x > self.limit:
            raise BoundsError(f"need primality up to {x} > table limit {self.limit}")
        if x < 2:
            return 0
        return int(np.searchsorted(self.primes, self.primes.dtype.type(x), side="right"))

    def upto(self, x: int) -> np.ndarray:
        """Every prime <= x, a view of the table; BoundsError if x > limit."""
        return self.primes[: self.pi(x)]

    def first(self, n: int) -> np.ndarray:
        """p_1 ... p_n, a view of the table; BoundsError if it holds fewer."""
        n = int(n)
        if n > self.primes.size:
            raise BoundsError(f"need p_{n} but table holds only {self.primes.size} primes")
        return self.primes[: max(n, 0)]

    def nth_prime(self, n: int) -> int:
        """The n-th prime, 1-indexed (nth_prime(1) == 2)."""
        n = int(n)
        if not 1 <= n <= self.primes.size:
            raise BoundsError(f"n={n} outside [1, {self.primes.size}]")
        return int(self.primes[n - 1])

    def gap(self, n: int) -> int:
        """Gap following the n-th prime: p_{n+1} - p_n."""
        n = int(n)
        if not 1 <= n + 1 <= self.primes.size:
            raise BoundsError(f"gap index n={n} needs n+1 <= {self.primes.size}")
        return int(self.primes[n] - self.primes[n - 1])

    def __contains__(self, v: int) -> bool:
        v = int(v)
        i = self.pi(v)  # the primes <= v, the last of which is v if v is prime
        return i > 0 and int(self.primes[i - 1]) == v

    # -- windowed access ----------------------------------------------

    def is_prime_range(self, lo: int, hi: int) -> np.ndarray:
        """Boolean primality for every integer in [lo, hi)."""
        lo, hi = int(lo), int(hi)
        if lo < 0 or hi > self.limit + 1:
            raise BoundsError(f"window [{lo},{hi}) outside [0, {self.limit + 1})")
        out = np.zeros(max(hi - lo, 0), dtype=bool)
        # hi may be 2^32, which no uint32 key holds; the primes < v are pi(v - 1)
        a, b = self.pi(min(lo, hi) - 1), self.pi(hi - 1)
        out[np.subtract(self.primes[a:b], lo, dtype=np.intp)] = True
        return out

    # -- cache file ----------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Write the cache file: MAGIC, <IQQ crc/limit/count, uint8 half-gaps.

        The bytes go to a temporary file in the same directory, which then
        replaces ``path`` in one step, so readers never see a partial file.
        Raises ValueError when a half-gap falls outside [1, 255].
        """
        p = self.primes
        half = np.empty(max(p.size - 2, 0), dtype=np.uint8)
        for i in range(0, half.size, _GAP_CHUNK):
            h = np.diff(p[i + 1 : i + _GAP_CHUNK + 2])
            h >>= 1
            if h.min() < 1 or h.max() > 255:
                raise ValueError(f"half-gap outside [1, 255] after prime {int(p[i + 1])}")
            half[i : i + h.size] = h
        body = struct.pack("<QQ", self.limit, p.size)
        crc = zlib.crc32(half, zlib.crc32(body))
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(MAGIC + struct.pack("<I", crc) + body)
                fh.write(half)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path


def build_table(limit: int) -> PrimeTable:
    """Sieve all primes <= limit with O(segment) working memory.

    Parameters
    ----------
    limit : int
        Inclusive upper bound, at least 2 and below 2^32; BoundsError
        above, before anything is allocated.
    """
    limit = int(limit)
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    if limit >= LIMIT_CAP:
        raise BoundsError(f"table limit {limit} >= 2^32: the table holds uint32 primes")

    n_odds = (limit - 1) // 2  # odds in [3, limit]
    base = small_sieve(math.isqrt(limit))
    base_odd = base[base > 2]

    # each segment's primes go straight into one array, shrunk in place at the
    # end: pi(x) < 1.25506 x / log x (Rosser and Schoenfeld 1962), + 2 for rounding
    primes = np.empty(int(1.25506 * limit / math.log(limit)) + 2, dtype=np.uint32)
    primes[0] = 2
    k = 1
    for i0 in range(0, n_odds, SEGMENT_ODDS):
        i1 = min(i0 + SEGMENT_ODDS, n_odds)
        seg = np.zeros(i1 - i0, dtype=bool)  # True <=> composite
        seg_lo = 2 * i0 + 3
        seg_hi = 2 * (i1 - 1) + 3
        for p in base_odd:
            p = int(p)
            if p * p > seg_hi:
                break
            start = max(p * p, ((seg_lo + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            if start > seg_hi:
                continue
            # consecutive odd multiples of p sit p odd-indices apart
            seg[(start - 3) // 2 - i0 :: p] = True
        # in place, so no temporary outgrows the segment's own indices
        idx = np.flatnonzero(np.logical_not(seg, out=seg))
        idx += i0
        idx *= 2
        idx += 3
        primes[k : k + idx.size] = idx
        k += idx.size
        del idx  # before the next segment's indices exist
    # in place, without numpy's reference check: no view of primes is alive
    # here, but a tracer (sys.settrace) holds frame references that fail it
    primes.resize(k, refcheck=False)
    return PrimeTable(limit, primes)


def load_table(path: str | Path) -> PrimeTable:
    """Load a PrimeTable from its cache file; ValueError if any check fails."""
    path = Path(path)
    raw = path.read_bytes()
    head = len(MAGIC) + _HEADER.size
    if raw[: len(MAGIC)] != MAGIC or len(raw) < head:
        raise ValueError(f"{path} is not a prime cache file (bad magic or truncated header)")
    crc, limit, count = _HEADER.unpack_from(raw, len(MAGIC))
    if zlib.crc32(memoryview(raw)[len(MAGIC) + 4 :]) != crc:
        raise ValueError(f"{path}: checksum mismatch")
    if limit >= LIMIT_CAP:
        raise ValueError(f"{path}: limit {limit} is not below 2^32")
    half = np.frombuffer(raw, dtype=np.uint8, offset=head)
    if count < 1 or half.size != max(count - 2, 0):
        raise ValueError(f"{path}: {half.size} half-gaps inconsistent with prime count {count}")
    if not half.all():
        raise ValueError(f"{path}: zero half-gap")
    # checked before decoding: a last prime past the limit would wrap in uint32
    last = 3 + 2 * int(half.sum(dtype=np.uint64)) if count > 1 else 2
    if last > limit:
        raise ValueError(f"{path}: last prime {last} exceeds limit {limit}")
    primes = np.empty(count, dtype=np.uint32)
    primes[:2] = (2, 3)[:count]
    primes[2:] = half
    primes[2:] <<= 1
    # in place: no second full-size array
    np.cumsum(primes[1:], out=primes[1:], dtype=np.uint32)
    return PrimeTable(limit, primes)


def cache_path(limit: int, cache_dir: str | Path | None = None) -> Path:
    """Cache file location; ERDOS_CACHE_DIR overrides the default directory."""
    d = cache_dir or os.environ.get("ERDOS_CACHE_DIR") or Path.home() / ".cache" / "erdoslab"
    return Path(d) / f"primes-{int(limit)}.bin"


def load_or_build(limit: int, cache_dir: str | Path | None = None) -> PrimeTable:
    """Return a table for ``limit``, reusing the on-disk cache when present.

    On a miss the table is built and written to the cache. A cache file
    that cannot be parsed counts as a miss, so it is overwritten.
    """
    path = cache_path(limit, cache_dir)
    if path.exists():
        with contextlib.suppress(ValueError):
            table = load_table(path)
            if table.limit == int(limit):
                return table
    table = build_table(limit)
    table.save(path)
    return table
