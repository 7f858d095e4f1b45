"""Prime generation, caching, and rank queries.

The central object is :class:`PrimeTable`: every prime up to a limit,
built by a segmented odd-only sieve of Eratosthenes, with O(log) rank
queries (``pi``, ``nth_prime``, ``gap``) and a binary cache format for
instant reloads of large tables.
"""

from __future__ import annotations

import contextlib
import os
import struct
from pathlib import Path

import numpy as np

from .errors import BoundsError

MAGIC = b"PRIMECACHE1"

# Odd-number bits per sieving segment; 2**20 bits = 128 KiB keeps the
# inner marking loop L2-resident. Must stay a multiple of 8 so every
# non-final segment packs to whole bytes.
SEGMENT_BITS = 1 << 20

# Odd-number bits turned into primes per step of _decode; bounds its
# temporaries to a few MB however large the table. A multiple of 8.
_DECODE_BITS = 1 << 23

# Set bits of every byte value.
_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def small_sieve(limit: int) -> np.ndarray:
    """Dense sieve returning all primes <= limit as an int64 array.

    Used for base primes and by modules that only need a modest prime
    list without a full PrimeTable.
    """
    if limit < 2:
        return np.array([], dtype=np.int64)
    is_comp = np.zeros(limit + 1, dtype=bool)
    is_comp[:2] = True
    for p in range(2, int(limit**0.5) + 1):
        if not is_comp[p]:
            is_comp[p * p :: p] = True
    return np.flatnonzero(~is_comp).astype(np.int64)


def _odd_count(limit: int) -> int:
    # odds in [3, limit]
    return (limit - 1) // 2 if limit >= 3 else 0


def _decode(limit: int, bits: np.ndarray) -> np.ndarray:
    """Every prime <= limit, from the packed odd-composite bitset.

    The primes are counted first, so one array of the exact size is
    filled in place. The pad bits of the last byte are ignored.
    """
    n_bits = _odd_count(limit)
    n_composite = int(_POPCOUNT8[bits].sum(dtype=np.int64))
    if n_bits % 8:
        n_composite -= int(_POPCOUNT8[int(bits[-1]) >> (n_bits % 8)])
    head = int(limit >= 2)  # the prime 2, which the odd-only bitset leaves out
    primes = np.empty(head + n_bits - n_composite, dtype=np.int64)
    primes[:head] = 2
    k = head
    for i0 in range(0, n_bits, _DECODE_BITS):
        i1 = min(i0 + _DECODE_BITS, n_bits)
        is_prime = np.unpackbits(~bits[i0 >> 3 : (i1 + 7) >> 3], count=i1 - i0, bitorder="little")
        idx = np.flatnonzero(is_prime.view(bool))
        out = primes[k : k + idx.size]
        np.add(idx, i0, out=out)
        out *= 2
        out += 3
        k += idx.size
    return primes


class PrimeTable:
    """Immutable table of all primes <= ``limit``.

    Attributes
    ----------
    limit : int
        Inclusive sieving bound.
    primes : numpy.ndarray
        Strictly increasing int64 array of every prime <= limit.
    """

    def __init__(self, limit: int, primes: np.ndarray, odd_composite_bits: np.ndarray):
        self.limit = int(limit)
        self.primes = primes
        # Cache payload only, never queried: packed little-endian bitset,
        # bit i <-> integer 2i+3, set <=> composite.
        self._bits = odd_composite_bits

    # -- rank queries ------------------------------------------------

    def pi(self, x: int) -> int:
        """Number of primes <= x, by one binary search of the table."""
        x = int(x)
        if x > self.limit:
            raise BoundsError(f"pi({x}) exceeds table limit {self.limit}")
        return int(np.searchsorted(self.primes, x, side="right"))

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
        if v > self.limit:
            raise BoundsError(f"{v} exceeds table limit {self.limit}")
        if v < 2:
            return False
        i = int(np.searchsorted(self.primes, v))
        return i < self.primes.size and int(self.primes[i]) == v

    # -- windowed access ----------------------------------------------

    def is_prime_range(self, lo: int, hi: int) -> np.ndarray:
        """Boolean primality for every integer in [lo, hi)."""
        lo, hi = int(lo), int(hi)
        if lo < 0 or hi > self.limit + 1:
            raise BoundsError(f"window [{lo},{hi}) outside [0, {self.limit + 1})")
        out = np.zeros(max(hi - lo, 0), dtype=bool)
        a, b = np.searchsorted(self.primes, [lo, hi])
        out[self.primes[a:b] - lo] = True
        return out

    # -- cache file ----------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Write the cache file; format is MAGIC, <Q limit, packed bitset.

        The bytes go to a temporary file in the same directory, which then
        replaces ``path`` in one step, so readers never see a partial file.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(MAGIC)
                fh.write(struct.pack("<Q", self.limit))
                fh.write(self._bits.tobytes())
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path


def build_table(limit: int) -> PrimeTable:
    """Sieve all primes <= limit with O(segment) working memory.

    Parameters
    ----------
    limit : int
        Inclusive upper bound, at least 2.
    """
    limit = int(limit)
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")

    n_bits = _odd_count(limit)
    base = small_sieve(int(limit**0.5) + 1)
    base_odd = base[base > 2]

    bits = np.empty((n_bits + 7) // 8, dtype=np.uint8)
    for i0 in range(0, n_bits, SEGMENT_BITS):
        i1 = min(i0 + SEGMENT_BITS, n_bits)
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
        bits[i0 >> 3 : (i1 + 7) >> 3] = np.packbits(seg, bitorder="little")
    return PrimeTable(limit, _decode(limit, bits), bits)


def load_table(path: str | Path) -> PrimeTable:
    """Load a PrimeTable from its cache file."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[: len(MAGIC)] != MAGIC or len(raw) < len(MAGIC) + 8:
        raise ValueError(f"{path} is not a prime cache file (bad magic or truncated header)")
    (limit,) = struct.unpack_from("<Q", raw, len(MAGIC))
    limit = int(limit)
    bits = np.frombuffer(raw, dtype=np.uint8, offset=len(MAGIC) + 8)  # read-only view
    if bits.size != (_odd_count(limit) + 7) // 8:
        raise ValueError(f"{path}: bitset length {bits.size} inconsistent with limit {limit}")
    return PrimeTable(limit, _decode(limit, bits), bits)


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
