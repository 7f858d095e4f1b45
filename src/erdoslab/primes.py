"""Prime generation, caching, and rank queries.

The central object is :class:`PrimeTable`: every prime up to a limit
below 2^32, with O(log) rank queries (``pi``, ``nth_prime``), the
bounded reads ``ranks`` and ``upto``, and ``walk``, a sequential read in
runs cut where the cache's checked blocks start, which every scan takes.
Readers elsewhere take their primes through these, so a short table
raises BoundsError and never truncates. The table of ``build_table`` (a
segmented odd-only sieve of Eratosthenes) holds the primes in one uint32
array; that of ``load_table`` holds the checked cache file open and
decodes primes only when asked, each read from the skip block at or
before its first rank, raising OSError for a block whose bytes changed
after the check. Only ``_decode`` and ``_half_gaps`` know the form, and
``save`` streams the half-gaps in runs. A key searched in an array is
cast to its dtype: numpy would otherwise convert the whole array to
int64 for each search. The binary cache (``PRIMECACHE2``) stores the
half-gaps (p_{i+1} - p_i)/2 from p = 3 on as uint8: every prime gap
below 3.04e11 is at most 500 (Oliveira e Silva, Herzog and Pardi, Math.
Comp. 2014). A file that fails a check, such as an old ``PRIMECACHE1``
bitset, is rebuilt on first use; every check runs before any prime is
decoded.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import weakref
import zlib
from pathlib import Path

import numpy as np

from .errors import BoundsError

MAGIC = b"PRIMECACHE2"

# After MAGIC: CRC-32 of all that follows it, then limit and prime count.
_HEADER = struct.Struct("<IQQ")
_HEAD = len(MAGIC) + _HEADER.size  # where the half-gaps start

# Odd numbers per sieve segment, and half-gaps per run of save, whose
# sub-MiB temporaries reuse heap pages (4-8 MiB ones fault in afresh).
SEGMENT_ODDS, _GAP_CHUNK = 1 << 20, 1 << 16

# Ranks per block of the skip index: a read of a loaded table decodes from
# the block start at or before its first rank, at most _SKIP - 1 primes early.
_SKIP = 1 << 10

# Half-gaps per checked block of a loaded table, a multiple of _SKIP so that
# pi reads one block; bytes per read of load_table's checking pass; and ranks
# per run of walk, whose runs start at ranks 1 + m*_RUN, where blocks start.
_CRC_BLOCK, _LOAD_READ = 1 << 12, 1 << 20
_RUN = 4 * _CRC_BLOCK

# Every table limit lies below this: its primes are uint32.
LIMIT_CAP = 1 << 32


def small_sieve(limit: int) -> np.ndarray:
    """All primes <= limit < 2^32 as a uint32 array, empty below 2: build_table's primes."""
    if limit < 2:
        return np.array([], dtype=np.uint32)
    return build_table(limit).primes


class PrimeTable:
    """Immutable table of all primes <= ``limit``, held in one of two forms.

    ``PrimeTable(limit, primes)`` holds the primes themselves, as the sieve
    makes them. ``load_table`` holds the cache file it checked, open, plus
    the running CRC-32 of the file at the end of each _CRC_BLOCK half-gaps.
    It reads the half-gaps a reader needs in whole blocks, checks each
    against its CRC and decodes them: a block that changed after the check,
    or was cut short, raises OSError. The descriptor is that of the file
    which passed the checks, so a cache replaced or removed later reads the
    same. Both forms keep a skip index, the prime at every _SKIP-th rank
    from p_2 = 3 on, and a loaded table decodes each read from the skip
    block at or before its first rank. Only ``_decode`` (primes) and
    ``_half_gaps`` (cache bytes) know the form; ``pi``, ``ranks``,
    ``walk``, ``is_prime_range`` and ``save`` are written once on top of
    them. ``ranks`` and ``upto`` of a loaded table decode every prime they
    return (up to the whole array) afresh on each call, so readers that
    scan take runs from ``walk``. ``primes`` of a loaded table decodes the
    whole array on first use and keeps it.

    Attributes
    ----------
    limit : int
        Inclusive sieving bound, below 2^32.
    count : int
        Number of primes in the table, pi(limit).
    primes : numpy.ndarray
        Strictly increasing uint32 array of every prime <= limit.
    """

    def __init__(self, limit: int, primes: np.ndarray):
        self.limit = int(limit)
        self.count = int(primes.size)
        self._primes = primes  # None while a loaded table is undecoded
        self._skip = np.ascontiguousarray(primes[1::_SKIP])  # the index a loaded table has
        self._fd = self._crcs = None

    @classmethod
    def _from_file(cls, limit: int, count: int, fd: int, skip: np.ndarray, crcs: np.ndarray) -> PrimeTable:
        """A loaded table: ``skip[b]`` is p_(2 + b*_SKIP), ``crcs[k + 1]`` the CRC-32 to the end of block k."""
        table = cls.__new__(cls)
        table.limit, table.count, table._primes = int(limit), int(count), None
        table._fd, table._skip, table._crcs = fd, skip, crcs
        weakref.finalize(table, os.close, fd)
        return table

    @property
    def primes(self) -> np.ndarray:
        """Every prime of the table; a loaded table decodes them on first use and keeps them."""
        if self._primes is None:
            self._primes = self.ranks(0, self.count)
        return self._primes

    # -- rank reads; of them only _decode and _half_gaps know the form --

    def pi(self, x: int) -> int:
        """Number of primes <= x: a binary search of the skip index, then of one block."""
        x = int(x)
        if x > self.limit:
            raise BoundsError(f"need primality up to {x} > table limit {self.limit}")
        if x < 2:
            return 0
        i = self._block_start(x)
        block = self._decode(i, min(i + _SKIP, self.count))
        return i + int(np.searchsorted(block, block.dtype.type(x), side="right"))

    def ranks(self, i: int, j: int) -> np.ndarray:
        """p_(i+1) ... p_j, the primes of 0-based ranks [i, j); BoundsError past the table.

        A view of the primes, or of a loaded table a freshly decoded array.
        """
        return self._decode(*self._span(i, j))

    def walk(self, i: int, j: int):
        """Yield runs ``(s, e, primes)`` whose ranks [s, e) cover [i, j), in order.

        Runs after the first start at ranks 1 + m*_RUN, where a skip block
        and a CRC block begin, so a loaded table reads each block once and
        decodes no prime it does not return but those before rank i in its
        skip block. ``primes`` holds ranks [s, min(e + 1, j)), so each run
        but the last holds the next one's first. Checked as ``ranks`` is.
        """
        i, j = self._span(i, j)
        while i < j:
            e = min(i - (i - 1) % _RUN + _RUN, j)  # the first rank 1 + m*_RUN after i
            yield i, e, self._decode(i, min(e + 1, j))
            i = e

    def _span(self, i: int, j: int) -> tuple[int, int]:
        """The ranks [i, j) as ints; BoundsError when j > count, ValueError unless 0 <= i <= j."""
        i, j = int(i), int(j)
        if j > self.count:
            raise BoundsError(f"need p_{j} but table holds only {self.count} primes")
        if not 0 <= i <= j:
            raise ValueError(f"rank range [{i}, {j}) is not ordered")
        return i, j

    def _block_start(self, x: int) -> int:
        """First rank of the skip block holding x >= 2, whose first prime is <= x; 0 below block 0 (x < 3)."""
        b = int(np.searchsorted(self._skip, self._skip.dtype.type(x), side="right"))
        return 1 + (b - 1) * _SKIP if b else 0

    def _decode(self, i: int, j: int) -> np.ndarray:
        """The primes of ranks [i, j): a view of the array, or decoded from the skip block at or before rank i."""
        if self._primes is not None:
            return self._primes[i:j]
        if i >= j:
            return np.empty(0, dtype=np.uint32)
        s = max(1 + (i - 1) // _SKIP * _SKIP, 0)  # rank 0, the prime 2, comes before block 0
        out = run = np.empty(j - s, dtype=np.uint32)
        if s == 0:  # 2 to 3 is the one step no half-gap holds
            out[0], run, s = 2, out[1:], 1
        if run.size:
            run[0] = self._skip[(s - 1) // _SKIP]
            np.left_shift(self._half_gaps(s - 1, j - 2), 1, out=run[1:], dtype=np.uint32)
            np.cumsum(run, out=run)
        return out[out.size - (j - i) :]

    def _half_gaps(self, a: int, b: int) -> np.ndarray:
        """Half-gaps [a, b): from the array, ValueError outside [1, 255], or from whole blocks, each CRC-checked."""
        if self._primes is not None:
            # a falling pair wraps to a huge uint32, or is negative in int64
            h = np.diff(self._primes[a + 1 : b + 2])
            h >>= 1
            if h.min() < 1 or h.max() > 255:
                raise ValueError(f"half-gap outside [1, 255] after prime {int(self._primes[a + 1])}")
            return h.astype(np.uint8)
        if a >= b:
            return np.empty(0, dtype=np.uint8)
        k0, k1 = a // _CRC_BLOCK, -(-b // _CRC_BLOCK)
        start = k0 * _CRC_BLOCK
        want = min(k1 * _CRC_BLOCK, self.count - 2) - start  # the last block may be short
        raw = os.pread(self._fd, want, _HEAD + start)
        view, crcs = memoryview(raw), self._crcs[k0 : k1 + 1].tolist()
        for k in range(k1 - k0):  # a block cut short, or not read at all, fails its CRC too
            block = view[k * _CRC_BLOCK : (k + 1) * _CRC_BLOCK]
            if zlib.crc32(block, crcs[k]) != crcs[k + 1]:
                raise OSError(f"prime cache changed after it was checked, in half-gap block {k0 + k}")
        return np.frombuffer(raw, dtype=np.uint8, count=b - a, offset=a - start)

    # -- reads on top of them --------------------------------------------

    def upto(self, x: int) -> np.ndarray:
        """Every prime <= x; BoundsError if x > limit."""
        return self.ranks(0, self.pi(x))

    def nth_prime(self, n: int) -> int:
        """The n-th prime, 1-indexed (nth_prime(1) == 2)."""
        n = int(n)
        if not 1 <= n <= self.count:
            raise BoundsError(f"n={n} outside [1, {self.count}]")
        return int(self.ranks(n - 1, n)[0])

    def __contains__(self, v: int) -> bool:
        i = self.pi(v)  # the primes <= v, the last of which is v if v is prime
        return i > 0 and self.nth_prime(i) == int(v)

    def is_prime_range(self, lo: int, hi: int) -> np.ndarray:
        """Boolean primality for every integer in [lo, hi), from one decode of the skip blocks it spans."""
        lo, hi = int(lo), int(hi)
        if lo < 0 or hi > self.limit + 1:
            raise BoundsError(f"window [{lo},{hi}) outside [0, {self.limit + 1})")
        out = np.zeros(max(hi - lo, 0), dtype=bool)
        if hi <= max(lo, 2):  # no prime in the window
            return out
        # the blocks holding lo and hi - 1 (hi may be 2^32, which no uint32 key holds)
        i, j = self._block_start(max(lo, 2)), self._block_start(hi - 1) + _SKIP
        primes = self._decode(i, min(j, self.count))
        key = primes.dtype.type
        inside = primes[np.searchsorted(primes, key(lo)) : np.searchsorted(primes, key(hi - 1), side="right")]
        out[np.subtract(inside, lo, dtype=np.intp)] = True
        return out

    # -- cache file ----------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Write the cache file: MAGIC, <IQQ crc/limit/count, uint8 half-gaps.

        The half-gaps stream in runs to a temporary file in the same directory,
        which then replaces ``path`` in one step, so readers never see a
        partial file. Raises ValueError when a half-gap falls outside [1, 255].
        """
        body, n = struct.pack("<QQ", self.limit, self.count), max(self.count - 2, 0)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(MAGIC + bytes(4) + body)  # the CRC, once the half-gaps are written
                crc = zlib.crc32(body)
                for a in range(0, n, _GAP_CHUNK):
                    half = self._half_gaps(a, min(a + _GAP_CHUNK, n))
                    fh.write(half)
                    crc = zlib.crc32(half, crc)
                fh.seek(len(MAGIC))
                fh.write(struct.pack("<I", crc))
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
    """Load a PrimeTable from its cache file; ValueError if any check fails.

    One pass of _LOAD_READ-byte reads runs every check before any prime is
    decoded, and records the skip index and the running CRC-32 at the end
    of each block. The table keeps a descriptor of the file and reads its
    half-gaps only when a reader asks for them.
    """
    path = Path(path)
    with open(path, "rb", buffering=0) as fh:
        raw = fh.read(_HEAD)
        if raw[: len(MAGIC)] != MAGIC or len(raw) < _HEAD:
            raise ValueError(f"{path} is not a prime cache file (bad magic or truncated header)")
        crc, limit, count = _HEADER.unpack_from(raw, len(MAGIC))
        crcs = [zlib.crc32(raw[len(MAGIC) + 4 :])]
        buf = np.empty(_LOAD_READ, dtype=np.uint8)  # every read lands here
        sums, tail, size, zero = [], 0, 0, False
        while True:
            half = buf[: fh.readinto(buf)]
            for k in range(0, half.size, _CRC_BLOCK):
                crcs.append(zlib.crc32(half[k : k + _CRC_BLOCK], crcs[-1]))
            zero = zero or not half.all()
            # sums by block of _SKIP, in uint64 row by row; only the last read has a tail
            n = half.size // _SKIP
            sums.append(half[: n * _SKIP].reshape(n, _SKIP).sum(axis=1, dtype=np.uint64))
            tail = int(half[n * _SKIP :].sum(dtype=np.uint64))
            size += half.size
            if half.size < _LOAD_READ:
                break
        if crcs[-1] != crc:
            raise ValueError(f"{path}: checksum mismatch")
        if limit >= LIMIT_CAP:
            raise ValueError(f"{path}: limit {limit} is not below 2^32")
        if count < 1 or size != max(count - 2, 0):
            raise ValueError(f"{path}: {size} half-gaps inconsistent with prime count {count}")
        if zero:
            raise ValueError(f"{path}: zero half-gap")
        ends = np.cumsum(np.concatenate(sums))
        total = (int(ends[-1]) if ends.size else 0) + tail
        # checked before any prime is decoded: a last prime past the limit would wrap in uint32
        last = 3 + 2 * total if count > 1 else 2
        if last > limit:
            raise ValueError(f"{path}: last prime {last} exceeds limit {limit}")
        skip = np.empty(ends.size + 1, dtype=np.uint32)
        skip[0] = 3
        skip[1:] = 3 + 2 * ends
        # the file that passed the checks, whatever later replaces or removes its path
        fd = os.dup(fh.fileno())
    return PrimeTable._from_file(limit, count, fd, skip, np.array(crcs, dtype=np.uint32))


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
    with contextlib.suppress(FileNotFoundError, ValueError):  # a file removed mid-load, too
        table = load_table(path)
        if table.limit == int(limit):
            return table
    table = build_table(limit)
    table.save(path)
    return table
