"""Prime generation, caching, and rank queries.

The central object is :class:`PrimeTable`: every prime up to a limit
below 2^32, with O(log) rank queries (``pi``, ``nth_prime``), the
bounded reads ``ranks`` and ``upto``, and ``walk``, a sequential read in
runs cut where the cache's checked blocks start, which every scan takes.
Readers elsewhere take their primes through these, so a short table
raises BoundsError and never truncates. Every table holds its primes as
the bytes of its cache file (``PRIMECACHE2``), the half-gaps
(p_{i+1} - p_i)/2 from p = 3 on as uint8: every prime gap below 2^32 is
at most 320 (the maximal gaps tabulated by Oliveira e Silva, Herzog and
Pardi, Math. Comp. 2014). ``build_table`` forms them in memory from
``_segments``, a segmented odd-only sieve of Eratosthenes: each segment
of 2^20 odds is copied from a wheel of the multiples of 3..17, and the
primes 19..isqrt(limit) mark it from offsets carried across segments.
``load_table`` keeps the checked file open instead and reads its bytes
only when asked, raising OSError for a block whose bytes changed after
the check. One pass, ``_index``, gives either table its skip index and
block CRCs, and every read decodes from the start of the block of 4096
that holds its first rank (at most 4095 primes early). A key searched in
an array is cast to its dtype: numpy would otherwise convert the whole
array to int64 for each search. A file that fails a check, such as an
old ``PRIMECACHE1`` bitset, is rebuilt on first use; every check runs
before any prime is decoded.
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

SEGMENT_ODDS = 1 << 20  # odd numbers per sieve segment

# The sieve's wheel: the odd multiples of these primes repeat every
# 3*5*7*11*13*17 = 255 255 odd indices. With 19 the period grows to
# 4 849 845, and the pattern plus a segment (5.9 MB) would lift a 5e7
# build's peak past 1.5 times its 12 MB of primes.
_WHEEL = (3, 5, 7, 11, 13, 17)
_WHEEL_PERIOD = math.prod(_WHEEL)

# Half-gaps per block: block b leads from rank 1 + b*_BLOCK, whose prime the
# skip index holds, and a read checks it by CRC and decodes from its start.
# Half-gaps per step of _index's pass, whole blocks. Ranks per run of walk,
# whose runs start at ranks 1 + m*_RUN, where blocks start. Half-gaps per
# slice of save, whole blocks, whose sub-MiB temporaries reuse heap pages
# (4-8 MiB ones fault in afresh).
_BLOCK, _LOAD_READ = 1 << 12, 1 << 20
_RUN, _SAVE_RUN = 4 * _BLOCK, 16 * _BLOCK

# Every table limit lies below this: its primes are uint32.
LIMIT_CAP = 1 << 32


def small_sieve(limit: int) -> np.ndarray:
    """All primes <= limit < 2^32 as a uint32 array, empty below 2: build_table's primes."""
    if limit < 2:
        return np.array([], dtype=np.uint32)
    return build_table(limit).primes


class PrimeTable:
    """Immutable table of all primes <= ``limit``, held as the half-gaps of its cache file.

    ``build_table`` holds the half-gaps in memory, read-only. ``load_table``
    holds the cache file it checked, open, and reads the half-gaps a reader
    needs in whole blocks, each checked against its CRC: a block that
    changed after the check, or was cut short, raises OSError. The
    descriptor is that of the file which passed the checks, so a cache
    replaced or removed later reads the same. Either way the table keeps
    what ``_index`` gives: the running CRC-32 of the file at the end of each
    block of 4096 half-gaps, and a skip index, the prime at each block's
    first rank 1 + b*_BLOCK. Only ``_half_gaps`` knows where the bytes come
    from; ``_decode`` decodes each read from the start of its first rank's
    block, at most 4095 primes early, and ``pi``, ``ranks``, ``walk``,
    ``is_prime_range`` and ``save`` are written once on top of them.
    ``ranks`` and ``upto`` decode every prime they return (up to the whole
    array) afresh on each call, so readers that scan take runs from
    ``walk``. ``primes`` decodes the whole array on first use and keeps it.

    Attributes
    ----------
    limit : int
        Inclusive sieving bound, below 2^32.
    count : int
        Number of primes in the table, pi(limit).
    primes : numpy.ndarray
        Strictly increasing uint32 array of every prime <= limit.
    """

    def __init__(self, limit: int, count: int, crcs: np.ndarray, starts: np.ndarray, source: np.ndarray | int):
        """``crcs`` and ``starts`` as ``_index`` gives them; ``source`` the half-gaps, or a descriptor the table closes."""
        self.limit, self.count, self._primes = int(limit), int(count), None
        self._crcs, self._skip, self._source = crcs, starts[:-1].astype(np.uint32), source
        if isinstance(source, int):
            weakref.finalize(self, os.close, source)

    @property
    def primes(self) -> np.ndarray:
        """Every prime of the table, decoded on first use and kept."""
        if self._primes is None:
            self._primes = self.ranks(0, self.count)
        return self._primes

    # -- rank reads, on top of _decode and _half_gaps --------------------

    def pi(self, x: int) -> int:
        """Number of primes <= x: a binary search of the skip index, then of one block."""
        x = int(x)
        if x > self.limit:
            raise BoundsError(f"need primality up to {x} > table limit {self.limit}")
        if x < 2:
            return 0
        i = self._block_start(x)
        block = self._decode(i, min(i + _BLOCK, self.count))
        return i + int(np.searchsorted(block, block.dtype.type(x), side="right"))

    def ranks(self, i: int, j: int) -> np.ndarray:
        """p_(i+1) ... p_j, the primes of 0-based ranks [i, j), freshly decoded; BoundsError past the table."""
        return self._decode(*self._span(i, j))

    def walk(self, i: int, j: int):
        """Yield runs ``(s, e, primes)`` whose ranks [s, e) cover [i, j), in order.

        Runs after the first start at ranks 1 + m*_RUN, where a block
        begins, so a walk reads each block once and decodes no prime it
        does not return but the at most 4095 before rank i in its block.
        ``primes`` holds ranks [s, min(e + 1, j)), so each run but the last
        holds the next one's first. Checked as ``ranks`` is.
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
        """First rank of the block holding x >= 2, whose first prime is <= x; 0 below block 0 (x < 3)."""
        b = int(np.searchsorted(self._skip, self._skip.dtype.type(x), side="right"))
        return 1 + (b - 1) * _BLOCK if b else 0

    def _decode(self, i: int, j: int) -> np.ndarray:
        """The primes of ranks [i, j), decoded from the start of rank i's block."""
        if i >= j:
            return np.empty(0, dtype=np.uint32)
        s = max(1 + (i - 1) // _BLOCK * _BLOCK, 0)  # rank 0, the prime 2, comes before block 0
        out = run = np.empty(j - s, dtype=np.uint32)
        if s == 0:  # 2 to 3 is the one step no half-gap holds
            out[0], run, s = 2, out[1:], 1
        if run.size:
            run[0] = self._skip[(s - 1) // _BLOCK]
            np.left_shift(self._half_gaps(s - 1, j - 2), 1, out=run[1:], dtype=np.uint32)
            np.cumsum(run, out=run)
        return out[out.size - (j - i) :]

    def _half_gaps(self, a: int, b: int) -> np.ndarray:
        """Half-gaps [a, b): a slice of those held in memory, or whole blocks of the file, each CRC-checked."""
        if isinstance(self._source, np.ndarray):
            return self._source[a:b]
        if a >= b:
            return np.empty(0, dtype=np.uint8)
        k0, k1 = a // _BLOCK, -(-b // _BLOCK)
        # a is a block start, as in every read of _decode and save; the last block may be short
        raw = os.pread(self._source, min(k1 * _BLOCK, self.count - 2) - a, _HEAD + a)
        view, crcs = memoryview(raw), self._crcs[k0 : k1 + 1].tolist()
        for k in range(k1 - k0):  # a block cut short, or not read at all, fails its CRC too
            if zlib.crc32(view[k * _BLOCK : (k + 1) * _BLOCK], crcs[k]) != crcs[k + 1]:
                raise OSError(f"prime cache changed after it was checked, in half-gap block {k0 + k}")
        return np.frombuffer(raw, dtype=np.uint8, count=b - a)

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
        """Boolean primality for every integer in [lo, hi), from one decode of the blocks it spans."""
        lo, hi = int(lo), int(hi)
        if lo < 0 or hi > self.limit + 1:
            raise BoundsError(f"window [{lo},{hi}) outside [0, {self.limit + 1})")
        out = np.zeros(max(hi - lo, 0), dtype=bool)
        if hi <= max(lo, 2):  # no prime in the window
            return out
        # the blocks holding lo and hi - 1 (hi may be 2^32, which no uint32 key holds)
        i, j = self._block_start(max(lo, 2)), self._block_start(hi - 1) + _BLOCK
        primes = self._decode(i, min(j, self.count))
        key = primes.dtype.type
        inside = primes[np.searchsorted(primes, key(lo)) : np.searchsorted(primes, key(hi - 1), side="right")]
        out[np.subtract(inside, lo, dtype=np.intp)] = True
        return out

    # -- cache file ----------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Write the cache file: MAGIC, <IQQ crc/limit/count, uint8 half-gaps.

        The header takes the CRC from the table's last block CRC, and the
        half-gaps stream in slices of 2^16 to a temporary file beside
        ``path``, which then replaces it in one step, so readers never see a
        partial file.
        """
        n = max(self.count - 2, 0)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(MAGIC + _HEADER.pack(int(self._crcs[-1]), self.limit, self.count))
                for a in range(0, n, _SAVE_RUN):
                    fh.write(self._half_gaps(a, min(a + _SAVE_RUN, n)))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path


def _index(body: bytes, reads) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """The one pass over a table's half-gaps, which load_table checks and every table keeps.

    ``reads`` yields the half-gaps as uint8 arrays of whole blocks, save the
    last. Returns ``(crcs, starts, size, zero)``: the running CRC-32 of
    ``body`` and the half-gaps at the start and at each block's end
    (uint32, ``crcs[-1]`` that of all); as uint64, the prime at each block's
    first rank, then the prime the last half-gap leads to (3 plus twice the
    half-gaps before each); the number of half-gaps; and whether one is 0.
    """
    crcs, sums, tail, size, zero = [zlib.crc32(body)], [np.zeros(1, dtype=np.uint64)], 0, 0, False
    for half in reads:
        for k in range(0, half.size, _BLOCK):
            crcs.append(zlib.crc32(half[k : k + _BLOCK], crcs[-1]))
        zero = zero or not half.all()
        # sums by block, in uint64 row by row; only the last read has a tail
        n = half.size // _BLOCK
        sums.append(half[: n * _BLOCK].reshape(n, _BLOCK).sum(axis=1, dtype=np.uint64))
        tail = int(half[n * _BLOCK :].sum(dtype=np.uint64))
        size += half.size
    sums.append(np.array([tail], dtype=np.uint64))
    return np.array(crcs, dtype=np.uint32), 3 + 2 * np.cumsum(np.concatenate(sums)), size, zero


def _segments(limit: int):
    """Yield ``(i0, flags)`` for the odds 3..limit, 2^20 at a time: odd index i0 + j is prime iff flags[j].

    Odd index i stands for 2i + 3. Each segment is copied from a wheel
    pattern, the odd multiples of 3..17 over one period of 255 255 odd
    indices (never longer than the odds it fills), from index i0 mod the
    period on; the first segment unmarks 3..17 themselves. Each prime
    19..isqrt(limit) then marks from its next multiple's offset, carried
    across segments in one int64 array and advanced by one vector step per
    segment. ``flags`` is one buffer, which the next segment overwrites.
    """
    n_odds = (limit - 1) // 2  # odds in [3, limit]
    wheel = np.zeros(min(n_odds, _WHEEL_PERIOD), dtype=bool)
    for p in _WHEEL:
        wheel[(p - 3) // 2 :: p] = True  # consecutive odd multiples of p sit p odd indices apart
    base = small_sieve(math.isqrt(limit))
    base = base[base > _WHEEL[-1]].astype(np.int64)
    first = (base * base - 3) // 2  # odd index of p^2, where p starts marking: increasing
    offset = first.copy()  # odd index of p's next multiple, less the segment's i0
    buf = np.empty(min(n_odds, SEGMENT_ODDS), dtype=bool)
    for i0 in range(0, n_odds, SEGMENT_ODDS):
        n = min(SEGMENT_ODDS, n_odds - i0)
        seg = buf[:n]  # True <=> composite
        r = i0 % _WHEEL_PERIOD
        head = min(wheel.size - r, n)
        seg[:head] = wheel[r : r + head]
        for j in range(head, n, wheel.size):
            seg[j : j + wheel.size] = wheel[: n - j]
        if i0 == 0:
            seg[[(p - 3) // 2 for p in _WHEEL if (p - 3) // 2 < n]] = False
        m = int(np.searchsorted(first, i0 + n))  # the primes whose squares lie below the segment's end
        for p, j in zip(base[:m].tolist(), offset[:m].tolist()):
            seg[j::p] = True
        # a marking prime's next multiple, past the segment, lies within p of its end
        offset -= n
        np.remainder(offset[:m], base[:m], out=offset[:m])
        yield i0, np.logical_not(seg, out=seg)


def build_table(limit: int) -> PrimeTable:
    """Sieve all primes <= limit into the half-gaps of their cache file, with O(segment) working memory.

    The primes of each segment of ``_segments`` (a wheel of 3..17, then
    every prime 19..isqrt(limit) from offsets carried across segments) go
    straight into one uint8 array of half-gaps, the differences of their
    odd indices, each segment's first taken from the last prime before it;
    ValueError for a half-gap above 255. No array of the primes is formed.

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

    # one array, shrunk in place at the end: pi(x) < 1.25506 x / log x
    # (Rosser and Schoenfeld 1962), + 2 for rounding. Its first byte is 3
    # less itself, 0, and goes; the half-gaps of the odd primes follow.
    gaps = np.empty(int(1.25506 * limit / math.log(limit)) + 2, dtype=np.uint8)
    k, last = 0, 0  # bytes written; the odd index of the last prime, 3's at first
    for i0, flags in _segments(limit):
        idx = np.flatnonzero(flags)
        ids = np.empty(idx.size + 1, dtype=np.uint32)
        ids[0] = last
        np.add(idx, i0, out=ids[1:], casting="unsafe")  # 2i + 3 <= limit < 2^32
        half = np.diff(ids)
        if half.max(initial=0) > 255:
            raise ValueError(f"half-gap above 255 after prime {2 * int(ids[np.argmax(half > 255)]) + 3}")
        gaps[k : k + half.size] = half
        k, last = k + half.size, int(ids[-1])
        del idx, ids, half  # before the next segment's indices exist
    # in place, without numpy's reference check: no view of gaps is alive
    # here, but a tracer (sys.settrace) holds frame references that fail it
    gaps.resize(k, refcheck=False)
    gaps = gaps[1:]
    gaps.flags.writeable = False
    steps = (gaps[a : a + _LOAD_READ] for a in range(0, gaps.size, _LOAD_READ))
    crcs, starts, _, _ = _index(struct.pack("<QQ", limit, k + 1), steps)
    return PrimeTable(limit, k + 1, crcs, starts, gaps)


def _reads(fh):
    """The rest of a file in _LOAD_READ-byte reads, each into one buffer, the last short."""
    buf = np.empty(_LOAD_READ, dtype=np.uint8)
    while (half := buf[: fh.readinto(buf)]).size == _LOAD_READ:
        yield half
    yield half


def load_table(path: str | Path) -> PrimeTable:
    """Load a PrimeTable from its cache file; ValueError if any check fails.

    One pass of _LOAD_READ-byte reads, ``_index``, runs every check before
    any prime is decoded, and gives the skip index and the running CRC-32 at
    the end of each block. The table keeps a descriptor of the file and
    reads its half-gaps only when a reader asks for them.
    """
    path = Path(path)
    with open(path, "rb", buffering=0) as fh:
        raw = fh.read(_HEAD)
        if raw[: len(MAGIC)] != MAGIC or len(raw) < _HEAD:
            raise ValueError(f"{path} is not a prime cache file (bad magic or truncated header)")
        crc, limit, count = _HEADER.unpack_from(raw, len(MAGIC))
        crcs, starts, size, zero = _index(raw[len(MAGIC) + 4 :], _reads(fh))
        if crcs[-1] != crc:
            raise ValueError(f"{path}: checksum mismatch")
        if limit >= LIMIT_CAP:
            raise ValueError(f"{path}: limit {limit} is not below 2^32")
        if count < 1 or size != max(count - 2, 0):
            raise ValueError(f"{path}: {size} half-gaps inconsistent with prime count {count}")
        if zero:
            raise ValueError(f"{path}: zero half-gap")
        # checked before any prime is decoded: a last prime past the limit would wrap in uint32
        last = int(starts[-1]) if count > 1 else 2
        if last > limit:
            raise ValueError(f"{path}: last prime {last} exceeds limit {limit}")
        # the file that passed the checks, whatever later replaces or removes its path
        fd = os.dup(fh.fileno())
    return PrimeTable(limit, count, crcs, starts, fd)


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
