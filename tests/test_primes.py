import functools
import hashlib
import os
import struct
import sys
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BIG_LIMIT, dense_sieve
from erdoslab.calibration import load_fixture
from erdoslab.errors import BoundsError
from erdoslab.gaps import empirical_parity_statistic
from erdoslab.series import oscillation_stats, verify_equivalence
from erdoslab.singular import OffsetTuple, _log_head
from erdoslab.primes import (
    _BLOCK,
    _HEAD,
    _RUN,
    MAGIC,
    build_table,
    cache_path,
    load_or_build,
    load_table,
    small_sieve,
)


def test_exhaustive_small():
    assert build_table(10).primes.tolist() == [2, 3, 5, 7]
    assert build_table(2).primes.tolist() == [2]
    assert build_table(3).primes.tolist() == [2, 3]


def test_limit_too_small():
    with pytest.raises(ValueError):
        build_table(1)


def test_against_trial_division(trial_division_primes):
    table = build_table(2000)
    assert np.array_equal(table.primes, trial_division_primes)
    assert table.pi(100) == 25
    assert table.pi(1000) == 168
    assert table.nth_prime(25) == 97
    assert table.nth_prime(31) - table.nth_prime(30) == 127 - 113


@pytest.mark.parametrize(
    "limit",
    [2, 3, 4, 5, 16, 17, 100, 1000, 65_536, 65_537, 100_000,
     # the first primes past the wheel of 3..17, and their squares
     19, 23, 289, 361,
     # a segment of 2^20 odds ends at 2^21 + 1: one, two and three segments,
     # the offsets carried across each edge
     2**21 + 1, 2**21 + 3, 2**21 + 5, 2**22 + 1, 3 * 2**21 + 7,
     # the wheel's period of 255 255 odd indices ends at 510 511
     510_509, 510_511, 510_513],
)
def test_segmented_equals_dense(limit):
    assert np.array_equal(build_table(limit).primes, dense_sieve(limit))
    assert np.array_equal(small_sieve(limit), dense_sieve(limit))


@pytest.mark.parametrize("limit", [-3, 0, 1])
def test_small_sieve_below_2_is_empty(limit):
    got = small_sieve(limit)
    assert got.dtype == np.uint32 and got.size == 0


def test_build_under_a_tracer():
    # a tracer's frame references used to fail the in-place shrink's reference check
    previous = sys.gettrace()
    sys.settrace(lambda *args: None)
    try:
        table = build_table(1000)
    finally:
        sys.settrace(previous)
    assert np.array_equal(table.primes, dense_sieve(1000))


@given(limit=st.integers(min_value=2, max_value=100_000))
@settings(max_examples=30, deadline=None)
def test_segmented_equals_dense_hypothesis(limit):
    assert np.array_equal(build_table(limit).primes, dense_sieve(limit))


def test_pi_nth_roundtrip(mid_table):
    t = mid_table
    for n in [1, 2, 3, 25, 1000, t.primes.size]:
        assert t.pi(t.nth_prime(n)) == n
    for x in [2, 10, 97, 1234, 2_000_000]:
        assert t.nth_prime(t.pi(x)) <= x


@given(n=st.integers(min_value=1, max_value=148_933))
@settings(max_examples=50, deadline=None)
def test_pi_nth_roundtrip_hypothesis(n):
    t = _shared()
    assert t.pi(t.nth_prime(n)) == n


_cached = None


def _shared():
    global _cached
    if _cached is None:
        _cached = build_table(2_000_000)
    return _cached


def test_pi_edges(mid_table):
    assert mid_table.pi(1) == 0
    assert mid_table.pi(2) == 1
    assert mid_table.pi(0) == 0
    assert mid_table.pi(-5) == 0  # no uint32 key holds -5
    with pytest.raises(BoundsError):
        mid_table.pi(2_000_001)


def test_nth_gap_edges(mid_table):
    assert mid_table.nth_prime(1) == 2
    assert mid_table.nth_prime(4) == 7
    with pytest.raises(BoundsError):
        mid_table.nth_prime(0)
    with pytest.raises(BoundsError):
        mid_table.nth_prime(mid_table.primes.size + 1)


def test_gaps_even_beyond_two(mid_table):
    gaps = np.diff(mid_table.primes[1:])
    assert (gaps % 2 == 0).all()
    assert (gaps > 0).all()


def test_pi_monotone(mid_table):
    xs = np.arange(0, 5000)
    vals = [mid_table.pi(int(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_pi_1e8(big_table):
    # published value, plus the independent dense-sieve cross-check at
    # a reduced limit
    assert big_table.pi(100_000_000) == 5_761_455
    assert big_table.pi(100_000) == dense_sieve(100_000).size


def test_is_prime_range(mid_table, trial_division_primes):
    win = mid_table.is_prime_range(0, 2001)
    oracle = np.zeros(2001, dtype=bool)
    oracle[trial_division_primes] = True
    assert np.array_equal(win, oracle)
    # windows at odd/even boundaries
    for lo, hi in [(0, 1), (1, 2), (2, 3), (89, 98), (90, 97), (999, 1001)]:
        assert np.array_equal(mid_table.is_prime_range(lo, hi), oracle[lo:hi])
    with pytest.raises(BoundsError):
        mid_table.is_prime_range(0, 2_000_002)


def test_upto_first(mid_table, trial_division_primes):
    n = mid_table.primes.size
    assert mid_table.upto(2000).tolist() == trial_division_primes.tolist()
    assert mid_table.ranks(0, trial_division_primes.size).tolist() == trial_division_primes.tolist()
    assert mid_table.upto(96).tolist() == mid_table.upto(97)[:-1].tolist() == mid_table.ranks(0, 24).tolist()
    assert mid_table.upto(1).size == mid_table.ranks(0, 0).size == 0
    assert mid_table.upto(mid_table.limit).size == mid_table.ranks(0, n).size == n
    with pytest.raises(BoundsError, match="need primality up to 2000001 > table limit 2000000"):
        mid_table.upto(mid_table.limit + 1)
    with pytest.raises(BoundsError, match=f"need p_{n + 1} but table holds only {n} primes"):
        mid_table.ranks(0, n + 1)


def test_contains(mid_table):
    assert 2 in mid_table
    assert 97 in mid_table
    assert 1 not in mid_table
    assert 100 not in mid_table
    assert -3 not in mid_table


@functools.cache
def _dense_is_prime(limit: int) -> np.ndarray:
    """Oracle: one boolean per integer in [0, limit], from the dense sieve, not from primes."""
    out = np.zeros(limit + 1, dtype=bool)
    out[dense_sieve(limit)] = True
    return out


@given(lo=st.integers(min_value=0, max_value=2_000_001), width=st.integers(-50, 5000))
@settings(max_examples=200, deadline=None)
def test_is_prime_range_matches_bitset_oracle(mid_table, lo, width):
    hi = min(max(lo + width, 0), mid_table.limit + 1)
    assert np.array_equal(mid_table.is_prime_range(lo, hi), _dense_is_prime(mid_table.limit)[lo:hi])


def test_is_prime_range_edge_windows(mid_table):
    end = mid_table.limit + 1
    windows = [(0, 0), (3, 3), (end, end), (10, 5), (end, 0), (0, end), (end - 97, end)]
    windows += [(lo, hi) for lo in range(4) for hi in range(9)]
    for lo, hi in windows:
        got = mid_table.is_prime_range(lo, hi)
        assert got.dtype == bool
        assert np.array_equal(got, _dense_is_prime(mid_table.limit)[lo:hi]), (lo, hi)


def test_contains_matches_bitset_oracle(mid_table):
    end = mid_table.limit + 1
    for v in [*range(2001), *range(end - 100, end)]:
        assert (v in mid_table) == bool(_dense_is_prime(mid_table.limit)[v]), v


def test_cache_roundtrip(tmp_path):
    table = build_table(12_345)
    path = table.save(tmp_path / "t.bin")
    loaded = load_table(path)
    assert loaded.limit == table.limit
    assert np.array_equal(loaded.primes, table.primes)
    # byte-identical re-save
    path2 = loaded.save(tmp_path / "t2.bin")
    assert path.read_bytes() == path2.read_bytes()
    assert path.read_bytes()[: len(MAGIC)] == MAGIC


@pytest.mark.parametrize(
    "limit",
    # tiny tables, a 2^20-odd sieve-segment edge, the 2^16-th half-gap (the
    # 65537th to 65539th primes) and tables spanning many encoder chunks
    [2, 3, 4, 17, 18, 19, 821647, 821651, 821663, *range(2**21 + 1, 2**21 + 6), 2**24 + 1, 2**24 + 3],
)
def test_cache_roundtrip_at_decoder_edges(tmp_path, limit):
    table = build_table(limit)
    assert np.array_equal(table.primes, dense_sieve(limit))
    path = table.save(tmp_path / "t.bin")
    loaded = load_table(path)
    assert loaded.limit == limit
    assert loaded.primes.dtype == np.uint32
    assert np.array_equal(loaded.primes, table.primes)
    assert loaded.save(tmp_path / "t2.bin").read_bytes() == path.read_bytes()


def test_load_peak_memory(big_table, tmp_path):
    # the load streams the 10.1 MB file through one read buffer and keeps
    # the skip index and the block CRCs, not the half-gaps
    path = big_table.save(tmp_path / "big.bin")
    tracemalloc.start()
    try:
        loaded = load_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.primes, big_table.primes)
    assert peak < 2 << 20


def test_scans_of_a_loaded_table_decode_no_whole_array(big_table, tmp_path):
    # the paper's check up to x = 1e7 reads the table in runs: beyond the
    # file's bytes it holds, less than a quarter of the decoded array
    path = big_table.save(tmp_path / "big.bin")
    tracemalloc.start()
    try:
        verify_equivalence(load_table(path), [10**5, 10**6, 10**7])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size + big_table.primes.nbytes / 4
    # the calibrated oscillation statistics fold one walk run at a time (whole
    # chunks of 2^20 primes and their longdouble copies peaked at 37.8 MB)
    table = load_table(path)
    tracemalloc.start()
    try:
        got = oscillation_stats(table, 10**5, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = load_fixture()["series"]
    assert got == (want["oscillation_raw_tv"], want["oscillation_averaged_tv"])
    assert peak < 4 << 20


def test_build_peak_memory():
    # one array of half-gaps sized by the pi(x) bound and shrunk in place, no
    # array of the primes: the table holds about the count - 2 bytes of its file
    tracemalloc.start()
    try:
        table = build_table(50_000_000)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.count - 2 <= current < 1.01 * (table.count - 2)
    assert table.primes.size == 3_001_134
    assert current < 1.01 * table.primes.nbytes
    assert peak < 1.5 * table.primes.nbytes


def test_limit_of_2_to_32_is_refused_before_allocating():
    tracemalloc.start()
    try:
        for limit in (2**32, 2 * 10**10):
            with pytest.raises(BoundsError, match=r"2\^32"):
                build_table(limit)
            with pytest.raises(BoundsError, match=r"2\^32"):
                small_sieve(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _hand_written(path, limit, half):
    """A PRIMECACHE2 file of the primes 2, 3 and those the uint8 half-gaps ``half`` lead to."""
    body = struct.pack("<QQ", limit, len(half) + 2) + np.asarray(half, dtype=np.uint8).tobytes()
    path.write_bytes(MAGIC + zlib.crc32(body).to_bytes(4, "little") + body)
    return path


def test_queries_at_the_top_of_uint32(tmp_path):
    top = 4_294_967_291  # the largest prime below 2^32
    half = np.full(8_421_505, 255, dtype=np.uint8)
    half[-1] = 124  # 3 + 2 * (8 421 504 * 255 + 124) = top
    t = load_table(_hand_written(tmp_path / "top.bin", 2**32 - 1, half))
    assert t.nth_prime(t.count) == top
    assert t.pi(2**32 - 1) == t.count and t.pi(top - 1) == t.count - 1
    assert top in t and 2**32 - 1 not in t
    # hi = 2^32 is one past the limit, a key no uint32 holds
    assert np.flatnonzero(t.is_prime_range(2**32 - 10, 2**32)).tolist() == [top - (2**32 - 10)]
    assert t.is_prime_range(2**32, 2**32).size == 0


@pytest.fixture(scope="module")
def table_5e7():
    return build_table(50_000_000)


_QUERIES = {  # each touches the primes up to about 1e7 of a table 5 times longer
    "pi": lambda t: t.pi(10**7),
    "upto": lambda t: t.upto(10**7),
    "first": lambda t: t.ranks(0, 664_579),  # the first primes, by count: no key
    "in": lambda t: 10**7 + 19 in t,
    "is_prime_range": lambda t: t.is_prime_range(10**7, 10**7 + 2**18),
    "empirical_parity_statistic": lambda t: empirical_parity_statistic(t, 10**7, 1.0, 10**4, 42),
    "singular._log_head": lambda t: _log_head(OffsetTuple([0, 2, 6]), t.primes, 3),
}


@pytest.mark.parametrize("query", _QUERIES.values(), ids=_QUERIES.keys())
def test_queries_copy_no_table(table_5e7, query):
    # numpy searches a uint32 array for a key of any other dtype, a Python
    # int included, by first converting the whole array to int64
    query(table_5e7)  # imports and caches on the first call are not the query's
    tracemalloc.start()
    try:
        query(table_5e7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table_5e7.primes.nbytes / 4


def test_cache_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOTACACHE..0000000000000")
    with pytest.raises(ValueError):
        load_table(p)


def test_build_rejects_a_half_gap_above_255(tmp_path, monkeypatch):
    # a sieve's odd indices only rise, so its one unrepresentable half-gap is
    # one above 255: the flags of 3 and of 515, 256 odd indices on
    flags = np.zeros(499, dtype=bool)
    flags[[0, 256]] = True
    monkeypatch.setattr("erdoslab.primes._segments", lambda limit: iter([(0, flags)]))
    with pytest.raises(ValueError, match="above 255 after prime 3"):
        build_table(1000)
    with pytest.raises(ValueError, match="above 255"):
        load_or_build(1000, tmp_path)
    assert not any(tmp_path.iterdir())


def test_save_keeps_half_gap_255(tmp_path):
    path = _hand_written(tmp_path / "t.bin", 1000, [255])
    table = load_table(path)
    assert table.primes.tolist() == [2, 3, 513]
    assert table.save(tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_cache_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ERDOS_CACHE_DIR", str(tmp_path))
    assert cache_path(1000).parent == tmp_path
    t = load_or_build(1000)
    assert (tmp_path / "primes-1000.bin").exists()
    t2 = load_or_build(1000)
    assert np.array_equal(t.primes, t2.primes)


# -- a loaded table against the dense array it encodes ---------------------

_ORACLE_LIMIT = 400_000  # 33860 primes: many skip blocks, and walks of 2^14 cross two


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    """The dense primes to 400000 and their cache file."""
    dense = build_table(_ORACLE_LIMIT)
    return dense.primes, dense.save(tmp_path_factory.mktemp("oracle") / "t.bin")


def _edge_ranks(n):
    # rank r + 2 follows half-gap r, so ranks _BLOCK + 1 and + 2 straddle the first block end
    crc = range(_BLOCK - 1, _BLOCK + 4)
    return sorted({0, 1, 2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, *crc, 2**14 - 1, 2**14, 2**14 + 1, n - 1})


def _check_rank_reads(t, primes, a, b):
    got = t.ranks(a, b)
    assert got.dtype == np.uint32 and np.array_equal(got, primes[a:b]), (a, b)
    # contiguous non-empty runs cover [a, b), each after the first starting at
    # 1 + m*_RUN and holding the next one's first prime
    runs = list(t.walk(a, b))
    edges = [a] + [e for _, e, _ in runs]
    assert [s for s, _, _ in runs] == edges[:-1] and edges[-1] == b, (a, b)
    assert all(s < e for s, e, _ in runs), (a, b)
    assert all((s - 1) % _RUN == 0 for s, _, _ in runs[1:]), (a, b)
    assert all(np.array_equal(p, primes[s : min(e + 1, b)]) for s, e, p in runs), (a, b)


def _check_window(t, lo, hi):
    hi = min(hi, _ORACLE_LIMIT + 1)
    assert np.array_equal(t.is_prime_range(lo, hi), _dense_is_prime(_ORACLE_LIMIT)[lo:hi]), (lo, hi)


def _check_value_reads(t, primes, v):
    if v <= _ORACLE_LIMIT:
        assert t.pi(v) == np.count_nonzero(primes <= v), v
        assert (v in t) == (v >= 0 and bool(_dense_is_prime(_ORACLE_LIMIT)[v])), v


def test_loaded_table_reads_at_the_edges(oracle, tmp_path):
    primes, path = oracle
    t = load_table(path)
    n = primes.size
    for r in _edge_ranks(n):
        for d in (0, 1, 2, _BLOCK, 2**14 + 1):
            _check_rank_reads(t, primes, r, min(r + d, n))
        assert t.nth_prime(r + 1) == primes[r]
        if r + 1 < n:
            assert t.nth_prime(r + 2) - t.nth_prime(r + 1) == primes[r + 1] - primes[r]
        for v in (int(primes[r]) - 1, int(primes[r]), int(primes[r]) + 1):
            _check_value_reads(t, primes, v)
            for w in (1, 64):
                _check_window(t, v, v + w)
    for v in (-3, 0, 1, 2, 3, 4, 5, _ORACLE_LIMIT):
        _check_value_reads(t, primes, v)
    end = _ORACLE_LIMIT + 1
    spans = (int(primes[_BLOCK]) - 1, int(primes[4 * _BLOCK]) + 1)  # blocks 0 to 4
    for lo, hi in [(0, end), (0, 6), (2, 3), (end - 97, end), (end, end), spans]:
        assert np.array_equal(t.is_prime_range(lo, hi), _dense_is_prime(_ORACLE_LIMIT)[lo:hi])
    with pytest.raises(BoundsError, match=f"need p_{n + 1} but table holds only {n} primes"):
        t.ranks(0, n + 1)
    with pytest.raises(BoundsError, match=f"need p_{n + 1} but table holds only {n} primes"):
        next(t.walk(n - 5, n + 1))
    for i, j in ((-2, 4), (5, 3)):  # as ranks does, in either form
        with pytest.raises(ValueError, match="is not ordered"):
            next(t.walk(i, j))
    # a loaded table writes the file it came from, without decoding it whole
    assert t.save(tmp_path / "again.bin").read_bytes() == path.read_bytes()
    assert t._primes is None  # every read above ran on the half-gaps
    assert np.array_equal(t.upto(_ORACLE_LIMIT), primes) and np.array_equal(t.ranks(0, n), primes)


@given(x=st.integers(-3, _ORACLE_LIMIT), width=st.integers(0, 3000), i=st.integers(0, 33_860),
       length=st.integers(0, 40_000))
@settings(max_examples=100, deadline=None)
def test_loaded_table_reads_match_dense(oracle, x, width, i, length):
    primes, path = oracle
    t = load_table(path)
    _check_value_reads(t, primes, x)
    lo, hi = max(x, 0), min(max(x, 0) + width, _ORACLE_LIMIT + 1)
    assert np.array_equal(t.is_prime_range(lo, hi), _dense_is_prime(_ORACLE_LIMIT)[lo:hi])
    a = min(i, primes.size)
    _check_rank_reads(t, primes, a, min(a + length, primes.size))
    assert t.nth_prime(max(a, 1)) == primes[max(a, 1) - 1]
    assert t._primes is None


# -- a loaded table reads the file it checked, block by checked block -------


def _check_all_reads(t, primes):
    for r in _edge_ranks(primes.size):
        _check_rank_reads(t, primes, r, min(r + _BLOCK + 1, primes.size))
        for v in (int(primes[r]) - 1, int(primes[r]), int(primes[r]) + 1):
            _check_value_reads(t, primes, v)
    assert np.array_equal(t.ranks(0, primes.size), primes)


def test_loaded_table_outlives_its_file(oracle, tmp_path):
    # a concurrent save replaces the cache with os.replace, and a clean-up may
    # remove it: the table reads the inode that passed the checks, and of it
    # only the bytes that were checked
    primes, src = oracle
    path = tmp_path / "t.bin"
    path.write_bytes(src.read_bytes())
    t = load_table(path)
    with open(path, "ab") as fh:
        fh.write(b"\x01" * 100)
    _check_all_reads(t, primes)
    build_table(1000).save(path)
    _check_all_reads(t, primes)
    path.unlink()
    _check_all_reads(t, primes)


def _rewrite_byte(path, offset):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        old = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([old[0] ^ 2]))


@pytest.mark.parametrize("block", [0, 3, 8], ids=["first block", "inner block", "short last block"])
def test_a_block_changed_after_the_load_raises_oserror(oracle, tmp_path, block):
    primes, src = oracle
    path = tmp_path / "t.bin"
    path.write_bytes(src.read_bytes())
    t = load_table(path)
    half = primes.size - 2
    assert (half - 1) // _BLOCK == 8  # block 8 is the last, and short
    _rewrite_byte(path, _HEAD + min(block * _BLOCK + 17, half - 1))
    first = 2 + block * _BLOCK  # the ranks whose half-gaps block holds
    last = min(first + _BLOCK, primes.size)
    # the blocks before still read, and every reader of the changed one raises
    assert np.array_equal(t.ranks(0, first), primes[:first])
    for read in (
        lambda: t.ranks(first, last),
        lambda: t.pi(int(primes[first + 100])),
        lambda: t.nth_prime(first + 100),
        lambda: list(t.walk(0, primes.size)),
        lambda: t.primes,
    ):
        with pytest.raises(OSError, match="changed after it was checked"):
            read()


def test_a_loaded_walk_reads_each_half_gap_once(oracle, monkeypatch):
    # runs start where a block starts, so no block is read twice: a walk
    # of every rank reads the count - 2 half-gaps once, and one from an
    # unaligned rank at most the blocks at its two ends besides
    primes, path = oracle
    t = load_table(path)
    read, pread = [], os.pread
    monkeypatch.setattr(os, "pread", lambda fd, n, at: read.append(n) or pread(fd, n, at))

    def bytes_read(i, j):
        read.clear()
        runs = list(t.walk(i, j))
        assert len(runs) > 1
        assert np.array_equal(np.concatenate([p[: e - s] for s, e, p in runs]), primes[i:j])
        return sum(read)

    assert bytes_read(0, primes.size) == primes.size - 2
    assert bytes_read(9, 20_000) <= 20_000 - 9 + 2 * _BLOCK


def test_a_file_cut_short_after_the_load_raises_oserror(oracle, tmp_path):
    primes, src = oracle
    path = tmp_path / "t.bin"
    path.write_bytes(src.read_bytes())
    t = load_table(path)
    os.truncate(path, _HEAD + 5 * _BLOCK + 100)
    assert np.array_equal(t.ranks(0, 2 + 5 * _BLOCK), primes[: 2 + 5 * _BLOCK])
    with pytest.raises(OSError, match="changed after it was checked"):
        t.ranks(2 + 5 * _BLOCK, 3 + 5 * _BLOCK)
    with pytest.raises(OSError, match="changed after it was checked"):
        t.pi(_ORACLE_LIMIT)


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd")
def test_loads_leave_no_descriptor_open(oracle, tmp_path):
    primes, src = oracle
    before = _open_fds()
    for _ in range(200):
        t = load_table(src)
        assert t.pi(_ORACLE_LIMIT) == primes.size
    del t
    assert _open_fds() == before
    raw = src.read_bytes()
    corrupt = {
        "bad magic": raw[:20],
        "checksum": raw[:100] + bytes([raw[100] ^ 4]) + raw[101:],
        "inconsistent": raw[: len(MAGIC)] + zlib.crc32(raw[len(MAGIC) + 4 : -5]).to_bytes(4, "little")
        + raw[len(MAGIC) + 4 : -5],
    }
    path = tmp_path / "bad.bin"
    for _ in range(50):
        for reason, data in corrupt.items():
            path.write_bytes(data)
            with pytest.raises(ValueError, match=reason):
                load_table(path)
    assert _open_fds() == before


# -- save streams the PRIMECACHE2 bytes, pinned ------------------------------

_CACHE_SHA256 = {
    1000: "ed04012ad41fd0cd95cda3585fbc276fe1e6d69cba88c7e163fc58418c73b65f",
    2**21 + 1: "7b144e3d67280f4672e747084b20cf48edce15e769140d168be429e4e0a29c50",
    BIG_LIMIT: "0d0bb7c85f331dfa8dabd0369acd11e7957bbdfc80479c4e5cf9442f76d218d5",
}


@pytest.mark.parametrize("limit", _CACHE_SHA256)
def test_cache_bytes_are_pinned(request, tmp_path, limit):
    # a sieved table writes its half-gaps, and its loaded re-save copies the checked blocks
    table = request.getfixturevalue("big_table") if limit == BIG_LIMIT else build_table(limit)
    path = table.save(tmp_path / "t.bin")
    loaded = load_table(path)
    again = loaded.save(tmp_path / "again.bin")
    for p in (path, again):
        assert hashlib.sha256(p.read_bytes()).hexdigest() == _CACHE_SHA256[limit], p.name
    # one pass over the half-gaps indexes the sieved table and checks its file
    assert np.array_equal(table._skip, loaded._skip) and np.array_equal(table._crcs, loaded._crcs)


def _save_peak(table, path):
    tracemalloc.start()
    try:
        table.save(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_of_a_sieved_table_streams(big_table, tmp_path):
    # the 10.1 MB of half-gaps go to the file one slice of 2^16 at a time
    assert _save_peak(big_table, tmp_path / "big.bin") < 2 << 20


def test_save_of_a_loaded_table_copies_its_blocks(big_table, tmp_path):
    path = big_table.save(tmp_path / "big.bin")
    t = load_table(path)
    assert _save_peak(t, tmp_path / "again.bin") < 1 << 20
    assert t._primes is None  # no prime decoded
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_save_of_a_file_changed_after_the_load_writes_nothing(oracle, tmp_path):
    _, src = oracle
    path = tmp_path / "t.bin"
    path.write_bytes(src.read_bytes())
    t = load_table(path)
    _rewrite_byte(path, _HEAD + 3 * _BLOCK + 17)
    with pytest.raises(OSError, match="changed after it was checked"):
        t.save(tmp_path / "again.bin")
    assert [p.name for p in tmp_path.iterdir()] == ["t.bin"]  # neither the target nor its .tmp


def test_load_or_build_rebuilds_a_cache_removed_during_its_load(tmp_path, monkeypatch):
    # a concurrent clean-up may unlink the cache between the lookup and the open
    path = build_table(1000).save(cache_path(1000, tmp_path))
    checked = load_table

    def unlink_then_load(p):
        path.unlink()
        return checked(p)

    monkeypatch.setattr("erdoslab.primes.load_table", unlink_then_load)
    t = load_or_build(1000, tmp_path)
    assert np.array_equal(t.primes, dense_sieve(1000))
    assert np.array_equal(load_table(path).primes, t.primes)


# -- a sieved table reads through the same skip index -------------------------


@pytest.fixture(scope="module")
def sieved():
    """A sieved table to 400000 and the dense sieve's primes."""
    return build_table(_ORACLE_LIMIT), dense_sieve(_ORACLE_LIMIT)


def test_sieved_table_reads_at_the_edges(sieved):
    t, primes = sieved
    n = primes.size
    # every block starts at rank 1 + b * _BLOCK: pi searches the index, then one block
    for r in sorted({*_edge_ranks(n), *range(0, n, _BLOCK), *range(1, n, _BLOCK), *range(2, n, _BLOCK)}):
        for d in (0, 1, 2, _BLOCK):
            _check_rank_reads(t, primes, r, min(r + d, n))
        for v in (int(primes[r]) - 1, int(primes[r]), int(primes[r]) + 1):
            _check_value_reads(t, primes, v)
            for w in (1, 64):
                _check_window(t, v, v + w)
    for v in (-3, 0, 1, 2, 3, 4, 5, _ORACLE_LIMIT):
        _check_value_reads(t, primes, v)
    _check_window(t, int(primes[_BLOCK]) - 1, int(primes[4 * _BLOCK]) + 1)  # blocks 0 to 4
    for i, j in ((-2, 4), (5, 3)):  # as ranks does, in either form
        with pytest.raises(ValueError, match="is not ordered"):
            next(t.walk(i, j))
    for limit in (2, 3, 4, 5):  # tables of one and of two primes hold no half-gap
        small, dense = build_table(limit), dense_sieve(limit)
        for v in range(-1, limit + 1):
            assert small.pi(v) == np.count_nonzero(dense <= v), (limit, v)


@given(x=st.integers(-3, _ORACLE_LIMIT), width=st.integers(0, 3000), i=st.integers(0, 33_860),
       length=st.integers(0, 40_000))
@settings(max_examples=100, deadline=None)
def test_sieved_table_reads_match_dense(sieved, x, width, i, length):
    t, primes = sieved
    _check_value_reads(t, primes, x)
    lo, hi = max(x, 0), min(max(x, 0) + width, _ORACLE_LIMIT + 1)
    assert np.array_equal(t.is_prime_range(lo, hi), _dense_is_prime(_ORACLE_LIMIT)[lo:hi])
    a = min(i, primes.size)
    _check_rank_reads(t, primes, a, min(a + length, primes.size))
