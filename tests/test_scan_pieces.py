"""The piecewise compensated scan against the whole-chunk scan it replaced.

The oracles are the scan (``conftest._chunk_scan``), the term producers
and the checkpoint builder as they were before pieces: each chunk became
one array of signed terms and one longdouble ``cumsum``. They read the
chunk constants from ``series`` when called, so a monkeypatch shrinks both
sides alike, and values and compensations must agree bit for bit.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _chunk_scan
from erdoslab import primes as primes_mod
from erdoslab import series
from erdoslab.gaps import KINDS, GapSeriesConfig, gap_series_partial
from erdoslab.primes import build_table
from erdoslab.series import (
    _as_phase,
    _block_sums,
    _phase_powers,
    checkpoint_indices,
    erdos_partial,
    oscillation_stats,
    parity_partial,
)

TABLE = build_table(40_000)
E12 = complex(math.cos(2 * math.pi / 12), math.sin(2 * math.pi / 12))
_LD = np.longdouble


def _set_checkpoint_indices(start, stop, ratio=1.25, dense_windows=(), explicit=None):
    """Oracle: the checkpoint builder that collected its marks in a Python set.

    It rejects a reversed dense window, as ``checkpoint_indices`` does.
    """
    if stop < start:
        raise ValueError(f"stop={stop} precedes start={start}")
    marks = set()
    if explicit is not None:
        for i in np.asarray(explicit, dtype=np.int64):
            if not start <= i <= stop:
                raise ValueError(f"explicit checkpoint {i} outside [{start}, {stop}]")
            marks.add(int(i))
    else:
        c = start
        while c < stop:
            marks.add(c)
            c = max(c + 1, int(math.ceil(c * ratio)))
    marks.add(stop)
    for lo, hi in dense_windows:
        if int(lo) > int(hi):
            raise ValueError(f"dense window ({int(lo)}, {int(hi)}) has lo > hi")
        lo, hi = max(int(lo), start), min(int(hi), stop)
        marks.update(range(lo, hi + 1))
    return np.array(sorted(marks), dtype=np.int64)


def _is_sign(phase):
    return phase.imag == 0.0 and phase.real in (1.0, -1.0)


def _chunk_erdos_terms(table, phase, first, last):
    """Oracle: whole chunks (a, t) of phase^n * n / p_n."""
    if _is_sign(phase):
        for a in range(first, last + 1, series._REAL_CHUNK):
            b = min(a + series._REAL_CHUNK, last + 1)
            t = np.arange(a, b, dtype=np.float64) / table.primes[a - 1 : b - 1]
            if phase.real == -1.0:
                t[(a + 1) % 2 :: 2] *= -1.0
            yield a, t
        return
    carry = 1.0 + 0.0j
    for a in range(1, last + 1, series.RENORM_STEPS):
        b = min(a + series.RENORM_STEPS, last + 1)
        pw, carry = _phase_powers(phase, carry, b - a)
        lo = max(a, first)
        if lo < b:
            base = np.arange(lo, b, dtype=np.float64) / table.primes[lo - 1 : b - 1]
            yield lo, pw[lo - a :] * base


def _chunk_erdos_partial(table, n_max, phase, checkpoints=None, dense_windows=(), ratio=1.25):
    phase = _as_phase(phase)
    cps = _set_checkpoint_indices(1, n_max, ratio, dense_windows, checkpoints)
    chunks = ((np.arange(a, a + t.size), t) for a, t in _chunk_erdos_terms(table, phase, 1, n_max))
    return _chunk_scan(cps, chunks, phase)


def _chunk_parity_blocks(table, m_max, checkpoints, chunk):
    """Oracle: all blocks of one chunk of k at once, the head joined to chunk 0."""
    cutoff = series._BLOCK_CUTOFF
    cut = min(cutoff, m_max + 1)
    m = np.arange(2, cut, dtype=np.float64)
    head = (np.arange(2, cut), np.cumsum(table.is_prime_range(2, cut)), 1.0 / (m * np.log(m)))
    if m_max < cutoff:
        yield head
        return
    primes = table.primes
    j0, j1 = table.pi(cutoff), table.pi(m_max)
    splits = checkpoints[checkpoints >= cutoff] + 1
    for q in range((j1 - 1) // chunk + 1):
        lo, hi = max(j0, 1 + q * chunk), min(j1, (q + 1) * chunk)
        edges = np.empty(hi - lo + 2, dtype=np.int64)
        edges[:-1] = primes[lo - 1 : hi]
        edges[-1] = primes[hi] if hi < j1 else m_max + 1
        if lo == j0:
            edges[0] = cutoff
        k = np.arange(lo, hi + 1)
        s = splits[(splits > edges[0]) & (splits < edges[-1])]
        pos = np.searchsorted(edges, s)
        keep = edges[pos] != s
        s, pos = s[keep], pos[keep]
        edges = np.insert(edges, pos, s)
        k = np.insert(k, pos, k[pos - 1])
        blocks = (edges[1:] - 1, k, _block_sums(edges))
        if q == 0:
            blocks = tuple(np.concatenate(p) for p in zip(head, blocks))
        yield blocks


def _chunk_parity_partial(table, m_max, phase, checkpoints=None, dense_windows=(), ratio=1.25):
    phase = _as_phase(phase)
    cps = _set_checkpoint_indices(2, m_max, ratio, dense_windows, checkpoints)
    real = _is_sign(phase)
    chunk = series._REAL_CHUNK if real else series.RENORM_STEPS

    def chunks():
        carry = 1.0 + 0.0j
        for ends, k, sums in _chunk_parity_blocks(table, m_max, cps, chunk):
            if not real:
                pw, carry = _phase_powers(phase, carry, chunk)
                sums = pw[(k - 1) % chunk] * sums
            elif phase.real == -1.0:
                sums[(k & 1) == 1] *= -1.0
            yield ends, sums

    return _chunk_scan(cps, chunks(), phase)


def _chunk_gap_series_partial(table, config, n_max):
    start = config.start_index
    cps = _set_checkpoint_indices(start, n_max)

    def chunks():
        for a in range(start, n_max + 1, series._REAL_CHUNK):
            b = min(a + series._REAL_CHUNK, n_max + 1)
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
            if config.alternating:
                t[(a + 1) % 2 :: 2] *= -1.0
            yield idx, t

    return _chunk_scan(cps, chunks(), -1.0 if config.alternating else 1.0)


def _chunk_oscillation_stats(table, n_lo, n_hi):
    raw = _LD(0.0)
    avg = _LD(0.0)
    prev_term = None
    for _, t in _chunk_erdos_terms(table, -1.0, n_lo + 1, n_hi):
        raw += np.abs(t).astype(_LD).sum()
        with_prev = np.empty(t.size + 1, dtype=np.float64)
        with_prev[0] = prev_term if prev_term is not None else 0.0
        with_prev[1:] = t
        pair = np.abs(with_prev[1:] + with_prev[:-1]) / 2.0
        start = 0 if prev_term is not None else 1
        avg += pair[start:].astype(_LD).sum()
        prev_term = float(t[-1])
    return float(raw), float(avg)


def _assert_same_bits(got, want):
    assert np.array_equal(got.indices, want.indices)
    assert got.values.view(np.uint64).tolist() == want.values.view(np.uint64).tolist()
    assert got.compensations.view(np.uint64).tolist() == want.compensations.view(np.uint64).tolist()
    assert got.abs_term_total == pytest.approx(want.abs_term_total, rel=1e-12)


@pytest.fixture
def small_pieces(monkeypatch):
    """Pieces (and walk runs) of 5 terms in chunks of 24 (phases +-1) or 20 (other phases).

    The parity series sums per gap from 50 on; pi(50) = 15 is below both
    chunk lengths, so the per-integer head stays in chunk 0.
    """
    monkeypatch.setattr(series, "_SUB", 5)
    monkeypatch.setattr(primes_mod, "_RUN", 5)
    monkeypatch.setattr(series, "_REAL_CHUNK", 24)
    monkeypatch.setattr(series, "RENORM_STEPS", 20)
    monkeypatch.setattr(series, "_BLOCK_CUTOFF", 50)


PHASES = {"-1": -1.0, "+1": 1.0, "i": 1j, "e(1/12)": E12}


@pytest.mark.parametrize("phase", ["-1", "+1", "i"])
def test_erdos_pieces_match_chunks(small_pieces, phase):
    n_max = 2000
    # the last term of a piece (5, 10), of a chunk (20, 24, 40, 48), the
    # first of the next one, and a dense window over several of each
    cps = np.array([1, 5, 6, 10, 11, 20, 21, 24, 25, 40, 41, 48, 49, 999, n_max])
    for kw in ({}, {"checkpoints": cps, "dense_windows": ((90, 130),)}):
        got = erdos_partial(TABLE, n_max, PHASES[phase], **kw)
        _assert_same_bits(got, _chunk_erdos_partial(TABLE, n_max, PHASES[phase], **kw))


@pytest.mark.parametrize("phase", list(PHASES))
def test_parity_pieces_match_chunks(small_pieces, phase):
    m_max = TABLE.limit
    primes = TABLE.primes
    p, q = int(primes[1000]), int(primes[1001])  # p_1001 and p_1002
    assert q - p >= 4
    # pieces of k = 15 ... 19 and 20 ... 24 end in the blocks before p_20 and
    # p_25; chunks end before p_21 and p_41 (complex) or p_25 and p_49 (+-1)
    edges = [int(primes[j - 1]) for j in (16, 20, 21, 25, 26, 41, 49, 1001)]
    cps = sorted({2, 49, 50, 51, *edges, *(m - 1 for m in edges), m_max})
    for kw in ({}, {"checkpoints": np.array(cps), "dense_windows": ((p - 3, q + 3), (40, 60))}):
        got = parity_partial(TABLE, m_max, PHASES[phase], **kw)
        _assert_same_bits(got, _chunk_parity_partial(TABLE, m_max, PHASES[phase], **kw))


@pytest.mark.parametrize("m_max", [2, 3, 49, 50, 51, 60, 200])
def test_short_parity_pieces_match_chunks(small_pieces, m_max):
    for phase in (-1.0, 1j):
        _assert_same_bits(
            parity_partial(TABLE, m_max, phase), _chunk_parity_partial(TABLE, m_max, phase)
        )


@pytest.mark.parametrize("kind", KINDS)
def test_gap_pieces_match_chunks(small_pieces, kind):
    cfg = GapSeriesConfig(kind=kind, theta=0.5 if kind == "theta_family" else 1.0)
    got = gap_series_partial(TABLE, cfg, 3000)
    _assert_same_bits(got, _chunk_gap_series_partial(TABLE, cfg, 3000))


def test_oscillation_stats_match_chunks(small_pieces):
    for lo, hi in ((1, 2), (1, 100), (7, 3000), (100, 160)):
        got = oscillation_stats(TABLE, lo, hi)
        assert np.array(got).view(np.uint64).tolist() == (
            np.array(_chunk_oscillation_stats(TABLE, lo, hi)).view(np.uint64).tolist()
        )


def test_default_oscillation_stats_match_chunks(big_table):
    # seeded ranges longer than a chunk of 2^20 terms, so that each crosses
    # the oracle's chunk edges and many walk runs
    rng = np.random.default_rng(27)
    for lo in rng.integers(1, 4 * 10**6, size=20).tolist():
        hi = lo + int(rng.integers(2**20 + 1, 3 * 2**20))
        got = oscillation_stats(big_table, lo, hi)
        assert np.array(got).view(np.uint64).tolist() == (
            np.array(_chunk_oscillation_stats(big_table, lo, hi)).view(np.uint64).tolist()
        ), (lo, hi)


def test_default_pieces_match_chunks(big_table):
    # real chunk sizes: three chunks of 2^20 terms, 64 pieces each
    cps = np.array([2**14, 2**14 + 1, 2**20, 2**20 + 1, 3 * 10**6])
    _assert_same_bits(
        erdos_partial(big_table, 3 * 10**6, checkpoints=cps),
        _chunk_erdos_partial(big_table, 3 * 10**6, -1.0, checkpoints=cps),
    )
    for m_max, phase in ((5 * 10**7, -1.0), (10**7, 1j)):
        _assert_same_bits(
            parity_partial(big_table, m_max, phase), _chunk_parity_partial(big_table, m_max, phase)
        )


@given(
    kind=st.sampled_from(["erdos", "parity"]),
    phase=st.sampled_from(["-1", "+1", "i"]),
    sizes=st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_piece_cuts_do_not_matter(kind, phase, sizes):
    # the same terms in one piece and re-cut at random sizes, so that pieces
    # straddle the chunk edges (every 20 or 24 terms) and _SUB = 5 cuts
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "_SUB", 5)
        mp.setattr(primes_mod, "_RUN", 5)
        mp.setattr(series, "_REAL_CHUNK", 24)
        mp.setattr(series, "RENORM_STEPS", 20)
        mp.setattr(series, "_BLOCK_CUTOFF", 50)
        if kind == "erdos":
            cps = checkpoint_indices(1, 2000, dense_windows=((90, 130),))
            stream = [(n, n, t) for n, t in series._erdos_terms(TABLE, 1, 2000)]
        else:
            cps = checkpoint_indices(2, 3000, dense_windows=((40, 60),))
            stream = list(series._parity_blocks(TABLE, 3000, cps))
        whole = [np.concatenate(a) for a in zip(*stream)]
        cuts = np.cumsum(sizes)
        cuts = cuts[cuts < whole[0].size]
        recut = zip(*(np.split(a, cuts) for a in whole))
        uncut = series._scan(cps, [tuple(whole)], PHASES[phase])
        _assert_same_bits(series._scan(cps, recut, PHASES[phase]), uncut)


@given(
    start=st.integers(min_value=1, max_value=50),
    length=st.integers(min_value=0, max_value=3000),
    ratio=st.floats(min_value=1.0, max_value=3.0),
    windows=st.lists(st.tuples(st.integers(-10, 3100), st.integers(-10, 3100)), max_size=3),
    explicit=st.none() | st.lists(st.integers(0, 3100), max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_checkpoint_indices_matches_set_oracle(start, length, ratio, windows, explicit):
    stop = start + length
    args = (start, stop, ratio, tuple(windows), None if explicit is None else np.array(explicit))
    try:
        want = _set_checkpoint_indices(*args)
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            checkpoint_indices(*args)
        return
    got = checkpoint_indices(*args)
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()
