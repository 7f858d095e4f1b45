import math
import tracemalloc

import numpy as np
import pytest

from erdoslab import gaps as gaps_mod
from erdoslab import primes as primes_mod
from erdoslab import series
from erdoslab.errors import BoundsError
from erdoslab.gaps import (
    KINDS,
    GapSeriesConfig,
    _gap_terms,
    dyadic_gap_stats,
    empirical_parity_statistic,
    gap_series_partial,
    small_gap_count,
)
from erdoslab.model import uniform_ints
from erdoslab.primes import build_table, load_table
from erdoslab.singular import gallagher_sum

TABLE = build_table(300_000)


def _gap(n):
    """p_(n+1) - p_n, from two rank reads."""
    return TABLE.nth_prime(n + 1) - TABLE.nth_prime(n)


def test_config_validation():
    with pytest.raises(ValueError):
        GapSeriesConfig(kind="nope")
    with pytest.raises(ValueError):
        GapSeriesConfig(kind="reciprocal_weighted", c=0.0)
    with pytest.raises(ValueError):
        GapSeriesConfig(kind="theta_family", theta=1.5)
    assert GapSeriesConfig(kind="reciprocal_weighted").start_index == 10
    assert GapSeriesConfig(kind="alternating_gap").start_index == 1


def test_alternating_gap_first_terms():
    tr = gap_series_partial(TABLE, GapSeriesConfig(kind="alternating_gap"), 3)
    # gaps 1, 2, 2 from the primes 2, 3, 5, 7
    assert tr.value_at(3).real == pytest.approx(-1 / 1 + 1 / 2 - 1 / 2, abs=1e-15)
    assert tr.value_at(1).real == -1.0


def test_reciprocal_weighted_direct():
    cfg = GapSeriesConfig(kind="reciprocal_weighted", c=3.0)
    tr = gap_series_partial(TABLE, cfg, 10)
    want = 1.0 / (10 * math.log(math.log(10)) ** 3 * (31 - 29))
    assert tr.value_at(10).real == pytest.approx(want, rel=1e-14)
    assert 0 < tr.value_at(10).real < 10
    got = gap_series_partial(TABLE, cfg, 40).value_at(40).real
    direct = sum(
        1.0 / (n * math.log(math.log(n)) ** 3 * _gap(n)) for n in range(10, 41)
    )
    assert got == pytest.approx(direct, rel=1e-12)


def test_theta_one_equals_weighted():
    a = gap_series_partial(TABLE, GapSeriesConfig(kind="theta_family", theta=1.0), 500)
    b = gap_series_partial(TABLE, GapSeriesConfig(kind="alternating_weighted_gap"), 500)
    assert np.allclose(a.values, b.values, rtol=1e-12)


def test_alternating_direct_oracle():
    got = gap_series_partial(TABLE, GapSeriesConfig(kind="alternating_gap"), 200)
    direct = sum((-1) ** n / _gap(n) for n in range(1, 201))
    assert got.value_at(200).real == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_gap_terms_strided_sign_matches_mask(monkeypatch, kind):
    # Walk runs, and so pieces, of 7 terms start at odd and even n in turn.
    # The producer yields unsigned terms, bit-equal to the direct formulas;
    # the sign _scan gives an alternating kind's term, _SIGNS[k & 1] at
    # k = n - start + 1, must be the mask flip of it.
    monkeypatch.setattr(series, "_SUB", 7)
    monkeypatch.setattr(primes_mod, "_RUN", 7)
    cfg = GapSeriesConfig(kind=kind)
    starts = []
    for idx, t in _gap_terms(TABLE, cfg, 150):
        a, b = int(idx[0]), int(idx[-1]) + 1
        n = idx.astype(np.float64)
        g = (TABLE.primes[a:b] - TABLE.primes[a - 1 : b - 1]).astype(np.float64)
        if kind == "reciprocal_weighted":
            want = 1.0 / (n * np.log(np.log(n)) ** cfg.c * g)
        elif kind == "alternating_gap":
            want = 1.0 / g
        elif kind == "alternating_weighted_gap":
            want = 1.0 / (n * g)
        else:
            want = 1.0 / (n**cfg.theta * g)
        assert t.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        if cfg.alternating:
            want[(idx & 1) == 1] *= -1.0
            signed = series._SIGNS[(idx - cfg.start_index + 1) & 1] * t
            assert signed.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        starts.append(a)
    assert {a % 2 for a in starts} == {0, 1} and starts[-1] + 7 > 150


def test_start_index_enforced():
    with pytest.raises(ValueError):
        gap_series_partial(TABLE, GapSeriesConfig(kind="reciprocal_weighted"), 9)
    with pytest.raises(BoundsError):
        gap_series_partial(TABLE, GapSeriesConfig(kind="alternating_gap"), TABLE.primes.size)


def test_terms_do_not_vanish():
    # gap 2 recurs in every dyadic index block, so term magnitude 1/2 recurs
    stats = dyadic_gap_stats(TABLE)
    assert all(s.has_gap_two for s in stats)
    assert all(s.min_gap >= 1 for s in stats)
    # min term magnitude in a block is 1/max_gap of that block by construction
    gaps = np.diff(TABLE.primes)
    for s in stats[:5]:
        block = gaps[s.n_lo - 1 : s.n_hi - 1]
        assert (1.0 / block).min() == 1.0 / s.max_gap



def test_block_and_small_gap_readers_decode_one_walk_run_at_a_time(tmp_path, monkeypatch):
    # a loaded table decodes run by run: no read spans the 32769 ranks of the
    # block [2^15, 2^16) or the 23 101 primes of [3e5, 6e5)
    dense = build_table(1_000_000)
    table = load_table(dense.save(tmp_path / "t.bin"))
    gaps = np.diff(dense.primes)
    spans, decode = [], primes_mod.PrimeTable._decode
    monkeypatch.setattr(
        primes_mod.PrimeTable, "_decode", lambda t, i, j: spans.append(j - i) or decode(t, i, j))
    stats = dyadic_gap_stats(table)
    assert [s.n_hi for s in stats][-2:] == [2**16, dense.count]
    for s in stats:
        block = gaps[s.n_lo - 1 : s.n_hi - 1]
        assert (s.min_gap, s.max_gap, s.has_gap_two) == (block.min(), block.max(), (block == 2).any())
    i0, i1 = np.searchsorted(dense.primes, [300_000, 600_000])
    want = np.count_nonzero(gaps[i0:i1] <= math.log(300_000))
    assert small_gap_count(table, 300_000, 1.0).count == want
    assert max(spans) <= primes_mod._RUN + primes_mod._BLOCK

def test_small_gap_count_brute():
    X = 100
    lam = 4.0
    rep = small_gap_count(TABLE, X, lam)
    primes = TABLE.primes
    i0 = np.searchsorted(primes, X)
    i1 = np.searchsorted(primes, 2 * X)
    brute = sum(
        1
        for i in range(i0, i1)
        if primes[i + 1] - primes[i] <= lam * math.log(X)
    )
    assert rep.count == brute
    assert not rep.in_lambda_range  # lam = 4 sits above the stated range


def test_small_gap_tiny_lambda():
    X = 1000
    lam = 1.9 / math.log(X)  # threshold below 2: no gap qualifies
    assert small_gap_count(TABLE, X, lam).count == 0


def test_small_gap_monotone_in_lambda():
    counts = [small_gap_count(TABLE, 10_000, lam).count for lam in (0.2, 0.4, 0.6, 0.8, 1.0)]
    assert counts == sorted(counts)


def test_small_gap_cross_module_identity():
    for X, lam in ((1000, 0.5), (10_000, 0.5), (100_000, 0.8)):
        rep = small_gap_count(TABLE, X, lam)
        M = int(lam * math.log(X))
        assert rep.gallagher_main == gallagher_sum(2, M)  # exact, same code path


def test_small_gap_range_error():
    with pytest.raises(BoundsError):
        small_gap_count(TABLE, 200_000, 0.5)


def test_parity_statistic_window_zero():
    # lambda log x below 1 leaves no integer to count; a negative lambda
    # used to reach the uint32 points and overflow
    for x, lam, window in ((1000, 0.1, 0), (10**6, 0.05, 0), (10**6, -1.0, -13)):
        with pytest.raises(ValueError, match=f"lambda log x truncates to {window};"):
            empirical_parity_statistic(TABLE, x, lam, 1000, seed=1)


def test_parity_statistic_window_one_direct():
    x, lam, pts, seed = 10_000, 1.2 / math.log(10_000), 5000, 11
    rep = empirical_parity_statistic(TABLE, x, lam, pts, seed)
    assert rep.window == 1
    n = x + uniform_ints(seed, 0x5057, pts, int(x**0.9) + 1)
    frac_prime = np.mean([int(m + 1 in TABLE) for m in n])
    assert rep.estimate == pytest.approx(1.0 - 2.0 * frac_prime, abs=1e-12)


def _unsorted_parity_oracle(table, x, lam, base_points, seed):
    """The statistic as first written: two searchsorted calls on the base points in draw order."""
    window = int(lam * math.log(x))
    n = x + uniform_ints(seed, 0x5057, base_points, int(x**0.9) + 1)
    lo = np.searchsorted(table.primes, n, side="right")
    hi = np.searchsorted(table.primes, n + window, side="right")
    est = 1.0 - 2.0 * int(np.count_nonzero((hi - lo) & 1)) / base_points
    return est, math.sqrt(max(1.0 - est * est, 0.0) / base_points)


@pytest.mark.parametrize("x,lam", [(1000, 0.15), (10_000, 0.25), (10_000, 1.0), (50_000, 2.5),
                                   (200_000, 0.5), (200_000, 1.0), (10_000, 3.0), (200_000, 5.0)])
def test_parity_statistic_matches_unsorted_oracle(x, lam):
    # sorting the base points cannot move the odd count: equal, not close
    for seed in (0, 1, 7, 42):
        for pts in (1000, 4321):
            rep = empirical_parity_statistic(TABLE, x, lam, pts, seed)
            assert (rep.estimate, rep.stderr) == _unsorted_parity_oracle(TABLE, x, lam, pts, seed)


@pytest.mark.parametrize("block, points", [(1, 4321), (7, 4321), (1000, 4321), (1 << 16, 150_000)])
def test_parity_statistic_in_blocks_matches_unsorted_oracle(monkeypatch, block, points):
    # the draw and the count run block by block, each ending in a short block
    monkeypatch.setattr(gaps_mod, "_PARITY_BLOCK", block)
    for x, lam in [(10_000, 1.0), (200_000, 0.5)]:
        rep = empirical_parity_statistic(TABLE, x, lam, points, 7)
        assert (rep.estimate, rep.stderr) == _unsorted_parity_oracle(TABLE, x, lam, points, 7)


@pytest.fixture(scope="module")
def parity_tables(tmp_path_factory):
    """A sieved table to 1.2e7 and the same table read back from its cache file."""
    sieved = build_table(12_000_000)
    return sieved, load_table(sieved.save(tmp_path_factory.mktemp("parity") / "primes.bin"))


@pytest.mark.parametrize("span", [64, 1 << 20], ids=["span 64", "span 2^20"])
@pytest.mark.parametrize("points", [1000, 100_000])
def test_parity_statistic_windows_match_unsorted_oracle(monkeypatch, parity_tables, span, points):
    # with 64-integer windows every group is a few points and every window edge
    # is crossed; at lambda = 5 the window (80) is more than half the span, so
    # groups reach 80 integers and windows 160
    monkeypatch.setattr(gaps_mod, "_PARITY_SPAN", span)
    for lam in (1.0, 5.0):
        want = _unsorted_parity_oracle(parity_tables[0], 10**7, lam, points, 7)
        for table in parity_tables:
            rep = empirical_parity_statistic(table, 10**7, lam, points, 7)
            assert (rep.estimate, rep.stderr) == want


def test_parity_statistic_peak_memory(parity_tables):
    # the searchsorted count it replaced peaked at 6,467,017 traced bytes in
    # this test (numpy 2.4.6): the sorted uint32 points, the primes of the range and
    # int64 search results; the rank count holds no primes and one group's words
    tracemalloc.start()
    try:
        empirical_parity_statistic(parity_tables[1], 10**7, 1.0, 10**6, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6_467_017


def test_parity_statistic_seeded_reproducible():
    a = empirical_parity_statistic(TABLE, 10_000, 1.0, 2000, seed=5)
    b = empirical_parity_statistic(TABLE, 10_000, 1.0, 2000, seed=5)
    c = empirical_parity_statistic(TABLE, 10_000, 1.0, 2000, seed=6)
    assert a.estimate == b.estimate
    assert a.estimate != c.estimate or a.stderr != c.stderr


def test_parity_statistic_range_error():
    with pytest.raises(BoundsError):
        empirical_parity_statistic(TABLE, 290_000, 1.0, 1000, seed=1)
    with pytest.raises(ValueError):
        empirical_parity_statistic(TABLE, 10_000, 1.0, 10, seed=1)


def test_parity_statistic_band_and_decay(big_table):
    from erdoslab.calibration import load_fixture

    fx = load_fixture()["gaps"]
    x = 10**8
    lam1 = empirical_parity_statistic(big_table, x, 1.0, 100_000, seed=fx["seed"])
    lo, hi = fx["parity_lambda1_band"]
    assert lo <= lam1.estimate <= hi
    small = empirical_parity_statistic(big_table, x, 0.5, 100_000, seed=1)
    large = empirical_parity_statistic(big_table, x, 2.0, 100_000, seed=1)
    assert abs(large.estimate) < abs(small.estimate) + 2 * (small.stderr + large.stderr)


def test_density_ratio_band(big_table):
    from erdoslab.calibration import load_fixture

    fx = load_fixture()["gaps"]
    rep = small_gap_count(big_table, 10**7, 0.5)
    lo, hi = fx["density_ratio_band"]
    assert lo <= rep.density_ratio <= hi
    assert rep.in_lambda_range


@pytest.mark.parametrize(
    "call, reason",
    [(lambda: small_gap_count(TABLE, 2, 0.5), "X must be >= 3, got 2"),
     (lambda: small_gap_count(TABLE, 1000, 0.0), "lambda must be positive, got 0.0"),
     (lambda: small_gap_count(TABLE, 1000, -1.0), "lambda must be positive, got -1.0"),
     (lambda: empirical_parity_statistic(TABLE, 9, 1.0, 1000, seed=1), "x must be >= 10, got 9")],
    ids=["X below 3", "lambda 0", "lambda negative", "x below 10"],
)
def test_gap_readers_reject_configuration(call, reason):
    with pytest.raises(ValueError, match=reason):
        call()


def test_calibrate_gaps_reproduces_fixture(big_table):
    # every entry of the committed gaps section, bit for bit
    from erdoslab.calibration import calibrate_gaps, load_fixture

    want = load_fixture()["gaps"]
    assert len(want) == 7
    assert calibrate_gaps(big_table, 100_000, 20260808) == want
