import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from erdoslab import census
from erdoslab.census import _count_many, check_tuple, check_tuples, count_tuples, log_integral
from erdoslab.errors import BoundsError
from erdoslab.primes import build_table, load_table
from erdoslab.singular import OffsetTuple

TABLE = build_table(200_000)


def brute_count(offsets, x, prime_set):
    return sum(1 for n in range(1, x + 1) if all(n + h in prime_set for h in offsets))


def _per_tuple_oracle(table, tup, x, chunk):
    """The per-tuple window walk that _count_many replaced: one window per tuple and chunk."""
    if tup.k == 0:
        return x
    max_off = tup.offsets[-1]
    total = 0
    for a in range(1, x + 1, chunk):
        b = min(a + chunk, x + 1)
        win = table.is_prime_range(a, b + max_off)
        acc = win[tup.offsets[0] : tup.offsets[0] + (b - a)]
        for h in tup.offsets[1:]:
            acc = acc & win[h : h + (b - a)]
        total += int(np.count_nonzero(acc))
    return total


def _windowed_count_many(table, tups, x, chunk):
    """The shared-window walk that the odd-only trie replaced: every integer, each tuple its own ANDs."""
    x = int(x)
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    totals = [0 if tup.k else x for tup in tups]
    max_off = max((tup.offsets[-1] for tup in tups if tup.k), default=None)
    if max_off is None:
        return totals
    table.pi(x + max_off)  # BoundsError before any counting, if the table is short
    buf = np.empty(min(chunk, x), dtype=bool)
    for a in range(1, x + 1, chunk):
        b = min(a + chunk, x + 1)
        win = table.is_prime_range(a, b + max_off)
        acc = buf[: b - a]
        for i, tup in enumerate(tups):
            if tup.k == 0:
                continue
            h0, *rest = tup.offsets
            np.copyto(acc, win[h0 : h0 + (b - a)])
            for h in rest:
                np.logical_and(acc, win[h : h + (b - a)], out=acc)
            totals[i] += int(np.count_nonzero(acc))
    return totals


@pytest.fixture(scope="module")
def prime_set():
    return set(TABLE.primes.tolist())


def test_count_examples(prime_set):
    assert count_tuples(TABLE, OffsetTuple([0]), 100) == 25
    assert count_tuples(TABLE, OffsetTuple([0, 2]), 100) == 8
    assert count_tuples(TABLE, OffsetTuple([0, 1]), 100) == 1
    assert count_tuples(TABLE, OffsetTuple([0, 2]), 100) == brute_count((0, 2), 100, prime_set)


@given(
    offs=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=3, unique=True),
    x=st.integers(min_value=1, max_value=3000),
)
@settings(max_examples=40, deadline=None)
def test_count_brute_oracle(offs, x, prime_set):
    assert count_tuples(TABLE, OffsetTuple(offs), x) == brute_count(tuple(offs), x, prime_set)


def test_count_equals_pi():
    for x in (2, 10, 97, 1000, 65_536, 200_000):
        assert count_tuples(TABLE, OffsetTuple([0]), x) == TABLE.pi(x)


def test_count_monotone_and_order_invariant():
    xs = [10, 100, 1000, 5000]
    vals = [count_tuples(TABLE, OffsetTuple([0, 2]), x) for x in xs]
    assert vals == sorted(vals)
    assert count_tuples(TABLE, OffsetTuple([6, 0, 2]), 5000) == count_tuples(
        TABLE, OffsetTuple([0, 2, 6]), 5000
    )


def test_count_crosses_chunks():
    # chunked window walk agrees with rank queries far past one chunk
    big = build_table(9_000_000)
    assert count_tuples(big, OffsetTuple([0]), 8_500_000) == big.pi(8_500_000)


def test_non_admissible_counts_bounded():
    for offs in ([0, 1], [0, 2, 4], [0, 1, 2]):
        tup = OffsetTuple(offs)
        bound = tup.k * tup.offsets[-1] + 2
        for x in (100, 10_000, 199_000):
            assert count_tuples(TABLE, tup, x) <= bound


def test_count_range_error():
    with pytest.raises(BoundsError):
        count_tuples(TABLE, OffsetTuple([0, 2]), 200_000)
    with pytest.raises(ValueError):
        count_tuples(TABLE, OffsetTuple([0]), 0)


def test_log_integral_edges():
    assert log_integral(2, 1) == 0.0
    assert log_integral(2, 5) == 0.0
    with pytest.raises(ValueError):
        log_integral(1, 1)
    with pytest.raises(ValueError):
        log_integral(10, 0)


@pytest.mark.parametrize(
    "x,k",
    [(100, 1), (10**6, 1), (10**6, 2), (1000, 3), (10, 1), (55, 4), (10**8, 2)],
)
def test_log_integral_against_quadpack(x, k):
    mine = log_integral(x, k)
    want = quad(lambda y: math.log(y) ** (-k), 2, x, epsabs=1e-13, epsrel=1e-13, limit=800)[0]
    assert mine == pytest.approx(want, rel=1e-10)


def test_log_integral_against_dense_simpson():
    # second independent oracle: composite Simpson at fixed high density
    x, k = 10_000.0, 2
    n = 2_000_001
    ys = np.linspace(2.0, x, n)
    fy = np.log(ys) ** (-k)
    h = (x - 2.0) / (n - 1)
    simpson = h / 3 * (fy[0] + fy[-1] + 4 * fy[1:-1:2].sum() + 2 * fy[2:-1:2].sum())
    assert log_integral(x, k) == pytest.approx(simpson, rel=1e-9)


def test_log_integral_values():
    assert log_integral(100, 1) == pytest.approx(29.081, abs=1e-3)
    assert log_integral(10**6, 1) == pytest.approx(78626.504, abs=1e-2)


def test_check_tuple_pi_case():
    big = build_table(1_100_000)
    rep = check_tuple(big, OffsetTuple([0]), 10**6, epsilon=0.1)
    assert rep.count == 78_498
    assert rep.prediction == pytest.approx(78626.50, abs=0.01)
    assert rep.abs_error == pytest.approx(128.5, abs=0.1)
    assert rep.normalized_error == rep.abs_error / (10**6) ** 0.9


def test_check_tuple_non_admissible():
    rep = check_tuple(TABLE, OffsetTuple([0, 1]), 10**5)
    assert rep.prediction == 0.0
    assert rep.abs_error == rep.count == 1


def test_check_tuple_twins():
    big = build_table(1_100_000)
    rep = check_tuple(big, OffsetTuple([0, 2]), 10**6)
    assert rep.count == 8169
    assert rep.abs_error / rep.count < 0.05


def test_normalized_error_battery():
    # desk-scale stand-in for the power-saving bound: every admissible
    # battery tuple stays below a fixed calibrated constant at eps = 0.05
    big = build_table(1_100_000)
    battery = [[0], [0, 2], [0, 4], [0, 6], [0, 2, 6], [0, 4, 6], [0, 2, 6, 8]]
    for offs in battery:
        rep = check_tuple(big, OffsetTuple(offs), 10**6, epsilon=0.05)
        assert rep.normalized_error < 0.05, (offs, rep.normalized_error)


def test_strict_range_mode():
    # offsets above log^2 x violate the stated window
    tup = OffsetTuple([0, 250])
    assert not check_tuple(TABLE, tup, 10**5, strict_range=False).in_offset_range
    with pytest.raises(ValueError):
        check_tuple(TABLE, tup, 10**5, strict_range=True)


# 1-3 distinct tuples (the empty one and ones not starting at 0 included),
# then up to 3 repeats drawn from them
_TUPLE_LISTS = st.lists(
    st.lists(st.integers(min_value=0, max_value=20), max_size=4, unique=True),
    min_size=1, max_size=3,
).flatmap(lambda ts: st.lists(st.sampled_from(ts), max_size=3).map(lambda extra: ts + extra))


@given(offs_list=_TUPLE_LISTS, m=st.integers(min_value=0, max_value=40),
       d=st.integers(min_value=-2, max_value=2))
@example(offs_list=[[], [3, 5], [0, 2], [3, 5]], m=2, d=0)
@example(offs_list=[[1], [], []], m=0, d=1)
@settings(max_examples=60, deadline=None)
def test_count_many_matches_per_tuple_oracle(offs_list, m, d):
    # x sits next to a multiple of 64, so the oracle's 64-integer chunks end at
    # x; _count_many's chunks of 64 odd indices are crossed every 128 integers
    x = max(64 * m + d, 1)
    tups = [OffsetTuple(offs) for offs in offs_list]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census, "_COUNT_CHUNK", 64)
        got = _count_many(TABLE, tups, x)
        assert [count_tuples(TABLE, t, x) for t in tups] == got
    assert got == [_per_tuple_oracle(TABLE, t, x, 64) for t in tups]


def test_count_many_at_default_chunk():
    # x past 2^18 integers, the oracle's chunk, with a partial last chunk;
    # _count_many reads this x in one chunk of 2^18 odd indices
    x = census._COUNT_CHUNK + 12_345
    big = build_table(x + 100)
    tups = [OffsetTuple(o) for o in ([0], [0, 2], [4, 6], [], [0, 2, 6], [0, 2])]
    want = [_per_tuple_oracle(big, t, x, 1 << 22) for t in tups]
    assert _count_many(big, tups, x) == want
    assert want[0] == big.pi(x)


def test_check_tuples_equals_check_tuple():
    tups = [OffsetTuple(o) for o in ([0], [0, 2], [0, 1], [2, 6, 8], [0, 2], [0, 250])]
    for x, eps in ((10**5, 0.05), (12_345, 0.2)):
        reps = check_tuples(TABLE, tups, x, epsilon=eps)
        assert len(reps) == len(tups)
        for tup, rep in zip(tups, reps):
            one = check_tuple(TABLE, tup, x, epsilon=eps)
            for f in dataclasses.fields(one):
                a, b = getattr(rep, f.name), getattr(one, f.name)
                if f.name == "tup":
                    assert a.offsets == b.offsets == tup.offsets
                else:
                    assert a == b, f.name
    assert check_tuples(TABLE, [], 10**5) == []


def test_check_tuples_first_bad_tuple_raises():
    # tuple 2 overruns the table and tuple 3 breaks the strict range: the
    # bound error of tuple 2 comes first, as from check_tuple in order
    tups = [OffsetTuple([0, 2]), OffsetTuple([0, 60]), OffsetTuple([0, 250])]
    x = TABLE.limit - 50
    with pytest.raises(BoundsError, match=f"need primality up to {x + 60} > table limit"):
        check_tuples(TABLE, tups, x, strict_range=True)
    with pytest.raises(ValueError, match="outside strict ranges"):
        check_tuples(TABLE, [tups[0], tups[2], tups[1]], x, strict_range=True)
    with pytest.raises(ValueError, match="at least one offset"):
        check_tuples(TABLE, [tups[0], OffsetTuple(), tups[1]], x)


@pytest.mark.parametrize(
    "x, eps, reason",
    [(2, 0.05, "x must be >= 3, got 2"), (100, 2.0, r"epsilon must be in \(0,1\), got 2.0"),
     (100, 0.0, r"epsilon must be in \(0,1\), got 0.0")],
    ids=["x below 3", "eps 2", "eps 0"],
)
def test_check_tuples_rejects_configuration(x, eps, reason):
    with pytest.raises(ValueError, match=reason):
        check_tuples(TABLE, [OffsetTuple([0, 2])], x, eps)


def test_count_many_across_default_chunks():
    # 2^18 odd indices per chunk: x crosses two chunk edges, with a partial last chunk
    x = 4 * census._COUNT_CHUNK + 12_345
    big = build_table(x + 300)
    tups = [OffsetTuple(o) for o in ([0, 2], [1, 3], [0, 1], [5], [0, 2, 6, 8, 12], [0, 250], [3, 5, 9])]
    assert _count_many(big, tups, x) == _windowed_count_many(big, tups, x, 1 << 18)


# Tuples of one parity (an odd first offset included) up to offset 301, any
# tuple up to 300 (mostly of mixed parity), and fixed mixed and short ones
_ODD_AND_MIXED = st.lists(
    st.one_of(
        st.tuples(st.lists(st.integers(min_value=0, max_value=150), max_size=4, unique=True),
                  st.integers(min_value=0, max_value=1)).map(lambda t: [2 * h + t[1] for h in t[0]]),
        st.lists(st.integers(min_value=0, max_value=300), max_size=3, unique=True),
        st.sampled_from([[0, 1], [1, 2], [0, 1, 3], [1], [2], [0], [1, 3], [3, 5, 9], []]),
    ),
    min_size=1, max_size=5,
)


@given(offs_list=_ODD_AND_MIXED,
       x=st.one_of(st.sampled_from([1, 2, 3]), st.integers(min_value=1, max_value=1500)),
       chunk=st.sampled_from([7, 64]))
@example(offs_list=[[0, 1], [1, 2], [0, 1, 3], [1], [2]], x=1, chunk=7)
@example(offs_list=[[0, 1], [1, 2], [0, 1, 3], [1, 3], [2, 4]], x=2, chunk=7)
@example(offs_list=[[1, 3], [0, 2], [0, 1], [1, 2], [0, 300], [5]], x=3, chunk=64)
# one trie node, two j-ranges: chunks past the end of the first still run for the second
@example(offs_list=[[0, 2], [200, 202]], x=1000, chunk=64)
@settings(max_examples=80, deadline=None)
def test_count_many_odd_windows_match_both_oracles(offs_list, x, chunk):
    tups = [OffsetTuple(offs) for offs in offs_list]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census, "_COUNT_CHUNK", chunk)
        got = _count_many(TABLE, tups, x)
    assert got == _windowed_count_many(TABLE, tups, x, chunk)
    assert got == [_per_tuple_oracle(TABLE, t, x, chunk) for t in tups]


def test_count_many_reads_no_integer_past_the_table():
    # x + 300 is the table limit: (1, 3) counts one odd index further than
    # (0, 300), whose window reaches 150 odd indices past its own
    x = TABLE.limit - 300
    tups = [OffsetTuple([1, 3]), OffsetTuple([0, 300])]
    assert _count_many(TABLE, tups, x) == _windowed_count_many(TABLE, tups, x, 1 << 18)


_BATTERY = [[0, 2], [0, 4], [0, 6], [0, 2, 6], [0, 4, 6], [0, 2, 6, 8], [0, 4, 6, 10],
            [0, 2, 6, 8, 12], [0, 4, 6, 10, 12], [0, 4, 6, 10, 12, 16], [0, 250]]


def test_battery_on_both_table_forms(tmp_path):
    # the sieved table and its cache file read back give the same counts, and pi_2(1e6) = 8169
    x = 10**6
    sieved = build_table(x + 300)
    loaded = load_table(sieved.save(tmp_path / "primes.bin"))
    tups = [OffsetTuple(o) for o in _BATTERY]
    got = _count_many(sieved, tups, x)
    assert got == _count_many(loaded, tups, x) == _windowed_count_many(loaded, tups, x, 1 << 18)
    assert got[0] == 8169
