import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_sieve
from erdoslab.singular import (
    DEFAULT_TRUNCATION,
    OffsetTuple,
    gallagher_sum,
    nu,
    pair_correlation_asymptotic,
    pair_correlation_curve,
    pair_correlation_sum,
    pair_singular_table,
    singular_series,
)

offsets_strategy = st.lists(
    st.integers(min_value=0, max_value=20), min_size=1, max_size=4, unique=True
)


def brute_singular(offsets, P):
    """Independent oracle: direct factor-by-factor product, no shared code."""
    k = len(offsets)
    total = 0.0
    for p in dense_sieve(P):
        p = int(p)
        v = len({h % p for h in offsets})
        if v == p:
            return 0.0
        total += math.log1p(-v / p) - k * math.log1p(-1.0 / p)
    return math.exp(total)


def test_offset_tuple_validation():
    assert OffsetTuple([2, 0]).offsets == (0, 2)
    assert OffsetTuple([]).k == 0
    with pytest.raises(ValueError):
        OffsetTuple([0, 0])
    with pytest.raises(ValueError):
        OffsetTuple([-1, 2])


def test_nu_examples():
    assert nu(OffsetTuple([0, 2]), 2) == 1
    assert nu(OffsetTuple([0, 2]), 3) == 2
    assert nu(OffsetTuple([0, 2, 6]), 5) == 3
    with pytest.raises(ValueError):
        nu(OffsetTuple([0, 2]), 4)


@given(offs=offsets_strategy, p_idx=st.integers(min_value=0, max_value=15))
@settings(max_examples=60)
def test_nu_bounds_and_shift(offs, p_idx):
    p = int(dense_sieve(60)[p_idx])
    tup = OffsetTuple(offs)
    v = nu(tup, p)
    assert 1 <= v <= min(tup.k, p)
    # nu is shift invariant prime by prime
    assert nu(OffsetTuple(h + 7 for h in tup), p) == v
    assert nu(OffsetTuple(h + p for h in tup), p) == v


def test_empty_and_non_admissible():
    sv = singular_series(OffsetTuple([]))
    assert sv.value == 1.0 and sv.tail_bound == 0.0 and sv.admissible
    sv = singular_series(OffsetTuple([0, 1]))
    assert sv.value == 0.0 and not sv.admissible
    # a singleton has every factor equal to one
    assert singular_series(OffsetTuple([5])).value == 1.0


def test_admissibility_iff_zero():
    battery = [
        ([0, 2], True), ([0, 1], False), ([0, 3], False), ([0, 4], True),
        ([0, 2, 4], False), ([0, 2, 6], True), ([0, 4, 8], False), ([1, 2, 3], False),
    ]
    for offs, admissible in battery:
        sv = singular_series(OffsetTuple(offs))
        assert sv.admissible == admissible, offs
        assert (sv.value > 0) == admissible


def test_twin_value_against_brute():
    sv = singular_series(OffsetTuple([0, 2]), 10**6)
    assert sv.value == pytest.approx(brute_singular((0, 2), 10**6), rel=1e-12)
    # known twin-prime constant to the displayed digits
    assert sv.value == pytest.approx(1.3203236, abs=5e-7)


@given(offs=offsets_strategy)
@settings(max_examples=40, deadline=None)
def test_general_vs_brute_oracle(offs):
    got = singular_series(OffsetTuple(offs), 10_000).value
    want = brute_singular(tuple(sorted(offs)), 10_000)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-300)


@given(offs=offsets_strategy, shift=st.integers(min_value=0, max_value=50))
@settings(max_examples=40, deadline=None)
def test_shift_invariance(offs, shift):
    a = singular_series(OffsetTuple(offs), 10_000).value
    b = singular_series(OffsetTuple([h + shift for h in offs]), 10_000).value
    assert a == pytest.approx(b, rel=1e-12, abs=0.0)


@given(offs=offsets_strategy)
@settings(max_examples=30, deadline=None)
def test_truncations_agree_within_tail_bounds(offs):
    tup = OffsetTuple(offs)
    lo_P = max(1000, 2 * tup.k * tup.k + tup.span + 1)
    a = singular_series(tup, lo_P)
    b = singular_series(tup, 100_000)
    if a.admissible:
        a_lo, a_hi = a.interval()
        b_lo, b_hi = b.interval()
        assert a_lo <= b_hi and b_lo <= a_hi  # certified intervals overlap


def test_tail_bound_certifies_k_up_to_10():
    # tuples of k equally spaced offsets; the tighter truncation is the stand-in truth
    for k in range(1, 11):
        tup = OffsetTuple(range(0, 2 * k, 2))
        rough = singular_series(tup, max(1000, 2 * k * k + 1, 2 * tup.span))
        sharp = singular_series(tup, 10**6)
        if rough.admissible:
            lo, hi = rough.interval()
            assert lo <= sharp.value <= hi, k


def test_tail_bound_certifies_k12():
    # past the k <= 10 range above: the docstring proof covers every k
    tup = OffsetTuple([0, 2, 6, 8, 12, 18, 20, 26, 30, 32, 36, 42])
    truth = brute_singular(tup.offsets, 2 * 10**6)
    assert truth > 0
    for P in (289, 1000, 10**4):  # 2k^2 = 288
        lo, hi = singular_series(tup, P).interval()
        assert lo <= truth <= hi, P


def test_truncation_too_small():
    with pytest.raises(ValueError):
        singular_series(OffsetTuple([0, 2]), 7)
    with pytest.raises(ValueError):
        singular_series(OffsetTuple(range(0, 40, 2)), 500)  # 2k^2 = 800


def test_pair_table_matches_general():
    vals = pair_singular_table(64)
    for d in range(1, 65):
        assert vals[d] == pytest.approx(
            singular_series(OffsetTuple([0, d])).value, rel=1e-12, abs=0.0
        ), d


@pytest.mark.parametrize("P", [-5, 0, 1, 2])
def test_pair_table_rejects_truncation_below_3(P):
    with pytest.raises(ValueError, match="truncation prime"):
        pair_singular_table(10, P)
    # at P = 3 the twin product has its one factor, 1 - 1/(3 - 1)^2
    assert pair_singular_table(10, 3)[2] == pytest.approx(1.5, rel=1e-15)


def test_pair_table_is_read_only():
    before = pair_correlation_sum(100)
    vals = pair_singular_table(200)
    with pytest.raises(ValueError):
        vals[:] = 0
    assert pair_correlation_sum(100) == before


def test_nu_equals_k_beyond_span():
    tup = OffsetTuple([0, 6, 10])
    for p in (11, 13, 101):
        assert nu(tup, p) == tup.k


def test_pair_correlation_small():
    assert pair_correlation_sum(2) == 0.0
    twin = singular_series(OffsetTuple([0, 2])).value
    assert pair_correlation_sum(3) == pytest.approx(2 * twin, rel=1e-12)
    with pytest.raises(ValueError):
        pair_correlation_sum(1)


def test_pair_correlation_curve_matches_pointwise():
    hs = np.array([2, 3, 50, 417, 2000])
    curve = pair_correlation_curve(hs)
    for h, v in zip(hs, curve):
        assert v == pytest.approx(pair_correlation_sum(int(h)), rel=1e-12, abs=1e-12)


def test_pair_correlation_asymptotic_h2000():
    got = pair_correlation_sum(2000)
    want = pair_correlation_asymptotic(2000)
    assert abs(got - want) / want < 0.005


def test_pair_correlation_square_bound():
    hs = np.arange(50, 5001)
    curve = pair_correlation_curve(hs)
    assert np.all(curve <= hs.astype(float) ** 2)


def test_gallagher_k1():
    assert gallagher_sum(1, 17) == 17.0


def test_gallagher_k2_explicit():
    want = sum(singular_series(OffsetTuple([0, h])).value for h in range(2, 7))
    assert gallagher_sum(2, 6) == pytest.approx(want, rel=1e-12)
    # odd-gap tuples vanish but even ones keep the average near one
    assert 0.9 <= gallagher_sum(2, 1000) / 1000 <= 1.1


def test_gallagher_k3_brute():
    want = sum(
        brute_singular((0, h1, h2), DEFAULT_TRUNCATION)
        for h1 in range(1, 8)
        for h2 in range(h1 + 1, 9)
    )
    assert gallagher_sum(3, 8) == pytest.approx(want, rel=1e-10)


def test_gallagher_unsupported():
    with pytest.raises(ValueError):
        gallagher_sum(4, 10)
    with pytest.raises(ValueError):
        gallagher_sum(3, 10_000)


def test_primes_upto_is_one_shared_sieve_per_limit():
    from erdoslab.singular import _primes_upto

    for limit in (1, 2, 100, 1000, 10):
        got = _primes_upto(limit)
        assert got.tolist() == dense_sieve(limit).tolist()
        assert got is _primes_upto(limit)
        with pytest.raises(ValueError):
            got[:1] = 4  # shared by every caller, so it is read-only


@pytest.mark.parametrize(
    "call, reason",
    [(lambda: pair_correlation_curve([1, 5]), "H values must be >= 2"),
     (lambda: pair_correlation_curve([]), "H values must be >= 2"),
     (lambda: gallagher_sum(2, 1), "H must be >= 2, got 1"),
     (lambda: gallagher_sum(3, 0), "H must be >= 2, got 0")],
    ids=["curve H 1", "curve empty", "k2 H 1", "k3 H 0"],
)
def test_pair_sums_reject_H_below_two(call, reason):
    with pytest.raises(ValueError, match=reason):
        call()
