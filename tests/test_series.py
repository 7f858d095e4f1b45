import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erdoslab.errors import BoundsError
from erdoslab.primes import build_table
from erdoslab import primes as primes_mod
from erdoslab import series
from erdoslab.series import (
    _REAL_CHUNK,
    PartialSumTrace,
    _erdos_terms,
    average_consecutive,
    checkpoint_indices,
    erdos_partial,
    oscillation_stats,
    parity_partial,
    verify_equivalence,
)

TABLE = build_table(200_000)


def exact_erdos(n_max):
    total = Fraction(0)
    for n in range(1, n_max + 1):
        total += Fraction((-1) ** n * n, TABLE.nth_prime(n))
    return total


def test_erdos_first_terms():
    tr = erdos_partial(TABLE, 4, -1.0)
    assert tr.value_at(4).real == pytest.approx(float(exact_erdos(4)), abs=1e-15)
    assert tr.value_at(1) == -0.5
    assert tr.value_at(4).imag == 0.0


def test_erdos_matches_exact_rationals():
    tr = erdos_partial(TABLE, 10_000, -1.0, checkpoints=np.array([10, 100, 1234, 10_000]))
    for n in (10, 100, 1234, 10_000):
        exact = float(exact_erdos(n))
        assert abs(tr.value_at(n).real - exact) <= 1e-12 * abs(exact)


def test_compensation_bounded():
    tr = erdos_partial(TABLE, 10_000, -1.0)
    eps = np.finfo(float).eps
    assert np.all(np.abs(tr.compensations) <= eps * max(tr.abs_term_total, 1.0))


def test_term_recovery():
    tr = erdos_partial(TABLE, 120, -1.0, dense_windows=((50, 60),))
    for n in range(50, 60):
        step = tr.value_at(n + 1) - tr.value_at(n)
        expect = (-1) ** (n + 1) * (n + 1) / TABLE.nth_prime(n + 1)
        assert step.real == pytest.approx(expect, rel=5e-13)


def test_parity_first_terms():
    assert parity_partial(TABLE, 2, -1.0).value_at(2).real == pytest.approx(
        -1 / (2 * math.log(2)), abs=1e-15
    )
    got = parity_partial(TABLE, 3, -1.0, checkpoints=np.array([2, 3])).value_at(3)
    assert got.real == pytest.approx(-1 / (2 * math.log(2)) + 1 / (3 * math.log(3)), abs=1e-15)
    # single term with unit phase i: pi(2) = 1 so the term is i / (2 log 2)
    got = parity_partial(TABLE, 2, 1j).value_at(2)
    assert got == pytest.approx(1j / (2 * math.log(2)), abs=1e-14)


def test_parity_direct_loop_oracle():
    # independent scalar recomputation, parity of pi(m) via rank queries
    M = 3000
    total = 0.0
    for m in range(2, M + 1):
        total += (-1) ** TABLE.pi(m) / (m * math.log(m))
    tr = parity_partial(TABLE, M, -1.0)
    assert tr.value_at(M).real == pytest.approx(total, rel=1e-10)


def test_parity_only_depends_on_parity():
    # recompute with pi(m) reduced mod 2 before exponentiation
    M = 500
    total = 0.0
    for m in range(2, M + 1):
        total += (-1) ** (TABLE.pi(m) % 2) / (m * math.log(m))
    assert parity_partial(TABLE, M, -1.0).value_at(M).real == pytest.approx(total, rel=1e-12)


@given(phase_k=st.integers(min_value=1, max_value=11))
@settings(max_examples=8, deadline=None)
def test_complex_phase_erdos_oracle(phase_k):
    # direct scalar oracle for a twelfth root of unity
    z = complex(math.cos(2 * math.pi * phase_k / 12), math.sin(2 * math.pi * phase_k / 12))
    n_max = 300
    total = 0.0 + 0.0j
    for n in range(1, n_max + 1):
        total += z**n * n / TABLE.nth_prime(n)
    tr = erdos_partial(TABLE, n_max, z)
    assert tr.value_at(n_max) == pytest.approx(total, abs=1e-10)


def test_phase_validation():
    with pytest.raises(ValueError):
        erdos_partial(TABLE, 10, 0.5)
    with pytest.raises(ValueError):
        parity_partial(TABLE, 100, complex("nan"))
    # phase 1 diverges, but its partial sums are still computable
    assert erdos_partial(TABLE, 10, 1.0).value_at(10).real > 0


def test_range_errors():
    with pytest.raises(BoundsError):
        erdos_partial(TABLE, TABLE.primes.size + 1, -1.0)
    with pytest.raises(ValueError):
        parity_partial(TABLE, 1, -1.0)
    with pytest.raises(BoundsError):
        parity_partial(TABLE, TABLE.limit + 1, -1.0)


def test_checkpoint_layout():
    cps = checkpoint_indices(1, 1000, 1.25, dense_windows=((500, 510),))
    assert np.all(np.diff(cps) > 0)
    assert cps[0] == 1 and cps[-1] == 1000
    assert set(range(500, 511)) <= set(cps.tolist())
    with pytest.raises(ValueError):
        checkpoint_indices(1, 100, explicit=np.array([101]))


def test_average_constant_fixed_point():
    tr = PartialSumTrace(
        indices=np.arange(1, 6),
        values=np.full(5, 3.25, dtype=complex),
        compensations=np.zeros(5, dtype=complex),
        phase=-1.0,
    )
    av = average_consecutive(tr)
    assert np.allclose(av.values, 3.25)
    assert av.indices.tolist() == [1, 2, 3, 4]


def test_average_alternating():
    tr = PartialSumTrace(
        indices=np.array([1, 2, 3]),
        values=np.array([1.0, -1.0, 1.0], dtype=complex),
        compensations=np.zeros(3, dtype=complex),
        phase=-1.0,
    )
    assert average_consecutive(tr).values.tolist() == [0.0, 0.0]


def test_average_sparse_rejected():
    tr = PartialSumTrace(
        indices=np.array([1, 10, 100]),
        values=np.zeros(3, dtype=complex),
        compensations=np.zeros(3, dtype=complex),
        phase=-1.0,
    )
    with pytest.raises(ValueError):
        average_consecutive(tr)


def test_averaged_anchor_at_1e6(big_table):
    n = 10**6
    tr = erdos_partial(big_table, n + 1, -1.0, dense_windows=((n, n + 1),))
    av = average_consecutive(tr)
    assert av.value_at(n).real == pytest.approx(-0.052161, abs=2e-2)


def test_oscillation_reduction(big_table):
    from erdoslab.calibration import load_fixture

    raw, avg = oscillation_stats(big_table, 10**5, 10**7)
    ratio = avg / raw
    assert ratio <= 0.10
    assert ratio <= load_fixture()["series"]["oscillation_ratio_bound"]


def test_calibrate_series_reproduces_fixture(big_table):
    # every entry of the committed series section, bit for bit
    from erdoslab.calibration import calibrate_series, load_fixture

    want = load_fixture()["series"]
    assert len(want) == 8
    assert calibrate_series(big_table) == want


def test_equivalence_repeated_x(big_table):
    rep = verify_equivalence(big_table, [10**5, 10**5], -1.0)
    assert rep.max_pairwise_spread(top_half=False) == 0.0


def test_equivalence_phase_minus_one(big_table):
    rep = verify_equivalence(big_table, [10**5, 3 * 10**5, 10**6], -1.0)
    assert rep.max_pairwise_spread(top_half=False) < 1e-1
    # factor z/(z-1) at z = -1 is 1/2
    assert rep.rhs[0] == pytest.approx(
        0.5 * parity_partial(big_table, int(1e5 * math.log(1e5)), -1.0).final_value.real,
        rel=1e-12,
    )


def test_equivalence_phase_i(big_table):
    rep = verify_equivalence(big_table, [10**5, 10**6], 1j)
    assert rep.max_pairwise_spread(top_half=False) < 2e-1


def test_equivalence_errors(big_table):
    with pytest.raises(ValueError):
        verify_equivalence(big_table, [10**5], 1.0)
    small = build_table(1000)
    with pytest.raises(BoundsError):
        verify_equivalence(small, [10**5], -1.0)


def test_parity_scan_frees_each_chunk(big_table):
    # M = 5e7 spans three block chunks of _REAL_CHUNK primes. The peak is one
    # chunk's block arithmetic, about 12.4 float64 chunk arrays, while the
    # previous chunk's terms are still alive. Longdouble prefixes kept past
    # their chunk would add two more.
    m_max = 5 * 10**7
    assert big_table.pi(m_max) > 2 * _REAL_CHUNK
    tracemalloc.start()
    try:
        parity_partial(big_table, m_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13.5 * 8 * _REAL_CHUNK


@pytest.mark.parametrize("first", [1, 2, 9, 100])
def test_strided_sign_matches_mask(monkeypatch, first):
    # Walk runs, and so pieces, of 7 terms start at odd and even n in turn.
    # The producer yields n / p_n unsigned, bit-equal to the direct formula; the sign _scan gives
    # the term at phase -1, _SIGNS[n & 1], must be the mask flip of it.
    monkeypatch.setattr(series, "_SUB", 7)
    monkeypatch.setattr(primes_mod, "_RUN", 7)
    last = 150
    starts = []
    for n, t in _erdos_terms(TABLE, first, last):
        a, b = int(n[0]), int(n[-1]) + 1
        want = np.arange(a, b, dtype=np.float64) / TABLE.primes[a - 1 : b - 1]
        assert t.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        want[(n & 1) == 1] *= -1.0
        signed = series._SIGNS[n & 1] * t
        assert signed.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        starts.append(a)
    assert {a % 2 for a in starts} == {0, 1} and starts[-1] + 7 > last


def test_scan_peak_does_not_grow_with_chunk(big_table):
    # A scan holds one piece of _SUB terms at a time, so its working memory
    # beyond the trace's own arrays stays near 2.5 MB (parity, mostly one
    # piece's block arithmetic) and 1 MB (erdos), whatever _REAL_CHUNK is.
    parity_partial(big_table, 10**5)  # the first call imports numpy modules lazily
    for scan, n in ((parity_partial, 5 * 10**7), (erdos_partial, 10**7)):
        tracemalloc.start()
        try:
            tr = scan(big_table, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        own = tr.indices.nbytes + tr.values.nbytes + tr.compensations.nbytes
        assert peak < 4 * 2**20 + own, scan.__name__


@pytest.mark.parametrize(
    "call, reason",
    [(lambda: verify_equivalence(TABLE, [1, 100]), "x_values must be integers >= 3"),
     (lambda: verify_equivalence(TABLE, [2, 100]), "x_values must be integers >= 3"),
     (lambda: verify_equivalence(TABLE, []), "x_values must be integers >= 3"),
     (lambda: average_consecutive(erdos_partial(TABLE, 1)), "trace too short to average"),
     (lambda: erdos_partial(TABLE, 100).value_at(99), "index 99 is not a checkpoint"),
     (lambda: erdos_partial(TABLE, 100).value_at(101), "index 101 is not a checkpoint"),
     (lambda: oscillation_stats(TABLE, 5, 5), "need 1 <= n_lo < n_hi"),
     (lambda: oscillation_stats(TABLE, 0, 5), "need 1 <= n_lo < n_hi")],
    ids=["x below 2", "x 2", "no x", "one-point trace", "between checkpoints", "past the last checkpoint",
         "n_lo = n_hi", "n_lo 0"],
)
def test_series_readers_reject_configuration(call, reason):
    with pytest.raises(ValueError, match=reason):
        call()
