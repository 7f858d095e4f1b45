"""The per-gap parity kernel against the per-integer scan it replaced."""

import math

import mpmath
import numpy as np
import pytest

from erdoslab.primes import build_table
from erdoslab.series import (
    _BLOCK_CUTOFF,
    RENORM_STEPS,
    _REAL_CHUNK,
    _as_phase,
    _block_sums,
    _scan,
    checkpoint_indices,
    parity_partial,
)

M = 10**7
TABLE = build_table(M)
C = _BLOCK_CUTOFF
PHASES = [-1.0, 1.0, 1j, complex(math.cos(2 * math.pi / 12), math.sin(2 * math.pi / 12))]


def _dense_parity_partial(table, m_max, phase=-1.0, *, checkpoints=None, dense_windows=(), ratio=1.25):
    """The per-integer scan that parity_partial ran before it summed per prime gap.

    Kept as the oracle. The loop is the old one; it now yields each chunk,
    with its index array, to ``_scan``.
    """
    phase = _as_phase(phase)
    cps = checkpoint_indices(2, m_max, ratio, dense_windows, checkpoints)
    real = phase.imag == 0.0 and phase.real in (1.0, -1.0)
    chunk = _REAL_CHUNK if real else RENORM_STEPS

    def chunks():
        parity_carry = 0  # pi(a-1) mod 2
        carry_pw = 1.0 + 0.0j  # phase^pi(a-1)
        for a in range(2, m_max + 1, chunk):
            b = min(a + chunk, m_max + 1)
            m = np.arange(a, b, dtype=np.float64)
            base = 1.0 / (m * np.log(m))
            ind = table.is_prime_range(a, b)
            if real and phase.real == -1.0:
                par = np.bitwise_xor.accumulate(ind.astype(np.uint8)) ^ parity_carry
                base[par == 1] *= -1.0
                parity_carry = int(par[-1])
                yield np.arange(a, b), base
            elif real:
                yield np.arange(a, b), base
            else:
                step = np.where(ind, phase, 1.0 + 0.0j)
                pw = carry_pw * np.cumprod(step)
                carry_pw = complex(pw[-1])
                carry_pw /= abs(carry_pw)
                yield np.arange(a, b), pw * base

    return _scan(cps, chunks(), phase)


def _assert_agree(m_max, phase, **kw):
    got = parity_partial(TABLE, m_max, phase, **kw)
    want = _dense_parity_partial(TABLE, m_max, phase, **kw)
    assert np.array_equal(got.indices, want.indices)
    assert np.max(np.abs(got.values - want.values)) <= 1e-12
    return got


@pytest.mark.parametrize("phase", PHASES, ids=["-1", "+1", "i", "e(1/12)"])
def test_blocks_match_dense_scan(phase):
    _assert_agree(M, phase)


@pytest.mark.parametrize("phase", [-1.0, 1j], ids=["-1", "i"])
def test_checkpoints_on_block_edges(phase):
    p = int(TABLE.primes[TABLE.pi(10**6)])  # the first prime above 1e6
    q = int(TABLE.primes[TABLE.pi(p)])  # the prime after it
    assert q - p >= 4
    # at a prime, a prime - 1, inside a gap and around the cutoff; with m - 1
    # beside each m, the step to m must be the single term at m
    edges = [3, C - 1, C, C + 1, p - 1, p, p + 1, (p + q) // 2, q - 1, q]
    cps = sorted({*edges, *(m - 1 for m in edges), M})
    window = (p - 3, q + 3)  # a dense window over a whole gap
    tr = _assert_agree(M, phase, checkpoints=np.array(cps), dense_windows=(window,))
    for m in [*edges, *range(window[0] + 1, window[1] + 1)]:
        step = tr.value_at(m) - tr.value_at(m - 1)
        want = _as_phase(phase) ** TABLE.pi(m) / (m * math.log(m))
        assert step == pytest.approx(want, rel=1e-6), m


@pytest.mark.parametrize("m_max", [2, 3, C - 1, C, C + 1])
def test_short_scans(m_max):
    for phase in (-1.0, 1j):
        got = _assert_agree(m_max, phase)
        assert got.indices[-1] == m_max


@pytest.mark.parametrize("a", [C, 10**8, 16 * 10**7])
@pytest.mark.parametrize("g", [2, 250])
def test_block_sum_against_mpmath(a, g):
    with mpmath.workdps(40):
        exact = mpmath.fsum(1 / (mpmath.mpf(m) * mpmath.log(m)) for m in range(a, a + g))
        got = _block_sums(np.array([a, a + g]))[0]
        assert abs(got - exact) <= 1e-15 * exact
