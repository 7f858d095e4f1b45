import numpy as np
import pytest

from erdoslab.primes import build_table
from erdoslab.series import PartialSumTrace

# Covers p_(1e7 + 1) = 179,424,691 and every m <= 1e7 * log(1e7).
BIG_LIMIT = 181_000_000


def dense_sieve(limit: int) -> np.ndarray:
    """Oracle: all primes <= limit as int64 from one dense sieve of [0, limit], no segments."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    is_comp = np.zeros(limit + 1, dtype=bool)
    is_comp[:2] = True
    for p in range(2, int(limit**0.5) + 1):
        if not is_comp[p]:
            is_comp[p * p :: p] = True
    return np.flatnonzero(~is_comp).astype(np.int64)


def _chunk_scan(checkpoints, chunks, phase):
    """Oracle: the compensated scan with one longdouble cumsum per chunk (ends, terms).

    ``terms`` carry their phase already; each chunk's prefix joins the
    clongdouble total at the chunk's end.
    """
    values = np.zeros(checkpoints.size, dtype=np.complex128)
    comps = np.zeros(checkpoints.size, dtype=np.complex128)
    total = np.clongdouble(0.0)
    abs_total = 0.0
    done = 0
    for ends, terms in chunks:
        abs_total += float(np.abs(terms).sum())
        ld = np.clongdouble if np.iscomplexobj(terms) else np.longdouble
        pre = np.cumsum(terms, dtype=ld)
        hi = int(np.searchsorted(checkpoints, ends[-1], side="right"))
        off = np.searchsorted(ends, checkpoints[done:hi])
        assert np.array_equal(ends[off], checkpoints[done:hi])
        at = total + pre[off]
        values[done:hi] = at
        comps[done:hi] = at - values[done:hi].astype(np.clongdouble)
        total += pre[-1]
        done = hi
    assert done == checkpoints.size
    return PartialSumTrace(checkpoints, values, comps, phase, abs_total)


@pytest.fixture(scope="session")
def big_table():
    return build_table(BIG_LIMIT)


@pytest.fixture(scope="session")
def mid_table():
    return build_table(2_000_000)


@pytest.fixture(scope="session")
def model_table():
    return build_table(10_000)


@pytest.fixture(scope="session")
def trial_division_primes():
    """Independent small-prime oracle: trial division, no sieve involved."""

    def is_prime(n: int) -> bool:
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    return np.array([n for n in range(2, 2001) if is_prime(n)], dtype=np.int64)
