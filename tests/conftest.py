import numpy as np
import pytest

from erdoslab.primes import build_table

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
