"""Edge alignments: chunk borders, rank-checkpoint borders, tiny tables."""

import math


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erdoslab.model import ModelConfig, survivor_counts, draw_sample
from conftest import dense_sieve
from erdoslab.primes import build_table, load_table
from erdoslab.series import erdos_partial, parity_partial, verify_equivalence

TABLE = build_table(40_000_000)


def test_pi_at_rank_checkpoint_edges():
    dense = dense_sieve(200_000)
    for x in (65_535, 65_536, 65_537, 131_071, 131_072, 131_073):
        assert TABLE.pi(x) == int(np.searchsorted(dense, x, side="right")), x


def test_series_checkpoints_at_chunk_edges():
    # scan chunks are 2^20 long for real phases; 2^16 for complex ones
    edges = [1, 2, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, (1 << 20) - 1, 1 << 20, (1 << 20) + 1]
    tr = erdos_partial(TABLE, (1 << 20) + 5, -1.0, checkpoints=np.array(edges))
    # exactly-rounded fsum oracle at every edge (precision itself is pinned
    # against exact rationals elsewhere)
    n_hi = (1 << 20) + 1
    k = np.arange(1, n_hi + 1, dtype=np.float64)
    terms = np.where(np.arange(1, n_hi + 1) & 1, -1.0, 1.0) * k / TABLE.primes[:n_hi]
    for n in edges:
        want = math.fsum(terms[:n])
        assert tr.value_at(n).real == pytest.approx(want, rel=1e-12), n
    zi = erdos_partial(TABLE, (1 << 16) + 2, 1j, checkpoints=np.array(edges[:5]))
    direct = 0j
    want = {}
    for k in range(1, (1 << 16) + 3):
        direct += 1j**k * k / int(TABLE.primes[k - 1])
        if k in edges[:5]:
            want[k] = direct
    for n, v in want.items():
        assert zi.value_at(n) == pytest.approx(v, abs=1e-9)


def test_parity_checkpoint_at_chunk_edge():
    m = 1 << 20
    tr = parity_partial(TABLE, m + 3, -1.0, checkpoints=np.array([m - 1, m, m + 1, m + 3]))
    step = tr.value_at(m + 1) - tr.value_at(m)
    sign = (-1) ** TABLE.pi(m + 1)
    assert step.real == pytest.approx(sign / ((m + 1) * math.log(m + 1)), rel=1e-10)


def test_tiny_table_cache(tmp_path):
    for limit in (2, 3, 4, 5):
        t = build_table(limit)
        loaded = load_table(t.save(tmp_path / f"t{limit}.bin"))
        assert loaded.primes.tolist() == t.primes.tolist()
        assert loaded.limit == limit


@given(limit=st.integers(min_value=2, max_value=30_000))
@settings(max_examples=25, deadline=None)
def test_cache_roundtrip_hypothesis(limit, tmp_path_factory):
    t = build_table(limit)
    path = t.save(tmp_path_factory.mktemp("c") / "t.bin")
    loaded = load_table(path)
    assert np.array_equal(loaded.primes, t.primes)


def test_survivor_marks_at_and_below_first_prime(model_table):
    cfg = ModelConfig.from_scale(1e6, 1.0, model_table, seed=4)
    sizes = np.stack([survivor_counts(cfg, 50, model_table, w) for w in (1, 2, 3, cfg.cutoff_z)])
    # before any sifting the whole window survives
    assert np.all(sizes[0] == cfg.window_len)
    for j, w in enumerate((2, 3)):
        for i in range(50):
            assert sizes[j + 1, i] == draw_sample(cfg, w=w, table=model_table, sample_index=i).size
    assert np.all(np.diff(sizes.astype(np.int64), axis=0) <= 0)  # sifting only removes


def test_equivalence_top_half_spread(big_table):
    rep = verify_equivalence(big_table, [10**4, 10**5, 10**6], -1.0)
    d = rep.differences
    top = abs(d[2] - d[1])
    assert rep.max_pairwise_spread() == pytest.approx(top)
    full = max(abs(d[i] - d[j]) for i in range(3) for j in range(3))
    assert rep.max_pairwise_spread() <= full
