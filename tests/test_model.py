import hashlib
import math
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_sieve
from erdoslab import model as model_mod
from erdoslab.errors import BoundsError
from erdoslab.model import (
    _SPAN,
    ModelConfig,
    binomial_moment_sum,
    bonferroni_bound,
    draw_sample,
    exact_parity_bias,
    membership_probability,
    mertens_product,
    moments,
    parity_bias,
    parity_bias_stderr,
    parity_biases,
    residues_for_prime,
    sieve_cutoff,
    sifted_sets,
    survivor_counts,
    uniform_ints,
)
from erdoslab.primes import build_table
from erdoslab.singular import OffsetTuple, singular_series

TABLE = build_table(10_000)


def test_cutoff_examples():
    assert sieve_cutoff(math.e**math.e, TABLE) == 3
    z = sieve_cutoff(10, TABLE)
    target = 1 / math.log(10)
    prev = int(TABLE.primes[TABLE.pi(z) - 2])
    assert mertens_product(z, TABLE) <= target < mertens_product(prev, TABLE)


def test_cutoff_monotone():
    zs = [sieve_cutoff(x, TABLE) for x in (10, 100, 1e3, 1e4, 1e5, 1e6)]
    assert zs == sorted(zs)


def test_cutoff_range_error():
    with pytest.raises(BoundsError):
        sieve_cutoff(1e30, TABLE)
    with pytest.raises(ValueError):
        sieve_cutoff(5, TABLE)


def _chunked_sieve_cutoff(x, table):
    """Oracle: the Mertens product carried across 4096-rank chunks of ``ranks``, as first written."""
    target = 1.0 / math.log(x)
    carry = np.longdouble(1.0)
    for a in range(0, table.count, 4096):
        p = table.ranks(a, min(a + 4096, table.count))
        cum = carry * np.cumprod((1.0 - 1.0 / p.astype(np.float64)).astype(np.longdouble))
        hits = np.flatnonzero(cum <= np.longdouble(target))
        if hits.size:
            return int(p[hits[0]])
        carry = cum[-1]
    raise BoundsError("oracle table too short")


def test_cutoff_matches_chunked_oracle(mid_table):
    # z reaches 411 259 at 1e10, so the products cross many chunk and walk-run edges
    for x in np.geomspace(10, 1e10, 500).tolist():
        assert sieve_cutoff(x, mid_table) == _chunked_sieve_cutoff(x, mid_table), x


def test_config_from_scale():
    cfg = ModelConfig.from_scale(1e6, 1.0, TABLE, seed=1)
    assert cfg.window_len == round(math.log(1e6))
    assert cfg.cutoff_z == sieve_cutoff(1e6, TABLE)
    with pytest.raises(ValueError):
        ModelConfig.from_scale(1e6, -1.0, TABLE)
    with pytest.raises(ValueError):
        ModelConfig.from_scale(11.0, 0.01, TABLE)  # window rounds to zero


def test_draw_sample_even_residue_kills_evens():
    # find seeds realizing both residue classes mod 2 in a 2-sifted window
    cfg0 = None
    cfg1 = None
    for seed in range(40):
        cfg = ModelConfig(x=60.0, lam=1.0, window_len=4, cutoff_z=2, seed=seed)
        s = draw_sample(cfg, table=TABLE)
        if s.residues[2] == 0 and cfg0 is None:
            cfg0 = s
        if s.residues[2] == 1 and cfg1 is None:
            cfg1 = s
    assert cfg0 is not None and cfg1 is not None
    assert cfg0.survivors.tolist() == [1, 3]
    assert cfg1.survivors.tolist() == [2, 4]


def test_draw_sample_replay_identical():
    cfg = ModelConfig.from_scale(1e6, 1.0, TABLE, seed=42)
    a = draw_sample(cfg, table=TABLE)
    b = draw_sample(cfg, table=TABLE)
    assert a.residues == b.residues
    assert np.array_equal(a.survivors, b.survivors)


@given(seed=st.integers(min_value=0, max_value=2**63), idx=st.integers(min_value=0, max_value=500))
@settings(max_examples=30, deadline=None)
def test_nesting(seed, idx):
    cfg = ModelConfig.from_scale(1e6, 2.0, TABLE, seed=seed)
    small = draw_sample(cfg, w=50, table=TABLE, sample_index=idx)
    full = draw_sample(cfg, table=TABLE, sample_index=idx)
    assert set(full.survivors.tolist()) <= set(small.survivors.tolist())
    # membership definition holds verbatim
    for h in range(1, cfg.window_len + 1):
        survives = all(h % p != a for p, a in small.residues.items())
        assert survives == (h in small.survivors)


def test_membership_examples():
    assert membership_probability(OffsetTuple([5]), 3, TABLE) == pytest.approx(1 / 3, rel=1e-12)
    assert membership_probability(OffsetTuple([]), 10, TABLE) == 1.0
    # p = 2 covers both classes of {1, 2}: some element is always removed
    assert membership_probability(OffsetTuple([1, 2]), 2, TABLE) == 0.0
    with pytest.raises(ValueError):
        membership_probability(OffsetTuple([1, 30]), 10, TABLE)


def test_membership_beyond_table_raises():
    # the product needs every prime <= w; a smaller table would truncate it
    with pytest.raises(BoundsError):
        membership_probability(OffsetTuple([0, 2]), 50_000, TABLE)
    with pytest.raises(BoundsError):
        mertens_product(TABLE.limit + 1, TABLE)


@pytest.mark.parametrize("w", [1, 2, 3, 10, 97, 1000, 9973, 10_000])
def test_mertens_product_matches_direct_sum(w):
    # the former closed form, bit for bit: exp of a longdouble sum of log1p(-1/p)
    logs = np.log1p(-1.0 / dense_sieve(w).astype(np.float64))
    assert mertens_product(w, TABLE) == float(np.exp(np.sum(logs.astype(np.longdouble))))


def test_membership_matches_singular_factorization():
    # prod_{p<=w}(1 - nu/p) = S_{<=w} * prod_{p<=w}(1 - 1/p)^k, checked across code paths
    tup = OffsetTuple([1, 3])
    w = 10_000
    memb = membership_probability(tup, w, TABLE)
    sv = singular_series(tup, w)
    assert memb == pytest.approx(sv.value * mertens_product(w, TABLE) ** 2, rel=1e-10)
    # the window-truncation error against the full singular series is O(k^2 / w)
    full = singular_series(tup, 10**6)
    ratio = memb / (full.value * mertens_product(w, TABLE) ** 2)
    assert abs(ratio - 1.0) <= 2.0 * tup.k**2 / w


def test_residue_streams_uniform():
    n = 50_000
    for rank, p in ((0, 2), (2, 5), (10, 31)):
        r = residues_for_prime(123, rank, p, np.arange(n))
        counts = np.bincount(r, minlength=p)
        sd = math.sqrt(n * (1 / p) * (1 - 1 / p))
        assert np.all(np.abs(counts - n / p) < 4.5 * sd), (p, counts)


def test_survivor_frequency_matches_probability():
    # empirical frequency of h = 1 under sifting by p <= 3
    n = 100_000
    seed = 99
    a2 = residues_for_prime(seed, 0, 2, np.arange(n))
    a3 = residues_for_prime(seed, 1, 3, np.arange(n))
    freq = np.mean((1 % 2 != a2) & (1 % 3 != a3))
    prob = membership_probability(OffsetTuple([1]), 3, TABLE)
    sd = math.sqrt(prob * (1 - prob) / n)
    assert abs(freq - prob) < 3 * sd


def test_joint_survivor_frequency_k2_k3():
    n = 100_000
    cfg = ModelConfig.from_scale(1e6, 1.0, TABLE, seed=5)
    counts = survivor_counts(cfg, n, TABLE, [7])[0]
    # frequency check via explicit membership of a small tuple
    a2 = residues_for_prime(5, 0, 2, np.arange(n))
    a3 = residues_for_prime(5, 1, 3, np.arange(n))
    a5 = residues_for_prime(5, 2, 5, np.arange(n))
    a7 = residues_for_prime(5, 3, 7, np.arange(n))
    for tup in (OffsetTuple([1, 3]), OffsetTuple([1, 3, 7])):
        alive = np.ones(n, dtype=bool)
        for h in tup:
            alive &= (h % 2 != a2) & (h % 3 != a3) & (h % 5 != a5) & (h % 7 != a7)
        prob = membership_probability(tup, 7, TABLE)
        sd = math.sqrt(prob * (1 - prob) / n)
        assert abs(alive.mean() - prob) < 3 * sd, tup
    assert counts.min() >= 0


def test_one_step_transition_law():
    # conditioned on the size at p_n, one element is removed with
    # probability size / p_{n+1} when p_{n+1} exceeds the window span
    cfg = ModelConfig.from_scale(1e6, 1.0, TABLE, seed=31)
    p_lo, p_hi = 53, 59
    sizes = survivor_counts(cfg, 40_000, TABLE, [p_lo, p_hi])
    before, after = sizes[0], sizes[1]
    drops = before - after
    assert set(np.unique(drops).tolist()) <= {0, 1}
    for s in range(1, 6):
        mask = before == s
        m = int(mask.sum())
        if m < 500:
            continue
        want = s / p_hi
        got = drops[mask].mean()
        sd = math.sqrt(want * (1 - want) / m)
        assert abs(got - want) < 3 * sd, (s, got, want)


def _digest(counts):
    return hashlib.sha256(np.ascontiguousarray(counts, dtype="<i8").tobytes()).hexdigest()


def test_worker_independence():
    # digests of the counts of the code that cut one span per worker;
    # 2 * _SPAN + 3 samples make three fixed spans, so the pool has work
    cfg = ModelConfig.from_scale(1e6, 2.0, TABLE, seed=77)
    marks = [1, 2, 100, cfg.cutoff_z]
    for workers in (1, 2, 3):
        counts = survivor_counts(cfg, 2 * _SPAN + 3, TABLE, marks, workers=workers)
        assert counts.shape == (4, 2 * _SPAN + 3)
        assert np.all(counts[0] == cfg.window_len)
        assert _digest(counts) == "a569992cce6a9903be9fa9e00acf2f9b630f2f9681cab35e96c7e671d4edaca5"
    # spans start at sample_start, off the multiples of _SPAN
    counts = survivor_counts(cfg, 20_000, TABLE, marks, sample_start=12_345, workers=2)
    assert _digest(counts) == "da4da44b351d4d9708468fe29859e08aafdf84ee60407baa152aa3b5f26c2c40"


def test_sample_start_offsets_compose():
    cfg = ModelConfig.from_scale(1e6, 1.0, TABLE, seed=3)
    whole = survivor_counts(cfg, 1000, TABLE)[0]
    head = survivor_counts(cfg, 400, TABLE)[0]
    tail = survivor_counts(cfg, 600, TABLE, sample_start=400)[0]
    assert np.array_equal(whole, np.concatenate([head, tail]))


def test_moments_window_zero():
    cfg = ModelConfig(x=1e6, lam=0.0, window_len=0, cutoff_z=13, seed=0)
    rep = moments(cfg, 13, 1000, TABLE, c_var=1.0)
    assert rep.mean == 0.0 and rep.variance == 0.0
    assert rep.predicted_mean == 0.0 and rep.predicted_variance_bound == 0.0
    assert parity_bias(cfg, 10_000, TABLE) == 1.0


def test_moments_mean_within_3se():
    for lam in (1.0, 2.0):
        cfg = ModelConfig.from_scale(1e6, lam, TABLE, seed=42)
        rep = moments(cfg, cfg.cutoff_z, 4000, TABLE, c_var=1.0)
        assert abs(rep.mean - rep.predicted_mean) <= 3 * rep.mean_stderr
        assert rep.in_lemma_range


def test_moments_validation():
    cfg = ModelConfig.from_scale(1e6, 1.0, TABLE, seed=0)
    with pytest.raises(ValueError):
        moments(cfg, cfg.cutoff_z, 999, TABLE, c_var=1.0)
    with pytest.raises(BoundsError):
        moments(cfg, 5, 1000, TABLE, c_var=1.0)  # below window_len
    rep = moments(cfg, 5, 1000, TABLE, c_var=1.0, allow_out_of_range=True)
    assert not rep.in_lemma_range


def test_parity_bias_validation():
    cfg = ModelConfig.from_scale(1e6, 1.0, TABLE, seed=0)
    with pytest.raises(ValueError):
        parity_bias(cfg, 9_999, TABLE)


def test_bonferroni_examples():
    bb = bonferroni_bound(3, 2)
    assert bb.value == 7 and bb.side == "upper" and not bb.exact
    bb = bonferroni_bound(2, 1)
    assert bb.value == -3 and bb.side == "lower"
    bb = bonferroni_bound(0, 4)
    assert bb.value == 1 and bb.exact
    with pytest.raises(ValueError):
        bonferroni_bound(-1, 2)


@given(N=st.integers(min_value=0, max_value=60), r=st.integers(min_value=0, max_value=80))
@settings(max_examples=120)
def test_bonferroni_sandwich_property(N, r):
    bb = bonferroni_bound(N, r)
    target = (-1) ** N
    if r % 2 == 0:
        assert bb.value >= target
    else:
        assert bb.value <= target
    if r >= N:
        assert bb.value == target


@given(
    N=st.integers(min_value=0, max_value=12),
    theta=st.integers(min_value=1, max_value=7),
)
@settings(max_examples=40)
def test_bonferroni_general_phase_exact_when_r_large(N, theta):
    # binomial theorem: the full expansion reassembles z^N (the summands
    # reach 2^N * C(N, N/2), so exactness is only visible at moderate N)
    z = complex(math.cos(theta), math.sin(theta))
    bb = bonferroni_bound(N, N, z)
    assert bb.value == pytest.approx(z**N, abs=1e-7)
    assert bb.side is None


def test_exact_enumeration_matches_monte_carlo():
    cfg = ModelConfig.from_scale(60, 1.0, TABLE, seed=7)
    assert cfg.window_len == 4 and cfg.cutoff_z == 7
    exact = exact_parity_bias(cfg, TABLE)
    mc = parity_bias(cfg, 20_000, TABLE)
    se = parity_bias_stderr(mc, 20_000)
    assert abs(mc - exact) < 3 * se
    # and the enumeration is an exact rational
    assert exact == float(Fraction(int(round(exact * 210)), 210))


def test_exact_enumeration_guard():
    # L = round(2 log 1e6) = 28: 2^28 survivor masks exceed the default limit
    cfg = ModelConfig.from_scale(1e6, 2.0, TABLE, seed=0)
    assert cfg.window_len == 28
    with pytest.raises(ValueError, match="survivor masks exceed limit"):
        exact_parity_bias(cfg, TABLE)


def _enumerated_parity_bias(config: ModelConfig, table, combo_limit: int = 10**7) -> float:
    """Mean of (-1)^(survivor count) by full enumeration of residue tuples.

    Only feasible for small cutoffs: the state space is the product of all
    primes up to the cutoff.
    """
    primes = [int(p) for p in table.upto(config.cutoff_z)]
    n_combos = 1
    for p in primes:
        n_combos *= p
    if n_combos > combo_limit:
        raise ValueError(f"{n_combos} residue combinations exceed limit {combo_limit}")
    if not primes:
        return 1.0 if config.window_len % 2 == 0 else -1.0

    grids = np.indices(primes).reshape(len(primes), -1)
    sizes = np.zeros(n_combos, dtype=np.int64)
    for h in range(1, config.window_len + 1):
        alive = np.ones(n_combos, dtype=bool)
        for j, p in enumerate(primes):
            alive &= grids[j] != (h % p)
        sizes += alive
    signs_total = n_combos - 2 * int(np.count_nonzero(sizes & 1))
    return float(Fraction(signs_total, n_combos))


@pytest.mark.parametrize("z", [1, 2, 3, 5, 7, 11, 13])
def test_exact_parity_bias_matches_enumeration(z):
    # the survivor chain against every residue tuple, bit for bit
    for L in range(13):
        cfg = ModelConfig(x=1e6, lam=1.0, window_len=L, cutoff_z=z)
        assert exact_parity_bias(cfg, TABLE) == _enumerated_parity_bias(cfg, TABLE), L


def test_exact_parity_bias_memory_and_scale():
    # x = 300 (L = 6, z = 19) has 9.7e6 residue tuples; the chain holds only
    # the counts of 2^6 survivor masks
    cfg = ModelConfig.from_scale(300, 1.0, TABLE)
    assert (cfg.window_len, cfg.cutoff_z) == (6, 19)
    tracemalloc.start()
    try:
        value = exact_parity_bias(cfg, TABLE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == -0.11533048994349304
    assert peak < 1e6
    # desk scale: L = 14 and z = 2293, far past any enumeration
    cfg = ModelConfig.from_scale(1e6, 1.0, TABLE)
    assert (cfg.window_len, cfg.cutoff_z) == (14, 2293)
    t0 = time.perf_counter()
    assert exact_parity_bias(cfg, TABLE) == 0.040209641147796994
    assert time.perf_counter() - t0 < 1.0


def test_binomial_moment_collapse_and_sandwich():
    cfg = ModelConfig.from_scale(1e6, 1.0, TABLE, seed=9)
    pb = parity_bias(cfg, 10_000, TABLE)
    assert binomial_moment_sum(cfg, 60, 10_000, TABLE) == pb  # binomial theorem collapse
    lower = binomial_moment_sum(cfg, 5, 10_000, TABLE)
    upper = binomial_moment_sum(cfg, 6, 10_000, TABLE)
    assert lower <= pb <= upper
    # per-sample sandwich
    sizes = survivor_counts(cfg, 2000, TABLE)[0]
    for s in np.unique(sizes):
        s = int(s)
        assert bonferroni_bound(s, 5).value <= (-1) ** s <= bonferroni_bound(s, 6).value


def test_binomial_moment_window_zero():
    cfg = ModelConfig(x=1e6, lam=0.0, window_len=0, cutoff_z=13, seed=0)
    for r in (0, 1, 5):
        assert binomial_moment_sum(cfg, r, 1000, TABLE) == 1.0


def test_uniform_ints():
    assert np.all(uniform_ints(1, 0, 100, 1) == 0)
    r = uniform_ints(1, 0, 10_000, 7)
    assert r.min() >= 0 and r.max() < 7
    for bound in (0, 1 << 63):
        with pytest.raises(ValueError):
            uniform_ints(1, 0, 10, bound)
        with pytest.raises(ValueError):
            residues_for_prime(1, 0, bound, np.arange(10))


# First 20 draws of seed 9, stream 4, recorded before uniform_ints and
# residues_for_prime shared one rejection loop. Integers, so the pins hold
# on every platform; a change here invalidates the calibration fixture.
GOLDEN_P11 = [9, 6, 2, 7, 1, 8, 1, 5, 0, 6, 9, 8, 3, 1, 5, 9, 2, 0, 3, 7]
GOLDEN_BOUND2 = [0, 1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 1]
# 2^64 mod 3*2^61 = 2^62, so a quarter of all words are rejected
GOLDEN_BOUND_3_2_61 = [
    3268241061641798574, 6816209189602061645, 1683393586411192817, 2227845252301050601,
    3674592715456392676, 6013804888480104807, 501485223970293850, 219008087402004292,
    6531178815660208717, 1629529549744690226, 4975906563427359184, 6885762842342438298,
    3703136970131044985, 3792756281846726921, 3778400728081692575, 3548656474549549801,
    1456344637613012886, 4999176982586255722, 2283426615297328147, 3860798955440215697,
]


def test_golden_draws():
    assert residues_for_prime(9, 4, 11, np.arange(20)).tolist() == GOLDEN_P11
    assert uniform_ints(9, 4, 20, 2).tolist() == GOLDEN_BOUND2
    assert uniform_ints(9, 4, 20, 3 << 61).tolist() == GOLDEN_BOUND_3_2_61


@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    stream=st.integers(min_value=0, max_value=1000),
    count=st.integers(min_value=0, max_value=300),
    bound=st.one_of(st.integers(min_value=1, max_value=1000),
                    st.integers(min_value=1, max_value=2**63 - 1)),
)
@settings(max_examples=60, deadline=None)
def test_uniform_ints_is_residues_over_arange(seed, stream, count, bound):
    got = uniform_ints(seed, stream, count, bound)
    assert np.array_equal(got, residues_for_prime(seed, stream, bound, np.arange(count)))


@pytest.mark.parametrize("bound", [7, 3 << 61], ids=["bound 7", "bound 3 * 2^61"])
def test_uniform_ints_drawn_in_blocks_is_one_draw(bound):
    # a position's draw, rejections included, depends only on (seed, position),
    # so blocks of positions give one whole draw, as the parity statistic takes it
    count, block = 200_003, 1 << 16
    whole = uniform_ints(42, 0x5057, count, bound)
    blocks = [residues_for_prime(42, 0x5057, bound, np.arange(a, min(a + block, count)))
              for a in range(0, count, block)]
    assert np.array_equal(np.concatenate(blocks), whole)
    if bound == 3 << 61:  # a quarter of the first words are rejected at this bound
        pos = np.arange(count, dtype=np.uint64) * np.uint64(model_mod._DRAW_BLOCK)
        first = model_mod._stream_words(42, 0x5057, pos)
        assert 0.2 < np.mean(first >= np.uint64((1 << 64) - (1 << 62))) < 0.3


# -- the packed sifting kernel against the bool-matrix kernel it replaced --

def _bool_sift(config, primes, idx):
    """The bool-matrix kernel, one row of window_len flags per sample: the oracle.

    Yields (p, a, alive) after each prime p, as model._sift did before the
    survivor masks were packed into uint64 words.
    """
    h = np.arange(1, config.window_len + 1, dtype=np.int64)
    alive = np.ones((idx.size, h.size), dtype=bool)
    for rank, p in enumerate(primes):
        p = int(p)
        a = residues_for_prime(config.seed, rank, p, idx)
        alive &= (h % p) != a[:, None]
        yield p, a, alive


def _oracle_counts(config, samples, marks, sample_start=0):
    primes = TABLE.primes[TABLE.primes <= max(marks)]
    idx = np.arange(sample_start, sample_start + samples, dtype=np.int64)
    out = np.full((len(marks), samples), config.window_len, dtype=np.int64)
    alive = np.ones((samples, config.window_len), dtype=bool)
    for k, (_, _, alive) in enumerate(_bool_sift(config, primes, idx), 1):
        for i, w in enumerate(marks):
            if np.count_nonzero(primes <= w) == k:
                out[i] = alive.sum(axis=1)
    return out, alive


@pytest.mark.parametrize("L", [1, 2, 14, 63, 64, 65, 69, 128])
def test_packed_kernel_matches_bool_oracle(monkeypatch, L):
    # short spans, so that 250 samples make several spans
    monkeypatch.setattr(model_mod, "_SPAN", 64)
    cfg = ModelConfig(x=1e6, lam=1.0, window_len=L, cutoff_z=2293, seed=1000 + L)
    # below 2, at a prime, between primes, at the window, at the cutoff
    marks = sorted({0, 1, 2, 4, 100, L, cfg.cutoff_z})
    for start in (0, 777):
        want, alive = _oracle_counts(cfg, 250, marks, sample_start=start)
        for workers in (1, 2, 3):
            got = survivor_counts(cfg, 250, TABLE, marks, sample_start=start, workers=workers)
            assert np.array_equal(got, want), (start, workers)
    want_sets = [np.flatnonzero(row) + 1 for row in _oracle_counts(cfg, 250, [cfg.cutoff_z])[1]]
    got_sets = sifted_sets(cfg, 250, table=TABLE)
    assert len(got_sets) == 250
    for got, want in zip(got_sets, want_sets):
        assert got.dtype == np.int64 and got.tolist() == want.tolist()
    for i in (0, 63, 64, 249):
        s = draw_sample(cfg, table=TABLE, sample_index=i)
        assert s.survivors.tolist() == want_sets[i].tolist()
        primes = TABLE.primes[TABLE.primes <= cfg.cutoff_z]
        idx = np.array([i], dtype=np.int64)
        assert s.residues == {p: int(a[0]) for p, a, _ in _bool_sift(cfg, primes, idx)}


@pytest.mark.parametrize("w", [None, 50, 7, 1])
def test_sifted_sets_are_draw_samples(w):
    # lambda = 5 makes L = 69, two words per mask; w = 1 sifts no prime
    cfg = ModelConfig.from_scale(1e6, 5.0, TABLE, seed=11)
    sets = sifted_sets(cfg, 40, w, table=TABLE)
    for i, got in enumerate(sets):
        assert got.tolist() == draw_sample(cfg, w, table=TABLE, sample_index=i).survivors.tolist()
    if w == 1:
        assert all(s.tolist() == list(range(1, 70)) for s in sets)
    with pytest.raises(ValueError):
        sifted_sets(cfg, 3, cfg.cutoff_z + 1, table=TABLE)
    assert sifted_sets(cfg, 0, table=TABLE) == []
    with pytest.raises(ValueError):
        sifted_sets(cfg, -1, table=TABLE)


def test_packed_kernel_empty_window():
    cfg = ModelConfig(x=1e6, lam=0.0, window_len=0, cutoff_z=13, seed=0)
    assert np.array_equal(survivor_counts(cfg, 5, TABLE, [1, 13]), np.zeros((2, 5), dtype=np.int64))
    assert [s.tolist() for s in sifted_sets(cfg, 3, table=TABLE)] == [[], [], []]
    assert draw_sample(cfg, table=TABLE).survivors.tolist() == []


def _mix64_copy(z):
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _rejection_oracle(seed, rank, p, sample_indices):
    """The full rejection loop: every attempt walks the pending index list."""
    idx = np.asarray(sample_indices, dtype=np.int64)
    start = (seed + (rank + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    key = _mix64_copy(np.array([start], dtype=np.uint64))
    rem = (1 << 64) % p
    threshold = np.uint64((1 << 64) - rem) if rem else None
    out = np.zeros(idx.size, dtype=np.int64)
    pending = np.arange(idx.size)
    for attempt in range(8):
        pos = idx[pending].astype(np.uint64) * np.uint64(8) + np.uint64(attempt)
        words = _mix64_copy(key + (pos + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15))
        ok = np.ones(words.size, dtype=bool) if threshold is None else words < threshold
        out[pending[ok]] = (words[ok] % np.uint64(p)).astype(np.int64)
        pending = pending[~ok]
        if pending.size == 0:
            return out
    raise RuntimeError("exhausted")


_SHUFFLED = np.random.default_rng(5).permutation(4000)


@pytest.mark.parametrize(
    "bound", [1, 2, 11, 2293, 1 << 40, 1 << 62, 3 << 61, 2**63 - 25], ids=str
)
@pytest.mark.parametrize(
    "indices",
    [np.arange(3000), _SHUFFLED, np.array([7, 7, 0, 7, 3999, 0]), np.array([], dtype=np.int64),
     np.arange(2**40, 2**40 + 300)],
    ids=["arange", "shuffled", "duplicated", "empty", "far"],
)
def test_residue_fast_path_matches_rejection_loop(bound, indices):
    before = indices.copy()
    got = residues_for_prime(9, 4, bound, indices)
    want = _rejection_oracle(9, 4, bound, indices)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(indices, before)  # read, never written


def test_rejection_reaches_later_attempts():
    # a quarter of the words are rejected at 3 * 2^61, so the 3000 samples
    # of the comparison above include many that need a third word
    start = (9 + 5 * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    key = _mix64_copy(np.array([start], dtype=np.uint64))
    pos = np.arange(3000, dtype=np.uint64) * np.uint64(8)
    limit = np.uint64((1 << 64) - (1 << 62))
    rejected = [_mix64_copy(key + (pos + np.uint64(attempt + 1)) * np.uint64(0x9E3779B97F4A7C15))
                >= limit for attempt in range(2)]
    assert np.count_nonzero(rejected[0] & rejected[1]) > 100


def test_rejection_past_the_block_completes(monkeypatch):
    # with one word per block, a quarter of the draws at 3 * 2^61 reject their
    # whole block and go on to substreams; they used to raise RuntimeError
    monkeypatch.setattr(model_mod, "_DRAW_BLOCK", 1)
    bound = 3 << 61
    got = uniform_ints(42, 0x5057, 10**6, bound)
    assert got.dtype == np.int64 and got.size == 10**6
    assert (got >= 0).all() and (got < bound).all()
    # a draw whose first word is accepted reads word i of the stream, as before
    start = (42 + (0x5057 + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    key = _mix64_copy(np.array([start], dtype=np.uint64))
    pos = np.arange(10**6, dtype=np.uint64)
    first = _mix64_copy(key + (pos + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15))
    ok = first < np.uint64((1 << 64) - (1 << 62))
    assert 0.2 < 1 - ok.mean() < 0.3
    assert np.array_equal(got[ok], (first[ok] % np.uint64(bound)).astype(np.int64))


# -- one sift for every window that shares a seed and a cutoff --

def _shared_configs(seed, windows):
    # direct construction: the windows share the cutoff of x = 1e6
    z = sieve_cutoff(1e6, TABLE)
    return [ModelConfig(x=1e6, lam=L / math.log(1e6), window_len=L, cutoff_z=z, seed=seed)
            for L in windows]


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_parity_biases_match_per_config(monkeypatch, seed):
    # spans of 4096 make three spans of 10^4 samples; windows of 1, 2 and 3 words,
    # unsorted and repeated
    monkeypatch.setattr(model_mod, "_SPAN", 4096)
    cfgs = _shared_configs(seed, [69, 14, 130, 14, 69])
    got = parity_biases(cfgs, 10_000, TABLE)
    assert got == [parity_bias(c, 10_000, TABLE) for c in cfgs]
    assert got[1] == got[3] and got[0] == got[4]


def test_parity_biases_match_bool_oracle():
    cfgs = _shared_configs(5, [130, 14, 69])
    want = []
    for c in cfgs:
        sizes = _oracle_counts(c, 10_000, [c.cutoff_z])[0][0]
        want.append(float(Fraction(10_000 - 2 * int(np.count_nonzero(sizes & 1)), 10_000)))
    assert parity_biases(cfgs, 10_000, TABLE) == want


def test_span_counts_match_survivor_counts(monkeypatch):
    monkeypatch.setattr(model_mod, "_SPAN", 64)
    cfgs = _shared_configs(9, [14, 130, 0, 69, 14])
    z = cfgs[0].cutoff_z
    for marks, start in (([z], 0), ([1, 2, 100, 14, z], 777), ([z, 50, 3], 12_345)):
        got_marks, spans = model_mod._span_counts(cfgs, 250, TABLE, marks, start)
        assert got_marks == sorted(set(marks))
        got = np.concatenate([counts for _, counts in spans], axis=2)
        assert got.shape == (len(cfgs), len(got_marks), 250)
        for c, row in zip(cfgs, got):
            assert np.array_equal(row, survivor_counts(c, 250, TABLE, marks, sample_start=start))
            assert np.array_equal(row, _oracle_counts(c, 250, got_marks, sample_start=start)[0])


def test_shared_sift_validation():
    cfg = _shared_configs(1, [14])[0]
    other_seed = replace(cfg, window_len=69, seed=2)
    other_cutoff = replace(cfg, window_len=69, cutoff_z=cfg.cutoff_z - 6)
    for bad in ([], [cfg, other_seed], [cfg, other_cutoff]):
        with pytest.raises(ValueError):
            parity_biases(bad, 10_000, TABLE)
        with pytest.raises(ValueError):
            model_mod._span_counts(bad, 10, TABLE)
    # the sample count is checked before any sifting, whatever the configs
    with pytest.raises(ValueError, match="10000 samples"):
        parity_biases([cfg, other_seed], 9_999, TABLE)
    with pytest.raises(ValueError, match="exceed cutoff"):
        model_mod._span_counts([cfg], 10, TABLE, [cfg.cutoff_z + 1])


def test_calibrate_model_reproduces_fixture():
    # see the calibration module docstring for the 4 ulp
    from erdoslab.calibration import calibrate_model, load_fixture

    want = load_fixture()["model"]
    got = calibrate_model(TABLE, 100_000, 20260808)
    assert set(got) == set(want)
    for key in ("x", "seed", "samples", "bias_lambda1_estimate", "bias_lambda1_band"):
        assert got[key] == want[key], key
    for key in ("c_var", "variance_ratios"):
        g, w = np.atleast_1d(got[key]), np.atleast_1d(want[key])
        assert g.size == w.size
        assert np.all(np.abs(g.view(np.int64) - w.view(np.int64)) <= 4), key


# 2000 offsets sifted by the prime 2 alone leave S = 1000 survivors in every
# sample. The truncated expansion sum_{k<=r} (-2)^k C(S, k) is dominated by
# its last term, about 2^500 C(1000, 500) ~ 1e450 at r = 500, so its mean
# does not fit a float64; its sign is that of (-2)^r.
_WIDE = ModelConfig(x=1e6, lam=1.0, window_len=2000, cutoff_z=2, seed=1)


@pytest.mark.parametrize(
    "call, want",
    [(lambda: binomial_moment_sum(_WIDE, -1, 1000, TABLE), "r must be >= 0, got -1"),
     (lambda: binomial_moment_sum(_WIDE, 2, 999, TABLE), "need at least 1000 samples, got 999"),
     (lambda: binomial_moment_sum(_WIDE, 500, 1000, TABLE), math.inf),
     (lambda: binomial_moment_sum(_WIDE, 501, 1000, TABLE), -math.inf),
     # no prime <= the cutoff: nothing is sifted, so S = L and the bias is (-1)^L
     (lambda: exact_parity_bias(replace(_WIDE, window_len=14, cutoff_z=1), TABLE), 1.0),
     (lambda: exact_parity_bias(replace(_WIDE, window_len=15, cutoff_z=1), TABLE), -1.0)],
    ids=["r negative", "999 samples", "+inf", "-inf", "no prime, L even", "no prime, L odd"],
)
def test_model_edge_paths(call, want):
    if isinstance(want, str):
        with pytest.raises(ValueError, match=want):
            call()
    else:
        assert call() == want
