"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
values alongside the asserts.
"""

import math
import time

import numpy as np
import pytest

from erdoslab.calibration import load_fixture
from erdoslab.cli import main as cli_main
from erdoslab.gaps import dyadic_gap_stats, small_gap_count
from erdoslab.model import (
    ModelConfig,
    bonferroni_bound,
    exact_parity_bias,
    moments,
    parity_bias,
    parity_bias_stderr,
)
from erdoslab.census import check_tuple, count_tuples
from erdoslab.primes import build_table
from erdoslab.series import average_consecutive, erdos_partial, verify_equivalence
from erdoslab.singular import (
    OffsetTuple,
    gallagher_sum,
    pair_correlation_asymptotic,
    pair_correlation_curve,
    pair_correlation_sum,
    singular_series,
)

SEED = 42
ANCHOR = -0.052161


def _ok(num, msg):
    print(f"PASS criterion {num}: {msg}")


def test_criterion_01_erdos_limit():
    tol = load_fixture()["series"]["erdos_avg_tol_1e7"]
    n = 10**7
    t0 = time.perf_counter()
    table = build_table(181_000_000)
    trace = erdos_partial(table, n + 1, -1.0, dense_windows=((n, n + 1),))
    value = average_consecutive(trace).value_at(n).real
    elapsed = time.perf_counter() - t0
    assert abs(value - ANCHOR) < tol
    assert elapsed < 60.0
    _ok(1, f"averaged partial sum at 1e7 = {value:.6f} "
           f"(|diff| = {abs(value - ANCHOR):.2e} < {tol}), {elapsed:.1f}s < 60s")


def test_criterion_02_equivalence(big_table):
    rep = verify_equivalence(big_table, [10**5, 3 * 10**5, 10**6], -1.0)
    spread = max(abs(a - b) for a in rep.differences for b in rep.differences)
    assert spread < 1e-1
    wide = verify_equivalence(big_table, [10**5, 3 * 10**5, 10**6, 3 * 10**6, 10**7], -1.0)
    deltas = wide.consecutive_spreads()
    assert deltas.size >= 3
    assert np.all(np.diff(deltas) < 0)  # shrinks monotonically as x grows
    _ok(2, f"spread {spread:.4f} < 0.1 at x in {{1e5, 3e5, 1e6}}; consecutive "
           f"spreads {np.array2string(deltas, precision=5)} strictly decreasing")


def test_criterion_03_singular_oracle(big_table):
    # brute-force Euler product over every prime <= 1e8
    odd = big_table.primes[1 : big_table.pi(10**8)].astype(np.float64)
    logs = np.log1p(-1.0 / (odd - 1.0) ** 2).astype(np.longdouble)
    brute = 2.0 * float(np.exp(logs.sum()))
    got = singular_series(OffsetTuple([0, 2]), 10**6).value
    assert abs(got - brute) < 1e-6
    non_admissible = [
        [0, 1], [0, 3], [0, 5], [0, 7], [1, 2], [0, 2, 4], [0, 4, 8], [0, 1, 2], [2, 4, 6],
    ]
    for offs in non_admissible:
        sv = singular_series(OffsetTuple(offs))
        assert sv.value == 0.0 and not sv.admissible, offs
    _ok(3, f"pair value {got:.9f} vs brute {brute:.9f} "
           f"(diff {abs(got - brute):.2e} < 1e-6); {len(non_admissible)} "
           "non-admissible tuples exactly zero")


def test_criterion_04_pair_correlation():
    got = pair_correlation_sum(2000)
    want = pair_correlation_asymptotic(2000)
    rel = abs(got - want) / want
    assert rel < 0.005
    hs = np.arange(50, 5001)
    assert np.all(pair_correlation_curve(hs) <= hs.astype(float) ** 2)
    _ok(4, f"H=2000 sum {got:.1f} within {100 * rel:.3f}% of asymptotic {want:.1f}; "
           "sum <= H^2 on [50, 5000]")


def test_criterion_05_bonferroni_exhaustive():
    t0 = time.perf_counter()
    for N in range(41):
        target = (-1) ** N
        for r in range(61):
            v = bonferroni_bound(N, r).value
            if r % 2 == 0:
                assert v >= target, (N, r)
            else:
                assert v <= target, (N, r)
            if r >= N:
                assert v == target, (N, r)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(5, f"all N <= 40, r <= 60 sandwiched with equality at r >= N ({elapsed:.2f}s < 1s)")


def test_criterion_06_model_moments(model_table):
    c_var = load_fixture()["model"]["c_var"]
    lines = []
    for lam in (1.0, 2.0, 4.0):
        cfg = ModelConfig.from_scale(1e6, lam, model_table, seed=SEED)
        rep = moments(cfg, cfg.cutoff_z, 10_000, model_table)
        assert abs(rep.mean - rep.predicted_mean) <= 3 * rep.mean_stderr, lam
        assert rep.variance <= rep.predicted_variance_bound, lam
        lines.append(
            f"lam={lam:g}: mean {rep.mean:.4f} vs {rep.predicted_mean:.4f} "
            f"(3se={3 * rep.mean_stderr:.4f}), var {rep.variance:.4f} <= "
            f"{rep.predicted_variance_bound:.4f}"
        )
    _ok(6, f"c_var={c_var:.3f}; " + "; ".join(lines))


def test_criterion_07_exact_small_scale_bias(model_table):
    cfg = ModelConfig.from_scale(55, 1.5, model_table, seed=SEED)
    assert cfg.window_len <= 6 and cfg.cutoff_z <= 7
    exact = exact_parity_bias(cfg, model_table)
    mc = parity_bias(cfg, 100_000, model_table)
    se = parity_bias_stderr(mc, 100_000)
    assert abs(mc - exact) <= 3 * se
    # desk scale, where the residue tuples number the primorial of 2293
    desk = ModelConfig.from_scale(1e6, 1.0, model_table, seed=SEED)
    exact_desk = exact_parity_bias(desk, model_table)
    mc_desk = parity_bias(desk, 100_000, model_table)
    se_desk = parity_bias_stderr(mc_desk, 100_000)
    assert abs(mc_desk - exact_desk) <= 3 * se_desk
    lo, hi = load_fixture()["model"]["bias_lambda1_band"]
    assert lo <= exact_desk <= hi
    _ok(7, f"window {cfg.window_len}, cutoff {cfg.cutoff_z}: exact "
           f"{exact:.6f} vs Monte Carlo {mc:.6f} (|diff|/se = {abs(mc - exact) / se:.2f}); "
           f"window {desk.window_len}, cutoff {desk.cutoff_z}: exact {exact_desk:.6f} vs "
           f"Monte Carlo {mc_desk:.6f} (|diff|/se = {abs(mc_desk - exact_desk) / se_desk:.2f}), "
           f"in band [{lo:.4f}, {hi:.4f}]")


def test_criterion_08_bias_decay(model_table):
    fx = load_fixture()["model"]
    cfg1 = ModelConfig.from_scale(1e6, 1.0, model_table, seed=SEED)
    cfg4 = ModelConfig.from_scale(1e6, 4.0, model_table, seed=SEED)
    b1 = parity_bias(cfg1, 100_000, model_table)
    b4 = parity_bias(cfg4, 100_000, model_table)
    se = math.hypot(parity_bias_stderr(b1, 100_000), parity_bias_stderr(b4, 100_000))
    assert abs(b4) < abs(b1) / 3 + 2 * se
    lo, hi = fx["bias_lambda1_band"]
    assert lo <= b1 <= hi
    assert lo < math.exp(-2.0) < hi
    _ok(8, f"|bias(4)| = {abs(b4):.5f} < |bias(1)|/3 + 2se = {abs(b1) / 3 + 2 * se:.5f}; "
           f"bias(1) = {b1:.5f} in calibrated band [{lo:.4f}, {hi:.4f}] bracketing e^-2")


def test_criterion_09_tuple_census(big_table):
    for x in (10, 100, 10**4, 10**6, 5 * 10**7, 10**8):
        assert count_tuples(big_table, OffsetTuple([0]), x) == big_table.pi(x), x
    # independent twin oracle from the prime list itself
    p = big_table.primes[: big_table.pi(10**6 + 2)]
    brute_twins = int(np.count_nonzero(np.isin(p + 2, p)))
    counted = count_tuples(big_table, OffsetTuple([0, 2]), 10**6)
    assert counted == brute_twins == 8169
    rep = check_tuple(big_table, OffsetTuple([0, 2]), 10**6)
    rel = rep.abs_error / rep.count
    assert rel < 0.05
    _ok(9, f"count({{0}}, x) = pi(x) up to 1e8; twin count {counted} = brute oracle; "
           f"|count - prediction|/count = {100 * rel:.2f}% < 5%")


def test_criterion_10_gap_experiments(big_table):
    for X, lam in ((10**4, 0.5), (10**6, 0.5), (10**7, 0.8)):
        rep = small_gap_count(big_table, X, lam)
        assert rep.gallagher_main == gallagher_sum(2, int(lam * math.log(X))), (X, lam)
    stats = dyadic_gap_stats(big_table)
    assert all(s.has_gap_two for s in stats)
    top = stats[-1]
    _ok(10, f"Gallagher main term identical across modules; gap 2 present in all "
            f"{len(stats)} dyadic blocks (last [{top.n_lo}, {top.n_hi}), "
            f"primes to {big_table.limit:.0e})")


def test_criterion_11_cli_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ERDOS_CACHE_DIR", str(tmp_path / "cache"))
    outputs = []
    for name, extra in (("a", []), ("b", []), ("c", ["--workers=4"]), ("d", ["--workers=2"])):
        args = [
            "model", "bias", "--x=1e6", "--lambda=1", "--samples=30000",
            f"--seed={SEED}", f"--out={name}.csv", *extra,
        ]
        assert cli_main(args) == 0
        outputs.append((tmp_path / f"{name}.csv").read_bytes())
    assert len(set(outputs)) == 1
    for name, extra in (("j1", ["--workers=1"]), ("j3", ["--workers=3"])):
        args = [
            "model", "moments", "--x=1e6", "--lambda=2", "--samples=5000",
            f"--seed={SEED}", "--format=json", f"--out={name}.json", *extra,
        ]
        assert cli_main(args) == 0
    assert (tmp_path / "j1.json").read_bytes() == (tmp_path / "j3.json").read_bytes()
    _ok(11, "model bias/moments outputs byte-identical across reruns and worker counts")
