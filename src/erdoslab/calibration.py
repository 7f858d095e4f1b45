"""Calibrated constants behind the property suite.

Big-O statements fix no usable constants, so the bounds asserted by the
tests (variance constant, bias bands, oscillation ratio) are measured
once by `calibrate_*` oracle runs, written to a JSON fixture that is
checked into the repository, and treated as frozen afterwards; CI asserts
against the fixture and never recalibrates silently.

The committed model section is reproduced by `calibrate_model` at its
seed, except in the last bits of two entries: `variance_ratios[0]` and
`c_var` come out 3 and 2 ulp below the file's values. The oldest committed
version of `calibrate_model` gives the same values as today's, so the file
was written by a run whose sample variance rounded differently in its last
bits. The file stays frozen, and a test pins every other entry exactly and
these two to within 4 ulp, far below what any change of the draws moves.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from pathlib import Path

from . import model as M
from .primes import PrimeTable

_cached_fixture: dict | None = None


def fixture_path() -> Path:
    return Path(resources.files("erdoslab").joinpath("data/model_calibration.json"))


def load_fixture(path: str | Path | None = None) -> dict:
    global _cached_fixture
    if path is None and _cached_fixture is not None:
        return _cached_fixture
    p = Path(path) if path else fixture_path()
    if not p.exists():
        raise FileNotFoundError(
            f"calibration fixture {p} missing; run `erdoslab calibrate --suite=all` once"
        )
    data = json.loads(p.read_text())
    if path is None:
        _cached_fixture = data
    return data


def save_fixture(data: dict, path: str | Path | None = None) -> Path:
    p = Path(path) if path else fixture_path()
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    global _cached_fixture
    if path is None:
        _cached_fixture = data
    return p


def _band(est: float, stderr: float) -> list[float]:
    """est +/- max(6 stderr, 0.03), widened to bracket the heuristic exp(-2) by 0.01."""
    halfwidth = max(6.0 * stderr, 0.03)
    anchor = math.exp(-2.0)
    return [min(est - halfwidth, anchor - 0.01), max(est + halfwidth, anchor + 0.01)]


def calibrate_model(table: PrimeTable, samples: int = 100_000, seed: int = 20260808) -> dict:
    """Measure the variance constant and the cutoff-level bias band at x = 1e6.

    c_var is the worst observed variance * log w / window_len over
    lambda in {1, 2, 4} with a 1.5x margin; the bias band at lambda = 1 is
    the estimate +/- max(6 stderr, 0.03), widened to bracket exp(-2).
    """
    x = 1e6
    cfgs = [M.ModelConfig.from_scale(x, lam, table, seed=seed) for lam in (1.0, 2.0, 4.0)]
    sizes = [M.survivor_counts(c, max(samples // 10, 1000), table) for c in cfgs]
    ratios = [float(s.var(ddof=1)) * math.log(c.cutoff_z) / c.window_len for c, s in zip(cfgs, sizes)]
    c_var = 1.5 * max(ratios)

    est = M.parity_bias(cfgs[0], samples, table)  # lambda = 1
    return {
        "x": x,
        "seed": seed,
        "samples": samples,
        "variance_ratios": ratios,
        "c_var": c_var,
        "bias_lambda1_estimate": est,
        "bias_lambda1_band": _band(est, M.parity_bias_stderr(est, samples)),
    }


def calibrate_series(table: PrimeTable) -> dict:
    """Measure the oscillation-reduction ratio and anchor-value errors."""
    from . import series as S

    raw_tv, avg_tv = S.oscillation_stats(table, 10**5, 10**7)
    ratio = avg_tv / raw_tv

    anchor = -0.052161
    errs = {}
    for n in (10**6, 10**7):
        tr = S.erdos_partial(table, n + 1, -1.0, dense_windows=((n, n + 1),))
        av = S.average_consecutive(tr)
        errs[str(n)] = abs(av.value_at(n).real - anchor)
    return {
        "oscillation_raw_tv": raw_tv,
        "oscillation_averaged_tv": avg_tv,
        "oscillation_ratio": ratio,
        "oscillation_ratio_bound": min(10.0 * ratio, 0.10),
        "erdos_anchor": anchor,
        "erdos_avg_abs_error": errs,
        "erdos_avg_tol_1e7": 0.005,
        "erdos_avg_tol_1e6": 0.02,
    }


def calibrate_gaps(table: PrimeTable, base_points: int = 100_000, seed: int = 20260808) -> dict:
    """Measure the empirical parity statistic band over real primes at x = 1e8."""
    from . import gaps as Gp

    x = 10**8
    stat = Gp.empirical_parity_statistic(table, x, 1.0, base_points, seed)

    rep = Gp.small_gap_count(table, 10**7, 0.5)
    return {
        "x": x,
        "seed": seed,
        "base_points": base_points,
        "parity_lambda1_estimate": stat.estimate,
        "parity_lambda1_band": _band(stat.estimate, stat.stderr),
        "density_ratio_x1e7_lambda05": rep.density_ratio,
        "density_ratio_band": [0.1, 2.0],
    }
