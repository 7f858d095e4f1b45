"""Per-layer metrics: which erdoslab functions are traced and what they yield.

Layers are erdoslab's modules. ``calibration`` and ``errors`` do no hot
work and are not traced. Metric names ending in ``.s`` are self times in
seconds: the function's spans minus its traced children's spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

import numpy as np

from tracer import Stat, Target
from workloads import DEFAULT_SEED, MODEL_LIMIT


def _arrays_mb(obj) -> float:
    """Bytes held by an object's numpy attributes, in MB."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray)) / 1e6


TARGETS = [
    Target("erdoslab.primes", "build_table", "primes.build_table"),
    Target("erdoslab.primes", "PrimeTable.save", "primes.save"),
    Target("erdoslab.primes", "load_table", "primes.load_table"),
    Target("erdoslab.primes", "load_or_build", "primes.load_or_build", observe=_arrays_mb),
    Target("erdoslab.primes", "PrimeTable.is_prime_range", "primes.is_prime_range"),
    Target("erdoslab.series", "erdos_partial", "series.erdos_partial"),
    Target("erdoslab.series", "parity_partial", "series.parity_partial",
           "terms", lambda a: a["m_max"] - 1),
    Target("erdoslab.series", "verify_equivalence", "series.verify_equivalence"),
    Target("erdoslab.singular", "singular_series", "singular.singular_series"),
    Target("erdoslab.census", "count_tuples", "census.count_tuples", "ints", lambda a: a["x"]),
    Target("erdoslab.census", "log_integral", "census.log_integral"),
    Target("erdoslab.census", "check_tuple", "census.check_tuple"),
    Target("erdoslab.gaps", "empirical_parity_statistic", "gaps.empirical_parity_statistic"),
    Target("erdoslab.model", "uniform_ints", "model.uniform_ints"),
    Target("erdoslab.model", "residues_for_prime", "model.residues_for_prime",
           "draws", lambda a: len(a["sample_indices"])),
    Target("erdoslab.model", "survivor_counts", "model.survivor_counts", peak_mem=True),
    Target("erdoslab.model", "sieve_cutoff", "model.sieve_cutoff"),
    Target("erdoslab.cli", "main", "cli.main"),
]
PEAK_MEM_METRICS = [t.metric for t in TARGETS if t.peak_mem]

PER_LAYER_UNITS = {
    "primes.build_table.s": "s",
    "primes.save.s": "s",
    "primes.cache_mb": "MB",
    "primes.load_table.s": "s",
    "primes.table_mb": "MB",
    "primes.cache_hit_ratio": "ratio",
    "primes.is_prime_range.s": "s",
    "series.parity_partial.s": "s",
    "series.parity_partial.terms": "count",
    "series.erdos_partial.s": "s",
    "series.verify_equivalence.s": "s",
    "census.count_tuples.s": "s",
    "census.count_tuples.ints": "count",
    "census.log_integral.s": "s",
    "census.check_tuple.s": "s",
    "singular.singular_series.s": "s",
    "gaps.empirical_parity_statistic.s": "s",
    "model.uniform_ints.s": "s",
    "model.residues_for_prime.s": "s",
    "model.residues_for_prime.draws": "count",
    "model.survivor_counts.s": "s",
    "model.survivor_counts.peak_mb": "MB",
    "model.sieve_cutoff.s": "s",
    "cli.startup_s": "s",
    "cli.main.overhead_s": "s",
    "trace.overhead_s": "s",
    "model.survivor_counts.w2_speedup": "ratio",
    "model.draw_sample.s": "s",
    "singular.gallagher_sum.k3_s": "s",
}

# Layer cases outside the workloads: the thread pool's gain at lambda = 5,
# one-sample draws, and a k = 3 Gallagher sum. They do not depend on the
# workload, so only the workload with ``layer_cases`` set runs them; the
# others report 0.
LAYER_CASES = ("model.survivor_counts.w2_speedup", "model.draw_sample.s",
               "singular.gallagher_sum.k3_s")
W2_SAMPLES = 100_000
DRAW_SAMPLES = 100
GALLAGHER_K, GALLAGHER_H = 3, 200


def import_cli(src: Path):
    """Import erdoslab.cli from ``src``, never from an installed copy."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("erdoslab.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"erdoslab imported from {cli.__file__}, not from {src}")
    return cli


def merge_stats(into: dict[str, Stat], spans: dict[str, dict]) -> None:
    """Add one traced command's span statistics to a run's totals."""
    for metric, raw in spans.items():
        s = into.setdefault(metric, Stat())
        s.calls += raw["calls"]
        s.total_s += raw["total_s"]
        s.self_s += raw["self_s"]
        s.count += raw["count"]
        s.unreadable |= raw["unreadable"]
        s.observed = max(s.observed, raw["observed"])
        s.peak_mb = max(s.peak_mb, raw["peak_mb"])


def per_layer_metrics(setup: dict[str, Stat], run: dict[str, Stat],
                      mem: dict[str, Stat]) -> dict[str, float]:
    """Metrics from the traced set-up, the traced warm commands and the
    untimed peak-memory pass."""
    m: dict[str, float] = {}
    for t in TARGETS:
        st = (setup if t.metric in ("primes.build_table", "primes.save") else run).get(t.metric, Stat())
        m[f"{t.metric}.s"] = st.self_s
        if t.count_name:
            m[f"{t.metric}.{t.count_name}"] = st.count
    loads = run.get("primes.load_or_build", Stat())
    m["primes.table_mb"] = loads.observed
    m["primes.cache_hit_ratio"] = (
        run.get("primes.load_table", Stat()).calls / loads.calls if loads.calls else 0.0
    )
    m["model.survivor_counts.peak_mb"] = mem.get("model.survivor_counts", Stat()).peak_mb
    m["cli.main.overhead_s"] = m.pop("cli.main.s")
    return {k: v for k, v in m.items() if k in PER_LAYER_UNITS}


def layer_cases(outcome, seed: int = DEFAULT_SEED) -> tuple[dict[str, float], list[str]]:
    """Untraced timings of layer cases no workload runs; (metrics, missing)."""
    from erdoslab import model, primes, singular

    m = dict.fromkeys(LAYER_CASES, 0.0)
    missing = [f"{mod.__name__}.{fn}" for mod, fn in (
        (model, "survivor_counts"), (model, "draw_sample"), (model, "ModelConfig"),
        (singular, "gallagher_sum"), (primes, "build_table"),
    ) if not hasattr(mod, fn)]
    if missing:
        return m, missing

    table = primes.build_table(MODEL_LIMIT)
    cfg = model.ModelConfig.from_scale(1e6, 5.0, table, seed=seed)
    t0 = time.perf_counter()
    one = model.survivor_counts(cfg, W2_SAMPLES, table, workers=1)
    t1 = time.perf_counter()
    two = model.survivor_counts(cfg, W2_SAMPLES, table, workers=2)
    t2 = time.perf_counter()
    outcome.record([] if np.array_equal(one, two) else
                   ["survivor_counts: workers=2 counts differ from workers=1"])
    m["model.survivor_counts.w2_speedup"] = (t1 - t0) / (t2 - t1)

    t0 = time.perf_counter()
    for i in range(DRAW_SAMPLES):
        model.draw_sample(cfg, table=table, sample_index=i)
    m["model.draw_sample.s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    singular.gallagher_sum(GALLAGHER_K, GALLAGHER_H)
    m["singular.gallagher_sum.k3_s"] = time.perf_counter() - t0
    return m, []


def span_table(setup: dict[str, Stat], run: dict[str, Stat]) -> dict[str, dict]:
    """Calls, inclusive and self time of every span, for the run record."""
    def rows(stats: dict[str, Stat]) -> dict[str, dict]:
        return {k: _row(s) for k, s in stats.items() if s.calls}
    return {"setup": rows(setup), "run": rows(run)}


def _row(s: Stat) -> dict:
    return {"calls": s.calls, "total_s": round(s.total_s, 6), "self_s": round(s.self_s, 6),
            "count": s.count, "unreadable": s.unreadable}
