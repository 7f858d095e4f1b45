"""erdoslab: numerical experiments on alternating prime series.

A numpy-backed laboratory covering prime tables at scale, compensated
partial sums of alternating and unit-phase prime series, singular series
of tuples with certified truncation, exact tuple censuses against their
density predictions, a seeded random sifted-set model of primes in short
windows, and prime-gap statistics.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it. A name's module is
# imported on its first access (PEP 562), so ``import erdoslab.cli`` loads
# only what a command runs.
_SOURCES = {
    "BoundsError": "errors",
    "BonferroniBound": "model",
    "EquivalenceReport": "series",
    "GapSeriesConfig": "gaps",
    "ModelConfig": "model",
    "MomentReport": "model",
    "OffsetTuple": "singular",
    "ParityStatReport": "gaps",
    "PartialSumTrace": "series",
    "PrimeTable": "primes",
    "SiftedSample": "model",
    "SingularValue": "singular",
    "SmallGapReport": "gaps",
    "TupleCheckReport": "census",
    "average_consecutive": "series",
    "binomial_moment_sum": "model",
    "bonferroni_bound": "model",
    "build_table": "primes",
    "cache_path": "primes",
    "check_tuple": "census",
    "check_tuples": "census",
    "count_tuples": "census",
    "draw_sample": "model",
    "dyadic_gap_stats": "gaps",
    "empirical_parity_statistic": "gaps",
    "erdos_partial": "series",
    "exact_parity_bias": "model",
    "gallagher_sum": "singular",
    "gap_series_partial": "gaps",
    "load_or_build": "primes",
    "load_table": "primes",
    "log_integral": "census",
    "membership_probability": "model",
    "mertens_product": "model",
    "moments": "model",
    "nu": "singular",
    "oscillation_stats": "series",
    "pair_correlation_asymptotic": "singular",
    "pair_correlation_curve": "singular",
    "pair_correlation_sum": "singular",
    "pair_singular_table": "singular",
    "parity_bias": "model",
    "parity_bias_stderr": "model",
    "parity_biases": "model",
    "parity_partial": "series",
    "sieve_cutoff": "model",
    "sifted_sets": "model",
    "singular_series": "singular",
    "small_gap_count": "gaps",
    "small_sieve": "primes",
    "survivor_counts": "model",
    "verify_equivalence": "series",
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    """A public name, imported from its module on first access and kept."""
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
