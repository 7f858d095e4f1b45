"""erdoslab: numerical experiments on alternating prime series.

A numpy-backed laboratory covering prime tables at scale, compensated
partial sums of alternating and unit-phase prime series, singular series
of tuples with certified truncation, exact tuple censuses against their
density predictions, a seeded random sifted-set model of primes in short
windows, and prime-gap statistics.
"""

from .census import TupleCheckReport, check_tuple, check_tuples, count_tuples, log_integral
from .errors import BoundsError
from .gaps import (
    GapSeriesConfig,
    ParityStatReport,
    SmallGapReport,
    dyadic_gap_stats,
    empirical_parity_statistic,
    gap_series_partial,
    small_gap_count,
)
from .model import (
    BonferroniBound,
    ModelConfig,
    MomentReport,
    SiftedSample,
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
    sieve_cutoff,
    sifted_sets,
    survivor_counts,
)
from .primes import PrimeTable, build_table, cache_path, load_or_build, load_table, small_sieve
from .series import (
    EquivalenceReport,
    PartialSumTrace,
    average_consecutive,
    erdos_partial,
    oscillation_stats,
    parity_partial,
    verify_equivalence,
)
from .singular import (
    OffsetTuple,
    SingularValue,
    gallagher_sum,
    nu,
    pair_correlation_asymptotic,
    pair_correlation_curve,
    pair_correlation_sum,
    pair_singular_table,
    singular_series,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsError",
    "BonferroniBound",
    "EquivalenceReport",
    "GapSeriesConfig",
    "ModelConfig",
    "MomentReport",
    "OffsetTuple",
    "ParityStatReport",
    "PartialSumTrace",
    "PrimeTable",
    "SiftedSample",
    "SingularValue",
    "SmallGapReport",
    "TupleCheckReport",
    "average_consecutive",
    "binomial_moment_sum",
    "bonferroni_bound",
    "build_table",
    "cache_path",
    "check_tuple",
    "check_tuples",
    "count_tuples",
    "draw_sample",
    "dyadic_gap_stats",
    "empirical_parity_statistic",
    "erdos_partial",
    "exact_parity_bias",
    "gallagher_sum",
    "gap_series_partial",
    "load_or_build",
    "load_table",
    "log_integral",
    "membership_probability",
    "mertens_product",
    "moments",
    "nu",
    "oscillation_stats",
    "pair_correlation_asymptotic",
    "pair_correlation_curve",
    "pair_correlation_sum",
    "pair_singular_table",
    "parity_bias",
    "parity_bias_stderr",
    "parity_biases",
    "parity_partial",
    "sieve_cutoff",
    "sifted_sets",
    "singular_series",
    "small_gap_count",
    "small_sieve",
    "survivor_counts",
    "verify_equivalence",
]
