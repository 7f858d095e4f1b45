"""A table read is its own bound check.

Every reader takes its primes through ``PrimeTable.pi``, ``ranks``,
``walk`` or ``upto``. Given the smallest table that covers the read, it returns what
a large table gives; given a table one prime or one integer short, it
raises BoundsError instead of returning a number from fewer primes.
"""

import math
import pickle

import pytest

from erdoslab import census, gaps, model, series
from erdoslab.errors import BoundsError
from erdoslab.gaps import GapSeriesConfig
from erdoslab.model import ModelConfig
from erdoslab.primes import build_table, load_table
from erdoslab.singular import OffsetTuple

LARGE = build_table(100_000)
P = LARGE.nth_prime


def _cfg(cutoff_z: int) -> ModelConfig:
    # a hand-picked cutoff, as a caller may pass past the table it holds
    return ModelConfig(x=1e6, lam=1.0, window_len=14, cutoff_z=cutoff_z, seed=3)


_X_PARITY = 1000  # the window of empirical_parity_statistic at lambda 1 ends at:
_PARITY_END = _X_PARITY + int(_X_PARITY**0.9) + int(math.log(_X_PARITY))

# id: (a read of table t, the smallest limit that covers it)
_READERS = {
    "pi": (lambda t: t.pi(1000), 1000),
    "upto": (lambda t: t.upto(1000), 1000),
    "first": (lambda t: t.ranks(0, 168), P(168)),  # by count
    "in": (lambda t: 1000 in t, 1000),
    "survivor_counts": (lambda t: model.survivor_counts(_cfg(97), 100, t), 97),
    "parity_biases": (lambda t: model.parity_biases([_cfg(97)], 10_000, t), 97),
    "sifted_sets": (lambda t: model.sifted_sets(_cfg(97), 10, table=t), 97),
    "draw_sample": (lambda t: model.draw_sample(_cfg(97), table=t), 97),
    "moments": (lambda t: model.moments(_cfg(97), 97, 1000, t, c_var=1.0), 97),
    "exact_parity_bias": (lambda t: model.exact_parity_bias(_cfg(13), t), 13),
    "membership_probability": (
        lambda t: model.membership_probability(OffsetTuple([0, 2]), 97, t), 97),
    "membership_probability k=0": (
        lambda t: model.membership_probability(OffsetTuple([]), 97, t), 97),
    "sieve_cutoff": (lambda t: model.sieve_cutoff(1e6, t), model.sieve_cutoff(1e6, LARGE)),
    "erdos_partial": (lambda t: series.erdos_partial(t, 1000), P(1000)),
    "parity_partial head": (lambda t: series.parity_partial(t, 1000), 1000),
    "parity_partial blocks": (lambda t: series.parity_partial(t, 70_000), 70_000),
    "verify_equivalence": (lambda t: series.verify_equivalence(t, [100, 1000]), P(1000)),
    "oscillation_stats": (lambda t: series.oscillation_stats(t, 10, 1000), P(1000)),
    "gap_series_partial": (
        lambda t: gaps.gap_series_partial(t, GapSeriesConfig("alternating_gap"), 1000), P(1001)),
    # the last gap of [X, 2X) ends at the first prime past 2X = 2000, 2003
    "small_gap_count": (lambda t: gaps.small_gap_count(t, 1000, 0.5), 2003),
    "empirical_parity_statistic": (
        lambda t: gaps.empirical_parity_statistic(t, _X_PARITY, 1.0, 1000, 0), _PARITY_END),
    "count_tuples": (lambda t: census.count_tuples(t, OffsetTuple([0, 2]), 1000), 1002),
    "check_tuples": (
        lambda t: census.check_tuples(t, [OffsetTuple([0, 6]), OffsetTuple([0, 2])], 1000), 1006),
}


@pytest.mark.parametrize("read, need", _READERS.values(), ids=_READERS.keys())
def test_short_table_raises(read, need):
    got = read(build_table(need))
    assert pickle.dumps(got) == pickle.dumps(read(LARGE))
    with pytest.raises(BoundsError):
        read(build_table(need - 1))


@pytest.mark.parametrize("read, need", _READERS.values(), ids=_READERS.keys())
def test_short_loaded_table_raises(tmp_path, read, need):
    # the same reads of tables loaded from their cache files, which hold half-gaps
    def loaded(limit):
        return load_table(build_table(limit).save(tmp_path / f"{limit}.bin"))

    got = read(loaded(need))
    assert pickle.dumps(got) == pickle.dumps(read(LARGE))
    with pytest.raises(BoundsError):
        read(loaded(need - 1))
