import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy import stats

from contreg.orderings import (derived_seed, sample_ordering, sample_orderings, stream,
                               WITH_REPLACEMENT, WITHOUT_REPLACEMENT)


def test_single_task_collection_is_constant():
    o = sample_ordering(WITH_REPLACEMENT, 1, 50, seed=9)
    assert_array_equal(o, np.ones(50, dtype=np.int64))
    assert o.dtype == np.int64 and not o.flags.writeable


def test_without_replacement_full_draw_is_permutation():
    o = sample_ordering(WITHOUT_REPLACEMENT, 7, 7, seed=4)
    assert sorted(o) == list(range(1, 8))


def test_without_replacement_rejects_long_draws():
    with pytest.raises(ValueError, match="k <= M"):
        sample_ordering(WITHOUT_REPLACEMENT, 3, 4, seed=0)


def test_determinism_across_calls_and_paths():
    a = sample_ordering(WITH_REPLACEMENT, 5, 100, seed=77, path=(64, 3))
    b = sample_ordering(WITH_REPLACEMENT, 5, 100, seed=77, path=(64, 3))
    c = sample_ordering(WITH_REPLACEMENT, 5, 100, seed=77, path=(64, 4))
    assert_array_equal(a, b)
    assert np.any(a != c)


@pytest.mark.parametrize("kind", [WITH_REPLACEMENT, WITHOUT_REPLACEMENT])
def test_sample_orderings_match_one_trial_at_a_time(kind):
    seed = 2 ** 63 + 5
    idx, seeds = sample_orderings(kind, 9, 6, 5, seed, with_seeds=True)
    assert_array_equal(sample_orderings(kind, 9, 6, 5, seed), idx)
    assert idx.shape == (5, 6) and len(seeds) == 5
    for i in range(5):
        assert_array_equal(idx[i], sample_ordering(kind, 9, 6, seed, path=(6, i)))
        assert seeds[i] == derived_seed(seed, 6, i)


def test_streams_are_independent_per_trial():
    draws = {tuple(stream(5, i).integers(0, 1000, size=4)) for i in range(20)}
    assert len(draws) == 20


def test_empirical_frequency_binomial_window():
    o = sample_ordering(WITH_REPLACEMENT, 2, 10 ** 5, seed=1234)
    freq = np.mean(o == 1)
    assert 0.49 <= freq <= 0.51


def test_chi_square_uniformity():
    M, n = 8, 10 ** 5
    o = sample_ordering(WITH_REPLACEMENT, M, n, seed=2024)
    counts = np.bincount(o, minlength=M + 1)[1:]
    expected = n / M
    statistic = np.sum((counts - expected) ** 2 / expected)
    critical = stats.chi2.isf(1e-3, df=M - 1)
    assert statistic < critical


def test_unknown_kind_and_bad_sizes():
    with pytest.raises(ValueError, match="unknown ordering"):
        sample_ordering("cyclic", 3, 3, seed=0)
    with pytest.raises(ValueError, match="M must be"):
        sample_ordering(WITH_REPLACEMENT, 0, 3, seed=0)
    with pytest.raises(ValueError, match="k must be"):
        sample_ordering(WITH_REPLACEMENT, 3, -1, seed=0)


def test_zero_length_ordering_allowed():
    o = sample_ordering(WITH_REPLACEMENT, 3, 0, seed=0)
    assert len(o) == 0
