import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal
from scipy import stats

from conftest import derived_seed
from contreg import orderings
from contreg.metrics import seen_task_loss, summarize_batch
from contreg.orderings import (sample_ordering, sample_orderings, stream, MAX_TRIALS,
                               WITH_REPLACEMENT, WITHOUT_REPLACEMENT)
from contreg.schemes import BatchRun, run_batch, run_continual
from contreg.tasks import generate_realizable


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
    idx, seeds = sample_orderings(kind, 9, 6, 5, seed)
    assert idx.shape == (5, 6) and len(seeds) == 5
    # schemes.run_batch steps through the (k, trials) array behind the rows
    # without a copy.
    assert idx.T.flags.c_contiguous
    for i in range(5):
        assert_array_equal(idx[i], sample_ordering(kind, 9, 6, seed, path=(6, i)))
        assert seeds[i] == derived_seed(seed, 6, i)
    # Every run of the cell reads these arrays, so none may write to them.
    for shared in (idx, idx.T, seeds):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 99


@pytest.mark.parametrize("kind", [WITH_REPLACEMENT, WITHOUT_REPLACEMENT])
def test_sample_orderings_is_a_pure_function(kind, cell_builds):
    """Each call draws its cell anew: two calls return equal, read-only but
    distinct arrays, and keep nothing between them."""
    first = sample_orderings(kind, 9, 6, 5, 1)
    again = sample_orderings(kind, 9, 6, 5, 1)
    assert cell_builds == [(1, 6, 5), (1, 6, 5)]
    for a, b in zip(first, again):
        assert a is not b and not np.shares_memory(a, b)
        assert a.tobytes() == b.tobytes() and a.dtype == b.dtype
        assert not a.flags.writeable and not b.flags.writeable


# M values for the with-replacement property: powers of two never reject a
# draw, 3 * 2**30 and 2**31 + 5 reject often (the redo path), and above 2**32
# numpy draws 64-bit words, so every trial is redone.
WITH_REPLACEMENT_M = [2 ** e for e in range(41)] + [10, 2 ** 31 + 5, 3 * 2 ** 30, 2 ** 32 + 3]


@st.composite
def ordering_cells(draw):
    kind = draw(st.sampled_from([WITH_REPLACEMENT, WITHOUT_REPLACEMENT]))
    if kind == WITH_REPLACEMENT:
        M = draw(st.sampled_from(WITH_REPLACEMENT_M))
        k = draw(st.integers(0, 300))
    else:
        M = draw(st.sampled_from([1, 2, 10, 16, 300, 400]))
        k = draw(st.integers(0, min(M, 300)))
    # Up to 70 trials spans more than one block of draws once k > 234.
    return kind, M, k, draw(st.integers(1, 70)), draw(st.integers(0, 2 ** 128))


@settings(max_examples=60, deadline=None)
@given(ordering_cells())
@example((WITH_REPLACEMENT, 3 * 2 ** 30, 255, 70, 2 ** 70 + 3))
@example((WITH_REPLACEMENT, 10, 300, 70, 2 ** 128))
@example((WITHOUT_REPLACEMENT, 400, 16, 9, 2 ** 64))
def test_vectorized_pass_matches_numpy_per_trial(cell):
    """Every row and fingerprint equals numpy's own per-trial SeedSequence,
    Philox and Generator, which ``sample_ordering`` uses."""
    kind, M, k, trials, seed = cell
    idx, seeds = sample_orderings(kind, M, k, trials, seed)
    assert idx.shape == (trials, k) and idx.dtype == np.int64
    for i in range(trials):
        assert_array_equal(idx[i], sample_ordering(kind, M, k, seed, path=(k, i)))
        assert seeds[i] == derived_seed(seed, k, i)


@pytest.mark.parametrize("kind, M", [(WITH_REPLACEMENT, 10), (WITH_REPLACEMENT, 2 ** 31 + 5),
                                     (WITH_REPLACEMENT, 2 ** 32 + 3),
                                     (WITHOUT_REPLACEMENT, 10)])
def test_a_cell_builds_one_seed_sequence_and_one_generator(kind, M, monkeypatch):
    """No trial gets its own SeedSequence, Philox or Generator: at M = 2**31 + 5
    about half of all draws are rejected, and above 2**32 every trial is drawn
    by ``Generator.integers``, each from the cell's one rekeyed generator."""
    built = []

    def counting(cls):
        def build(*args, **kwargs):
            built.append(cls.__name__)
            return cls(*args, **kwargs)
        return build
    with monkeypatch.context() as patch:
        for cls in (np.random.SeedSequence, np.random.Philox, np.random.Generator):
            patch.setattr(np.random, cls.__name__, counting(cls))
        idx, seeds = sample_orderings(kind, M, 9, 40, 2 ** 64 + 1)
    assert sorted(built) == ["Generator", "Philox", "SeedSequence"]
    assert idx.T.flags.c_contiguous
    for i in range(40):
        assert_array_equal(idx[i], sample_ordering(kind, M, 9, 2 ** 64 + 1, path=(9, i)))
        assert seeds[i] == derived_seed(2 ** 64 + 1, 9, i)


def test_negative_seed_fails_as_for_one_ordering():
    for kind in (WITH_REPLACEMENT, WITHOUT_REPLACEMENT):
        with pytest.raises(ValueError) as one:
            sample_ordering(kind, 4, 3, -1, path=(3, 0))
        with pytest.raises(ValueError) as many:
            sample_orderings(kind, 4, 3, 5, -1)
        assert str(many.value) == str(one.value)


@pytest.mark.parametrize("kind", [WITH_REPLACEMENT, WITHOUT_REPLACEMENT])
def test_vectorized_pass_working_set_stays_small(kind):
    """Trials are drawn in blocks: beyond the result itself, a 2000-trial
    cell at k = 256 allocates under 1 MiB at its peak."""
    tracemalloc.start()
    try:
        idx, _ = sample_orderings(kind, 256, 256, 2000, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - idx.nbytes < 1 << 20


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


@pytest.mark.parametrize("kind", [WITH_REPLACEMENT, WITHOUT_REPLACEMENT])
def test_trials_past_2_32_are_rejected_before_any_draw(kind, cell_builds):
    """Trial indices are hashed as one uint32 word, so 2**32 trials is the
    most a cell takes: past it an index would wrap onto an earlier trial's
    seed.  The size check comes before any array is made."""
    assert np.iinfo(np.uint32).max == MAX_TRIALS - 1 and orderings._words(MAX_TRIALS - 1) == 1
    assert orderings._words(MAX_TRIALS) == 2
    for trials in (MAX_TRIALS + 1, 2 ** 64, -1):
        with pytest.raises(ValueError, match=f"trials must be >= 0 and <= 2\\*\\*32, "
                                             f"got {trials}"):
            sample_orderings(kind, 3, 2, trials, 0)
    assert cell_builds == []


def test_zero_length_ordering_allowed():
    o = sample_ordering(WITH_REPLACEMENT, 3, 0, seed=0)
    assert len(o) == 0


# Every caller of the ordering range rule, each taking a (1, k) index array.
RANGE_RULE_CALLS = {
    "run_continual": lambda col, idx: run_continual(col, idx[0], None, "unregularized"),
    "run_batch": lambda col, idx: run_batch(col, [(idx, None)], "unregularized"),
    "summarize_batch": lambda col, idx: summarize_batch(
        BatchRun(final=np.zeros((1, col.d)), ordering=idx, loss_after_sum=np.zeros(1)), col),
    "seen_task_loss": lambda col, idx: seen_task_loss(np.zeros(col.d), col, idx[0]),
}


@pytest.mark.parametrize("bad", [0, 5], ids=["zero", "past-M"])
@pytest.mark.parametrize("caller", list(RANGE_RULE_CALLS))
def test_one_range_rule(caller, bad):
    """The runners and the metrics reject an index outside [1..M] by the one
    rule, ``check_indices``, in its words."""
    col = generate_realizable(d=3, M=4, n=2, radius=1.0, seed=0)
    call = RANGE_RULE_CALLS[caller]
    call(col, np.array([[1, 4, 2]]))  # in range: no error
    with pytest.raises(ValueError, match=r"^ordering entries must lie in \[1\.\.4\]$"):
        call(col, np.array([[1, bad, 2]]))
