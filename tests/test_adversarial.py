import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from contreg.adversarial import (any_alg_collection, any_alg_lb_collection,
                                 seen_task_lb_collection)
from contreg.metrics import average_loss
from contreg.tasks import TaskStack, new_collection, new_task


def test_seen_task_collection_structure():
    col, w0 = seen_task_lb_collection(9)
    assert col.M == 9
    # eight identical replicas plus one rotated row
    first = col.tasks[0].X
    assert sum(np.array_equal(t.X, first) for t in col.tasks) == 8
    assert_allclose(col.tasks[-1].X, [[np.sqrt(0.5), np.sqrt(0.5)]])
    # every row has unit norm, so the radius is 1
    assert col.radius == pytest.approx(1.0, rel=1e-12)
    # all targets zero: jointly realizable by the zero vector
    assert average_loss(np.zeros(2), col) == 0.0
    assert_allclose(col.w_star, np.zeros(2))
    assert_array_equal(w0, [1.0, 0.0])
    assert not w0.flags.writeable  # a kept collection's callers share it


def test_seen_task_collection_validation():
    with pytest.raises(ValueError, match="k >= 9"):
        seen_task_lb_collection(8)


def test_seen_task_collection_is_two_dimensional():
    col, w0 = seen_task_lb_collection(12)
    assert col.d == 2 and col.M == 12
    assert_array_equal(w0, [1.0, 0.0])
    for task in col.tasks[:-1]:
        assert_array_equal(task.X, [[0.0, 1.0]])


def test_any_alg_adversary_sign_against_constant_probe():
    # a probe that always answers zero has second coordinate <= 0 surely
    col = any_alg_lb_collection(4, lambda col, k: np.zeros(2))
    assert col.M == 4
    assert_allclose(col.w_star, [0.0, 1.0])
    assert np.linalg.norm(col.w_star) == pytest.approx(1.0)
    assert average_loss(col.w_star, col) == 0.0
    assert col.radius == pytest.approx(1.0)


def test_any_alg_adversary_flips_for_positive_probe():
    col = any_alg_lb_collection(4, lambda col, k: np.array([0.0, 2.0]))
    assert_allclose(col.w_star, [0.0, -1.0])
    assert average_loss(col.w_star, col) == 0.0


def test_any_alg_probe_receives_replicas():
    """k uniform draws from k replicas of (e_1, 0) can only be that task k
    times: the probe gets a collection of that one task, and k."""
    seen = {}

    def probe(col, k):
        seen["k"], seen["M"] = k, col.M
        (task,) = col.tasks
        seen["task"] = (task.X.tolist(), task.y.tolist())
        return np.zeros(2)

    any_alg_lb_collection(6, probe)
    assert seen == {"k": 6, "M": 1, "task": ([[1.0, 0.0]], [0.0])}


def test_any_alg_validation():
    probe = lambda col, k: np.zeros(2)
    with pytest.raises(ValueError, match="k >= 2"):
        any_alg_lb_collection(1, probe)
    with pytest.raises(ValueError, match="length-2"):
        any_alg_lb_collection(4, lambda col, k: np.zeros(3))
    with pytest.raises(ValueError, match="k >= 2"):
        any_alg_collection(1, 1.0)
    with pytest.raises(ValueError, match="sign must be 1 or -1"):
        any_alg_collection(4, 0.0)


def assert_same_as_distinct_copies(col):
    """The collection, built as one stack by one batched SVD, is bit for bit
    the collection of its tasks each built alone."""
    distinct = new_collection([new_task(t.X, t.y) for t in col.tasks], w_star=col.w_star)
    assert col.radius == distinct.radius
    for field in ("V", "sigma", "target", "inv_sigma", "on_rank", "rest", "r2"):
        assert_array_equal(getattr(col.row_bases, field),
                           getattr(distinct.row_bases, field))
    (got,), (want,) = col.stacks, distinct.stacks
    for f in dataclasses.fields(TaskStack):
        assert getattr(got, f.name).tobytes() == getattr(want, f.name).tobytes(), f.name


@pytest.mark.parametrize("k", [16, 64])
def test_scenario_replicas_match_distinct_copies(k):
    for col in (seen_task_lb_collection(k)[0],
                any_alg_lb_collection(k, lambda col, kk: np.zeros(2))):
        assert len(col.stacks) == 1
        X, y = col.stacks[0].X, col.stacks[0].y
        assert (X[:-1] == X[0]).all() and (y[:-1] == y[0]).all()
        assert not np.array_equal(X[-1], X[0])
        assert_same_as_distinct_copies(col)
