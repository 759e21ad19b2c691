import tracemalloc

import numpy as np
import pytest

from conftest import loss_scale
from contreg import metrics, tasks
from contreg.harness import METRIC_NAMES, build_schedule, sample_orderings
from contreg.metrics import (average_loss, excess_loss, loss_degradation,
                             seen_task_loss, summarize, summarize_batch, task_loss)
from contreg.orderings import sample_ordering, stream
from contreg.schedules import custom_schedule
from contreg.schemes import BatchRun, Trajectory, run_batch, run_continual
from contreg.tasks import generate_realizable, new_collection, new_task


def test_average_loss_examples():
    col = new_collection([new_task([[1.0]], [2.0])])
    assert average_loss(np.array([0.0]), col) == pytest.approx(2.0)
    col = new_collection([new_task([[1.0]], [2.0]), new_task([[1.0]], [0.0])])
    assert average_loss(np.array([1.0]), col) == pytest.approx(0.5)
    col = generate_realizable(d=4, M=3, n=2, radius=1.0, seed=2)
    assert average_loss(col.w_star, col) <= 1e-18
    with pytest.raises(ValueError, match="length"):
        average_loss(np.zeros(5), col)


def test_seen_task_loss_examples():
    col = new_collection([new_task([[1.0]], [2.0]), new_task([[1.0]], [0.0])])
    w = np.array([0.0])
    # full single cover equals the average loss
    assert seen_task_loss(w, col, [1, 2]) == pytest.approx(average_loss(w, col))
    assert seen_task_loss(w, col, [1, 1]) == pytest.approx(2.0)
    col2 = generate_realizable(d=3, M=3, n=1, radius=1.0, seed=4)
    assert seen_task_loss(col2.w_star, col2, [1, 2, 2]) <= 1e-18
    with pytest.raises(ValueError, match="nonempty"):
        seen_task_loss(w, col, [])
    with pytest.raises(ValueError, match=r"\[1\.\.2\]"):
        seen_task_loss(w, col, [3])


def test_seen_task_loss_prefix_permutation_invariant():
    rng = stream(31)
    col = generate_realizable(d=5, M=4, n=2, radius=1.0, seed=6)
    w = rng.standard_normal(5)
    prefix = rng.integers(1, 5, size=20)
    shuffled = rng.permutation(prefix)
    assert seen_task_loss(w, col, prefix) == pytest.approx(
        seen_task_loss(w, col, shuffled), rel=1e-12)


def test_excess_linearity_identity():
    rng = stream(32)
    col = generate_realizable(d=4, M=5, n=2, radius=1.3, seed=8)
    w = rng.standard_normal(4)
    lhs = average_loss(w, col) - average_loss(col.w_star, col)
    rhs = np.mean([excess_loss(w, t) for t in col.tasks])
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_degradation_zero_at_single_step():
    col = generate_realizable(d=3, M=2, n=1, radius=1.0, seed=9)
    traj = run_continual(col, [2], custom_schedule(1, lam=[1.0]), "regularized")
    assert loss_degradation(traj, col) == pytest.approx(0.0, abs=1e-18)
    with pytest.raises(ValueError, match="degradation needs at least one step"):
        loss_degradation(Trajectory(iterates=np.zeros((1, 3)),
                                    ordering=np.zeros(0, np.int64)), col)


def test_degradation_equals_seen_loss_for_projections():
    # training to convergence leaves zero loss at training time on realizable data
    col = generate_realizable(d=6, M=3, n=2, radius=1.0, seed=10)
    order = sample_ordering("with-replacement", 3, 25, seed=11)
    traj = run_continual(col, order, None, "unregularized")
    seen = seen_task_loss(traj.iterates[-1], col, order)
    assert loss_degradation(traj, col) == pytest.approx(seen, rel=1e-10, abs=1e-18)


def test_degradation_negative_on_slow_two_task_instance():
    # strong anchoring: early per-task losses stay high while the final iterate
    # has nearly solved both tasks, so backward transfer dominates
    col = new_collection([new_task([[1.0, 0.0]], [1.0]),
                          new_task([[0.0, 1.0]], [1.0])],
                         w_star=np.array([1.0, 1.0]))
    k = 30
    order = [1, 2] * 15
    traj = run_continual(col, order, custom_schedule(k, lam=np.full(k, 5.0)),
                         "regularized")
    value = loss_degradation(traj, col)
    assert value < 0
    assert value == pytest.approx(-0.0733320701688285, rel=1e-9)


def test_summarize_uses_planted_then_min_norm_solution():
    col = generate_realizable(d=4, M=4, n=2, radius=1.0, seed=12)
    order = sample_ordering("with-replacement", 4, 10, seed=13)
    traj = run_continual(col, order, None, "unregularized")
    rec = summarize(traj, col)
    assert rec.avg_loss >= 0 and rec.seen_loss >= 0 and rec.dist_to_wstar >= 0
    assert rec.dist_to_wstar == pytest.approx(
        float(np.linalg.norm(traj.iterates[-1] - col.w_star)))
    # strip the planted solution: falls back to the stacked min-norm solution
    bare = new_collection(col.tasks)
    rec2 = summarize(traj, bare)
    assert rec2.avg_loss == rec.avg_loss
    assert rec2.dist_to_wstar == pytest.approx(rec.dist_to_wstar, abs=1e-9)


def test_the_minimum_norm_solution_is_solved_once(monkeypatch):
    """A collection without w_star solves its minimum-norm solution on first
    use and keeps it, read-only: summarize and summarize_batch on it solve it
    once between them and measure from that one point."""
    solves = []
    solve = tasks.min_norm_solution

    def counting(col):
        solves.append(col)
        return solve(col)

    monkeypatch.setattr(tasks, "min_norm_solution", counting)
    col = new_collection(generate_realizable(d=4, M=4, n=2, radius=1.0, seed=12).tasks)
    assert col.w_star is None
    order = sample_ordering("with-replacement", 4, 10, seed=13)
    rec = summarize(run_continual(col, order, None, "unregularized"), col)
    (run,) = run_batch(col, [(order[None], build_schedule({"kind": "none"}, col.radius, 10))],
                       "unregularized")
    batch = summarize_batch(run, col)
    assert solves == [col]
    assert not col.reference_solution.flags.writeable
    assert batch.dist_to_wstar[0] == pytest.approx(rec.dist_to_wstar, rel=1e-12)
    assert rec.dist_to_wstar == pytest.approx(
        float(np.linalg.norm(run.final[0] - solve(col))), rel=1e-12)


def test_task_loss_is_half_squared_residual():
    t = new_task([[2.0, 0.0]], [4.0])
    assert task_loss(np.zeros(2), t) == pytest.approx(8.0)
    assert excess_loss(np.zeros(2), t) == pytest.approx(8.0)


def wide_cell(trials=200, k=16):
    """A sweep-wide cell: 400 Gaussian tasks of 5 rows in d=10, without replacement."""
    col = generate_realizable(d=10, M=400, n=5, radius=1.0, seed=7)
    idx, _ = sample_orderings("without-replacement", col.M, k, trials, 11)
    schedule = build_schedule({"kind": "increasing-coefficient"}, col.radius, k)
    (run,) = run_batch(col, [(idx, schedule)], "regularized")
    return col, run


def test_summarize_batch_is_the_same_across_block_edges():
    col, run = wide_cell()
    block = metrics._BLOCK_ELEMS // len(col.stacked_rows[1])
    assert 2 < block < len(run.final) // 2
    full = summarize_batch(run, col)
    last = len(run.final) - 1
    for rows in ([0], [block - 1], [block], [last], slice(block - 2, block + 3),
                 slice(1, 2 * block + 1), [last, block, 0]):
        part = summarize_batch(BatchRun(final=run.final[rows], ordering=run.ordering[rows],
                                        loss_after_sum=run.loss_after_sum[rows]), col)
        for name in METRIC_NAMES:
            assert np.array_equal(getattr(part, name), getattr(full, name)[rows]), (rows, name)


def test_summarize_batch_weights_repeated_tasks_the_same_across_block_edges():
    """With-replacement orderings over dense tasks of unequal row counts, so
    tasks repeat within a trial and the seen loss counts each row as often as
    its task was drawn.  Any block edge gives the same bits, and every trial
    matches ``summarize`` to 1e-12 relative to the loss or to
    ``conftest.loss_scale``, as in tests/test_engine.py."""
    rng = np.random.default_rng(12)
    col = new_collection([new_task(rng.standard_normal((n, 6)), rng.standard_normal(n))
                          for n in rng.integers(1, 10, 60)], w_star=rng.standard_normal(6))
    k, trials = 40, 150
    idx, _ = sample_orderings("with-replacement", col.M, k, trials, 5)
    assert all(len(np.unique(row)) < k for row in idx)
    schedule = build_schedule({"kind": "increasing-coefficient"}, col.radius, k)
    (run,) = run_batch(col, [(idx, schedule)], "regularized")
    X, y, task = col.stacked_rows
    assert len(np.unique(np.bincount(task))) > 1
    block = metrics._BLOCK_ELEMS // len(y)
    assert 2 < block < trials // 2
    full = summarize_batch(run, col)
    last = trials - 1
    for rows in ([0], [block - 1], [block], [last], slice(block - 2, block + 3),
                 slice(1, 2 * block + 1), [last, block, 0]):
        part = summarize_batch(BatchRun(final=run.final[rows], ordering=run.ordering[rows],
                                        loss_after_sum=run.loss_after_sum[rows]), col)
        for name in METRIC_NAMES:
            assert np.array_equal(getattr(part, name), getattr(full, name)[rows]), (rows, name)

    for i in range(trials):
        traj = run_continual(col, idx[i], schedule, "regularized")
        want = summarize(traj, col)
        rho = float(np.linalg.norm(traj.iterates, axis=1).max())
        scale = loss_scale(col, rho)
        for name in ("avg_loss", "seen_loss", "degradation"):
            a, b = getattr(full, name)[i], getattr(want, name)
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), scale), (i, name)


def test_summarize_batch_adds_nothing_for_unequal_row_counts():
    """Integer data make every sum exact, so the batched pass must equal the
    single-trial functions bit for bit; a non-finite iterate spoils only its
    own trial."""
    rng = np.random.default_rng(4)
    col = new_collection([new_task(rng.integers(-3, 4, (n, 3)), rng.integers(-3, 4, n))
                          for n in (1, 4, 2, 3, 1)], w_star=np.zeros(3))
    W = rng.integers(-5, 6, (4, 3)).astype(float)
    W[2, 1] = np.inf
    order = rng.integers(1, col.M + 1, (4, 7))
    with np.errstate(invalid="ignore"):
        got = summarize_batch(BatchRun(final=W, ordering=order, loss_after_sum=np.zeros(4)),
                              col)
    for i in (0, 1, 3):
        assert got.avg_loss[i] == average_loss(W[i], col)
        assert got.seen_loss[i] == got.degradation[i] == seen_task_loss(W[i], col, order[i])
    assert not np.isfinite(got.avg_loss[2]) and not np.isfinite(got.seen_loss[2])
    # A loss that overflows on a task the trial never drew is not seen.
    col = new_collection([new_task([[1.0]], [2.0]), new_task([[1e200]], [1e300])])
    with np.errstate(over="ignore"):
        got = summarize_batch(BatchRun(final=np.ones((1, 1)), ordering=np.ones((1, 3), np.int64),
                                       loss_after_sum=np.zeros(1)), col)
    assert got.avg_loss[0] == np.inf and got.seen_loss[0] == 0.5
    for bad in (0, 3):
        with pytest.raises(ValueError, match=r"ordering entries must lie in \[1\.\.2\]"):
            summarize_batch(BatchRun(final=np.ones((2, 1)), ordering=np.array([[1], [bad]]),
                                     loss_after_sum=np.zeros(2)), col)
    with pytest.raises(ValueError, match="degradation needs at least one step"):
        summarize_batch(BatchRun(final=np.ones((2, 1)), ordering=np.ones((2, 0), np.int64),
                                 loss_after_sum=np.zeros(2)), col)


def test_summarize_batch_working_set_stays_small():
    col, run = wide_cell()
    summarize_batch(run, col)  # builds the collection's cached rows
    tracemalloc.start()
    try:
        summarize_batch(run, col)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 512 * 1024, peak
