"""Evaluation quantities: average loss, seen-task loss, and loss degradation.

Everything here is recomputed in full precision from iterates and task data
at measurement time; nothing is derived from logged, rounded values.  The
distance to the solution is measured from the collection's own
``reference_solution``, which the collection solves once and keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .orderings import check_indices


def task_loss(w, task):
    """Squared-error loss 0.5 * ||X w - y||^2 on a single task."""
    r = task.X @ w - task.y
    return 0.5 * float(r @ r)


def excess_loss(w, task):
    """Loss above the task's own minimum (never negative up to rounding)."""
    return task_loss(w, task) - task.min_loss


def average_loss(w, collection):
    """Mean of the per-task losses over the whole collection."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (collection.d,):
        raise ValueError(f"w must have length {collection.d}, got shape {w.shape}")
    return sum(task_loss(w, t) for t in collection.tasks) / collection.M


def seen_task_loss(w, collection, prefix):
    """Mean loss over the realized ordering prefix, counting multiplicity.

    ``prefix`` holds 1-based task indices tau_1..tau_k.
    """
    idx = np.asarray(prefix, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("seen-task loss needs a nonempty ordering prefix")
    check_indices(idx, collection.M)
    uniq, counts = np.unique(idx, return_counts=True)
    total = sum(int(c) * task_loss(w, collection.tasks[m - 1])
                for m, c in zip(uniq, counts))
    return total / idx.size


def loss_degradation(trajectory, collection):
    """Seen-task loss of the final iterate minus the losses at training time.

    Negative values indicate backward transfer (the final iterate beats the
    iterate that had just trained on the task).
    """
    order = trajectory.ordering
    k = len(order)
    if k < 1:
        raise ValueError("degradation needs at least one step")
    w_final = trajectory.iterates[-1]
    seen = seen_task_loss(w_final, collection, order)
    at_time = sum(task_loss(trajectory.iterates[t], collection.tasks[order[t - 1] - 1])
                  for t in range(1, k + 1))
    return seen - at_time / k


@dataclass(frozen=True)
class MetricsRecord:
    avg_loss: float
    seen_loss: float
    degradation: float
    dist_to_wstar: float


def summarize(trajectory, collection):
    """Final-iterate metrics for a trajectory."""
    w = trajectory.iterates[-1]
    return MetricsRecord(
        avg_loss=average_loss(w, collection),
        seen_loss=seen_task_loss(w, collection, trajectory.ordering),
        degradation=loss_degradation(trajectory, collection),
        dist_to_wstar=float(np.linalg.norm(w - collection.reference_solution)),
    )


# Trials per block of the batched metric pass: enough that each block's
# temporaries hold about this many float64s.
_BLOCK_ELEMS = 1 << 14


def summarize_batch(run, collection):
    """``summarize`` for a ``schemes.BatchRun``: a MetricsRecord of (trials,) arrays.

    Trials are scored in fixed-size blocks, so no (trials, M), (trials, rows)
    or (trials, k) array is built.  For a block, one stacked matmul of the
    collection's column-major stacked task rows against the iterates forms
    every residual r, as one BLAS gemv per trial, never one product over the
    batch.  A trial's average loss is 0.5 * sum(r^2) / M over all rows, and
    its seen-task loss 0.5 * sum(c * r^2) / k, c the number of times the
    row's task was drawn in the trial (one ``bincount`` per block).  Each sum
    runs along a trial's own contiguous row, so a trial's values do not
    depend on which other trials share the batch.
    """
    W, order = run.final, run.ordering
    trials, k = order.shape
    if k < 1:
        raise ValueError("degradation needs at least one step")
    M = collection.M
    check_indices(order, M)  # else bincount miscounts
    X, y, task = collection.stacked_rows
    block = max(1, _BLOCK_ELEMS // max(len(y), k))
    total = np.empty(trials)
    seen = np.empty(trials)
    for a in range(0, trials, block):
        b = min(a + block, trials)
        r = np.matmul(X, W[a:b, :, None])[:, :, 0]
        r -= y
        r *= r
        total[a:b] = r.sum(axis=1)
        drawn = order[a:b] + M * np.arange(b - a)[:, None]
        drawn -= 1
        counts = np.bincount(drawn.ravel(), minlength=(b - a) * M).reshape(b - a, M)
        # 0 * inf is nan: an overflow on a task the trial never drew is not seen.
        if not np.isfinite(total[a:b]).all():
            r[counts[:, task] == 0] = 0.0
        r *= counts.astype(np.float64).take(task, axis=1)
        seen[a:b] = r.sum(axis=1)
    total *= 0.5
    seen *= 0.5
    seen /= k
    diff = W - collection.reference_solution
    return MetricsRecord(
        avg_loss=total / M,
        seen_loss=seen,
        degradation=seen - run.loss_after_sum / k,
        dist_to_wstar=np.sqrt((diff * diff).sum(axis=1)),
    )
