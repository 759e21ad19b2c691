"""Evaluation quantities: average loss, seen-task loss, and loss degradation.

Everything here is recomputed in full precision from iterates and task data
at measurement time; nothing is derived from logged, rounded values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tasks import min_norm_solution


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
    if idx.min() < 1 or idx.max() > collection.M:
        raise ValueError(f"prefix entries must lie in [1..{collection.M}]")
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


def _reference_solution(collection, w_star):
    if w_star is None:
        w_star = collection.w_star
    if w_star is None:
        w_star = min_norm_solution(collection)
    return np.asarray(w_star)


def summarize(trajectory, collection, w_star=None):
    """Final-iterate metrics for a trajectory.

    ``w_star`` defaults to the collection's planted solution, falling back to
    the minimum-norm solution of the stacked system.
    """
    w_star = _reference_solution(collection, w_star)
    w = trajectory.iterates[-1]
    return MetricsRecord(
        avg_loss=average_loss(w, collection),
        seen_loss=seen_task_loss(w, collection, trajectory.ordering),
        degradation=loss_degradation(trajectory, collection),
        dist_to_wstar=float(np.linalg.norm(w - w_star)),
    )


def task_losses(W, task):
    """``task_loss`` of every row of a (trials, d) array of iterates.

    Products are summed row by row (no BLAS call whose blocking could depend
    on the number of rows), so each trial's value is independent of the batch.
    """
    r = (W[:, None, :] * task.X).sum(axis=2) - task.y
    return 0.5 * (r * r).sum(axis=1)


def summarize_batch(run, collection, w_star=None):
    """``summarize`` for a ``schemes.BatchRun``: a MetricsRecord of (trials,) arrays.

    One pass over the tasks accumulates the average and the seen-task loss of
    the final iterates, in task order as the single-trial functions do.
    """
    w_star = _reference_solution(collection, w_star)
    W, order = run.final, run.ordering
    k = order.shape[1]
    if k < 1:
        raise ValueError("degradation needs at least one step")
    total = np.zeros(len(W))
    seen = np.zeros(len(W))
    for m, task in enumerate(collection.tasks, start=1):
        losses = task_losses(W, task)
        total += losses
        seen += np.count_nonzero(order == m, axis=1) * losses
    seen /= k
    diff = W - w_star
    return MetricsRecord(
        avg_loss=total / collection.M,
        seen_loss=seen,
        degradation=seen - run.loss_after_sum / k,
        dist_to_wstar=np.sqrt((diff * diff).sum(axis=1)),
    )
