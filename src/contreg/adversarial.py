"""Hard task collections witnessing the 1/k floor on expected rates.

Both constructions are ordinary jointly realizable collections; nonuniform
sampling weights are realized by replicating tasks, so downstream code keeps
plain uniform orderings.  A replica is the same ``RegressionTask`` object
repeated (tasks are immutable), so its cached SVD and norms are computed once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .tasks import new_collection, new_task


@dataclass(frozen=True, eq=False)
class AdversarialScenario:
    """A hard collection plus the numeric claim it is meant to witness.

    ``threshold`` maps a horizon k to the loss level the claim is about;
    ``success_prob_floor`` is the minimum empirical probability of exceeding
    it (None for scenarios whose claim is about the mean).
    """

    collection: object
    threshold: Callable[[int], float]
    success_prob_floor: float | None
    recommended_w0: np.ndarray | None = None
    meta: dict = field(default_factory=dict)


def _unit_row(d, coord, value=1.0):
    x = np.zeros((1, d))
    x[0, coord] = value
    return x


def seen_task_lb_collection(k, d=2):
    """Collection forcing seen-task loss >= 1/(144 k) with constant probability.

    k-1 replicas of the row e_2 (target 0) plus one row
    x = (sqrt(1 - alpha^2), alpha, 0, ...) with alpha = sqrt(1/2), target 0.
    Uniform with-replacement sampling over the k tasks then encounters the
    x-row once with probability bounded away from zero, and a proximally
    anchored solver started at e_1 is left with either a lingering x-residual
    or a large e_2-residual.  The zero vector solves every task, so the
    collection is jointly realizable.
    """
    k = int(k)
    if k < 9:
        raise ValueError(f"construction needs k >= 9, got {k}")
    if d < 2:
        raise ValueError("construction needs d >= 2")
    alpha = np.sqrt(0.5)
    x = np.zeros((1, d))
    x[0, 0] = np.sqrt(1.0 - alpha ** 2)
    x[0, 1] = alpha
    tasks = [new_task(_unit_row(d, 1), [0.0])] * (k - 1) + [new_task(x, [0.0])]
    w0 = np.zeros(d)
    w0[0] = 1.0
    return AdversarialScenario(
        collection=new_collection(tasks, w_star=np.zeros(d)),
        threshold=lambda kk: 1.0 / (144.0 * kk),
        success_prob_floor=0.15,
        recommended_w0=w0,
    )


def any_alg_lb_collection(k, d, probe, probe_trials=1000):
    """Collection on which any fixed learner loses >= Omega(1/k) on average.

    The adversary first watches the learner on k replicas of (e_1, 0): the
    ``probe`` callable receives that task sequence and returns the learner's
    final vector.  The sign a of the held-out target is then chosen against
    the majority sign of the learner's second coordinate, and the returned
    collection is k-1 replicas of (e_1, 0) plus one (e_2, a).  It is solved
    exactly by a * e_2.  The finite-sample estimate of the majority sign can
    only weaken the adversary, never flip the direction of the claim.
    """
    k = int(k)
    probe_trials = int(probe_trials)
    if k < 2:
        raise ValueError(f"construction needs k >= 2, got {k}")
    if d < 2:
        raise ValueError("construction needs d >= 2")
    if probe_trials < 1:
        raise ValueError("probe_trials must be >= 1")

    e1_task = new_task(_unit_row(d, 0), [0.0])
    probe_tasks = [e1_task] * k
    nonpositive = 0
    for _ in range(probe_trials):
        w = np.asarray(probe(probe_tasks), dtype=np.float64)
        if w.shape != (d,):
            raise ValueError(f"probe must return a length-{d} vector, got {w.shape}")
        if w[1] <= 0:
            nonpositive += 1
    estimate = nonpositive / probe_trials
    a = 1.0 if estimate >= 0.5 else -1.0

    tasks = [e1_task] * (k - 1) + [new_task(_unit_row(d, 1), [a])]
    w_star = np.zeros(d)
    w_star[1] = a
    return AdversarialScenario(
        collection=new_collection(tasks, w_star=w_star),
        threshold=lambda kk: 1.0 / (64.0 * kk),
        success_prob_floor=None,
        meta={"adversary_sign": a, "estimated_prob_nonpositive": estimate},
    )
