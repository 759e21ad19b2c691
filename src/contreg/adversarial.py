"""Hard task collections witnessing the 1/k floor on expected rates.

Both constructions are ordinary jointly realizable collections; nonuniform
sampling weights are realized by replicating tasks, so downstream code keeps
plain uniform orderings.  Each is built as one stack of k one-row tasks, a
replica being one more row of it, by one batched SVD: bit for bit the
collection of k separately built tasks.  The any-algorithm construction is
exposed in its two halves as well, probing the learner for the sign
(``any_alg_sign``) and building the collection for a sign
(``any_alg_collection``), so that a caller can keep the collections, which
depend on k and the sign alone.  The claims the collections witness (their
thresholds and floors) are stated by the scenario runners in ``harness``,
where they are checked and reported.
"""

from __future__ import annotations

import numpy as np

from .tasks import stacked_collection


def seen_task_lb_collection(k):
    """``(collection, w0)``: a collection forcing seen-task loss >= 1/(144 k)
    with constant probability from the start w0 = e_1 (read-only: callers
    that keep the pair share it).

    Two-dimensional: k-1 replicas of the row e_2 (target 0) plus one row
    x = (sqrt(1 - alpha^2), alpha) with alpha = sqrt(1/2), target 0.
    Uniform with-replacement sampling over the k tasks then encounters the
    x-row once with probability bounded away from zero, and a proximally
    anchored solver started at e_1 is left with either a lingering x-residual
    or a large e_2-residual.  The zero vector solves every task, so the
    collection is jointly realizable.
    """
    k = int(k)
    if k < 9:
        raise ValueError(f"construction needs k >= 9, got {k}")
    alpha = np.sqrt(0.5)
    rows = np.zeros((k, 1, 2))
    rows[:-1, 0, 1] = 1.0
    rows[-1, 0] = np.sqrt(1.0 - alpha ** 2), alpha
    w0 = np.array([1.0, 0.0])
    w0.flags.writeable = False
    return stacked_collection(rows, np.zeros((k, 1)), w_star=np.zeros(2)), w0


def _any_alg_horizon(k):
    k = int(k)
    if k < 2:
        raise ValueError(f"construction needs k >= 2, got {k}")
    return k


def any_alg_probe_collection():
    """The collection of the one task (e_1, 0) that the any-algorithm
    adversary probes the learner on, for every k: k uniform draws from k
    replicas of (e_1, 0) can only be that task k times."""
    return stacked_collection(np.array([[[1.0, 0.0]]]), np.zeros((1, 1)))


def any_alg_sign(k, probe, col):
    """The sign a of the held-out target, chosen against the learner.

    ``probe(col, k)`` is called once, with ``col`` the probe collection
    (``any_alg_probe_collection()``), and returns the learner's final vector
    after training k times on (e_1, 0); a is 1 if its second coordinate is
    <= 0, else -1.  Since the learner is probed once, the probe must be
    deterministic: one run is then its whole outcome distribution.
    """
    k = _any_alg_horizon(k)
    w = np.asarray(probe(col, k), dtype=np.float64)
    if w.shape != (2,):
        raise ValueError(f"probe must return a length-2 vector, got {w.shape}")
    return 1.0 if w[1] <= 0 else -1.0


def any_alg_collection(k, sign):
    """The adversary's collection for the sign ``sign`` (1 or -1): k-1
    replicas of (e_1, 0) plus one (e_2, sign).  Its planted ``w_star`` is
    sign * e_2, which solves it exactly, so ``w_star[1]`` records the sign."""
    k = _any_alg_horizon(k)
    if sign not in (1.0, -1.0):
        raise ValueError(f"sign must be 1 or -1, got {sign!r}")
    rows = np.zeros((k, 1, 2))
    rows[:-1, 0, 0] = 1.0
    rows[-1, 0, 1] = 1.0
    targets = np.zeros((k, 1))
    targets[-1] = sign
    return stacked_collection(rows, targets, w_star=np.array([0.0, sign]))


def any_alg_lb_collection(k, probe):
    """Two-dimensional collection on which any fixed learner loses >= Omega(1/k)
    on average: ``any_alg_collection(k, a)`` for the sign a that
    ``any_alg_sign`` chooses against the deterministic ``probe`` on
    ``any_alg_probe_collection()``."""
    return any_alg_collection(k, any_alg_sign(k, probe, any_alg_probe_collection()))
