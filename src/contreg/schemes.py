"""Continual update rules and trajectory runner.

Four ways to ingest one task from the current iterate:

* ``regularized_step``    solve the task exactly, anchored to the iterate by a
                          proximal coefficient (closed form, SPD solve);
* ``budgeted_step``       a literal inner loop of plain gradient steps;
* ``unregularized_step``  train to convergence (project onto the task's
                          solution set);
* ``igd_step``            one gradient step on a quadratic surrogate.

The first two are the schemes under study; the surrogate path must reproduce
them step for step, which the tests check rather than assume.

``run_continual`` applies these literal rules one trial at a time and is the
reference.  ``run_batch`` is the fast path: every rule is the same affine map
w' = p + V^T s(xi) V (w - p) in the task's row basis, with a per-scheme
multiplier s, so it steps all trials of one (k, schedule) cell together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import task_loss
from .surrogates import (BUDGETED, REGULARIZED, build_budgeted_surrogate,
                         build_regularized_surrogate)

UNREGULARIZED = "unregularized"
IGD_REGULARIZED = "igd-of-regularized"
IGD_BUDGETED = "igd-of-budgeted"

SCHEME_KINDS = (REGULARIZED, BUDGETED, UNREGULARIZED, IGD_REGULARIZED, IGD_BUDGETED)

_COEFFICIENT_SCHEMES = (REGULARIZED, IGD_REGULARIZED)
_BUDGET_SCHEMES = (BUDGETED, IGD_BUDGETED)


def regularized_step(w, task, lam):
    """Minimize the task loss plus (lam/2) * ||w' - w||^2 in closed form."""
    if not lam > 0:
        raise ValueError(f"regularization coefficient must be positive, got {lam}")
    lhs = task.gram + lam * np.eye(task.d)
    return np.linalg.solve(lhs, task.xty + lam * np.asarray(w, dtype=np.float64))


def budgeted_step(w, task, gamma, n_steps):
    """Run n_steps explicit gradient steps of size gamma on the task loss."""
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError(f"budget must be >= 1, got {n_steps}")
    r2 = task.spectral_norm ** 2
    if not (gamma > 0 and gamma * r2 < 1):
        raise ValueError(f"inner step size must satisfy 0 < gamma * R_m^2 < 1, "
                         f"got gamma={gamma}, R_m^2={r2}")
    w = np.asarray(w, dtype=np.float64).copy()
    X, y = task.X, task.y
    for _ in range(n_steps):
        w -= gamma * (X.T @ (X @ w - y))
    return w


def unregularized_step(w, task):
    """Train to convergence: the closest point solving the task exactly."""
    w = np.asarray(w, dtype=np.float64)
    return w - task.pinv @ (task.X @ w - task.y)


def igd_step(w, surrogate, eta):
    """Single gradient step of size eta on a quadratic surrogate."""
    if not eta > 0:
        raise ValueError(f"step size must be positive, got {eta}")
    w = np.asarray(w, dtype=np.float64)
    return w - eta * (surrogate.A @ (w - surrogate.anchor))


@dataclass(frozen=True)
class StepRecord:
    """Bookkeeping for one continual step (1-based task index)."""

    task: int
    params: tuple
    eta: float
    loss_before: float
    loss_after: float


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Iterates w_0..w_k plus the realized ordering and per-step records."""

    iterates: np.ndarray
    ordering: np.ndarray
    per_step: tuple
    scheme: str

    @property
    def k(self):
        return len(self.ordering)


def _indices(ordering):
    return ordering.indices if hasattr(ordering, "indices") else np.asarray(ordering, np.int64)


def _check_run(collection, idx, schedule, scheme):
    """Checks shared by both runners; ``idx`` holds 1-based indices, k last."""
    if scheme not in SCHEME_KINDS:
        raise ValueError(f"unknown scheme kind: {scheme!r}")
    k = idx.shape[-1]
    if idx.size and (idx.min() < 1 or idx.max() > collection.M):
        raise ValueError(f"ordering entries must lie in [1..{collection.M}]")

    if scheme == UNREGULARIZED:
        if schedule is not None and schedule.k != k:
            raise ValueError(f"schedule length {schedule.k} != ordering length {k}")
    else:
        if schedule is None:
            raise ValueError(f"scheme {scheme!r} needs a schedule")
        if schedule.k != k:
            raise ValueError(f"schedule length {schedule.k} != ordering length {k}")
        if scheme in _COEFFICIENT_SCHEMES and schedule.lam is None:
            raise ValueError(f"scheme {scheme!r} needs a coefficient schedule")
        if scheme in _BUDGET_SCHEMES and schedule.gamma is None:
            raise ValueError(f"scheme {scheme!r} needs a budget schedule")


def _start(collection, w0):
    if w0 is None:
        return np.zeros(collection.d)
    w = np.asarray(w0, dtype=np.float64).copy()
    if w.shape != (collection.d,):
        raise ValueError(f"w0 must have length {collection.d}")
    return w


def run_continual(collection, ordering, schedule, scheme, w0=None):
    """Run one continual trajectory of a given scheme kind.

    ``schedule`` supplies per-step strengths; it may be None only for the
    unregularized scheme.  For the igd-of-* kinds the surrogate is rebuilt at
    every step from the current task and the step-t schedule entries, and the
    update is taken through it (never through the scheme's own closed form).
    """
    idx = _indices(ordering)
    k = len(idx)
    _check_run(collection, idx, schedule, scheme)
    w = _start(collection, w0)

    skip_first = schedule is not None and schedule.unregularized_first
    iterates = np.empty((k + 1, collection.d))
    iterates[0] = w
    records = []
    for t in range(1, k + 1):
        m = int(idx[t - 1])
        task = collection.tasks[m - 1]
        before = task_loss(w, task)
        params = ()
        eta = 1.0
        if scheme == UNREGULARIZED or (t == 1 and skip_first):
            w = unregularized_step(w, task)
        elif scheme == REGULARIZED:
            params = (float(schedule.lam[t - 1]),)
            w = regularized_step(w, task, params[0])
        elif scheme == BUDGETED:
            params = (float(schedule.gamma[t - 1]), int(schedule.n_steps[t - 1]))
            w = budgeted_step(w, task, *params)
        elif scheme == IGD_REGULARIZED:
            params = (float(schedule.lam[t - 1]),)
            eta = float(schedule.eta[t - 1])
            s = build_regularized_surrogate(task, params[0], eta)
            w = igd_step(w, s, eta)
        else:  # IGD_BUDGETED
            params = (float(schedule.gamma[t - 1]), int(schedule.n_steps[t - 1]))
            eta = float(schedule.eta[t - 1])
            s = build_budgeted_surrogate(task, params[0], params[1], eta)
            w = igd_step(w, s, eta)
        iterates[t] = w
        records.append(StepRecord(task=m, params=params, eta=eta,
                                  loss_before=before, loss_after=task_loss(w, task)))

    iterates.flags.writeable = False
    return Trajectory(iterates=iterates, ordering=idx, per_step=tuple(records),
                      scheme=scheme)


@dataclass(frozen=True, eq=False)
class BatchRun:
    """Final iterates of a batch of trials plus what their metrics need.

    ``final`` is (trials, d); ``ordering`` the (trials, k) 1-based indices the
    batch was run on; ``loss_after_sum`` the per-trial sum over steps of the
    drawn task's loss just after training on it.
    """

    final: np.ndarray
    ordering: np.ndarray
    loss_after_sum: np.ndarray


def _check_strengths(rows, order, schedule, scheme, t0):
    """The literal rules' strength checks, over every step from ``t0`` on.

    ``order`` is (k, trials) with 1-based task indices; the gamma check covers
    only the tasks actually drawn, as the literal rules do.
    """
    igd = scheme in (IGD_REGULARIZED, IGD_BUDGETED)
    if scheme in _COEFFICIENT_SCHEMES:
        lam = schedule.lam[t0:]
        if not np.all(lam > 0):
            bad = lam[np.argmax(~(lam > 0))]
            raise ValueError(f"regularization coefficient must be positive, got {bad}")
    if scheme in _BUDGET_SCHEMES:
        n_steps = schedule.n_steps[t0:]
        if not np.all(n_steps >= 1):
            bad = n_steps[np.argmax(n_steps < 1)]
            raise ValueError(f"budget must be a positive integer, got {bad}" if igd
                             else f"budget must be >= 1, got {bad}")
    if igd:
        eta = schedule.eta[t0:]
        if not np.all(eta > 0):
            raise ValueError(f"step size must be positive, got {eta[np.argmax(~(eta > 0))]}")
    if scheme in _BUDGET_SCHEMES:
        gamma, drawn = schedule.gamma[t0:], order[t0:]
        # Largest inner step each task is trained with (0 if never drawn).
        worst = np.zeros(len(rows.r2) + 1)
        np.maximum.at(worst, drawn, np.broadcast_to(gamma[:, None], drawn.shape))
        too_big = worst[1:] * rows.r2 >= 1
        if not np.all(gamma > 0) or too_big.any():
            if np.all(gamma > 0):
                m = int(np.argmax(too_big))
                g, r2 = worst[m + 1], rows.r2[m]
            else:
                t = int(np.argmax(~(gamma > 0)))
                g, r2 = gamma[t], rows.r2[drawn[t, 0] - 1]
            raise ValueError(f"inner step size must satisfy 0 < gamma * R_m^2 < 1, "
                             f"got gamma={g}, R_m^2={r2}")


def _gains(scheme, schedule, t, sigma, inv_sigma):
    """(g, s) on each direction: the step maps the residual r to s * r, moving
    w by V^T (g * r) with g = (1 - s) / sigma.

    g is formed from 1 - s computed directly (never by subtracting s from 1),
    so it keeps full relative accuracy when it is tiny.
    """
    xi = sigma * sigma
    if scheme in _COEFFICIENT_SCHEMES:
        lam = schedule.lam[t]
        den = xi + lam
        return sigma / den, lam / den
    log_s = schedule.n_steps[t] * np.log1p(-schedule.gamma[t] * xi)
    return -np.expm1(log_s) * inv_sigma, np.exp(log_s)


def run_batch(collection, indices, schedule, scheme, w0=None):
    """Run one (k, schedule) cell: every trial of ``indices`` at once.

    ``indices`` is (trials, k) with 1-based task indices, one row per trial;
    the transpose of a C-ordered (k, trials) array is used without a copy.
    Each step gathers the drawn task's row basis (see
    ``TaskCollection.row_bases``) per trial, forms the residual coordinates
    r = sigma * (V w) - U^T y and applies w <- w - V^T (g * r), which maps
    r to s(xi) * r, i.e. w' = p + V^T s(xi) V (w - p) with p = X^+ y:

    * regularized and igd-of-regularized: s = lam / (xi + lam);
    * budgeted and igd-of-budgeted: s = (1 - gamma xi)^N;
    * unregularized, and the first step under ``unregularized_first``:
      s = 0 on the rank (pinv's cutoff) and 1 off it.

    Padded basis rows are zero, so they leave w unchanged.  Only the
    (trials, d) iterates are kept; the loss each trial needs for degradation,
    rest + 0.5 * ||s * r||^2 just after each step, is summed on the way.
    Every operation acts row by row, so a trial's result does not depend on
    which other trials share the batch.
    """
    indices = np.asarray(indices)
    if indices.ndim != 2:
        raise ValueError(f"indices must be (trials, k), got shape {indices.shape}")
    trials, k = indices.shape
    _check_run(collection, indices, schedule, scheme)
    w = _start(collection, w0)

    order = np.ascontiguousarray(indices.T)  # step-major, 1-based
    rows = collection.row_bases
    projection_only = scheme == UNREGULARIZED
    t0 = int(schedule is not None and schedule.unregularized_first)
    if not projection_only and trials:
        _check_strengths(rows, order, schedule, scheme, t0)

    W = np.tile(w, (trials, 1))
    loss_after = np.zeros(trials)
    for t in range(k):
        m_idx = order[t] - 1
        V, sigma = rows.V[m_idx], rows.sigma[m_idx]
        r = sigma * (V * W[:, None, :]).sum(axis=2) - rows.target[m_idx]
        if projection_only or t < t0:
            on_rank = rows.on_rank[m_idx]
            g, s = on_rank * rows.inv_sigma[m_idx], 1.0 - on_rank
        else:
            g, s = _gains(scheme, schedule, t, sigma, rows.inv_sigma[m_idx])
        W -= (V * (g * r)[:, :, None]).sum(axis=1)
        r *= s
        loss_after += rows.rest[m_idx] + 0.5 * (r * r).sum(axis=1)
    return BatchRun(final=W, ordering=indices, loss_after_sum=loss_after)
