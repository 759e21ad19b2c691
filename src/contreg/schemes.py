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
w' = p + V^T s(xi) V (w - p) in the task's row basis, with the multiplier s
that ``surrogates.spectral_multiplier`` computes from the step's strengths, so
it steps all trials of a sweep's (k, schedule) cells together, in blocks of
steps with one multiplier call per block.  The block length is a fixed memory
budget, not an option, and results are bit for bit the same for any length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .surrogates import (BUDGETED, REGULARIZED, build_budgeted_surrogate,
                         build_regularized_surrogate, spectral_multiplier)

UNREGULARIZED = "unregularized"
IGD_REGULARIZED = "igd-of-regularized"
IGD_BUDGETED = "igd-of-budgeted"

# The strengths each scheme reads from its schedule.
READS = {REGULARIZED: ("lam",), BUDGETED: ("gamma", "n_steps"), UNREGULARIZED: (),
         IGD_REGULARIZED: ("lam",), IGD_BUDGETED: ("gamma", "n_steps")}
SCHEME_KINDS = tuple(READS)


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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Iterates w_0..w_k plus the realized ordering."""

    iterates: np.ndarray
    ordering: np.ndarray

    @property
    def k(self):
        return len(self.ordering)


def _check_run(collection, idx, schedule, scheme):
    """Checks shared by both runners; ``idx`` holds 1-based indices, k last."""
    if scheme not in SCHEME_KINDS:
        raise ValueError(f"unknown scheme kind: {scheme!r}")
    k = idx.shape[-1]
    if idx.size and (idx.min() < 1 or idx.max() > collection.M):
        raise ValueError(f"ordering entries must lie in [1..{collection.M}]")

    missing = [name for name in READS[scheme] if getattr(schedule, name, None) is None]
    if missing:
        raise ValueError(f"scheme {scheme!r} needs a schedule that sets {missing}")
    if schedule is not None and schedule.k != k:
        raise ValueError(f"schedule length {schedule.k} != ordering length {k}")


def _start(collection, w0):
    if w0 is None:
        return np.zeros(collection.d)
    w = np.asarray(w0, dtype=np.float64).copy()
    if w.shape != (collection.d,):
        raise ValueError(f"w0 must have length {collection.d}")
    return w


def run_continual(collection, ordering, schedule, scheme, w0=None):
    """Run one continual trajectory of a given scheme kind.

    ``ordering`` is any sequence of 1-based task indices.  ``schedule``
    supplies per-step strengths; it may be None only for the unregularized
    scheme.  For the igd-of-* kinds the surrogate is rebuilt at
    every step from the current task and the step-t schedule entries, and the
    update is taken through it (never through the scheme's own closed form).
    """
    idx = np.asarray(ordering, np.int64)
    k = len(idx)
    _check_run(collection, idx, schedule, scheme)
    w = _start(collection, w0)

    skip_first = schedule is not None and schedule.unregularized_first
    iterates = np.empty((k + 1, collection.d))
    iterates[0] = w
    for t in range(1, k + 1):
        task = collection.tasks[int(idx[t - 1]) - 1]
        if scheme == UNREGULARIZED or (t == 1 and skip_first):
            w = unregularized_step(w, task)
        elif scheme == REGULARIZED:
            w = regularized_step(w, task, float(schedule.lam[t - 1]))
        elif scheme == BUDGETED:
            w = budgeted_step(w, task, float(schedule.gamma[t - 1]),
                              int(schedule.n_steps[t - 1]))
        elif scheme == IGD_REGULARIZED:
            eta = float(schedule.eta[t - 1])
            s = build_regularized_surrogate(task, float(schedule.lam[t - 1]), eta)
            w = igd_step(w, s, eta)
        else:  # IGD_BUDGETED
            eta = float(schedule.eta[t - 1])
            s = build_budgeted_surrogate(task, float(schedule.gamma[t - 1]),
                                         int(schedule.n_steps[t - 1]), eta)
            w = igd_step(w, s, eta)
        iterates[t] = w

    iterates.flags.writeable = False
    return Trajectory(iterates=iterates, ordering=idx)


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


def _check_inner_steps(r2, drawn, gamma):
    """0 < gamma_t R_m^2 < 1 on every task in ``drawn`` (k, trials), as the
    literal budget rules require; gamma_t > 0 is the schedule's own check."""
    # Largest inner step each task is trained with (0 if never drawn).
    worst = np.zeros(len(r2) + 1)
    np.maximum.at(worst, drawn, np.broadcast_to(gamma[:, None], drawn.shape))
    too_big = worst[1:] * r2 >= 1
    if too_big.any():
        m = int(np.argmax(too_big))
        raise ValueError(f"inner step size must satisfy 0 < gamma * R_m^2 < 1, "
                         f"got gamma={worst[m + 1]}, R_m^2={r2[m]}")


def _step_block(rows, W, loss_after, m_idx, strengths):
    """Take a block of steps: ``m_idx`` (steps, trials) holds the 0-based
    tasks drawn and ``strengths`` the block's strengths, arrays that
    broadcast against (steps, trials, q), or none on a projection block.
    ``W`` and ``loss_after`` are updated in place."""
    sigma, target = rows.sigma[m_idx], rows.target[m_idx]
    g, s = spectral_multiplier(strengths, sigma, rows.inv_sigma[m_idx],
                               None if strengths else rows.on_rank[m_idx])
    for m, sigma_t, target_t, g_t, s_t in zip(m_idx, sigma, target, g, s):
        V = rows.V[m]
        r = sigma_t * (V * W[:, None, :]).sum(axis=2) - target_t
        W -= (V * (g_t * r)[:, :, None]).sum(axis=1)
        np.multiply(s_t, r, out=sigma_t)  # sigma_t is spent: keep s * r there
    sigma *= sigma
    for loss in rows.rest[m_idx] + 0.5 * sigma.sum(axis=2):  # one add per step, in order
        loss_after += loss


# Steps per block of ``run_batch``: enough that each (steps, trials, q)
# array of the block holds about this many float64s.
_BLOCK_ELEMS = 1024


def run_batch(collection, cells, scheme, w0=None):
    """Run (k, schedule) cells together: every trial of every cell at once.

    ``cells`` is a list of ``(indices, schedule)`` pairs, one per cell, and
    one BatchRun is returned per cell, in order.  ``indices`` is (trials, k)
    with 1-based task indices, one row per trial; k may differ between cells.
    Every cell is checked before any cell steps.  A schedule's own strengths
    were checked when it was built, so the one strength check left is
    0 < gamma_t R_m^2 < 1 for the budget schemes, over the tasks drawn (an
    unregularized first step is exempt).  The trials are laid out
    longest cell first, so the ones still running at step t are a prefix of
    the batch, and each reads its cell's step-t strengths from a
    (k_max, cells) table.

    The steps run in blocks.  Over a block the set of running cells does
    not change: a block ends where a cell does, and after the first step
    under ``unregularized_first``.  A block is also at most
    ``_BLOCK_ELEMS // (trials * q)`` steps long (q the padded basis size),
    so each of its (steps, trials, q) arrays holds about ``_BLOCK_ELEMS``
    floats.  That length is a memory budget fixed in this module, not an
    option, and no result depends on it.  Once per block, the drawn tasks'
    sigma, U^T y and 1/sigma (and the rank mask on a projection block) are
    gathered along the block's (steps, trials) task indices, its strengths
    from the table, and one ``spectral_multiplier`` call gives (g, s) for
    every step of the block from the strengths the steps carry: the
    scheme's ``READS``, or none (a projection) under the unregularized
    scheme and on the first step under ``unregularized_first``.

    Each step then gathers its drawn tasks' row bases (see
    ``TaskCollection.row_bases``) alone, forms the residual coordinates
    r = sigma * (V w) - U^T y and applies w <- w - V^T (g * r), which maps
    r to s(xi) * r, i.e. w' = p + V^T s(xi) V (w - p) with p = X^+ y.
    Padded basis rows are zero, so they leave w unchanged.

    Only the (trials, d) iterates are kept.  The loss each trial needs for
    degradation, rest + 0.5 * ||s * r||^2 just after each step, is formed
    once per block and added to the trial's running sum one step at a time,
    in step order: a numpy sum over the block's steps could pair the terms
    (it does for a single trial), and the sum would then depend on the
    block length.  Every operation acts row by row, so a trial's result
    does not depend on which other trials, or which other cells, share the
    batch.
    """
    cells = [(np.asarray(indices), schedule) for indices, schedule in cells]
    for indices, schedule in cells:
        if indices.ndim != 2:
            raise ValueError(f"indices must be (trials, k), got shape {indices.shape}")
        _check_run(collection, indices, schedule, scheme)
    w = _start(collection, w0)

    rows = collection.row_bases
    firsts = {schedule is not None and schedule.unregularized_first for _, schedule in cells}
    t0 = int(any(firsts))
    if READS[scheme] and len(firsts) > 1:
        raise ValueError("cells must agree on unregularized_first")
    if "gamma" in READS[scheme]:
        for indices, schedule in cells:
            _check_inner_steps(rows.r2, indices.T[t0:], schedule.gamma[t0:])
    if not cells:
        return []

    ranked = sorted(range(len(cells)), key=lambda c: -cells[c][0].shape[1])
    steps = [cells[c][0].T for c in ranked]  # step-major (k, trials) views
    ks = [len(order) for order in steps]
    sizes = [order.shape[1] for order in steps]
    ends = np.cumsum(sizes).tolist()
    cell_of = np.repeat(np.arange(len(cells)), sizes)  # each trial's cell
    k_max = ks[0]
    tables = []
    for name in READS[scheme]:
        table = np.zeros((k_max, len(cells)), getattr(cells[0][1], name).dtype)
        for j, c in enumerate(ranked):
            table[:ks[j], j] = getattr(cells[c][1], name)
        tables.append(table)

    W = np.tile(w, (ends[-1], 1))
    loss_after = np.zeros(len(W))
    q = rows.V.shape[1]  # 0 when every task is zero
    t, active = 0, len(cells)
    while t < k_max:
        while ks[active - 1] <= t:
            active -= 1
        n = ends[active - 1]
        # A block ends where a cell does, and after the projection step t0.
        stop = min(t + max(1, _BLOCK_ELEMS // max(n * q, 1)), ks[active - 1],
                   t0 if t < t0 else k_max)
        m_idx = np.concatenate([order[t:stop] for order in steps[:active]], axis=1)
        m_idx -= 1
        # A lone cell's strengths are a (steps, 1, 1) view rather than a gather.
        pick = cell_of[:n] if active > 1 else slice(1)
        strengths = [table[t:stop, pick, None] for table in tables] if t >= t0 else []
        _step_block(rows, W[:n], loss_after[:n], m_idx, strengths)
        t = stop

    runs = [None] * len(cells)
    for j, c in enumerate(ranked):
        span = slice(ends[j] - sizes[j], ends[j])
        runs[c] = BatchRun(final=W[span], ordering=cells[c][0],
                           loss_after_sum=loss_after[span])
    return runs
