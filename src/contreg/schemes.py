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
that ``surrogates.spectral_multiplier`` computes from the strengths
``step_strengths`` gives the step (none under the unregularized scheme), so
it steps all trials of a sweep's (k, schedule) cells together, in blocks of
steps with one multiplier call per block.  Each step's two inner products
are one BLAS call per trial, never one product over the batch; when every task
has rank one, as in the acceptance and lower-bound collections, a step is one
ddot per trial and an elementwise update, bit for bit the same arithmetic.
The block length is a fixed memory budget, not an option, and results are
bit for bit the same for any length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .orderings import check_indices
from .surrogates import (build_budgeted_surrogate, build_regularized_surrogate,
                         check_budget, check_coefficient, check_step, spectral_multiplier)

REGULARIZED = "regularized"
BUDGETED = "budgeted"
UNREGULARIZED = "unregularized"
IGD_REGULARIZED = "igd-of-regularized"
IGD_BUDGETED = "igd-of-budgeted"

# The strengths each scheme reads from its schedule.
READS = {REGULARIZED: ("lam",), BUDGETED: ("gamma", "n_steps"), UNREGULARIZED: (),
         IGD_REGULARIZED: ("lam",), IGD_BUDGETED: ("gamma", "n_steps")}
SCHEME_KINDS = tuple(READS)


def regularized_step(w, task, lam):
    """Minimize the task loss plus (lam/2) * ||w' - w||^2 in closed form."""
    check_coefficient(lam)
    X, y = task.X, task.y
    lhs = X.T @ X + lam * np.eye(task.d)
    return np.linalg.solve(lhs, X.T @ y + lam * np.asarray(w, dtype=np.float64))


def budgeted_step(w, task, gamma, n_steps):
    """Run n_steps explicit gradient steps of size gamma on the task loss."""
    n_steps = check_budget(gamma, n_steps, task.spectral_norm ** 2)
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
    check_step(eta)
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


def step_strengths(scheme, schedule, k):
    """The strengths each step of a k-step run under ``scheme`` reads.

    Step t reads ``[a[t - 1] for a in strengths]``: ``strengths`` are the
    schedule's own read-only arrays that ``READS[scheme]`` names, in
    ``spectral_multiplier``'s order, and ``()`` under the unregularized
    scheme, whose every step trains to convergence.  Both runners read a
    schedule here alone.
    """
    if scheme not in SCHEME_KINDS:
        raise ValueError(f"unknown scheme kind: {scheme!r}")
    missing = [name for name in READS[scheme] if getattr(schedule, name, None) is None]
    if missing:
        raise ValueError(f"scheme {scheme!r} needs a schedule that sets {missing}")
    if schedule is None:
        return ()
    if schedule.k != k:
        raise ValueError(f"schedule length {schedule.k} != ordering length {k}")
    return tuple(getattr(schedule, name) for name in READS[scheme])


def _start(collection, w0):
    """The start both runners step from: a new array in which every -0.0 of
    ``w0`` is +0.0.  Under round-to-nearest a subtraction gives -0.0 only as
    (-0.0) - (+0.0), so no step from it makes a -0.0."""
    if w0 is None:
        return np.zeros(collection.d)
    w = np.asarray(w0, dtype=np.float64) + 0.0
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
    check_indices(idx, collection.M)
    strengths = step_strengths(scheme, schedule, k)
    w = _start(collection, w0)

    literal = {REGULARIZED: regularized_step, BUDGETED: budgeted_step}.get(scheme)
    surrogate = {IGD_REGULARIZED: build_regularized_surrogate,
                 IGD_BUDGETED: build_budgeted_surrogate}.get(scheme)
    iterates = np.empty((k + 1, collection.d))
    iterates[0] = w
    for t in range(1, k + 1):
        task = collection.tasks[int(idx[t - 1]) - 1]
        values = [a[t - 1] for a in strengths]
        if not values:
            w = unregularized_step(w, task)
        elif literal is not None:
            w = literal(w, task, *values)
        else:
            eta = float(schedule.eta[t - 1])
            w = igd_step(w, surrogate(task, *values, eta), eta)
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
    literal budget rules require; gamma_t > 0 is the schedule's own check.
    Every task passes when the largest step does on the largest R_m^2, as
    under every built-in budget schedule; only otherwise are the draws read."""
    if gamma.max(initial=0.0) * r2.max() < 1:
        return
    # Largest inner step each task is trained with (0 if never drawn).
    worst = np.zeros(len(r2) + 1)
    np.maximum.at(worst, drawn, np.broadcast_to(gamma[:, None], drawn.shape))
    too_big = worst[1:] * r2 >= 1
    if too_big.any():
        m = int(np.argmax(too_big))
        check_budget(worst[m + 1], 1, r2[m])  # raises the literal rules' error


def _step_block(rows, W, loss_after, m_idx, strengths):
    """Take a block of steps: ``m_idx`` (steps, trials) holds the 0-based
    tasks drawn and ``strengths`` the block's strengths, arrays that
    broadcast against (steps, trials, q), or none under the unregularized
    scheme.  ``W`` and ``loss_after`` are updated in place.  Every gather
    is an ``ndarray.take`` along the indexed axis, which copies the elements
    advanced indexing would (see ``run_batch``)."""
    sigma, target = rows.sigma.take(m_idx, axis=0), rows.target.take(m_idx, axis=0)
    g, s = spectral_multiplier(strengths, sigma, rows.inv_sigma.take(m_idx, axis=0),
                               None if strengths else rows.on_rank.take(m_idx, axis=0))
    # Each step leaves its residual r in ``target`` (its spent U^T y).
    if rows.V.shape[1] == 1:
        # Rank-one rows: the stacked matmuls' arithmetic without their two
        # calls per trial (see ``run_batch``), in buffers of the block.
        V1, v = rows.V[:, 0], np.empty_like(W)
        vw, gr = np.empty(len(W)), np.empty((len(W), 1))
        for m, sigma_t, r, g_t in zip(m_idx, sigma[..., 0], target[..., 0], g[..., 0]):
            # mode="raise" would copy through a buffer; m is already in range.
            V1.take(m, axis=0, out=v, mode="clip")
            np.vecdot(v, W, out=vw)  # one ddot per trial, the call the (1, d) matmul makes
            vw *= sigma_t
            np.subtract(vw, r, out=r)
            np.multiply(g_t, r, out=gr[:, 0])
            v *= gr
            W -= v
    else:
        for m, sigma_t, r, g_t in zip(m_idx, sigma, target, g):
            V = rows.V.take(m, axis=0)
            # Stacked matmuls: one BLAS gemv per trial, (q, d) by w, then g * r by (q, d).
            vw = np.matmul(V, W[:, :, None])[:, :, 0]
            vw *= sigma_t
            np.subtract(vw, r, out=r)
            W -= np.matmul((g_t * r)[:, None, :], V)[:, 0]
    np.multiply(s, target, out=sigma)  # every step's s * r; sigma is spent
    sigma *= sigma
    # rest + 0.5 * ||s * r||^2, in place; one row is its own sum (see ``run_batch``).
    sq = sigma[..., 0] if sigma.shape[2] == 1 else sigma.sum(axis=2)
    sq *= 0.5
    sq += rows.rest.take(m_idx)
    for loss in sq:  # one add per step, in order
        loss_after += loss


# Steps per block of ``run_batch``: enough that each (steps, trials, q)
# array of the block holds about this many float64s.  With no (trials, q, d)
# product per step, 2048 keeps the sweep-hard grid under 320 KiB: its
# rank-one steps peak at 303,275 B (budgeted) and 245,875 B (regularized),
# by tracemalloc.
_BLOCK_ELEMS = 2048


def run_batch(collection, cells, scheme, w0=None):
    """Run (k, schedule) cells together: every trial of every cell at once.

    ``cells`` is a list of ``(indices, schedule)`` pairs, one per cell, and
    one BatchRun is returned per cell, in order.  ``indices`` is (trials, k)
    with 1-based task indices, one row per trial; k may differ between cells.
    Every cell is checked before any cell steps, and ``step_strengths``
    decides what each cell's steps read.  A schedule's own strengths were
    checked when it was built, so the one strength check left is
    0 < gamma_t R_m^2 < 1 for the budget schemes, over every task drawn.
    The trials are laid out longest cell first, so the ones still running at
    step t are a prefix of the batch, and each reads its cell's step-t
    strengths from a (k_max, cells) table.

    The steps run in blocks.  Over a block the set of running cells does
    not change: a block ends where a cell does.  A block is also at most
    ``_BLOCK_ELEMS // (trials * q)`` steps long (q the padded basis size),
    so each of its (steps, trials, q) arrays holds about ``_BLOCK_ELEMS``
    floats.  That length is a memory budget fixed in this module, not an
    option, and no result depends on it.  Once per block, the drawn tasks'
    sigma, U^T y and 1/sigma (and the rank mask under the unregularized
    scheme) are gathered along the block's (steps, trials) task indices, its
    strengths from the table (a view when one cell is left), and one
    ``spectral_multiplier`` call gives (g, s) for every step of the block
    from the strengths ``step_strengths`` gives its steps.  Every gather,
    these and each step's row bases, is an ``ndarray.take`` along the
    indexed axis: it copies the elements advanced indexing would, with no
    arithmetic, so the bits are the same, at about a third of indexing's
    fixed cost per call.  With thousands of trials a block is one step
    long, so that cost is paid on every step.

    Each step then gathers its drawn tasks' row bases (see
    ``TaskCollection.row_bases``) alone, forms the residual coordinates
    r = sigma * (V w) - U^T y and applies w <- w - V^T (g * r), which maps
    r to s(xi) * r, i.e. w' = p + V^T s(xi) V (w - p) with p = X^+ y.
    Each step leaves its r in place of the block's gathered U^T y, so one
    multiply after the block's steps forms every step's s * r.
    Both products are stacked matmuls, so numpy makes one BLAS call per
    trial on that trial's (q, d) basis, and no (trials, q, d) product is
    formed.  Padded basis rows are zero, so they leave w unchanged.

    When q = 1 (every row basis at most one row: one-row and zero tasks, as
    in the acceptance collection and the lower-bound constructions), a
    rank-one branch, chosen on q alone, instead gathers each step's drawn
    rows v into one (trials, d) buffer, forms V w as ``np.vecdot(v, W)``,
    one ddot per trial, and applies the update as the elementwise product
    (g * r) v.  The bits are the stacked matmuls': numpy's matmul computes
    a (1, d) by (d, 1) product with the same ddot call, and each entry of a
    (1, 1) by (1, d) product is one multiply added to +0.0, which moves no
    bit of w: subtracting -0.0 rather than +0.0 differs only where w is
    -0.0, and no run holds one (see ``_start``).  What the branch saves is
    the second per-trial BLAS call, gemm-sized for one multiply per entry;
    its per-step buffers are allocated once per block.

    Only the (trials, d) iterates are kept.  The loss each trial needs for
    degradation, rest + 0.5 * ||s * r||^2 just after each step, is formed
    once per block, in place as 0.5 * ||s * r||^2 + rest, the same bits
    since IEEE addition commutes.  When q = 1 the squared norm is the one
    square itself, not a sum: a sum over one element returns it, except
    that it would turn a -0.0 into +0.0, and a square is never -0.0.  Each
    loss is added to the trial's running sum one step at a time,
    in step order: a numpy sum over the block's steps could pair the terms
    (it does for a single trial), and the sum would then depend on the
    block length.  Every operation acts row by row, and no product spans
    the batch, so a trial's result does not depend on which other trials,
    or which other cells, share the batch.
    """
    cells = [(np.asarray(indices), schedule) for indices, schedule in cells]
    for indices, _ in cells:
        if indices.ndim != 2:
            raise ValueError(f"indices must be (trials, k), got shape {indices.shape}")
        check_indices(indices, collection.M)
    reads = [step_strengths(scheme, schedule, indices.shape[1]) for indices, schedule in cells]
    w = _start(collection, w0)

    rows = collection.row_bases
    for (indices, _), strengths in zip(cells, reads):
        if len(strengths) == 2:  # (gamma, n_steps)
            _check_inner_steps(rows.r2, indices.T, strengths[0])
    if not cells:
        return []

    ranked = sorted(range(len(cells)), key=lambda c: -cells[c][0].shape[1])
    steps = [cells[c][0].T for c in ranked]  # step-major (k, trials) views
    ks = [len(order) for order in steps]
    sizes = [order.shape[1] for order in steps]
    ends = np.cumsum(sizes).tolist()
    cell_of = np.repeat(np.arange(len(cells)), sizes)  # each trial's cell
    k_max = ks[0]
    # One (k_max, cells) table per strength, a column per cell, longest first.
    tables = [np.zeros((k_max, len(cells)), a.dtype) for a in reads[0]]
    for j, c in enumerate(ranked):
        for table, a in zip(tables, reads[c]):
            table[:ks[j], j] = a

    W = np.tile(w, (ends[-1], 1))
    loss_after = np.zeros(len(W))
    q = rows.V.shape[1]  # 0 when every task is zero
    t, active = 0, len(cells)
    while t < k_max:
        while ks[active - 1] <= t:
            active -= 1
        n = ends[active - 1]
        # A block ends where a cell does.
        stop = min(t + max(1, _BLOCK_ELEMS // max(n * q, 1)), ks[active - 1])
        m_idx = np.concatenate([order[t:stop] for order in steps[:active]], axis=1)
        m_idx -= 1
        # A lone cell's strengths are a (steps, 1, 1) view rather than a gather.
        if active > 1:
            strengths = [table[t:stop].take(cell_of[:n], axis=1)[..., None] for table in tables]
        else:
            strengths = [table[t:stop, :1, None] for table in tables]
        _step_block(rows, W[:n], loss_after[:n], m_idx, strengths)
        t = stop

    runs = [None] * len(cells)
    for j, c in enumerate(ranked):
        span = slice(ends[j] - sizes[j], ends[j])
        runs[c] = BatchRun(final=W[span], ordering=cells[c][0],
                           loss_after_sum=loss_after[span])
    return runs
