"""Regression tasks, task collections, and jointly realizable generators."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .orderings import stream

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


def _rcond(shape):
    """pinv's rank cutoff relative to sigma_max: singular values at or below
    max(n, d) * eps * sigma_max count as zero."""
    return max(shape) * _EPS


def _frozen(a):
    a = np.asarray(a, dtype=np.float64).copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class RegressionTask:
    """One linear regression task with cached least-squares quantities.

    ``svd`` is the thin SVD ``(U, sigma, Vt, r)``, r the rank above pinv's
    cutoff, and the task's only decomposition: ``pinv_solution`` (X^+ y),
    ``spectral_norm``, ``pinv`` and ``row_basis`` are all read from it.
    ``min_loss`` is 0.5 * ||X pinv_solution - y||^2.  Built by ``build_tasks``,
    whose stacked arrays the array fields are read-only views of; immutable
    after construction and safe to share across threads.
    """

    X: np.ndarray
    y: np.ndarray
    pinv_solution: np.ndarray
    min_loss: float
    svd: tuple

    @property
    def d(self):
        return self.X.shape[1]

    @property
    def spectral_norm(self):
        return float(self.svd[1][0])

    @cached_property
    def gram(self):
        return _frozen(self.X.T @ self.X)

    @cached_property
    def xty(self):
        return _frozen(self.X.T @ self.y)

    @cached_property
    def pinv(self):
        """X^+ by numpy's own formula on the stored factors."""
        U, sigma, Vt, r = self.svd
        s_inv = np.zeros_like(sigma)
        s_inv[:r] = 1.0 / sigma[:r]
        return _frozen(Vt.T @ (s_inv[:, None] * U.T))

    @cached_property
    def row_basis(self):
        """Row-space basis from the SVD X = U diag(sigma) V.

        Returns ``(V, sigma, target, rank, rest)`` over the directions with a
        normal nonzero singular value: ``V`` has orthonormal rows, ``target``
        is U^T y, so the residual of w along direction j is
        sigma_j (V w)_j - target_j; ``rank`` counts the leading directions
        above ``pinv``'s cutoff (those the projection acts on); ``rest`` is the
        loss no w can remove, 0.5 * ||y - U U^T y||^2.  ``V`` and ``sigma`` are
        views of ``svd``.  ``rest`` is taken here rather than from
        ``min_loss``: when a singular value sits just above the cutoff,
        rounding in the SVD spreads X^+ y's huge component into the other
        directions, and ``min_loss`` with it.
        """
        U, sigma, Vt, r = self.svd
        q = int(np.count_nonzero(sigma > _TINY))
        target = U[:, :q].T @ self.y
        off_range = self.y - U[:, :q] @ target
        return (Vt[:q], sigma[:q], _frozen(target), min(q, r),
                0.5 * float(off_range @ off_range))


def _stack(arrays):
    """``np.stack`` of equal-shape arrays, as one concatenate."""
    return np.concatenate(arrays).reshape((len(arrays),) + arrays[0].shape)


def _by_value(keys):
    """``(value, index)`` per distinct value in the int array ``keys``; the
    index is a slice when all keys agree, so what it selects is a view."""
    if (keys == keys[0]).all():
        return [(int(keys[0]), slice(None))]
    return [(int(v), np.flatnonzero(keys == v)) for v in np.unique(keys)]


def _factor(X):
    """Thin SVDs ``(U, sigma, Vt, rank)`` of a stack X (M, n, d) in one batched
    call, with each matrix's rank above pinv's cutoff."""
    U, sigma, Vt = np.linalg.svd(X, full_matrices=False)
    rank = (sigma > _rcond(X.shape[1:]) * sigma.max(axis=1, keepdims=True)).sum(axis=1)
    return U, sigma, Vt, rank


def _min_norm_lstsq(U, sigma, Vt, rank, y):
    """X^+ y for each matrix of a ``_factor``ed stack, as V_r ((U_r^T y) / sigma_r).

    Applying the factors to y is backward stable; forming X^+ and then
    multiplying is not when y is nearly orthogonal to the smallest kept
    singular direction.  There is one stacked matmul per rank r, so a
    matrix's sums have r terms, and a stacked matmul runs the same BLAS call
    on each matrix as a 2-D one: each X^+ y is bit for bit the per-matrix one.
    """
    p = np.empty(Vt.shape[::2] + (1,))
    y = y[..., None]
    for r, g in _by_value(rank):
        Ur, Vr = U[g][..., :r], Vt[g][:, :r]
        p[g] = Vr.swapaxes(1, 2) @ ((Ur.swapaxes(1, 2) @ y[g]) / sigma[g][:, :r, None])
    return p[..., 0]


def build_tasks(X, y, index=None):
    """Tasks from a stack of equal-shape data, X (M, n, d) and y (M, n), in one
    pass: one finiteness check, one batched SVD, and ``min_loss`` by stacked
    matmuls.  Each task is bit for bit the one a per-matrix build gives, and
    its array fields are read-only views of the stacked arrays.  A task failing
    a check raises ValueError, named ``collection task {index[i]}`` when
    ``index`` is given.
    """
    X, y = _frozen(X), _frozen(y)
    M = len(X)

    def reject(bad, why):
        i = int(np.argmax(bad))
        raise ValueError(why if index is None else f"collection task {index[i]}: {why}")

    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        reject(~(np.isfinite(X).all(axis=(1, 2)) & np.isfinite(y).all(axis=1)),
               "task data contains non-finite entries")
    U, sigma, Vt, rank = _factor(X)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        p = _min_norm_lstsq(U, sigma, Vt, rank, y)
        # The smallest kept sigma has the largest 1 / sigma.
        inv_last = 1.0 / sigma[np.arange(M), rank - 1]
    finite = np.isfinite(p).all(axis=1) & ((rank == 0) | np.isfinite(inv_last))
    if not finite.all():
        # Only data within eps of underflow get here (e.g. all-subnormal X):
        # 1 / sigma, and so X^+, or (U^T y) / sigma overflows.
        reject(~finite, "task data too close to underflow: X^+ or X^+ y is not finite")
    residual = X @ p[..., None] - y[..., None]
    min_loss = (0.5 * (residual.swapaxes(1, 2) @ residual)[:, 0, 0]).tolist()
    for a in (U, sigma, Vt, p):
        a.flags.writeable = False
    rank = rank.tolist()
    return [RegressionTask(X=X[m], y=y[m], pinv_solution=p[m], min_loss=min_loss[m],
                           svd=(U[m], sigma[m], Vt[m], rank[m])) for m in range(M)]


def _task_arrays(X, y):
    """X and y as float64 arrays, checked to be one task's matrix and targets."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be a 2-D matrix, got shape {X.shape}")
    if y.ndim != 1:
        raise ValueError(f"y must be a 1-D vector, got shape {y.shape}")
    n, d = X.shape
    if n < 1 or d < 1:
        raise ValueError(f"X must be at least 1x1, got shape {X.shape}")
    if y.shape[0] != n:
        raise ValueError(f"row count mismatch: X has {n} rows, y has {y.shape[0]} entries")
    return X, y


def new_task(X, y):
    """Build one task from a data matrix and target vector (``build_tasks`` on a
    stack of one)."""
    X, y = _task_arrays(X, y)
    return build_tasks(X[None], y[None])[0]


@dataclass(frozen=True, eq=False)
class RowBases:
    """Every task's ``row_basis`` zero-padded to the largest size and stacked.

    Padded rows of ``V`` and their other entries are 0, so every update leaves
    the iterate unchanged along them.
    """

    V: np.ndarray          # (M, q_max, d)
    sigma: np.ndarray      # (M, q_max)
    target: np.ndarray     # (M, q_max) U^T y
    inv_sigma: np.ndarray  # (M, q_max) 1 / sigma
    on_rank: np.ndarray    # (M, q_max) 1.0 above pinv's cutoff, else 0.0
    rest: np.ndarray       # (M,)
    r2: np.ndarray         # (M,) squared spectral norms R_m^2


@dataclass(frozen=True, eq=False)
class TaskCollection:
    """M tasks sharing feature dimension d, with data radius R.

    ``w_star``, when present, is a planted solution fitting every task
    exactly (generator metadata; not required for arbitrary collections).
    """

    tasks: tuple
    d: int
    radius: float
    w_star: np.ndarray | None = None

    @property
    def M(self):
        return len(self.tasks)

    @cached_property
    def stacked_rows(self):
        """``(X, y, task)``: every task's rows stacked in task order, and each
        row's 0-based task index (built on first use).  ``X`` is column-major,
        the layout of BLAS's fastest matrix-vector kernel."""
        X = np.asfortranarray(np.vstack([t.X for t in self.tasks]))
        y = np.concatenate([t.y for t in self.tasks])
        task = np.repeat(np.arange(self.M), [len(t.y) for t in self.tasks])
        for a in (X, y, task):
            a.flags.writeable = False
        return X, y, task

    @cached_property
    def row_bases(self):
        """Every task's ``row_basis``, zero-padded and stacked (built on first
        use): the tasks' factors are stacked per task shape, and U^T y and
        ``rest`` come from one stacked matmul per shape and basis size."""
        shapes = {}
        for m, t in enumerate(self.tasks):
            shapes.setdefault(t.X.shape, []).append(m)
        parts = []
        for idx in shapes.values():
            U, sigma, Vt, rank = zip(*(self.tasks[m].svd for m in idx))
            U, sigma, Vt = _stack(U), _stack(sigma), _stack(Vt)
            y = _stack([self.tasks[m].y for m in idx])[..., None]
            q = (sigma > _TINY).sum(axis=1)
            rank = np.minimum(q, rank)
            parts.append((np.array(idx), U, sigma, Vt, y, q, rank))
        shape = (self.M, max(int(q.max()) for *_, q, _ in parts))
        V = np.zeros(shape + (self.d,))
        sigma, target, inv_sigma, on_rank = (np.zeros(shape) for _ in range(4))
        rest, r2 = np.empty(self.M), np.empty(self.M)
        for idx, U, s, Vt, y, q, rank in parts:
            on_rank[idx] = np.arange(shape[1]) < rank[:, None]
            r2[idx] = np.square(s[:, 0])
            for size, g in _by_value(q):
                m, Uq, sq = idx[g], U[g][..., :size], s[g][:, :size]
                tq = Uq.swapaxes(1, 2) @ y[g]
                off_range = y[g] - Uq @ tq
                rest[m] = 0.5 * (off_range.swapaxes(1, 2) @ off_range)[:, 0, 0]
                V[m, :size], sigma[m, :size] = Vt[g][:, :size], sq
                target[m, :size], inv_sigma[m, :size] = tq[..., 0], 1.0 / sq
        return RowBases(V=_frozen(V), sigma=_frozen(sigma), target=_frozen(target),
                        inv_sigma=_frozen(inv_sigma), on_rank=_frozen(on_rank),
                        rest=_frozen(rest), r2=_frozen(r2))


def new_collection(tasks, w_star=None):
    tasks = tuple(tasks)
    if not tasks:
        raise ValueError("a collection needs at least one task")
    d = tasks[0].d
    for i, t in enumerate(tasks):
        if t.d != d:
            raise ValueError(f"tasks disagree on dimension: task {i} has {t.d}, task 0 has {d}")
    if w_star is not None:
        w_star = _frozen(w_star)
        if w_star.shape != (d,):
            raise ValueError(f"w_star must have length {d}")
        if not np.isfinite(w_star).all():
            raise ValueError("w_star contains non-finite entries")
    return TaskCollection(tasks=tasks, d=d,
                          radius=max(t.spectral_norm for t in tasks),
                          w_star=w_star)


@dataclass(frozen=True)
class RealizableSpec:
    """Recipe for a synthetic collection solved exactly by one vector.

    ``w_star`` may be supplied; otherwise it is drawn from the seeded stream.
    ``radius`` > 0 rescales all data matrices uniformly so the largest
    spectral norm hits that value (targets are built after rescaling, keeping
    realizability exact).
    """

    d: int
    M: int
    n: int
    radius: float
    seed: int
    w_star: np.ndarray | None = None


def generate_realizable(spec):
    """Deterministically generate a jointly realizable Gaussian collection."""
    if spec.d < 1 or spec.M < 1 or spec.n < 1:
        raise ValueError("d, M and n must all be >= 1")
    rng = stream(spec.seed)
    w_star = spec.w_star
    if w_star is None:
        w_star = rng.standard_normal(spec.d)
    else:
        w_star = np.asarray(w_star, dtype=np.float64)
        if w_star.shape != (spec.d,):
            raise ValueError(f"w_star must have length {spec.d}")
    # One draw of M matrices reads the stream as M draws of one would.
    mats = rng.standard_normal((spec.M, spec.n, spec.d))
    if spec.radius > 0:
        r0 = np.linalg.norm(mats, 2, axis=(1, 2)).max()
        if r0 > 0:
            mats = mats * (spec.radius / r0)
    return new_collection(build_tasks(mats, mats @ w_star), w_star=w_star)


def generate_aligned_pairs(pairs, angle, d, target_radius=1.0, seed=0):
    """Collection of nearly parallel rank-one task pairs (a hard instance).

    Pair j contributes two unit rows in the coordinate plane (2j, 2j+1)
    separated by ``angle`` radians.  Small angles make training-to-convergence
    grind: consecutive exact projections between almost-parallel constraints
    advance only O(angle^2) per alternation, while partial (regularized)
    updates are unaffected.  The planted solution is Gaussian from ``seed``.
    """
    pairs = int(pairs)
    if pairs < 1:
        raise ValueError("need at least one pair")
    if d < 2 * pairs:
        raise ValueError(f"d must be >= {2 * pairs} to hold {pairs} disjoint planes")
    if not 0 < angle < np.pi / 2:
        raise ValueError("angle must lie in (0, pi/2)")
    w_star = stream(seed).standard_normal(d)
    rows = np.zeros((2 * pairs, 1, d))
    j = np.arange(pairs)
    rows[2 * j, 0, 2 * j] = 1.0
    rows[2 * j + 1, 0, 2 * j] = np.cos(angle)
    rows[2 * j + 1, 0, 2 * j + 1] = np.sin(angle)
    mats = (float(target_radius) if target_radius > 0 else 1.0) * rows
    return new_collection(build_tasks(mats, mats @ w_star), w_star=w_star)


def min_norm_solution(collection):
    """Minimum-norm least-squares solution of the stacked system."""
    X, y, _ = collection.stacked_rows
    return _min_norm_lstsq(*_factor(X[None]), y[None])[0]


def collection_to_dict(collection):
    """JSON-ready representation (matrices as nested lists)."""
    out = {
        "tasks": [{"X": t.X.tolist(), "y": t.y.tolist()} for t in collection.tasks],
    }
    if collection.w_star is not None:
        out["w_star"] = collection.w_star.tolist()
    return out


def collection_from_dict(data):
    """Inverse of ``collection_to_dict``; malformed input raises ValueError,
    naming the task at fault.  Tasks of one shape are built as one stack."""
    if not isinstance(data, dict) or not isinstance(data.get("tasks"), list):
        raise ValueError("a collection file must be an object with a 'tasks' list")
    shapes = {}
    for i, item in enumerate(data["tasks"]):
        if not isinstance(item, dict) or not {"X", "y"} <= set(item):
            raise ValueError(f"collection task {i} must be an object with 'X' and 'y'")
        try:
            X, y = _task_arrays(item["X"], item["y"])
        except (TypeError, ValueError) as exc:  # TypeError: not numbers
            raise ValueError(f"collection task {i}: {exc}") from None
        shapes.setdefault(X.shape, []).append((i, X, y))
    tasks = [None] * len(data["tasks"])
    for group in shapes.values():
        index, X, y = zip(*group)
        for i, t in zip(index, build_tasks(_stack(X), _stack(y), index)):
            tasks[i] = t
    w_star = data.get("w_star")
    if w_star is not None:
        try:
            w_star = np.asarray(w_star, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"collection w_star must be numeric: {exc}") from None
    return new_collection(tasks, w_star=w_star)
