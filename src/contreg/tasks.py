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


def _svd(X):
    """Thin SVD ``(U, sigma, Vt, r)`` of X, frozen in place; pinv keeps sigma[:r]."""
    U, sigma, Vt = np.linalg.svd(X, full_matrices=False)
    for a in (U, sigma, Vt):
        a.flags.writeable = False
    return U, sigma, Vt, int(np.count_nonzero(sigma > _rcond(X.shape) * sigma.max()))


def _min_norm_lstsq(svd, y):
    """X^+ y from X's ``_svd``, as V_r ((U_r^T y) / sigma_r).

    Applying the factors to y is backward stable; forming X^+ and then
    multiplying is not when y is nearly orthogonal to the smallest kept
    singular direction.
    """
    U, sigma, Vt, r = svd
    return Vt[:r].T @ ((U[:, :r].T @ y) / sigma[:r])


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
    ``min_loss`` is 0.5 * ||X pinv_solution - y||^2.  Immutable after
    construction; safe to share across threads.
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


def new_task(X, y):
    """Build a task from a data matrix and target vector, caching its SVD and X^+ y."""
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
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("task data contains non-finite entries")
    svd = _svd(X)
    _, sigma, _, r = svd
    with np.errstate(over="ignore", invalid="ignore"):
        p = _min_norm_lstsq(svd, y)
        inv_sigma = 1.0 / sigma[:r]
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(inv_sigma))):
        # Only data within eps of underflow get here (e.g. all-subnormal X):
        # 1 / sigma, and so X^+, or (U^T y) / sigma overflows.
        raise ValueError("task data too close to underflow: X^+ or X^+ y is not finite")
    residual = X @ p - y
    min_loss = 0.5 * float(residual @ residual)
    return RegressionTask(X=_frozen(X), y=_frozen(y), pinv_solution=_frozen(p),
                          min_loss=min_loss, svd=svd)


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
        """``(X, y, starts)``: every task's rows stacked in task order, and the
        row at which each task starts (built on first use)."""
        X = np.vstack([t.X for t in self.tasks])
        y = np.concatenate([t.y for t in self.tasks])
        starts = np.cumsum([0] + [len(t.y) for t in self.tasks[:-1]])
        for a in (X, y, starts):
            a.flags.writeable = False
        return X, y, starts

    @cached_property
    def row_bases(self):
        """Stacked task row bases for the batched engine (built on first use)."""
        bases = [t.row_basis for t in self.tasks]
        shape = (self.M, max(len(sigma) for _, sigma, _, _, _ in bases))
        V = np.zeros(shape + (self.d,))
        sigma, target, inv_sigma, on_rank = (np.zeros(shape) for _ in range(4))
        for m, (Vm, sm, tm, rank, _) in enumerate(bases):
            q = len(sm)
            V[m, :q], sigma[m, :q], target[m, :q] = Vm, sm, tm
            inv_sigma[m, :q] = 1.0 / sm
            on_rank[m, :rank] = 1.0
        return RowBases(V=_frozen(V), sigma=_frozen(sigma), target=_frozen(target),
                        inv_sigma=_frozen(inv_sigma), on_rank=_frozen(on_rank),
                        rest=_frozen([rest for *_, rest in bases]),
                        r2=_frozen(np.square([t.spectral_norm for t in self.tasks])))


def new_collection(tasks, w_star=None):
    tasks = tuple(tasks)
    if not tasks:
        raise ValueError("a collection needs at least one task")
    d = tasks[0].d
    for t in tasks:
        if t.d != d:
            raise ValueError(f"tasks disagree on dimension: {t.d} vs {d}")
    if w_star is not None:
        w_star = _frozen(w_star)
        if w_star.shape != (d,):
            raise ValueError(f"w_star must have length {d}")
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
    mats = [rng.standard_normal((spec.n, spec.d)) for _ in range(spec.M)]
    if spec.radius > 0:
        r0 = np.linalg.norm(np.stack(mats), 2, axis=(1, 2)).max()
        if r0 > 0:
            mats = [X * (spec.radius / r0) for X in mats]
    tasks = [new_task(X, X @ w_star) for X in mats]
    return new_collection(tasks, w_star=w_star)


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
    rows = []
    for j in range(pairs):
        a = np.zeros(d)
        a[2 * j] = 1.0
        b = np.zeros(d)
        b[2 * j] = np.cos(angle)
        b[2 * j + 1] = np.sin(angle)
        rows += [a, b]
    scale = float(target_radius) if target_radius > 0 else 1.0
    mats = [scale * r[None, :] for r in rows]
    tasks = [new_task(X, X @ w_star) for X in mats]
    return new_collection(tasks, w_star=w_star)


def min_norm_solution(collection):
    """Minimum-norm least-squares solution of the stacked system."""
    X, y, _ = collection.stacked_rows
    return _min_norm_lstsq(_svd(X), y)


def collection_to_dict(collection):
    """JSON-ready representation (matrices as nested lists)."""
    out = {
        "tasks": [{"X": t.X.tolist(), "y": t.y.tolist()} for t in collection.tasks],
    }
    if collection.w_star is not None:
        out["w_star"] = collection.w_star.tolist()
    return out


def collection_from_dict(data):
    """Inverse of ``collection_to_dict``; malformed input raises ValueError."""
    if not isinstance(data, dict) or not isinstance(data.get("tasks"), list):
        raise ValueError("a collection file must be an object with a 'tasks' list")
    for i, item in enumerate(data["tasks"]):
        if not isinstance(item, dict) or not {"X", "y"} <= set(item):
            raise ValueError(f"collection task {i} must be an object with 'X' and 'y'")
    try:
        tasks = [new_task(item["X"], item["y"]) for item in data["tasks"]]
    except TypeError as exc:
        raise ValueError(f"collection task data must be numeric: {exc}") from None
    w_star = data.get("w_star")
    return new_collection(tasks, w_star=None if w_star is None else np.asarray(w_star))
