"""Regression tasks, task collections, and jointly realizable generators.

A collection holds its tasks as stacks, one ``TaskStack`` per task shape: the
tasks' data, thin SVD factors, pinv ranks, X^+ y and minimum losses as
stacked arrays, which the engine's row bases and the metric pass read
directly.  Each generator is a plain function of its config fields that
returns its collection.  Every stack is made by ``_build_stack``: the
generators, ``stacked_collection`` and collection files decompose it by one
batched SVD, and ``new_collection`` hands it the task objects' own SVD
factors.  ``RegressionTask``s, read-only views of a stack, are made only when
``TaskCollection.tasks`` is first read (by the literal update rules, the
verification suites and the tests).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .orderings import stream

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


def _frozen(a, dtype=np.float64):
    a = np.asarray(a, dtype=dtype).copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class RegressionTask:
    """One linear regression task: its data and its one SVD.

    ``svd`` is the thin SVD ``(U, sigma, Vt, r)``, r the rank above pinv's
    cutoff, and the task's only decomposition: ``pinv_solution`` (X^+ y),
    ``spectral_norm``, ``pinv`` (for the literal unregularized rule) and
    ``row_basis`` (for the surrogates) are all read from it.
    ``min_loss`` is 0.5 * ||X pinv_solution - y||^2.  One task of a
    ``TaskStack`` (see ``TaskStack.views``): its array fields are read-only
    views of the stacked arrays.  Immutable after construction and safe to
    share across threads.
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
    def pinv(self):
        """X^+ by numpy's own formula on the stored factors."""
        U, sigma, Vt, r = self.svd
        s_inv = np.zeros_like(sigma)
        s_inv[:r] = 1.0 / sigma[:r]
        return _frozen(Vt.T @ (s_inv[:, None] * U.T))

    @cached_property
    def row_basis(self):
        """Row-space basis ``(V, sigma)`` from the SVD X = U diag(sigma) V,
        over the directions with a normal nonzero singular value: ``V`` has
        orthonormal rows.  Both are views of ``svd``."""
        _, sigma, Vt, _ = self.svd
        q = int(np.count_nonzero(sigma > _TINY))
        return Vt[:q], sigma[:q]


def _by_value(keys):
    """``(value, index)`` per distinct value in the int array ``keys``; the
    index is a slice when all keys agree, so what it selects is a view."""
    if (keys == keys[0]).all():
        return [(int(keys[0]), slice(None))]
    return [(int(v), np.flatnonzero(keys == v)) for v in np.unique(keys)]


def _rank(sigma, shape):
    """Each matrix's rank above pinv's cutoff, from the singular values
    ``sigma`` (M, q) of a stack of (n, d) = ``shape`` matrices: singular
    values at or below max(n, d) * eps * sigma_max count as zero."""
    return (sigma > max(shape) * _EPS * sigma.max(axis=1, keepdims=True)).sum(axis=1)


def _factor(X):
    """Thin SVDs ``(U, sigma, Vt, rank)`` of a stack X (M, n, d) in one batched
    call, with each matrix's rank above pinv's cutoff."""
    U, sigma, Vt = np.linalg.svd(X, full_matrices=False)
    return U, sigma, Vt, _rank(sigma, X.shape[1:])


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


@dataclass(frozen=True, eq=False)
class TaskStack:
    """m tasks of one shape (n, d), each field stacked along a first axis.

    ``index`` (m,) holds each task's 0-based position in its collection.
    ``X`` (m, n, d) and ``y`` (m, n) are the data; ``U`` (m, n, q), ``sigma``
    (m, q) and ``Vt`` (m, q, d), q = min(n, d), the thin SVD factors;
    ``rank`` (m,) the ranks above pinv's cutoff; ``pinv_solution`` (m, d)
    X^+ y and ``min_loss`` (m,).  Every array is made read-only.
    """

    index: np.ndarray
    X: np.ndarray
    y: np.ndarray
    U: np.ndarray
    sigma: np.ndarray
    Vt: np.ndarray
    rank: np.ndarray
    pinv_solution: np.ndarray
    min_loss: np.ndarray

    def __post_init__(self):
        for a in vars(self).values():
            a.flags.writeable = False

    def views(self):
        """The stack's tasks in stack order, as ``RegressionTask``s whose array
        fields are views of the stacked arrays."""
        rank, min_loss = self.rank.tolist(), self.min_loss.tolist()
        return [RegressionTask(X=self.X[i], y=self.y[i], pinv_solution=self.pinv_solution[i],
                               min_loss=min_loss[i],
                               svd=(self.U[i], self.sigma[i], self.Vt[i], rank[i]))
                for i in range(len(rank))]


def _build_stack(X, y, index=None, svd=None):
    """A TaskStack from equal-shape data, X (M, n, d) and y (M, n), in one
    pass: one finiteness check, one batched SVD (unless the caller passes X's
    thin SVD factors as ``svd``), X^+ y and ``min_loss`` by stacked matmuls.
    ``index`` holds the tasks' collection positions (0..M-1 if None); a task
    failing a check raises ValueError, named ``collection task {index[i]}``
    when ``index`` is given.
    """
    X, y = _frozen(X), _frozen(y)
    M = len(X)

    def reject(bad, why):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(why if index is None else f"collection task {index[i]}: {why}")

    reject(~(np.isfinite(X).all(axis=(1, 2)) & np.isfinite(y).all(axis=1)),
           "task data contains non-finite entries")
    U, sigma, Vt, rank = _factor(X) if svd is None else (*svd, _rank(svd[1], X.shape[1:]))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        p = _min_norm_lstsq(U, sigma, Vt, rank, y)
        # The smallest kept sigma has the largest 1 / sigma.
        inv_last = 1.0 / sigma[np.arange(M), rank - 1]
    # Only data within eps of underflow fail here (e.g. all-subnormal X):
    # 1 / sigma, and so X^+, or (U^T y) / sigma overflows.
    reject(~(np.isfinite(p).all(axis=1) & ((rank == 0) | np.isfinite(inv_last))),
           "task data too close to underflow: X^+ or X^+ y is not finite")
    with np.errstate(over="ignore", invalid="ignore"):
        residual = X @ p[..., None] - y[..., None]
        min_loss = 0.5 * (residual.swapaxes(1, 2) @ residual)[:, 0, 0]
    reject(~np.isfinite(min_loss), "task data too large: the least-squares loss overflows")
    return TaskStack(index=np.arange(M) if index is None else np.array(index),
                     X=X, y=y, U=U, sigma=sigma, Vt=Vt, rank=rank, pinv_solution=p,
                     min_loss=min_loss)


def json_numbers(values, ndim, name, integral=False):
    """``values``, an ``ndim``-deep list (or array) of numbers, integers where
    ``integral``, as a read-only float64 (int64) array: the one reader of the
    number lists in JSON inputs.  numpy would read "1.5" and true/false as
    numbers; here a bool, string, null, object, ragged or mis-nested list, or
    an entry past the dtype's range is a ValueError naming ``name``."""
    what = f"a {ndim}-D array of {'integers' if integral else 'numbers'}"
    kind, dtype = (numbers.Integral, np.int64) if integral else (numbers.Real, np.float64)
    entries, shape = [values.tolist() if isinstance(values, np.ndarray) else values], []
    for _ in range(ndim):
        sizes = {len(v) if isinstance(v, (list, tuple)) else -1 for v in entries}
        if len(sizes) > 1 or -1 in sizes:
            raise ValueError(f"{name} must be {what}, got {values!r:.40}")
        shape.append(sizes.pop() if sizes else 0)
        entries = [v for row in entries for v in row]
    for v in entries:
        if isinstance(v, bool) or not isinstance(v, kind):
            raise ValueError(f"{name} must be {what}, got entry {v!r:.40}")
    try:
        return _frozen(entries, dtype).reshape(shape)
    except OverflowError:  # an int past the range: the largest |entry|, ties to the positive
        bad = max(entries, key=lambda v: (abs(v), v))
        raise ValueError(f"{name} must be within the {dtype.__name__} range, "
                         f"got entry {bad!r:.40}") from None


def _task_arrays(X, y):
    """X and y read by ``json_numbers``, checked to be one task's matrix and targets."""
    X, y = json_numbers(X, 2, "X"), json_numbers(y, 1, "y")
    n, d = X.shape
    if n < 1 or d < 1:
        raise ValueError(f"X must be at least 1x1, got shape {X.shape}")
    if y.shape[0] != n:
        raise ValueError(f"row count mismatch: X has {n} rows, y has {y.shape[0]} entries")
    return X, y


def new_task(X, y):
    """Build one task from a data matrix and target vector (the view of a
    stack of one)."""
    X, y = _task_arrays(X, y)
    return _build_stack(X[None], y[None]).views()[0]


@dataclass(frozen=True, eq=False)
class RowBases:
    """Every task's ``row_basis`` and the engine's data along it, zero-padded
    to the largest size and stacked (see ``TaskCollection.row_bases``).

    Padded rows of ``V`` and their other entries are 0, so every update leaves
    the iterate unchanged along them.
    """

    V: np.ndarray          # (M, q_max, d)
    sigma: np.ndarray      # (M, q_max)
    target: np.ndarray     # (M, q_max) U^T y
    inv_sigma: np.ndarray  # (M, q_max) 1 / sigma
    on_rank: np.ndarray    # (M, q_max) 1.0 above pinv's cutoff, else 0.0
    rest: np.ndarray       # (M,) 0.5 * ||y - U U^T y||^2
    r2: np.ndarray         # (M,) squared spectral norms R_m^2


@dataclass(frozen=True, eq=False)
class TaskCollection:
    """M tasks sharing feature dimension d, with data radius R, the largest
    spectral norm sigma_max of the tasks' matrices.

    ``stacks`` holds the tasks, one ``TaskStack`` per task shape in order of
    first appearance, whose indices cover 0..M-1.  ``w_star``, when present,
    is a planted solution fitting every task exactly (generator metadata; not
    required for arbitrary collections).  Make collections with the functions
    of this module, not with this constructor.
    """

    M: int
    d: int
    radius: float
    stacks: tuple = field(repr=False)
    w_star: np.ndarray | None = None

    @cached_property
    def tasks(self):
        """The tasks in collection order, as a tuple of ``RegressionTask``
        views of the stacks (built on first use); every read returns the same
        objects."""
        tasks = [None] * self.M
        for s in self.stacks:
            for m, t in zip(s.index.tolist(), s.views()):
                tasks[m] = t
        return tuple(tasks)

    @cached_property
    def reference_solution(self):
        """The point ``dist_to_wstar`` measures from: the planted ``w_star``,
        else the minimum-norm solution of the stacked system (solved on
        first use, read-only)."""
        return self.w_star if self.w_star is not None else _frozen(min_norm_solution(self))

    @cached_property
    def stacked_rows(self):
        """``(X, y, task)``: every task's rows stacked in task order, and each
        row's 0-based task index (built on first use).  ``X`` is column-major,
        the layout of BLAS's fastest matrix-vector kernel."""
        n = np.empty(self.M, np.int64)
        for s in self.stacks:
            n[s.index] = s.X.shape[1]
        task = np.repeat(np.arange(self.M), n)
        first = np.cumsum(n) - n  # each task's first row
        X = np.empty((len(task), self.d), order="F")
        y = np.empty(len(task))
        for s in self.stacks:
            rows = (first[s.index, None] + np.arange(s.X.shape[1])).ravel()
            X[rows], y[rows] = s.X.reshape(-1, self.d), s.y.ravel()
        for a in (X, y, task):
            a.flags.writeable = False
        return X, y, task

    @cached_property
    def row_bases(self):
        """Every task's ``row_basis``, zero-padded and stacked (built on first
        use) from the stacks, with what the engine reads beside it: ``target``
        is U^T y over the same directions, so the residual of w along
        direction j is sigma_j (V w)_j - target_j; ``on_rank`` marks the
        leading directions above pinv's cutoff (those the projection acts
        on); ``rest`` is the loss no w can remove, 0.5 * ||y - U U^T y||^2.
        U^T y and ``rest`` come from one stacked matmul per stack and basis
        size.  ``rest`` is taken from U rather than from ``min_loss``: when a
        singular value sits just above the cutoff, rounding in the SVD
        spreads X^+ y's huge component into the other directions, and
        ``min_loss`` with it."""
        q = [(s.sigma > _TINY).sum(axis=1) for s in self.stacks]
        shape = (self.M, max(int(qs.max()) for qs in q))
        V = np.zeros(shape + (self.d,))
        sigma, target, inv_sigma, on_rank = (np.zeros(shape) for _ in range(4))
        rest, r2 = np.empty(self.M), np.empty(self.M)
        for s, qs in zip(self.stacks, q):
            idx, y = s.index, s.y[..., None]
            on_rank[idx] = np.arange(shape[1]) < np.minimum(qs, s.rank)[:, None]
            r2[idx] = np.square(s.sigma[:, 0])
            for size, g in _by_value(qs):
                m, Uq, sq = idx[g], s.U[g][..., :size], s.sigma[g][:, :size]
                tq = Uq.swapaxes(1, 2) @ y[g]
                off_range = y[g] - Uq @ tq
                rest[m] = 0.5 * (off_range.swapaxes(1, 2) @ off_range)[:, 0, 0]
                V[m, :size], sigma[m, :size] = s.Vt[g][:, :size], sq
                target[m, :size], inv_sigma[m, :size] = tq[..., 0], 1.0 / sq
        return RowBases(V=_frozen(V), sigma=_frozen(sigma), target=_frozen(target),
                        inv_sigma=_frozen(inv_sigma), on_rank=_frozen(on_rank),
                        rest=_frozen(rest), r2=_frozen(r2))


def _stacked_collection(stacks, w_star=None):
    """A collection of stacks whose indices cover 0..M-1, in order of their
    first task."""
    if not stacks:
        raise ValueError("a collection needs at least one task")
    d = stacks[0].X.shape[2]
    for s in stacks:
        if s.X.shape[2] != d:
            raise ValueError(f"tasks disagree on dimension: task {s.index[0]} has "
                             f"{s.X.shape[2]}, task 0 has {d}")
    if w_star is not None:
        w_star = _frozen(w_star)
        if w_star.shape != (d,):
            raise ValueError(f"w_star must have length {d}")
        if not np.isfinite(w_star).all():
            raise ValueError("w_star contains non-finite entries")
    return TaskCollection(M=sum(len(s.index) for s in stacks), d=d,
                          radius=max(float(s.sigma[:, 0].max()) for s in stacks),
                          stacks=tuple(stacks), w_star=w_star)


def stacked_collection(X, y, w_star=None):
    """The collection of the tasks of one shape, X (M, n, d) and y (M, n), as
    one stack: one finiteness check and one batched SVD, each task bit for bit
    the one ``new_task`` builds from its matrix alone."""
    return _stacked_collection([_build_stack(X, y)], w_star)


def _shape_stacks(tasks):
    """One ``_build_stack`` per task shape, in order of first appearance,
    from ``(X, y, svd)`` triples, ``svd`` a task's thin SVD factors
    ``(U, sigma, Vt)`` or None; task i's errors are named by i."""
    shapes = {}
    for i, (X, y, svd) in enumerate(tasks):
        shapes.setdefault(X.shape, []).append((i, X, y, svd))
    stacks = []
    for group in shapes.values():
        index, X, y, svd = zip(*group)
        factors = None if svd[0] is None else [np.stack(f) for f in zip(*svd)]
        stacks.append(_build_stack(np.stack(X), np.stack(y), index, svd=factors))
    return stacks


def new_collection(tasks, w_star=None):
    """A collection of the given task objects, rebuilt from their data and
    SVD factors as one stack per task shape, in order of first appearance (a
    task listed twice is two rows of its stack); no task is decomposed
    again."""
    return _stacked_collection(_shape_stacks((t.X, t.y, t.svd[:3]) for t in tasks), w_star)


def generate_realizable(d, M, n, radius, seed):
    """Deterministically generate a jointly realizable Gaussian collection:
    M tasks of n rows in dimension d, solved exactly by one vector.

    The planted solution ``w_star`` is drawn from the stream ``seed``, and
    after it the M unscaled (n, d) matrices, as one stack decomposed by one
    batched SVD.  With ``radius`` > 0 and a draw not all zero, X and sigma
    are then scaled by c = radius / max_m sigma_max(X_m), keeping U and V:
    these factors are the collection's, so R is ``radius`` within an ulp and
    no matrix is decomposed twice.  Targets are built after rescaling,
    keeping realizability exact.
    """
    if d < 1 or M < 1 or n < 1:
        raise ValueError("d, M and n must all be >= 1")
    rng = stream(seed)
    w_star = rng.standard_normal(d)
    # One draw of M matrices reads the stream as M draws of one would.
    mats = rng.standard_normal((M, n, d))
    U, sigma, Vt = np.linalg.svd(mats, full_matrices=False)
    # X or its targets may overflow near the float64 limit: _build_stack rejects them.
    with np.errstate(over="ignore", invalid="ignore"):
        if radius > 0:
            r0 = sigma[:, 0].max()
            if r0 > 0:
                c = radius / r0
                mats, sigma = mats * c, sigma * c
        y = mats @ w_star
    stack = _build_stack(mats, y, svd=(U, sigma, Vt))
    return _stacked_collection([stack], w_star)


def generate_aligned_pairs(pairs, angle, d, radius=1.0, seed=0):
    """Collection of nearly parallel rank-one task pairs (a hard instance).

    Pair j contributes two unit rows in the coordinate plane (2j, 2j+1)
    separated by ``angle`` radians.  Small angles make training-to-convergence
    grind: consecutive exact projections between almost-parallel constraints
    advance only O(angle^2) per alternation, while partial (regularized)
    updates are unaffected.  Every row has length ``radius`` (1 when
    ``radius`` <= 0).  The planted solution is Gaussian from ``seed``.
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
    mats = (float(radius) if radius > 0 else 1.0) * rows
    with np.errstate(over="ignore", invalid="ignore"):  # as in generate_realizable
        y = mats @ w_star
    return stacked_collection(mats, y, w_star)


def min_norm_solution(collection):
    """Minimum-norm least-squares solution of the stacked system."""
    X, y, _ = collection.stacked_rows
    return _min_norm_lstsq(*_factor(X[None]), y[None])[0]


def collection_from_dict(data):
    """The collection of a collection file's parsed JSON, ``{"tasks": [{"X":
    rows, "y": targets}, ...], "w_star": optional}``, with ``X`` a list of
    rows and ``y`` a list of targets.  Malformed input (unknown fields and
    entries that are not numbers included) raises ValueError, naming the task
    at fault.  Tasks of one shape are built as one stack."""
    if not isinstance(data, dict) or not isinstance(data.get("tasks"), list):
        raise ValueError("a collection file must be an object with a 'tasks' list")
    unknown = set(data) - {"tasks", "w_star"}
    if unknown:
        raise ValueError(f"unknown collection file fields: {sorted(unknown)}")
    tasks = []
    for i, item in enumerate(data["tasks"]):
        if not isinstance(item, dict) or not {"X", "y"} <= set(item):
            raise ValueError(f"collection task {i} must be an object with 'X' and 'y'")
        try:
            if len(item) > 2:
                raise ValueError(f"unknown task fields: {sorted(set(item) - {'X', 'y'})}")
            tasks.append((*_task_arrays(item["X"], item["y"]), None))
        except ValueError as exc:
            raise ValueError(f"collection task {i}: {exc}") from None
    w_star = json_numbers(data["w_star"], 1, "collection w_star") if "w_star" in data else None
    return _stacked_collection(_shape_stacks(tasks), w_star)
