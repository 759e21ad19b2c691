import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from contreg.orderings import stream
from contreg.surrogates import build_budgeted_surrogate, build_regularized_surrogate
from contreg.tasks import (RegressionTask, RowBases, TaskStack, collection_from_dict,
                           generate_aligned_pairs, generate_realizable, min_norm_solution,
                           new_collection, new_task, stacked_collection)


def grid_min_norm_least_squares(X, y, span=4.0, step=0.05):
    """Brute-force oracle: grid-search the min-norm least-squares solution."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    axes = [np.arange(-span, span + step / 2, step)] * X.shape[1]
    best = None
    best_res = np.inf
    for w in np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, X.shape[1]):
        res = np.sum((X @ w - y) ** 2)
        if res < best_res - 1e-12 or (abs(res - best_res) <= 1e-12
                                      and np.dot(w, w) < np.dot(best, best) - 1e-12):
            best, best_res = w, min(res, best_res)
    return best


def test_scalar_task_hand_check():
    t = new_task([[1.0]], [2.0])
    assert_allclose(t.pinv_solution, [2.0])
    assert t.min_loss == 0.0


def test_min_norm_solution_vs_grid_oracle():
    t = new_task([[1.0, 0.0]], [3.0])
    oracle = grid_min_norm_least_squares([[1.0, 0.0]], [3.0])
    assert_allclose(oracle, [3.0, 0.0], atol=1e-9)
    assert_allclose(t.pinv_solution, [3.0, 0.0], atol=1e-12)
    assert t.min_loss == pytest.approx(0.0, abs=1e-15)


def test_zero_matrix_task():
    t = new_task([[0.0]], [1.0])
    assert_allclose(t.pinv_solution, [0.0])
    assert t.min_loss == pytest.approx(0.5)


def test_new_task_validation():
    with pytest.raises(ValueError, match="mismatch"):
        new_task([[1.0, 0.0]], [1.0, 2.0])
    with pytest.raises(ValueError, match="non-finite"):
        new_task([[np.nan]], [1.0])
    with pytest.raises(ValueError, match="non-finite"):
        new_task([[1.0]], [np.inf])
    with pytest.raises(ValueError):
        new_task([1.0, 2.0], [1.0])  # not 2-D
    with pytest.raises(ValueError, match=r"X must be at least 1x1, got shape \(2, 0\)"):
        new_task(np.zeros((2, 0)), [1.0, 2.0])


def test_radius_examples():
    c = new_collection([new_task([[3.0]], [0.0])])
    assert c.radius == pytest.approx(3.0)
    # singular value of a single row is its Euclidean norm
    c = new_collection([new_task([[1.0, 0.0]], [0.0]), new_task([[0.0, 2.0]], [0.0])])
    assert c.radius == pytest.approx(2.0)
    c = new_collection([new_task(np.eye(2), [0.0, 0.0])])
    assert c.radius == pytest.approx(1.0)


def test_radius_invariant_under_smaller_append():
    big = new_task([[0.0, 2.0]], [0.0])
    small = new_task([[0.5, 0.0]], [0.0])
    assert new_collection([big]).radius == new_collection([big, small]).radius


def test_collection_dimension_check():
    with pytest.raises(ValueError, match="dimension"):
        new_collection([new_task([[1.0]], [0.0]), new_task([[1.0, 0.0]], [0.0])])
    with pytest.raises(ValueError, match="at least one"):
        new_collection([])


finite_floats = st.floats(min_value=-10, max_value=10, allow_nan=False,
                          allow_infinity=False)


linear_systems = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda nd: st.tuples(arrays(np.float64, nd, elements=finite_floats),
                         arrays(np.float64, nd[:1], elements=finite_floats)))


@settings(max_examples=60, deadline=None)
@given(linear_systems)
# Ill-conditioned: the normal-equation residual is 4.3e-6, far above any
# absolute bound, yet within the backward-error bound below.
@example((np.array([[1.0, 2.0], [1e-10, 0.0]]), np.array([1.0, 1.0])))
# Near-duplicate rows with y nearly orthogonal to the smallest singular
# direction: forming X^+ and then multiplying by y leaves 5.6e7 times the
# backward-error scale here; applying the SVD factors to y leaves 0.27.
@example((np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.000000001], [4.0, 5.0, 7.0]]),
          np.array([1.0, 1.0, 2.0])))
# All-subnormal data: 1/sigma overflows, so the task is rejected, also when
# X^+ y = 0 is finite.
@example((np.array([[2.2250738585e-313]]), np.array([9.0])))
@example((np.array([[2.2250738585e-313]]), np.array([0.0])))
@example((np.zeros((2, 3)), np.array([1.0, -1.0])))
# Singular values just above and just below pinv's cutoff 3 eps sigma_max.
@example((np.diag([1.0, 6.7e-16, 6.6e-16]), np.array([1.0, 1.0, 1.0])))
def test_pinv_solution_satisfies_normal_equations(system):
    X, y = system
    try:
        t = new_task(X, y)
    except ValueError as exc:
        assert "underflow" in str(exc)
        # Kept singular values are >= max(n, d) eps sigma_max, so X^+ y can
        # overflow only when sigma_max itself is within eps of underflow.
        assert np.linalg.norm(X, 2) < 1e-290
        return
    # X^+ is numpy's pinv, bit for bit, at the same cutoff.
    eps = np.finfo(np.float64).eps
    assert_array_equal(t.pinv, np.linalg.pinv(X, rcond=max(X.shape) * eps), strict=True)
    residual = t.X @ t.pinv_solution - t.y
    # A backward-stable least-squares solve leaves ||X^T r|| of order
    # eps ||X|| (||X|| ||p|| + ||y||); 64 max(n, d) covers the dimension factors.
    norm_x = np.linalg.norm(X, 2)
    with np.errstate(over="ignore"):  # ||p|| squares past 1e308 near underflow
        bound = (64 * max(X.shape) * np.finfo(np.float64).eps * norm_x
                 * (norm_x * np.linalg.norm(t.pinv_solution) + np.linalg.norm(y)))
    assert np.linalg.norm(t.X.T @ residual) <= bound
    assert t.min_loss >= 0
    assert t.min_loss == pytest.approx(0.5 * residual @ residual, rel=1e-12, abs=1e-15)


def test_each_task_is_decomposed_once(monkeypatch):
    """A task's data is decomposed once, by the batched SVD of the stack it is
    built in: one stack per new_task, one per task shape in a collection file."""
    svd, shapes = np.linalg.svd, []

    def counting_svd(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    def second_decomposition(*args, **kwargs):
        raise AssertionError("a task's data was decomposed again")

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for name in ("eigh", "eigvalsh", "pinv", "norm"):
        monkeypatch.setattr(np.linalg, name, second_decomposition)
    rng = np.random.default_rng(3)
    tasks = [new_task(rng.standard_normal((n, 4)), rng.standard_normal(n)) for n in (1, 3, 4, 6)]
    tasks.append(new_task(np.zeros((2, 4)), np.ones(2)))
    loaded = collection_from_dict({"tasks": [{"X": t.X.tolist(), "y": t.y.tolist()}
                                             for t in tasks + tasks[:2]]})
    for col in (new_collection(tasks), loaded):
        col.row_bases
        for t in col.tasks:
            t.pinv, t.row_basis
            build_regularized_surrogate(t, 0.5, 1.0)
            r2 = t.spectral_norm ** 2
            build_budgeted_surrogate(t, 0.5 / r2 if r2 else 0.5, 3, 1.0)
    assert shapes == ([(1,) + t.X.shape for t in tasks]
                      + [(2, 1, 4), (2, 3, 4), (1, 4, 4), (1, 6, 4), (1, 2, 4)])


@pytest.mark.parametrize("d, M, n", [(10, 400, 5), (3, 6, 8), (1, 5, 1)])
def test_generator_makes_one_batched_svd_and_no_norm_call(monkeypatch, d, M, n):
    """generate_realizable draws and decomposes its M matrices as one (M, n, d)
    stack, and takes the scale from that SVD; row bases and surrogates
    decompose nothing more."""
    calls = []

    def recording(name):
        real = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            calls.append((name, a.shape))
            return real(a, *args, **kwargs)
        return call

    for name in ("svd", "norm"):
        monkeypatch.setattr(np.linalg, name, recording(name))
    col = generate_realizable(d=d, M=M, n=n, radius=1.0, seed=7)
    col.row_bases
    build_regularized_surrogate(col.tasks[-1], 0.5, 1.0)
    assert calls == [("svd", (M, n, d))]


def test_generator_is_deterministic():
    spec = dict(d=6, M=4, n=3, radius=2.0, seed=123)
    a = generate_realizable(**spec)
    b = generate_realizable(**spec)
    assert_array_equal(a.w_star, b.w_star)
    for ta, tb in zip(a.tasks, b.tasks):
        assert_array_equal(ta.X, tb.X)
        assert_array_equal(ta.y, tb.y)


def test_generator_exact_realizability_and_radius():
    col = generate_realizable(d=8, M=5, n=3, radius=1.0, seed=7)
    for t in col.tasks:
        assert np.linalg.norm(t.X @ col.w_star - t.y) == 0.0
        assert t.min_loss <= 1e-18
    assert abs(col.radius - 1.0) <= 1e-9


@pytest.mark.parametrize("d, M, n, radius, seed", [
    (10, 400, 5, 1.0, 7), (3, 6, 8, 2.5, 1), (1, 5, 1, 0.3, 2), (6, 1, 2, 1.0, 0)])
def test_generator_scale_is_the_largest_per_matrix_norm(d, M, n, radius, seed):
    """The scale is radius over the largest sigma_max of the unscaled matrices'
    thin SVDs, and it scales X and sigma exactly as M separate calls would."""
    rng = stream(seed)
    rng.standard_normal(d)  # the planted solution comes first
    mats = [rng.standard_normal((n, d)) for _ in range(M)]
    sigmas = [np.linalg.svd(X, full_matrices=False)[1] for X in mats]
    scale = radius / max(sigma[0] for sigma in sigmas)
    col = generate_realizable(d=d, M=M, n=n, radius=radius, seed=seed)
    for X, sigma, t in zip(mats, sigmas, col.tasks):
        assert_array_equal(t.X, X * scale)
        assert_array_equal(t.svd[1], sigma * scale)
    assert col.radius == max(sigma[0] * scale for sigma in sigmas)
    assert abs(col.radius - radius) <= np.spacing(radius)  # within an ulp


def test_generator_validation():
    with pytest.raises(ValueError):
        generate_realizable(d=0, M=1, n=1, radius=1.0, seed=0)
    with pytest.raises(ValueError):
        generate_realizable(d=2, M=0, n=1, radius=1.0, seed=0)


def test_aligned_pairs_geometry():
    col = generate_aligned_pairs(pairs=3, angle=0.1, d=8, radius=2.0, seed=1)
    assert col.M == 6
    assert col.radius == pytest.approx(2.0, rel=1e-12)
    for t in col.tasks:
        assert np.linalg.norm(t.X @ col.w_star - t.y) == 0.0
    # rows of one pair are at the configured angle
    a, b = col.tasks[0].X[0], col.tasks[1].X[0]
    cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
    assert np.arccos(np.clip(cos, -1, 1)) == pytest.approx(0.1, abs=1e-12)


def test_aligned_pairs_validation():
    with pytest.raises(ValueError, match="d must be"):
        generate_aligned_pairs(pairs=5, angle=0.1, d=9)
    with pytest.raises(ValueError, match="angle"):
        generate_aligned_pairs(pairs=1, angle=0.0, d=2)
    with pytest.raises(ValueError, match="need at least one pair"):
        generate_aligned_pairs(pairs=0, angle=0.1, d=2)


def test_min_norm_solution_recovers_plant_when_determined():
    col = generate_realizable(d=4, M=4, n=2, radius=1.0, seed=3)
    assert_allclose(min_norm_solution(col), col.w_star, atol=1e-9)


def test_task_arrays_are_immutable():
    t = new_task([[1.0, 2.0]], [3.0])
    with pytest.raises(ValueError):
        t.X[0, 0] = 5.0


# Matrices for the stacked builder's property tests: each kind stresses a
# different part of the one batched pass.
EPS = float(np.finfo(np.float64).eps)
MATRIX_KINDS = ("gaussian", "zero", "duplicated", "rank-one", "above-cutoff",
                "below-cutoff", "tiny", "subnormal")


def kind_matrix(kind, rng, n, d):
    if kind == "gaussian":
        return rng.standard_normal((n, d))
    if kind == "zero":
        return np.zeros((n, d))
    if kind == "duplicated":
        return np.repeat(rng.standard_normal((1, d)), n, axis=0)
    if kind == "rank-one":
        return rng.standard_normal((n, 1)) * rng.standard_normal((1, d))
    if kind == "subnormal":
        return rng.standard_normal((n, d)) * 1e-310
    if kind == "tiny":  # one singular value kept by pinv, yet below the normal range
        X = np.zeros((n, d))
        X[0, rng.integers(d)] = 1.5e-308
        return X
    # Diagonal, largest singular value 1, the others 1% above or below pinv's
    # cutoff max(n, d) eps; the rows are shuffled.
    X = np.zeros((n, d))
    factor = 1.01 if kind == "above-cutoff" else 0.99
    k = min(n, d)
    X[np.arange(k), np.arange(k)] = [1.0] + [factor * max(n, d) * EPS] * (k - 1)
    return X[rng.permutation(n)]


def per_matrix(X, y):
    """Plain numpy on one matrix: its SVD, pinv's rank, X^+ y as
    V_r ((U_r^T y) / sigma_r), and 0.5 ||X X^+ y - y||^2."""
    U, sigma, Vt = np.linalg.svd(X, full_matrices=False)
    r = int(np.count_nonzero(sigma > max(X.shape) * EPS * sigma.max()))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        p = Vt[:r].T @ ((U[:, :r].T @ y) / sigma[:r])
        finite = np.isfinite(p).all() and np.isfinite(1.0 / sigma[:r]).all()
        residual = X @ p - y
        loss = 0.5 * float(residual @ residual)
    return (U, sigma, Vt, r, p, loss), finite


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


stacks = st.tuples(st.integers(1, 5), st.integers(1, 5),
                   st.lists(st.sampled_from(MATRIX_KINDS), min_size=1, max_size=6),
                   st.integers(0, 2 ** 32 - 1), st.booleans())


@settings(max_examples=150, deadline=None)
@given(stacks)
@example((3, 3, ["gaussian", "above-cutoff", "below-cutoff", "zero"], 0, True))
@example((4, 2, ["duplicated", "rank-one", "gaussian"], 1, False))  # n > d
@example((1, 1, ["subnormal"], 2, False))
@example((2, 3, ["gaussian", "gaussian", "subnormal", "subnormal"], 3, True))
def test_stacked_collection_matches_per_matrix_numpy(stack):
    """Every field of every task of a stack is bit for bit what plain numpy
    gives on each matrix alone, ranks mixed in one stack; a stack holding
    data too close to underflow is rejected, and a collection file names its
    first such task by its place in the file."""
    n, d, kinds, seed, realizable = stack
    rng = np.random.default_rng(seed)
    X = np.stack([kind_matrix(kind, rng, n, d) for kind in kinds])
    y = X @ rng.standard_normal(d) if realizable else rng.standard_normal((len(kinds), n))
    expected = [per_matrix(Xm, ym) for Xm, ym in zip(X, y)]
    bad = [not finite for _, finite in expected]
    if any(bad):
        with pytest.raises(ValueError, match="^task data too close to underflow"):
            stacked_collection(X, y)
        # Ten tasks of another shape first: the stack's tasks are 10, 11, ...
        other = [{"X": [[0.0] * d] * (n + 1), "y": [0.0] * (n + 1)}] * 10
        with pytest.raises(ValueError, match=f"^collection task {bad.index(True) + 10}: "
                                             "task data too close to underflow"):
            collection_from_dict({"tasks": other + [{"X": Xm.tolist(), "y": ym.tolist()}
                                                    for Xm, ym in zip(X, y)]})
        return
    tasks = stacked_collection(X, y).tasks
    for m, (t, ((U, sigma, Vt, r, p, loss), _)) in enumerate(zip(tasks, expected)):
        for got, want in zip(t.svd[:3] + (t.pinv_solution, t.X, t.y),
                             (U, sigma, Vt, p, X[m], y[m])):
            assert_same_bits(got, want)
            assert not got.flags.writeable
        assert type(t.svd[3]) is int and t.svd[3] == r
        assert type(t.min_loss) is float and t.min_loss == loss
        # Fields are views of the stacked arrays.
        assert t.X.base is tasks[0].X.base and t.svd[0].base is tasks[0].svd[0].base


def per_task_row_bases(col):
    """Every task's row_basis, zero-padded and stacked one task at a time,
    with its U^T y, rank and rest loss 0.5 * ||y - U U^T y||^2 formed from
    its own SVD factors and y."""
    shape = (col.M, max(len(t.row_basis[1]) for t in col.tasks))
    V = np.zeros(shape + (col.d,))
    sigma, target, inv_sigma, on_rank = (np.zeros(shape) for _ in range(4))
    rest = np.empty(col.M)
    for m, t in enumerate(col.tasks):
        Vm, sm = t.row_basis
        U, _, _, r = t.svd
        q = len(sm)
        tm = U[:, :q].T @ t.y
        off_range = t.y - U[:, :q] @ tm
        V[m, :q], sigma[m, :q], target[m, :q] = Vm, sm, tm
        inv_sigma[m, :q] = 1.0 / sm
        on_rank[m, :min(q, r)] = 1.0
        rest[m] = 0.5 * float(off_range @ off_range)
    return {"V": V, "sigma": sigma, "target": target, "inv_sigma": inv_sigma,
            "on_rank": on_rank, "rest": rest,
            "r2": np.square([t.spectral_norm for t in col.tasks])}


collections = st.tuples(
    st.integers(1, 5),
    st.lists(st.tuples(st.integers(1, 6), st.sampled_from(MATRIX_KINDS[:-1])),
             min_size=1, max_size=8),
    st.integers(0, 2 ** 32 - 1))


@settings(max_examples=100, deadline=None)
@given(collections)
@example((3, [(2, "zero"), (1, "gaussian"), (3, "above-cutoff"), (2, "duplicated"),
              (5, "below-cutoff"), (1, "zero"), (2, "tiny")], 0))
def test_row_bases_match_each_tasks_row_basis(collection):
    """A collection file builds one stack per task shape, each task bit for bit
    its new_task; its row_bases equal each task's row_basis stacked as before.
    The same holds for the generators' collections, and every stack-built
    collection reads as the task-list collection of its own tasks."""
    d, shapes, seed = collection
    rng = np.random.default_rng(seed)
    mats = [kind_matrix(kind, rng, n, d) for n, kind in shapes]
    # A tiny task's targets are realizable, so its X^+ y stays finite.
    data = [(X, X @ rng.standard_normal(d) if kind == "tiny" else rng.standard_normal(n))
            for X, (n, kind) in zip(mats, shapes)]
    col = collection_from_dict({"tasks": [{"X": X.tolist(), "y": y.tolist()}
                                          for X, y in data]})
    for t, (X, y) in zip(col.tasks, data):
        alone = new_task(X, y)
        for got, want in zip(t.svd[:3] + (t.pinv_solution,),
                             alone.svd[:3] + (alone.pinv_solution,)):
            assert_same_bits(got, want)
        assert (t.svd[3], t.min_loss) == (alone.svd[3], alone.min_loss)
    generated = [generate_realizable(d=d, M=len(shapes), n=shapes[0][0],
                                     radius=1.0, seed=seed)]
    if d >= 2:
        generated.append(generate_aligned_pairs(pairs=d // 2, angle=0.1, d=d, seed=seed))
    for c in [col] + generated:
        want = per_task_row_bases(c)
        for name, value in want.items():
            assert_same_bits(getattr(c.row_bases, name), value)
            assert not getattr(c.row_bases, name).flags.writeable
        assert_reads_as_its_task_list(c)


def assert_reads_as_its_task_list(col):
    """``col`` against ``new_collection`` of its tasks (which restacks them):
    the same radius, row bases, stacked rows and stacks, bit for bit, and the
    same task objects on every read of ``col.tasks``."""
    tasks = col.tasks
    assert col.tasks is tasks and all(type(t) is RegressionTask for t in tasks)
    listed = new_collection(list(tasks), w_star=col.w_star)
    assert (listed.M, listed.d, listed.radius) == (col.M, col.d, col.radius)
    for f in dataclasses.fields(RowBases):
        assert_same_bits(getattr(col.row_bases, f.name), getattr(listed.row_bases, f.name))
    rows = (np.vstack([t.X for t in tasks]), np.concatenate([t.y for t in tasks]),
            np.repeat(np.arange(col.M), [len(t.y) for t in tasks]))
    for got, again, want in zip(col.stacked_rows, listed.stacked_rows, rows):
        assert_same_bits(got, want)
        assert_same_bits(again, want)
        assert not got.flags.writeable
    assert col.stacked_rows[0].flags.f_contiguous
    assert len(col.stacks) == len(listed.stacks)
    for got, want in zip(col.stacks, listed.stacks):
        for f in dataclasses.fields(TaskStack):
            assert_same_bits(getattr(got, f.name), getattr(want, f.name))
            assert not getattr(got, f.name).flags.writeable
