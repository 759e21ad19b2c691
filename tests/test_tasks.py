import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from contreg.surrogates import build_budgeted_surrogate, build_regularized_surrogate
from contreg.tasks import (RealizableSpec, generate_aligned_pairs,
                           generate_realizable, min_norm_solution,
                           new_collection, new_task)


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
    """new_task's SVD is the only decomposition of a task's data."""
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
    col = new_collection(tasks)
    col.row_bases
    for t in tasks:
        t.pinv, t.row_basis
        build_regularized_surrogate(t, 0.5, 1.0)
        r2 = t.spectral_norm ** 2
        build_budgeted_surrogate(t, 0.5 / r2 if r2 else 0.5, 3, 1.0)
    assert shapes == [t.X.shape for t in tasks]


def test_generator_is_deterministic():
    spec = RealizableSpec(d=6, M=4, n=3, radius=2.0, seed=123)
    a = generate_realizable(spec)
    b = generate_realizable(spec)
    assert_array_equal(a.w_star, b.w_star)
    for ta, tb in zip(a.tasks, b.tasks):
        assert_array_equal(ta.X, tb.X)
        assert_array_equal(ta.y, tb.y)


def test_generator_exact_realizability_and_radius():
    col = generate_realizable(RealizableSpec(d=8, M=5, n=3, radius=1.0, seed=7))
    for t in col.tasks:
        assert np.linalg.norm(t.X @ col.w_star - t.y) == 0.0
        assert t.min_loss <= 1e-18
    assert abs(col.radius - 1.0) <= 1e-9


def test_generator_validation():
    with pytest.raises(ValueError):
        generate_realizable(RealizableSpec(d=0, M=1, n=1, radius=1.0, seed=0))
    with pytest.raises(ValueError):
        generate_realizable(RealizableSpec(d=2, M=0, n=1, radius=1.0, seed=0))


def test_generator_accepts_planted_solution():
    w = np.array([1.0, -2.0, 0.5])
    col = generate_realizable(RealizableSpec(d=3, M=2, n=2, radius=1.0, seed=5,
                                             w_star=w))
    assert_array_equal(col.w_star, w)
    for t in col.tasks:
        assert np.linalg.norm(t.X @ w - t.y) == 0.0


def test_aligned_pairs_geometry():
    col = generate_aligned_pairs(pairs=3, angle=0.1, d=8, target_radius=2.0, seed=1)
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


def test_min_norm_solution_recovers_plant_when_determined():
    col = generate_realizable(RealizableSpec(d=4, M=4, n=2, radius=1.0, seed=3))
    assert_allclose(min_norm_solution(col), col.w_star, atol=1e-9)


def test_task_arrays_are_immutable():
    t = new_task([[1.0, 2.0]], [3.0])
    with pytest.raises(ValueError):
        t.X[0, 0] = 5.0
