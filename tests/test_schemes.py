import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import optimize

from contreg.metrics import average_loss, task_loss
from contreg.orderings import sample_ordering, stream
from contreg.schedules import custom_schedule, increasing_budget, increasing_coefficient
from contreg.schemes import (budgeted_step, igd_step, regularized_step,
                             run_continual, unregularized_step)
from contreg.surrogates import build_budgeted_surrogate, build_regularized_surrogate
from contreg.tasks import RealizableSpec, generate_realizable, new_task


def minimize_oracle(task, lam, w):
    """Numeric minimizer of the anchored objective, independent of the solver."""
    def objective(v):
        r = task.X @ v - task.y
        return 0.5 * r @ r + 0.5 * lam * np.sum((v - w) ** 2)
    res = optimize.minimize(objective, np.zeros(task.d), method="BFGS",
                            options={"gtol": 1e-12})
    return res.x


def projection_oracle(task, w):
    """Constrained least squares via the KKT system (full-row-rank tasks)."""
    X, y = task.X, task.y
    return w - X.T @ np.linalg.solve(X @ X.T, X @ w - y)


def test_regularized_step_scalar_vs_minimizer():
    t = new_task([[1.0]], [2.0])
    out = regularized_step(np.array([0.0]), t, 1.0)
    assert_allclose(out, [1.0], atol=1e-12)
    assert_allclose(out, minimize_oracle(t, 1.0, np.array([0.0])), atol=1e-6)


def test_regularized_step_random_vs_minimizer():
    rng = stream(21)
    t = new_task(rng.standard_normal((3, 4)), rng.standard_normal(3))
    w = rng.standard_normal(4)
    assert_allclose(regularized_step(w, t, 0.7), minimize_oracle(t, 0.7, w), atol=1e-6)


def test_regularized_step_fixed_points_and_freeze():
    t = new_task([[1.0, 0.0]], [2.0])
    w = np.array([2.0, 5.0])  # already fits the task
    for lam in (0.1, 1.0, 100.0):
        assert_allclose(regularized_step(w, t, lam), w, atol=1e-12)
    t = new_task([[1.0]], [2.0])
    out = regularized_step(np.array([0.0]), t, 1e12)
    assert np.abs(out).max() <= 3e-12
    with pytest.raises(ValueError):
        regularized_step(np.array([0.0]), t, 0.0)


def test_budgeted_step_manual_gradients():
    t = new_task([[1.0]], [2.0])
    assert_allclose(budgeted_step(np.array([0.0]), t, 0.5, 1), [1.0])
    assert_allclose(budgeted_step(np.array([0.0]), t, 0.5, 2), [1.5])
    w = np.array([2.0])
    assert_allclose(budgeted_step(w, t, 0.5, 7), w)  # fixed point
    with pytest.raises(ValueError, match="gamma"):
        budgeted_step(np.array([0.0]), t, 1.5, 1)
    with pytest.raises(ValueError, match="budget"):
        budgeted_step(np.array([0.0]), t, 0.5, 0)


def test_unregularized_step_is_projection():
    t = new_task([[1.0, 0.0]], [1.0])
    out = unregularized_step(np.zeros(2), t)
    assert_allclose(out, [1.0, 0.0], atol=1e-12)
    assert_allclose(out, projection_oracle(t, np.zeros(2)), atol=1e-12)
    # feasible points stay, and the step is idempotent
    rng = stream(22)
    t = new_task(rng.standard_normal((2, 5)), rng.standard_normal(2))
    w = rng.standard_normal(5)
    once = unregularized_step(w, t)
    assert_allclose(unregularized_step(once, t), once, atol=1e-12)
    assert_allclose(once, projection_oracle(t, w), atol=1e-10)


def test_igd_step_matches_scheme_steps():
    t = new_task([[1.0]], [2.0])
    s = build_regularized_surrogate(t, 1.0, 1.0)
    assert_allclose(igd_step(np.array([0.0]), s, 1.0), [1.0], atol=1e-15)
    assert_allclose(igd_step(s.anchor, s, 1.0), s.anchor)
    s = build_budgeted_surrogate(t, 0.5, 2, 1.0)
    assert_allclose(igd_step(np.array([0.0]), s, 1.0), [1.5], atol=1e-15)


def test_run_continual_trivial_horizon():
    col = generate_realizable(RealizableSpec(d=3, M=2, n=1, radius=1.0, seed=1))
    traj = run_continual(col, [], None, "unregularized")
    assert traj.iterates.shape == (1, 3)
    assert_allclose(traj.iterates[0], np.zeros(3))


def test_run_continual_fixed_point_at_solution():
    col = generate_realizable(RealizableSpec(d=4, M=3, n=2, radius=1.0, seed=2))
    order = sample_ordering("with-replacement", col.M, 12, seed=5)
    for scheme, sched in (
        ("regularized", increasing_coefficient(col.radius, 12)),
        ("budgeted", increasing_budget(col.radius, 12, 2)),
        ("unregularized", None),
        ("igd-of-regularized", increasing_coefficient(col.radius, 12)),
        ("igd-of-budgeted", increasing_budget(col.radius, 12, 2)),
    ):
        traj = run_continual(col, order, sched, scheme, w0=col.w_star)
        assert np.abs(traj.iterates - col.w_star).max() <= 1e-10


def test_single_task_unregularized_solves_in_one_step():
    col = generate_realizable(RealizableSpec(d=3, M=1, n=2, radius=1.0, seed=3))
    traj = run_continual(col, [1], None, "unregularized")
    assert average_loss(traj.iterates[-1], col) <= 1e-18


def test_reduction_equivalence_regularized():
    rng = stream(23)
    k = 100
    worst = 0.0
    for _ in range(5):
        d = int(rng.integers(2, 11))
        col = generate_realizable(RealizableSpec(
            d=d, M=int(rng.integers(2, 6)), n=int(rng.integers(1, d + 1)),
            radius=float(rng.uniform(0.5, 2.0)), seed=int(rng.integers(2 ** 32))))
        order = sample_ordering("with-replacement", col.M, k, int(rng.integers(2 ** 32)))
        sched = custom_schedule(k, lam=rng.uniform(1e-2, 1e2, k),
                                eta=rng.uniform(1e-2, 1e1, k))
        a = run_continual(col, order, sched, "regularized")
        b = run_continual(col, order, sched, "igd-of-regularized")
        tol = 1e-8 * (1 + np.linalg.norm(col.w_star))
        worst = max(worst, np.abs(a.iterates - b.iterates).max() / tol)
    assert worst <= 1.0


def test_reduction_equivalence_budgeted():
    rng = stream(24)
    k = 100
    for _ in range(5):
        d = int(rng.integers(2, 11))
        col = generate_realizable(RealizableSpec(
            d=d, M=int(rng.integers(2, 6)), n=int(rng.integers(1, d + 1)),
            radius=float(rng.uniform(0.5, 2.0)), seed=int(rng.integers(2 ** 32))))
        order = sample_ordering("with-replacement", col.M, k, int(rng.integers(2 ** 32)))
        sched = custom_schedule(k, gamma=rng.uniform(1e-4, 0.9 / col.radius ** 2, k),
                                n_steps=rng.integers(1, 11, k),
                                eta=rng.uniform(1e-2, 1e1, k))
        a = run_continual(col, order, sched, "budgeted")
        b = run_continual(col, order, sched, "igd-of-budgeted")
        tol = 1e-8 * (1 + np.linalg.norm(col.w_star))
        assert np.abs(a.iterates - b.iterates).max() <= tol


def test_igd_iterates_invariant_to_bookkeeping_step():
    col = generate_realizable(RealizableSpec(d=5, M=3, n=2, radius=1.0, seed=9))
    k = 60
    order = sample_ordering("with-replacement", col.M, k, seed=8)
    lam = stream(25).uniform(0.1, 10.0, k)
    a = run_continual(col, order, custom_schedule(k, lam=lam, eta=np.ones(k)),
                      "igd-of-regularized")
    b = run_continual(col, order, custom_schedule(k, lam=lam, eta=np.full(k, 7.0)),
                      "igd-of-regularized")
    assert np.abs(a.iterates - b.iterates).max() <= 1e-12


def test_distance_to_solution_non_increasing_under_regularized():
    rng = stream(26)
    for _ in range(5):
        col = generate_realizable(RealizableSpec(
            d=6, M=4, n=2, radius=1.5, seed=int(rng.integers(2 ** 32))))
        k = 50
        order = sample_ordering("with-replacement", col.M, k, int(rng.integers(2 ** 32)))
        sched = custom_schedule(k, lam=rng.uniform(1e-3, 1e2, k))
        traj = run_continual(col, order, sched, "regularized")
        dist = np.linalg.norm(traj.iterates - col.w_star, axis=1)
        assert np.all(np.diff(dist) <= 1e-12 * (1 + dist[:-1]))


def test_unregularized_first_flag():
    col = generate_realizable(RealizableSpec(d=4, M=2, n=1, radius=1.0, seed=12))
    k = 3
    order = [1, 2, 1]
    sched = custom_schedule(k, lam=np.full(k, 5.0), unregularized_first=True)
    traj = run_continual(col, order, sched, "regularized")
    first = unregularized_step(np.zeros(4), col.tasks[0])
    assert_allclose(traj.iterates[1], first, atol=1e-14)
    later = regularized_step(first, col.tasks[1], 5.0)
    assert_allclose(traj.iterates[2], later, atol=1e-14)


def test_regularized_step_never_raises_its_task_loss():
    col = generate_realizable(RealizableSpec(d=3, M=2, n=1, radius=1.0, seed=13))
    k = 4
    order = [2, 1, 2, 2]
    traj = run_continual(col, order, increasing_coefficient(col.radius, k), "regularized")
    assert traj.ordering.tolist() == [2, 1, 2, 2]
    for t, m in enumerate(traj.ordering, start=1):
        task = col.tasks[m - 1]
        assert task_loss(traj.iterates[t], task) <= task_loss(traj.iterates[t - 1], task) + 1e-15


def test_run_continual_validation():
    col = generate_realizable(RealizableSpec(d=3, M=2, n=1, radius=1.0, seed=14))
    order = [1, 2]
    with pytest.raises(ValueError, match="length"):
        run_continual(col, order, increasing_coefficient(1.0, 3), "regularized")
    with pytest.raises(ValueError, match=r"sets \['lam'\]"):
        run_continual(col, order, increasing_budget(1.0, 2, 1), "regularized")
    with pytest.raises(ValueError, match=r"sets \['gamma', 'n_steps'\]"):
        run_continual(col, order, increasing_coefficient(1.0, 2), "budgeted")
    with pytest.raises(ValueError, match="needs a schedule"):
        run_continual(col, order, None, "regularized")
    with pytest.raises(ValueError, match="unknown scheme"):
        run_continual(col, order, None, "cyclic")
    for bad in ([1, 5], [0, 1]):
        with pytest.raises(ValueError, match=r"\[1\.\.2\]"):
            run_continual(col, bad, None, "unregularized")
    with pytest.raises(ValueError, match="w0"):
        run_continual(col, order, None, "unregularized", w0=np.zeros(5))
