from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from contreg.orderings import stream
from contreg.surrogates import (budgeted_spectral_map, build_budgeted_surrogate,
                                build_regularized_surrogate,
                                build_spectral_surrogate, from_matrix, sandwich_check,
                                spectral_multiplier, value_and_grad)
from contreg.tasks import generate_realizable, new_task


def solve_oracle_regularized(task, lam, eta):
    """Literal matrix formula (1/eta) * (I - lam * (X^T X + lam I)^-1)."""
    d = task.d
    G = task.X.T @ task.X
    return (np.eye(d) - lam * np.linalg.solve(G + lam * np.eye(d), np.eye(d))) / eta


def power_oracle_budgeted(task, gamma, n, eta):
    """Literal matrix formula (1/eta) * (I - (I - gamma X^T X)^n)."""
    d = task.d
    G = task.X.T @ task.X
    return (np.eye(d) - np.linalg.matrix_power(np.eye(d) - gamma * G, n)) / eta


def regularized_spectral_map(lam, eta):
    """Scalar map xi -> (1/eta) * xi / (xi + lam) applied to Gram eigenvalues:
    the paper's form."""
    return lambda xi: (xi / (xi + lam)) / eta


EPS = float(np.finfo(np.float64).eps)


def random_task(rng, d_max=8):
    d = int(rng.integers(1, d_max + 1))
    n = int(rng.integers(1, d + 3))
    return new_task(rng.standard_normal((n, d)), rng.standard_normal(n))


def test_regularized_surrogate_scalar_example():
    t = new_task([[1.0]], [2.0])
    s = build_regularized_surrogate(t, lam=1.0, eta=1.0)
    assert_allclose(s.A, [[0.5]], atol=1e-15)
    assert_allclose(s.anchor, [2.0])
    assert s.beta == pytest.approx(0.5)
    assert_allclose(s.A, solve_oracle_regularized(t, 1.0, 1.0), atol=1e-12)


def test_huge_coefficient_kills_curvature():
    t = new_task([[1.0]], [2.0])
    s = build_regularized_surrogate(t, lam=1e12, eta=1.0)
    assert np.abs(s.A).max() <= 2e-12


def test_zero_matrix_gives_zero_surrogate():
    t = new_task([[0.0, 0.0]], [1.0])
    s = build_regularized_surrogate(t, lam=0.7, eta=2.0)
    assert np.abs(s.A).max() == 0.0
    assert s.beta == 0.0


def test_regularized_surrogate_validation():
    t = new_task([[1.0]], [2.0])
    with pytest.raises(ValueError):
        build_regularized_surrogate(t, lam=0.0, eta=1.0)
    with pytest.raises(ValueError):
        build_regularized_surrogate(t, lam=1.0, eta=-1.0)


def test_budgeted_surrogate_examples():
    t = new_task([[1.0]], [2.0])
    assert_allclose(build_budgeted_surrogate(t, 0.5, 1, 1.0).A, [[0.5]], atol=1e-15)
    assert_allclose(build_budgeted_surrogate(t, 0.5, 2, 1.0).A, [[0.75]], atol=1e-15)


def test_budgeted_single_step_is_scaled_gram():
    rng = stream(3)
    t = random_task(rng, d_max=5)
    if t.spectral_norm == 0:
        pytest.skip("degenerate draw")
    gamma = 0.5 / t.spectral_norm ** 2
    s = build_budgeted_surrogate(t, gamma, 1, eta=2.0)
    assert_allclose(s.A, (gamma / 2.0) * (t.X.T @ t.X), atol=1e-12)


def test_budgeted_matches_matrix_power_oracle():
    rng = stream(4)
    for _ in range(10):
        t = random_task(rng)
        if t.spectral_norm == 0:
            continue
        gamma = float(rng.uniform(0.05, 0.9)) / t.spectral_norm ** 2
        n = int(rng.integers(1, 9))
        eta = float(rng.uniform(0.1, 3.0))
        s = build_budgeted_surrogate(t, gamma, n, eta)
        assert_allclose(s.A, power_oracle_budgeted(t, gamma, n, eta), atol=1e-10)


def test_budgeted_surrogate_validation():
    t = new_task([[1.0]], [2.0])
    with pytest.raises(ValueError, match="gamma"):
        build_budgeted_surrogate(t, 1.5, 1, 1.0)
    with pytest.raises(ValueError, match="budget"):
        build_budgeted_surrogate(t, 0.5, 0, 1.0)


def test_spectral_identity_map_reproduces_gram():
    t = new_task([[1.0, 0.0], [0.0, 2.0]], [0.0, 0.0])
    s = build_spectral_surrogate(t, lambda xi: xi)
    assert_allclose(s.A, t.X.T @ t.X, atol=1e-12)
    assert s.beta == pytest.approx(4.0)


def test_spectral_builder_reproduces_dedicated_builders():
    rng = stream(5)
    for _ in range(10):
        t = random_task(rng)
        lam = float(rng.uniform(0.1, 10.0))
        eta = float(rng.uniform(0.1, 3.0))
        a = build_regularized_surrogate(t, lam, eta)
        b = build_spectral_surrogate(t, regularized_spectral_map(lam, eta))
        assert np.abs(a.A - b.A).max() <= 1e-10
        if t.spectral_norm > 0:
            gamma = 0.5 / t.spectral_norm ** 2
            a = build_budgeted_surrogate(t, gamma, 3, eta)
            b = build_spectral_surrogate(t, budgeted_spectral_map(gamma, 3, eta))
            assert np.abs(a.A - b.A).max() <= 1e-10


def test_spectral_must_vanish_at_zero():
    t = new_task([[1.0]], [2.0])
    with pytest.raises(ValueError, match="vanish"):
        build_spectral_surrogate(t, lambda xi: xi + 1e-9)


def test_value_and_grad_hand_arithmetic():
    t = new_task([[1.0]], [2.0])
    s = build_regularized_surrogate(t, 1.0, 1.0)
    value, grad = value_and_grad(s, np.array([0.0]))
    assert value == pytest.approx(1.0)
    assert_allclose(grad, [-1.0])
    value, grad = value_and_grad(s, s.anchor)
    assert value == 0.0
    assert_allclose(grad, [0.0])
    with pytest.raises(ValueError, match="shape"):
        value_and_grad(s, np.zeros(2))


def test_surrogates_vanish_at_shared_solution():
    col = generate_realizable(d=5, M=4, n=2, radius=1.0, seed=11)
    for task in col.tasks:
        for s in (build_regularized_surrogate(task, 2.0, 1.0),
                  build_budgeted_surrogate(task, 0.5, 3, 1.0)):
            value, grad = value_and_grad(s, col.w_star)
            assert value <= 1e-12 * (1 + col.w_star @ col.w_star)
            assert np.linalg.norm(grad) <= 1e-6


def test_gradient_matches_central_differences():
    rng = stream(6)
    worst = 0.0
    for _ in range(10):
        t = random_task(rng, d_max=6)
        s = build_regularized_surrogate(t, float(rng.uniform(0.5, 5)), 1.0)
        w = rng.standard_normal(t.d)
        _, grad = value_and_grad(s, w)
        h = 1e-6
        for j in range(t.d):
            e = np.zeros(t.d)
            e[j] = h
            fd = (value_and_grad(s, w + e)[0] - value_and_grad(s, w - e)[0]) / (2 * h)
            worst = max(worst, abs(fd - grad[j]) / (1.0 + abs(grad[j])))
    assert worst <= 1e-6


def test_beta_equals_top_eigenvalue_and_closed_form():
    rng = stream(7)
    for _ in range(10):
        t = random_task(rng)
        r2 = t.spectral_norm ** 2
        lam, eta = float(rng.uniform(0.1, 10)), float(rng.uniform(0.1, 3))
        s = build_regularized_surrogate(t, lam, eta)
        top = np.linalg.eigvalsh(s.A).max() if t.d else 0.0
        assert s.beta == pytest.approx(r2 / (r2 + lam) / eta, rel=1e-9)
        assert s.beta == pytest.approx(top, rel=1e-9, abs=1e-12)
        if r2 > 0:
            gamma = float(rng.uniform(0.05, 0.9)) / r2
            n = int(rng.integers(1, 8))
            s = build_budgeted_surrogate(t, gamma, n, eta)
            assert s.beta == pytest.approx((1 - (1 - gamma * r2) ** n) / eta, rel=1e-9)
            assert s.beta == pytest.approx(np.linalg.eigvalsh(s.A).max(),
                                           rel=1e-9, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(sigma=st.floats(1e-6, 1e4), lam=st.floats(1e-8, 1e8),
       gamma_xi=st.floats(1e-200, 0.9), n_steps=st.integers(1, 64))
def test_spectral_multiplier_closed_forms(sigma, lam, gamma_xi, n_steps):
    xi = sigma * sigma
    g, s = spectral_multiplier((lam,), sigma, 1.0 / sigma)
    assert s == pytest.approx(lam / (xi + lam), rel=4 * EPS)
    assert g * sigma == pytest.approx(xi / (xi + lam), rel=4 * EPS)
    assert abs(g * sigma - (1.0 - s)) <= 4 * EPS

    gamma = gamma_xi / xi
    g, s = spectral_multiplier((gamma, n_steps), sigma, 1.0 / sigma)
    x = Fraction(gamma * xi)  # the product the multiplier forms
    one_minus_s = float(1 - (1 - x) ** n_steps)
    assert s == pytest.approx(float((1 - x) ** n_steps), rel=8 * n_steps * EPS)
    # 1 - s keeps full relative accuracy, down to tiny gamma xi where it is
    # N gamma xi; subtracting s from 1 would lose it there.
    assert g * sigma == pytest.approx(one_minus_s, rel=16 * EPS)
    assert abs(g * sigma - (1.0 - s)) <= 4 * EPS
    if gamma * xi < 1e-17:
        assert g * sigma == pytest.approx(n_steps * gamma * xi, rel=16 * EPS)


def test_spectral_multiplier_projection():
    sigma = np.array([2.0, 0.5, 1e-17, 0.0])
    on_rank = np.array([1.0, 1.0, 0.0, 0.0])
    inv_sigma = np.array([0.5, 2.0, 1e17, 0.0])
    g, s = spectral_multiplier((), sigma, inv_sigma, on_rank)
    assert_allclose(s, [0.0, 0.0, 1.0, 1.0], rtol=0, atol=0)
    assert_allclose(g, [0.5, 2.0, 0.0, 0.0], rtol=0, atol=0)


@pytest.mark.parametrize("gamma", [1e-17, 1e-12, 1e-6, 0.3])
def test_budgeted_surrogate_keeps_tiny_inner_steps(gamma):
    """1 - (1 - gamma xi)^N is not lost to cancellation when gamma xi is tiny."""
    t = new_task([[1.0]], [0.0])
    for eta in (1.0, 0.3):
        s = build_budgeted_surrogate(t, gamma, 3, eta)
        want = -np.expm1(3 * np.log1p(-gamma)) / eta
        assert abs(s.beta - want) <= 4 * np.spacing(want)
        assert abs(s.A[0, 0] - want) <= 4 * np.spacing(want)
        rep = sandwich_check(s, t, [1.0])
        assert rep.lower_ok and rep.upper_ok, rep


def test_sandwich_scalar_chord_equality():
    t = new_task([[1.0]], [2.0])
    s = build_regularized_surrogate(t, 1.0, 1.0)
    rep = sandwich_check(s, t, np.array([0.0]))
    assert (rep.lower, rep.excess, rep.upper) == pytest.approx((1.0, 2.0, 2.0))
    assert rep.lower_ok and rep.upper_ok
    rep = sandwich_check(s, t, s.anchor)
    assert (rep.lower, rep.excess, rep.upper) == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)


def test_sandwich_monte_carlo_d5():
    rng = stream(8)
    t = new_task(rng.standard_normal((3, 5)), rng.standard_normal(3))
    for _ in range(100):
        w = rng.standard_normal(5) * float(rng.uniform(0.1, 5.0))
        if rng.random() < 0.5:
            s = build_regularized_surrogate(t, float(rng.uniform(1e-2, 1e2)),
                                            float(rng.uniform(1e-2, 1e1)))
        else:
            s = build_budgeted_surrogate(t, float(rng.uniform(0.01, 0.9)) / t.spectral_norm ** 2,
                                         int(rng.integers(1, 10)),
                                         float(rng.uniform(1e-2, 1e1)))
        rep = sandwich_check(s, t, w)
        assert rep.lower_ok and rep.upper_ok


def test_sandwich_rejects_verbatim_kind():
    s = from_matrix(np.eye(2), np.zeros(2))
    t = new_task(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError, match="no excess-loss constants"):
        sandwich_check(s, t, np.zeros(2))


def test_spectral_sandwich_has_no_constants():
    t = new_task([[1.0]], [2.0])
    s = build_spectral_surrogate(t, regularized_spectral_map(1.0, 1.0))
    with pytest.raises(ValueError, match="no excess-loss constants"):
        sandwich_check(s, t, np.array([0.0]))


def test_upper_constant_at_tied_settings():
    rng = stream(10)
    for _ in range(20):
        t = random_task(rng)
        r2 = t.spectral_norm ** 2
        eta = float(rng.uniform(1e-2, 1e1))
        s = build_regularized_surrogate(t, 1.0 / eta, eta)
        if s.beta > 0:
            assert r2 / s.beta <= 1 + eta * r2 + 1e-9
        if r2 > 0:
            n = int(rng.integers(1, 10))
            gamma = min(eta / n, 0.45 / r2)
            s = build_budgeted_surrogate(t, gamma, n, gamma * n)
            if s.beta > 0:
                assert r2 / s.beta <= 1 + gamma * n * r2 + 1e-9


def test_from_matrix_validation():
    with pytest.raises(ValueError, match="symmetric"):
        from_matrix([[0.0, 1.0], [0.0, 0.0]], np.zeros(2))
    with pytest.raises(ValueError, match="semi-definite"):
        from_matrix([[-1.0]], np.zeros(1))
    with pytest.raises(ValueError, match=r"A must be square, got shape \(1, 2\)"):
        from_matrix([[1.0, 0.0]], np.zeros(2))
    with pytest.raises(ValueError, match="anchor length must match A"):
        from_matrix([[1.0]], np.zeros(2))
    s = from_matrix([[2.0]], [1.0])
    assert s.beta == pytest.approx(2.0)
