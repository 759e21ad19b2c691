"""Quadratic surrogate objectives for the continual update rules.

A surrogate is f(w) = 0.5 * (w - p)^T A (w - p) with anchor p = X^+ y.  One
gradient step of size eta on f reproduces one full regularized task update or
one budgeted inner loop.  Every rule is the map w' = p + V^T s(xi) V (w - p)
on the row basis of X = U diag(sigma) V, xi = sigma^2, and the multiplier s
has one copy, ``spectral_multiplier``: ``schemes.run_batch`` steps with it and
both builders take A = V^T diag((1 - s) / eta) V from it.  Any concave
nondecreasing map of xi vanishing at 0 gives a surrogate too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .metrics import excess_loss


@dataclass(frozen=True, eq=False)
class SurrogateQuadratic:
    """Symmetric PSD quadratic with its smoothness constant beta (largest eigenvalue) and
    the lower constant of ``sandwich_check`` (None where none is known)."""

    A: np.ndarray
    anchor: np.ndarray
    beta: float
    lower: float | None


def spectral_multiplier(strengths, sigma, inv_sigma, on_rank=None):
    """(g, s) on each row-basis direction: a step maps the residual
    r = sigma (V w) - U^T y to s * r by moving w by -V^T (g * r), with
    g = (1 - s) / sigma and xi = sigma^2.  The rule is read from ``strengths``,
    what ``schemes.step_strengths`` says the step reads, as arrays that
    broadcast against ``sigma`` or as scalars:

    * ``()``: train to convergence, s = 1 - on_rank (0 on the rank, 1 off it);
    * ``(lam,)``: proximal coefficient, s = lam / (xi + lam);
    * ``(gamma, n_steps)``: inner-loop budget, s = (1 - gamma xi)^N, with
      1 - s = -expm1(N log1p(-gamma xi)) formed directly, never as 1 minus
      s, so g keeps full relative accuracy when it is tiny.
    """
    if not strengths:
        return on_rank * inv_sigma, 1.0 - on_rank
    xi = sigma * sigma
    if len(strengths) == 1:
        (lam,) = strengths
        den = xi + lam
        return sigma / den, lam / den
    gamma, n_steps = strengths
    log_s = n_steps * np.log1p(-gamma * xi)
    return -np.expm1(log_s) * inv_sigma, np.exp(log_s)


def budgeted_spectral_map(gamma, n_steps, eta):
    """Scalar map xi -> (1/eta) * (1 - (1 - gamma*xi)^n) applied to Gram eigenvalues:
    the paper's form, kept only as a reference for criterion 9 and the tests."""
    return lambda xi: (1.0 - (1.0 - gamma * xi) ** n_steps) / eta


# The rule each strength obeys, in the words of the literal rules' errors;
# ``schedules.ScheduleSpec`` checks every entry of a per-step array by them.
# The gamma rule reads on as "* R_m^2 < 1" where the task is known.
STEP_RULES = {"eta": "step size must be positive",
              "lam": "regularization coefficient must be positive",
              "gamma": "inner step size must satisfy 0 < gamma",
              "n_steps": "budget must be >= 1"}


def check_step(eta):
    """The gradient step's check, eta > 0."""
    if not eta > 0:
        raise ValueError(f"{STEP_RULES['eta']}, got {eta}")


def check_coefficient(lam):
    """The regularized rule's strength check, lam > 0."""
    if not lam > 0:
        raise ValueError(f"{STEP_RULES['lam']}, got {lam}")


def check_budget(gamma, n_steps, r2):
    """The budgeted rule's strength checks, N >= 1 and 0 < gamma r2 < 1; N as an int."""
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError(f"{STEP_RULES['n_steps']}, got {n_steps}")
    if not (gamma > 0 and gamma * r2 < 1):
        raise ValueError(f"{STEP_RULES['gamma']} * R_m^2 < 1, got gamma={gamma}, R_m^2={r2}")
    return n_steps


def _surrogate(task, gain, lower):
    """A = V^T diag(gain) V on the task's row basis (0 off the row space);
    beta is the gain at sigma_max = R_m, or 0 on a zero task."""
    V = task.row_basis[0]
    A = (V.T * gain) @ V
    A = 0.5 * (A + A.T)  # re-symmetrize after the congruence
    A.flags.writeable = False
    beta = float(gain[0]) if gain.size else 0.0
    return SurrogateQuadratic(A=A, anchor=task.pinv_solution, beta=beta, lower=lower)


def _multiplier_gain(task, strengths, eta):
    """(1 - s) / eta = g * sigma / eta on the task's row basis, after checking eta > 0."""
    check_step(eta)
    sigma = task.row_basis[1]
    g, _ = spectral_multiplier(strengths, sigma, 1.0 / sigma)
    return g * sigma / eta


def build_regularized_surrogate(task, lam, eta):
    """Surrogate whose eta-step equals one full ridge-anchored task update."""
    check_coefficient(lam)
    return _surrogate(task, _multiplier_gain(task, (lam,), eta), float(lam) * float(eta))


def build_budgeted_surrogate(task, gamma, n_steps, eta):
    """Surrogate whose eta-step equals n_steps plain gradient steps of size gamma."""
    n_steps = check_budget(gamma, n_steps, task.spectral_norm ** 2)
    return _surrogate(task, _multiplier_gain(task, (gamma, n_steps), eta),
                      float(eta) / (float(gamma) * n_steps))


def build_spectral_surrogate(task, g: Callable):
    """Surrogate from an arbitrary scalar map applied to the Gram eigenvalues
    (no excess-loss constants).

    The caller asserts g is nondecreasing and concave on [0, R_m^2] with
    g'(0) > 0; only g(0) = 0 is checked here.
    """
    if abs(float(g(0.0))) > 1e-10:
        raise ValueError("spectral map must vanish at zero")
    sigma = task.row_basis[1]
    return _surrogate(task, np.asarray(g(sigma * sigma), dtype=np.float64), None)


def from_matrix(A, anchor):
    """Wrap an explicit symmetric PSD matrix as a surrogate (no excess-loss constants)."""
    A = np.asarray(A, dtype=np.float64)
    anchor = np.asarray(anchor, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    if anchor.shape != (A.shape[0],):
        raise ValueError("anchor length must match A")
    scale = max(1.0, float(np.abs(A).max()))
    if np.abs(A - A.T).max() > 1e-10 * scale:
        raise ValueError("A must be symmetric")
    eigs = np.linalg.eigvalsh(A)
    if eigs.min() < -1e-10 * scale:
        raise ValueError("A must be positive semi-definite")
    A = 0.5 * (A + A.T)
    A.flags.writeable = False
    anchor = anchor.copy()
    anchor.flags.writeable = False
    return SurrogateQuadratic(A=A, anchor=anchor, beta=float(eigs.max()), lower=None)


def value_and_grad(surrogate, w):
    """Value 0.5*(w-p)^T A (w-p) and gradient A (w-p)."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != surrogate.anchor.shape:
        raise ValueError(f"w must have shape {surrogate.anchor.shape}, got {w.shape}")
    diff = w - surrogate.anchor
    grad = surrogate.A @ diff
    return 0.5 * float(diff @ grad), grad


@dataclass(frozen=True)
class SandwichReport:
    """Two-sided comparison of surrogate value against the task's excess loss."""

    lower: float
    excess: float
    upper: float
    lower_ok: bool
    upper_ok: bool


def sandwich_check(surrogate, task, w):
    """Check c_low * f(w) <= L(w) - min_loss <= (R_m^2 / beta) * f(w), with
    R_m the task's own spectral norm.  Only the regularized and budgeted
    builders give a surrogate the lower constant c_low."""
    if surrogate.lower is None:
        raise ValueError("no excess-loss constants defined for this surrogate: only the "
                         "regularized and budgeted builders define them")
    value, _ = value_and_grad(surrogate, w)
    excess = excess_loss(w, task)
    r = task.spectral_norm
    upper = (r * r / surrogate.beta) * value if surrogate.beta > 0 else 0.0
    lower = surrogate.lower * value
    tol = 1e-9 * (1.0 + excess)
    return SandwichReport(
        lower=lower, excess=excess, upper=upper,
        lower_ok=bool(lower <= excess + tol),
        upper_ok=bool(excess <= upper + tol),
    )
