"""Quadratic surrogate objectives for the continual update rules.

A surrogate is f(w) = 0.5 * (w - p)^T A (w - p) with anchor p = X^+ y.  One
gradient step of size eta on f reproduces one full regularized task update
(A built from the regularization coefficient) or one budgeted inner loop
(A built from the inner step size and count).  Both A's are scalar maps of
the eigenvalues of X^T X, so a single spectral builder serves both plus any
concave nondecreasing map with g(0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .metrics import excess_loss

REGULARIZED = "regularized"
BUDGETED = "budgeted"
SPECTRAL = "spectral"
VERBATIM = "verbatim"


@dataclass(frozen=True, eq=False)
class SurrogateQuadratic:
    """Symmetric PSD quadratic with its smoothness constant (largest eigenvalue)."""

    A: np.ndarray
    anchor: np.ndarray
    beta: float
    kind: str
    params: dict


def regularized_spectral_map(lam, eta):
    """Scalar map xi -> (1/eta) * xi / (xi + lam) applied to Gram eigenvalues."""
    return lambda xi: (xi / (xi + lam)) / eta


def budgeted_spectral_map(gamma, n_steps, eta):
    """Scalar map xi -> (1/eta) * (1 - (1 - gamma*xi)^n) applied to Gram eigenvalues."""
    return lambda xi: (1.0 - (1.0 - gamma * xi) ** n_steps) / eta


def _spectral_matrix(task, g):
    """A = V^T diag(g(sigma^2)) V from the task's SVD; g(0) = 0 off the row space."""
    V, sigma, *_ = task.row_basis
    A = (V.T * np.asarray(g(sigma * sigma), dtype=np.float64)) @ V
    A = 0.5 * (A + A.T)  # re-symmetrize after the congruence
    A.flags.writeable = False
    return A


def _surrogate(task, g, kind, params):
    """The surrogate of spectral map g: A from ``_spectral_matrix``, beta = g(R_m^2)."""
    return SurrogateQuadratic(A=_spectral_matrix(task, g), anchor=task.pinv_solution,
                              beta=float(g(task.spectral_norm ** 2)), kind=kind,
                              params=params)


def build_regularized_surrogate(task, lam, eta):
    """Surrogate whose eta-step equals one full ridge-anchored task update."""
    if not lam > 0:
        raise ValueError(f"regularization coefficient must be positive, got {lam}")
    if not eta > 0:
        raise ValueError(f"step size must be positive, got {eta}")
    return _surrogate(task, regularized_spectral_map(lam, eta), REGULARIZED,
                      {"lam": float(lam), "eta": float(eta)})


def build_budgeted_surrogate(task, gamma, n_steps, eta):
    """Surrogate whose eta-step equals n_steps plain gradient steps of size gamma."""
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError(f"budget must be >= 1, got {n_steps}")
    if not eta > 0:
        raise ValueError(f"step size must be positive, got {eta}")
    r2 = task.spectral_norm ** 2
    if not (gamma > 0 and gamma * r2 < 1):
        raise ValueError(f"inner step size must satisfy 0 < gamma * R_m^2 < 1, "
                         f"got gamma={gamma}, R_m^2={r2}")
    return _surrogate(task, budgeted_spectral_map(gamma, n_steps, eta), BUDGETED,
                      {"gamma": float(gamma), "n_steps": n_steps, "eta": float(eta)})


def build_spectral_surrogate(task, g: Callable, eta, gprime0=None):
    """Surrogate from an arbitrary scalar map applied to the Gram eigenvalues.

    The caller asserts g is nondecreasing and concave on [0, R_m^2] with
    g'(0) > 0; only g(0) = 0 is checked here.  ``gprime0``, when supplied,
    enables the two-sided excess-loss comparison for this surrogate.
    """
    if abs(float(g(0.0))) > 1e-10:
        raise ValueError("spectral map must vanish at zero")
    if not eta > 0:
        raise ValueError(f"step size must be positive, got {eta}")
    return _surrogate(task, g, SPECTRAL, {"g": g, "eta": float(eta), "gprime0": gprime0})


def from_matrix(A, anchor, eta=1.0):
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
    return SurrogateQuadratic(A=A, anchor=anchor, beta=float(eigs.max()),
                              kind=VERBATIM, params={"eta": float(eta)})


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
    tol: float


def sandwich_check(surrogate, task, w, collection_radius=None):
    """Check c_low * f(w) <= L(w) - min_loss <= (R^2 / beta) * f(w).

    The upper constant uses the task's own spectral norm by default (tighter);
    pass ``collection_radius`` to use the collection-level radius instead.
    """
    kind = surrogate.kind
    params = surrogate.params
    if kind == REGULARIZED:
        c_low = params["lam"] * params["eta"]
    elif kind == BUDGETED:
        c_low = params["eta"] / (params["gamma"] * params["n_steps"])
    elif kind == SPECTRAL and params.get("gprime0"):
        c_low = 1.0 / params["gprime0"]
    else:
        raise ValueError(f"no excess-loss constants defined for kind {kind!r}")
    value, _ = value_and_grad(surrogate, w)
    excess = excess_loss(w, task)
    r = collection_radius if collection_radius is not None else task.spectral_norm
    upper = (r * r / surrogate.beta) * value if surrogate.beta > 0 else 0.0
    lower = c_low * value
    tol = 1e-9 * (1.0 + excess)
    return SandwichReport(
        lower=lower, excess=excess, upper=upper,
        lower_ok=bool(lower <= excess + tol),
        upper_ok=bool(excess <= upper + tol),
        tol=tol,
    )
