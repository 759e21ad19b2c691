"""Regularization-strength schedules and the step-size weight certificate.

The two fixed schedules pin the strength from the horizon k so the surrogate
smoothness (times the bookkeeping step) lands on 1/ln k.  The two increasing
schedules tie the strength to a linearly decaying step sequence
eta_t = eta * (k - t + 2) / (k + 1), keeping the exact identities
lam_t * eta_t = 1 and eta_t / (gamma_t * N_t) = 1 that the optimal-rate
argument relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FIXED_COEFFICIENT = "fixed-coefficient"
FIXED_BUDGET = "fixed-budget"
INCREASING_COEFFICIENT = "increasing-coefficient"
INCREASING_BUDGET = "increasing-budget"
CUSTOM = "custom"

LAMBDA_CLAMP_FACTOR = 1e-6  # floor for the fixed coefficient when ln k <= 1


def _frozen(a, dtype=np.float64):
    a = np.asarray(a, dtype=dtype).copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class ScheduleSpec:
    """Per-iteration strengths and bookkeeping step sizes over a horizon k.

    Coefficient schedules carry ``lam``; budget schedules carry ``gamma`` and
    integer ``n_steps``.  ``eta`` is the incremental-gradient step size that
    makes the surrogate step reproduce the scheme step (iterates are invariant
    to it).
    """

    kind: str
    k: int
    eta: np.ndarray
    lam: np.ndarray | None = None
    gamma: np.ndarray | None = None
    n_steps: np.ndarray | None = None
    unregularized_first: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("eta", "lam", "gamma", "n_steps"):
            arr = getattr(self, name)
            if arr is not None and len(arr) != self.k:
                raise ValueError(f"{name} must have length k={self.k}, got {len(arr)}")
        if self.lam is None and self.gamma is None:
            raise ValueError("a schedule needs either coefficients or budgets")
        if self.lam is not None and np.any(self.lam <= 0):
            raise ValueError("coefficients must be positive")
        if self.gamma is not None:
            if self.n_steps is None:
                raise ValueError("budget schedules need integer step counts")
            if np.any(self.gamma <= 0):
                raise ValueError("inner step sizes must be positive")
            if np.any(self.n_steps < 1):
                raise ValueError("step budgets must be >= 1")


def _check_radius(R):
    """R^2, after rejecting a radius that is not positive or whose square
    overflows (an infinite R^2 would turn strengths into 0 or inf)."""
    if not R > 0:
        raise ValueError("R must be positive")
    r2 = R * R
    if not np.isfinite(r2):
        raise ValueError(f"R^2 is not finite for R={R!r}")
    return r2


def fixed_coefficient(R, k):
    """Horizon-tuned constant coefficient R^2 * (ln k - 1), clamped positive."""
    k = int(k)
    if k < 2:
        raise ValueError(f"fixed coefficient needs k >= 2, got {k}")
    r2 = _check_radius(R)
    clamped = np.log(k) <= 1.0
    lam = LAMBDA_CLAMP_FACTOR * r2 if clamped else r2 * (np.log(k) - 1.0)
    eta = np.ones(k)
    return ScheduleSpec(
        kind=FIXED_COEFFICIENT, k=k,
        lam=_frozen(np.full(k, lam)), eta=_frozen(eta),
        meta={"clamped": bool(clamped), "target_smoothness": 1.0 / np.log(k)},
    )


def fixed_budget(R, gamma, k):
    """Horizon-tuned constant budget; realized smoothness targets 1/ln k.

    The exact budget N = ln(1 - 1/ln k) / ln(1 - gamma R^2) is generally not
    an integer; it is rounded to the nearest integer with floor 1 and recorded
    in ``meta['n_star']`` alongside the realized smoothness.
    """
    k = int(k)
    r2 = _check_radius(R)
    if not (0 < gamma * r2 < 1):
        raise ValueError(f"need 0 < gamma * R^2 < 1, got {gamma * r2}")
    if np.log(k) <= 1.0:
        raise ValueError(f"budget formula needs ln k > 1, got k={k}")
    n_star = np.log(1.0 - 1.0 / np.log(k)) / np.log(1.0 - gamma * r2)
    n = max(1, round(n_star))
    eta = np.ones(k)
    return ScheduleSpec(
        kind=FIXED_BUDGET, k=k,
        gamma=_frozen(np.full(k, gamma)), n_steps=_frozen(np.full(k, n), np.int64),
        eta=_frozen(eta),
        meta={"n_star": float(n_star),
              "realized_smoothness": 1.0 - (1.0 - gamma * r2) ** n,
              "target_smoothness": 1.0 / np.log(k)},
    )


def _neighbors(x, width):
    vals = [x]
    lo = hi = x
    for _ in range(width):
        lo = np.nextafter(lo, -np.inf)
        hi = np.nextafter(hi, np.inf)
        vals += [hi, lo]
    return vals


def _exact_inverse_pairs(eta0):
    """Pairs (lam, eta) within a few ulps of (1/eta0, eta0) with lam * eta == 1.

    For some doubles no single-sided partner exists (the rounded products skip
    over 1), so both factors are searched jointly; the iterates do not depend
    on eta, only the recorded identity does.
    """
    lam = np.empty_like(eta0)
    eta = np.empty_like(eta0)
    for i, e0 in enumerate(np.atleast_1d(eta0)):
        hit = None
        for e in _neighbors(float(e0), 2):
            for l in _neighbors(1.0 / e, 3):
                if l * e == 1.0:
                    hit = (l, e)
                    break
            if hit:
                break
        if hit is None:
            raise ArithmeticError(f"no exactly invertible pair near {e0!r}")
        lam[i], eta[i] = hit
    return lam, eta


def increasing_coefficient(R, k):
    """Coefficients (13 R^2 / 3) * (k+1)/(k-t+2), growing toward the horizon.

    Coefficients and step sizes are stored as exactly inverse pairs, so the
    identity lam_t * eta_t = 1 holds bit-exactly; each factor is within two
    ulps of its closed form.
    """
    k = int(k)
    if k < 2:
        raise ValueError(f"increasing coefficient needs k >= 2, got {k}")
    _check_radius(R)
    t = np.arange(1, k + 1)
    # Keep (13 R) R: 13 (R R) can round differently and change every output bit.
    eta0 = (3.0 / (13.0 * R * R)) * (k - t + 2) / (k + 1)
    lam, eta = _exact_inverse_pairs(eta0)
    return ScheduleSpec(kind=INCREASING_COEFFICIENT, k=k,
                        lam=_frozen(lam), eta=_frozen(eta))


def increasing_budget(R, k, n_choice=1):
    """Budgets with shrinking total inner movement gamma_t * N_t = eta_t.

    ``n_choice`` fixes the integer step count, and gamma_t = eta_t / n_choice
    is derived from it, so the product identity holds exactly.
    """
    k = int(k)
    n_choice = int(n_choice)
    if k < 2:
        raise ValueError(f"increasing budget needs k >= 2, got {k}")
    if n_choice < 1:
        raise ValueError("n_choice must be >= 1")
    _check_radius(R)
    t = np.arange(1, k + 1)
    # (13 R) R, as in increasing_coefficient.
    gamma = (3.0 / (13.0 * R * R)) * (k - t + 2) / (k + 1) / n_choice
    if np.any(gamma * R * R >= 1) or np.any(gamma <= 0):
        raise ValueError("derived inner step sizes left (0, 1/R^2)")
    # eta is stored as the rounded product, so eta_t / (gamma_t * N_t) == 1
    # bit-exactly (one ulp from the closed form at most).
    eta = gamma * n_choice
    return ScheduleSpec(kind=INCREASING_BUDGET, k=k,
                        gamma=_frozen(gamma),
                        n_steps=_frozen(np.full(k, n_choice), np.int64),
                        eta=_frozen(eta))


def custom_schedule(k, lam=None, gamma=None, n_steps=None, eta=None,
                    unregularized_first=False):
    """Escape hatch for explicit per-step strengths."""
    k = int(k)
    if eta is None:
        eta = np.ones(k)
    eta = _frozen(eta)
    return ScheduleSpec(
        kind=CUSTOM, k=k,
        lam=None if lam is None else _frozen(lam),
        gamma=None if gamma is None else _frozen(gamma),
        n_steps=None if n_steps is None else _frozen(n_steps, np.int64),
        eta=eta, unregularized_first=bool(unregularized_first),
    )


def linear_decay_steps(eta, k, beta):
    """Step sizes eta * (k - t + 2) / (k + 1) for t = 1..k.

    Requires eta <= 3 / (13 * beta); larger base steps void the last-iterate
    guarantee this sequence is built for.
    """
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not beta > 0:
        raise ValueError("beta must be positive")
    if eta > 3.0 / (13.0 * beta):
        raise ValueError(f"eta={eta} exceeds 3/(13*beta)={3.0 / (13.0 * beta)}")
    if not eta > 0:
        raise ValueError("eta must be positive")
    t = np.arange(1, k + 1)
    return _frozen(eta * (k - t + 2) / (k + 1))


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """Numeric check of the weight recursion behind the decaying-step bound.

    With eta_t = eta * (k - t + 1) / k and the weight sequence v_t, the
    combination c_t = eta_t v_t^2 - a1 beta eta_t^2 v_t^2
    - (1 + a2 eta_t beta) (v_t - v_{t-1}) sum_{s>=t} eta_s v_s must stay
    nonnegative, with c_k >= eta / k.
    """

    k: int
    beta: float
    eta: float
    a1: float
    a2: float
    v: np.ndarray
    eta_t: np.ndarray
    c: np.ndarray
    min_c: float
    c_k: float
    passed: bool


def certificate_check(k, beta, eta, a1=1.0, a2=1.0):
    k = int(k)
    if k < 2:
        raise ValueError(f"certificate needs k >= 2, got {k}")
    if not beta > 0:
        raise ValueError("beta must be positive")
    limit = 3.0 / ((8.0 * a1 + 5.0 * a2) * beta)
    if eta > limit:
        raise ValueError(f"eta={eta} exceeds 3/((8*a1+5*a2)*beta)={limit}")
    if not eta > 0:
        raise ValueError("eta must be positive")

    t = np.arange(1, k + 1)
    eta_t = eta * (k - t + 1) / k
    v = np.empty(k + 1)
    tv = np.arange(0, k)
    v[:k] = 2.0 / (k - tv + 1) + 1.0 / k
    v[k] = v[k - 1]

    # suffix sums S_t = sum_{s=t}^k eta_s v_s, with v indexed 1..k
    prod = eta_t * v[1:]
    suffix = np.cumsum(prod[::-1])[::-1]
    c = (eta_t * v[1:] ** 2
         - a1 * beta * eta_t ** 2 * v[1:] ** 2
         - (1.0 + a2 * eta_t * beta) * (v[1:] - v[:-1]) * suffix)

    min_c = float(c.min())
    c_k = float(c[-1])
    passed = bool(min_c >= -1e-12 and c_k >= eta / k - 1e-12)
    return CertificateReport(k=k, beta=float(beta), eta=float(eta),
                             a1=float(a1), a2=float(a2),
                             v=_frozen(v), eta_t=_frozen(eta_t), c=_frozen(c),
                             min_c=min_c, c_k=c_k, passed=passed)
