"""Regularization-strength schedules and the step-size weight certificate.

The two fixed schedules pin the strength from the horizon k so the surrogate
smoothness (times the bookkeeping step) lands on 1/ln k.  The two increasing
schedules tie the strength to a linearly decaying step sequence
eta_t = eta * (k - t + 2) / (k + 1), keeping the exact identities
lam_t * eta_t = 1 and eta_t / (gamma_t * N_t) = 1 that the optimal-rate
argument relies on.

``KINDS`` is the one table of the schedule kinds a config names; both
``build_schedule`` and ``harness.parse_config`` read it.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .surrogates import STEP_RULES
from .tasks import _frozen, json_numbers

LAMBDA_CLAMP_FACTOR = 1e-6  # floor for the fixed coefficient when ln k <= 1


@dataclass(frozen=True, eq=False)
class ScheduleSpec:
    """Per-iteration strengths and bookkeeping step sizes over a horizon k.

    Coefficient schedules carry ``lam``; budget schedules carry ``gamma`` and
    integer ``n_steps``.  ``eta`` is the incremental-gradient step size that
    makes the surrogate step reproduce the scheme step (iterates are invariant
    to it).  Construction is the one check of these values: each array must
    be 1-D of length k, finite and positive (NaN fails), so the runners check
    only what depends on the tasks drawn, 0 < gamma_t R_m^2 < 1.
    """

    k: int
    eta: np.ndarray
    lam: np.ndarray | None = None
    gamma: np.ndarray | None = None
    n_steps: np.ndarray | None = None

    def __post_init__(self):
        if self.lam is None and self.gamma is None:
            raise ValueError("a schedule needs either coefficients or budgets")
        if self.gamma is not None and self.n_steps is None:
            raise ValueError("budget schedules need integer step counts")
        for name, rule in STEP_RULES.items():
            v = getattr(self, name)
            if v is None:
                continue
            if v.shape != (self.k,):
                raise ValueError(f"{name} must be 1-D of length k={self.k}, got shape {v.shape}")
            if not np.all(v > 0):
                raise ValueError(f"{rule}, got {v[np.argmax(~(v > 0))]}")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite, got {v[np.argmax(~np.isfinite(v))]}")


def _check_radius(R):
    """R^2, after rejecting a radius that is not positive or whose square
    overflows or underflows (strengths scale with R^2 or 1/R^2, and would
    turn into 0, inf or subnormals)."""
    if not R > 0:
        raise ValueError("R must be positive")
    r2 = R * R
    if not np.isfinite(r2):
        raise ValueError(f"R^2 is not finite for R={R!r}")
    if r2 < np.finfo(float).tiny:
        raise ValueError(f"R^2 is below the smallest normal float for R={R!r}")
    return r2


def fixed_coefficient(R, k):
    """Horizon-tuned constant coefficient R^2 * (ln k - 1), clamped positive."""
    k = int(k)
    if k < 2:
        raise ValueError(f"fixed coefficient needs k >= 2, got {k}")
    r2 = _check_radius(R)
    lam = LAMBDA_CLAMP_FACTOR * r2 if np.log(k) <= 1.0 else r2 * (np.log(k) - 1.0)
    eta = np.ones(k)
    return ScheduleSpec(k=k, lam=_frozen(np.full(k, lam)), eta=_frozen(eta))


def exact_budget(R, gamma, k):
    """The fixed budget's real-valued N = ln(1 - 1/ln k) / ln(1 - gamma R^2),
    which lands the realized smoothness on 1/ln k."""
    k = int(k)
    r2 = _check_radius(R)
    if not (0 < gamma * r2 < 1):
        raise ValueError(f"need 0 < gamma * R^2 < 1, got {gamma * r2}")
    if np.log(k) <= 1.0:
        raise ValueError(f"budget formula needs ln k > 1, got k={k}")
    denom = np.log(1.0 - gamma * r2)
    if denom == 0.0:
        raise ValueError(f"gamma * R^2 must be above 2**-54, got {gamma * r2} (gamma={gamma}): "
                         "1 - gamma * R^2 rounds to 1, so the budget ln(1 - 1/ln k) / "
                         "ln(1 - gamma * R^2) divides by zero")
    return float(np.log(1.0 - 1.0 / np.log(k)) / denom)


def fixed_budget(R, gamma, k):
    """Horizon-tuned constant budget: ``exact_budget`` rounded to the nearest
    integer, with floor 1."""
    k = int(k)
    n = max(1, round(exact_budget(R, gamma, k)))
    return ScheduleSpec(k=k, gamma=_frozen(np.full(k, gamma)),
                        n_steps=_frozen(np.full(k, n), np.int64), eta=_frozen(np.ones(k)))


def _neighbors(x, width):
    """x and its 2 * width nearest doubles, along a new last axis:
    x, then one ulp up, one down, two up, two down, ..."""
    vals = [x]
    lo = hi = x
    for _ in range(width):
        lo = np.nextafter(lo, -np.inf)
        hi = np.nextafter(hi, np.inf)
        vals += [hi, lo]
    return np.stack(vals, axis=-1)


def _exact_inverse_pairs(eta0):
    """Pairs (lam, eta) within a few ulps of (1/eta0, eta0) with lam * eta == 1.

    For some doubles no single-sided partner exists (the rounded products skip
    over 1), so both factors are searched jointly: eta's neighbours outer,
    lam's neighbours of 1/eta inner, first hit wins.  The iterates do not
    depend on eta, only the recorded identity does.
    """
    eta = _neighbors(np.atleast_1d(np.asarray(eta0, dtype=np.float64)), 2)
    lam = _neighbors(1.0 / eta, 3)
    n, width = len(eta), lam.shape[-1]
    hit = (lam * eta[:, :, None] == 1.0).reshape(n, -1)
    found = hit.any(axis=1)
    if not found.all():
        raise ArithmeticError(f"no exactly invertible pair near {eta[np.argmin(found), 0]!r}")
    first = hit.argmax(axis=1)
    return lam.reshape(n, -1)[np.arange(n), first], eta[np.arange(n), first // width]


def _decaying_steps(R, k, what):
    """The increasing schedules' steps (3 / (13 R^2)) * (k - t + 2) / (k + 1),
    t = 1..k, after checking k >= 2 (``what`` names the schedule) and R."""
    if k < 2:
        raise ValueError(f"{what} needs k >= 2, got {k}")
    _check_radius(R)
    t = np.arange(1, k + 1)
    # Keep (13 R) R: 13 (R R) can round differently and change every output bit.
    return 3.0 / (13.0 * R * R) * (k - t + 2) / (k + 1)


def increasing_coefficient(R, k):
    """Coefficients (13 R^2 / 3) * (k+1)/(k-t+2), growing toward the horizon.

    Coefficients and step sizes are stored as exactly inverse pairs, so the
    identity lam_t * eta_t = 1 holds bit-exactly; each factor is within two
    ulps of its closed form.
    """
    k = int(k)
    lam, eta = _exact_inverse_pairs(_decaying_steps(R, k, "increasing coefficient"))
    return ScheduleSpec(k=k, lam=_frozen(lam), eta=_frozen(eta))


def increasing_budget(R, k, n_choice=1):
    """Budgets with shrinking total inner movement gamma_t * N_t = eta_t.

    ``n_choice`` fixes the integer step count, and gamma_t = eta_t / n_choice
    is derived from it, so the product identity holds exactly.
    """
    k = int(k)
    n_choice = int(n_choice)
    eta0 = _decaying_steps(R, k, "increasing budget")
    if n_choice < 1:
        raise ValueError("n_choice must be >= 1")
    if n_choice >= 2 ** 63:  # past the int64 budgets
        raise ValueError(f"n_choice must be < 2**63, got {n_choice}")
    gamma = eta0 / n_choice
    # eta is stored as the rounded product, so eta_t / (gamma_t * N_t) == 1
    # bit-exactly (one ulp from the closed form at most).
    eta = gamma * n_choice
    return ScheduleSpec(k=k, gamma=_frozen(gamma),
                        n_steps=_frozen(np.full(k, n_choice), np.int64), eta=_frozen(eta))


def custom_schedule(k, **arrays):
    """Escape hatch for explicit per-step strengths: ``arrays`` among ``lam``,
    ``gamma``, ``n_steps`` and ``eta`` (ones when not given), each read by
    ``tasks.json_numbers`` (``n_steps`` as integers), so a None is rejected
    as any other value that is not an array of numbers."""
    k = int(k)
    arrays = {name: json_numbers(v, 1, name, integral=name == "n_steps")
              for name, v in arrays.items()}
    return ScheduleSpec(k=k, eta=arrays.pop("eta", _frozen(np.ones(k))), **arrays)


# A config's schedule kind: build(R, k, **fields) makes its schedule (None for
# 'none', which runs without one); strengths names the arrays that schedule
# sets (None for 'custom', which sets the arrays it is given); required and
# optional are its config fields besides 'kind'.
Kind = namedtuple("Kind", "build strengths required optional", defaults=((), ()))


KINDS = {
    "fixed-coefficient": Kind(fixed_coefficient, ("lam",)),
    "fixed-budget": Kind(fixed_budget, ("gamma", "n_steps"), required=("gamma",)),
    "increasing-coefficient": Kind(increasing_coefficient, ("lam",)),
    "increasing-budget": Kind(increasing_budget, ("gamma", "n_steps"),
                              optional=("n_choice",)),
    "custom": Kind(lambda R, k, **arrays: custom_schedule(k, **arrays), None,
                   optional=("lam", "gamma", "n_steps", "eta")),
    "none": Kind(lambda R, k: None, ()),
}


def build_schedule(schedule, R, k):
    """The ScheduleSpec (None for kind 'none') a config's schedule dict gives at R and k."""
    kind = KINDS[schedule["kind"]]
    fields = {name: schedule[name] for name in kind.required + kind.optional if name in schedule}
    return kind.build(R=R, k=k, **fields)


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """Numeric check of the weight recursion behind the decaying-step bound.

    With eta_t = eta * (k - t + 1) / k and the weight sequence v_t, the
    combination c_t = eta_t v_t^2 - beta eta_t^2 v_t^2
    - (1 + eta_t beta) (v_t - v_{t-1}) sum_{s>=t} eta_s v_s must stay
    nonnegative, with c_k >= eta / k.
    """

    eta: float
    v: np.ndarray
    eta_t: np.ndarray
    c: np.ndarray
    min_c: float
    c_k: float
    passed: bool


def certificate_check(k, beta, eta):
    """The ``CertificateReport`` at k, beta and eta <= 3 / (13 beta), the bound
    3 / ((8 a1 + 5 a2) beta) at a1 = a2 = 1: the increasing schedules' first
    step 3 / (13 R^2) at beta = R^2."""
    k = int(k)
    if k < 2:
        raise ValueError(f"certificate needs k >= 2, got {k}")
    if not beta > 0:
        raise ValueError("beta must be positive")
    limit = 3.0 / (13.0 * beta)
    if eta > limit:
        raise ValueError(f"eta={eta} exceeds 3/(13*beta)={limit}")
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
         - beta * eta_t ** 2 * v[1:] ** 2
         - (1.0 + eta_t * beta) * (v[1:] - v[:-1]) * suffix)

    min_c = float(c.min())
    c_k = float(c[-1])
    passed = bool(min_c >= -1e-12 and c_k >= eta / k - 1e-12)
    return CertificateReport(eta=float(eta), v=_frozen(v), eta_t=_frozen(eta_t), c=_frozen(c),
                             min_c=min_c, c_k=c_k, passed=passed)
