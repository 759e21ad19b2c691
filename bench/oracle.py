"""Independent re-derivation of contreg's outputs.

The benchmark checks contreg's CSV rows and lower-bound reports against
values rebuilt here.  Collections, schedules, orderings, seeds and losses
come from the documented formulas in plain numpy; nothing here calls
contreg's collection generators, schedules, orderings, metrics or harness.
The only contreg code used is the literal update rules (``regularized_step``,
``budgeted_step``, ``unregularized_step``), which the project keeps as the
reference its fast paths are tested against.  The ``igd-of-*`` schemes are
re-derived through their literal twins.

Comparisons use a relative tolerance of ``RTOL``; no stored digests are
used, so a faster engine that moves results by ~1e-12 still passes.
"""

from __future__ import annotations

import math

import numpy as np
from contreg.schemes import budgeted_step, regularized_step, unregularized_step

RTOL = 1e-9
_EPS = float(np.finfo(np.float64).eps)

LITERAL_TWIN = {
    "regularized": "regularized",
    "igd-of-regularized": "regularized",
    "budgeted": "budgeted",
    "igd-of-budgeted": "budgeted",
    "unregularized": "unregularized",
}


def close(a, b, scale=0.0):
    """|a - b| <= RTOL * max(|a|, |b|, scale), for finite a and b."""
    return (math.isfinite(a) and math.isfinite(b)
            and abs(a - b) <= RTOL * max(abs(a), abs(b), scale))


def stream(seed, *path):
    """The documented stream: Philox keyed by SeedSequence(seed, spawn_key=path)."""
    seq = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(seq))


def derived_seed(seed, *path):
    """The CSV ``seed`` column: first 64-bit word of the trial's SeedSequence."""
    seq = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return int(seq.generate_state(1, np.uint64)[0])


def ordering(kind, M, k, seed, trial):
    """1-based task indices of trial ``trial`` at horizon k."""
    rng = stream(seed, k, trial)
    if kind == "with-replacement":
        return rng.integers(1, M + 1, size=k)
    return rng.permutation(M)[:k] + 1


class Task:
    """The attributes the literal update rules read, computed with plain numpy."""

    def __init__(self, X, y):
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        self.d = self.X.shape[1]
        self.gram = self.X.T @ self.X
        self.xty = self.X.T @ self.y
        self.spectral_norm = float(np.linalg.norm(self.X, 2))
        self.pinv = np.linalg.pinv(self.X, rcond=max(self.X.shape) * _EPS)

    def loss(self, w):
        r = self.X @ w - self.y
        return 0.5 * float(r @ r)


class Collection:
    def __init__(self, tasks, w_star):
        self.tasks = list(tasks)
        self.w_star = np.asarray(w_star, dtype=np.float64)
        self.M = len(self.tasks)
        self.d = self.tasks[0].d
        self.radius = max(t.spectral_norm for t in self.tasks)

    def average_loss(self, w):
        return float(np.mean([t.loss(w) for t in self.tasks]))


def collection(spec):
    """Rebuild a generator-spec collection (Gaussian or aligned pairs)."""
    rng = stream(spec["seed"])
    d = spec["d"]
    w_star = rng.standard_normal(d)
    if spec.get("generator", "gaussian") == "aligned-pairs":
        mats = []
        for j in range(spec["pairs"]):
            a = np.zeros(d)
            a[2 * j] = 1.0
            b = np.zeros(d)
            b[2 * j] = math.cos(spec["angle"])
            b[2 * j + 1] = math.sin(spec["angle"])
            mats += [spec["radius"] * a[None, :], spec["radius"] * b[None, :]]
    else:
        mats = [rng.standard_normal((spec["n"], d)) for _ in range(spec["M"])]
        r0 = max(np.linalg.norm(X, 2) for X in mats)
        mats = [X * (spec["radius"] / r0) for X in mats]
    return Collection([Task(X, X @ w_star) for X in mats], w_star)


def schedule(kind, params, R, k):
    """Per-step strengths of a schedule kind from its documented formula.

    Returns None for ``none``, else a dict with ``lam`` or ``gamma`` and
    ``n_steps`` arrays of length k.
    """
    r2 = R * R
    t = np.arange(1, k + 1)
    eta = (3.0 / (13.0 * r2)) * (k - t + 2) / (k + 1)
    if kind == "none":
        return None
    if kind == "increasing-coefficient":
        return {"lam": 1.0 / eta}
    if kind == "increasing-budget":
        n = params.get("n_choice", 1)
        return {"gamma": eta / n, "n_steps": np.full(k, n)}
    if kind == "fixed-coefficient":
        lam = r2 * (math.log(k) - 1.0) if math.log(k) > 1.0 else 1e-6 * r2
        return {"lam": np.full(k, lam)}
    if kind == "fixed-budget":
        gamma = params["gamma"]
        n = max(1, round(math.log(1.0 - 1.0 / math.log(k)) / math.log(1.0 - gamma * r2)))
        return {"gamma": np.full(k, gamma), "n_steps": np.full(k, n)}
    raise ValueError(f"no oracle for schedule kind {kind!r}")


def iterates(col, order, scheme, strengths, w0=None):
    """w_0..w_k of the scheme's literal update rule along ``order``."""
    rule = LITERAL_TWIN[scheme]
    w = np.zeros(col.d) if w0 is None else np.array(w0, dtype=np.float64)
    out = [w]
    for t, m in enumerate(order):
        task = col.tasks[m - 1]
        if rule == "regularized":
            w = regularized_step(w, task, float(strengths["lam"][t]))
        elif rule == "budgeted":
            w = budgeted_step(w, task, float(strengths["gamma"][t]),
                              int(strengths["n_steps"][t]))
        else:
            w = unregularized_step(w, task)
        out.append(w)
    return out


def seen_loss(col, order, w):
    return float(np.mean([col.tasks[m - 1].loss(w) for m in order]))


def row_metrics(col, order, ws):
    """The four CSV metrics of one trajectory, and the scale of degradation."""
    seen = seen_loss(col, order, ws[-1])
    at_time = float(np.mean([col.tasks[m - 1].loss(ws[t + 1]) for t, m in enumerate(order)]))
    return {
        "avg_loss": col.average_loss(ws[-1]),
        "seen_loss": seen,
        "degradation": seen - at_time,
        "dist_to_wstar": float(np.linalg.norm(ws[-1] - col.w_star)),
    }, max(seen, at_time)


def sweep_row(col, scheme, kind, params, ordering_kind, k, trial, base_seed):
    """(metrics, degradation scale) of one sweep row."""
    order = ordering(ordering_kind, col.M, k, base_seed, trial)
    ws = iterates(col, order, scheme, schedule(kind, params, col.radius, k))
    return row_metrics(col, order, ws)


def _unit_row(d, coord, value=1.0):
    x = np.zeros((1, d))
    x[0, coord] = value
    return x


def seen_task_hits(k, trials, base_seed, d=2):
    """Trials whose seen-task loss reaches 1/(144 k) on the seen-task collection.

    The collection is k-1 copies of (e_2, 0) plus one row
    (sqrt(1/2), sqrt(1/2)) with target 0, started at e_1, under the
    regularized scheme with the increasing-coefficient schedule.
    """
    alpha = math.sqrt(0.5)
    x = np.zeros((1, d))
    x[0, 0] = math.sqrt(1.0 - alpha ** 2)
    x[0, 1] = alpha
    col = Collection([Task(_unit_row(d, 1), [0.0])] * (k - 1) + [Task(x, [0.0])],
                     np.zeros(d))
    strengths = schedule("increasing-coefficient", {}, col.radius, k)
    w0 = np.zeros(d)
    w0[0] = 1.0
    hits = 0
    for i in range(trials):
        order = ordering("with-replacement", col.M, k, base_seed, i)
        w = iterates(col, order, "regularized", strengths, w0)[-1]
        hits += seen_loss(col, order, w) >= 1.0 / (144.0 * k)
    return hits


def any_algorithm(scheme, kind, params, k, trials, base_seed, d=2):
    """(adversary sign, mean excess average loss) of the any-algorithm scenario.

    The learner is deterministic, so one run on k copies of (e_1, 0) from
    w = 0 decides the sign: +1 when its second coordinate is <= 0.
    """
    e1 = Task(_unit_row(d, 0), [0.0])
    probe = Collection([e1] * k, np.zeros(d))
    w = iterates(probe, np.arange(1, k + 1), scheme,
                 schedule(kind, params, probe.radius, k))[-1]
    sign = 1.0 if w[1] <= 0 else -1.0
    w_star = np.zeros(d)
    w_star[1] = sign
    col = Collection([e1] * (k - 1) + [Task(_unit_row(d, 1), [sign])], w_star)
    strengths = schedule(kind, params, col.radius, k)
    excess = [col.average_loss(iterates(col, ordering("with-replacement", col.M, k,
                                                        base_seed, i),
                                        scheme, strengths)[-1])
              for i in range(trials)]
    return sign, float(np.mean(excess))
