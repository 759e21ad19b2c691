"""Experiment harness: configs, Monte Carlo sweeps, CSV output, and rate fits.

A sweep is fully determined by its config: trial (k, i) draws its ordering
from the stream ``(base_seed, k, i)``, the trials of all k-cells are stepped
together by one ``schemes.run_batch`` call (a trial's values do not depend on
the others in its batch), rows are emitted sorted by (k, trial), and floats
are serialized with 17 significant digits, so identical configs produce
byte-identical CSV files.
"""

from __future__ import annotations

import csv
import json
import math
import os
import secrets
from dataclasses import dataclass

import numpy as np

from . import schedules as sched_mod
from .adversarial import any_alg_lb_collection, seen_task_lb_collection
from .metrics import average_loss, summarize_batch
from .orderings import (WITH_REPLACEMENT, WITHOUT_REPLACEMENT, sample_ordering,
                        sample_orderings, stream)
from .schedules import KINDS, build_schedule
from .schemes import READS, run_batch, run_continual
from .surrogates import (budgeted_spectral_map, build_budgeted_surrogate,
                         build_regularized_surrogate, build_spectral_surrogate,
                         from_matrix, sandwich_check, value_and_grad)
from .tasks import (collection_from_dict, generate_aligned_pairs,
                    generate_realizable, min_norm_solution, new_collection,
                    new_task, RealizableSpec, TaskCollection)


class ConfigError(ValueError):
    """Raised for malformed experiment configs (strict parsing)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked config, with its collection and one schedule per k built."""

    collection: TaskCollection
    scheme: str
    kind: str  # the schedule kind, the CSV's ``schedule`` label
    schedules: tuple
    ordering: str
    k_grid: tuple
    trials: int
    base_seed: int
    out: str | None = None


# Typed config fields, wherever they appear: JSON type(s) and how to name them.
_INT, _REAL = ((int,), "an integer"), ((int, float), "a finite number")
_FIELD_TYPES = {**dict.fromkeys(("d", "M", "n", "pairs", "seed", "n_choice", "trials",
                                 "base_seed"), _INT),
                **dict.fromkeys(("radius", "angle", "gamma"), _REAL),
                "path": ((str,), "a string"), "out": ((str,), "a string"),
                "unregularized_first": ((bool,), "true or false")}


def _check_types(fields, where, skip=()):
    """Reject a typed field of the wrong JSON type (bools are not numbers)."""
    for name, value in fields.items():
        if name not in _FIELD_TYPES or name in skip:
            continue
        types, what = _FIELD_TYPES[name]
        try:
            ok = type(value) in types and (float not in types or math.isfinite(value))
        except OverflowError:  # an int too large for a float
            ok = False
        if not ok:
            raise ConfigError(f"{where} field {name!r} must be {what}, got {value!r:.40}")


def _require_keys(d, required, optional, where):
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown {where} fields: {sorted(unknown)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"missing {where} fields: {sorted(missing)}")


def _check_schedule(sch, scheme):
    """Check a schedule dict against its ``schedules.KINDS`` entry and ``schemes.READS``."""
    if not isinstance(scheme, str) or scheme not in READS:
        raise ConfigError(f"unknown scheme kind: {scheme!r}")
    if not isinstance(sch, dict) or "kind" not in sch:
        raise ConfigError("schedule must be an object with a 'kind' field")
    kind = sch["kind"]
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigError(f"unknown schedule kind: {kind!r}")
    entry = KINDS[kind]
    allowed = {"kind", *entry.required, *entry.optional}
    unknown = set(sch) - allowed
    if unknown:
        raise ConfigError(f"unknown schedule fields for {kind!r} with scheme {scheme!r}: "
                          f"{sorted(unknown)} (fields must be among {sorted(allowed)})")
    for name in entry.required:
        if name not in sch:
            raise ConfigError(f"{kind} schedule needs {name!r}")
    sets = sorted(set(sch) & {"lam", "gamma", "n_steps"} if entry.strengths is None
                  else entry.strengths)
    if sets != sorted(READS[scheme]):
        raise ConfigError(f"scheme {scheme!r} cannot run a {kind!r} schedule: the strengths "
                          f"it sets must be those the scheme reads, {list(READS[scheme])}, "
                          f"got {sets}")
    # A custom schedule's gamma is a per-step array, checked when it is built.
    _check_types(sch, "schedule", skip=("gamma",) if entry.strengths is None else ())


def parse_config(data):
    """Check a raw config mapping (unknown fields are errors; the schedule as
    ``_check_schedule`` says) and build what it names: the collection and one
    schedule per k.  So every config error is a ConfigError raised here,
    before any trial is sampled."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(data, ["collection", "scheme", "schedule", "ordering",
                         "k_grid", "trials", "base_seed"], ["out"], "config")

    col = data["collection"]
    if not isinstance(col, dict):
        raise ConfigError("collection must be an object")
    if "path" in col:
        _require_keys(col, ["path"], [], "collection")
    else:
        gen = col.get("generator", "gaussian")
        if gen == "gaussian":
            _require_keys(col, ["d", "M", "n", "radius", "seed"], ["generator"],
                          "collection")
        elif gen == "aligned-pairs":
            _require_keys(col, ["d", "pairs", "angle", "radius", "seed"],
                          ["generator"], "collection")
        else:
            raise ConfigError(f"unknown collection generator: {gen!r}")
    _check_types(col, "collection")
    if "radius" in col and not col["radius"] > 0:
        raise ConfigError(f"collection field 'radius' must be > 0, got {col['radius']!r}")
    if "seed" in col and col["seed"] < 0:
        raise ConfigError(f"collection field 'seed' must be >= 0, got {col['seed']!r}")

    scheme, sch = data["scheme"], data["schedule"]
    _check_schedule(sch, scheme)

    if data["ordering"] not in (WITH_REPLACEMENT, WITHOUT_REPLACEMENT):
        raise ConfigError(f"unknown ordering kind: {data['ordering']!r}")

    k_grid = data["k_grid"]
    if (not isinstance(k_grid, (list, tuple)) or not k_grid
            or any(type(k) is not int or k < 1 for k in k_grid)
            or any(b <= a for a, b in zip(k_grid, k_grid[1:]))):
        raise ConfigError("k_grid must be a nonempty strictly increasing list "
                          "of positive integers")

    _check_types(data, "config")
    trials = data["trials"]
    if trials < 1:
        raise ConfigError("trials must be an integer >= 1")
    base_seed = data["base_seed"]
    if base_seed < 0:
        raise ConfigError("base_seed must be a nonnegative integer (up to 64 bits)")

    collection = build_collection(col)
    if data["ordering"] == WITHOUT_REPLACEMENT and k_grid[-1] > collection.M:
        raise ConfigError(f"without-replacement needs k <= M, got k={k_grid[-1]}, "
                          f"M={collection.M}")
    try:
        schedules = tuple(build_schedule(sch, collection.radius, k) for k in k_grid)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{sch['kind']} schedule: {exc}") from None
    return ExperimentConfig(
        collection=collection, scheme=scheme, kind=sch["kind"], schedules=schedules,
        ordering=data["ordering"], k_grid=tuple(k_grid), trials=trials,
        base_seed=base_seed, out=data.get("out"),
    )


def load_config(path):
    with open(path) as fh:
        return parse_config(json.load(fh))


def build_collection(spec):
    if "path" in spec:
        with open(spec["path"]) as fh:
            return collection_from_dict(json.load(fh))
    if spec.get("generator", "gaussian") == "aligned-pairs":
        return generate_aligned_pairs(pairs=spec["pairs"], angle=spec["angle"],
                                      d=spec["d"], target_radius=spec["radius"],
                                      seed=spec["seed"])
    return generate_realizable(RealizableSpec(
        d=spec["d"], M=spec["M"], n=spec["n"], radius=spec["radius"],
        seed=spec["seed"]))


CSV_FIELDS = ("scheme", "schedule", "ordering", "M", "d", "R", "k", "trial",
              "seed", "avg_loss", "seen_loss", "degradation", "dist_to_wstar")
METRIC_NAMES = CSV_FIELDS[-4:]
RUN_KEY_FIELDS = ("scheme", "schedule", "ordering", "M", "d", "R")


@dataclass(frozen=True)
class ResultRow:
    scheme: str
    schedule: str
    ordering: str
    M: int
    d: int
    R: float
    k: int
    trial: int
    seed: int
    avg_loss: float
    seen_loss: float
    degradation: float
    dist_to_wstar: float

    def __post_init__(self):
        for name in ("avg_loss", "seen_loss", "dist_to_wstar"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if not math.isfinite(self.degradation):
            raise ValueError(f"degradation must be finite, got {self.degradation}")


def run_experiment(cfg):
    """Sample, step and score a parsed config's sweep: one row per (k, trial),
    sorted by (k, trial).  ``run_batch`` checks the strengths that depend on
    the tasks drawn for every cell before any trial steps."""
    col = cfg.collection
    w_star = col.w_star if col.w_star is not None else min_norm_solution(col)
    drawn = [sample_orderings(cfg.ordering, col.M, k, cfg.trials, cfg.base_seed,
                              with_seeds=True) for k in cfg.k_grid]
    # Overflow shows up as a non-finite result, reported below by trial.
    with np.errstate(over="ignore", invalid="ignore"):
        runs = run_batch(col, [(idx, spec) for (idx, _), spec in zip(drawn, cfg.schedules)],
                         cfg.scheme)
        recs = [summarize_batch(run, col, w_star) for run in runs]
    rows = []
    for k, (_, seeds), rec in zip(cfg.k_grid, drawn, recs):
        for i, seed in enumerate(seeds):
            values = {name: float(getattr(rec, name)[i]) for name in METRIC_NAMES}
            if not all(math.isfinite(v) for v in values.values()):
                raise ValueError(f"non-finite result at k={k}, trial={i}, seed={seed}: "
                                 + ", ".join(f"{n}={v}" for n, v in values.items()))
            rows.append(ResultRow(
                scheme=cfg.scheme, schedule=cfg.kind, ordering=cfg.ordering,
                M=col.M, d=col.d, R=col.radius, k=k, trial=i, seed=seed, **values))
    return rows


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(rows, path):
    """Write rows to ``path`` atomically.

    The rows go to a temporary file in the target's directory, which is then
    renamed onto ``path``; a failure mid-write leaves any earlier file intact
    and removes the temporary file.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path) or ".",
                       f".{os.path.basename(path)}.{secrets.token_hex(8)}.tmp")
    try:
        fh = open(tmp, "x", newline="")
    except OSError as exc:  # name the target, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_FIELDS)
            for row in rows:
                writer.writerow([_fmt(getattr(row, f)) for f in CSV_FIELDS])
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


# How to read each of CSV_FIELDS.
_CSV_PARSERS = (str, str, str, int, int, float, int, int, int, float, float, float, float)


def read_csv(path):
    """Rows of a ``write_csv`` file; a malformed file raises ValueError naming the line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != list(CSV_FIELDS):
            raise ValueError(f"{path}, line 1: header is not {','.join(CSV_FIELDS)}")
        rows = []
        for rec in reader:
            where = f"{path}, line {reader.line_num}"
            if len(rec) != len(CSV_FIELDS):
                raise ValueError(f"{where}: expected {len(CSV_FIELDS)} fields, got {len(rec)}")
            try:
                rows.append(ResultRow(**{name: parse(v) for name, parse, v
                                         in zip(CSV_FIELDS, _CSV_PARSERS, rec)}))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return rows


def aggregate(rows, metric="avg_loss"):
    """Per-k Monte Carlo summaries: (k, mean, standard error, n_trials).

    All rows must come from one sweep (same scheme, schedule, ordering and
    collection); pooling rows of different sweeps is an error.
    """
    keys = {tuple(getattr(row, f) for f in RUN_KEY_FIELDS) for row in rows}
    if len(keys) > 1:
        listed = "; ".join("/".join(str(v) for v in key) for key in sorted(keys, key=str))
        raise ValueError(f"rows mix {len(keys)} sweeps ({', '.join(RUN_KEY_FIELDS)}): "
                         f"{listed}")
    by_k = {}
    for row in rows:
        by_k.setdefault(row.k, []).append(getattr(row, metric))
    out = []
    for k in sorted(by_k):
        vals = np.asarray(by_k[k])
        se = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
        out.append((k, float(vals.mean()), se, len(vals)))
    return out


@dataclass(frozen=True)
class RateFit:
    """OLS fit of ln(loss) on ln(k); slope is the empirical rate exponent."""

    slope: float
    intercept: float
    residual: float
    n_points: int


def fit_rate(points):
    points = list(points)
    if len(points) < 3:
        raise ValueError(f"rate fit needs at least 3 points, got {len(points)}")
    bad = [k for k, loss in points if not loss > 0]
    if bad:
        raise ValueError(f"rate fit needs strictly positive losses; "
                         f"nonpositive at k={bad}")
    logk = np.log([k for k, _ in points])
    logl = np.log([loss for _, loss in points])
    slope, intercept = np.polyfit(logk, logl, 1)
    residual = float(np.sum((slope * logk + intercept - logl) ** 2))
    return RateFit(slope=float(slope), intercept=float(intercept),
                   residual=residual, n_points=len(points))


# ---------------------------------------------------------------------------
# Lower-bound scenario runners


def scheme_runner(scheme, schedule):
    """Probe that runs a scheme with a schedule dict over a task sequence; returns w_k."""

    def probe(tasks):
        col = new_collection(tasks)
        k = len(tasks)
        traj = run_continual(col, np.arange(1, k + 1),
                             build_schedule(schedule, col.radius, k), scheme)
        return traj.iterates[-1]

    return probe


def run_seen_task_floor(k, trials, base_seed, scheme="regularized",
                        schedule_kind="increasing-coefficient",
                        schedule_params=None):
    """Empirical Pr[seen-task loss >= 1/(144 k)] on the hard seen-task collection."""
    schedule = {**(schedule_params or {}), "kind": schedule_kind}
    _check_schedule(schedule, scheme)
    scenario = seen_task_lb_collection(k)
    col = scenario.collection
    spec = build_schedule(schedule, col.radius, k)
    threshold = scenario.threshold(k)
    idx = sample_orderings(WITH_REPLACEMENT, col.M, k, trials, base_seed)
    (run,) = run_batch(col, [(idx, spec)], scheme, w0=scenario.recommended_w0)
    hits = int(np.count_nonzero(summarize_batch(run, col).seen_loss >= threshold))
    prob = hits / trials
    return {"scenario": "seen-task", "scheme": scheme, "schedule": schedule_kind,
            "k": k, "trials": trials, "threshold": threshold,
            "empirical_probability": prob, "floor": scenario.success_prob_floor,
            "passed": bool(prob >= scenario.success_prob_floor)}


def run_any_alg_mean(k, trials, base_seed, scheme="regularized",
                     schedule_kind="increasing-coefficient",
                     schedule_params=None):
    """Mean excess average loss on the adversarial collection built against the scheme."""
    schedule = {**(schedule_params or {}), "kind": schedule_kind}
    _check_schedule(schedule, scheme)
    # The scheme_runner learner is deterministic, so one run is its whole
    # outcome distribution.
    scenario = any_alg_lb_collection(k, 2, scheme_runner(scheme, schedule), probe_trials=1)
    col = scenario.collection
    spec = build_schedule(schedule, col.radius, k)
    base = average_loss(col.w_star, col)
    idx = sample_orderings(WITH_REPLACEMENT, col.M, k, trials, base_seed)
    (run,) = run_batch(col, [(idx, spec)], scheme)
    excess = summarize_batch(run, col).avg_loss - base
    mean_excess = float(np.mean(excess))
    threshold = scenario.threshold(k)
    return {"scenario": "any-algorithm", "scheme": scheme, "schedule": schedule_kind,
            "k": k, "trials": trials, "threshold": threshold,
            "mean_excess": mean_excess, "adversary_sign": scenario.meta["adversary_sign"],
            "passed": bool(mean_excess >= threshold)}


# ---------------------------------------------------------------------------
# Verification suites


@dataclass(frozen=True)
class CheckResult:
    label: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteReport:
    name: str
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


# The checks below are the only copy of acceptance criteria 1, 2, 8 and 9; the
# suites further down run them at smaller sizes on their own seeds.


def _random_task(rng):
    """A Gaussian task, d in 1..10 and n in 1..d+2 (inconsistent when n > d)."""
    d = int(rng.integers(1, 11))
    n = int(rng.integers(1, d + 3))
    return new_task(rng.standard_normal((n, d)), rng.standard_normal(n))


def reduction_gaps(rng, configs):
    """How far each scheme strays from its surrogate-step twin, over random configs.

    Each config is a realizable collection, an ordering of k = 100 steps and
    random strengths.  Returns the worst regularized and budgeted deviations
    as fractions of the tolerance 1e-8 (1 + ||w*||), and the worst change in
    the igd-of-regularized iterates when the bookkeeping step size goes from
    1 to 7 (their strengths fixed).
    """
    k = 100
    worst_reg = worst_bud = worst_eta = 0.0
    for _ in range(configs):
        d = int(rng.integers(2, 11))
        col = generate_realizable(RealizableSpec(
            d=d, M=int(rng.integers(2, 7)), n=int(rng.integers(1, d + 1)),
            radius=float(rng.uniform(0.5, 2.0)), seed=int(rng.integers(2 ** 32))))
        order = sample_ordering("with-replacement", col.M, k,
                                int(rng.integers(2 ** 32)))
        tol = 1e-8 * (1.0 + float(np.linalg.norm(col.w_star)))

        def gap(scheme_a, sched_a, scheme_b, sched_b):
            a = run_continual(col, order, sched_a, scheme_a).iterates
            b = run_continual(col, order, sched_b, scheme_b).iterates
            return float(np.abs(a - b).max())

        lam = rng.uniform(1e-2, 1e2, k)
        sched = sched_mod.custom_schedule(k, lam=lam, eta=rng.uniform(1e-2, 1e1, k))
        worst_reg = max(worst_reg, gap("regularized", sched,
                                       "igd-of-regularized", sched) / tol)
        sched = sched_mod.custom_schedule(
            k, gamma=rng.uniform(1e-4, 0.9 / col.radius ** 2, k),
            n_steps=rng.integers(1, 11, k), eta=rng.uniform(1e-2, 1e1, k))
        worst_bud = max(worst_bud, gap("budgeted", sched, "igd-of-budgeted", sched) / tol)
        worst_eta = max(worst_eta, gap(
            "igd-of-regularized", sched_mod.custom_schedule(k, lam=lam, eta=np.ones(k)),
            "igd-of-regularized", sched_mod.custom_schedule(k, lam=lam, eta=np.full(k, 7.0))))
    return worst_reg, worst_bud, worst_eta


def sandwich_failures(rng, triples):
    """Count random (task, surrogate, w) triples that break the excess-loss sandwich."""
    failures = 0
    for _ in range(triples):
        task = _random_task(rng)
        w = rng.standard_normal(task.d) * float(rng.uniform(0.1, 10.0))
        if rng.random() < 0.5 or task.spectral_norm == 0:
            s = build_regularized_surrogate(task, float(rng.uniform(1e-2, 1e2)),
                                            float(rng.uniform(1e-2, 1e1)))
        else:
            s = build_budgeted_surrogate(
                task, float(rng.uniform(1e-3, 0.9)) / task.spectral_norm ** 2,
                int(rng.integers(1, 11)), float(rng.uniform(1e-2, 1e1)))
        rep = sandwich_check(s, task, w)
        if not (rep.lower_ok and rep.upper_ok):
            failures += 1
    return failures


def certificate_failures():
    """(k, beta) pairs, k in 2..500 and beta in {0.5, 1, 4}, whose weight
    certificate fails at eta = 3 / (13 beta)."""
    return [(k, beta) for beta in (0.5, 1.0, 4.0) for k in range(2, 501)
            if not sched_mod.certificate_check(k, beta, 3.0 / (13.0 * beta)).passed]


def gradient_error(seed, draws):
    """Worst relative error of surrogate gradients against central differences.

    One task (d = 6, four rows) from the streams (seed, 90) and (seed, 91)
    backs a regularized, a budgeted, a spectral and a verbatim surrogate;
    each is checked at ``draws`` points from the stream (seed, 9).
    """
    d = 6
    task = new_task(stream(seed, 90).standard_normal((4, d)),
                    stream(seed, 91).standard_normal(4))
    gamma = 0.4 / task.spectral_norm ** 2
    kinds = (
        build_regularized_surrogate(task, 2.0, 0.7),
        build_budgeted_surrogate(task, gamma, 4, 0.7),
        build_spectral_surrogate(task, budgeted_spectral_map(gamma, 2, 1.3), 1.3),
        from_matrix(np.diag([0.5, 1.0, 2.0, 0.1, 3.0, 0.0]), np.arange(d, dtype=float)),
    )
    rng = stream(seed, 9)
    h = 1e-6
    worst = 0.0
    for s in kinds:
        for _ in range(draws):
            w = rng.standard_normal(d) * float(rng.uniform(0.5, 3.0))
            _, grad = value_and_grad(s, w)
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd = (value_and_grad(s, w + e)[0] - value_and_grad(s, w - e)[0]) / (2 * h)
                worst = max(worst, abs(fd - grad[j]) / (1.0 + abs(grad[j])))
    return worst


def _suite_reductions(seed):
    worst_reg, worst_bud, worst_eta = reduction_gaps(stream(seed, 101), 20)
    return [
        CheckResult("regularized scheme matches its surrogate-step twin",
                    worst_reg <= 1.0, f"worst deviation {worst_reg:.3e} of tolerance"),
        CheckResult("budgeted scheme matches its surrogate-step twin",
                    worst_bud <= 1.0, f"worst deviation {worst_bud:.3e} of tolerance"),
        CheckResult("surrogate iterates invariant to bookkeeping step size",
                    worst_eta <= 1e-12, f"worst deviation {worst_eta:.3e}"),
    ]


def _suite_sandwich(seed):
    rng = stream(seed, 102)
    failures = sandwich_failures(rng, 200)
    checks = [CheckResult("two-sided excess-loss bounds hold",
                          failures == 0, f"{failures}/200 triples failed")]

    worst = 0.0
    for _ in range(50):
        task = _random_task(rng)
        r2 = task.spectral_norm ** 2
        eta = float(rng.uniform(1e-2, 1e1))
        s = build_regularized_surrogate(task, 1.0 / eta, eta)
        if s.beta > 0:
            worst = max(worst, (r2 / s.beta) - (1.0 + eta * r2))
        n = int(rng.integers(1, 11))
        if r2 > 0:
            gamma = min(eta / n, 0.9 / r2 / 2)
            s = build_budgeted_surrogate(task, gamma, n, gamma * n)
            if s.beta > 0:
                worst = max(worst, (r2 / s.beta) - (1.0 + gamma * n * r2))
    checks.append(CheckResult(
        "upper constant obeys R^2/beta <= 1 + eta R^2 at the tied settings",
        worst <= 1e-9, f"worst slack {worst:.3e}"))

    worst_fd = gradient_error(seed, 5)
    checks.append(CheckResult("gradients match central finite differences "
                              "(all surrogate kinds)",
                              worst_fd <= 1e-6, f"worst relative error {worst_fd:.3e}"))
    return checks


def _suite_certificate(_seed):
    failures = certificate_failures()
    return [CheckResult("weight certificate nonnegative with c_k >= eta/k "
                        "for k in 2..500, beta in {0.5, 1, 4}",
                        not failures, f"failures: {failures[:5]}")]


def _suite_schedules(_seed):
    checks = []
    ok = True
    detail = ""
    for k in (2, 5, 17, 100):
        inc = sched_mod.increasing_coefficient(1.3, k)
        if np.max(np.abs(inc.lam * inc.eta - 1.0)) > 0:
            ok, detail = False, f"lam*eta != 1 at k={k}"
        if not np.all(np.diff(inc.lam) > 0):
            ok, detail = False, f"coefficients not strictly increasing at k={k}"
        bud = sched_mod.increasing_budget(1.3, k, n_choice=3)
        if np.max(np.abs(bud.eta / (bud.gamma * bud.n_steps) - 1.0)) > 0:
            ok, detail = False, f"eta/(gamma*N) != 1 at k={k}"
        if not np.all(np.diff(bud.gamma * bud.n_steps) < 0):
            ok, detail = False, f"budget strength not strictly decreasing at k={k}"
    checks.append(CheckResult("increasing schedules keep their exact identities",
                              ok, detail or "lam*eta = 1 and eta/(gamma*N) = 1"))

    ok = True
    detail = ""
    for k in (3, 10, 1000):
        spec = sched_mod.fixed_coefficient(2.0, k)
        r2 = 4.0
        implied = spec.eta[0] * (r2 / (r2 + spec.lam[0]))
        if abs(implied - 1.0 / np.log(k)) > 1e-12:
            ok, detail = False, f"eta*beta_r != 1/ln k at k={k}"
    checks.append(CheckResult("fixed coefficient lands smoothness on 1/ln k",
                              ok, detail or "within 1e-12"))

    grid = [0.5, 0.1, 0.01, 0.001]
    stars = [sched_mod.fixed_budget(1.0, g, 20).meta["n_star"] for g in grid]
    checks.append(CheckResult("exact budget grows as the inner step shrinks",
                              all(b > a for a, b in zip(stars, stars[1:])),
                              f"n_star over gamma grid: {[f'{s:.2f}' for s in stars]}"))

    steps = sched_mod.linear_decay_steps(3.0 / 13.0, 12, 1.0)
    ok = (abs(steps[0] - 3.0 / 13.0) < 1e-15
          and abs(steps[-1] - 2 * (3.0 / 13.0) / 13.0) < 1e-15)
    checks.append(CheckResult("linear decay endpoints", ok,
                              f"eta_1={steps[0]:.6f}, eta_k={steps[-1]:.6f}"))
    return checks


def _suite_adversarial(seed):
    checks = []
    rep = run_seen_task_floor(16, 400, seed)
    checks.append(CheckResult(
        "seen-task floor at k=16",
        rep["passed"],
        f"Pr[seen >= 1/(144k)] = {rep['empirical_probability']:.3f} "
        f">= {rep['floor']}"))
    for scheme, kind in (("regularized", "increasing-coefficient"),
                         ("unregularized", "none")):
        rep = run_any_alg_mean(16, 400, seed, scheme=scheme, schedule_kind=kind)
        checks.append(CheckResult(
            f"any-algorithm mean excess at k=16 ({scheme})",
            rep["passed"],
            f"mean {rep['mean_excess']:.3e} >= threshold {rep['threshold']:.3e}"))
    return checks


_SUITES = {"reductions": _suite_reductions, "sandwich": _suite_sandwich,
           "certificate": _suite_certificate, "schedules": _suite_schedules,
           "adversarial": _suite_adversarial}
SUITE_NAMES = tuple(_SUITES)


def verify_suite(name, seed=20240801):
    """Run one of the named property suites and report per-check results."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite: {name!r} (choose from {SUITE_NAMES})")
    return SuiteReport(name=name, checks=tuple(_SUITES[name](seed)))
