"""The benchmark's workloads, driven through contreg's command line in-process.

Each workload has the same life cycle:

* ``setup()`` builds the collections and schedules the body will need, through
  the harness (timed into ``setup_s``);
* ``rep(r)`` is one timed unit of work, made only of ``contreg.cli.main``
  calls; it returns the continual steps of the trials it scored;
* ``check(r, tally)`` re-derives the rep's outputs with ``oracle`` (untimed);
* ``finish(tally)`` repeats the acceptance gate's checks on pooled outputs.

Rep r of a run with seed s uses base seed ``s * SEED_STRIDE + r``, so the
same seed gives the same inputs.  Why each workload was chosen is recorded in
BENCHMARK.json and design.json.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from contreg import adversarial, cli, harness

import oracle

SEED_STRIDE = 100_000

# The CSV schema documented in the README, kept here so a change to
# harness.CSV_FIELDS is caught rather than followed.
CSV_FIELDS = ("scheme", "schedule", "ordering", "M", "d", "R", "k", "trial",
              "seed", "avg_loss", "seen_loss", "degradation", "dist_to_wstar")
METRIC_FIELDS = ("avg_loss", "seen_loss", "degradation", "dist_to_wstar")

HARD_COLLECTION = {"generator": "aligned-pairs", "d": 20, "pairs": 5,
                   "angle": 0.04, "radius": 1.0, "seed": 11}
WIDE_COLLECTION = {"d": 10, "M": 400, "n": 5, "radius": 1.0, "seed": 7}

# The acceptance sweep's five (scheme, schedule) pairs.
ACCEPTANCE_PAIRS = (
    ("regularized", {"kind": "increasing-coefficient"}),
    ("budgeted", {"kind": "increasing-budget", "n_choice": 1}),
    ("regularized", {"kind": "fixed-coefficient"}),
    ("budgeted", {"kind": "fixed-budget", "gamma": 0.5}),
    ("unregularized", {"kind": "none"}),
)


@dataclass
class Tally:
    """Operations attempted and failed; an operation is a scored trial or a check."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


def cli_call(argv):
    """Run ``contreg <argv>`` in-process; return (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _json(text):
    """The JSON object the CLI printed, or None."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def _ols(xs, ys):
    """Least-squares line through (xs, ys): (slope, intercept, residual)."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    xm, ym = x.mean(), y.mean()
    slope = float(((x - xm) * (y - ym)).sum() / ((x - xm) ** 2).sum())
    intercept = float(ym - slope * xm)
    return slope, intercept, float(((slope * x + intercept - y) ** 2).sum())


@dataclass(frozen=True)
class SweepSpec:
    """``contreg run`` then ``contreg fit`` for each (scheme, schedule) run."""

    collection: dict
    runs: tuple
    ordering: str
    k_grid: tuple
    trials: int        # per run and rep
    sampled_rows: int  # rows per CSV and rep re-derived by the oracle
    gate: bool         # repeat acceptance criteria 3, 4, 5 and 10


@dataclass(frozen=True)
class LowerBoundSpec:
    """``contreg adversarial`` for the seen-task and any-algorithm scenarios."""

    seen_ks: tuple
    any_runs: tuple    # (scheme, schedule dict)
    any_ks: tuple
    trials: int        # per call


# Trials per call set the share of per-call work (cli, config, collection and
# schedule builds, probes) against per-trial work, so they follow the real
# traffic: sweep-wide runs the acceptance sweep's 200 trials per cell,
# lower-bounds the 400 trials per call at which probing was profiled (criteria
# 6 and 7 run 2000), and sweep-hard 40 per cell (the acceptance sweep runs
# 200; 40 keeps a rep near 10 s, and a (trials, k+1, d) array of iterates at
# k=1024 is then 6.3 MiB, three times peak_rss_mb's bound).
SPECS = {
    "sweep-hard": SweepSpec(HARD_COLLECTION, ACCEPTANCE_PAIRS, "with-replacement",
                            (64, 128, 256, 512, 1024), trials=40, sampled_rows=2,
                            gate=True),
    "sweep-wide": SweepSpec(WIDE_COLLECTION,
                            (("igd-of-regularized", {"kind": "increasing-coefficient"}),
                             ("igd-of-budgeted", {"kind": "increasing-budget",
                                                  "n_choice": 2})),
                            "without-replacement", (4, 8, 16), trials=200,
                            sampled_rows=2, gate=False),
    "lower-bounds": LowerBoundSpec((16, 64, 256), ACCEPTANCE_PAIRS, (16, 64),
                                   trials=400),
}

# Small sizes for the benchmark's self-tests.
TINY_SPECS = {
    "sweep-hard": SweepSpec(HARD_COLLECTION, ACCEPTANCE_PAIRS, "with-replacement",
                            (64, 128, 256), trials=1, sampled_rows=3, gate=True),
    "sweep-wide": SweepSpec(WIDE_COLLECTION, SPECS["sweep-wide"].runs,
                            "without-replacement", (4, 8, 16), trials=2,
                            sampled_rows=6, gate=False),
    "lower-bounds": LowerBoundSpec((16,), ACCEPTANCE_PAIRS[4:], (16,), trials=5),
}


def make(name, seed, workdir, specs=SPECS):
    spec = specs[name]
    cls = SweepWorkload if isinstance(spec, SweepSpec) else LowerBoundWorkload
    return cls(spec, seed, workdir)


class SweepWorkload:
    def __init__(self, spec, seed, workdir):
        self.spec = spec
        self.seed = seed
        self.col = oracle.collection(spec.collection)
        self.configs = []
        self.csvs = []
        for i, (scheme, schedule) in enumerate(spec.runs):
            path = os.path.join(workdir, f"run{i}.json")
            with open(path, "w") as fh:
                json.dump({"collection": spec.collection, "scheme": scheme,
                           "schedule": schedule, "ordering": spec.ordering,
                           "k_grid": list(spec.k_grid), "trials": spec.trials,
                           "base_seed": 0}, fh)
            self.configs.append(path)
            self.csvs.append(os.path.join(workdir, f"run{i}.csv"))
        self.keys = [(k, t) for k in spec.k_grid for t in range(spec.trials)]
        # Per (run, k): sums of avg_loss and seen_loss, and the row count, pooled
        # over reps in constant memory so that peak RSS does not grow with reps.
        self.sums = np.zeros((len(spec.runs), len(spec.k_grid), 2))
        self.counts = np.zeros((len(spec.runs), len(spec.k_grid)))
        self.outputs = []

    def setup(self):
        col = harness.build_collection(self.spec.collection)
        for _, schedule in self.spec.runs:
            for k in self.spec.k_grid:
                harness.build_schedule(schedule, col.radius, k)

    def rep(self, r):
        base = self.seed * SEED_STRIDE + r
        self.outputs = []
        for config, path in zip(self.configs, self.csvs):
            run_code, _ = cli_call(["run", "--config", config, "--out", path,
                                    "--seed", str(base), "--threads", "1"])
            fit_code, fit_out = cli_call(["fit", path])
            self.outputs.append((run_code, fit_code, fit_out))
        return len(self.spec.runs) * self.spec.trials * sum(self.spec.k_grid)

    def check(self, r, tally):
        base = self.seed * SEED_STRIDE + r
        rng = np.random.default_rng((self.seed, r))
        for i, ((scheme, schedule), path) in enumerate(zip(self.spec.runs, self.csvs)):
            run_code, fit_code, fit_out = self.outputs[i]
            tag = f"{scheme}/{schedule['kind']} rep {r}"
            tally.check(run_code == 0, f"{tag}: contreg run exited {run_code}")
            tally.check(fit_code == 0, f"{tag}: contreg fit exited {fit_code}")
            rows = self._read_rows(path, scheme, schedule["kind"], base, tally, tag)
            for row in rows.values():
                j = self.spec.k_grid.index(row["k"])
                self.sums[i, j] += (row["avg_loss"], row["seen_loss"])
                self.counts[i, j] += 1

            picks = rng.choice(len(self.keys), size=min(self.spec.sampled_rows,
                                                         len(self.keys)), replace=False)
            for j in sorted(picks):
                k, t = self.keys[j]
                want, scale = oracle.sweep_row(self.col, scheme, schedule["kind"], schedule,
                                               self.spec.ordering, k, t, base)
                got = rows.get((k, t))
                ok = got is not None and all(
                    oracle.close(got[f], want[f], scale if f == "degradation" else 0.0)
                    for f in METRIC_FIELDS)
                tally.check(ok, f"{tag}: row k={k} trial={t} differs from the oracle")

            tally.check(self._fit_matches(_json(fit_out), rows),
                        f"{tag}: fit summary differs from the CSV rows")

    def _read_rows(self, path, scheme, kind, base, tally, tag):
        """Parse the CSV; each expected (k, trial) row is one scored trial."""
        try:
            with open(path, newline="") as fh:
                records = list(csv.reader(fh))
        except OSError:
            records = []
        header_ok = bool(records) and tuple(records[0]) == CSV_FIELDS
        tally.check(header_ok, f"{tag}: CSV header")
        rows = {}
        for rec in records[1:] if header_ok else []:
            row = self._parse_row(rec, scheme, kind, base)
            if row is None or (row["k"], row["trial"]) in rows:
                tally.check(False, f"{tag}: malformed or duplicate row {rec[6:8]}")
                continue
            rows[(row["k"], row["trial"])] = row
        for key in self.keys:
            tally.check(key in rows, f"{tag}: row k={key[0]} trial={key[1]} missing")
        for key in sorted(set(rows) - set(self.keys)):
            tally.check(False, f"{tag}: unexpected row k={key[0]} trial={key[1]}")
            del rows[key]
        return rows

    def _parse_row(self, rec, scheme, kind, base):
        if len(rec) != len(CSV_FIELDS):
            return None
        raw = dict(zip(CSV_FIELDS, rec))
        try:
            row = {"k": int(raw["k"]), "trial": int(raw["trial"])}
            row.update({f: float(raw[f]) for f in METRIC_FIELDS})
            static_ok = (raw["scheme"] == scheme and raw["schedule"] == kind
                         and raw["ordering"] == self.spec.ordering
                         and int(raw["M"]) == self.col.M and int(raw["d"]) == self.col.d
                         and oracle.close(float(raw["R"]), self.col.radius)
                         and int(raw["seed"]) == oracle.derived_seed(base, row["k"],
                                                                     row["trial"]))
        except ValueError:
            return None
        values_ok = (all(math.isfinite(row[f]) for f in METRIC_FIELDS)
                     and min(row["avg_loss"], row["seen_loss"], row["dist_to_wstar"]) >= 0)
        return row if static_ok and values_ok else None

    def _fit_matches(self, fit, rows):
        """The fit's per-k means, counts and OLS line against the CSV rows."""
        if fit is None or len(fit.get("points", ())) != len(self.spec.k_grid):
            return False
        means = []
        for k, point in zip(self.spec.k_grid, fit["points"]):
            vals = [row["avg_loss"] for (kk, _), row in rows.items() if kk == k]
            if not vals or point["k"] != k or point["n"] != len(vals):
                return False
            means.append(float(np.mean(vals)))
            if not oracle.close(point["mean"], means[-1]):
                return False
        slope, intercept, residual = _ols(np.log(self.spec.k_grid), np.log(means))
        return (oracle.close(fit["slope"], slope) and oracle.close(fit["intercept"], intercept)
                and abs(fit["residual"] - residual) <= oracle.RTOL * max(1.0, residual))

    def finish(self, tally):
        """Acceptance criteria 3, 4, 5 and 10 on the means pooled over every rep."""
        if not self.spec.gate:
            return
        dist2 = float(self.col.w_star @ self.col.w_star)
        r2 = self.col.radius ** 2
        ks = np.asarray(self.spec.k_grid, dtype=np.float64)

        def means(kind, metric="avg_loss"):
            i = next(j for j, (_, s) in enumerate(self.spec.runs) if s["kind"] == kind)
            column = ("avg_loss", "seen_loss").index(metric)
            return self.sums[i, :, column] / self.counts[i]

        ok = True
        for kind in ("increasing-coefficient", "increasing-budget"):
            m = means(kind)
            ok = ok and bool(np.all(m <= 20.0 * dist2 * r2 / (ks + 1)))
            ok = ok and _ols(np.log(ks), np.log(m))[0] <= -0.85
        tally.check(ok, "criterion 3: increasing schedules miss the O(1/k) bound or slope")
        ok = all(np.all(means(kind) <= 5.0 * dist2 * r2 * np.log(ks) / ks)
                 for kind in ("fixed-coefficient", "fixed-budget"))
        tally.check(ok, "criterion 4: fixed schedules miss the ln k / k bound")
        ok = bool(np.all(means("increasing-coefficient", "seen_loss")
                         <= 87.0 * dist2 * r2 / (ks + 1)))
        tally.check(ok, "criterion 5: seen-task loss misses the 87/(k+1) bound")
        ok = means("none")[-1] > means("increasing-coefficient")[-1]
        tally.check(ok, "criterion 10: unregularized does not trail at the largest k")


class LowerBoundWorkload:
    def __init__(self, spec, seed, workdir):
        self.spec = spec
        self.seed = seed
        self.outputs = []

    def calls(self):
        """(scenario, scheme, schedule dict, k) of every call in one rep."""
        seen = [("seen-task", "regularized", {"kind": "increasing-coefficient"}, k)
                for k in self.spec.seen_ks]
        anyalg = [("any-algorithm", scheme, schedule, k)
                  for scheme, schedule in self.spec.any_runs for k in self.spec.any_ks]
        return seen + anyalg

    def setup(self):
        for k in self.spec.seen_ks:
            adversarial.seen_task_lb_collection(k)
        for _, _, schedule, k in self.calls():
            # Both scenario collections are made of unit rows, so R = 1.
            harness.build_schedule(schedule, 1.0, k)

    def rep(self, r):
        base = self.seed * SEED_STRIDE + r
        self.outputs = []
        steps = 0
        for scenario, scheme, schedule, k in self.calls():
            argv = ["adversarial", "--scenario", scenario, "--scheme", scheme,
                    "--schedule", schedule["kind"], "--k", str(k),
                    "--trials", str(self.spec.trials), "--seed", str(base)]
            if "gamma" in schedule:
                argv += ["--gamma", str(schedule["gamma"])]
            if "n_choice" in schedule:
                argv += ["--n-choice", str(schedule["n_choice"])]
            self.outputs.append(cli_call(argv))
            steps += self.spec.trials * k
        return steps

    def check(self, r, tally):
        base = self.seed * SEED_STRIDE + r
        trials = self.spec.trials
        for (scenario, scheme, schedule, k), (code, out) in zip(self.calls(), self.outputs):
            tag = f"{scenario} {scheme}/{schedule['kind']} k={k} rep {r}"
            rep = _json(out) or {}
            tally.attempted += trials
            if not rep:
                tally.failed += trials
            tally.check(code == 0 and rep.get("passed") is True,
                        f"{tag}: exit {code}, passed={rep.get('passed')}")
            echo_ok = (rep.get("scenario") == scenario and rep.get("k") == k
                       and rep.get("trials") == trials and rep.get("scheme") == scheme
                       and rep.get("schedule") == schedule["kind"])
            if scenario == "seen-task":
                threshold = 1.0 / (144.0 * k)
                prob = rep.get("empirical_probability", math.nan)
                tally.check(echo_ok and rep.get("floor") == 0.15
                            and oracle.close(rep.get("threshold", math.nan), threshold)
                            and rep.get("passed") == (prob >= 0.15),
                            f"{tag}: report fields or floor")
                hits = oracle.seen_task_hits(k, trials, base)
                tally.check(prob == hits / trials,
                            f"{tag}: probability {prob} != oracle {hits / trials}")
            else:
                threshold = 1.0 / (64.0 * k)
                mean = rep.get("mean_excess", math.nan)
                tally.check(echo_ok
                            and oracle.close(rep.get("threshold", math.nan), threshold)
                            and rep.get("passed") == (mean >= threshold),
                            f"{tag}: report fields or threshold")
                sign, want = oracle.any_algorithm(scheme, schedule["kind"], schedule,
                                                  k, trials, base)
                tally.check(rep.get("adversary_sign") == sign,
                            f"{tag}: adversary_sign {rep.get('adversary_sign')} != {sign}")
                tally.check(oracle.close(mean, want),
                            f"{tag}: mean_excess {mean} != oracle {want}")

    def finish(self, tally):
        pass
