"""Command-line entry point.

Subcommands:
  run          config file -> CSV of per-trial results
  fit          CSV -> log-log rate fit of per-k mean losses
  verify       run a named property suite
  adversarial  run a hard-instance scenario against a scheme

Exit codes: 0 success, 1 validation error, 2 check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import harness
from .harness import ConfigError
from .schedules import KINDS
from .schemes import SCHEME_KINDS


def _cmd_run(args):
    cfg = harness.load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, base_seed=args.seed)
    out = args.out or cfg.out
    if out is None:
        raise ConfigError("no output path: pass --out or set 'out' in the config")
    rows = harness.run_experiment(cfg)
    harness.write_csv(rows, out)
    for k, mean, se, n in harness.aggregate(rows):
        print(f"k={k:6d}  mean avg_loss = {mean:.6e} +/- {se:.2e}  (n={n})")
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_fit(args):
    rows = harness.read_csv(args.csv)
    agg = harness.aggregate(rows, metric=args.metric)
    fit = harness.fit_rate([(k, mean) for k, mean, _, _ in agg])
    summary = {
        "metric": args.metric,
        "points": [{"k": k, "mean": mean, "se": se, "n": n} for k, mean, se, n in agg],
        "slope": fit.slope,
        "intercept": fit.intercept,
        "residual": fit.residual,
        "n_points": fit.n_points,
    }
    text = json.dumps(summary, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _cmd_verify(args):
    report = harness.verify_suite(args.suite)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.label}: {check.detail}")
    print(f"suite {report.name}: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 2


def _cmd_adversarial(args):
    options = {"gamma": args.gamma, "n_choice": args.n_choice}
    kind = KINDS[args.schedule]
    schedule_params = {name: options[name] for name in kind.required + kind.optional
                       if name in options}
    common = dict(k=args.k, trials=args.trials, base_seed=args.seed,
                  scheme=args.scheme, schedule_kind=args.schedule,
                  schedule_params=schedule_params)
    if args.scenario == "seen-task":
        report = harness.run_seen_task_floor(**common)
    else:
        report = harness.run_any_alg_mean(**common)
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report["passed"] else 2


def _int_at_least(low):
    """argparse type: an integer >= ``low``, so bad values fail at parse time."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser():
    parser = argparse.ArgumentParser(prog="contreg",
                                     description="Continual linear regression lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a configured Monte Carlo sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="CSV output path (overrides config)")
    p.add_argument("--seed", type=_int_at_least(0), help="override the config base seed")
    # Accepted for old command lines and ignored: a sweep's cells are stepped
    # together, so there are no cells left to spread over threads.
    p.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("fit", help="fit a rate exponent to per-k mean losses")
    p.add_argument("csv")
    p.add_argument("--metric", default="avg_loss",
                   choices=["avg_loss", "seen_loss", "dist_to_wstar"])
    p.add_argument("--out", help="write the JSON summary here as well")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("verify", help="run a named property suite")
    p.add_argument("--suite", required=True, choices=list(harness.SUITE_NAMES))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("adversarial", help="run a hard-instance scenario")
    p.add_argument("--scenario", required=True,
                   choices=["seen-task", "any-algorithm"])
    p.add_argument("--scheme", default="regularized", choices=SCHEME_KINDS)
    # Custom schedules need per-step arrays, which this command cannot take.
    p.add_argument("--schedule", default="increasing-coefficient",
                   choices=[kind for kind in KINDS if kind != "custom"])
    p.add_argument("--gamma", type=float, default=0.5,
                   help="inner step size for fixed-budget schedules")
    p.add_argument("--n-choice", type=int, default=1,
                   help="integer budget for increasing-budget schedules")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=_int_at_least(1), default=2000)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_adversarial)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse usage errors count as validation errors
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
