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
import functools
import json
import sys

from . import harness, verify
from .harness import ConfigError
from .orderings import MAX_TRIALS
from .schedules import KINDS
from .schemes import SCHEME_KINDS


def _emit_json(report, out):
    """Print ``report`` as strict JSON, and write it to ``out`` too when one
    is given.  A NaN or infinity raises ValueError, so it becomes an error
    line rather than output that is not JSON."""
    text = json.dumps(report, indent=2, allow_nan=False)
    if out is not None:
        with harness.atomic_open(out) as fh:
            fh.write(text + "\n")
    print(text)


def _cmd_run(args):
    harness.check_out(args.out)  # before the config's collection is built
    cfg = harness.parse_config(harness.load_json(args.config))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, base_seed=args.seed)
    table = harness.run_experiment(cfg)
    harness.write_csv(table, args.out)
    for k, mean, se, n in harness.aggregate(table):
        print(f"k={k:6d}  mean avg_loss = {mean:.6e} +/- {se:.2e}  (n={n})")
    print(f"wrote {len(table)} rows to {args.out}")
    return 0


def _cmd_fit(args):
    harness.check_out(args.out)
    agg = harness.aggregate(harness.read_csv(args.csv), metric=args.metric)
    fit = harness.fit_rate([(k, mean) for k, mean, _, _ in agg])
    summary = {
        "metric": args.metric,
        "points": [{"k": k, "mean": mean, "se": se, "n": n} for k, mean, se, n in agg],
        **dataclasses.asdict(fit),
    }
    _emit_json(summary, args.out)
    return 0


def _cmd_verify(args):
    report = verify.verify_suite(args.suite)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.label}: {check.detail}")
    print(f"suite {report.name}: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 2


def _cmd_adversarial(args):
    harness.check_out(args.out)
    # The scenario's largest arrays: its (k, trials) int64 orderings and its
    # (k, 1, 2) float64 task stack.
    if args.k >= 1:  # the constructions reject smaller k themselves
        harness.check_fits(8 * args.k * max(args.trials, 2),
                           f"--k {args.k} is too large for --trials {args.trials}: "
                           f"its largest array")
    # A flag given to a schedule that does not take it is an unknown schedule
    # field, which the scenario runner rejects as it would in a config.
    kind = args.schedule or harness.default_kind(args.scheme)
    schedule = {"kind": kind, **{name: value for name, value in (
        ("gamma", args.gamma), ("n_choice", args.n_choice)) if value is not None}}
    if kind == "fixed-budget":
        schedule.setdefault("gamma", 0.5)
    run = harness.run_seen_task_floor if args.scenario == "seen-task" else harness.run_any_alg_mean
    report = run(args.k, args.trials, args.seed, scheme=args.scheme, schedule=schedule)
    _emit_json(report, args.out)
    return 0 if report["passed"] else 2


def _int_at_least(low, most=None):
    """argparse type: an integer >= ``low`` (and <= ``most``, if given), so bad
    values fail at parse time."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be <= {most}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(prog="contreg",
                                     description="Continual linear regression lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a configured Monte Carlo sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="CSV output path")
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
    p.add_argument("--suite", required=True, choices=list(verify.SUITE_NAMES))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("adversarial", help="run a hard-instance scenario")
    p.add_argument("--scenario", required=True,
                   choices=["seen-task", "any-algorithm"])
    p.add_argument("--scheme", default="regularized", choices=SCHEME_KINDS)
    # Custom schedules need per-step arrays, which this command cannot take.
    p.add_argument("--schedule", choices=[kind for kind in KINDS if kind != "custom"],
                   help="default: increasing-coefficient for the coefficient schemes, "
                        "increasing-budget for the budget schemes, none for unregularized")
    p.add_argument("--gamma", type=float,
                   help="inner step size for fixed-budget schedules (default 0.5)")
    p.add_argument("--n-choice", type=int,
                   help="integer budget for increasing-budget schedules (default 1)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=_int_at_least(1, MAX_TRIALS), default=2000)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_adversarial)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse usage errors count as validation errors
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a k or trial count too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
