import ast
import contextlib
import csv
import dataclasses
import errno
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import derived_seed, loss_scale
from contreg import adversarial, cli, harness, schemes, verify
from contreg.harness import ConfigError
from contreg.orderings import stream, WITH_REPLACEMENT, WITHOUT_REPLACEMENT
from contreg.tasks import RegressionTask, new_collection, new_task, stacked_collection


def base_config(**overrides):
    cfg = {
        "collection": {"d": 4, "M": 3, "n": 2, "radius": 1.0, "seed": 7},
        "scheme": "regularized",
        "schedule": {"kind": "increasing-coefficient"},
        "ordering": "with-replacement",
        "k_grid": [4],
        "trials": 2,
        "base_seed": 99,
    }
    cfg.update(overrides)
    return cfg


PAIRS_COLLECTION = {"generator": "aligned-pairs", "d": 4, "pairs": 2, "angle": 0.1,
                    "radius": 1.0, "seed": 7}
GAUSSIAN_COLLECTION = base_config()["collection"]
# Configs whose fields have the wrong JSON type; each must be a ConfigError.
MISTYPED_CONFIGS = [
    base_config(scheme="budgeted", schedule={"kind": "fixed-budget", "gamma": "0.5"}),
    base_config(scheme="budgeted", schedule={"kind": "fixed-budget", "gamma": float("inf")}),
    base_config(scheme="budgeted", schedule={"kind": "fixed-budget", "gamma": True}),
    base_config(collection={**GAUSSIAN_COLLECTION, "radius": "1"}),
    base_config(collection={**GAUSSIAN_COLLECTION, "radius": float("nan")}),
    base_config(collection={**GAUSSIAN_COLLECTION, "radius": 10 ** 400}),
    base_config(collection={**GAUSSIAN_COLLECTION, "d": 2.5}),
    base_config(collection={**GAUSSIAN_COLLECTION, "M": True}),
    base_config(collection={**GAUSSIAN_COLLECTION, "seed": None}),
    base_config(collection={**PAIRS_COLLECTION, "angle": None}),
    base_config(collection={**PAIRS_COLLECTION, "pairs": "5"}),
    base_config(collection={"path": 3}),
    base_config(trials=True),
    base_config(trials=2.0),
    base_config(base_seed=False),
    base_config(k_grid=[4, True]),
    base_config(scheme="budgeted", schedule={"kind": "increasing-budget", "n_choice": 1.5}),
    base_config(schedule={"kind": ["none"]}),
    base_config(scheme=["regularized"]),
]
# Well-typed configs with a value out of range; each must be a ConfigError.
BAD_VALUE_CONFIGS = [
    base_config(collection={**GAUSSIAN_COLLECTION, "seed": -1}),
    base_config(collection={**GAUSSIAN_COLLECTION, "radius": -5}),
    base_config(collection={**GAUSSIAN_COLLECTION, "radius": 0.0}),
    base_config(collection={**PAIRS_COLLECTION, "radius": -2}),
    base_config(collection={**PAIRS_COLLECTION, "seed": -3}),
    base_config(k_grid=[3], schedule={"kind": "custom", "lam": 5}),
    base_config(k_grid=[3], schedule={"kind": "custom", "lam": [[1, 1, 1]]}),
    base_config(k_grid=[3], schedule={"kind": "custom", "lam": [True, True, True]}),
    base_config(k_grid=[3], schedule={"kind": "custom", "lam": [1, True, 1]}),
    base_config(k_grid=[3], schedule={"kind": "custom", "lam": [float("inf"), 1, 1]}),
    base_config(k_grid=[3], schedule={"kind": "custom", "lam": [1, 1], "eta": [1, 1, 1]}),
    base_config(k_grid=[3], schedule={"kind": "custom", "lam": [1, 0, 1]}),
    base_config(k_grid=[3], scheme="budgeted",
                schedule={"kind": "custom", "gamma": [0.1] * 3, "n_steps": [1.5, 2.7, 1]}),
    base_config(k_grid=[3], scheme="budgeted",
                schedule={"kind": "custom", "gamma": [0.1] * 3, "n_steps": [1, 2 ** 70, 1]}),
]
# A scheme paired with a schedule kind it does not read; each must be a
# ConfigError that names both.
MISMATCHED_CONFIGS = [
    base_config(scheme="unregularized", schedule={"kind": "increasing-coefficient"}),
    base_config(scheme="unregularized", k_grid=[3], schedule={"kind": "custom", "lam": [1] * 3}),
    base_config(scheme="unregularized", schedule={"kind": "fixed-budget", "gamma": 5}),
    base_config(scheme="regularized", schedule={"kind": "none"}),
    base_config(scheme="regularized", schedule={"kind": "fixed-budget", "gamma": 0.5}),
    base_config(scheme="igd-of-regularized", schedule={"kind": "increasing-budget"}),
    base_config(scheme="budgeted", schedule={"kind": "increasing-coefficient"}),
    base_config(scheme="igd-of-budgeted", k_grid=[3], schedule={"kind": "custom",
                                                                "lam": [1] * 3}),
    base_config(scheme="budgeted", k_grid=[3], schedule={"kind": "custom", "lam": [1] * 3,
                                                         "gamma": [0.1] * 3, "n_steps": [1] * 3}),
]
BAD_VALUE_CONFIGS += MISMATCHED_CONFIGS
# gamma * R^2 so small that 1 - gamma * R^2 rounds to 1: the budget formula
# would divide by zero.
BAD_VALUE_CONFIGS.append(base_config(scheme="budgeted",
                                     schedule={"kind": "fixed-budget", "gamma": 1e-20}))
# k_grid entries past the int64 range, under both fixed kinds (their schedules
# take ln k).
BAD_VALUE_CONFIGS += [base_config(k_grid=[k], scheme=scheme, schedule=schedule)
                      for k in (2 ** 63, 2 ** 64)
                      for scheme, schedule in (("regularized", {"kind": "fixed-coefficient"}),
                                               ("budgeted", {"kind": "fixed-budget",
                                                             "gamma": 0.5}))]
# k_grid entries whose (k, trials) ordering array no machine's memory holds.
OVERSIZE_K = (2 ** 63 - 1, 2 ** 62)
BAD_VALUE_CONFIGS += [base_config(k_grid=[k]) for k in OVERSIZE_K]
# Sizes past the machine's memory or past the ranges the engine hashes and
# stores, each named by a one-line error: (config, the error's start).
OVERSIZE_CONFIGS = [
    (base_config(k_grid=[2 ** 59], trials=1),
     f"k_grid entry {2 ** 59} is too large for trials=1: its (k, trials) int64 ordering "
     f"array must be at most the machine's memory"),
    (base_config(trials=10 ** 12), "trials must be an integer >= 1 and <= 2**32, "
                                   "got 1000000000000"),
    (base_config(trials=2 ** 32 + 1), f"trials must be an integer >= 1 and <= 2**32, "
                                      f"got {2 ** 32 + 1}"),
    (base_config(collection={**GAUSSIAN_COLLECTION, "M": 10 ** 15}),
     f"collection fields M, n, d = [{10 ** 15}, 2, 4]: the float64 task stack must be at "
     f"most the machine's memory"),
    (base_config(collection={**PAIRS_COLLECTION, "d": 10 ** 18}),
     f"collection fields pairs, d = [2, {10 ** 18}]: the float64 task stack must be at "
     f"most the machine's memory"),
]
BAD_VALUE_CONFIGS += [cfg for cfg, _ in OVERSIZE_CONFIGS]
# trials * len(k_grid) iterates of length d that no machine's memory holds:
# 8 * 10**12 bytes, in a config whose other arrays are small.
OVERSIZE_ITERATES = base_config(collection={**GAUSSIAN_COLLECTION, "d": 10 ** 6, "M": 1,
                                            "n": 1}, k_grid=[2], trials=10 ** 6)
BAD_VALUE_CONFIGS.append(OVERSIZE_ITERATES)
# An n_choice past the int64 budgets.
BAD_VALUE_CONFIGS += [base_config(scheme="budgeted", schedule={"kind": "increasing-budget",
                                                               "n_choice": n})
                      for n in (2 ** 63, 10 ** 30)]


def test_parse_config_strictness():
    harness.parse_config(base_config())  # sanity: valid config parses
    with pytest.raises(ConfigError, match="config must be a JSON object"):
        harness.parse_config([base_config()])
    with pytest.raises(ConfigError, match="collection must be an object"):
        harness.parse_config(base_config(collection=[GAUSSIAN_COLLECTION]))
    with pytest.raises(ConfigError, match="unknown collection generator: 'uniform'"):
        harness.parse_config(base_config(collection={**GAUSSIAN_COLLECTION,
                                                     "generator": "uniform"}))
    with pytest.raises(ConfigError, match="schedule must be an object with a 'kind' field"):
        harness.parse_config(base_config(schedule="increasing-coefficient"))
    with pytest.raises(ConfigError, match="unknown config fields"):
        harness.parse_config(base_config(typo_field=1))
    with pytest.raises(ConfigError, match="missing config fields"):
        harness.parse_config({k: v for k, v in base_config().items()
                              if k != "trials"})
    with pytest.raises(ConfigError, match="unknown collection fields"):
        harness.parse_config(base_config(
            collection={"d": 4, "M": 3, "n": 2, "radius": 1.0, "seed": 7, "x": 1}))
    with pytest.raises(ConfigError, match="unknown schedule fields"):
        harness.parse_config(base_config(
            schedule={"kind": "increasing-coefficient", "gamma": 0.5}))
    # No schedule kind takes a flag that makes a step other than its scheme's.
    for scheme, schedule in (("regularized", {"kind": "increasing-coefficient"}),
                             ("budgeted", {"kind": "custom", "gamma": [0.5] * 4,
                                           "n_steps": [1] * 4}),
                             ("unregularized", {"kind": "none"})):
        for flag in (True, "no", 1):
            with pytest.raises(ConfigError, match=r"unknown schedule fields for .*"
                                                  r"\['unregularized_first'\]"):
                harness.parse_config(base_config(
                    scheme=scheme, schedule={**schedule, "unregularized_first": flag}))
    with pytest.raises(ConfigError, match="needs 'gamma'"):
        harness.parse_config(base_config(schedule={"kind": "fixed-budget"}))
    with pytest.raises(ConfigError, match="unknown scheme"):
        harness.parse_config(base_config(scheme="proximal"))
    with pytest.raises(ConfigError, match="unknown ordering"):
        harness.parse_config(base_config(ordering="cyclic"))
    with pytest.raises(ConfigError, match="k_grid"):
        harness.parse_config(base_config(k_grid=[8, 4]))
    with pytest.raises(ConfigError, match="k_grid"):
        harness.parse_config(base_config(k_grid=[]))
    with pytest.raises(ConfigError, match="trials"):
        harness.parse_config(base_config(trials=0))
    # A mistyped config must fail its type check, not an earlier check.
    for cfg in MISTYPED_CONFIGS:
        with pytest.raises(ConfigError, match=r"(field '\w+'|k_grid) must be|unknown sche"):
            harness.parse_config(cfg)
    for cfg in BAD_VALUE_CONFIGS:
        with pytest.raises(ConfigError):
            harness.parse_config(cfg)
    for name, value in (("seed", -1), ("radius", -5)):
        with pytest.raises(ConfigError, match=f"collection field '{name}' must be"):
            harness.parse_config(base_config(collection={**GAUSSIAN_COLLECTION, name: value}))
    # A custom schedule's strengths are arrays, gamma's too.
    harness.parse_config(base_config(scheme="budgeted",
                                     schedule={"kind": "custom", "gamma": [0.5] * 4,
                                               "n_steps": [1] * 4}))
    harness.parse_config(base_config(collection={**PAIRS_COLLECTION, "radius": 2}))


def test_scheme_and_schedule_kind_must_fit():
    for cfg in MISMATCHED_CONFIGS:
        with pytest.raises(ConfigError) as exc:
            harness.parse_config(cfg)
        assert f"{cfg['scheme']!r}" in str(exc.value), exc.value
        assert f"{cfg['schedule']['kind']!r}" in str(exc.value), exc.value


def test_run_builds_the_collection_and_each_schedule_once(tmp_path, monkeypatch):
    calls = []
    for name in ("build_collection", "build_schedule"):
        def counted(*args, build=getattr(harness, name), name=name):
            calls.append(name)
            return build(*args)
        monkeypatch.setattr(harness, name, counted)
    for cfg, schedules in ((base_config(k_grid=[4, 8, 16]), 3),
                           (base_config(k_grid=[3], schedule={"kind": "custom",
                                                              "lam": [1.0] * 3}), 1),
                           (base_config(scheme="unregularized", schedule={"kind": "none"},
                                        k_grid=[4, 8]), 2)):
        calls.clear()
        assert run_cli_csv(tmp_path, "once", cfg)[0] == 0
        assert calls == ["build_collection"] + ["build_schedule"] * schedules


def test_run_experiment_shape_and_determinism(tmp_path):
    cfg = harness.parse_config(base_config())
    table = harness.run_experiment(cfg)
    assert len(table) == 2
    assert table.k.tolist() == [4, 4] and table.trial.tolist() == [0, 1]

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    harness.write_csv(table, p1)
    harness.write_csv(harness.run_experiment(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_run_experiment_grid_rows():
    cfg = harness.parse_config(base_config(k_grid=[4, 8], trials=1))
    table = harness.run_experiment(cfg)
    assert table.k.tolist() == [4, 8]
    for name in ("avg_loss", "seen_loss", "dist_to_wstar"):
        assert (getattr(table, name) >= 0).all()


def test_csv_round_trip(tmp_path, monkeypatch):
    cfg = harness.parse_config(base_config(k_grid=[4, 8], trials=2))
    table = harness.run_experiment(cfg)
    path = tmp_path / "rows.csv"
    harness.write_csv(table, path)
    assert_same_table(harness.read_csv(path), table)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(harness.CSV_FIELDS)
    monkeypatch.setattr(harness, "_WRITE_ROWS", 3)  # two writes, the second of one row
    harness.write_csv(table, tmp_path / "blocks.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == path.read_bytes()


def table_of(key, rows):
    """A ResultTable with run key ``key`` and rows of (k, trial, seed, metrics...)."""
    columns = list(zip(*rows))
    return harness.ResultTable(
        *key, k=np.array(columns[0], np.int64), trial=np.array(columns[1], np.int64),
        seed=np.array(columns[2], np.uint64),
        **{name: np.array(c, np.float64) for name, c in zip(harness.METRIC_NAMES, columns[3:])})


def reference_csv(table):
    """The per-row writer as a string: ``csv.writer`` over every field of every
    row, floats as ``format(v, ".17g")`` and other values as ``str``.  Each row
    is quoted as a ``\\r\\n`` line, so that a carriage return is quoted as a
    newline is, and ends in ``\\n``."""
    def line(fields):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(fields)
        return buf.getvalue()[:-2] + "\n"

    key = [getattr(table, name) for name in harness.RUN_KEY_FIELDS]
    return line(harness.CSV_FIELDS) + "".join(
        line([format(v, ".17g") if isinstance(v, float) else str(v) for v in key + list(row)])
        for row in zip(*[getattr(table, name).tolist() for name in harness.ROW_FIELDS]))


def reference_aggregate(table, metric):
    """Per-k summaries of per-row values grouped in a dict, in row order.  A
    mean or standard error that overflows is replaced by None."""
    by_k = {}
    for k, v in zip(table.k.tolist(), getattr(table, metric).tolist()):
        by_k.setdefault(k, []).append(v)
    out = []
    for k in sorted(by_k):
        vals = np.asarray(by_k[k])
        with np.errstate(over="ignore", invalid="ignore"):
            se = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
            mean = float(vals.mean())
        out.append((k, *(v if math.isfinite(v) else None for v in (mean, se)), len(vals)))
    return out


def assert_exact_within(vals, mean, se):
    """``mean`` and ``se`` are finite and within 1e-12 of the largest |value|
    of the exact rational mean and standard error of ``vals``."""
    x = [Fraction(v) for v in vals]
    exact_mean = sum(x) / len(x)
    var = sum((v - exact_mean) ** 2 for v in x) / (len(x) * (len(x) - 1))
    tol = Fraction(max(abs(v) for v in vals)) / 10 ** 12
    assert math.isfinite(mean) and math.isfinite(se), (mean, se)
    assert abs(Fraction(mean) - exact_mean) <= tol
    assert max(Fraction(se) - tol, 0) ** 2 <= var <= (Fraction(se) + tol) ** 2


NON_NEGATIVE = st.floats(0.0, allow_infinity=False) | st.just(-0.0)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Key text that csv.writer must quote (a comma, a quote, a newline, a carriage
# return) or that a %-template would read as a directive.
KEY_TEXT = st.text(alphabet='ab,"%\n\r ', max_size=6)


@st.composite
def result_rows(draw):
    """Rows with distinct (k, trial); k often repeats, so that groups are long."""
    k = st.sampled_from([1, 9, 10, 123456789]) | st.integers(1, 2 ** 63 - 1)
    pairs = draw(st.lists(st.tuples(k, st.integers(0, 2 ** 63 - 1)),
                          min_size=1, max_size=300, unique=True))
    return [(k, trial, draw(st.integers(0, 2 ** 64 - 1)), draw(NON_NEGATIVE),
             draw(NON_NEGATIVE), draw(FINITE), draw(NON_NEGATIVE)) for k, trial in pairs]


EDGE_ROWS = [(10 ** 9, 0, 2 ** 64 - 1, 1.7976931348623157e308, 5e-324, -0.0, 0.0),
             (10 ** 9, 1, 0, -0.0, 1.7976931348623157e308, 5e-324, 2.2250738585072014e-308),
             (7, 2 ** 63 - 1, 2 ** 63, 0.1, 0.2, -1.7976931348623157e308, -0.0)]
EDGE_ROWS += [(12, trial, trial, 1.0 / (trial + 1), trial / 3.0, -trial / 7.0, 1e-300 * trial)
              for trial in range(200)]


@settings(max_examples=100, deadline=None)
@given(key=st.tuples(KEY_TEXT, KEY_TEXT, KEY_TEXT, st.integers(1, 10 ** 9),
                     st.integers(1, 10 ** 9), st.floats(5e-324, allow_infinity=False)),
       rows=result_rows(), rng=st.randoms(use_true_random=False))
@example(key=("regularized", "none", "with-replacement", 400, 10, 1.7976931348623157e308),
         rows=EDGE_ROWS, rng=random.Random(0))
@example(key=("a,b", 'say "%d"', "x\ny", 1, 1, 5e-324), rows=EDGE_ROWS[:3], rng=random.Random(1))
@example(key=("reg\rularized", "a\r\nb", "\r", 2, 3, 1.0), rows=EDGE_ROWS[:3],
         rng=random.Random(2))
def test_csv_writer_reader_and_aggregate_match_the_per_row_reference(key, rows, rng):
    """``write_csv`` writes the per-row writer's bytes, ``read_csv`` returns the
    written table bit for bit, and ``aggregate`` matches per-k grouping in row
    order, also with the rows shuffled."""
    table = table_of(key, rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        harness.write_csv(table, path)
        with open(path, newline="") as fh:
            assert fh.read() == reference_csv(table)
        assert_same_table(harness.read_csv(path), table)
    shuffled = table_of(key, rng.sample(rows, len(rows)))
    for metric in harness.METRIC_NAMES:
        got, want = harness.aggregate(shuffled, metric), reference_aggregate(shuffled, metric)
        assert [(k, n) for k, _, _, n in got] == [(k, n) for k, _, _, n in want]
        for (k, mean, se, _), (_, *plain, _) in zip(got, want):
            # Bit for bit where the plain formulas stay finite; else finite, and close.
            if None in plain:
                assert_exact_within(getattr(shuffled, metric)[shuffled.k == k], mean, se)
            assert all(repr(p) == repr(v) for p, v in zip(plain, (mean, se)) if p is not None)


def test_collection_path_round_trip(tmp_path):
    from contreg.tasks import generate_realizable

    col = generate_realizable(d=3, M=2, n=2, radius=1.0, seed=5)
    path = tmp_path / "col.json"
    path.write_text(json.dumps({"tasks": [{"X": t.X.tolist(), "y": t.y.tolist()}
                                          for t in col.tasks],
                                "w_star": col.w_star.tolist()}))
    cfg = harness.parse_config(base_config(collection={"path": str(path)},
                                           k_grid=[3], trials=1))
    table = harness.run_experiment(cfg)
    assert table.d == 3 and table.M == 2


def test_aligned_pairs_config():
    cfg = harness.parse_config(base_config(
        collection={"generator": "aligned-pairs", "d": 6, "pairs": 3,
                    "angle": 0.1, "radius": 1.0, "seed": 2}))
    assert harness.run_experiment(cfg).M == 6


def test_fit_rate_exact_power_laws():
    fit = harness.fit_rate([(k, 7.0 / k) for k in (8, 16, 32, 64)])
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)
    assert fit.intercept == pytest.approx(np.log(7.0), abs=1e-9)
    assert fit.residual == pytest.approx(0.0, abs=1e-18)
    fit = harness.fit_rate([(k, 3.0 / np.sqrt(k)) for k in (8, 16, 32, 64)])
    assert fit.slope == pytest.approx(-0.5, abs=1e-9)
    assert fit.n_points == 4


def test_fit_rate_errors():
    with pytest.raises(ValueError, match="at least 3"):
        harness.fit_rate([(8, 1.0), (16, 0.5)])
    with pytest.raises(ValueError, match="k=\\[16\\]"):
        harness.fit_rate([(8, 1.0), (16, 0.0), (32, 0.25)])


def test_aggregate_means_and_standard_errors():
    cfg = harness.parse_config(base_config(trials=5))
    table = harness.run_experiment(cfg)
    (k, mean, se, n), = harness.aggregate(table)
    vals = table.avg_loss
    assert k == 4 and n == 5
    assert mean == pytest.approx(np.mean(vals))
    assert se == pytest.approx(np.std(vals, ddof=1) / np.sqrt(5))


SUITE_LABELS = {
    "reductions": ["regularized scheme matches its surrogate-step twin",
                   "budgeted scheme matches its surrogate-step twin",
                   "surrogate iterates invariant to bookkeeping step size"],
    "sandwich": ["two-sided excess-loss bounds hold",
                 "upper constant obeys R^2/beta <= 1 + eta R^2 at the tied settings",
                 "gradients match central finite differences (all surrogate kinds)"],
    "certificate": ["weight certificate nonnegative with c_k >= eta/k for k in 2..500, "
                    "beta in {0.5, 1, 4}"],
    "schedules": ["increasing schedules keep their exact identities",
                  "fixed coefficient lands smoothness on 1/ln k",
                  "exact budget grows as the inner step shrinks",
                  "linear decay endpoints"],
    "adversarial": ["seen-task floor at k=16",
                    "any-algorithm mean excess at k=16 (regularized)",
                    "any-algorithm mean excess at k=16 (unregularized)"],
}


def test_verify_suite_names():
    with pytest.raises(ValueError, match="unknown suite"):
        verify.verify_suite("bogus")
    assert verify.SUITE_NAMES == tuple(SUITE_LABELS)
    for name, labels in SUITE_LABELS.items():
        report = verify.verify_suite(name)
        assert report.name == name
        assert [check.label for check in report.checks] == labels, name
        assert report.passed, name


def test_harness_imports_neither_the_surrogates_nor_the_suites():
    """The harness runs sweeps and scenarios; the checks of the surrogates live
    in ``verify``, which imports the harness and not the other way round."""
    with open(harness.__file__) as fh:
        tree = ast.parse(fh.read())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
            if not node.module:  # from . import name
                modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    assert modules, "no imports found"
    leaves = {name.rsplit(".", 1)[-1] for name in modules}
    assert not leaves & {"surrogates", "verify"}, sorted(modules)


# Defined in the package for the benchmark under bench/, which looks them up;
# no program runs them.
BENCH_ONLY = {"adversarial.any_alg_lb_collection", "tasks.new_collection",
              "metrics.summarize"}


def test_the_package_defines_only_what_it_uses():
    """Every top-level function or class of a ``src/contreg`` module is named
    in the package (as a name, an attribute or an import), not counting
    ``__init__``'s exports: oracles that only the tests run live in
    ``tests/``.  The exceptions are ``BENCH_ONLY``, which must still be
    defined and unused, so that the list cannot go stale."""
    package = os.path.dirname(harness.__file__)
    defined, named = set(), set()
    for file in os.listdir(package):
        if not file.endswith(".py") or file == "__init__.py":
            continue
        with open(os.path.join(package, file)) as fh:
            tree = ast.parse(fh.read())
        defined.update(f"{file[:-3]}.{node.name}" for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unused = {name for name in defined if name.split(".")[1] not in named}
    assert sorted(unused - BENCH_ONLY) == []
    assert unused >= BENCH_ONLY


def test_seed_override(tmp_path):
    cfg = harness.parse_config(base_config())
    other = dataclasses.replace(cfg, base_seed=100)
    a = harness.run_experiment(cfg)
    b = harness.run_experiment(other)
    assert (a.seed != b.seed).any()


def test_cli_run_fit_verify(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    out_path = tmp_path / "rows.csv"
    fit_path = tmp_path / "fit.json"
    cfg_path.write_text(json.dumps(base_config(k_grid=[4, 8, 16], trials=3)))
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    assert out_path.exists()
    assert cli.main(["fit", str(out_path), "--out", str(fit_path)]) == 0
    summary = json.loads(fit_path.read_text())
    assert summary["n_points"] == 3
    assert len(summary["points"]) == 3
    for suite in verify.SUITE_NAMES:
        assert cli.main(["verify", "--suite", suite]) == 0, suite


def test_cli_validation_errors(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(base_config(typo=1)))
    assert cli.main(["run", "--config", str(bad), "--out", "x.csv"]) == 1
    assert "error:" in capsys.readouterr().err
    missing_out = tmp_path / "no_out.json"
    missing_out.write_text(json.dumps(base_config()))
    assert cli.main(["run", "--config", str(missing_out)]) == 1
    capsys.readouterr()
    # JSON reads 1e400 as inf.
    too_big = json.dumps(base_config(k_grid=[3], schedule={"kind": "custom", "lam": [7, 1, 1]}))
    for text in [json.dumps(cfg) for cfg in MISTYPED_CONFIGS + BAD_VALUE_CONFIGS] + [
            too_big.replace("[7, 1, 1]", "[1e400, 1, 1]")]:
        bad.write_text(text)
        assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
        err = one_line_error(capsys)
        assert re.search("must be|unknown (scheme|schedule) kind", err), err
    assert not (tmp_path / "x.csv").exists()

    good = tmp_path / "good.csv"
    harness.write_csv(harness.run_experiment(harness.parse_config(base_config())), good)
    lines = good.read_text().splitlines(True)
    missing_column = tmp_path / "missing_column.csv"
    missing_column.write_text("".join(",".join(line.split(",")[:-1]) + "\n" for line in lines))
    short_row = tmp_path / "short_row.csv"
    short_row.write_text(lines[0] + lines[1] + lines[2].split(",", 1)[1])
    for path, where in ((missing_column, "line 1"), (short_row, "line 3")):
        assert cli.main(["fit", str(path)]) == 1
        assert f"{path}, {where}:" in one_line_error(capsys)
    not_utf8 = tmp_path / "not_utf8.csv"
    not_utf8.write_bytes(lines[0].encode() + b"\xff" + lines[1].encode())
    assert cli.main(["fit", str(not_utf8)]) == 1
    assert one_line_error(capsys) == (f"error: {not_utf8}, line 2: byte 0xff at offset "
                                      f"{len(lines[0])} is not UTF-8\n")

    def with_field(name, value, at=(2,)):  # ``at`` counts lines from the header, 0
        out = list(lines)
        for i in at:
            rec = out[i][:-1].split(",")
            rec[harness.CSV_FIELDS.index(name)] = value
            out[i] = ",".join(rec) + "\n"
        return out

    bad_rows = [(with_field(name, value), f", line 3: {message}") for name, value, message in (
        ("k", "0", "k must be >= 1"), ("k", "-4", "k must be >= 1"),
        ("k", str(2 ** 63), "k must be >= 1 and < 2**63"),
        ("trial", "-1", "trial must be >= 0"), ("seed", "-1", "seed must be >= 0"),
        ("seed", str(2 ** 64), "seed must be >= 0 and < 2**64"),
        ("M", "0", "M must be >= 1, got 0"), ("d", "-2", "d must be >= 1, got -2"),
        ("R", "nan", "R must be finite and > 0, got nan"),
        ("R", "inf", "R must be finite and > 0, got inf"),
        ("R", "0", "R must be finite and > 0, got 0.0"),
        ("R", "-1", "R must be finite and > 0, got -1.0"),
        ("avg_loss", "-1", "avg_loss must be finite and >= 0, got -1.0"),
        ("degradation", "nan", "degradation must be finite, got nan"))]
    malformed = tmp_path / "malformed.csv"
    for text, where in bad_rows + [
            # A bad R, not rows of different sweeps, though NaN != NaN.
            (with_field("R", "nan", at=(1, 2)), ", line 2: R must be finite and > 0, got nan"),
            (lines + lines[1:], ", line 4: repeats k=4, trial=0 of line 2"),
            (lines + lines[2:], ", line 4: repeats k=4, trial=1 of line 3"),
            (lines[:1], ": no rows after the header")]:
        malformed.write_text("".join(text))
        assert cli.main(["fit", str(malformed)]) == 1
        err = one_line_error(capsys)
        assert err.startswith(f"error: {malformed}{where}"), err

    good_cfg = tmp_path / "good.json"
    good_cfg.write_text(json.dumps(base_config()))
    adversarial = ["adversarial", "--k", "16", "--scenario"]
    for argv, flag, value, message in (
            (adversarial + ["seen-task"], "--trials", "0", "must be >= 1, got 0"),
            (adversarial + ["any-algorithm"], "--trials", "0", "must be >= 1, got 0"),
            (adversarial + ["seen-task"], "--trials", "-3", "must be >= 1, got -3"),
            (adversarial + ["any-algorithm"], "--seed", "-1", "must be >= 0, got -1"),
            (adversarial + ["seen-task"], "--seed", "x", "invalid int value: 'x'"),
            (["run", "--config", str(good_cfg), "--out", str(tmp_path / "x.csv")],
             "--seed", "-1", "must be >= 0, got -1")):
        assert cli.main(argv + [flag, value]) == 1
        out, err = capsys.readouterr()
        error_lines = [line for line in err.splitlines() if "error:" in line]
        assert out == "" and error_lines == [
            f"contreg {argv[0]}: error: argument {flag}: {message}"], err
    assert not (tmp_path / "x.csv").exists()

    # An output path that cannot be written is rejected before any ordering
    # is sampled: empty, an existing directory, or in a missing directory.
    def no_sampling(*args, **kwargs):
        raise AssertionError("an ordering was sampled before the output path was checked")

    monkeypatch.setattr(harness, "sample_orderings", no_sampling)
    missing = str(tmp_path / "missing" / "x.csv")
    bad_outs = (("", "output path '' is empty"),
                (str(tmp_path), f"output path {str(tmp_path)!r} is a directory"),
                (missing, f"output path {missing!r}: directory "
                          f"{str(tmp_path / 'missing')!r} does not exist"))
    for out, message in bad_outs:
        for argv in (["run", "--config", str(good_cfg), "--out", out],
                     ["fit", str(good), "--out", out],
                     adversarial + ["seen-task", "--out", out],
                     adversarial + ["any-algorithm", "--out", out]):
            assert cli.main(argv) == 1, argv
            assert one_line_error(capsys) == f"error: {message}\n", argv


def test_run_checks_every_output_path_before_the_collection_is_built(tmp_path, capsys,
                                                                     collection_builds):
    """A bad --out and a config that carries an ``out`` are each one error
    line, exit 1, and no --out at all is a usage error, exit 1, all before
    anything is built."""
    cfg_path, good = tmp_path / "cfg.json", str(tmp_path / "x.csv")
    missing = str(tmp_path / "missing" / "x.csv")
    in_missing = (f"output path {missing!r}: directory {str(tmp_path / 'missing')!r} "
                  f"does not exist")
    for cfg, argv, message in (
            (base_config(), ["--out", missing], in_missing),
            (base_config(out=good), ["--out", good], "unknown config fields: ['out']"),
            ([base_config()], ["--out", good], "config must be a JSON object")):
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(cfg_path), *argv]) == 1, (cfg, argv)
        assert one_line_error(capsys) == f"error: {message}\n"
    cfg_path.write_text(json.dumps(base_config()))
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    assert "the following arguments are required: --out" in capsys.readouterr().err
    assert collection_builds == []
    assert not os.path.exists(good)


def test_check_failures_exit_2(tmp_path, capsys, monkeypatch):
    """A suite check or a scenario claim that fails is exit code 2: verify
    prints the check's [FAIL] line, and adversarial still writes its report."""
    monkeypatch.setattr(verify, "certificate_failures", lambda: [(7, 0.5)])
    assert cli.main(["verify", "--suite", "certificate"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out == ["[FAIL] weight certificate nonnegative with c_k >= eta/k for k in 2..500, "
                   "beta in {0.5, 1, 4}: failures: [(7, 0.5)]", "suite certificate: FAIL"]

    seen_task = harness.seen_task_lb_collection

    def from_the_solution(k):  # no trial sees a loss, so the floor cannot hold
        col, _ = seen_task(k)
        return col, col.w_star

    monkeypatch.setattr(harness, "seen_task_lb_collection", from_the_solution)
    report_path = tmp_path / "report.json"
    assert cli.main(["adversarial", "--scenario", "seen-task", "--k", "16", "--trials", "50",
                     "--out", str(report_path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False and report["empirical_probability"] == 0.0
    assert json.loads(report_path.read_text()) == report


def test_cli_adversarial(tmp_path, capsys):
    code = cli.main(["adversarial", "--scenario", "seen-task", "--k", "16",
                     "--trials", "100", "--seed", "1"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["threshold"] == pytest.approx(1.0 / (144 * 16))


@pytest.mark.parametrize("scheme", schemes.SCHEME_KINDS)
def test_cli_adversarial_defaults_to_the_schedule_its_scheme_reads(scheme, capsys):
    """Without --schedule, a scheme runs the increasing schedule that sets the
    strengths it reads, or 'none' under the unregularized scheme."""
    kind = {"regularized": "increasing-coefficient",
            "igd-of-regularized": "increasing-coefficient",
            "budgeted": "increasing-budget", "igd-of-budgeted": "increasing-budget",
            "unregularized": "none"}[scheme]
    for scenario in ("seen-task", "any-algorithm"):
        code = cli.main(["adversarial", "--scenario", scenario, "--k", "16", "--trials", "50",
                         "--scheme", scheme])
        captured = capsys.readouterr()
        assert code in (0, 2), captured.err
        assert json.loads(captured.out)["schedule"] == kind


def test_cli_adversarial_rejects_a_schedule_its_scheme_does_not_read(monkeypatch, capsys):
    """A scheme paired with a schedule it does not read, or a schedule flag
    given to a schedule that does not take it, is one error line, before the
    scenario is built."""
    def no_work(*args, **kwargs):
        raise AssertionError("the scenario was built before the schedule was checked")

    for name in ("seen_task_lb_collection", "any_alg_probe_collection", "any_alg_collection"):
        monkeypatch.setattr(harness, name, no_work)
    for scenario, scheme, schedule in itertools.product(
            ("seen-task", "any-algorithm"), ("unregularized", "budgeted"),
            ("increasing-coefficient", "fixed-coefficient", "fixed-budget")):
        if scheme == "budgeted" and schedule == "fixed-budget":
            continue
        gamma = ("--gamma", "5") if schedule == "fixed-budget" else ()
        code = cli.main(["adversarial", "--scenario", scenario, "--k", "16", "--scheme", scheme,
                         "--schedule", schedule, *gamma])
        assert code == 1
        assert f"scheme {scheme!r} cannot run a {schedule!r}" in one_line_error(capsys)
    for scenario, (scheme, schedule, flag, value) in itertools.product(
            ("seen-task", "any-algorithm"),
            (("budgeted", "increasing-budget", "--gamma", "0.3"),
             ("budgeted", "fixed-budget", "--n-choice", "2"),
             ("regularized", "increasing-coefficient", "--gamma", "0.5"),
             ("regularized", "fixed-coefficient", "--n-choice", "1"),
             ("unregularized", "none", "--gamma", "0.5"))):
        code = cli.main(["adversarial", "--scenario", scenario, "--k", "16", "--scheme", scheme,
                         "--schedule", schedule, flag, value])
        assert code == 1
        field = flag[2:].replace("-", "_")
        assert f"unknown schedule fields for {schedule!r} with scheme {scheme!r}: " \
               f"['{field}']" in one_line_error(capsys)


def test_scenario_runners_reject_a_trial_count_before_any_work(monkeypatch,
                                                              collection_builds, cell_builds):
    """Both scenario runners check ``trials`` as a config does, before any
    collection is built, any learner probed or any ordering drawn: 0 trials
    would divide by zero (seen-task) or average nothing (any-algorithm)."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the trial count was checked")

    for name in ("seen_task_lb_collection", "any_alg_probe_collection", "any_alg_collection",
                 "any_alg_sign"):
        monkeypatch.setattr(harness, name, no_work)
    for run in (harness.run_seen_task_floor, harness.run_any_alg_mean):
        for trials in (0, 2 ** 32 + 1):
            with pytest.raises(ConfigError) as err:
                run(16, trials, 1)
            assert str(err.value) == ("trials must be an integer >= 1 and <= 2**32, "
                                      f"got {trials}")
    assert collection_builds == [] and cell_builds == [] and harness._collections == {}


def test_cli_adversarial_rejects_a_vanishing_gamma(capsys):
    for scenario in ("seen-task", "any-algorithm"):
        code = cli.main(["adversarial", "--scenario", scenario, "--k", "16", "--scheme",
                         "budgeted", "--schedule", "fixed-budget", "--gamma", "1e-20"])
        assert code == 1
        err = one_line_error(capsys)
        assert "gamma * R^2 must be above 2**-54, got 1e-20 (gamma=1e-20)" in err, err


def test_cli_main_reused_in_one_process_matches_fresh_processes(tmp_path, capsys):
    """The parser is built once per process; calls after a usage error, with
    other subcommands, still print what a fresh process prints."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(k_grid=[4, 8, 16], trials=2)))
    calls = [["run", "--config", str(cfg_path), "--out", str(tmp_path / "a.csv")],
             ["adversarial", "--scenario", "seen-task", "--k", "16", "--trials", "0"],
             ["adversarial", "--scenario", "any-algorithm", "--k", "16", "--trials", "20"],
             ["fit", str(tmp_path / "a.csv")],
             ["verify", "--help"]]
    in_process = []
    for argv in calls:
        code = cli.main(argv)
        in_process.append((code, *capsys.readouterr()))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"), os.environ.get("PYTHONPATH", "")])}
    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-c", "import sys; from contreg import cli; "
                               "sys.exit(cli.main(sys.argv[1:]))", *argv],
                              capture_output=True, text=True, env=env, check=False)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert [c for c, _, _ in in_process] == [0, 1, 0, 0, 0]
    assert in_process == fresh


def run_cli_csv(tmp_path, name, cfg, *extra):
    cfg_path, out_path = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
    cfg_path.write_text(json.dumps(cfg))
    code = cli.main(["run", "--config", str(cfg_path), "--out", str(out_path), *extra])
    return code, out_path


def assert_same_table(got, want):
    """``got`` holds bit for bit the run key and columns of ``want``."""
    assert len(got) == len(want)
    for name in harness.CSV_FIELDS:
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_oversize_k_grid_entry_is_named_before_the_collection_is_built(tmp_path, capsys,
                                                                     monkeypatch):
    def no_build(*args):
        raise AssertionError("the collection was built")
    monkeypatch.setattr(harness, "build_collection", no_build)
    path = tmp_path / "big.json"
    for k in OVERSIZE_K:
        path.write_text(json.dumps(base_config(k_grid=[k])))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 1
        assert f"error: k_grid entry {k} is too large" in one_line_error(capsys)


def test_sizes_past_the_machine_memory_are_named_before_anything_is_built(tmp_path, capsys,
                                                                          monkeypatch):
    """A size whose largest array (the task stack, a k's ordering array, the
    scenario's) no machine's memory holds, or a trial count past 2**32, is
    one error line naming its field, before any collection is built or any
    ordering drawn.  The scenario runners, called directly, reject such a
    trial count as a config does."""
    for run in (harness.run_seen_task_floor, harness.run_any_alg_mean):
        with pytest.raises(ConfigError, match=r"trials must be an integer >= 1 and "
                                              r"<= 2\*\*32, got"):
            run(16, 2 ** 32 + 1, 0)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the sizes were checked")

    for name in ("build_collection", "sample_orderings", "seen_task_lb_collection",
                 "any_alg_probe_collection", "any_alg_collection"):
        monkeypatch.setattr(harness, name, no_work)
    path = tmp_path / "big.json"
    for cfg, message in OVERSIZE_CONFIGS:
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 1
        assert one_line_error(capsys).startswith(f"error: {message}")
    adversarial = ["adversarial", "--scenario"]
    for scenario in ("seen-task", "any-algorithm"):
        for k, trials in ((10 ** 30, 2000), (10 ** 9, 10 ** 9)):
            assert cli.main(adversarial + [scenario, "--k", str(k), "--trials", str(trials)]) == 1
            assert one_line_error(capsys).startswith(
                f"error: --k {k} is too large for --trials {trials}: its largest array must "
                f"be at most the machine's memory")
        assert cli.main(adversarial + [scenario, "--k", "16", "--trials", str(2 ** 32 + 1)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and [line for line in err.splitlines() if "error:" in line] == [
            f"contreg adversarial: error: argument --trials: must be <= {2 ** 32}, "
            f"got {2 ** 32 + 1}"]
    assert not (tmp_path / "x.csv").exists()


def test_oversize_iterates_are_named_before_any_ordering_is_drawn(tmp_path, capsys,
                                                                 monkeypatch, cell_builds):
    """``run_batch`` steps every trial of every k in one (trials * len(k_grid),
    d) float64 array.  A size whose array no machine's memory holds is one
    error line naming trials, k_grid and d, once d is known (a collection
    file's only once it is read) and before any ordering is drawn."""
    def no_draw(*args, **kwargs):
        raise AssertionError("an ordering was drawn before the sizes were checked")

    monkeypatch.setattr(harness, "sample_orderings", no_draw)
    col_path = tmp_path / "wide.json"
    col_path.write_text(json.dumps({"tasks": [{"X": [[1.0] * 10 ** 6], "y": [1.0]}]}))
    path = tmp_path / "big.json"
    for cfg in (OVERSIZE_ITERATES, {**OVERSIZE_ITERATES, "collection": {"path": str(col_path)}}):
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 1
        assert one_line_error(capsys).startswith(
            f"error: trials={10 ** 6}, len(k_grid)=1 and d={10 ** 6}: the (trials * "
            f"len(k_grid), d) float64 iterates must be at most the machine's memory")
    assert cell_builds == [] and not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("sysconf", [None, ValueError, OSError],
                         ids=["no-sysconf", "ValueError", "OSError"])
def test_runs_where_the_machine_memory_cannot_be_read(tmp_path, capsys, monkeypatch, sysconf):
    """Without ``os.sysconf`` (as on Windows), or where it fails, the size
    checks are skipped and small runs exit 0.  An impossible size is then left
    to numpy's MemoryError, which ``test_out_of_memory_is_a_one_line_error``
    covers."""
    if sysconf is None:
        monkeypatch.delattr(os, "sysconf")
    else:
        def failing(name, error=sysconf):
            raise error(name)
        monkeypatch.setattr(os, "sysconf", failing)
    harness._physical_memory.cache_clear()
    try:
        assert run_cli_csv(tmp_path, "small", base_config())[0] == 0
        for scenario in ("seen-task", "any-algorithm"):
            assert cli.main(["adversarial", "--scenario", scenario, "--k", "16",
                             "--trials", "10"]) == 0
        assert harness._physical_memory() is None
    finally:
        harness._physical_memory.cache_clear()  # read again once os.sysconf is back
    capsys.readouterr()


def test_only_the_harness_keeps_values_between_runs(tmp_path, capsys):
    """After a ``contreg run`` and a ``contreg adversarial`` call of each
    scenario in one process, the only module-level dicts, lists or sets of
    contreg that grew are the harness's kept cells and collections."""
    def sizes():
        return {(name, attr): len(value) for name, module in list(sys.modules.items())
                if name == "contreg" or name.startswith("contreg.")
                for attr, value in vars(module).items()
                if not attr.startswith("__") and isinstance(value, (dict, list, set))}

    before = sizes()
    assert run_cli_csv(tmp_path, "a", base_config())[0] == 0
    for scenario in ("seen-task", "any-algorithm"):
        assert cli.main(["adversarial", "--scenario", scenario, "--k", "16",
                         "--trials", "10"]) == 0
    capsys.readouterr()
    grew = {key for key, n in sizes().items() if n > before.get(key, 0)}
    assert grew == {("contreg.harness", "_cells"), ("contreg.harness", "_collections")}


def test_n_choice_past_int64_is_a_one_line_error(tmp_path, capsys):
    for n in (2 ** 63, 10 ** 30):
        cfg = base_config(scheme="budgeted",
                          schedule={"kind": "increasing-budget", "n_choice": n})
        assert run_cli_csv(tmp_path, "n", cfg)[0] == 1
        assert one_line_error(capsys) == (f"error: increasing-budget schedule: n_choice must "
                                          f"be < 2**63, got {n}\n")
        for scenario in ("seen-task", "any-algorithm"):
            assert cli.main(["adversarial", "--scenario", scenario, "--k", "16", "--scheme",
                             "budgeted", "--schedule", "increasing-budget", "--n-choice",
                             str(n)]) == 1
            assert one_line_error(capsys) == f"error: n_choice must be < 2**63, got {n}\n"


@pytest.mark.parametrize("message", [
    "Unable to allocate 745. GiB for an array with shape (100000000000, 1) and data type int64",
    "",
])
def test_out_of_memory_is_a_one_line_error(tmp_path, capsys, monkeypatch, message):
    """A k or trial count too large to allocate (k = 10**11, say) exits 1 with one
    error line, not a traceback.  The sampler stands in for the allocation."""
    def no_memory(*args, **kwargs):
        raise MemoryError(message)
    monkeypatch.setattr(harness, "sample_orderings", no_memory)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))
    for argv in (["run", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")],
                 ["adversarial", "--scenario", "seen-task", "--k", "16"],
                 ["adversarial", "--scenario", "any-algorithm", "--k", "16"]):
        assert cli.main(argv) == 1
        assert one_line_error(capsys) == f"error: {message or 'out of memory'}\n"
    assert not (tmp_path / "x.csv").exists()


def test_csv_bytes_do_not_depend_on_threads(tmp_path):
    """``--threads`` is accepted for old command lines and changes nothing."""
    cfg = base_config(k_grid=[4, 8, 16], trials=5)
    outputs = []
    for extra in ((), ("--threads", "1"), ("--threads", "3")):
        code, path = run_cli_csv(tmp_path, f"t{len(outputs)}", cfg, *extra)
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_rows_do_not_depend_on_the_number_of_trials(tmp_path):
    for scheme, schedule in (("regularized", {"kind": "increasing-coefficient"}),
                             ("budgeted", {"kind": "increasing-budget", "n_choice": 2}),
                             ("unregularized", {"kind": "none"})):
        lines = {}
        for trials in (3, 7):
            code, path = run_cli_csv(tmp_path, f"{scheme}{trials}", base_config(
                scheme=scheme, schedule=schedule, k_grid=[4, 8], trials=trials))
            assert code == 0
            rows = path.read_text().splitlines()[1:]
            lines[trials] = [r for r in rows if int(r.split(",")[7]) < 3]
        assert lines[3] == lines[7] and len(lines[3]) == 6


def test_custom_schedule_the_literal_rules_reject_exits_1(tmp_path, capsys):
    cfg = base_config(scheme="igd-of-regularized", k_grid=[3],
                      schedule={"kind": "custom", "lam": [1.0, 1.0, 1.0],
                                "eta": [1.0, -1.0, 1.0]})
    code, path = run_cli_csv(tmp_path, "custom", cfg)
    assert code == 1 and not path.exists()
    assert "step size must be positive" in one_line_error(capsys)


def test_bad_inputs_are_rejected_before_any_cell_runs(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run_batch", lambda *a, **kw: calls.append(a))
    cfg = base_config(ordering="without-replacement", k_grid=[2, 3, 4])
    assert run_cli_csv(tmp_path, "wor", cfg)[0] == 1
    assert "without-replacement needs k <= M, got k=4, M=3" in one_line_error(capsys)

    col_path = tmp_path / "col.json"
    col_path.write_text(json.dumps({"w_star": [1.0]}))
    assert run_cli_csv(tmp_path, "col", base_config(collection={"path": str(col_path)}))[0] == 1
    assert "'tasks'" in one_line_error(capsys)
    col_path.write_text(json.dumps({"tasks": [{"X": [[1.0]]}]}))
    assert run_cli_csv(tmp_path, "col", base_config(collection={"path": str(col_path)}))[0] == 1
    one_line_error(capsys)
    assert calls == []


def test_bad_collection_file_is_rejected_naming_the_task(tmp_path, capsys, monkeypatch):
    """A bad collection file is a one-line error when the config is parsed,
    before any cell runs; an error in one task names that task.  As in a
    config, unknown fields are errors, strings and true/false are not
    numbers, and an integer past the float64 range is an error, not a
    traceback."""
    calls = []
    monkeypatch.setattr(harness, "run_batch", lambda *a, **kw: calls.append(a))
    col_path = tmp_path / "tasks.json"
    cfg = base_config(collection={"path": str(col_path)})
    row, square = {"X": [[1.0, 0.0]], "y": [1.0]}, {"X": [[1.0, 0.0], [0.0, 1.0]], "y": [1.0, 1.0]}
    zero = {"X": [[0.0, 0.0]], "y": [0.0]}
    # Each case may override config fields, by its fourth entry.
    for tasks, fields, message, *overrides in (
            ([row, row], {"w_star": [float("nan"), 0.0]},
             "error: w_star contains non-finite entries"),
            ([row, square], {"w_star": [1.0, float("-inf")]},
             "error: w_star contains non-finite entries"),
            ([row, row], {"w_star": [{}, 0.0]},
             "error: collection w_star must be a 1-D array of numbers, got entry {}"),
            ([row, {"X": [[1.0, 0.0], [1.0]], "y": [1.0, 2.0]}], {},
             "error: collection task 1: X must be a 2-D array of numbers, "
             "got [[1.0, 0.0], [1.0]]"),
            ([row, {"X": [[1.0, {}]], "y": [1.0]}], {},
             "error: collection task 1: X must be a 2-D array of numbers, got entry {}"),
            ([row, {"X": [[1.0, 0.0]], "y": [1.0, 2.0]}], {},
             "error: collection task 1: row count mismatch"),
            # Built in a stack of the two square tasks; named by its place in the file.
            ([row, square, {"X": [[float("nan"), 0.0], [0.0, 1.0]], "y": [1.0, 1.0]}], {},
             "error: collection task 2: task data contains non-finite entries"),
            ([row, square, row, {"X": [[1e-310, 0.0]], "y": [1.0]}], {},
             "error: collection task 3: task data too close to underflow"),
            ([row, square, {"X": [[1.0]], "y": [1.0]}], {},
             "error: tasks disagree on dimension: task 2 has 1, task 0 has 2"),
            # numpy reads strings and true/false as numbers; a collection file may not.
            ([row, {"X": [["1.5", "2"]], "y": [1.0]}], {},
             "error: collection task 1: X must be a 2-D array of numbers, got entry '1.5'"),
            ([row, {"X": [[1.0, 0.0]], "y": ["1"]}], {},
             "error: collection task 1: y must be a 1-D array of numbers, got entry '1'"),
            ([row, {"X": [[1.0, True]], "y": [1.0]}], {},
             "error: collection task 1: X must be a 2-D array of numbers, got entry True"),
            ([row, {"X": [[1.0, 0.0]], "y": [False]}], {},
             "error: collection task 1: y must be a 1-D array of numbers, got entry False"),
            ([row, row], {"w_star": [1.0, "0"]},
             "error: collection w_star must be a 1-D array of numbers, got entry '0'"),
            ([row, row], {"w_star": [True, 0.0]},
             "error: collection w_star must be a 1-D array of numbers, got entry True"),
            # An integer past the float64 range.
            ([row, {"X": [[1.0, 10 ** 400]], "y": [1.0]}], {},
             f"error: collection task 1: X must be within the float64 range, "
             f"got entry {str(10 ** 400)[:40]}\n"),
            ([row, {"X": [[1.0, 0.0]], "y": [-10 ** 400]}], {},
             f"error: collection task 1: y must be within the float64 range, "
             f"got entry {str(-10 ** 400)[:40]}\n"),
            ([row, row], {"w_star": [0.0, 10 ** 400]},
             f"error: collection w_star must be within the float64 range, "
             f"got entry {str(10 ** 400)[:40]}\n"),
            # Its least-squares loss, 0.5 * (1e300**2 + 1e300**2), overflows.
            ([row, {"X": [[1.0, 0.0], [1.0, 0.0]], "y": [1e300, -1e300]}], {},
             "error: collection task 1: task data too large: the least-squares loss overflows"),
            ([row, {"X": [[1.0, 0.0]], "y": [1.0], "w": [0.0]}], {},
             "error: collection task 1: unknown task fields: ['w']"),
            ([row, row], {"M": 2}, "error: unknown collection file fields: ['M']"),
            ([row, [[1.0, 0.0]]], {},
             "error: collection task 1 must be an object with 'X' and 'y'"),
            ([row, {"X": [[]], "y": [1.0]}], {},
             "error: collection task 1: X must be at least 1x1, got shape (1, 0)"),
            ([row, row], {"w_star": [1.0, 0.0, 0.0]}, "error: w_star must have length 2"),
            # All-zero tasks: R = 0, which a CSV row may not hold, under
            # every scheme and schedule kind.
            ([zero, zero], {}, "error: collection R must be > 0, got 0.0: every task is zero"),
            ([zero, zero], {}, "error: collection R must be > 0, got 0.0: every task is zero",
             {"scheme": "unregularized", "schedule": {"kind": "none"}}),
            ([zero, zero], {}, "error: collection R must be > 0, got 0.0: every task is zero",
             {"k_grid": [2], "schedule": {"kind": "custom", "lam": [1.0, 2.0]}})):
        col_path.write_text(json.dumps({"tasks": tasks, **fields}))
        assert run_cli_csv(tmp_path, "col", {**cfg, **dict(*overrides)})[0] == 1
        assert one_line_error(capsys).startswith(message)
    assert calls == []


# Values that a number list or number field of a config or collection file
# may not hold, or may hold only within its range: integers near 2**53, 2**63
# and 2**64 or past float64, floats at the ends of float64, the NaN and
# Infinity literals, other JSON types, and ragged or over-nested lists.
HOSTILE_VALUES = [2 ** 53 - 1, 2 ** 53 + 1, 2 ** 63 - 1, 2 ** 63, -2 ** 63 - 1, 2 ** 64,
                  2 ** 64 + 1, 10 ** 400, -10 ** 400,
                  1e308, -1e308, 1.7976931348623157e308, 5e-324, -0.0, math.nan, math.inf,
                  -math.inf, True, False, "1", None, {}, {"a": [1]},
                  [], [[]], [[1.0], [1.0, 2.0]], [1.0, [1.0]], [[[1.0]]]]
HOSTILE_FILE = {"tasks": [{"X": [[1.0, 0.0]], "y": [1.0]},
                          {"X": [[0.0, 2.0], [1.0, 1.0]], "y": [0.5, 1.0]}],
                "w_star": [0.5, 0.5]}
# Tiny configs with every kind of number list and field; "COLLECTION" stands
# for the collection file's path.
HOSTILE_TEMPLATES = [
    base_config(collection={"path": "COLLECTION"}, k_grid=[2], trials=1,
                schedule={"kind": "custom", "lam": [1.0, 2.0], "eta": [1.0, 0.5]}),
    base_config(collection={"path": "COLLECTION"}, k_grid=[2], trials=1, scheme="budgeted",
                schedule={"kind": "custom", "gamma": [0.1, 0.2], "n_steps": [1, 3]}),
    base_config(k_grid=[2], trials=1, scheme="budgeted",
                schedule={"kind": "fixed-budget", "gamma": 0.5}),
    base_config(collection=PAIRS_COLLECTION, k_grid=[2], trials=1, scheme="budgeted",
                schedule={"kind": "increasing-budget", "n_choice": 2}),
    base_config(k_grid=[2], trials=1, schedule={"kind": "fixed-coefficient"}),
]


def number_slots(node, path=()):
    """The paths to every number (not true or false) and list below ``node``."""
    if path and (isinstance(node, list) or type(node) in (int, float)):
        yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in children:
        yield from number_slots(child, path + (key,))


@st.composite
def hostile_inputs(draw):
    """A template config and the collection file, with one or two numbers or
    lists replaced by hostile values."""
    doc = {"config": draw(st.sampled_from(HOSTILE_TEMPLATES)), "file": HOSTILE_FILE}
    doc = json.loads(json.dumps(doc))  # a deep copy
    paths = draw(st.lists(st.sampled_from(list(number_slots(doc))), min_size=1, max_size=2,
                          unique=True))
    for path in sorted(paths, key=len, reverse=True):  # a list after its entries
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(st.sampled_from(HOSTILE_VALUES))
    return doc["config"], doc["file"]


def with_file(fields):
    """The collection file with ``fields`` replaced."""
    return {**HOSTILE_FILE, **fields}


@settings(max_examples=150, deadline=None)
@given(hostile_inputs())
# Each ended in a traceback: an OverflowError for a 401-digit integer in a
# collection file, a TypeError from ln k for a k_grid entry past int64, and a
# RuntimeWarning (an error under pytest) where a least-squares loss, a
# generated matrix or its targets overflow.
@example((HOSTILE_TEMPLATES[0], with_file({"tasks": [{"X": [[10 ** 400, 0.0]], "y": [1.0]}]})))
@example((HOSTILE_TEMPLATES[1], with_file({"tasks": [{"X": [[1.0, 0.0]], "y": [10 ** 400]}]})))
@example((HOSTILE_TEMPLATES[0], with_file({"w_star": [0.5, -10 ** 400]})))
@example(({**HOSTILE_TEMPLATES[4], "k_grid": [2 ** 64]}, HOSTILE_FILE))
@example(({**HOSTILE_TEMPLATES[2], "k_grid": [10 ** 400]}, HOSTILE_FILE))
@example((HOSTILE_TEMPLATES[0], with_file({"tasks": [{"X": [[1.0, 0.0], [1.0, 0.0]],
                                                      "y": [1e300, -1e300]}]})))
@example(({**HOSTILE_TEMPLATES[4], "collection": {**GAUSSIAN_COLLECTION, "radius": 1e308}},
          HOSTILE_FILE))
# At the largest radius the scaled X (seed 1) or the targets (seed 7) overflow.
@example(({**HOSTILE_TEMPLATES[4], "collection": {**GAUSSIAN_COLLECTION, "seed": 1,
                                                  "radius": 1.7976931348623157e308}},
          HOSTILE_FILE))
@example(({**HOSTILE_TEMPLATES[4], "collection": {**GAUSSIAN_COLLECTION,
                                                  "radius": 1.7976931348623157e308}},
          HOSTILE_FILE))
@example(({**HOSTILE_TEMPLATES[3], "collection": {**PAIRS_COLLECTION,
                                                  "radius": 1.7976931348623157e308}},
          HOSTILE_FILE))
def test_no_json_input_ends_in_a_traceback(inputs):
    """Whatever a config or collection file holds, ``contreg run`` exits 0, or
    exits 1 with one ``error:`` line; it never raises."""
    config, collection = inputs
    with tempfile.TemporaryDirectory() as tmp:
        col_path, cfg_path = os.path.join(tmp, "col.json"), os.path.join(tmp, "cfg.json")
        with open(col_path, "w") as fh:
            json.dump(collection, fh)
        with open(cfg_path, "w") as fh:
            fh.write(json.dumps(config).replace('"COLLECTION"', json.dumps(col_path)))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", cfg_path, "--out", os.path.join(tmp, "o.csv")])
    err = err.getvalue()
    if code == 0:
        assert err == ""
    else:
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, (code, err)


def strict_json(text):
    """``text`` parsed as JSON that holds no NaN or Infinity."""
    def reject(name):
        raise AssertionError(f"not strict JSON: {name}")
    return json.loads(text, parse_constant=reject)


def test_summaries_of_huge_losses_stay_finite(tmp_path, capsys):
    """Losses near 1e200, whose squared deviations overflow, still get a
    finite mean and standard error from ``contreg run`` and ``contreg fit``,
    and ``fit`` prints strict JSON."""
    rng = np.random.default_rng(3)
    col_path = tmp_path / "tasks.json"
    col_path.write_text(json.dumps({"tasks": [
        {"X": [rng.standard_normal(3).tolist()], "y": [v]}
        for v in (rng.uniform(0.5, 2.0, 6) * 1e100).tolist()]}))
    code, path = run_cli_csv(tmp_path, "huge", base_config(
        collection={"path": str(col_path)}, k_grid=[2, 4, 8], trials=20))
    out = capsys.readouterr().out
    assert code == 0 and "inf" not in out and "nan" not in out, out
    table = harness.read_csv(path)
    with np.errstate(over="ignore"):
        assert not np.isfinite(table.avg_loss.std()), "the plain formula no longer overflows"
    assert cli.main(["fit", str(path)]) == 0
    points = strict_json(capsys.readouterr().out)["points"]
    assert len(points) == 3
    for p in points:
        assert_exact_within(table.avg_loss[table.k == p["k"]], p["mean"], p["se"])


@pytest.mark.parametrize("command", ["fit", "adversarial"])
def test_json_output_is_strict(tmp_path, capsys, monkeypatch, command):
    """A NaN or infinity in a report is a one-line error, not JSON output;
    nothing is written to ``--out``."""
    out = tmp_path / "report.json"
    if command == "fit":
        _, path = run_cli_csv(tmp_path, "rows", base_config(k_grid=[4, 8, 16]))
        monkeypatch.setattr(harness, "fit_rate", lambda points: harness.RateFit(
            slope=math.nan, intercept=0.0, residual=0.0, n_points=3))
        argv = ["fit", str(path)]
    else:
        monkeypatch.setattr(harness, "run_seen_task_floor",
                            lambda *args, **kw: {"passed": True,
                                                 "empirical_probability": math.inf})
        argv = ["adversarial", "--scenario", "seen-task", "--k", "16"]
    capsys.readouterr()
    assert cli.main(argv + ["--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert err.startswith("error: Out of range float values are not JSON compliant")
    assert err.count("\n") == 1, err


def test_file_that_is_not_json_is_an_error_naming_it(tmp_path, capsys):
    """A truncated config or collection file is a one-line error, exit 1,
    that names the file and where its JSON breaks off."""
    cfg_path = tmp_path / "cut.json"
    cfg_path.write_text('{"scheme":\n')
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a.csv")]) == 1
    assert one_line_error(capsys) == (f"error: {cfg_path}: Expecting value: "
                                      "line 2 column 1 (char 11)\n")
    col_path = tmp_path / "tasks.json"
    col_path.write_text('{"tasks": [{"X": [[1.0]], "y": [1.0]}')
    assert run_cli_csv(tmp_path, "col", base_config(collection={"path": str(col_path)}))[0] == 1
    assert one_line_error(capsys) == (f"error: {col_path}: Expecting ',' delimiter: "
                                      "line 1 column 38 (char 37)\n")
    assert not (tmp_path / "a.csv").exists() and not (tmp_path / "col.csv").exists()


def test_a_repeated_json_key_is_an_error_naming_it(tmp_path, capsys, collection_builds,
                                                  cell_builds):
    """A key repeated within one object of a config or a collection file is a
    one-line error, exit 1, naming the file and the key, before anything is
    built or drawn: JSON itself would keep the key's last value."""
    cfg_path, col_path = tmp_path / "cfg.json", tmp_path / "tasks.json"
    col_path.write_text('{"tasks": [{"X": [[1.0]], "y": [1.0]}, '
                        '{"X": [[2.0]], "y": [1.0], "y": [2.0]}]}')
    config = json.dumps(base_config())
    for text, path, key in (
            (config.replace('"trials": 2', '"trials": 5, "trials": 7'), cfg_path, "trials"),
            (config.replace('"seed": 7', '"seed": 7, "seed": 8'), cfg_path, "seed"),
            (config.replace('"kind": "increasing-coefficient"',
                            '"kind": "increasing-coefficient", "kind": "fixed-coefficient"'),
             cfg_path, "kind"),
            (json.dumps(base_config(collection={"path": str(col_path)})), col_path, "y")):
        cfg_path.write_text(text)
        assert cli.main(["run", "--config", str(cfg_path), "--out",
                         str(tmp_path / "a.csv")]) == 1, text
        assert one_line_error(capsys) == f"error: {path}: repeated key {key!r}\n"
    assert collection_builds == [] and cell_builds == []
    assert not (tmp_path / "a.csv").exists()


def test_a_null_array_is_rejected_by_name(tmp_path, capsys, cell_builds):
    """A collection file's w_star and a custom schedule's arrays are read
    whenever their key is present, so a null is rejected by name as any other
    value that is not an array of numbers; only an absent eta is all ones."""
    col_path = tmp_path / "tasks.json"
    col_path.write_text(json.dumps({"tasks": [{"X": [[1.0, 0.0]], "y": [1.0]}],
                                    "w_star": None}))
    numbers = "must be a 1-D array of numbers, got None"
    for cfg, message in (
            (base_config(collection={"path": str(col_path)}), f"collection w_star {numbers}"),
            (base_config(scheme="igd-of-regularized", k_grid=[3],
                         schedule={"kind": "custom", "lam": [1.0] * 3, "eta": None}),
             f"custom schedule: eta {numbers}"),
            (base_config(k_grid=[3], schedule={"kind": "custom", "lam": None}),
             f"custom schedule: lam {numbers}"),
            (base_config(scheme="budgeted", k_grid=[3],
                         schedule={"kind": "custom", "gamma": None, "n_steps": [1] * 3}),
             f"custom schedule: gamma {numbers}"),
            (base_config(scheme="budgeted", k_grid=[3],
                         schedule={"kind": "custom", "gamma": [0.1] * 3, "n_steps": None}),
             "custom schedule: n_steps must be a 1-D array of integers, got None")):
        code, path = run_cli_csv(tmp_path, "null", cfg)
        assert code == 1 and not path.exists(), cfg
        assert one_line_error(capsys) == f"error: {message}\n"
    assert cell_builds == []
    cfg = base_config(scheme="igd-of-regularized", k_grid=[3],
                      schedule={"kind": "custom", "lam": [1.0] * 3})
    assert harness.parse_config(cfg).schedules[0].eta.tolist() == [1.0] * 3


def test_non_finite_result_names_its_trial(tmp_path, capsys):
    col_path = tmp_path / "col.json"
    cfg = base_config(collection={"path": str(col_path)}, scheme="unregularized",
                      schedule={"kind": "none"})
    seed = derived_seed(99, 4, 0)
    for rows in (1, 3):  # also with unequal row counts
        col_path.write_text(json.dumps({"tasks": [
            {"X": [[1e200]], "y": [1e200]},
            {"X": [[1e200]] * rows, "y": [-1e200] * rows}]}))
        assert run_cli_csv(tmp_path, "inf", cfg)[0] == 1
        assert f"non-finite result at k=4, trial=0, seed={seed}" in one_line_error(capsys)


def test_fit_rejects_rows_of_different_sweeps(tmp_path, capsys):
    _, a = run_cli_csv(tmp_path, "a", base_config(k_grid=[4, 8, 16], trials=3))
    _, b = run_cli_csv(tmp_path, "b", base_config(k_grid=[4, 8, 16], trials=3,
                                                  scheme="igd-of-regularized"))
    mixed = tmp_path / "mixed.csv"
    mixed.write_text(a.read_text() + "".join(b.read_text().splitlines(True)[1:]))
    capsys.readouterr()
    assert cli.main(["fit", str(mixed)]) == 1
    assert "rows mix 2 sweeps" in one_line_error(capsys)
    assert cli.main(["fit", str(a)]) == 0


def test_read_csv_reports_the_first_bad_line_in_file_order(tmp_path):
    """A row out of range and a row that does not parse: whichever comes first
    is reported, and either is reported before a repeated (k, trial) further
    up the file."""
    good = tmp_path / "good.csv"
    cfg = harness.parse_config(base_config(k_grid=[4, 8], trials=3))
    harness.write_csv(harness.run_experiment(cfg), good)
    head, *rows = good.read_text().splitlines(True)
    fields = harness.CSV_FIELDS

    def edit(line, name, value):
        rec = line[:-1].split(",")
        rec[fields.index(name)] = value
        return ",".join(rec) + "\n"

    out_of_range = [("k", "0", "k must be >= 1 and < 2**63, got 0"),
                    ("seed", str(2 ** 70), f"seed must be >= 0 and < 2**64, got {2 ** 70}"),
                    ("seen_loss", "inf", "seen_loss must be finite and >= 0, got inf"),
                    ("dist_to_wstar", "-0.5", "dist_to_wstar must be finite and >= 0, got -0.5")]
    unparsable = [("trial", "x", "invalid literal for int() with base 10: 'x'"),
                  ("R", "-1", "R must be finite and > 0, got -1.0"),
                  ("scheme", "a,b", "expected 13 fields, got 14"),
                  # csv cannot split a line with a field past its size limit.
                  ("scheme", "x" * (csv.field_size_limit() + 1),
                   f"field larger than field limit ({csv.field_size_limit()})")]
    path = tmp_path / "bad.csv"
    for (name, value, message), (other, bad, other_message) in itertools.product(
            out_of_range, unparsable):
        for first, second, want in (((name, value), (other, bad), message),
                                    ((other, bad), (name, value), other_message)):
            lines = [head, rows[0], rows[0], edit(rows[1], *first), rows[2],
                     edit(rows[3], *second)] + rows[4:]
            path.write_text("".join(lines))
            with pytest.raises(ValueError) as err:
                harness.read_csv(path)
            assert str(err.value) == f"{path}, line 4: {want}"
    # Two bad fields in one row: the first in field order.
    for (a, b), want in (((("avg_loss", "nan"), ("trial", "-1")),
                          "trial must be >= 0 and < 2**63, got -1"),
                         ((("dist_to_wstar", "-1"), ("degradation", "nan")),
                          "degradation must be finite, got nan")):
        path.write_text(head + edit(edit(rows[0], *a), *b))
        with pytest.raises(ValueError) as err:
            harness.read_csv(path)
        assert str(err.value) == f"{path}, line 2: {want}"


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_record_that_spans_lines_is_reported_on_its_last_line(tmp_path, end):
    """A quoted field with a line break makes one record of two lines, and
    ``read_csv`` numbers lines as ``csv`` counts them: a bad value in that
    record is on its last line, and a bad row after it one line further on,
    with lines ended as ``csv`` ends them."""
    good = tmp_path / "good.csv"
    harness.write_csv(harness.run_experiment(harness.parse_config(
        base_config(k_grid=[4, 8], trials=3))), good)
    head, *rows = good.read_text().splitlines()
    fields = harness.CSV_FIELDS

    def edit(line, **values):
        rec = line.split(",")
        for name, value in values.items():
            rec[fields.index(name)] = value
        return ",".join(rec)

    spanning = edit(rows[1], scheme=f'"two{end}lines"')
    path = tmp_path / "spanning.csv"
    for lines, line in (([edit(spanning, k="0")] + rows[2:], 4),
                        ([spanning, edit(rows[2], k="0")] + rows[3:], 5)):
        path.write_bytes(end.join([head, rows[0]] + lines + [""]).encode())
        with pytest.raises(ValueError) as err:
            harness.read_csv(path)
        assert str(err.value) == f"{path}, line {line}: k must be >= 1 and < 2**63, got 0"


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_late_byte_that_is_not_utf8_is_named_by_line_and_offset(tmp_path, capsys, end):
    """A byte that is not UTF-8 after 1001 good lines is one error line naming
    its line and its offset in the file (not its place in a chunk of the
    file), with lines ended as ``csv`` ends them."""
    good = tmp_path / "good.csv"
    harness.write_csv(harness.run_experiment(harness.parse_config(
        base_config(k_grid=[4, 8], trials=500))), good)
    lines = [line[:-1] + end for line in good.read_text().splitlines(True)]
    assert len(lines) == 1001
    prefix = "".join(lines).encode()
    late = tmp_path / "late.csv"
    late.write_bytes(prefix + b"\xff" + lines[1].encode())
    assert cli.main(["fit", str(late)]) == 1
    assert one_line_error(capsys) == (f"error: {late}, line 1002: byte 0xff at offset "
                                      f"{len(prefix)} is not UTF-8\n")


# "TASKS" stands for the path of a collection file with a bad task.
@pytest.mark.parametrize("collection, message", [
    ({**PAIRS_COLLECTION, "d": 3}, "d must be >= 4 to hold 2 disjoint planes"),
    ({"path": "TASKS"}, "collection task 0: y must be a 1-D array of numbers, got entry True"),
], ids=["aligned-pairs-too-narrow", "file-with-a-bad-task"])
def test_collection_build_errors_are_config_errors(tmp_path, collection, message):
    """A collection that its generator or its file's reader rejects is a
    ConfigError from ``parse_config``, in the build's own words."""
    tasks = tmp_path / "tasks.json"
    tasks.write_text(json.dumps({"tasks": [{"X": [[1.0]], "y": [True]}]}))
    if "path" in collection:
        collection = {"path": str(tasks)}
    with pytest.raises(ConfigError) as err:
        harness.parse_config(base_config(collection=collection))
    assert str(err.value) == message


def test_overflowing_radius_is_rejected_before_work(tmp_path, capsys, monkeypatch):
    """A radius whose square overflows, or falls below the smallest normal
    float, is a one-line error naming the schedule kind."""
    calls = []
    monkeypatch.setattr(harness, "run_batch", lambda *a, **kw: calls.append(a))
    col_path = tmp_path / "col.json"
    for tasks, message in (([{"X": [[1e200]], "y": [1.0]}, {"X": [[1.0]], "y": [1.0]}],
                            "R^2 is not finite"),
                           ([{"X": [[1e-160]], "y": [1.0]}, {"X": [[1e-161]], "y": [1.0]}],
                            "R^2 is below the smallest normal float")):
        col_path.write_text(json.dumps({"tasks": tasks}))
        for scheme, schedule in (("regularized", {"kind": "increasing-coefficient"}),
                                 ("regularized", {"kind": "fixed-coefficient"}),
                                 ("budgeted", {"kind": "increasing-budget", "n_choice": 1}),
                                 ("budgeted", {"kind": "fixed-budget", "gamma": 0.5})):
            code, path = run_cli_csv(tmp_path, schedule["kind"], base_config(
                collection={"path": str(col_path)}, scheme=scheme, schedule=schedule,
                k_grid=[4, 8]))
            assert code == 1 and not path.exists()
            err = one_line_error(capsys)
            assert f"{schedule['kind']} schedule: {message}" in err, err
    assert calls == []


def test_write_csv_failure_keeps_the_earlier_file(tmp_path, monkeypatch):
    table = harness.run_experiment(harness.parse_config(base_config(trials=3)))
    path = tmp_path / "out.csv"
    harness.write_csv(table, path)
    before = path.read_bytes()

    def failing_open(*args, **kwargs):  # its file fails in the first write of rows
        fh = open(*args, **kwargs)
        write, calls = fh.write, itertools.count()

        def failing_write(text):
            if next(calls) == 1:
                raise OSError("disk full")
            return write(text)

        fh.write = failing_write
        return fh

    monkeypatch.setattr(harness, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="disk full"):
        harness.write_csv(table, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    missing = tmp_path / "missing" / "out.csv"
    with pytest.raises(FileNotFoundError) as exc:
        harness.write_csv(table, missing)
    assert exc.value.filename == str(missing)


@pytest.mark.parametrize("command", ["fit", "adversarial"])
def test_cli_out_failure_keeps_the_earlier_file(tmp_path, monkeypatch, capsys, command):
    """``fit --out`` and ``adversarial --out`` write as ``write_csv`` does: a
    write that fails part way leaves the earlier file and no temporary file."""
    code, csv_path = run_cli_csv(tmp_path, "sweep", base_config(k_grid=[4, 8, 16]))
    assert code == 0
    out = tmp_path / "out.json"
    out.write_text("earlier\n")
    names = sorted(p.name for p in tmp_path.iterdir())

    def failing_open(file, mode="r", *args, **kwargs):  # its writes stop half way
        fh = open(file, mode, *args, **kwargs)
        if "r" not in mode:
            write = fh.write

            def failing_write(text):
                write(text[:len(text) // 2])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            fh.write = failing_write
        return fh

    for module in (harness, cli):
        monkeypatch.setattr(module, "open", failing_open, raising=False)
    argv = {"fit": ["fit", str(csv_path)],
            "adversarial": ["adversarial", "--scenario", "seen-task", "--k", "16",
                            "--trials", "5"]}[command]
    capsys.readouterr()
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert os.strerror(errno.ENOSPC) in one_line_error(capsys)
    assert out.read_text() == "earlier\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == names


def test_gaussian_sweep_builds_no_task_objects(tmp_path, monkeypatch):
    """A sweep over a 400-task Gaussian collection (the benchmark's wide
    sweep) reads only its collection's stacks: ``run``, ``fit`` and
    ``adversarial``, the any-algorithm probe included, construct no
    RegressionTask.  The sweep's losses are those of the same draw rescaled
    by the largest per-matrix 2-norm and decomposed again, to 1e-12 relative
    to the loss or to ``conftest.loss_scale``."""
    made = []
    init = RegressionTask.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RegressionTask, "__init__", counted)
    spec = {"d": 10, "M": 400, "n": 5, "radius": 1.0, "seed": 7}
    cfg = base_config(collection=spec, scheme="igd-of-budgeted",
                      schedule={"kind": "increasing-budget", "n_choice": 2},
                      ordering="without-replacement", k_grid=[4, 8, 16], trials=200)
    code, path = run_cli_csv(tmp_path, "wide", cfg)
    assert code == 0 and cli.main(["fit", str(path)]) == 0
    assert made == []
    # The adversary's collections are stacks too, and its probe steps on them.
    for scenario in ("seen-task", "any-algorithm"):
        assert cli.main(["adversarial", "--scenario", scenario, "--k", "64",
                         "--trials", "50"]) == 0
        assert made == []
    monkeypatch.undo()

    rng = stream(spec["seed"])
    w_star = rng.standard_normal(spec["d"])
    mats = rng.standard_normal((spec["M"], spec["n"], spec["d"]))
    mats *= spec["radius"] / np.linalg.norm(mats, 2, axis=(1, 2)).max()
    normed = stacked_collection(mats, mats @ w_star, w_star)
    got = harness.read_csv(path)
    want = harness.run_experiment(dataclasses.replace(harness.parse_config(cfg),
                                                      collection=normed))
    # From w_0 = 0 every step of a realizable sweep is non-expansive towards
    # w_star, so no iterate is longer than 2 ||w_star||.
    scale = loss_scale(normed, 2 * float(np.linalg.norm(w_star)))
    for name in ("avg_loss", "seen_loss", "degradation"):
        a, b = getattr(got, name), getattr(want, name)
        assert (np.abs(a - b) <= 1e-12 * np.maximum(np.maximum(abs(a), abs(b)), scale)).all()
    assert abs(got.R - want.R) <= np.spacing(1.0)


ACCEPTANCE_PAIRS = (("regularized", {"kind": "fixed-coefficient"}),
                    ("regularized", {"kind": "increasing-coefficient"}),
                    ("budgeted", {"kind": "fixed-budget", "gamma": 0.5}),
                    ("budgeted", {"kind": "increasing-budget", "n_choice": 1}),
                    ("unregularized", {"kind": "none"}))


@pytest.mark.parametrize("scheme, schedule", ACCEPTANCE_PAIRS,
                         ids=[f"{scheme}-{sch['kind']}" for scheme, sch in ACCEPTANCE_PAIRS])
def test_scheme_runner_probe_is_deterministic(scheme, schedule):
    """The adversary probes a learner once, which is exact only because a
    ``scheme_runner`` probe returns the same bytes on every call."""
    col = new_collection([new_task([[1.0, 0.5]], [1.0])])
    probe = harness.scheme_runner(scheme, schedule)
    runs = [probe(col, 16), probe(col, 16), harness.scheme_runner(scheme, schedule)(col, 16)]
    assert len({w.tobytes() for w in runs}) == 1
    assert runs[0].any()


PROBE_PAIRS = ACCEPTANCE_PAIRS + (("igd-of-regularized", {"kind": "fixed-coefficient"}),
                                  ("igd-of-budgeted", {"kind": "fixed-budget", "gamma": 0.5}))


def stepped_probe(scheme, schedule, col, k):
    """What a ``scheme_runner`` probe computes by stepping: one ``run_batch``
    trial of k steps on the collection's first task, from w = 0."""
    spec = harness.build_schedule(schedule, col.radius, k)
    (run,) = schemes.run_batch(col, [(np.ones((1, k), np.int64), spec)], scheme)
    return run.final[0]


@pytest.mark.parametrize("scheme, schedule", PROBE_PAIRS,
                         ids=[f"{scheme}-{sch['kind']}" for scheme, sch in PROBE_PAIRS])
def test_probe_shortcut_is_the_stepped_bytes(monkeypatch, scheme, schedule):
    """On the any-algorithm probe's task (e_1, 0) the start w = 0 already
    solves it, so a ``scheme_runner`` probe returns the start without calling
    ``run_batch``: the bytes of stepping the trial.  Its schedule is still
    built, so a k the schedule rejects fails as before.  A task with a
    nonzero target still steps, to the same bytes."""
    stepped = []

    def counting(*args, **kwargs):
        stepped.append(args[1][0][0].shape)
        return schemes.run_batch(*args, **kwargs)

    monkeypatch.setattr(harness, "run_batch", counting)
    probe = harness.scheme_runner(scheme, schedule)
    solved = adversarial.any_alg_probe_collection()
    for k in (2, 16, 64, 256):
        try:
            want = stepped_probe(scheme, schedule, solved, k)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                probe(solved, k)
            continue
        got = probe(solved, k)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert stepped == []
    col = new_collection([new_task([[1.0, 0.5]], [1.0])])
    got = probe(col, 16)
    assert stepped == [(1, 16)]
    assert got.tobytes() == stepped_probe(scheme, schedule, col, 16).tobytes()


def test_any_alg_mean_probes_its_learner_once(monkeypatch):
    calls = []
    runner = harness.scheme_runner

    def counting_runner(*args, **kwargs):
        probe = runner(*args, **kwargs)

        def counted(col, k):
            calls.append((col.M, k))
            return probe(col, k)

        return counted

    monkeypatch.setattr(harness, "scheme_runner", counting_runner)
    for scheme, schedule in ACCEPTANCE_PAIRS:
        calls.clear()
        harness.run_any_alg_mean(16, trials=10, base_seed=3, scheme=scheme, schedule=schedule)
        assert calls == [(1, 16)]


def test_a_cell_is_drawn_once_per_base_seed(cell_builds):
    """Runs of a cell of the latest base seed share its arrays; a new base
    seed drops them, so sampling an earlier seed again draws it again."""
    first = harness.kept_orderings(WITH_REPLACEMENT, 9, 6, 5, 1)
    again = harness.kept_orderings(WITH_REPLACEMENT, 9, 6, 5, 1)
    assert all(a is b for a, b in zip(first, again))
    harness.kept_orderings(WITH_REPLACEMENT, 9, 6, 4, 1)
    harness.kept_orderings(WITHOUT_REPLACEMENT, 9, 6, 5, 1)
    assert cell_builds == [(1, 6, 5), (1, 6, 4), (1, 6, 5)]
    harness.kept_orderings(WITH_REPLACEMENT, 9, 6, 5, 2)
    rebuilt = harness.kept_orderings(WITH_REPLACEMENT, 9, 6, 5, 1)
    assert cell_builds[3:] == [(2, 6, 5), (1, 6, 5)]
    for a, b in zip(first, rebuilt):
        assert a is not b and a.tobytes() == b.tobytes()


def test_the_acceptance_pairs_draw_each_k_cell_once(tmp_path, cell_builds):
    """The five pairs of one sweep share its ordering cells, and a pair run on
    shared cells writes the bytes it writes on cells drawn for it alone."""
    def csv_bytes(scheme, schedule, fresh):
        if fresh:
            harness._cells.clear()
        cfg = harness.parse_config(base_config(
            collection=PAIRS_COLLECTION, scheme=scheme, schedule=schedule,
            k_grid=[4, 8, 16], trials=6))
        path = tmp_path / f"{scheme}-{schedule['kind']}-{fresh}.csv"
        harness.write_csv(harness.run_experiment(cfg), path)
        return path.read_bytes()

    shared = [csv_bytes(*pair, fresh=False) for pair in ACCEPTANCE_PAIRS]
    assert cell_builds == [(99, 4, 6), (99, 8, 6), (99, 16, 6)]
    assert shared == [csv_bytes(*pair, fresh=True) for pair in ACCEPTANCE_PAIRS]
    assert len(cell_builds) == 3 + 3 * len(ACCEPTANCE_PAIRS)


def test_a_generator_spec_is_built_once(tmp_path, collection_builds):
    """Every call naming one generator spec, through parse_config or a whole
    ``contreg run`` too, returns the collection its first call built; naming
    the default generator is the same spec."""
    col = harness.build_collection(GAUSSIAN_COLLECTION)
    assert harness.build_collection(dict(GAUSSIAN_COLLECTION)) is col
    assert harness.build_collection({**GAUSSIAN_COLLECTION, "generator": "gaussian"}) is col
    assert harness.parse_config(base_config()).collection is col
    assert harness.parse_config(base_config(k_grid=[2, 5], trials=3)).collection is col
    for name in ("a", "b"):
        assert run_cli_csv(tmp_path, name, base_config())[0] == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert collection_builds == ["gaussian"]


@pytest.mark.parametrize("spec, changes", [
    (GAUSSIAN_COLLECTION, [("d", 5), ("M", 4), ("n", 3), ("radius", 2.0), ("radius", 1),
                           ("seed", 8)]),
    (PAIRS_COLLECTION, [("d", 6), ("pairs", 1), ("angle", 0.2), ("radius", 2.0),
                        ("radius", 1), ("seed", 8)]),
], ids=["gaussian", "aligned-pairs"])
def test_a_changed_field_is_a_new_build(spec, changes, collection_builds):
    """Any one field changed, in value or in JSON type (radius 1 against
    1.0), names another spec, built anew."""
    gen = spec.get("generator", "gaussian")
    for name, value in changes:
        collection_builds.clear()
        col = harness.build_collection(spec)
        assert harness.build_collection({**spec, name: value}) is not col
        assert collection_builds == [gen, gen], (name, value)


def test_one_generated_collection_is_kept(collection_builds):
    """Specs A, B, then A build A twice: a new spec drops the kept
    collection, so the process holds at most one; the rebuild holds the
    same bits."""
    a = harness.build_collection(GAUSSIAN_COLLECTION)
    b = harness.build_collection(PAIRS_COLLECTION)
    again = harness.build_collection(GAUSSIAN_COLLECTION)
    assert collection_builds == ["gaussian", "aligned-pairs", "gaussian"]
    kept = [col for values in harness._collections.values() for col in values.values()]
    assert b is not a and again is not a and kept == [again]
    assert again.stacks[0].X.tobytes() == a.stacks[0].X.tobytes()


def test_a_collection_file_is_read_on_every_call(tmp_path, collection_builds):
    """A file can change between two calls naming it, so each call reads it."""
    path = tmp_path / "col.json"
    spec = {"path": str(path)}
    seen = []
    for X, y in (([[1.0, 0.0]], [1.0]), ([[2.0, 0.0]], [3.0])):
        path.write_text(json.dumps({"tasks": [{"X": X, "y": y}]}))
        for col in (harness.build_collection(spec),
                    harness.parse_config(base_config(collection=spec)).collection):
            seen.append((col.tasks[0].X.tolist(), col.tasks[0].y.tolist()))
    assert seen == [([[1.0, 0.0]], [1.0])] * 2 + [([[2.0, 0.0]], [3.0])] * 2
    assert collection_builds == []


@pytest.mark.parametrize("spec", [GAUSSIAN_COLLECTION, PAIRS_COLLECTION],
                         ids=["gaussian", "aligned-pairs"])
def test_every_array_of_a_kept_collection_is_read_only(spec):
    """Every run of a spec shares its collection, so none may write to it:
    its stacks, w_star, row bases, stacked rows and every field of its tasks
    are read-only."""
    col = harness.build_collection(spec)
    arrays = [col.w_star, *col.stacked_rows, *vars(col.row_bases).values()]
    for stack in col.stacks:
        arrays += vars(stack).values()
    for t in col.tasks:
        arrays += [t.X, t.y, t.pinv_solution, *t.svd[:3], t.pinv, *t.row_basis]
    assert len(arrays) > 10
    for a in arrays:
        assert isinstance(a, np.ndarray) and not a.flags.writeable


def test_runs_on_a_kept_collection_write_the_bytes_of_a_fresh_one(tmp_path,
                                                                   collection_builds):
    """The five acceptance pairs share one collection, and each writes the
    CSV bytes it writes on a collection built for it alone."""
    def csv_bytes(scheme, schedule, fresh):
        if fresh:
            harness._collections.clear()
        cfg = base_config(collection=PAIRS_COLLECTION, scheme=scheme, schedule=schedule,
                          k_grid=[4, 8, 16], trials=6)
        code, path = run_cli_csv(tmp_path, f"{scheme}-{schedule['kind']}-{fresh}", cfg)
        assert code == 0
        return path.read_bytes()

    kept = [csv_bytes(*pair, fresh=False) for pair in ACCEPTANCE_PAIRS]
    assert collection_builds == ["aligned-pairs"]
    assert kept == [csv_bytes(*pair, fresh=True) for pair in ACCEPTANCE_PAIRS]
    assert collection_builds == ["aligned-pairs"] * (1 + len(ACCEPTANCE_PAIRS))


def test_the_lower_bound_scenarios_share_their_cell(cell_builds):
    """At one k both constructions have k tasks, so the seen-task floor and
    the any-algorithm mean of every acceptance pair draw one cell."""
    harness.run_seen_task_floor(16, trials=20, base_seed=5)
    for scheme, schedule in ACCEPTANCE_PAIRS:
        harness.run_any_alg_mean(16, trials=20, base_seed=5, scheme=scheme, schedule=schedule)
    assert cell_builds == [(5, 16, 20)]


def test_kept_scenario_collections_change_no_report(monkeypatch, collection_builds):
    """Criterion 7's sequence and then the seen-task floor at three k write
    the same reports whether each call builds its collections or finds them
    kept.  Kept, the scenarios build each seen-task collection once per k,
    each any-algorithm collection once per (k, sign) and the probe's
    one-task collection once, as one group; a generator spec evicts it."""
    builds = []
    for name in ("seen_task_lb_collection", "any_alg_collection", "any_alg_probe_collection"):
        def counting(*args, build=getattr(harness, name), name=name):
            builds.append((name, *args))
            return build(*args)

        monkeypatch.setattr(harness, name, counting)

    def reports(fresh):
        out = []
        for scheme, schedule in ACCEPTANCE_PAIRS:
            for k in (16, 64):
                if fresh:
                    harness._collections.clear()
                out.append(harness.run_any_alg_mean(k, trials=20, base_seed=7, scheme=scheme,
                                                    schedule=schedule))
        for k in (16, 64, 256):
            if fresh:
                harness._collections.clear()
            out.append(harness.run_seen_task_floor(k, trials=20, base_seed=7))
        return json.dumps(out)

    fresh = reports(fresh=True)
    assert len(builds) == 2 * 10 + 3
    builds.clear()
    harness._collections.clear()
    assert reports(fresh=False) == fresh
    assert builds == [("any_alg_probe_collection",), ("any_alg_collection", 16, 1.0),
                      ("any_alg_collection", 64, 1.0), ("seen_task_lb_collection", 16),
                      ("seen_task_lb_collection", 64), ("seen_task_lb_collection", 256)]
    assert list(harness._collections) == [harness._SCENARIOS]

    builds.clear()
    harness.build_collection(GAUSSIAN_COLLECTION)
    assert harness._SCENARIOS not in harness._collections
    harness.run_seen_task_floor(16, trials=20, base_seed=7)
    harness.build_collection(GAUSSIAN_COLLECTION)
    assert builds == [("seen_task_lb_collection", 16)]
    assert collection_builds == ["gaussian", "gaussian"]


def test_adversarial_never_runs_the_literal_rules(monkeypatch, capsys):
    """Both scenarios step on ``run_batch`` (the any-algorithm probe returns
    its start, which solves the probe's task), whose budgeted step costs the
    same for any inner budget N; the literal rules, whose ``budgeted_step``
    loops N times, are the tests' oracle."""
    def literal(*args, **kwargs):
        raise AssertionError("a literal update rule ran")

    for name in ("regularized_step", "budgeted_step", "unregularized_step", "igd_step"):
        monkeypatch.setattr(schemes, name, literal)
    for scenario, (scheme, kind, option) in itertools.product(
            ("seen-task", "any-algorithm"),
            (("regularized", "increasing-coefficient", []),
             ("budgeted", "fixed-budget", ["--gamma", "1e-6"]),
             ("budgeted", "increasing-budget", ["--n-choice", "3"]),
             ("unregularized", "none", []),
             ("igd-of-regularized", "fixed-coefficient", []),
             ("igd-of-budgeted", "fixed-budget", ["--gamma", "0.5"]))):
        assert cli.main(["adversarial", "--scenario", scenario, "--k", "16", "--trials",
                         "20", "--scheme", scheme, "--schedule", kind, *option]) == 0
        capsys.readouterr()


@pytest.mark.parametrize("k", [16, 64])
def test_scenario_reports_state_their_claims(monkeypatch, k):
    """Each runner reports the claim it checks: Pr[seen-task loss >= 1/(144 k)]
    against the floor 0.15, and the any-algorithm mean excess against
    1/(64 k), with the sign the adversary planted in its collection."""
    rep = harness.run_seen_task_floor(k, trials=50, base_seed=1)
    assert rep["threshold"] == 1.0 / (144 * k) and rep["floor"] == 0.15
    assert rep["passed"] == (rep["empirical_probability"] >= 0.15)

    built = []

    def recording(*args):
        built.append(adversarial.any_alg_collection(*args))
        return built[-1]

    monkeypatch.setattr(harness, "any_alg_collection", recording)
    # The learner's second coordinate (None: the scheme's own probe, which
    # stays at 0) and the sign the adversary answers it with.
    for second, sign in ((None, 1.0), (0.0, 1.0), (-2.0, 1.0), (2.0, -1.0)):
        if second is not None:
            monkeypatch.setattr(harness, "scheme_runner",
                                lambda *args: lambda col, kk: np.array([0.0, second]))
        harness._collections.clear()  # so that each run builds the collection it reports on
        rep = harness.run_any_alg_mean(k, trials=50, base_seed=1)
        assert rep["threshold"] == 1.0 / (64 * k)
        assert rep["adversary_sign"] == built[-1].w_star[1] == sign
        assert rep["passed"] == (rep["mean_excess"] >= rep["threshold"])
    assert len(built) == 4
