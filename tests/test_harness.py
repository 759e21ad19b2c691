import dataclasses
import itertools
import json
import re

import numpy as np
import pytest

from contreg import cli, harness
from contreg.harness import ConfigError
from contreg.orderings import derived_seed


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
    base_config(out=7),
    base_config(scheme="budgeted", schedule={"kind": "increasing-budget", "n_choice": 1.5}),
    base_config(schedule={"kind": "increasing-coefficient", "unregularized_first": "no"}),
    base_config(schedule={"kind": "increasing-coefficient", "unregularized_first": 1}),
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
    base_config(scheme="unregularized", schedule={"kind": "none", "unregularized_first": True}),
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


def test_parse_config_strictness():
    harness.parse_config(base_config())  # sanity: valid config parses
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
    # A custom schedule's strengths are arrays; well-typed flags still parse.
    harness.parse_config(base_config(scheme="budgeted",
                                     schedule={"kind": "custom", "gamma": [0.5] * 4,
                                               "n_steps": [1] * 4,
                                               "unregularized_first": True}))
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
    rows = harness.run_experiment(cfg)
    assert len(rows) == 2
    assert [(r.k, r.trial) for r in rows] == [(4, 0), (4, 1)]

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    harness.write_csv(rows, p1)
    harness.write_csv(harness.run_experiment(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_run_experiment_grid_rows():
    cfg = harness.parse_config(base_config(k_grid=[4, 8], trials=1))
    rows = harness.run_experiment(cfg)
    assert [r.k for r in rows] == [4, 8]
    for r in rows:
        assert r.avg_loss >= 0 and r.seen_loss >= 0 and r.dist_to_wstar >= 0


def test_csv_round_trip(tmp_path):
    cfg = harness.parse_config(base_config(k_grid=[4, 8], trials=2))
    rows = harness.run_experiment(cfg)
    path = tmp_path / "rows.csv"
    harness.write_csv(rows, path)
    assert harness.read_csv(path) == rows
    header = path.read_text().splitlines()[0]
    assert header == ",".join(harness.CSV_FIELDS)


def test_collection_path_round_trip(tmp_path):
    from contreg.tasks import collection_to_dict, generate_realizable, RealizableSpec

    col = generate_realizable(RealizableSpec(d=3, M=2, n=2, radius=1.0, seed=5))
    path = tmp_path / "col.json"
    path.write_text(json.dumps(collection_to_dict(col)))
    cfg = harness.parse_config(base_config(collection={"path": str(path)},
                                           k_grid=[3], trials=1))
    rows = harness.run_experiment(cfg)
    assert rows[0].d == 3 and rows[0].M == 2


def test_aligned_pairs_config():
    cfg = harness.parse_config(base_config(
        collection={"generator": "aligned-pairs", "d": 6, "pairs": 3,
                    "angle": 0.1, "radius": 1.0, "seed": 2}))
    rows = harness.run_experiment(cfg)
    assert rows[0].M == 6


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
    rows = harness.run_experiment(cfg)
    (k, mean, se, n), = harness.aggregate(rows)
    vals = [r.avg_loss for r in rows]
    assert k == 4 and n == 5
    assert mean == pytest.approx(np.mean(vals))
    assert se == pytest.approx(np.std(vals, ddof=1) / np.sqrt(5))


def test_verify_suite_names():
    with pytest.raises(ValueError, match="unknown suite"):
        harness.verify_suite("bogus")
    report = harness.verify_suite("certificate")
    assert report.passed


def test_seed_override(tmp_path):
    cfg = harness.parse_config(base_config())
    other = dataclasses.replace(cfg, base_seed=100)
    a = harness.run_experiment(cfg)
    b = harness.run_experiment(other)
    assert any(x.seed != y.seed for x, y in zip(a, b))


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
    for suite in harness.SUITE_NAMES:
        assert cli.main(["verify", "--suite", suite]) == 0, suite


def test_cli_validation_errors(tmp_path, capsys):
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


def test_cli_adversarial(tmp_path, capsys):
    code = cli.main(["adversarial", "--scenario", "seen-task", "--k", "16",
                     "--trials", "100", "--seed", "1"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["threshold"] == pytest.approx(1.0 / (144 * 16))


def test_cli_adversarial_rejects_a_schedule_its_scheme_does_not_read(monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("the scenario was built before the pairing was checked")

    monkeypatch.setattr(harness, "seen_task_lb_collection", no_work)
    monkeypatch.setattr(harness, "any_alg_lb_collection", no_work)
    for scenario, scheme, schedule in itertools.product(
            ("seen-task", "any-algorithm"), ("unregularized", "budgeted"),
            ("increasing-coefficient", "fixed-coefficient", "fixed-budget")):
        if scheme == "budgeted" and schedule == "fixed-budget":
            continue
        code = cli.main(["adversarial", "--scenario", scenario, "--k", "16", "--scheme", scheme,
                         "--schedule", schedule, "--gamma", "5"])
        assert code == 1
        assert f"scheme {scheme!r} cannot run a {schedule!r}" in one_line_error(capsys)


def run_cli_csv(tmp_path, name, cfg, *extra):
    cfg_path, out_path = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
    cfg_path.write_text(json.dumps(cfg))
    code = cli.main(["run", "--config", str(cfg_path), "--out", str(out_path), *extra])
    return code, out_path


def one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


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
    rows = harness.run_experiment(harness.parse_config(base_config(trials=3)))
    path = tmp_path / "out.csv"
    harness.write_csv(rows, path)
    before = path.read_bytes()
    fmt, calls = harness._fmt, itertools.count()

    def failing_fmt(value):  # fails in the second row
        if next(calls) == len(harness.CSV_FIELDS) + 2:
            raise OSError("disk full")
        return fmt(value)

    monkeypatch.setattr(harness, "_fmt", failing_fmt)
    with pytest.raises(OSError, match="disk full"):
        harness.write_csv(rows, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    missing = tmp_path / "missing" / "out.csv"
    with pytest.raises(FileNotFoundError) as exc:
        harness.write_csv(rows, missing)
    assert exc.value.filename == str(missing)


ACCEPTANCE_PAIRS = (("regularized", "fixed-coefficient", None),
                    ("regularized", "increasing-coefficient", None),
                    ("budgeted", "fixed-budget", {"gamma": 0.5}),
                    ("budgeted", "increasing-budget", {"n_choice": 1}),
                    ("unregularized", "none", None))


def test_any_alg_mean_probing_once_matches_a_thousand_probes(monkeypatch):
    def run(k, scheme, kind, params):
        return harness.run_any_alg_mean(k, trials=50, base_seed=7, scheme=scheme,
                                        schedule_kind=kind, schedule_params=params)

    cases = [(k, *pair) for pair in ACCEPTANCE_PAIRS for k in (16, 64)]
    once = [run(*case) for case in cases]
    probed = harness.any_alg_lb_collection
    monkeypatch.setattr(harness, "any_alg_lb_collection",
                        lambda k, d, probe, probe_trials: probed(k, d, probe, 1000))
    for case, rep in zip(cases, once):
        # The whole report, adversary_sign and mean_excess included, bit for bit.
        assert rep == run(*case)


def test_any_alg_mean_probes_its_learner_once(monkeypatch):
    calls = []
    runner = harness.scheme_runner

    def counting_runner(*args, **kwargs):
        probe = runner(*args, **kwargs)

        def counted(tasks):
            calls.append(len(tasks))
            return probe(tasks)

        return counted

    monkeypatch.setattr(harness, "scheme_runner", counting_runner)
    for scheme, kind, params in ACCEPTANCE_PAIRS:
        calls.clear()
        harness.run_any_alg_mean(16, trials=10, base_seed=3, scheme=scheme,
                                 schedule_kind=kind, schedule_params=params)
        assert calls == [16]
