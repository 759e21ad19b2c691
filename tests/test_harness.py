import dataclasses
import itertools
import json

import numpy as np
import pytest

from contreg import cli, harness
from contreg.harness import ConfigError


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
    base_config(schedule={"kind": "fixed-budget", "gamma": "0.5"}),
    base_config(schedule={"kind": "fixed-budget", "gamma": float("inf")}),
    base_config(schedule={"kind": "fixed-budget", "gamma": True}),
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
    base_config(schedule={"kind": "increasing-budget", "n_choice": 1.5}),
    base_config(schedule={"kind": "increasing-coefficient", "unregularized_first": "no"}),
    base_config(schedule={"kind": "increasing-coefficient", "unregularized_first": 1}),
    base_config(schedule={"kind": ["none"]}),
]


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
    for cfg in MISTYPED_CONFIGS:
        with pytest.raises(ConfigError):
            harness.parse_config(cfg)
    # A custom schedule's strengths are arrays; well-typed flags still parse.
    harness.parse_config(base_config(schedule={"kind": "custom", "gamma": [0.5] * 4,
                                               "unregularized_first": True}))
    harness.parse_config(base_config(collection={**PAIRS_COLLECTION, "radius": 2}))


def test_run_experiment_shape_and_determinism(tmp_path):
    cfg = harness.parse_config(base_config())
    rows = harness.run_experiment(cfg)
    assert len(rows) == 2
    assert [(r.k, r.trial) for r in rows] == [(4, 0), (4, 1)]

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    harness.write_csv(rows, p1)
    harness.write_csv(harness.run_experiment(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_run_experiment_threaded_output_is_identical(tmp_path):
    cfg = harness.parse_config(base_config(k_grid=[4, 8], trials=3))
    seq = harness.run_experiment(cfg, threads=1)
    par = harness.run_experiment(cfg, threads=4)
    assert seq == par


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


def test_thread_env_cap(monkeypatch):
    monkeypatch.setenv(harness.THREAD_ENV_VAR, "2")
    assert harness.resolve_threads(8) == 2
    assert harness.resolve_threads(None) == 2
    monkeypatch.delenv(harness.THREAD_ENV_VAR)
    assert harness.resolve_threads(None) == 1


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
    for cfg in MISTYPED_CONFIGS:
        bad.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
        err = one_line_error(capsys)
        assert "must be" in err or "unknown schedule kind" in err, err
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

    for scenario, flag, value, message in (
            ("seen-task", "--trials", "0", "must be >= 1, got 0"),
            ("any-algorithm", "--trials", "0", "must be >= 1, got 0"),
            ("seen-task", "--trials", "-3", "must be >= 1, got -3"),
            ("any-algorithm", "--seed", "-1", "must be >= 0, got -1"),
            ("seen-task", "--seed", "x", "invalid int value: 'x'")):
        assert cli.main(["adversarial", "--scenario", scenario, "--k", "16",
                         flag, value]) == 1
        out, err = capsys.readouterr()
        error_lines = [line for line in err.splitlines() if "error:" in line]
        assert out == "" and error_lines == [
            f"contreg adversarial: error: argument {flag}: {message}"], err


def test_cli_adversarial(tmp_path, capsys):
    code = cli.main(["adversarial", "--scenario", "seen-task", "--k", "16",
                     "--trials", "100", "--seed", "1"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["threshold"] == pytest.approx(1.0 / (144 * 16))


def run_cli_csv(tmp_path, name, cfg, *extra):
    cfg_path, out_path = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
    cfg_path.write_text(json.dumps(cfg))
    code = cli.main(["run", "--config", str(cfg_path), "--out", str(out_path), *extra])
    return code, out_path


def one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_csv_bytes_do_not_depend_on_threads(tmp_path, monkeypatch):
    monkeypatch.delenv(harness.THREAD_ENV_VAR, raising=False)
    cfg = base_config(k_grid=[4, 8, 16], trials=5)
    outputs = []
    for threads in ("1", "3"):
        code, path = run_cli_csv(tmp_path, f"t{threads}", cfg, "--threads", threads)
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


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
    seed = harness.derived_seed(99, 4, 0)
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
    calls = []
    monkeypatch.setattr(harness, "run_batch", lambda *a, **kw: calls.append(a))
    col_path = tmp_path / "col.json"
    col_path.write_text(json.dumps({"tasks": [{"X": [[1e200]], "y": [1.0]},
                                              {"X": [[1.0]], "y": [1.0]}]}))
    for schedule in ({"kind": "increasing-coefficient"}, {"kind": "fixed-coefficient"},
                     {"kind": "increasing-budget", "n_choice": 1},
                     {"kind": "fixed-budget", "gamma": 0.5}):
        code, path = run_cli_csv(tmp_path, schedule["kind"], base_config(
            collection={"path": str(col_path)}, schedule=schedule, k_grid=[4, 8]))
        assert code == 1 and not path.exists()
        assert "R^2 is not finite" in one_line_error(capsys)
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
