"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_bench.py
"""

import csv
import json
import shutil
import subprocess
import sys

import pytest

import run  # puts the checkout's src/ on sys.path
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_tiny(name, trace, workdir):
    return run.run_workload(name, seed=3, seconds=0.01, trace=trace, workdir=str(workdir),
                            specs=workloads.TINY_SPECS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_workload_emits_every_end_to_end_metric(name, tmp_path):
    result = run_tiny(name, 0, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    got = {key: m["unit"] for key, m in result["metrics"].items()}
    assert got == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("field", workloads.METRIC_FIELDS)
def test_corrupted_row_is_counted_as_failed(field, tmp_path):
    workload = workloads.make("sweep-hard", 3, str(tmp_path), workloads.TINY_SPECS)
    workload.rep(0)
    clean = workloads.Tally()
    workload.check(0, clean)
    assert clean.failed == 0

    path = workload.csvs[1]
    with open(path, newline="") as fh:
        records = list(csv.reader(fh))
    column = records[0].index(field)
    records[2][column] = repr(float(records[2][column]) * (1 + 1e-7))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(records)
    tally = workloads.Tally()
    workload.check(0, tally)
    assert tally.failed >= 1
    assert tally.attempted == clean.attempted


def test_wrong_adversary_sign_is_counted_as_failed(tmp_path):
    workload = workloads.make("lower-bounds", 3, str(tmp_path), workloads.TINY_SPECS)
    workload.rep(0)
    code, out = workload.outputs[-1]
    report = json.loads(out)
    report["adversary_sign"] = -report["adversary_sign"]
    workload.outputs[-1] = (code, json.dumps(report))
    tally = workloads.Tally()
    workload.check(0, tally)
    assert tally.failed == 1


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    import contreg.harness
    import contreg.schemes

    before = {key: getattr(contreg.harness, key) for key in
              ("run_continual", "run_experiment", "scheme_runner", "build_schedule")}
    step = contreg.schemes.regularized_step
    result = run_tiny(name, 1, tmp_path)
    assert result["correct"]
    want = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(result["metrics"]) == want
    after = {key: getattr(contreg.harness, key) for key in before}
    assert after == before and contreg.schemes.regularized_step is step


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()
    # One span of name 0 covering two spans of name 1.
    for name_id, parent, start, end in ((0, -1, 0.0, 10.0), (1, 0, 2.0, 5.0),
                                        (1, 0, 6.0, 7.0)):
        tracer.name_id.append(name_id)
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    calls, self_s, total_s = tracer._per_span()
    assert list(calls[:2]) == [1, 2] and not calls[2:].any()
    assert list(self_s[:2]) == [6.0, 4.0]
    assert list(total_s[:2]) == [10.0, 4.0]


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep-hard",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
