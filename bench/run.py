"""contreg benchmark: one workload, measured end to end or traced per layer.

    python3 bench/run.py --workload sweep-hard --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; contreg is imported from ``src/``
there and driven in-process through ``contreg.cli.main``.  Workloads are
``sweep-hard``, ``sweep-wide`` and ``lower-bounds`` (see workloads.py).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (the median over
five fresh processes of the time from the first statement of this file through
importing contreg and building the workload's collections and schedules),
``steps_per_s`` (median over reps of scored continual steps per second of body
time) and ``peak_rss_mb``.
Both times are in reference seconds (speed.py), which cancel the changing
speed of a shared CPU; the wall-clock figures are printed too.
``--trace 1`` measures untraced reps for half of ``--seconds``, then traced
reps for the other half, and reports the per-layer metrics of tracing.py
plus the tracing overhead.  Every rep's outputs are checked by oracle.py.

Human-readable lines (machine fingerprint, metrics with units, failures) come
first; the last line of stdout is the JSON result.  The full result and the
spans of a traced run are written under ``.bench_run/`` in the checkout.
Exit code 2 means the benchmark could not run (no contreg source found).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_run"
WORKLOADS = ("sweep-hard", "sweep-wide", "lower-bounds")
SETUP_REPEATS = 5

# Both sides of any comparison run with one BLAS thread and one contreg
# worker thread: the numpy calls are tiny, and extra threads only add noise.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "CONTREG_MAX_THREADS": "1"}
INHERITED_ENV = {name: os.environ.get(name) for name in PINNED_ENV}
os.environ.update(PINNED_ENV)
sys.path.insert(0, str(SRC))


def git_rev(root):
    """Commit of the checkout from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {name: os.environ.get(name) for name in PINNED_ENV},
        "thread_env_inherited": INHERITED_ENV,
        "thread_pinning": "bench/run.py sets thread_env before importing numpy "
                          "and passes --threads 1 to contreg run",
        "git_rev": git_rev(ROOT),
    }


def setup_seconds(name, seed, probe):
    """Median set-up time of SETUP_REPEATS fresh processes: (reference s, wall s).

    Each child runs this file with ``--setup-only``: it imports contreg, builds
    the workload and its collections and schedules, and prints the seconds
    since its first statement.
    """
    argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
            "--seconds", "1", "--setup-only"]
    t0 = time.perf_counter()
    times = [float(subprocess.run(argv, capture_output=True, text=True, check=True,
                                  timeout=120).stdout.split()[-1])
             for _ in range(SETUP_REPEATS)]
    wall = statistics.median(times)
    return wall * probe.speed(t0, time.perf_counter()), wall


def measure(workload, seconds, tally, probe):
    """Run reps until ``seconds`` have passed (at least one).

    Returns the per-rep rates in steps per reference second and in steps per
    wall second, and the wall time of the bodies.
    """
    rates, wall_rates = [], []
    body = 0.0
    deadline = time.perf_counter() + seconds
    r = 0
    while True:
        t0 = time.perf_counter()
        steps = workload.rep(r)
        t1 = time.perf_counter()
        workload.check(r, tally)
        rates.append(steps / probe.reference_seconds(t0, t1))
        wall_rates.append(steps / (t1 - t0))
        body += t1 - t0
        r += 1
        if time.perf_counter() >= deadline:
            return rates, wall_rates, body


def run_workload(name, seed, seconds, trace, workdir, specs=None, spans_path=None):
    """Run one workload; return the result dict (the last stdout line)."""
    import speed
    import tracing
    import workloads

    tally = workloads.Tally()
    workload = workloads.make(name, seed, workdir, specs or workloads.SPECS)
    setup_wall = None
    with speed.SpeedProbe() as probe:
        if not trace:
            setup_s, setup_wall = setup_seconds(name, seed, probe)
            rates, wall_rates, _ = measure(workload, seconds, tally, probe)
            metrics = {
                "setup_s": (setup_s, "s"),
                "steps_per_s": (statistics.median(rates), "steps/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "MiB"),
            }
        else:
            plain, wall_rates, _ = measure(workload, seconds / 2, tally, probe)
            with tracing.Tracer() as tracer:
                traced, _, body = measure(workload, seconds / 2, tally, probe)
            metrics = tracer.metrics(body, len(traced))
            untraced_rate = statistics.median(plain)
            traced_rate = statistics.median(traced)
            metrics["trace.steps_per_s_untraced"] = (untraced_rate, "steps/s")
            metrics["trace.steps_per_s_traced"] = (traced_rate, "steps/s")
            metrics["trace.overhead_frac"] = (1.0 - traced_rate / untraced_rate, "ratio")
            if spans_path is not None:
                tracer.write(spans_path)
    workload.finish(tally)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
        "wall": {"reps": len(wall_rates), "steps_per_wall_s": statistics.median(wall_rates),
                 "setup_wall_s": setup_wall,
                 "speed_samples": len(probe.durations)},
        "notes": tally.notes,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        import contreg
        import workloads
    except ImportError as exc:
        print(f"error: cannot import contreg from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(contreg.__file__).resolve().is_relative_to(SRC):
        print(f"error: contreg imported from {contreg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=tag + "-", dir=OUT_DIR)
    try:
        if args.setup_only:
            t = time.perf_counter()
            workload = workloads.make(args.workload, args.seed, workdir)
            own = time.perf_counter() - t  # the benchmark's oracle and config files
            workload.setup()
            print(time.perf_counter() - T0 - own)
            return 0
        result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                              workdir, spans_path=OUT_DIR / f"spans-{args.workload}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = fingerprint()
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({"fingerprint": info, **result}, indent=2) + "\n")
    print("fingerprint " + json.dumps(info, sort_keys=True))
    wall = result["wall"]
    setup = ("" if wall["setup_wall_s"] is None
             else f", setup {wall['setup_wall_s']:.4g} wall seconds")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{wall['reps']} reps, {wall['steps_per_wall_s']:.6g} steps per wall second"
          + setup)
    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    for note in result["notes"]:
        print(f"failure: {note}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed",
                                                   "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
