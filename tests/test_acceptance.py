"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and asserts
the corresponding numeric claim at its stated tolerance and runtime budget.
The Monte Carlo rate checks share one sweep over a frozen hard collection:
five cloned nearly-parallel task pairs (d=20, M=10, R=1), the geometry on
which training-to-convergence is known to grind at the 1/k scale while the
anchored schedules keep their guaranteed rates.
"""

import time

import numpy as np
import pytest

from contreg import harness
from contreg.orderings import stream

K_GRID = [64, 128, 256, 512, 1024]
TRIALS = 200
BASE_SEED = 20250809
HARD_COLLECTION = {"generator": "aligned-pairs", "d": 20, "pairs": 5,
                   "angle": 0.04, "radius": 1.0, "seed": 11}

SWEEP_RUNS = {
    "increasing-coefficient": ("regularized", {"kind": "increasing-coefficient"}),
    "increasing-budget": ("budgeted", {"kind": "increasing-budget", "n_choice": 1}),
    "fixed-coefficient": ("regularized", {"kind": "fixed-coefficient"}),
    "fixed-budget": ("budgeted", {"kind": "fixed-budget", "gamma": 0.5}),
    "unregularized": ("unregularized", {"kind": "none"}),
}


def report(num, name, ok, detail):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def sweep():
    """Shared Monte Carlo sweep over the frozen hard collection."""
    col = harness.build_collection(HARD_COLLECTION)
    dist2 = float(col.w_star @ col.w_star)  # w_0 = 0
    results = {}
    for tag, (scheme, schedule) in SWEEP_RUNS.items():
        cfg = harness.parse_config({
            "collection": HARD_COLLECTION, "scheme": scheme,
            "schedule": schedule, "ordering": "with-replacement",
            "k_grid": K_GRID, "trials": TRIALS, "base_seed": BASE_SEED,
        })
        t0 = time.perf_counter()
        rows = harness.run_experiment(cfg)
        results[tag] = {
            "avg": harness.aggregate(rows, "avg_loss"),
            "seen": harness.aggregate(rows, "seen_loss"),
            "elapsed": time.perf_counter() - t0,
        }
    return {"dist2": dist2, "R": col.radius, "runs": results}


def test_criterion_1_reduction_equivalence():
    rng = stream(BASE_SEED, 1)
    t0 = time.perf_counter()
    worst_reg, worst_bud, _ = harness.reduction_gaps(rng, 50)
    worst = max(worst_reg, worst_bud)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed <= 10.0
    assert report(1, "reduction equivalence", ok,
                  f"worst deviation {worst:.2e} of tolerance over 50 configs, "
                  f"{elapsed:.1f}s")


def test_criterion_2_sandwich_inequalities():
    rng = stream(BASE_SEED, 2)
    t0 = time.perf_counter()
    failures = harness.sandwich_failures(rng, 1000)
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed <= 5.0
    assert report(2, "sandwich inequalities", ok,
                  f"{failures}/1000 triples failed, {elapsed:.1f}s")


def test_criterion_3_optimal_rate_bound(sweep):
    dist2, runs = sweep["dist2"], sweep["runs"]
    details = []
    ok = True
    for tag in ("increasing-coefficient", "increasing-budget"):
        agg = runs[tag]["avg"]
        bound_ok = all(mean <= 20.0 * dist2 / (k + 1) for k, mean, _, _ in agg)
        slope = harness.fit_rate([(k, mean) for k, mean, _, _ in agg]).slope
        ok = ok and bound_ok and slope <= -0.85
        details.append(f"{tag}: bound {'ok' if bound_ok else 'VIOLATED'}, "
                       f"slope {slope:+.2f}")
    elapsed = sum(runs[t]["elapsed"] for t in
                  ("increasing-coefficient", "increasing-budget", "unregularized"))
    ok = ok and elapsed <= 300.0
    assert report(3, "optimal rate for increasing schedules", ok,
                  "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_4_near_optimal_fixed_bound(sweep):
    dist2, runs = sweep["dist2"], sweep["runs"]
    details = []
    ok = True
    for tag in ("fixed-coefficient", "fixed-budget"):
        agg = runs[tag]["avg"]
        bound_ok = all(mean <= 5.0 * dist2 * np.log(k) / k for k, mean, _, _ in agg)
        ok = ok and bound_ok
        worst = max(mean / (5.0 * dist2 * np.log(k) / k) for k, mean, _, _ in agg)
        details.append(f"{tag}: worst bound share {worst:.1e}")
    elapsed = sum(runs[t]["elapsed"] for t in ("fixed-coefficient", "fixed-budget"))
    ok = ok and elapsed <= 300.0
    assert report(4, "near-optimal fixed-strength bound", ok,
                  "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_5_seen_task_upper_bound(sweep):
    dist2 = sweep["dist2"]
    agg = sweep["runs"]["increasing-coefficient"]["seen"]
    worst = max(mean / (87.0 * dist2 / (k + 1)) for k, mean, _, _ in agg)
    ok = worst <= 1.0
    assert report(5, "seen-task upper bound", ok,
                  f"worst bound share {worst:.1e} over k grid")


def test_criterion_6_seen_task_lower_bound():
    t0 = time.perf_counter()
    ok = True
    details = []
    for k in (16, 64, 256):
        rep = harness.run_seen_task_floor(k, trials=2000, base_seed=BASE_SEED)
        ok = ok and rep["passed"]
        details.append(f"k={k}: Pr={rep['empirical_probability']:.3f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 120.0
    assert report(6, "seen-task lower bound (floor 0.15)", ok,
                  ", ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_7_any_algorithm_lower_bound():
    t0 = time.perf_counter()
    ok = True
    details = []
    for scheme, kind, params in (
        ("regularized", "fixed-coefficient", None),
        ("regularized", "increasing-coefficient", None),
        ("budgeted", "fixed-budget", {"gamma": 0.5}),
        ("budgeted", "increasing-budget", {"n_choice": 1}),
        ("unregularized", "none", None),
    ):
        for k in (16, 64):
            rep = harness.run_any_alg_mean(k, trials=2000, base_seed=BASE_SEED,
                                           scheme=scheme, schedule_kind=kind,
                                           schedule_params=params)
            ok = ok and rep["passed"]
        details.append(f"{scheme}/{kind}: {rep['mean_excess']:.2e} "
                       f">= {rep['threshold']:.2e} at k=64")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 120.0
    assert report(7, "any-algorithm lower bound", ok,
                  "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_8_certificate_grid():
    t0 = time.perf_counter()
    failures = harness.certificate_failures()
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed <= 2.0
    assert report(8, "step-size weight certificate", ok,
                  f"{len(failures)} failures over 1497 reports, {elapsed:.2f}s")


def test_criterion_9_gradient_consistency():
    t0 = time.perf_counter()
    worst = harness.gradient_error(BASE_SEED, 10)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed <= 1.0
    assert report(9, "gradient consistency (all surrogate kinds)", ok,
                  f"worst relative error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_10_unregularized_ordering(sweep):
    runs = sweep["runs"]
    k, mean_unreg, se_u, _ = runs["unregularized"]["avg"][-1]
    _, mean_incr, se_i, _ = runs["increasing-coefficient"]["avg"][-1]
    assert k == 1024
    ok = mean_unreg > mean_incr
    assert report(10, "unregularized baseline ordering at k=1024", ok,
                  f"unregularized {mean_unreg:.3e}(±{se_u:.1e}) > "
                  f"increasing {mean_incr:.3e}(±{se_i:.1e})")
