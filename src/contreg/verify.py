"""Verification suites: the paper's claims as named, seeded checks.

``reduction_gaps``, ``sandwich_failures``, ``certificate_failures`` and
``gradient_error`` are the only copy of acceptance criteria 1, 2, 8 and 9.
``verify_suite`` (``contreg verify --suite``) runs them at smaller sizes on
the one seed ``SEED``, with the schedule identities and the scenario runners'
1/k floors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import schedules as sched_mod
from .harness import run_any_alg_mean, run_seen_task_floor
from .orderings import sample_ordering, stream
from .schemes import run_continual
from .surrogates import (budgeted_spectral_map, build_budgeted_surrogate,
                         build_regularized_surrogate, build_spectral_surrogate,
                         from_matrix, sandwich_check, value_and_grad)
from .tasks import generate_realizable, new_task

SEED = 20240801  # the seed of every suite


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
        col = generate_realizable(
            d=d, M=int(rng.integers(2, 7)), n=int(rng.integers(1, d + 1)),
            radius=float(rng.uniform(0.5, 2.0)), seed=int(rng.integers(2 ** 32)))
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
    backs a regularized, a budgeted and a spectral surrogate, and
    ``from_matrix`` makes a fourth of a fixed diagonal matrix; each is
    checked at ``draws`` points from the stream (seed, 9).
    """
    d = 6
    task = new_task(stream(seed, 90).standard_normal((4, d)),
                    stream(seed, 91).standard_normal(4))
    gamma = 0.4 / task.spectral_norm ** 2
    kinds = (
        build_regularized_surrogate(task, 2.0, 0.7),
        build_budgeted_surrogate(task, gamma, 4, 0.7),
        build_spectral_surrogate(task, budgeted_spectral_map(gamma, 2, 1.3)),
        from_matrix(np.diag([0.5, 1.0, 2.0, 0.1, 3.0, 0.0]), np.arange(d, dtype=float)),
    )
    rng = stream(seed, 9)
    h = 1e-6
    worst = 0.0
    for s in kinds:
        for _ in range(draws):
            w = rng.standard_normal(d) * float(rng.uniform(0.5, 3.0))
            _, grad = value_and_grad(s, w)
            for j, e in enumerate(h * np.eye(d)):
                fd = (value_and_grad(s, w + e)[0] - value_and_grad(s, w - e)[0]) / (2 * h)
                worst = max(worst, abs(fd - grad[j]) / (1.0 + abs(grad[j])))
    return worst


def _suite_reductions():
    worst_reg, worst_bud, worst_eta = reduction_gaps(stream(SEED, 101), 20)
    return [
        CheckResult("regularized scheme matches its surrogate-step twin",
                    worst_reg <= 1.0, f"worst deviation {worst_reg:.3e} of tolerance"),
        CheckResult("budgeted scheme matches its surrogate-step twin",
                    worst_bud <= 1.0, f"worst deviation {worst_bud:.3e} of tolerance"),
        CheckResult("surrogate iterates invariant to bookkeeping step size",
                    worst_eta <= 1e-12, f"worst deviation {worst_eta:.3e}"),
    ]


def _suite_sandwich():
    rng = stream(SEED, 102)
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

    worst_fd = gradient_error(SEED, 5)
    checks.append(CheckResult("gradients match central finite differences "
                              "(all surrogate kinds)",
                              worst_fd <= 1e-6, f"worst relative error {worst_fd:.3e}"))
    return checks


def _suite_certificate():
    failures = certificate_failures()
    return [CheckResult("weight certificate nonnegative with c_k >= eta/k "
                        "for k in 2..500, beta in {0.5, 1, 4}",
                        not failures, f"failures: {failures[:5]}")]


def _suite_schedules():
    fails = []  # the last failure is reported
    for k in (2, 5, 17, 100):
        inc = sched_mod.increasing_coefficient(1.3, k)
        bud = sched_mod.increasing_budget(1.3, k, n_choice=3)
        fails += [f"{what} at k={k}" for what, bad in (
            ("lam*eta != 1", np.max(np.abs(inc.lam * inc.eta - 1.0)) > 0),
            ("coefficients not strictly increasing", not np.all(np.diff(inc.lam) > 0)),
            ("eta/(gamma*N) != 1", np.max(np.abs(bud.eta / (bud.gamma * bud.n_steps) - 1.0)) > 0),
            ("budget strength not strictly decreasing",
             not np.all(np.diff(bud.gamma * bud.n_steps) < 0))) if bad]
    checks = [CheckResult("increasing schedules keep their exact identities", not fails,
                          fails[-1] if fails else "lam*eta = 1 and eta/(gamma*N) = 1")]

    fails = []
    for k in (3, 10, 1000):
        spec = sched_mod.fixed_coefficient(2.0, k)
        # eta * beta_r at R^2 = 4, with beta_r = R^2 / (R^2 + lam)
        if abs(spec.eta[0] * (4.0 / (4.0 + spec.lam[0])) - 1.0 / np.log(k)) > 1e-12:
            fails.append(f"eta*beta_r != 1/ln k at k={k}")
    checks.append(CheckResult("fixed coefficient lands smoothness on 1/ln k", not fails,
                              fails[-1] if fails else "within 1e-12"))

    grid = [0.5, 0.1, 0.01, 0.001]
    stars = [sched_mod.exact_budget(1.0, g, 20) for g in grid]
    checks.append(CheckResult("exact budget grows as the inner step shrinks",
                              all(b > a for a, b in zip(stars, stars[1:])),
                              f"n_star over gamma grid: {[f'{s:.2f}' for s in stars]}"))

    steps = sched_mod.increasing_budget(1.0, 12).eta
    ok = (abs(steps[0] - 3.0 / 13.0) < 1e-15
          and abs(steps[-1] - 2 * (3.0 / 13.0) / 13.0) < 1e-15)
    checks.append(CheckResult("linear decay endpoints", ok,
                              f"eta_1={steps[0]:.6f}, eta_k={steps[-1]:.6f}"))
    return checks


def _suite_adversarial():
    rep = run_seen_task_floor(16, 400, SEED)
    checks = [CheckResult("seen-task floor at k=16", rep["passed"],
                          f"Pr[seen >= 1/(144k)] = {rep['empirical_probability']:.3f} "
                          f">= {rep['floor']}")]
    for scheme in ("regularized", "unregularized"):  # each on its default schedule
        rep = run_any_alg_mean(16, 400, SEED, scheme=scheme)
        checks.append(CheckResult(
            f"any-algorithm mean excess at k=16 ({scheme})", rep["passed"],
            f"mean {rep['mean_excess']:.3e} >= threshold {rep['threshold']:.3e}"))
    return checks


_SUITES = {"reductions": _suite_reductions, "sandwich": _suite_sandwich,
           "certificate": _suite_certificate, "schedules": _suite_schedules,
           "adversarial": _suite_adversarial}
SUITE_NAMES = tuple(_SUITES)


def verify_suite(name):
    """Run one of the named property suites and report per-check results."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite: {name!r} (choose from {SUITE_NAMES})")
    return SuiteReport(name=name, checks=tuple(_SUITES[name]()))
