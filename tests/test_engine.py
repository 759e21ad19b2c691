"""The batched spectral engine (``run_batch`` + ``summarize_batch``) against
the literal rules (``run_continual`` + ``summarize``), trial by trial.

Agreement is required to 1e-12 relative.  Iterates are compared relative to
rho, the largest iterate norm of the trial; losses relative to the loss or to
0.5 * (R * rho + max ||y_m||)^2, the size of the terms a residual is formed
from (below that, both sides are rounding noise of the same residual).

The literal unregularized and igd rules go through X^+ (``pinv`` and
``pinv_solution``), so their own error is of order eps * sigma_max / sigma_min:
about 1e-8 when a kept singular value is 1e-8 * sigma_max, and of order 1
when it sits just above the pinv cutoff (~1e-15 * sigma_max).  Such tasks
(``KEPT_TINY``) are therefore compared only under the regularized and
budgeted rules, which never form X^+.  A singular value just below the cutoff
is dropped by X^+ but not by the maps themselves, so there the literal igd
rules differ from their scheme's map (and from the literal regularized and
budgeted rules) by ~sigma * ||y|| per step; for the X^+ rules that task gets
a consistent target y = X v, for which that term vanishes.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contreg import schemes
from contreg.harness import build_collection, build_schedule
from contreg.metrics import summarize, summarize_batch
from contreg.orderings import sample_orderings
from contreg.schedules import custom_schedule
from contreg.schemes import (SCHEME_KINDS, budgeted_step, igd_step, regularized_step,
                             run_batch, run_continual)
from contreg.surrogates import build_budgeted_surrogate, build_regularized_surrogate
from contreg.tasks import new_collection, new_task

RTOL = 1e-12
EPS = float(np.finfo(np.float64).eps)
KEPT_TINY = ("near-cutoff-above", "ill-conditioned")
SHAPES = ("wide", "tall", "rank-deficient", "zero", "duplicated",
          "near-cutoff-below") + KEPT_TINY
NO_PINV = ("regularized", "budgeted")


def make_task(rng, shape, d, consistent=False):
    """A task of the given shape, with an inconsistent target unless asked."""
    if shape == "wide":
        X = rng.standard_normal((int(rng.integers(1, d)), d))
    elif shape == "tall":
        X = rng.standard_normal((d + int(rng.integers(1, 4)), d))
    elif shape == "rank-deficient":
        n = int(rng.integers(2, d + 3))
        r = int(rng.integers(1, min(n, d)))
        X = rng.standard_normal((n, r)) @ rng.standard_normal((r, d))
    elif shape == "zero":
        X = np.zeros((int(rng.integers(1, 4)), d))
    elif shape == "duplicated":
        base = rng.standard_normal((int(rng.integers(1, 3)), d))
        X = base[rng.integers(0, len(base), size=len(base) + int(rng.integers(1, 3)))]
    elif shape == "ill-conditioned":
        X = two_scale_matrix(rng, d, ratio=1e-8)
    else:
        X = two_scale_matrix(rng, d, cutoff_side=1.0 if shape.endswith("above") else -1.0)
    X = X / np.sqrt(d)
    y = X @ rng.standard_normal(d)
    return new_task(X, y if consistent else y + rng.standard_normal(len(X)))


def two_scale_matrix(rng, d, cutoff_side=None, ratio=None):
    """Two signed unit rows with singular values s1 and a tiny one.

    The tiny one is ``ratio * s1``, or c * (1 + cutoff_side * 1e-6) with
    c = max(n, d) * eps * s1 pinv's cutoff; the side is checked on the SVD of
    the scaled matrix the task is built from, which may round s1.
    """
    s1 = rng.uniform(0.5, 2.0)
    tiny = ratio * s1 if ratio else d * EPS * s1 * (1 + cutoff_side * 1e-6)
    X = np.zeros((2, d))
    cols = rng.permutation(d)[:2]
    for row, value in zip(rng.permutation(2), (s1, tiny)):
        X[row, cols[row]] = rng.choice([-1.0, 1.0]) * value
    if cutoff_side is not None:
        sigma = np.linalg.svd(X / np.sqrt(d), compute_uv=False)
        assert (sigma[1] > max(X.shape) * EPS * sigma[0]) == (cutoff_side > 0)
    return X


def schedule_for(rng, k, radius, first):
    r2 = radius ** 2 if radius > 0 else 1.0
    return custom_schedule(
        k, lam=np.exp(rng.uniform(np.log(0.1), np.log(100.0), k)),
        gamma=rng.uniform(0.05, 0.95, k) / r2, n_steps=rng.integers(1, 7, k),
        eta=rng.uniform(0.1, 3.0, k), unregularized_first=first)


def close(a, b, scale):
    return abs(a - b) <= RTOL * max(abs(a), abs(b), scale)


def assert_matches_literal(col, idx, schedule, scheme, w0=None):
    (batch,) = run_batch(col, [(idx, schedule)], scheme, w0=w0)
    got = summarize_batch(batch, col)
    y_max = max(float(np.linalg.norm(t.y)) for t in col.tasks)
    for i in range(len(idx)):
        traj = run_continual(col, idx[i], schedule, scheme, w0=w0)
        want = summarize(traj, col)
        rho = max(float(np.linalg.norm(traj.iterates, axis=1).max()),
                  float(np.linalg.norm(batch.final[i])))
        w_gap = float(np.linalg.norm(batch.final[i] - traj.iterates[-1]))
        assert w_gap <= RTOL * rho, (i, w_gap, rho)
        loss_scale = 0.5 * (col.radius * rho + y_max) ** 2
        for name in ("avg_loss", "seen_loss", "degradation"):
            assert close(getattr(got, name)[i], getattr(want, name), loss_scale), name
        assert close(got.dist_to_wstar[i], want.dist_to_wstar,
                     rho + float(np.linalg.norm(col.w_star)))


@st.composite
def scheme_and_shapes(draw):
    scheme = draw(st.sampled_from(SCHEME_KINDS))
    allowed = SHAPES if scheme in NO_PINV else tuple(s for s in SHAPES if s not in KEPT_TINY)
    return scheme, draw(st.lists(st.sampled_from(allowed), min_size=1, max_size=4))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scheme_shapes=scheme_and_shapes(),
       first=st.booleans(), start=st.booleans(), k=st.integers(1, 30),
       trials=st.integers(1, 4))
def test_batch_matches_literal_rules(seed, scheme_shapes, first, start, k, trials):
    scheme, shapes = scheme_shapes
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    col = new_collection([make_task(rng, shape, d, consistent=scheme not in NO_PINV
                                    and shape == "near-cutoff-below")
                          for shape in shapes], w_star=rng.standard_normal(d))
    schedule = schedule_for(rng, k, col.radius, first)
    if scheme == "unregularized" and not first:
        schedule = None
    w0 = rng.standard_normal(d) * 3.0 if start else None
    idx = rng.integers(1, col.M + 1, size=(trials, k))
    assert_matches_literal(col, idx, schedule, scheme, w0)


def test_one_dimensional_tasks_match_literal_rules():
    rng = np.random.default_rng(3)
    col = new_collection([new_task([[0.7]], [1.0]), new_task([[0.0]], [2.0]),
                          new_task([[-1.3], [0.4]], [0.5, -1.0])], w_star=[1.5])
    idx = rng.integers(1, 4, size=(3, 20))
    for scheme in SCHEME_KINDS:
        assert_matches_literal(col, idx, schedule_for(rng, 20, col.radius, False), scheme,
                               w0=np.array([2.0]))


def test_anchor_just_above_the_cutoff_does_not_leak():
    """X^+ y is ~1e15 along the tiny direction; the SVD's 1e-16 mixing of the
    singular vectors must not carry it into the other directions."""
    for seed in range(500):
        rng = np.random.default_rng(seed)
        task = make_task(rng, "near-cutoff-above", 3)
        tiny_row = np.abs(np.linalg.svd(task.X)[2][1])
        if np.any((tiny_row > 0) & (tiny_row < 0.5)):
            break
    else:
        pytest.fail("no near-cutoff matrix with mixed singular vectors in 500 seeds")
    assert np.abs(task.pinv_solution).max() > 1e14
    col = new_collection([task, make_task(rng, "wide", 3)], w_star=np.ones(3))
    idx = rng.integers(1, 3, size=(3, 12))
    for scheme in NO_PINV:
        assert_matches_literal(col, idx, schedule_for(rng, 12, col.radius, False), scheme)


def assert_same_trials(col, got, want, rows=slice(None)):
    """``got`` holds bit for bit the values of rows ``rows`` of ``want``."""
    assert np.array_equal(got.final, want.final[rows])
    assert np.array_equal(got.loss_after_sum, want.loss_after_sum[rows])
    a, b = summarize_batch(got, col), summarize_batch(want, col)
    for name in ("avg_loss", "seen_loss", "degradation", "dist_to_wstar"):
        assert np.array_equal(getattr(a, name), getattr(b, name)[rows]), name


def test_trial_values_do_not_depend_on_the_batch(monkeypatch):
    rng = np.random.default_rng(5)
    col = new_collection([make_task(rng, "wide", 6) for _ in range(4)])
    # (k, trials) per cell: unequal trial counts, k = 1, a tie and a
    # non-doubling grid, the longest cell neither first nor last.
    grid = ((3, 4), (40, 9), (1, 2), (8, 3), (8, 2), (5, 1))
    q = col.row_bases.V.shape[1]
    # Block budgets: one step per block; three steps per block once only the
    # 9 trials of the k = 40 cell are left, so it ends mid-block; and every
    # step between two cell ends in one block.
    budgets = (1, 3 * 9 * q, 40 * 21 * q + 1)
    for first in (False, True):
        cells = [(rng.integers(1, col.M + 1, size=(trials, k)),
                  schedule_for(rng, k, col.radius, first)) for k, trials in grid]
        for scheme in SCHEME_KINDS:
            together = run_batch(col, cells, scheme)
            for (idx, schedule), run in zip(cells, together):
                assert run.ordering is idx
                (alone,) = run_batch(col, [(idx, schedule)], scheme)
                assert_same_trials(col, run, alone)
            idx, schedule = cells[1]
            for rows in ([0], [0, 1, 2], [8, 3]):
                (part,) = run_batch(col, [(idx[rows], schedule)], scheme)
                assert_same_trials(col, part, together[1], rows)
            for budget in budgets:
                with monkeypatch.context() as patch:
                    patch.setattr(schemes, "_BLOCK_ELEMS", budget)
                    for run, want in zip(run_batch(col, cells, scheme), together):
                        assert_same_trials(col, run, want)

    with pytest.raises(ValueError, match="cells must agree on unregularized_first"):
        run_batch(col, [cells[0], (cells[0][0], schedule_for(rng, 3, col.radius, False))],
                  "regularized")

    # A drawn task's 0 < gamma R_m^2 < 1 error in the last cell (at step 3,
    # past the exempt first step) is raised before any cell steps.
    stepped = []
    monkeypatch.setattr(schemes, "spectral_multiplier", lambda *args: stepped.append(args))
    idx = cells[-1][0]
    gamma = np.full(5, 0.1 / col.radius ** 2)
    gamma[2] = 1.5 / col.tasks[idx[0, 2] - 1].spectral_norm ** 2
    bad = custom_schedule(5, gamma=gamma, n_steps=[1] * 5, unregularized_first=True)
    with pytest.raises(ValueError, match=r"0 < gamma \* R_m\^2 < 1"):
        run_batch(col, cells[:-1] + [(idx, bad)], "budgeted")
    assert stepped == []


def test_run_batch_steps_through_one_multiplier_call(monkeypatch):
    """Every scheme, with and without an unregularized first step, takes each
    block of steps through one ``spectral_multiplier`` call on (steps, trials,
    q) arrays.  The calls cover steps 0..k_max-1 once, in order; a block never
    spans a cell's end or the projection step; a projection step gets no
    strengths and every other step the scheme's ``READS``.  Under the default
    budget these small cells take one call per span between two cuts."""
    rng = np.random.default_rng(8)
    col = new_collection([make_task(rng, "wide", 4) for _ in range(3)])
    q = col.row_bases.V.shape[1]
    calls = []
    multiplier = schemes.spectral_multiplier

    def counted(strengths, sigma, *args):
        calls.append((len(strengths), sigma.shape))
        return multiplier(strengths, sigma, *args)

    monkeypatch.setattr(schemes, "spectral_multiplier", counted)
    grid = ((5, 2), (9, 3))
    for first in (False, True):
        cells = [(rng.integers(1, col.M + 1, size=(trials, k)),
                  schedule_for(rng, k, col.radius, first)) for k, trials in grid]
        cuts = [0, 5, 9] if not first else [0, 1, 5, 9]
        for scheme in SCHEME_KINDS:
            for budget in (1, schemes._BLOCK_ELEMS):
                calls.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(schemes, "_BLOCK_ELEMS", budget)
                    run_batch(col, cells, scheme)
                a = 0
                for reads, (steps, trials, width) in calls:
                    b = a + steps
                    assert steps >= 1 and width == q
                    assert trials == sum(n for k, n in grid if k > a)
                    assert not any(a < cut < b for cut in cuts), (a, b)
                    projection = scheme == "unregularized" or (first and a == 0)
                    assert reads == (0 if projection else len(schemes.READS[scheme]))
                    a = b
                assert a == 9
                if budget == 1:
                    assert len(calls) == 9
                else:
                    assert len(calls) == len(cuts) - 1


def test_run_batch_working_set_stays_small():
    """On the sweep-hard grid (k = 64..1024, 40 trials per cell) the engine
    holds the (trials, d) iterates, a (k_max, cells) strength table, one
    block's (steps, trials, q) arrays and one step's row bases: no
    (k_max, trials) array of orderings or strengths."""
    col = build_collection({"generator": "aligned-pairs", "d": 20, "pairs": 5,
                            "angle": 0.04, "radius": 1.0, "seed": 11})
    for scheme, kind in (("regularized", {"kind": "increasing-coefficient"}),
                         ("budgeted", {"kind": "increasing-budget"}),
                         ("unregularized", {"kind": "none"}),
                         ("igd-of-regularized", {"kind": "increasing-coefficient"}),
                         ("igd-of-budgeted", {"kind": "increasing-budget"})):
        cells = [(sample_orderings("with-replacement", col.M, k, 40, 0),
                  build_schedule(kind, col.radius, k)) for k in (64, 128, 256, 512, 1024)]
        run_batch(col, cells[:1], scheme)  # builds the collection's cached row bases
        tracemalloc.start()
        try:
            run_batch(col, cells, scheme)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 320 * 1024, (scheme, peak)


def literal_step(scheme, task, lam=None, gamma=None, n_steps=None, eta=1.0):
    """One step of ``scheme``'s literal rule from w = 0."""
    w = np.zeros(task.d)
    if scheme == "regularized":
        return regularized_step(w, task, lam)
    if scheme == "budgeted":
        return budgeted_step(w, task, gamma, n_steps)
    if scheme == "igd-of-regularized":
        return igd_step(w, build_regularized_surrogate(task, lam, eta), eta)
    return igd_step(w, build_budgeted_surrogate(task, gamma, n_steps, eta), eta)


@pytest.mark.parametrize("scheme, fields, message", [
    ("regularized", {"lam": [1.0, np.nan, 1.0]}, "coefficient must be positive"),
    ("igd-of-regularized", {"lam": [1.0, 0.0, 1.0]}, "coefficient must be positive"),
    ("igd-of-regularized", {"lam": [1.0] * 3, "eta": [1.0, -2.0, 1.0]},
     "step size must be positive"),
    ("budgeted", {"gamma": [0.1] * 3, "n_steps": [1, 0, 1]}, "budget must be >= 1"),
    ("igd-of-budgeted", {"gamma": [0.1] * 3, "n_steps": [1, 0, 1]}, "budget must be >= 1"),
    ("igd-of-budgeted", {"gamma": [0.1] * 3, "n_steps": [1] * 3, "eta": [1.0, 0.0, 1.0]},
     "step size must be positive"),
    ("budgeted", {"gamma": [0.1, np.nan, 0.1], "n_steps": [1] * 3}, "0 < gamma"),
])
def test_strength_checks_raise_the_literal_errors(scheme, fields, message):
    """A schedule rejects, when it is built, each strength that its scheme's
    literal rule rejects at the step that uses it, in the same words."""
    with pytest.raises(ValueError) as built:
        custom_schedule(3, **fields)
    with pytest.raises(ValueError) as literal:
        literal_step(scheme, new_task([[1.0, 0.0]], [1.0]),
                     **{name: values[1] for name, values in fields.items()})
    assert message in str(built.value) and message in str(literal.value)


def test_gamma_check_covers_only_the_tasks_drawn():
    col = new_collection([new_task([[1.0, 0.0]], [1.0]), new_task([[0.0, 3.0]], [1.0])])
    schedule = custom_schedule(4, gamma=np.full(4, 0.5), n_steps=[1] * 4)
    only_first = np.ones((3, 4), np.int64)
    for scheme in ("budgeted", "igd-of-budgeted"):
        run_batch(col, [(only_first, schedule)], scheme)
        drawn = only_first.copy()
        drawn[2, 3] = 2
        with pytest.raises(ValueError) as batch:
            run_batch(col, [(drawn, schedule)], scheme)
        with pytest.raises(ValueError) as literal:
            run_continual(col, drawn[2], schedule, scheme)
        assert str(batch.value) == str(literal.value)
        assert "R_m^2=9.0" in str(batch.value)
