"""The batched spectral engine (``run_batch`` + ``summarize_batch``) against
the literal rules (``run_continual`` + ``summarize``), trial by trial.

Agreement is required to 1e-12 relative.  Iterates are compared relative to
rho, the largest iterate norm of the trial; losses relative to the loss or to
``conftest.loss_scale``, 0.5 * (R * rho + max ||y_m||)^2, the size of the terms
a residual is formed from (below that, both sides are rounding noise of the
same residual).

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

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import loss_scale

from contreg import schemes
from contreg.adversarial import any_alg_lb_collection, seen_task_lb_collection
from contreg.harness import build_collection, build_schedule
from contreg.metrics import summarize, summarize_batch
from contreg.orderings import sample_orderings
from contreg.schedules import custom_schedule
from contreg.schemes import (SCHEME_KINDS, budgeted_step, igd_step, regularized_step,
                             run_batch, run_continual)
from contreg.surrogates import (build_budgeted_surrogate, build_regularized_surrogate,
                                spectral_multiplier)
from contreg.tasks import new_collection, new_task

RTOL = 1e-12
EPS = float(np.finfo(np.float64).eps)
KEPT_TINY = ("near-cutoff-above", "ill-conditioned")
SHAPES = ("wide", "tall", "rank-deficient", "zero", "duplicated",
          "near-cutoff-below") + KEPT_TINY
NO_PINV = ("regularized", "budgeted")
# Every task one row or zero: the padded basis size is 1 (or 0 when all are
# zero), so ``run_batch`` steps through its rank-one branch.
RANK_ONE = ("one-row", "zero")


def make_task(rng, shape, d, consistent=False):
    """A task of the given shape, with an inconsistent target unless asked."""
    if shape == "wide":
        X = rng.standard_normal((int(rng.integers(1, d)), d))
    elif shape == "one-row":
        X = rng.standard_normal((1, d))
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


def schedule_for(rng, k, radius):
    r2 = radius ** 2 if radius > 0 else 1.0
    return custom_schedule(
        k, lam=np.exp(rng.uniform(np.log(0.1), np.log(100.0), k)),
        gamma=rng.uniform(0.05, 0.95, k) / r2, n_steps=rng.integers(1, 7, k),
        eta=rng.uniform(0.1, 3.0, k))


def close(a, b, scale):
    return abs(a - b) <= RTOL * max(abs(a), abs(b), scale)


def assert_matches_literal(col, idx, schedule, scheme, w0=None):
    (batch,) = run_batch(col, [(idx, schedule)], scheme, w0=w0)
    got = summarize_batch(batch, col)
    for i in range(len(idx)):
        traj = run_continual(col, idx[i], schedule, scheme, w0=w0)
        want = summarize(traj, col)
        rho = max(float(np.linalg.norm(traj.iterates, axis=1).max()),
                  float(np.linalg.norm(batch.final[i])))
        w_gap = float(np.linalg.norm(batch.final[i] - traj.iterates[-1]))
        assert w_gap <= RTOL * rho, (i, w_gap, rho)
        scale = loss_scale(col, rho)
        for name in ("avg_loss", "seen_loss", "degradation"):
            assert close(getattr(got, name)[i], getattr(want, name), scale), name
        assert close(got.dist_to_wstar[i], want.dist_to_wstar,
                     rho + float(np.linalg.norm(col.w_star)))


@st.composite
def scheme_and_shapes(draw):
    """A scheme and its collection's task shapes.  One example in three (by
    the draw below) has only one-row and zero tasks, the rank-one branch."""
    scheme = draw(st.sampled_from(SCHEME_KINDS))
    if draw(st.sampled_from(("mixed", "mixed", "rank-one"))) == "rank-one":
        allowed = RANK_ONE
    elif scheme in NO_PINV:
        allowed = SHAPES
    else:
        allowed = tuple(s for s in SHAPES if s not in KEPT_TINY)
    return scheme, draw(st.lists(st.sampled_from(allowed), min_size=1, max_size=4))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scheme_shapes=scheme_and_shapes(),
       start=st.booleans(), k=st.integers(1, 30), trials=st.integers(1, 4))
def test_batch_matches_literal_rules(seed, scheme_shapes, start, k, trials):
    scheme, shapes = scheme_shapes
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    col = new_collection([make_task(rng, shape, d, consistent=scheme not in NO_PINV
                                    and shape == "near-cutoff-below")
                          for shape in shapes], w_star=rng.standard_normal(d))
    schedule = schedule_for(rng, k, col.radius)
    if scheme == "unregularized":
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
        assert_matches_literal(col, idx, schedule_for(rng, 20, col.radius), scheme,
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
        assert_matches_literal(col, idx, schedule_for(rng, 12, col.radius), scheme)


def stacked_matmul_block(rows, W, loss_after, m_idx, strengths):
    """``schemes._step_block`` before its rank-one branch: two stacked matmuls
    per step whatever the basis size, the arithmetic that branch keeps."""
    sigma, target = rows.sigma[m_idx], rows.target[m_idx]
    g, s = spectral_multiplier(strengths, sigma, rows.inv_sigma[m_idx],
                               None if strengths else rows.on_rank[m_idx])
    for m, sigma_t, target_t, g_t, s_t in zip(m_idx, sigma, target, g, s):
        V = rows.V[m]
        r = np.matmul(V, W[:, :, None])[:, :, 0]
        r *= sigma_t
        r -= target_t
        W -= np.matmul((g_t * r)[:, None, :], V)[:, 0]
        np.multiply(s_t, r, out=sigma_t)
    sigma *= sigma
    for loss in rows.rest[m_idx] + 0.5 * sigma.sum(axis=2):
        loss_after += loss


def rank_one_collections(tmp_path):
    """(collection, starts) pairs whose tasks are all one row."""
    rng = np.random.default_rng(12)
    hard = build_collection({"generator": "aligned-pairs", "d": 20, "pairs": 5,
                             "angle": 0.04, "radius": 1.0, "seed": 11})
    seen, _ = seen_task_lb_collection(16)
    any_alg = any_alg_lb_collection(16, lambda col, k: np.array([0.5, 0.25]))
    path = tmp_path / "rows.json"
    row = {"X": [[0.6, -0.8, 0.0]], "y": [1.5]}
    path.write_text(json.dumps({"tasks": [row, {"X": [[0.0, 0.0, 0.0]], "y": [2.0]}, row,
                                          {"X": [[0.0, 2.0, -1.0]], "y": [-0.5]}]}))
    from_file = build_collection({"path": str(path)})
    # From 1e308 * (1, 1), a step on the second task overflows its residual
    # and the first task's does not.
    overflow = new_collection([new_task([[1.0, 0.0]], [0.0]), new_task([[1.0, 1.0]], [0.0])])

    def starts(d):
        w0 = rng.standard_normal(d)
        w0[::2] = -0.0  # made +0.0 by the runners' start
        return (None, w0)

    return [(col, starts(col.d)) for col in (hard, seen, any_alg, from_file)] + [
        (overflow, (np.full(2, 1e308),))]


def test_rank_one_branch_is_the_stacked_matmul_arithmetic(monkeypatch, tmp_path):
    """Bit for bit (finals and after-step loss sums as uint64, so that a -0.0
    or a NaN's payload shows), every scheme steps one-row tasks as the
    stacked matmuls do: on the acceptance and lower-bound collections, a file
    collection with a zero row and a duplicated row, and one trial of a batch
    driven to overflow."""
    rng = np.random.default_rng(13)
    k = 12
    for col, starts in rank_one_collections(tmp_path):
        assert col.row_bases.V.shape[1] == 1
        idx = rng.integers(1, col.M + 1, size=(4, k))
        if col.M == 2:  # the overflow collection: only the later trials draw task 2
            idx[0] = 1
            idx[1:, 0] = 2
        for scheme in SCHEME_KINDS:
            schedule = schedule_for(rng, k, col.radius)
            if scheme == "unregularized":
                schedule = None
            for w0 in starts:
                for trials in (idx[:1], idx):
                    cells = [(trials, schedule)]
                    with np.errstate(over="ignore", invalid="ignore"):
                        with monkeypatch.context() as patch:
                            patch.setattr(np, "matmul", None)  # the branch makes none
                            (got,) = run_batch(col, cells, scheme, w0=w0)
                        with monkeypatch.context() as patch:
                            patch.setattr(schemes, "_step_block", stacked_matmul_block)
                            (want,) = run_batch(col, cells, scheme, w0=w0)
                    for name in ("final", "loss_after_sum"):
                        a, b = getattr(got, name), getattr(want, name)
                        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), \
                            (scheme, name)
            if col.M == 2:
                assert np.isfinite(got.final[0]).all() and np.isnan(got.final[1:]).all()


@st.composite
def integer_rank_one_runs(draw):
    """Integer one-row tasks, among them a zero row, duplicated rows and rows
    with zero entries, so that residuals cancel exactly to +0.0 or -0.0; an
    integer start whose zero entries may be -0.0; a scheme, its schedule and
    the trials' orderings."""
    d = draw(st.integers(2, 4))
    entries = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    rows = draw(st.lists(entries, min_size=1, max_size=3))
    rows += draw(st.lists(st.sampled_from(rows), max_size=2))  # duplicated rows
    if draw(st.booleans()):
        rows.append([0] * d)
    assume(any(any(row) for row in rows))  # not every task zero, so q = 1
    col = new_collection([new_task([row], [draw(st.integers(-2, 2))]) for row in rows])
    w0 = np.array(draw(entries), dtype=np.float64)
    negative = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    w0[negative & (w0 == 0)] = -0.0
    scheme = draw(st.sampled_from(SCHEME_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.integers(1, 10))
    schedule = None if scheme == "unregularized" else schedule_for(rng, k, col.radius)
    idx = rng.integers(1, col.M + 1, size=(draw(st.integers(1, 3)), k))
    return col, w0, scheme, schedule, idx


def has_minus_zero(a):
    return bool(np.signbit(a[a == 0]).any())


@settings(max_examples=200, deadline=None)
@given(run=integer_rank_one_runs())
def test_rank_one_branch_keeps_signed_zeros(run):
    """From any start, a -0.0 among its entries included, the rank-one
    branch's finals and after-step loss sums are the stacked matmuls' bit for
    bit (as uint64), and no final entry is -0.0.  Nor is any entry of
    ``run_continual``'s start, or of its iterates under the literal rules
    that subtract from w: the regularized rule is an LU solve instead, which
    can return a -0.0 (from w = 0 on the task ([1, 2], 0), for one)."""
    col, w0, scheme, schedule, idx = run
    assert col.row_bases.V.shape[1] == 1
    (got,) = run_batch(col, [(idx, schedule)], scheme, w0=w0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schemes, "_step_block", stacked_matmul_block)
        (want,) = run_batch(col, [(idx, schedule)], scheme, w0=w0)
    for name in ("final", "loss_after_sum"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
    assert not has_minus_zero(got.final)
    for order in idx:
        iterates = run_continual(col, order, schedule, scheme, w0).iterates
        assert not has_minus_zero(iterates[:1] if scheme == "regularized" else iterates)


def test_multi_row_branch_is_the_stacked_matmul_arithmetic(monkeypatch, tmp_path):
    """Bit for bit (finals and after-step loss sums as uint64), every scheme
    steps tasks of several rows as the stacked matmuls do: on the sweep-wide
    Gaussian collection, and on a file collection of one- to three-row tasks
    (so that most basis rows are padding) with a zero task and a
    rank-deficient one.  Each cell's reference runs alone, so it reads its
    strengths through the lone-cell view; the engine runs one cell and then
    several together, one step per block and under the default budget, from
    a zero start and random starts with and without a -0.0; no final entry
    is -0.0."""
    rng = np.random.default_rng(14)
    wide = build_collection({"d": 10, "M": 400, "n": 5, "radius": 1.0, "seed": 7})
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"tasks": [
        {"X": [[0.6, -0.8, 0.0, 1.0], [1.0, 2.0, 0.0, -1.0], [0.5, 0.5, 0.5, 0.5]],
         "y": [1.0, 0.5, -0.25]},
        {"X": [[0.0, 0.0, 0.0, 0.0]], "y": [2.0]},
        {"X": [[0.0, 2.0, -1.0, 0.5]], "y": [-0.5]},
        {"X": [[1.0, 1.0, 0.0, 0.0], [2.0, 2.0, 0.0, 0.0]], "y": [0.3, -0.3]}]}))
    mixed = build_collection({"path": str(path)})
    for col in (wide, mixed):
        assert col.row_bases.V.shape[1] > 1
        signed = rng.standard_normal(col.d)
        signed[::2] = -0.0
        for scheme in SCHEME_KINDS:
            cells = [(rng.integers(1, col.M + 1, size=(trials, k)),
                      None if scheme == "unregularized" else schedule_for(rng, k, col.radius))
                     for k, trials in ((4, 3), (9, 2), (16, 5))]
            for w0 in (None, rng.standard_normal(col.d), signed):
                want = []
                for cell in cells:
                    with monkeypatch.context() as patch:
                        patch.setattr(schemes, "_step_block", stacked_matmul_block)
                        want += run_batch(col, [cell], scheme, w0=w0)
                for budget in (1, schemes._BLOCK_ELEMS):
                    with monkeypatch.context() as patch:
                        patch.setattr(schemes, "_BLOCK_ELEMS", budget)
                        patch.setattr(np, "vecdot", None)  # the rank-one branch's call
                        got = run_batch(col, cells[:1], scheme, w0=w0)
                        got += run_batch(col, cells, scheme, w0=w0)
                    for a, b in zip(got, want[:1] + want):
                        for name in ("final", "loss_after_sum"):
                            assert np.array_equal(getattr(a, name).view(np.uint64),
                                                  getattr(b, name).view(np.uint64)), \
                                (scheme, budget, name)
                        assert not has_minus_zero(a.final), (scheme, budget)


def assert_same_trials(col, got, want, rows=slice(None)):
    """``got`` holds bit for bit the values of rows ``rows`` of ``want``."""
    assert np.array_equal(got.final, want.final[rows])
    assert np.array_equal(got.loss_after_sum, want.loss_after_sum[rows])
    a, b = summarize_batch(got, col), summarize_batch(want, col)
    for name in ("avg_loss", "seen_loss", "degradation", "dist_to_wstar"):
        assert np.array_equal(getattr(a, name), getattr(b, name)[rows]), name


def test_trial_values_do_not_depend_on_the_batch(monkeypatch):
    rng = np.random.default_rng(5)
    wide = new_collection([make_task(rng, "wide", 6) for _ in range(4)])
    # One-row and zero tasks (q = 1) take the step kernel's rank-one branch.
    rng_one = np.random.default_rng(6)
    rank_one = new_collection([make_task(rng_one, shape, 6)
                               for shape in ("one-row", "one-row", "zero", "one-row")])
    assert rank_one.row_bases.V.shape[1] == 1
    # (k, trials) per cell: unequal trial counts, k = 1, a tie and a
    # non-doubling grid, the longest cell neither first nor last.
    grid = ((3, 4), (40, 9), (1, 2), (8, 3), (8, 2), (5, 1))
    # The wide collection last: the checks after the loop use it.
    for col, rng in ((rank_one, rng_one), (wide, rng)):
        q = col.row_bases.V.shape[1]
        # Block budgets: one step per block; three steps per block once only the
        # 9 trials of the k = 40 cell are left, so it ends mid-block; and every
        # step between two cell ends in one block.
        budgets = (1, 3 * 9 * q, 40 * 21 * q + 1)
        cells = [(rng.integers(1, col.M + 1, size=(trials, k)),
                  schedule_for(rng, k, col.radius)) for k, trials in grid]
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

    # A drawn task's 0 < gamma R_m^2 < 1 error in the last cell (at step 3)
    # is raised before any cell steps.
    stepped = []
    monkeypatch.setattr(schemes, "spectral_multiplier", lambda *args: stepped.append(args))
    idx = cells[-1][0]
    gamma = np.full(5, 0.1 / col.radius ** 2)
    gamma[2] = 1.5 / col.tasks[idx[0, 2] - 1].spectral_norm ** 2
    bad = custom_schedule(5, gamma=gamma, n_steps=[1] * 5)
    with pytest.raises(ValueError, match=r"0 < gamma \* R_m\^2 < 1"):
        run_batch(col, cells[:-1] + [(idx, bad)], "budgeted")
    assert stepped == []


def test_run_batch_steps_through_one_multiplier_call(monkeypatch):
    """Every scheme takes each block of steps through one
    ``spectral_multiplier`` call on (steps, trials, q) arrays, also on one-row
    tasks (q = 1, the rank-one branch).  The calls cover steps 0..k_max-1
    once, in order; a block never spans a cell's end; every step gets the
    scheme's ``READS``.  Under the default budget these small cells take one
    call per span between two cuts."""
    rng = np.random.default_rng(8)
    wide = new_collection([make_task(rng, "wide", 4) for _ in range(3)])
    rng_one = np.random.default_rng(9)
    rank_one = new_collection([make_task(rng_one, shape, 4)
                               for shape in ("one-row", "zero", "one-row")])
    assert rank_one.row_bases.V.shape[1] == 1
    calls = []
    multiplier = schemes.spectral_multiplier

    def counted(strengths, sigma, *args):
        calls.append((len(strengths), sigma.shape))
        return multiplier(strengths, sigma, *args)

    monkeypatch.setattr(schemes, "spectral_multiplier", counted)
    grid = ((5, 2), (9, 3))
    for col, rng in ((wide, rng), (rank_one, rng_one)):
        q = col.row_bases.V.shape[1]
        cells = [(rng.integers(1, col.M + 1, size=(trials, k)),
                  schedule_for(rng, k, col.radius)) for k, trials in grid]
        cuts = [0, 5, 9]
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
                    assert reads == len(schemes.READS[scheme])
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
        cells = [(sample_orderings("with-replacement", col.M, k, 40, 0)[0],
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
