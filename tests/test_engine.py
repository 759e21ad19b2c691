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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contreg.metrics import summarize, summarize_batch
from contreg.schedules import custom_schedule
from contreg.schemes import SCHEME_KINDS, run_batch, run_continual
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
    batch = run_batch(col, idx, schedule, scheme, w0=w0)
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


def test_trial_values_do_not_depend_on_the_batch():
    rng = np.random.default_rng(5)
    col = new_collection([make_task(rng, "wide", 6) for _ in range(4)])
    idx = rng.integers(1, col.M + 1, size=(9, 40))
    schedule = schedule_for(rng, 40, col.radius, False)
    for scheme in SCHEME_KINDS:
        full = run_batch(col, idx, schedule, scheme)
        for rows in ([0], [0, 1, 2], [8, 3]):
            part = run_batch(col, idx[rows], schedule, scheme)
            assert np.array_equal(part.final, full.final[rows])
            assert np.array_equal(part.loss_after_sum, full.loss_after_sum[rows])
            a, b = summarize_batch(part, col), summarize_batch(full, col)
            for name in ("avg_loss", "seen_loss", "degradation", "dist_to_wstar"):
                assert np.array_equal(getattr(a, name), getattr(b, name)[rows])


class Strengths:
    """A schedule that skips ScheduleSpec's own checks (both runners read fields only)."""

    def __init__(self, k, lam=None, gamma=None, n_steps=None, eta=None, first=False):
        self.k = k
        self.lam = None if lam is None else np.asarray(lam, dtype=float)
        self.gamma = None if gamma is None else np.asarray(gamma, dtype=float)
        self.n_steps = None if n_steps is None else np.asarray(n_steps, dtype=np.int64)
        self.eta = np.ones(k) if eta is None else np.asarray(eta, dtype=float)
        self.unregularized_first = first


@pytest.mark.parametrize("scheme, fields, message", [
    ("regularized", {"lam": [1.0, np.nan, 1.0]}, "coefficient must be positive"),
    ("igd-of-regularized", {"lam": [1.0, 0.0, 1.0]}, "coefficient must be positive"),
    ("igd-of-regularized", {"lam": [1.0] * 3, "eta": [1.0, -2.0, 1.0]},
     "step size must be positive"),
    ("budgeted", {"gamma": [0.1] * 3, "n_steps": [1, 0, 1]}, "budget must be >= 1"),
    ("igd-of-budgeted", {"gamma": [0.1] * 3, "n_steps": [1, 0, 1]},
     "budget must be a positive integer"),
    ("igd-of-budgeted", {"gamma": [0.1] * 3, "n_steps": [1] * 3, "eta": [1.0, 0.0, 1.0]},
     "step size must be positive"),
    ("budgeted", {"gamma": [0.1, np.nan, 0.1], "n_steps": [1] * 3}, "0 < gamma"),
])
def test_strength_checks_raise_the_literal_errors(scheme, fields, message):
    col = new_collection([new_task([[1.0, 0.0]], [1.0]), new_task([[0.0, 2.0]], [1.0])])
    idx = np.array([[1, 2, 1], [2, 2, 1]])
    schedule = Strengths(3, **fields)
    with pytest.raises(ValueError) as literal:
        run_continual(col, idx[0], schedule, scheme)
    with pytest.raises(ValueError) as batch:
        run_batch(col, idx, schedule, scheme)
    assert message in str(literal.value)
    assert str(batch.value) == str(literal.value)
    # The literal rules skip every check on an unregularized first step.
    moved = Strengths(3, first=True, **{name: [v[1], v[0], v[2]]
                                        for name, v in fields.items()})
    run_continual(col, idx[0], moved, scheme)
    run_batch(col, idx, moved, scheme)


def test_gamma_check_covers_only_the_tasks_drawn():
    col = new_collection([new_task([[1.0, 0.0]], [1.0]), new_task([[0.0, 3.0]], [1.0])])
    schedule = custom_schedule(4, gamma=np.full(4, 0.5), n_steps=np.ones(4))
    only_first = np.ones((3, 4), np.int64)
    for scheme in ("budgeted", "igd-of-budgeted"):
        run_batch(col, only_first, schedule, scheme)
        drawn = only_first.copy()
        drawn[2, 3] = 2
        with pytest.raises(ValueError) as batch:
            run_batch(col, drawn, schedule, scheme)
        with pytest.raises(ValueError) as literal:
            run_continual(col, drawn[2], schedule, scheme)
        assert str(batch.value) == str(literal.value)
        assert "R_m^2=9.0" in str(batch.value)
