import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from contreg import schedules
from contreg.schedules import (certificate_check, custom_schedule, exact_budget,
                               fixed_budget, fixed_coefficient, increasing_budget,
                               increasing_coefficient)


def test_fixed_coefficient_formula():
    # direct formula evaluation: lambda = R^2 (ln k - 1)
    spec = fixed_coefficient(1.0, 20)
    assert_allclose(spec.lam, math.log(20) - 1.0)
    assert spec.lam[0] == pytest.approx(1.9957322735539909)
    spec = fixed_coefficient(1.0, 3)
    assert spec.lam[0] == pytest.approx(math.log(3) - 1.0)
    assert spec.lam[0] == pytest.approx(0.09861228866810978)


def test_fixed_coefficient_clamp_at_short_horizons():
    spec = fixed_coefficient(1.0, 2)  # ln 2 < 1, formula would go nonpositive
    assert spec.lam[0] == pytest.approx(1e-6)
    spec = fixed_coefficient(2.0, 2)
    assert spec.lam[0] == pytest.approx(4e-6)
    with pytest.raises(ValueError):
        fixed_coefficient(1.0, 1)


def test_fixed_coefficient_smoothness_identity():
    # eta * beta_r = R^2 / (R^2 + lambda) = 1 / ln k, independent of eta
    for k in (3, 10, 100, 12345):
        for R in (0.5, 1.0, 3.0):
            spec = fixed_coefficient(R, k)
            implied = spec.eta[0] * R * R / (R * R + spec.lam[0])
            assert abs(implied - 1.0 / math.log(k)) <= 1e-12


def test_fixed_budget_formula_evaluation():
    spec = fixed_budget(1.0, 0.5, 8)
    expected = math.log(1.0 - 1.0 / math.log(8)) / math.log(0.5)
    assert exact_budget(1.0, 0.5, 8) == pytest.approx(expected)
    assert exact_budget(1.0, 0.5, 8) == pytest.approx(0.945911, abs=1e-6)
    assert spec.n_steps[0] == 1

    spec = fixed_budget(1.0, 0.5, 3)
    expected = math.log(1.0 - 1.0 / math.log(3)) / math.log(0.5)
    assert exact_budget(1.0, 0.5, 3) == pytest.approx(expected)
    # formula evaluation gives 3.47777..., which rounds to 3
    assert exact_budget(1.0, 0.5, 3) == pytest.approx(3.47777108360498, rel=1e-12)
    assert spec.n_steps[0] == 3


def test_fixed_budget_exact_count_grows_as_step_shrinks():
    stars = [exact_budget(1.0, g, 20)
             for g in (0.5, 0.2, 0.1, 0.05, 0.01, 0.001)]
    assert all(b > a for a, b in zip(stars, stars[1:]))


def test_fixed_budget_validation():
    with pytest.raises(ValueError, match="ln k"):
        fixed_budget(1.0, 0.5, 2)
    with pytest.raises(ValueError, match="gamma"):
        fixed_budget(1.0, 1.5, 8)
    with pytest.raises(ValueError, match="gamma"):
        fixed_budget(1.0, 0.0, 8)


def test_increasing_coefficient_values():
    spec = increasing_coefficient(1.0, 10)
    assert spec.lam[0] == pytest.approx(13.0 / 3.0, rel=1e-14)
    assert spec.lam[9] == pytest.approx((13.0 / 3.0) * (11.0 / 2.0), rel=1e-14)
    assert np.all(np.diff(spec.lam) > 0)
    assert np.all(np.diff(spec.eta) < 0)
    assert np.all(spec.lam * spec.eta == 1.0)
    with pytest.raises(ValueError):
        increasing_coefficient(1.0, 1)
    with pytest.raises(ValueError, match="R must be positive"):
        increasing_coefficient(0.0, 10)


def scalar_inverse_pairs(eta0):
    """The element-by-element search ``schedules._exact_inverse_pairs`` replaces."""
    def neighbors(x, width):
        vals = [x]
        lo = hi = x
        for _ in range(width):
            lo = np.nextafter(lo, -np.inf)
            hi = np.nextafter(hi, np.inf)
            vals += [hi, lo]
        return vals

    lam = np.empty_like(eta0)
    eta = np.empty_like(eta0)
    for i, e0 in enumerate(np.atleast_1d(eta0)):
        hit = None
        for e in neighbors(float(e0), 2):
            for l in neighbors(1.0 / e, 3):
                if l * e == 1.0:
                    hit = (l, e)
                    break
            if hit:
                break
        if hit is None:
            raise ArithmeticError(f"no exactly invertible pair near {e0!r}")
        lam[i], eta[i] = hit
    return lam, eta


@pytest.mark.parametrize("R", [1.0, 0.3, 1.7, math.pi, 1e-3, 1e3])
def test_exact_inverse_pairs_match_the_scalar_search(R):
    for k in (2, 3, 64, 1000, 1024):
        t = np.arange(1, k + 1)
        eta0 = (3.0 / (13.0 * R * R)) * (k - t + 2) / (k + 1)
        want = scalar_inverse_pairs(eta0)
        got = schedules._exact_inverse_pairs(eta0)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), k
    bad = np.array([0.25, np.nan])
    with pytest.raises(ArithmeticError) as want:
        scalar_inverse_pairs(bad)
    with pytest.raises(ArithmeticError) as got:
        schedules._exact_inverse_pairs(bad)
    assert str(got.value) == str(want.value)


def test_increasing_budget_values():
    spec = increasing_budget(1.0, 10, 1)
    assert spec.gamma[0] == pytest.approx(3.0 / 13.0, rel=1e-14)
    assert np.all(spec.eta / (spec.gamma * spec.n_steps) == 1.0)
    spec = increasing_budget(1.0, 10, 3)
    assert spec.gamma[0] == pytest.approx(1.0 / 13.0, rel=1e-14)
    assert np.all(spec.n_steps == 3)
    assert np.all(np.diff(spec.gamma * spec.n_steps) < 0)
    with pytest.raises(ValueError):
        increasing_budget(1.0, 10, 0)


def test_certificate_hand_checked_example():
    rep = certificate_check(5, 1.0, 3.0 / 13.0)
    # c_k = eta_k v_k^2 (1 - a1 beta eta_k) with eta_5 = 3/65 and v_5 = 1.2
    assert rep.c_k == pytest.approx((3.0 / 65.0) * 1.44 * (1.0 - 3.0 / 65.0))
    assert rep.c_k == pytest.approx(0.06339408284023669)
    assert rep.c_k >= rep.eta / 5
    assert rep.min_c >= 0.0
    assert rep.passed


def test_certificate_weight_sequence_shape():
    rep = certificate_check(7, 2.0, 0.05)
    assert len(rep.v) == 8
    assert rep.v[7] == rep.v[6]
    assert rep.v[0] == pytest.approx(2.0 / 8.0 + 1.0 / 7.0)
    assert rep.eta_t[0] == pytest.approx(0.05)
    assert rep.eta_t[-1] == pytest.approx(0.05 / 7.0)


def test_certificate_rejects_large_steps():
    with pytest.raises(ValueError, match="exceeds"):
        certificate_check(5, 1.0, 0.5)
    # The limit is the increasing schedules' first step 3 / (13 R^2) at beta = R^2.
    assert certificate_check(5, 1.0, 3.0 / 13.0).passed
    with pytest.raises(ValueError, match="exceeds"):
        certificate_check(5, 1.0, np.nextafter(3.0 / 13.0, 1.0))
    with pytest.raises(ValueError):
        certificate_check(1, 1.0, 0.1)
    with pytest.raises(ValueError, match="beta must be positive"):
        certificate_check(5, 0.0, 0.1)
    with pytest.raises(ValueError, match="eta must be positive"):
        certificate_check(5, 1.0, 0.0)


def test_certificate_grid_sample():
    for beta in (0.5, 1.0, 4.0):
        for k in (2, 3, 10, 50, 100):
            rep = certificate_check(k, beta, 3.0 / (13.0 * beta))
            assert rep.passed, (k, beta)


def test_custom_schedule_validation():
    custom_schedule(3, lam=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="length"):
        custom_schedule(3, lam=[1.0, 2.0])
    with pytest.raises(ValueError, match="positive"):
        custom_schedule(2, lam=[1.0, -1.0])
    with pytest.raises(ValueError, match="either"):
        custom_schedule(2)
    with pytest.raises(ValueError, match="integer step counts"):
        custom_schedule(2, gamma=[0.1, 0.1])
    with pytest.raises(ValueError, match=">= 1"):
        custom_schedule(2, gamma=[0.1, 0.1], n_steps=[1, 0])
    # Values are rejected as given, never converted: no scalars, nesting,
    # bools (alone or mixed with numbers), non-finite strengths or
    # non-integer step counts.
    numbers, integers = "must be a 1-D array of numbers", "must be a 1-D array of integers"
    for fields, message in (
            ({"lam": 5.0}, numbers), ({"lam": [[1.0, 2.0]]}, numbers),
            ({"lam": [True, True]}, numbers), ({"lam": [1.0, True]}, numbers),
            ({"lam": np.ones(2, bool)}, numbers), ({"lam": [1.0, "2"]}, numbers),
            ({"lam": [1.0, math.inf]}, "lam must be finite, got inf"),
            ({"lam": [1.0, 1.0], "eta": [1.0, math.inf]}, "eta must be finite, got inf"),
            ({"gamma": [0.1, math.nan], "n_steps": [1, 1]}, "0 < gamma, got nan"),
            ({"gamma": [0.1, 0.1], "n_steps": [1.5, 2.7]}, integers),
            ({"gamma": [0.1, 0.1], "n_steps": np.ones(2)}, integers),
            ({"gamma": [0.1, 0.1], "n_steps": [1, 2 ** 64]},
             "n_steps must be within the int64 range"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            custom_schedule(2, **fields)
