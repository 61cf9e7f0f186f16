import cmath
import math

import mpmath
import numpy as np
import pytest

from numrange.blaschke import real_part_symbol
from numrange.errors import AlphaOutOfRangeError, UnsupportedDegreeError
from numrange.kms import kms_root_system
from numrange.model_operator import single_zero_matrix
from numrange.numerical_range import numerical_radius
from numrange.radius import (
    POISSON_FORM_MIN_ALPHA,
    radius_closed_form,
    radius_poisson_form,
    radius_single_zero,
)


def test_zero_alpha_reduces_to_shift_radius():
    for n in range(1, 10):
        assert abs(radius_single_zero(0.0, n) - math.cos(math.pi / (n + 1))) < 1e-15


@pytest.mark.parametrize("alpha", [5e-324, 1e-300, 1e-15, 1e-14])
def test_tiny_alpha_tends_to_shift_radius(alpha):
    # the root sits within rounding of the grid point k pi / (n+1); the bisection
    # bracket must still be accepted there
    for n in range(1, 40):
        assert abs(radius_single_zero(alpha, n) - math.cos(math.pi / (n + 1))) <= 1e-13


def test_argument_independence():
    base = radius_single_zero(0.5, 2)
    assert abs(base - 0.875) < 1e-12
    rotated = radius_single_zero(0.5 * cmath.exp(1j * math.pi / 7), 2)
    assert abs(rotated - 0.875) < 1e-12


def test_rejects_boundary_zero():
    with pytest.raises(AlphaOutOfRangeError):
        radius_single_zero(1.0, 3)


@pytest.mark.parametrize("alpha", [float("nan"), complex(math.inf, 0.0), complex(0.2, math.nan)])
@pytest.mark.parametrize("formula", [radius_single_zero, radius_poisson_form, radius_closed_form])
def test_rejects_non_finite_zero(formula, alpha):
    with pytest.raises(AlphaOutOfRangeError):
        formula(alpha, 3)


def test_formula_matches_eigen_route():
    rng = np.random.default_rng(101)
    for _ in range(25):
        alpha = 0.85 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        n = int(rng.integers(1, 13))
        formula = radius_single_zero(alpha, n)
        eigen = numerical_radius(single_zero_matrix(alpha, n).matrix)
        assert abs(formula - eigen) < 1e-9


def test_closed_forms_at_zero():
    assert abs(radius_closed_form(0.0, 2) - 0.5) < 1e-15
    assert abs(radius_closed_form(0.0, 3) - math.sqrt(2.0) / 2.0) < 1e-15
    assert abs(radius_closed_form(0.0, 4) - (1.0 + math.sqrt(5.0)) / 4.0) < 1e-15


def test_closed_forms_match_root_formula():
    for n in (2, 3, 4):
        for a in np.linspace(0.0, 0.95, 20):
            assert abs(radius_closed_form(a, n) - radius_single_zero(a, n)) < 1e-11


def test_closed_form_unsupported_degree():
    with pytest.raises(UnsupportedDegreeError):
        radius_closed_form(0.5, 5)


def test_three_way_agreement():
    rng = np.random.default_rng(103)
    for _ in range(50):
        alpha = 0.8 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        n = int(rng.integers(2, 13))
        formula = radius_single_zero(alpha, n)
        eigen = numerical_radius(single_zero_matrix(alpha, n).matrix)
        assert abs(formula - eigen) < 1e-9
        if n <= 4:
            assert abs(radius_closed_form(alpha, n) - formula) < 1e-9


def test_monotone_in_modulus():
    for n in (2, 5, 9):
        ladder = [radius_single_zero(a, n) for a in np.linspace(0.0, 0.9, 40)]
        assert all(b - a > -1e-12 for a, b in zip(ladder, ladder[1:]))


def test_poisson_restatement_agrees():
    for n in (1, 2, 4, 7):
        for a in (0.1, 0.45, 0.8):
            assert abs(radius_poisson_form(a, n) - radius_single_zero(a, n)) < 1e-11


def test_poisson_form_holds_down_to_its_bound():
    for n in (1, 2, 4, 7, 128, 1000):
        a = POISSON_FORM_MIN_ALPHA
        assert abs(radius_poisson_form(a, n) - radius_single_zero(a, n)) < 1e-11
        assert radius_poisson_form(0.0, n) == radius_single_zero(0.0, n)


@pytest.mark.parametrize("a", [0.5 * POISSON_FORM_MIN_ALPHA, 1e-8, 1e-12, 1e-300, 5e-324])
def test_poisson_form_refuses_alpha_below_its_bound(a):
    # it divides an O(a) difference by 2a: 4.4e-5 off at 1e-12, 0.0 at 1e-300, NaN at 5e-324
    for alpha in (a, -a, 1j * a):
        with pytest.raises(AlphaOutOfRangeError):
            radius_poisson_form(alpha, 2)


def test_formulas_match_root_system_at_large_degree():
    # the scalar bisection must resolve the last root to float resolution:
    # a root 5e-14 off fails the residual checks from n = 255 on
    for n in (255, 256, 600, 1000):
        for a in (0.1, 0.5, 0.9):
            expected = -real_part_symbol(a, kms_root_system(a, n).roots[-1])
            assert abs(radius_single_zero(a, n) - expected) <= 1e-13
            assert abs(radius_poisson_form(a, n) - expected) <= 1e-13


def _radius_mp(a: float, n: int):
    """Minus the real-part symbol at the last root of the parity equation,
    solved to 40 digits in its bracket ((n - 1) pi / (n + 1), n pi / (n + 1)]."""
    with mpmath.workdps(40):
        a = mpmath.mpf(a)
        trig = mpmath.cos if n % 2 else mpmath.sin  # the parity of k = n
        half_hi, half_lo = (n + 1) / mpmath.mpf(2), (n - 1) / mpmath.mpf(2)
        lo, hi = (n - 1) * mpmath.pi / (n + 1), n * mpmath.pi / (n + 1)
        t = mpmath.findroot(
            lambda t: trig(half_hi * t) - a * trig(half_lo * t), (lo, hi), solver="anderson"
        )
        assert lo < t <= hi
        return (2 * a - (1 + a * a) * mpmath.cos(t)) / (1 - 2 * a * mpmath.cos(t) + a * a)


@pytest.mark.parametrize("a", [0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999])
def test_radius_formulas_near_the_circle_match_mpmath(a):
    tol = 4.0 * np.finfo(float).eps
    for n in (1, 2, 3, 4, 8, 64, 1000):
        exact = _radius_mp(a, n)
        assert abs(radius_single_zero(a, n) - exact) <= tol
        assert abs(radius_poisson_form(a, n) - exact) <= tol
        if 2 <= n <= 4:
            assert abs(radius_closed_form(a, n) - exact) <= tol


def test_radius_within_polygon_bounds():
    for n in (3, 5, 8):
        for a in (0.1, 0.5, 0.8):
            r = radius_single_zero(a, n)
            assert math.cos(math.pi / n) < r < 1.0
