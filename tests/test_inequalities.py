import cmath
import math

import numpy as np
import pytest

from numrange.errors import (
    AlphaOutOfRangeError,
    ConstantMapError,
    NotNilpotentError,
    SelfMapViolationError,
)
from numrange.inequalities import (
    AnalyticSelfMap,
    NilpotentContraction,
    haagerup_harpe_check,
    operator_mobius,
    polynomial_apply,
    random_nilpotent_contraction,
    schwarz_pick_chain,
    schwarz_pick_check,
    schwarz_pick_transform,
    vanishing_order,
)
from numrange.model_operator import shift_adjoint_matrix, shift_matrix, single_zero_matrix
from numrange.numerical_range import numerical_radius
from numrange.radius import radius_single_zero

F_ID = AnalyticSelfMap((0.0, 1.0))
F_SQ = AnalyticSelfMap((0.0, 0.0, 1.0))
F_ODD = AnalyticSelfMap((0.0, 0.5, 0.0, 0.5))
F_SCALED = AnalyticSelfMap((0.0, 0.45, 0.45))


def test_self_map_certification_rejects_expander():
    with pytest.raises(SelfMapViolationError):
        AnalyticSelfMap((0.0, 1.1))


def test_self_map_accepts_standard_maps():
    for f in (F_ID, F_SQ, F_ODD, F_SCALED):
        assert f.degree >= 1


def test_operator_mobius_at_zero_negates():
    t = shift_matrix(3)
    assert np.allclose(operator_mobius(t, 0.0), -t)


def test_operator_mobius_of_zero_matrix():
    out = operator_mobius(np.zeros((3, 3)), 0.4 + 0.1j)
    assert np.allclose(out, (0.4 + 0.1j) * np.eye(3))


@pytest.mark.parametrize("alpha", [1.0, 1j, float("nan"), complex(0.1, math.inf)])
def test_alpha_outside_open_disc_rejected(alpha):
    with pytest.raises(AlphaOutOfRangeError):
        operator_mobius(shift_matrix(3), alpha)
    t = NilpotentContraction(shift_matrix(3), 3)
    with pytest.raises(AlphaOutOfRangeError):
        schwarz_pick_check(t, F_ID, alpha)


def test_operator_mobius_relates_to_shift_moebius():
    # for real a, (aI - S*)(I - a S*)^{-1} is minus the shifted model matrix
    a, n = 0.5, 3
    lhs = operator_mobius(shift_adjoint_matrix(n), a)
    rhs = -single_zero_matrix(-a, n).matrix
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_polynomial_apply_identity_and_constant():
    t = shift_matrix(3)
    assert np.allclose(polynomial_apply(t, F_ID), t)
    const = AnalyticSelfMap((0.25,))
    assert np.allclose(polynomial_apply(t, const), 0.25 * np.eye(3))


def test_polynomial_apply_square_of_shift():
    t = shift_matrix(3)
    assert np.allclose(polynomial_apply(t, F_SQ), t @ t)


def test_vanishing_order_basic():
    assert vanishing_order(F_ID, 0.3) == 1
    assert vanishing_order(F_SQ, 0.0) == 2
    assert vanishing_order(F_SQ, 0.3) == 1


def test_vanishing_order_critical_point():
    assert vanishing_order(F_SCALED, -0.5) == 2


def test_vanishing_order_constant_raises():
    with pytest.raises(ConstantMapError):
        vanishing_order(AnalyticSelfMap((0.5,)), 0.2)


def test_nilpotent_contraction_validation():
    with pytest.raises(NotNilpotentError):
        NilpotentContraction(np.eye(2), 2)
    with pytest.raises(ValueError):
        NilpotentContraction(2.0 * shift_matrix(2), 2)


def test_random_nilpotent_contraction_properties():
    t = random_nilpotent_contraction(5, 42)
    same = random_nilpotent_contraction(5, 42)
    assert np.array_equal(t.matrix, same.matrix)
    assert np.max(np.abs(np.linalg.matrix_power(t.matrix, 5))) == 0.0
    from numrange.linalg import spectral_norm

    assert abs(spectral_norm(t.matrix) - 1.0) < 1e-12
    two = random_nilpotent_contraction(2, 7)
    assert abs(abs(two.matrix[0, 1]) - 1.0) < 1e-12
    assert two.matrix[1, 0] == 0


def test_schwarz_pick_equality_for_pure_shift():
    for n in (2, 3, 5):
        t = NilpotentContraction(shift_matrix(n), n)
        check = schwarz_pick_check(t, F_ID, 0.0)
        assert abs(check.lhs - math.cos(math.pi / (n + 1))) < 1e-10
        assert abs(check.margin) < 1e-9


def test_schwarz_pick_margin_for_shift_with_offset():
    t = NilpotentContraction(shift_matrix(3), 3)
    check = schwarz_pick_check(t, F_ID, 0.4)
    assert check.margin >= -1e-9


def test_schwarz_pick_square_map_power():
    t = random_nilpotent_contraction(4, 11)
    check = schwarz_pick_check(t, F_SQ, 0.0)
    assert abs(check.rhs - math.cos(math.pi / 5) ** 2) < 1e-12
    assert check.margin >= -1e-9


def test_schwarz_pick_chain_links():
    rng = np.random.default_rng(23)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        t = random_nilpotent_contraction(n, int(rng.integers(0, 10**6)))
        alpha = 0.7 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        f = (F_ID, F_SQ, F_ODD, F_SCALED)[int(rng.integers(0, 4))]
        chain = schwarz_pick_chain(t, f, alpha)
        assert chain.lhs <= chain.shift_bound + 1e-9
        assert chain.shift_bound <= chain.mobius_power + 1e-9
        assert abs(chain.mobius_power - chain.formula_power) < 5e-9


def test_scalar_case_is_pseudo_hyperbolic_distance():
    t, alpha = 0.3 + 0.2j, 0.1 - 0.4j
    for f in (F_ID, F_SQ, F_ODD):
        lhs = numerical_radius(schwarz_pick_transform(np.array([[t]]), f, alpha))
        fa, ft = f(alpha), f(t)
        expected = abs((fa - ft) / (1.0 - np.conj(fa) * ft))
        assert abs(lhs - expected) < 1e-12


def test_haagerup_harpe_equality_for_shift():
    for n in (2, 4, 8):
        t = NilpotentContraction(shift_matrix(n), n)
        check = haagerup_harpe_check(t)
        assert abs(check.margin) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_schwarz_pick_tight_for_shift_adjoint(n):
    # the paper's equality case: lhs = rhs = radius_single_zero(|alpha|, n),
    # so a numerical radius that comes out low fails here
    t = NilpotentContraction(shift_adjoint_matrix(n), n)
    for alpha in (0.0, 0.4, 0.3 + 0.5j, -0.7j):
        assert abs(schwarz_pick_check(t, F_ID, alpha).margin) <= 1e-13


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_haagerup_harpe_tight_for_unitary_conjugates_of_scaled_shift(n):
    rng = np.random.default_rng(n)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    for c in (1.0, 1.0 - rng.random()):
        t = NilpotentContraction(c * u @ shift_matrix(n) @ u.conj().T, n)
        assert abs(haagerup_harpe_check(t).margin) <= 1e-13


def test_haagerup_harpe_homogeneity():
    t = NilpotentContraction(0.5 * shift_matrix(3), 3)
    check = haagerup_harpe_check(t)
    assert abs(check.lhs - 0.5 * math.cos(math.pi / 4)) < 1e-10
    assert abs(check.margin) < 1e-10


def test_haagerup_harpe_random_margin():
    for seed in range(10):
        t = random_nilpotent_contraction(5, seed)
        assert haagerup_harpe_check(t).margin >= -1e-9


def test_calculus_comparison_with_shift():
    # radius of f on a nilpotent contraction never exceeds f on the pure shift
    rng = np.random.default_rng(31)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        t = random_nilpotent_contraction(n, int(rng.integers(0, 10**6)))
        f = (F_ID, F_SQ, F_ODD, F_SCALED)[int(rng.integers(0, 4))]
        lhs = numerical_radius(polynomial_apply(t.matrix, f))
        rhs = numerical_radius(polynomial_apply(shift_adjoint_matrix(n), f))
        assert lhs <= rhs + 1e-9


def test_transform_power_equals_single_zero_radius():
    # the Moebius transform of the pure shift realizes the model radius
    for n, a in ((2, 0.3), (4, 0.6)):
        r = numerical_radius(operator_mobius(shift_adjoint_matrix(n), a))
        assert abs(r - radius_single_zero(a, n)) < 1e-9
