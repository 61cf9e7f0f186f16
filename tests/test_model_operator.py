import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numrange.blaschke import BlaschkeProduct, takenaka_basis
from numrange.errors import AlphaOutOfRangeError, LambdaOnBoundaryError
from numrange.inequalities import operator_mobius
from numrange.linalg import hermitian_eig, spectral_norm
from numrange.model_operator import (
    LAMBDA_BOUNDARY_GUARD,
    _matrix,
    char_det_closed_form,
    char_det_recurrence,
    compress_shift_adjoint,
    shift_adjoint_matrix,
    shift_matrix,
    single_zero_matrix,
)
from numrange.numerical_range import numerical_radius, rotated_real_part


def random_product(rng, max_degree=6, max_mod=0.8):
    total = int(rng.integers(1, max_degree + 1))
    factors = []
    while total > 0:
        mult = int(rng.integers(1, total + 1))
        z = max_mod * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        factors.append((z, mult))
        total -= mult
    return BlaschkeProduct(tuple(factors))


def test_monomial_gives_plain_shift_adjoint():
    op = compress_shift_adjoint(BlaschkeProduct.monomial(5))
    assert np.array_equal(op.matrix, shift_adjoint_matrix(5))


def test_scalar_case_is_conjugate():
    op = compress_shift_adjoint(BlaschkeProduct.single_zero(0.2 + 0.3j, 1))
    assert np.allclose(op.matrix, [[0.2 - 0.3j]])


def test_single_zero_matches_general_construction():
    phi = BlaschkeProduct.single_zero(0.5, 3)
    delta = np.abs(compress_shift_adjoint(phi).matrix - single_zero_matrix(0.5, 3).matrix)
    assert delta.max() < 1e-14


def test_single_zero_entries():
    m = single_zero_matrix(0.5, 2).matrix
    assert np.allclose(m, [[0.5, 0.75], [0.0, 0.5]])
    m3 = single_zero_matrix(0.5, 3).matrix
    assert abs(m3[0, 2] - (-0.375)) < 1e-15


def _mp_superdiagonals(alpha, n):
    """(1 - |alpha|^2) (-alpha)**(d-1) for d = 1..n-1 at the working precision."""
    a = mpmath.mpc(complex(alpha).real, complex(alpha).imag)
    return [(1 - abs(a) ** 2) * (-a) ** (d - 1) for d in range(1, n)]


@pytest.mark.parametrize(
    "alpha", [0.5, 0.9999, 0.999999, 0.9999999, -0.9999999, 0.3 + 0.4j, -0.6 + 0.7j, 0.8j]
)
def test_single_zero_entries_against_mpmath(alpha):
    # 1 - |alpha|^2 as (1 - x)(1 + x) - y^2: at real alpha = 0.9999999 the form 1 - a*a
    # was off by 4e-11 relative
    _assert_superdiagonals_match(single_zero_matrix(alpha, 8).matrix, alpha)


@pytest.mark.parametrize("alpha", [0.9999, 0.999999, 0.9999999, -0.9999, -0.999999, -0.9999999])
def test_general_single_zero_entries_against_mpmath(alpha):
    # the general builder takes 1 - |z|^2 from the same defect as the Toeplitz form;
    # with 1 - abs(z)**2 its entries were off by up to 4e-11 relative
    op = compress_shift_adjoint(BlaschkeProduct.single_zero(alpha, 3))
    _assert_superdiagonals_match(op.matrix, alpha)


def _assert_superdiagonals_match(m, alpha):
    n = m.shape[0]
    with mpmath.workdps(40):
        for d, ref in enumerate(_mp_superdiagonals(alpha, n), start=1):
            for l in range(n - d):
                entry = mpmath.mpc(m[l, l + d].real, m[l, l + d].imag)
                assert abs(entry - ref) <= 1e-15 * abs(ref), (d, l)


def _mp_char_det(alpha, lam, theta, n):
    a, lam, theta = mpmath.mpf(alpha), mpmath.mpf(lam), mpmath.mpf(theta)
    c = mpmath.cos(theta)
    d_prev, d_cur = mpmath.mpf(1), -a * c - lam
    b = -2 * a * c - lam * (1 + a * a)
    off = abs((1 - a * a) / 2 * mpmath.expj(theta) + a * a * c + a * lam) ** 2
    for _ in range(2, n + 1):
        d_prev, d_cur = d_cur, b * d_cur - off * d_prev
    return d_cur


def test_char_det_against_mpmath():
    # both char-det routes keep 1 - a*a: near a = 1 it is O(1 - a) beside O(1) terms,
    # so its rounding does not show against the oracle
    rng = np.random.default_rng(31)
    with mpmath.workdps(40):
        for alpha in (0.3, 0.9, 0.9999, 0.999999, 0.9999999):
            for _ in range(20):
                lam, theta = float(rng.uniform(-0.99, 0.99)), float(rng.uniform(0, 2 * math.pi))
                n = int(rng.integers(1, 30))
                ref = _mp_char_det(alpha, lam, theta, n)
                scale = max(1.0, float(abs(ref)))
                for route in (char_det_recurrence, char_det_closed_form):
                    assert abs(route(alpha, lam, theta, n) - ref) <= 1e-12 * scale


def test_single_zero_rejects_boundary():
    with pytest.raises(AlphaOutOfRangeError):
        single_zero_matrix(1.0, 2)


def mobius_of_shift(alpha, n):
    """(S* + conj(alpha) I)(I + alpha S*)^{-1}, the Moebius route to the
    single-zero matrix, through the production transform."""
    return -operator_mobius(shift_adjoint_matrix(n), -complex(alpha).conjugate())


def test_mobius_identity_at_zero():
    assert np.allclose(mobius_of_shift(0.0, 4), shift_adjoint_matrix(4))


def test_mobius_identity_matches_single_zero():
    for alpha in (0.5, 0.3j, -0.2 + 0.6j):
        delta = np.abs(mobius_of_shift(alpha, 4) - single_zero_matrix(alpha, 4).matrix)
        assert delta.max() < 1e-12


def test_mobius_scalar_case():
    assert np.allclose(mobius_of_shift(0.3j, 1), [[-0.3j]])


def test_shift_matrices_are_adjoints():
    s = shift_matrix(4)
    assert np.array_equal(s.conj().T, shift_adjoint_matrix(4))
    assert np.all(s[np.triu_indices(4)] == 0)


def test_contraction_norm_and_rank_one_defect():
    rng = np.random.default_rng(13)
    for _ in range(12):
        op = compress_shift_adjoint(random_product(rng))
        assert spectral_norm(op.matrix) <= 1.0 + 1e-10
        if op.n > 1:
            defect = np.eye(op.n) - op.matrix.conj().T @ op.matrix
            assert abs(hermitian_eig(defect).values[-2]) < 1e-8


def test_minimal_function_annihilates():
    # phi(S) = 0 for S the compressed multiplication by z, the adjoint of the model matrix;
    # operator_mobius(S, z) is minus the Blaschke factor at z applied to S
    rng = np.random.default_rng(19)
    for _ in range(8):
        op = compress_shift_adjoint(random_product(rng))
        s = op.matrix.conj().T
        out = np.eye(op.n, dtype=complex)
        for z in op.phi.zeros():
            out = out @ operator_mobius(s, z)
        assert spectral_norm(out) < 1e-8


def test_matrix_against_taylor_reconstruction():
    # independent route: matrix entries are shift-compressions of the basis
    from numrange.blaschke import takenaka_taylor

    rng = np.random.default_rng(21)
    for _ in range(5):
        phi = random_product(rng, max_degree=5, max_mod=0.7)
        n = phi.degree
        series = [takenaka_taylor(phi, k, 400) for k in range(1, n + 1)]
        rebuilt = np.zeros((n, n), dtype=complex)
        for k in range(n):
            for l in range(n):
                rebuilt[l, k] = np.sum(series[k].coeffs[1:] * np.conj(series[l].coeffs[:-1]))
        assert np.max(np.abs(rebuilt - compress_shift_adjoint(phi).matrix)) < 1e-9


def test_builder_blocks_are_the_model_operators_and_basis_values_at_zero():
    # on the zeros 0, z_1..z_n the builder gives S* on H(z phi): its first row holds the
    # basis values at 0, checked against the constant Taylor terms, an independent route
    # to the Stein right-hand side, and the block below it is S* on H(phi)
    rng = np.random.default_rng(23)
    for _ in range(20):
        phi = random_product(rng, max_mod=0.95)
        m = _matrix([0j] + phi.zeros())
        assert np.array_equal(m[1:, 1:], compress_shift_adjoint(phi).matrix)
        rows, _ = takenaka_basis(phi, 32)
        assert np.max(np.abs(m[0, 1:] - rows[:, 0])) <= 4 * np.finfo(float).eps


def _divisor_test_factors(rng):
    factors = []
    for _ in range(int(rng.integers(2, 5))):
        if rng.random() < 0.7:
            r = 1.0 - 10.0 ** -rng.uniform(0.0, 3.0)
        else:
            r = 0.99 * rng.random()
        factors.append((r * cmath.exp(2j * math.pi * rng.random()), int(rng.integers(1, 4))))
    return factors


def test_divisor_monotonicity():
    # a prefix psi of the factors divides phi, and S(psi) is the leading block of S(phi),
    # so w(S(psi)) <= w(S(phi)); unlike a floor check, an underestimated radius fails this
    rng = np.random.default_rng(37)
    for _ in range(400):
        factors = _divisor_test_factors(rng)
        full = compress_shift_adjoint(BlaschkeProduct(tuple(factors))).matrix
        w = numerical_radius(full)
        for p in range(1, len(factors)):
            prefix = compress_shift_adjoint(BlaschkeProduct(tuple(factors[:p]))).matrix
            assert np.array_equal(prefix, full[: len(prefix), : len(prefix)])
            assert numerical_radius(prefix) <= w + 1e-12 * max(1.0, w)


def test_radius_invariant_under_zero_reordering():
    phi = BlaschkeProduct(((0.4 + 0.1j, 1), (-0.3 + 0.2j, 1), (0.1 - 0.5j, 1)))
    swapped = BlaschkeProduct(tuple(reversed(phi.factors)))
    r1 = numerical_radius(compress_shift_adjoint(phi).matrix)
    r2 = numerical_radius(compress_shift_adjoint(swapped).matrix)
    assert abs(r1 - r2) < 1e-9


def test_char_det_base_cases():
    assert char_det_recurrence(0.5, 0.0, 0.0, 1) == -0.5
    assert abs(char_det_recurrence(0.0, 0.0, 0.0, 2) + 0.25) < 1e-15
    assert char_det_recurrence(0.3, 0.7, 1.0, 0) == 1.0


def test_char_det_matches_determinant():
    rng = np.random.default_rng(23)
    for _ in range(15):
        alpha = float(rng.random() * 0.9)
        theta = float(rng.random() * 2 * math.pi)
        lam = float(rng.random() * 1.8 - 0.9)
        n = int(rng.integers(1, 9))
        m = single_zero_matrix(-alpha, n).matrix
        eigs = hermitian_eig(rotated_real_part(m, theta)).values
        det = float(np.prod(eigs - lam))
        rec = char_det_recurrence(alpha, lam, theta, n)
        assert abs(rec - det) <= 1e-10 * max(1.0, abs(det))


def test_char_det_closed_form_base_cases():
    assert char_det_closed_form(0.3, 0.0, 1.0, 0) == 1.0
    a, lam, th = 0.4, 0.5, 2.0
    assert abs(char_det_closed_form(a, lam, th, 1) - (-a * math.cos(th) - lam)) < 1e-14


def test_char_det_closed_form_matches_recurrence():
    rng = np.random.default_rng(29)
    for _ in range(20):
        alpha = float(rng.random() * 0.9)
        theta = float(rng.random() * 2 * math.pi)
        lam = float(rng.random() * 1.9 - 0.95)
        n = int(rng.integers(0, 11))
        rec = char_det_recurrence(alpha, lam, theta, n)
        clo = char_det_closed_form(alpha, lam, theta, n)
        assert abs(rec - clo) <= 1e-10 * max(1.0, abs(rec))


LAM_EDGE = 1.0 - 2.0 * LAMBDA_BOUNDARY_GUARD


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.floats(0.0, 0.95),
    st.floats(-LAM_EDGE, LAM_EDGE)
    | st.sampled_from([0.9, 0.999, 1 - 1e-6, LAM_EDGE, -LAM_EDGE]),
    st.floats(0.0, 2 * math.pi),
    st.integers(0, 40),
)
def test_char_det_closed_form_matches_recurrence_up_to_the_guard(alpha, lam, theta, n):
    # the closed form divides by sqrt(1 - lambda^2); it must hold wherever it is allowed
    rec = char_det_recurrence(alpha, lam, theta, n)
    clo = char_det_closed_form(alpha, lam, theta, n)
    assert abs(rec - clo) <= 1e-10 * max(1.0, abs(rec))


def test_char_det_closed_form_boundary_guard():
    with pytest.raises(LambdaOnBoundaryError):
        char_det_closed_form(0.3, 1.0, 0.0, 3)


def test_char_det_vanishes_at_real_part_eigenvalues():
    alpha, theta, n = 0.6, 1.3, 6
    m = single_zero_matrix(-alpha, n).matrix
    for lam in hermitian_eig(rotated_real_part(m, theta)).values:
        assert abs(char_det_recurrence(alpha, float(lam), theta, n)) < 1e-8


def test_norm_is_one_for_higher_degree():
    assert abs(spectral_norm(single_zero_matrix(0.7, 4).matrix) - 1.0) < 1e-12
