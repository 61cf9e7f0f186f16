import math

import mpmath
import numpy as np
import pytest

from numrange.blaschke import poisson_kernel, real_part_symbol
from numrange.errors import AlphaOutOfRangeError, TOutOfRangeError
from numrange.kms import (
    BISECTION_WIDTH,
    _parity,
    eigenvalue_equation,
    kms_dense_eigenvalues,
    kms_eigenvalues,
    kms_matrix,
    kms_root_system,
    parity_equation,
    real_part_spectrum,
    solve_root,
)
from numrange.linalg import hermitian_eig
from numrange.model_operator import single_zero_matrix
from numrange.numerical_range import rotated_real_part


def test_matrix_at_zero_is_identity():
    assert np.array_equal(kms_matrix(0.0, 4), np.eye(4))


def test_matrix_entries():
    m = kms_matrix(0.5, 3)
    assert np.allclose(m[:2, :2], [[1.0, 0.5], [0.5, 1.0]])
    assert m[0, 2] == 0.25
    assert np.allclose(m, m.T)


@pytest.mark.parametrize("alpha", (0.0, 0.05, 0.5, 0.9, 0.9999))
@pytest.mark.parametrize("n", (1, 2, 8, 128, 513))
def test_matrix_matches_elementwise_powers(alpha, n):
    # the matrix gathers n powers of alpha; each entry must be the same power
    idx = np.arange(n)
    elementwise = alpha ** np.abs(idx[:, None] - idx[None, :]).astype(float)
    assert np.array_equal(kms_matrix(alpha, n), elementwise)


def test_matrix_rejects_bad_alpha():
    with pytest.raises(AlphaOutOfRangeError):
        kms_matrix(1.0, 3)


def test_equation_reduces_to_dirichlet_kernel():
    n = 5
    for k in range(1, n + 1):
        t = k * math.pi / (n + 1)
        assert abs(eigenvalue_equation(0.0, n, t)) < 1e-12


def test_equation_matches_factored_form():
    rng = np.random.default_rng(3)
    for _ in range(50):
        alpha = float(rng.random() * 0.95)
        n = int(rng.integers(1, 20))
        t = float(rng.uniform(0.05, math.pi - 0.05))
        raw = eigenvalue_equation(alpha, n, t)
        factored = (
            2.0
            / math.sin(t)
            * (math.sin(0.5 * (n + 1) * t) - alpha * math.sin(0.5 * (n - 1) * t))
            * (math.cos(0.5 * (n + 1) * t) - alpha * math.cos(0.5 * (n - 1) * t))
        )
        assert abs(raw - factored) <= 1e-11 * max(1.0, abs(raw))


def test_equation_sign_and_value_on_separating_grid():
    n = 7
    for alpha in (0.2, 0.5, 0.8):
        for k in range(1, n + 1):
            x = k * math.pi / (n + 1)
            val = eigenvalue_equation(alpha, n, x)
            expected = (-1) ** k * 2 * alpha * (1 - alpha * math.cos(x))
            assert abs(val - expected) <= 1e-10 * abs(expected)
            assert math.copysign(1.0, val) == (-1) ** k


def test_equation_domain_guard():
    with pytest.raises(TOutOfRangeError):
        eigenvalue_equation(0.5, 3, 0.0)
    with pytest.raises(TOutOfRangeError):
        eigenvalue_equation(0.5, 3, math.pi)


def test_roots_at_zero_are_grid_points():
    n = 6
    for k in range(1, n + 1):
        assert solve_root(0.0, n, k) == k * math.pi / (n + 1)


def test_root_degree_two_closed_form():
    for alpha in (0.1, 0.5, 0.9):
        t = solve_root(alpha, 2, 2)
        assert abs(math.cos(t) - (alpha - 1) / 2) < 1e-13


def test_root_degree_three_closed_form():
    for alpha in (0.2, 0.6, 0.85):
        t = solve_root(alpha, 3, 3)
        expected = (alpha - math.sqrt(alpha**2 + 8)) / 4
        assert abs(math.cos(t) - expected) < 1e-13


def test_root_degree_four_closed_form():
    for alpha in (0.3, 0.7):
        t = solve_root(alpha, 4, 4)
        expected = (alpha + 3 - math.sqrt(alpha**2 + 2 * alpha + 5)) / 4 - 1
        assert abs(math.cos(t) - expected) < 1e-13


def test_roots_interlace_grid():
    rng = np.random.default_rng(7)
    for _ in range(20):
        alpha = float(rng.random() * 0.95)
        n = int(rng.integers(1, 31))
        system = kms_root_system(alpha, n)
        grid = np.arange(n + 1) * math.pi / (n + 1)
        assert np.all(np.diff(system.roots) > 0)
        for k in range(1, n + 1):
            assert grid[k - 1] < system.roots[k - 1] <= grid[k]


def _bisection_with_parity_equation(alpha, n, k):
    # solve_root's bisection as written with the public parity_equation
    lo, hi = (k - 1) * math.pi / (n + 1), k * math.pi / (n + 1)
    f_lo = parity_equation(alpha, n, k, lo)
    if parity_equation(alpha, n, k, hi) == 0.0:
        return hi
    t = 0.5 * (lo + hi)
    while lo < t < hi:
        f_t = parity_equation(alpha, n, k, t)
        if f_t == 0.0:
            return t
        if (f_t > 0.0) == (f_lo > 0.0):
            lo, f_lo = t, f_t
        else:
            hi = t
        t = 0.5 * (lo + hi)
    return t


@pytest.mark.parametrize("alpha", (1e-6, 0.3, 0.9, 0.9999, 0.999999))
@pytest.mark.parametrize("n", (1, 2, 3, 8, 128, 1000))
def test_solve_root_is_bit_identical_to_parity_equation_bisection(alpha, n):
    for k in sorted({1, (n + 1) // 2, n}):
        assert solve_root(alpha, n, k) == _bisection_with_parity_equation(alpha, n, k)


def test_root_residuals():
    for alpha in (0.3, 0.9):
        n = 25
        for k in range(1, n + 1):
            t = solve_root(alpha, n, k)
            assert abs(parity_equation(alpha, n, k, t)) < 1e-11
            assert abs(eigenvalue_equation(alpha, n, t)) < 1e-9


ARRAY_ALPHAS = (1e-6, 0.01, 0.3, 0.5, 0.9, 0.99, 0.9999)
ARRAY_DEGREES = (1, 2, 3, 8, 57, 128)


@pytest.mark.parametrize("n", (*ARRAY_DEGREES, 256, 1000))
def test_root_system_matches_scalar_solver(n):
    for alpha in ARRAY_ALPHAS:
        roots = kms_root_system(alpha, n).roots
        scalar = [solve_root(alpha, n, k) for k in range(1, n + 1)]
        assert np.max(np.abs(roots - scalar)) <= 1e-13


def test_root_system_at_zero_is_grid():
    for n in ARRAY_DEGREES:
        roots = kms_root_system(0.0, n).roots
        assert roots.tolist() == [k * math.pi / (n + 1) for k in range(1, n + 1)]


@pytest.mark.parametrize("n", (*ARRAY_DEGREES, 1000))
def test_root_system_sign_change_certificates(n):
    # the certificate the solver checks: the parity kernel, with its grid value
    # wherever the right probe end is x_k, where the first term is exactly 0
    half = 0.5 * BISECTION_WIDTH
    for alpha in (*ARRAY_ALPHAS, 1e-15):
        system = kms_root_system(alpha, n)
        for k, (t, (lo, hi)) in enumerate(zip(system.roots, system.brackets), start=1):
            parity, at_grid = _parity(alpha, n, k)
            left, right = max(t - half, lo), min(t + half, hi)
            f_right = at_grid(right) if right == hi else parity(right)
            assert np.sign(parity(left)) != np.sign(f_right)


@pytest.mark.parametrize("alpha", (0.0, 0.5))
@pytest.mark.parametrize("n", (0, -3))
def test_root_system_rejects_nonpositive_degree(alpha, n):
    # as solve_root and kms_matrix do, instead of returning an empty system
    with pytest.raises(ValueError):
        kms_root_system(alpha, n)


TINY_ALPHAS = (5e-324, 1e-300, 1e-15, 1e-14, 1e-13, 1e-11)
TINY_DEGREES = (*range(1, 70), 128, 129, 500, 1000)


@pytest.mark.parametrize("alpha", TINY_ALPHAS)
def test_root_system_certifies_tiny_alpha(alpha):
    # rounding of (n+1)t - k pi swamps the phase equation here: Newton must end on a
    # collapsed bracket and the certificate must take the parity value at x_k exactly
    for n in TINY_DEGREES:
        roots = kms_root_system(alpha, n).roots
        scalar = [solve_root(alpha, n, k) for k in range(1, n + 1)]
        assert np.max(np.abs(roots - scalar)) <= 1e-13, n


def test_parity_kernel_takes_numbers_and_arrays():
    n, alpha = 9, 0.4
    t = np.linspace(0.1, 3.0, 7)[:, None] * np.ones(n)
    parity, at_grid = _parity(alpha, n, np.arange(1, n + 1))
    grid = np.arange(1, n + 1) * math.pi / (n + 1)
    for k in range(1, n + 1):
        scalar, scalar_grid = _parity(alpha, n, k)
        assert parity(t)[:, k - 1].tolist() == [scalar(x) for x in t[:, k - 1]]
        assert parity(t)[0, k - 1] == parity_equation(alpha, n, k, t[0, k - 1])
        assert at_grid(grid)[k - 1] == scalar_grid(grid[k - 1])
        # the grid value drops a first term trig(k pi / 2) that is 0 up to rounding
        assert abs(scalar_grid(grid[k - 1]) - scalar(grid[k - 1])) <= 1e-14


@pytest.mark.parametrize("n", (256, 512))
def test_eigenvalues_match_dense_solver_at_large_degree(n):
    # the per-root bisection failed its residual checks for most alpha here
    for alpha in np.arange(1, 20) * 0.05:
        analytic = kms_eigenvalues(alpha, n)
        dense = np.linalg.eigvalsh(kms_matrix(alpha, n))[::-1]
        assert np.max(np.abs(analytic - dense)) <= 1e-9


@pytest.mark.parametrize("alpha", (0.0, 0.05, 0.5, 0.9, 0.9999))
@pytest.mark.parametrize("n", (*range(1, 34), 128, 129, 513))
def test_parity_blocks_give_the_full_dense_spectrum(alpha, n):
    full = np.linalg.eigvalsh(kms_matrix(alpha, n))[::-1]
    blocks = kms_dense_eigenvalues(alpha, n)
    assert np.max(np.abs(blocks - full)) <= 1e-12 * max(1.0, full[0])


def _mpmath_kms_eigenvalues(alpha, n):
    """Poisson values at the roots of the phase equation
    (n+1) t + 2 arg(1 - a e^{-it}) = k pi, each solved inside its bracket
    ((k-1) pi/(n+1), k pi/(n+1)), all at 50 digits."""
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        out = []
        for k in range(1, n + 1):
            def phase(t, k=k):
                beta = mpmath.atan2(a * mpmath.sin(t), 1 - a * mpmath.cos(t))
                return (n + 1) * t + 2 * beta - k * mpmath.pi
            bracket = ((k - 1) * mpmath.pi / (n + 1), k * mpmath.pi / (n + 1))
            t = mpmath.findroot(phase, bracket, solver="illinois")
            out.append(float((1 - a * a) / (1 - 2 * a * mpmath.cos(t) + a * a)))
        return np.array(out)


def test_eigenvalues_near_the_circle_against_mpmath():
    # a Poisson numerator written 1 - a*a keeps only 5.5e-11 relative accuracy
    # at this alpha and puts the eigenvalues 1.4e-9 off
    alpha, n = 0.999999, 128
    exact = _mpmath_kms_eigenvalues(alpha, n)
    assert np.max(np.abs(kms_eigenvalues(alpha, n) - exact)) <= 1e-11


def test_eigenvalues_at_zero():
    assert np.allclose(kms_eigenvalues(0.0, 5), np.ones(5))


def test_eigenvalues_two_by_two():
    assert np.allclose(kms_eigenvalues(0.5, 2), [1.5, 0.5], atol=1e-12)


def test_eigenvalues_match_dense_solver():
    for alpha in (0.2, 0.5, 0.8):
        for n in (3, 5, 12):
            analytic = kms_eigenvalues(alpha, n)
            dense = hermitian_eig(kms_matrix(alpha, n)).values[::-1]
            assert np.max(np.abs(analytic - dense)) < 1e-9


def test_eigenvalues_strictly_decreasing_in_open_range():
    alpha, n = 0.6, 10
    vals = kms_eigenvalues(alpha, n)
    assert np.all(np.diff(vals) < 0)
    assert vals[0] < (1 + alpha) / (1 - alpha)
    assert vals[-1] > (1 - alpha) / (1 + alpha)


def test_real_part_spectrum_at_zero():
    expected = [math.cos(k * math.pi / 5) for k in range(1, 5)]
    assert np.allclose(real_part_spectrum(0.0, 4), expected, atol=1e-14)


def test_real_part_spectrum_matches_dense_solver():
    for alpha in (0.0, 0.3, 0.7):
        for n in (2, 4, 9):
            analytic = real_part_spectrum(alpha, n)
            m = single_zero_matrix(-alpha, n).matrix
            dense = hermitian_eig(rotated_real_part(m, 0.0)).values[::-1]
            assert np.max(np.abs(analytic - dense)) < 1e-9


def test_real_part_spectrum_values_are_symbol_values():
    alpha, n = 0.45, 6
    roots = kms_root_system(alpha, n).roots
    expected = [real_part_symbol(alpha, t) for t in roots]
    assert np.allclose(real_part_spectrum(alpha, n), expected, atol=1e-14)


def test_eigenvalues_are_poisson_values():
    alpha, n = 0.35, 5
    roots = kms_root_system(alpha, n).roots
    expected = [poisson_kernel(alpha, t) for t in roots]
    assert np.allclose(kms_eigenvalues(alpha, n), expected, atol=1e-14)


def test_affine_relation_between_real_part_and_kms():
    for alpha in (0.2, 0.5, 0.8):
        n = 6
        re_part = rotated_real_part(single_zero_matrix(-alpha, n).matrix, 0.0)
        scaled = ((1 - alpha**2) / (2 * alpha)) * (
            kms_matrix(alpha, n) - ((1 + alpha**2) / (1 - alpha**2)) * np.eye(n)
        )
        assert np.max(np.abs(re_part - scaled)) < 1e-12


def test_kms_spectrum_is_simple():
    for alpha in (0.1, 0.5, 0.9):
        vals = kms_eigenvalues(alpha, 12)
        assert np.min(np.abs(np.diff(vals))) > 0
