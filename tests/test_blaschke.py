import cmath
import math

import numpy as np
import pytest

from numrange.blaschke import (
    TAIL_TARGET,
    BlaschkeProduct,
    default_truncation,
    evaluate,
    poisson_kernel,
    real_part_symbol,
    takenaka_basis,
    takenaka_taylor,
)
from numrange.errors import (
    AlphaOutOfRangeError,
    IndexOutOfRangeError,
    TruncationInsufficientError,
)


def random_product(rng, max_factors=3, max_mult=2, max_mod=0.8):
    factors = []
    for _ in range(int(rng.integers(1, max_factors + 1))):
        z = max_mod * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        factors.append((z, int(rng.integers(1, max_mult + 1))))
    return BlaschkeProduct(tuple(factors))


def test_monomial_at_origin():
    assert evaluate(BlaschkeProduct.monomial(4), 0.0) == 0.0


def test_vanishes_at_zero():
    phi = BlaschkeProduct.single_zero(0.5, 1)
    assert abs(evaluate(phi, 0.5)) < 1e-15


def test_inner_on_circle():
    phi = BlaschkeProduct.single_zero(0.5, 1)
    assert abs(abs(evaluate(phi, cmath.exp(1j * math.pi / 3))) - 1.0) < 1e-12


def test_contraction_inside_disc():
    rng = np.random.default_rng(2)
    for _ in range(20):
        phi = random_product(rng)
        z = 0.99 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        assert abs(evaluate(phi, z)) <= 1.0 + 1e-12


def test_rejects_zero_outside_disc():
    with pytest.raises(AlphaOutOfRangeError):
        BlaschkeProduct.single_zero(1.0, 1)


def test_rejects_point_outside_disc():
    with pytest.raises(ValueError):
        evaluate(BlaschkeProduct.monomial(1), 1.5)


def test_degree_and_product():
    phi = BlaschkeProduct.single_zero(0.3, 2) * BlaschkeProduct.single_zero(-0.4, 1)
    assert phi.degree == 3
    assert phi.zeros() == [0.3 + 0j, 0.3 + 0j, -0.4 + 0j]


def test_poisson_flat_at_zero():
    for t in (0.0, 1.0, 2.5):
        assert poisson_kernel(0.0, t) == 1.0


def test_poisson_values_at_half():
    assert abs(poisson_kernel(0.5, 0.0) - 3.0) < 1e-15
    assert abs(poisson_kernel(0.5, math.pi) - 1.0 / 3.0) < 1e-15


def test_poisson_range_and_mean():
    alpha = 0.7
    ts = np.linspace(-math.pi, math.pi, 4096, endpoint=False)
    vals = np.array([poisson_kernel(alpha, t) for t in ts])
    assert vals.min() >= (1 - alpha) / (1 + alpha) - 1e-12
    assert vals.max() <= (1 + alpha) / (1 - alpha) + 1e-12
    assert abs(vals.mean() - 1.0) < 1e-10


def test_poisson_alpha_out_of_range():
    with pytest.raises(AlphaOutOfRangeError):
        poisson_kernel(1.0, 0.0)
    with pytest.raises(AlphaOutOfRangeError):
        poisson_kernel(-0.1, 0.0)


def test_symbol_reduces_to_cosine():
    for t in (0.1, 1.2, 3.0):
        assert abs(real_part_symbol(0.0, t) - math.cos(t)) < 1e-15


def test_symbol_endpoint_values():
    assert abs(real_part_symbol(0.5, 0.0) - 1.0) < 1e-15
    assert abs(real_part_symbol(0.5, math.pi) + 1.0) < 1e-15


def test_symbol_poisson_restatement():
    alpha = 0.6
    for t in np.linspace(0.05, 3.1, 40):
        via_poisson = ((1 - alpha**2) / (2 * alpha)) * (
            poisson_kernel(alpha, t) - (1 + alpha**2) / (1 - alpha**2)
        )
        assert abs(real_part_symbol(alpha, t) - via_poisson) < 1e-12


def test_symbol_monotone_decreasing():
    ts = np.linspace(0.0, math.pi, 200)
    vals = [real_part_symbol(0.4, t) for t in ts]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_takenaka_monomial_basis():
    phi = BlaschkeProduct.monomial(4)
    for k in range(1, 5):
        series = takenaka_taylor(phi, k, 8)
        expected = np.zeros(8)
        expected[k - 1] = 1.0
        assert np.allclose(series.coeffs, expected, atol=1e-15)
        assert series.truncation_error_bound == 0.0


def test_takenaka_single_zero_geometric():
    phi = BlaschkeProduct.single_zero(0.5, 1)
    series = takenaka_taylor(phi, 1, 12)
    expected = math.sqrt(0.75) * 0.5 ** np.arange(12)
    assert np.allclose(series.coeffs, expected, atol=1e-15)


def test_takenaka_index_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        takenaka_taylor(BlaschkeProduct.monomial(2), 3)


def test_takenaka_truncation_cap():
    with pytest.raises(TruncationInsufficientError):
        takenaka_taylor(BlaschkeProduct.monomial(2), 1, 10**6)


def _reference_row(zeros, k, n_terms):
    """Row k (0-based) convolved factor by factor, as in the definition, with
    1 - |z|^2 written (1 - x)(1 + x) - y^2 for z = x + iy."""

    def defect(z):
        return (1.0 - z.real) * (1.0 + z.real) - z.imag * z.imag

    z = zeros[k]
    row = math.sqrt(defect(z)) * z.conjugate() ** np.arange(n_terms)
    for w in zeros[:k]:
        factor = np.empty(n_terms, dtype=complex)
        factor[0] = -w
        factor[1:] = defect(w) * w.conjugate() ** np.arange(n_terms - 1)
        row = np.convolve(row, factor)[:n_terms]
    return row


def test_takenaka_basis_matches_row_by_row_convolution():
    rng = np.random.default_rng(11)
    products = [random_product(rng, max_mult=3, max_mod=0.9) for _ in range(12)]
    products.append(BlaschkeProduct(((0.5j, 2), (-0.3, 1), (0.5j, 1))))
    for phi in products:
        zeros = phi.zeros()
        rows, tail = takenaka_basis(phi, 200)
        for k in range(len(zeros)):
            reference = _reference_row(zeros, k, 200)
            if len(phi.factors) == 1:
                # one zero: the same convolutions in the same order
                assert np.array_equal(rows[k], reference)
            else:
                assert np.max(np.abs(rows[k] - reference)) <= 64 * np.finfo(float).eps
        tails = [takenaka_taylor(phi, k, 200).truncation_error_bound for k in range(1, len(zeros) + 1)]
        assert tail == max(tails)


def test_default_truncation_rule():
    phi = BlaschkeProduct.single_zero(0.5, 1)
    n = default_truncation(phi)
    assert n == 64
    assert takenaka_basis(phi, 32)[1] >= TAIL_TARGET > takenaka_basis(phi, n)[1]


@pytest.mark.parametrize(
    "phi",
    [
        BlaschkeProduct.single_zero(0.5, 1),
        BlaschkeProduct.single_zero(0.9, 4),
        BlaschkeProduct.single_zero(0.9, 20),
        BlaschkeProduct.single_zero(0.999, 1),
        BlaschkeProduct(((0.3 + 0.2j, 2), (-0.95, 3), (0.6j, 1))),
    ],
)
def test_default_basis_tail_below_target(phi):
    rows, tail = takenaka_basis(phi)
    assert tail < TAIL_TARGET
    n = rows.shape[1]
    assert n == default_truncation(phi) and n >= 32 and n & (n - 1) == 0
    # the rule keeps the smallest such power of two
    if n > 32:
        assert takenaka_basis(phi, n // 2)[1] >= TAIL_TARGET
    # every single series shares the truncation and stays within the target
    for k in range(1, phi.degree + 1):
        series = takenaka_taylor(phi, k)
        assert len(series.coeffs) == n and series.truncation_error_bound < TAIL_TARGET


def test_default_truncation_near_the_circle():
    rows, tail = takenaka_basis(BlaschkeProduct.single_zero(0.9995, 1))
    assert rows.shape == (1, 65536) and tail < TAIL_TARGET
    with pytest.raises(TruncationInsufficientError):
        takenaka_basis(BlaschkeProduct.single_zero(0.9999, 1))


def test_default_truncation_of_subnormal_zeros():
    # (1 - |z|^2) / |z| overflows for a subnormal zero; its series ends almost at once
    for z in (2.225073858507e-311, 5e-324j):
        assert default_truncation(BlaschkeProduct.single_zero(z, 2)) == 32


def test_default_truncation_of_monomials():
    assert default_truncation(BlaschkeProduct.monomial(3)) == 32
    assert default_truncation(BlaschkeProduct.monomial(40)) == 64


def test_orthonormality_within_tail_bound():
    rng = np.random.default_rng(9)
    for _ in range(10):
        phi = random_product(rng)
        n = phi.degree
        series = [takenaka_taylor(phi, k, 250) for k in range(1, n + 1)]
        for k in range(n):
            for l in range(n):
                ip = np.vdot(series[l].coeffs, series[k].coeffs)
                slack = (
                    series[k].truncation_error_bound
                    + series[l].truncation_error_bound
                    + 1e-12
                )
                assert abs(ip - (1.0 if k == l else 0.0)) <= slack


def test_tail_bound_dominates_actual_tail():
    phi = BlaschkeProduct((((0.6 + 0.3j), 2), ((-0.5), 1)))
    long = takenaka_taylor(phi, 3, 800)
    short = takenaka_taylor(phi, 3, 60)
    actual_tail = np.sum(np.abs(long.coeffs[60:]))
    assert actual_tail <= short.truncation_error_bound
