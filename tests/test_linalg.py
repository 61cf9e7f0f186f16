import math

import numpy as np
import pytest

from numrange.errors import NonHermitianError, NonSquareError, SingularMatrixError
from numrange.linalg import (
    determinant,
    hermitian_eig,
    norm_inf,
    rdiv,
    singular_values,
    solve,
    spectral_norm,
)
from numrange.model_operator import shift_adjoint_matrix


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def test_identity_spectrum():
    eig = hermitian_eig(np.eye(3))
    assert np.allclose(eig.values, [1.0, 1.0, 1.0], atol=1e-14)


def test_two_by_two_symmetric():
    eig = hermitian_eig([[0.0, 0.5], [0.5, 0.0]])
    assert np.allclose(eig.values, [-0.5, 0.5], atol=1e-14)


def test_tridiagonal_shift_real_part_spectrum():
    # symmetric half-shift of size 4: eigenvalues cos(k pi / 5)
    s = shift_adjoint_matrix(4)
    eig = hermitian_eig(0.5 * (s + s.conj().T))
    expected = sorted(math.cos(k * math.pi / 5) for k in range(1, 5))
    assert np.allclose(eig.values, expected, atol=1e-12)


def test_non_hermitian_rejected():
    with pytest.raises(NonHermitianError):
        hermitian_eig([[0.0, 1.0], [0.0, 0.0]])


def test_non_square_rejected():
    with pytest.raises(NonSquareError):
        hermitian_eig(np.zeros((2, 3)))


def test_values_ascending_and_vectors_orthonormal():
    rng = np.random.default_rng(11)
    for n in (2, 5, 9):
        h = random_hermitian(rng, n)
        eig = hermitian_eig(h)
        assert np.all(np.diff(eig.values) >= -1e-14)
        gram = eig.vectors.conj().T @ eig.vectors
        assert np.max(np.abs(gram - np.eye(n))) < 1e-10


def test_reconstruction_and_trace():
    rng = np.random.default_rng(5)
    for n in range(2, 13):
        h = random_hermitian(rng, n)
        eig = hermitian_eig(h)
        rebuilt = (eig.vectors * eig.values) @ eig.vectors.conj().T
        scale = norm_inf(h)
        assert norm_inf(rebuilt - h) <= 1e-9 * scale
        assert abs(np.trace(h).real - eig.values.sum()) <= 1e-10 * max(1.0, abs(np.trace(h)))


def test_residual_bound_per_eigenpair():
    rng = np.random.default_rng(17)
    h = random_hermitian(rng, 8)
    eig = hermitian_eig(h)
    for k in range(8):
        v = eig.vectors[:, k]
        assert np.linalg.norm(h @ v - eig.values[k] * v) <= 1e-10 * norm_inf(h)


def test_solve_identity_passthrough():
    b = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.allclose(solve(np.eye(2), b), b)


def test_solve_scaled_identity():
    assert np.allclose(solve(2.0 * np.eye(2), np.eye(2)), 0.5 * np.eye(2), atol=1e-14)


def test_solve_shift_system_residual():
    a = np.eye(3) + 0.5 * shift_adjoint_matrix(3)
    x = solve(a, np.eye(3))
    assert norm_inf(a @ x - np.eye(3)) < 1e-10 * norm_inf(a) * norm_inf(x)


def test_solve_vector_rhs():
    a = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)
    b = np.array([1.0, -1.0], dtype=complex)
    x = solve(a, b)
    assert x.shape == (2,)
    assert np.allclose(a @ x, b, atol=1e-12)


@pytest.mark.parametrize(
    "corner, singular",
    [
        pytest.param(1.0, True, id="exact"),
        pytest.param(1.0 + 1e-13, True, id="near"),
        pytest.param(1.0 + 1e-11, False, id="regular"),
    ],
)
def test_solve_singular_raises(corner, singular):
    a = [[1.0, 1.0], [1.0, corner]]
    if singular:
        with pytest.raises(SingularMatrixError):
            solve(a, np.eye(2))
    else:
        x = solve(a, np.eye(2))
        assert np.all(np.isfinite(x))


def test_solve_roundtrip_random():
    rng = np.random.default_rng(23)
    for n in (2, 4, 8):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 3 * np.eye(n)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = a @ x
        assert norm_inf(solve(a, b) - x) <= 1e-10 * norm_inf(x) * max(1.0, norm_inf(a))


def test_rdiv_and_inverse():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((4, 4)) + 2 * np.eye(4)
    b = rng.standard_normal((4, 4)) + 2 * np.eye(4)
    assert np.allclose(rdiv(a, b) @ b, a, atol=1e-10)


def test_determinant_matches_eigen_product():
    rng = np.random.default_rng(31)
    h = random_hermitian(rng, 6)
    eig = hermitian_eig(h)
    assert abs(determinant(h) - np.prod(eig.values)) < 1e-9 * max(1.0, abs(np.prod(eig.values)))


def test_determinant_singular_is_zero():
    assert determinant([[1.0, 1.0], [1.0, 1.0]]) == 0


def test_singular_values_identity():
    assert np.allclose(singular_values(np.eye(2)), [1.0, 1.0])


def test_singular_values_zero_rectangular():
    assert np.allclose(singular_values(np.zeros((2, 3))), [0.0, 0.0])


def test_singular_values_rank_one():
    rng = np.random.default_rng(37)
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    s = singular_values(np.outer(u, v.conj()))
    assert abs(s[0] - 1.0) < 1e-12
    assert np.all(s[1:] < 1e-12)


def test_singular_values_square_against_gram_eigenvalues():
    rng = np.random.default_rng(41)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    s = singular_values(a)
    gram_eigs = hermitian_eig(a.conj().T @ a).values[::-1]
    assert np.allclose(s**2, gram_eigs, atol=1e-10)


def test_spectral_norm_of_unitary():
    w = np.exp(2j * np.pi * np.arange(3) / 3)
    assert abs(spectral_norm(np.diag(w)) - 1.0) < 1e-12
