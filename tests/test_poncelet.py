import cmath
import math

import numpy as np
import pytest

from numrange.blaschke import BlaschkeProduct
from numrange.errors import NotRankOneError, PhaseSearchFailureError
from numrange.linalg import determinant, norm_inf
from numrange.model_operator import compress_shift_adjoint, shift_matrix, single_zero_matrix
from numrange.poncelet import (
    circumscription_check,
    defect_vectors,
    edge_support_gaps,
    poncelet_polygon,
    unitary_dilation,
    unitary_eigensystem,
)


def test_defect_vectors_of_jordan_block():
    d, d_star = defect_vectors(shift_matrix(4))
    assert np.allclose(d, [0, 0, 0, 1])
    assert np.allclose(d_star, [1, 0, 0, 0])


def test_defect_vectors_of_model_operator():
    d, d_star = defect_vectors(single_zero_matrix(0.5, 3).matrix)
    m = single_zero_matrix(0.5, 3).matrix
    eye = np.eye(3)
    assert norm_inf((eye - m.conj().T @ m) - np.outer(d, d.conj())) < 1e-10
    assert norm_inf((eye - m @ m.conj().T) - np.outer(d_star, d_star.conj())) < 1e-10


def test_defect_rejects_unitary():
    with pytest.raises(NotRankOneError):
        defect_vectors(np.eye(3))


def test_defect_rejects_higher_rank():
    with pytest.raises(NotRankOneError):
        defect_vectors(0.5 * np.eye(3))


def test_dilation_of_jordan_block_is_cyclic():
    u = unitary_dilation(shift_matrix(3), 0.0)
    perm = np.zeros((4, 4), dtype=complex)
    perm[0, 3] = 1.0
    for i in range(3):
        perm[i + 1, i] = 1.0
    assert norm_inf(u - perm) < 1e-12


def test_dilation_unitarity_and_compression():
    rng = np.random.default_rng(3)
    for _ in range(6):
        z = 0.7 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        n = int(rng.integers(2, 6))
        t = single_zero_matrix(z, n).matrix
        phase = float(rng.uniform(0.0, 2 * math.pi))
        u = unitary_dilation(t, phase)
        assert norm_inf(u.conj().T @ u - np.eye(n + 1)) < 1e-10
        assert np.array_equal(u[:n, :n], t)


def test_dilation_spectrum_is_roots_of_unity():
    for n in (2, 3, 5):
        u = unitary_dilation(shift_matrix(n), 0.0)
        vals, _ = unitary_eigensystem(u)
        # independent oracle: roots of w**(n+1) = 1 via the companion solver
        expected = np.roots([1.0] + [0.0] * n + [-1.0])
        for w in expected:
            assert min(abs(w - v) for v in vals) < 1e-8
        for v in vals:
            assert min(abs(w - v) for w in expected) < 1e-8


def test_unitary_eigensystem_residuals():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        t = single_zero_matrix(0.4 * cmath.exp(2j * math.pi * rng.random()), n).matrix
        u = unitary_dilation(t, float(rng.uniform(0, 2 * math.pi)))
        vals, vecs = unitary_eigensystem(u)
        assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-10
        for k in range(n + 1):
            assert np.linalg.norm(u @ vecs[:, k] - vals[k] * vecs[:, k]) < 1e-8
        for v in vals:
            # determinant residual cross-check
            assert abs(determinant(u - v * np.eye(n + 1))) < 1e-8


def test_triangle_for_jordan_block():
    poly = poncelet_polygon(shift_matrix(2), 1.0)
    expected = np.sort_complex(np.exp(2j * math.pi * np.arange(3) / 3))
    assert np.max(np.abs(np.sort_complex(poly) - expected)) < 1e-8


def test_prescribed_vertex_is_hit():
    rng = np.random.default_rng(7)
    t = single_zero_matrix(0.5, 3).matrix
    for _ in range(8):
        lam = cmath.exp(2j * math.pi * rng.random())
        poly = poncelet_polygon(t, lam)
        assert min(abs(v - lam) for v in poly) < 1e-8
        assert len(poly) == 4


def test_polygon_for_imaginary_vertex():
    poly = poncelet_polygon(single_zero_matrix(0.5, 2).matrix, 1j)
    assert len(poly) == 3
    assert np.max(np.abs(np.abs(poly) - 1.0)) < 1e-10


def test_circumscription_of_true_polygon():
    t = shift_matrix(2)
    poly = poncelet_polygon(t, 1.0)
    assert abs(circumscription_check(poly, t)) < 1e-9
    # edges of the equilateral triangle are tangent to the circle of radius 1/2
    gaps = edge_support_gaps(poly, t)
    assert np.max(np.abs(gaps)) < 1e-9


def test_edge_gaps_do_not_depend_on_orientation():
    # reversed vertices run clockwise, so every edge normal must be flipped outward;
    # edge i of the reversed polygon is edge m - 2 - i of the original, the closing one stays
    t = single_zero_matrix(0.5, 3).matrix
    poly = 0.9 * poncelet_polygon(t, 1.0)
    gaps = edge_support_gaps(poly, t)
    assert np.min(gaps) > 0.01
    np.testing.assert_allclose(
        edge_support_gaps(poly[::-1], t), np.roll(gaps[::-1], -1), rtol=0, atol=1e-14
    )


@pytest.mark.parametrize(
    "t, shrink, low, high",
    [
        (shift_matrix(2), 0.9, 0.01, math.inf),
        # a non-circular range: a violation ten times below the tolerance is resolved
        (single_zero_matrix(0.5, 3).matrix, 1.0 - 1e-7, 0.0, 1e-6),
    ],
    ids=["circle", "non-circular-tiny"],
)
def test_circumscription_detects_shrunk_polygon(t, shrink, low, high):
    poly = poncelet_polygon(t, 1.0)
    assert low < circumscription_check(shrink * poly, t) < high


def test_circumscription_detects_slack_polygon():
    t = shift_matrix(2)
    square = np.exp(2j * math.pi * np.arange(4) / 4)
    assert circumscription_check(square, t) < -0.01


def test_product_sweeps_stay_tangent():
    products = (
        BlaschkeProduct(((0.4, 1), (-0.3 + 0.2j, 1))),
        BlaschkeProduct(((0.35 - 0.25j, 2), (-0.5, 2))),
        BlaschkeProduct.single_zero(0.45 + 0.3j, 5),
    )
    for phi in products:
        t = compress_shift_adjoint(phi).matrix
        for j in range(32):
            lam = cmath.exp(2j * math.pi * j / 32)
            poly = poncelet_polygon(t, lam)
            assert len(poly) == phi.degree + 1
            assert abs(circumscription_check(poly, t)) < 1e-6


def test_polygon_is_complex_array_sorted_by_argument():
    # the edges join consecutive vertices, so the array order must be angular
    rng = np.random.default_rng(17)
    for phi in (
        BlaschkeProduct.single_zero(0.5, 2),
        BlaschkeProduct(((0.35 - 0.25j, 2), (-0.5, 2))),
        BlaschkeProduct(((0.6 + 0.1j, 1), (-0.2 - 0.7j, 3), (0.1, 3))),
    ):
        t = compress_shift_adjoint(phi).matrix
        for _ in range(8):
            verts = poncelet_polygon(t, cmath.exp(2j * math.pi * rng.random()))
            assert isinstance(verts, np.ndarray) and verts.dtype == np.complex128
            assert verts.shape == (phi.degree + 1,)
            assert np.all(np.diff(np.angle(verts) % (2 * math.pi)) > 0.0)


def test_rejects_vertex_off_circle():
    with pytest.raises(ValueError):
        poncelet_polygon(shift_matrix(2), 0.5)


def test_phase_failure_when_vertex_determinant_is_degenerate():
    # diag(1, 0) has 1 in its spectrum and det(U(w) - I) = 0 for every phase
    with pytest.raises(PhaseSearchFailureError):
        poncelet_polygon(np.diag([1.0, 0.0]), 1.0)
