"""Matrices of the compressed shift in the Takenaka basis.

Builds the adjoint model operator of any list of zeros (for phi, and for
z phi, whose first row holds the basis values at 0 for the cross-Gram),
the explicit Toeplitz form for a single zero (the Moebius image of the
plain shift under :func:`inequalities.operator_mobius`), and the
characteristic determinant of the rotated real part (recurrence and closed form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct, _defect, _in_disc, _unit_interval
from .errors import LambdaOnBoundaryError

# Switch from the closed form back to the recurrence this close to |lambda| = 1.
LAMBDA_BOUNDARY_GUARD = 1e-9


def shift_matrix(n: int) -> np.ndarray:
    """The n x n Jordan shift with ones on the first subdiagonal."""
    if n < 1:
        raise ValueError("dimension must be positive")
    return np.eye(n, k=-1, dtype=np.complex128)


def shift_adjoint_matrix(n: int) -> np.ndarray:
    """Adjoint of :func:`shift_matrix`: ones on the first superdiagonal."""
    return shift_matrix(n).conj().T


@dataclass(frozen=True)
class ModelOperator:
    """The adjoint compressed shift of ``phi`` as a matrix.

    ``matrix`` holds the upper-triangular representation in the Takenaka
    basis; the operator for multiplication by z is its conjugate
    transpose.  The matrix is a completely non-unitary contraction with a
    rank-one defect.
    """

    phi: BlaschkeProduct
    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _matrix(zeros: list[complex]) -> np.ndarray:
    """Matrix of S* on the model space of the zeros z_1..z_n, listed with
    multiplicity, in their Takenaka basis; its leading m x m block is the
    matrix for z_1..z_m.

    With s_k = (1 - |z_k|^2)^{1/2}, the entry in row l, column k is

        conj(z_l)                      if k == l,
        s_l s_k prod_{l<j<k} (-z_j)    if k > l,
        0                              below the diagonal.
    """
    n = len(zeros)
    sig = [math.sqrt(_defect(z)) for z in zeros]
    m = np.zeros((n, n), dtype=np.complex128)
    for l in range(n):
        m[l, l] = zeros[l].conjugate()
        prod = 1.0 + 0.0j
        for k in range(l + 1, n):
            m[l, k] = sig[l] * sig[k] * prod
            prod *= -zeros[k]
    return m


def compress_shift_adjoint(phi: BlaschkeProduct) -> ModelOperator:
    """Matrix of the adjoint compressed shift in the Takenaka basis
    (:func:`_matrix` of the multiplicity-expanded zeros)."""
    return ModelOperator(phi=phi, matrix=_matrix(phi.zeros()))


def single_zero_matrix(alpha, n: int) -> ModelOperator:
    """Explicit Toeplitz form for the product with a single zero.

    Upper triangular with conj(alpha) on the diagonal and
    (1 - |alpha|^2) (-alpha)**(d-1) on the d-th superdiagonal.
    """
    a = _in_disc(alpha)
    n = int(n)
    if n < 1:
        raise ValueError("degree must be positive")
    sigma = _defect(a)
    m = np.zeros((n, n), dtype=np.complex128)
    np.fill_diagonal(m, a.conjugate())
    for d in range(1, n):
        val = sigma * (-a) ** (d - 1)
        for l in range(n - d):
            m[l, l + d] = val
    return ModelOperator(phi=BlaschkeProduct.single_zero(a, n), matrix=m)


def char_det_recurrence(alpha, lam: float, theta: float, n: int) -> float:
    """det(Re(e^{-i theta} M) - lambda I) for the zero at -alpha.

    M is the degree-n model operator of the product with the single zero
    -alpha, alpha real in [0, 1).  Evaluated by the three-term recurrence

        D_m = (-2 a cos t - (1+a^2) l) D_{m-1} - |s/2 e^{it} + a^2 cos t + a l|^2 D_{m-2}

    with D_0 = 1 and D_1 = -a cos t - l, where s = 1 - a^2.
    """
    a = _unit_interval(alpha)
    n = int(n)
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n == 0:
        return 1.0
    c = math.cos(theta)
    d_prev = 1.0
    d_cur = -a * c - lam
    if n == 1:
        return d_cur
    sigma = 1.0 - a * a
    b = -2.0 * a * c - lam * (1.0 + a * a)
    off = abs(0.5 * sigma * complex(math.cos(theta), math.sin(theta)) + a * a * c + a * lam) ** 2
    for _ in range(2, n + 1):
        d_prev, d_cur = d_cur, b * d_cur - off * d_prev
    return d_cur


def char_det_closed_form(alpha, lam: float, theta: float, n: int) -> float:
    """Closed form of :func:`char_det_recurrence` for |lambda| < 1.

    Writes the recurrence solution as 2 Re(B rho**n) with rho one of the
    conjugate characteristic roots.  The expression divides by
    sqrt(1 - lambda^2), so arguments within ``LAMBDA_BOUNDARY_GUARD`` of
    the boundary raise LambdaOnBoundaryError; callers fall back to the
    recurrence there.
    """
    a = _unit_interval(alpha)
    n = int(n)
    if n < 0:
        raise ValueError("order must be nonnegative")
    if abs(lam) >= 1.0 - LAMBDA_BOUNDARY_GUARD:
        raise LambdaOnBoundaryError(f"closed form is singular at |lambda| = {abs(lam)}")
    s = math.sqrt(1.0 - lam * lam)
    rho = 0.5 * complex(-2.0 * a * math.cos(theta) - lam * (1.0 + a * a), (1.0 - a * a) * s)
    b_const = complex(s, lam) / (2.0 * s)
    return float(2.0 * (b_const * rho**n).real)
