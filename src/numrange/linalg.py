"""Dense complex linear algebra kernel.

Hermitian eigendecomposition, condition-checked solves, determinants and
singular values for small dense matrices (up to a few hundred rows), all
through numpy's LAPACK bindings.  All operations are pure: inputs are never
mutated and results depend only on the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonHermitianError, NonSquareError, SingularMatrixError

# Relative tolerance for accepting a matrix as Hermitian.
HERMITIAN_TOL = 1e-12
# Reciprocal 2-norm condition number at or below which a solve reports
# singularity.
RCOND_THRESHOLD = 1e-12


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-D complex array with finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or min(m.shape) < 1:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_square(a) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {m.shape}")
    return m


def norm_inf(a) -> float:
    """Induced infinity norm (maximum absolute row sum)."""
    m = np.atleast_2d(np.asarray(a, dtype=np.complex128))
    if m.size == 0:
        return 0.0
    return float(np.abs(m).sum(axis=1).max())


@dataclass(frozen=True)
class HermitianEig:
    """Eigenvalues in ascending order, unit eigenvectors as columns."""

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eig(h) -> HermitianEig:
    """Full spectrum of a Hermitian matrix.

    The input must be Hermitian up to ``HERMITIAN_TOL`` relative to its
    infinity norm.  It is symmetrized before factorization, which keeps the
    residual ``H v - w v`` below 1e-10 * ||H|| for every eigenpair.

    Raises
    ------
    NonSquareError, NonHermitianError
    """
    m = as_square(h)
    if norm_inf(m - m.conj().T) > HERMITIAN_TOL * norm_inf(m):
        raise NonHermitianError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    return HermitianEig(values=w, vectors=v)


def solve(a, b) -> np.ndarray:
    """Solve ``a @ x = b``.

    ``b`` may be a vector or a matrix of right-hand sides; the result has
    the matching shape.  Raises SingularMatrixError when the reciprocal
    2-norm condition number of ``a`` is at most ``RCOND_THRESHOLD``.
    """
    m = as_square(a)
    rhs = np.asarray(b, dtype=np.complex128)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != m.shape[0]:
        raise ValueError(f"shape mismatch: {m.shape} vs {rhs.shape}")
    s = np.linalg.svd(m, compute_uv=False)
    rcond = float(s[-1] / s[0]) if s[0] > 0.0 else 0.0
    if rcond <= RCOND_THRESHOLD:
        raise SingularMatrixError(f"reciprocal condition number {rcond:.3e} below threshold")
    return np.linalg.solve(m, rhs)


def rdiv(a, b) -> np.ndarray:
    """Right division ``a @ inv(b)``."""
    return solve(as_square(b).T, as_matrix(a).T).T


def determinant(a) -> complex:
    """Determinant via LU.  An exactly singular matrix gives 0, not an error."""
    return complex(np.linalg.det(as_square(a)))


def singular_values(a) -> np.ndarray:
    """Singular values in descending order."""
    return np.linalg.svd(as_matrix(a), compute_uv=False)


def spectral_norm(a) -> float:
    return float(singular_values(a)[0])
