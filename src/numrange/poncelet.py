"""Rank-one unitary dilations and the polygons they cut on the unit circle.

A contraction with rank-one defects admits a one-parameter family of
unitary dilations one dimension up.  For each point of the unit circle
there is a dilation whose spectrum contains it; the spectrum then forms a
polygon inscribed in the circle whose edges are tangent to the boundary
of the numerical range.  This module builds the dilations, selects the
phase placing a prescribed vertex in closed form, extracts the unitary
spectrum, and certifies the tangency by comparing each edge's offset with
the support function of W(T) along the edge's outward normal.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import linalg
from .errors import NotRankOneError, NumrangeError, PhaseSearchFailureError
from .numerical_range import support_sweep

DEFECT_RANK_TOL = 1e-8
UNITARITY_TOL = 1e-10
# unitarity of an eigensystem input and residual of each of its eigenpairs
EIGENSYSTEM_TOL = 1e-8
VERTEX_ON_CIRCLE_TOL = 1e-9
UNIT_MODULUS_TOL = 1e-10
VERTEX_MATCH_TOL = 1e-8
VERTEX_DISTINCT_TOL = 1e-8


def _fix_phase(v: np.ndarray) -> np.ndarray:
    # make the first non-negligible component real positive
    mags = np.abs(v)
    j = int(np.argmax(mags > 1e-12 * mags.max()))
    return v * (v[j].conjugate() / abs(v[j]))


def _defect_direction(gram: np.ndarray, label: str) -> np.ndarray:
    eig = linalg.hermitian_eig(gram)
    top = float(eig.values[-1])
    second = float(abs(eig.values[-2])) if gram.shape[0] > 1 else 0.0
    if top <= DEFECT_RANK_TOL:
        raise NotRankOneError(f"defect operator {label} is numerically zero")
    if second > DEFECT_RANK_TOL:
        raise NotRankOneError(
            f"defect operator {label} has second eigenvalue {second:.3e}"
        )
    return math.sqrt(top) * _fix_phase(eig.vectors[:, -1])


def defect_vectors(t) -> tuple[np.ndarray, np.ndarray]:
    """Unit-rank factorizations of both defect operators of a contraction.

    Returns (d, d_star) with d d^* = I - T^* T and d_star d_star^* =
    I - T T^*.  The phase of each vector is fixed by making its first
    non-negligible component real positive.  Raises NotRankOneError when
    either defect is not numerically of rank one.
    """
    m = linalg.as_square(t)
    eye = np.eye(m.shape[0], dtype=np.complex128)
    d = _defect_direction(eye - m.conj().T @ m, "I - T*T")
    d_star = _defect_direction(eye - m @ m.conj().T, "I - TT*")
    return d, d_star


def _dilation_data(m: np.ndarray):
    d, d_star = defect_vectors(m)
    mu = float(np.vdot(d, d).real)
    kappa = complex(np.vdot(d, m.conj().T @ d_star)) / mu
    return d, d_star, kappa


def _assemble(m: np.ndarray, d, d_star, kappa, phase: float) -> np.ndarray:
    n = m.shape[0]
    w = cmath.exp(1j * phase)
    u = np.zeros((n + 1, n + 1), dtype=np.complex128)
    u[:n, :n] = m
    u[:n, n] = w * d_star
    u[n, :n] = d.conj()
    u[n, n] = -w * kappa
    return u


def unitary_dilation(t, phase: float) -> np.ndarray:
    """Unitary (n+1) x (n+1) dilation of a rank-one-defect contraction.

    The top-left block is T exactly; the border is built from the defect
    vectors, and ``phase`` parameterizes the unitary-equivalence classes
    of the dilations.  Unitarity is verified to ``UNITARITY_TOL``.
    """
    m = linalg.as_square(t)
    return _checked_unitary(_assemble(m, *_dilation_data(m), float(phase)))


def _checked_unitary(u: np.ndarray) -> np.ndarray:
    res = linalg.norm_inf(u.conj().T @ u - np.eye(u.shape[0]))
    if res > UNITARITY_TOL:
        raise NumrangeError(f"dilation failed unitarity check, residual {res:.3e}")
    return u


def unitary_eigensystem(u) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and unit eigenvectors (as columns) of a unitary matrix.

    A unitary matrix is normal, so every eigenvalue is perfectly
    conditioned and one general eigensolve recovers the spectrum.  The
    input must be unitary to ``EIGENSYSTEM_TOL`` (ValueError otherwise), and
    every eigenpair must satisfy ||U v - w v|| <= ``EIGENSYSTEM_TOL``
    (NumrangeError otherwise).
    """
    m = linalg.as_square(u)
    n = m.shape[0]
    if linalg.norm_inf(m.conj().T @ m - np.eye(n)) > EIGENSYSTEM_TOL:
        raise ValueError("input is not unitary within tolerance")
    vals, vecs = np.linalg.eig(m)
    res = float(np.max(np.linalg.norm(m @ vecs - vecs * vals, axis=0)))
    if res > EIGENSYSTEM_TOL:
        raise NumrangeError(f"unitary eigensystem residual {res:.3e}")
    return vals, vecs


def poncelet_polygon(t, vertex) -> np.ndarray:
    """Polygon of the unitary dilation of T having ``vertex`` as a vertex.

    The last column of the dilation U(w), w = e^{i phase}, is w times a
    fixed vector, so det(U(w) - vertex I) = w B' - vertex C with
    C = det(T - vertex I) and B' = det(U(1) - vertex I) + vertex C.  The
    phase is therefore arg(vertex C / B'), from two determinants.  Returns
    the n+1 eigenvalues of the selected dilation, one of which is
    ``vertex``, as a complex array sorted by argument in [0, 2 pi).

    Raises
    ------
    PhaseSearchFailureError
        If B' vanishes, so that no phase places the vertex in the
        spectrum, or the computed spectrum violates the unit-modulus,
        distinctness or vertex-match checks.
    """
    m = linalg.as_square(t)
    n = m.shape[0]
    if n < 2:
        raise ValueError("the polygon construction needs a matrix of size 2 or more")
    lam = complex(vertex)
    if abs(abs(lam) - 1.0) > VERTEX_ON_CIRCLE_TOL:
        raise ValueError(f"vertex must lie on the unit circle, got |v| = {abs(lam)}")
    c = linalg.determinant(m - lam * np.eye(n, dtype=np.complex128))
    data = _dilation_data(m)
    u_one = _assemble(m, *data, 0.0)
    b = linalg.determinant(u_one - lam * np.eye(n + 1, dtype=np.complex128)) + lam * c
    if b == 0:
        raise PhaseSearchFailureError(
            f"no dilation phase places {lam}: det(U(1) - vertex I) + vertex C vanishes"
        )
    u = _checked_unitary(_assemble(m, *data, cmath.phase(lam * c / b)))
    eigs, _ = unitary_eigensystem(u)
    moduli = np.abs(eigs)
    if np.max(np.abs(moduli - 1.0)) > UNIT_MODULUS_TOL:
        raise PhaseSearchFailureError("dilation spectrum left the unit circle")
    order = np.argsort(np.angle(eigs) % (2.0 * math.pi))
    verts = eigs[order]
    dists = np.abs(verts - np.roll(verts, 1))
    if len(verts) > 1 and float(dists.min()) <= VERTEX_DISTINCT_TOL:
        raise PhaseSearchFailureError("dilation spectrum has coinciding eigenvalues")
    if float(np.min(np.abs(verts - lam))) > VERTEX_MATCH_TOL:
        raise PhaseSearchFailureError("prescribed vertex missing from the spectrum")
    return verts


def _edges(vertices: np.ndarray):
    """Yield (outward unit normal, line offset) for each polygon edge."""
    verts = np.asarray(vertices, dtype=np.complex128)
    center = verts.mean()
    for i in range(len(verts)):
        p, q = verts[i], verts[(i + 1) % len(verts)]
        normal = -1j * (q - p)
        if (normal.conjugate() * (p - center)).real < 0.0:
            normal = -normal
        normal /= abs(normal)
        offset = 0.5 * ((normal.conjugate() * p).real + (normal.conjugate() * q).real)
        yield normal, offset


def edge_support_gaps(vertices, t) -> np.ndarray:
    """Per-edge difference between the support of W(T) in the edge-normal
    direction and the edge line offset, for polygon ``vertices`` in order.
    Zero means the edge is tangent; positive means the edge cuts into the
    range."""
    verts = np.asarray(vertices, dtype=np.complex128)
    if len(verts) < 3:
        raise ValueError("need at least three vertices")
    normals, offsets = zip(*_edges(verts))
    return support_sweep(t, np.angle(normals)) - np.array(offsets)


def circumscription_check(vertices, t) -> float:
    """Largest signed violation of the circumscription property.

    The polygon is the intersection of its edge half-planes, so it contains
    W(T) with every edge tangent exactly when the largest edge support gap
    (see :func:`edge_support_gaps`) is zero.  A Poncelet polygon yields a
    value of order rounding error, a shrunk polygon a positive value, a
    non-tangent enclosing polygon a negative one.
    """
    return float(np.max(edge_support_gaps(vertices, t)))
