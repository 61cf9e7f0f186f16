"""Principal angles between model spaces of Blaschke products.

Computes cross-Gram matrices of Takenaka bases exactly, by a triangular
Stein solve on one model-operator build of z phi per product, with the
certified Taylor truncation as an independent cross-check; the smallest
principal angle between two model spaces, the zero-separation lower bound
on its sine, and the largest factor radius, a lower bound on the product's radius.

The angle is taken to be the smallest principal angle: its cosine (the
top singular value of the cross-Gram of orthonormal bases) is exactly the
constant bounding normalized cross inner products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .blaschke import BlaschkeProduct, default_truncation, takenaka_basis
from .errors import CommonZeroError, NotSingleZeroError
from .model_operator import _matrix
from .radius import radius_single_zero

COMMON_ZERO_TOL = 1e-12


def cross_gram(phi1: BlaschkeProduct, phi2: BlaschkeProduct) -> np.ndarray:
    """Matrix of inner products between the two Takenaka bases, exactly.

    Entry (k, l) is the Hardy-space inner product of the k-th basis
    function of H(phi1) with the l-th of H(phi2).  Both model spaces are
    invariant under the backward shift S*, and <f, g> = <S*f, S*g> +
    f(0) conj(g(0)), so the matrix G solves the Stein equation

        G = A1^T G conj(A2) + c1 c2^H

    with A_i the matrix of S* on H(phi_i) and c_i the values of the basis
    functions at 0.  One model-operator build gives both: H(z phi) is
    C + z H(phi) and S*(z e_k) = e_k, so the matrix of S* on H(z phi), for
    the zeros 0, z_1, .., z_n, holds the values e_k(0) in its first row and
    A below it.  A1^T is lower and conj(A2) upper triangular, so row k of G
    solves an upper-triangular system in the rows before it, with diagonal
    1 - conj(z1_k) z2_l, which is nonzero for zeros inside the disc.  No
    series is truncated.
    """
    m1 = _matrix([0j] + phi1.zeros())
    m2 = _matrix([0j] + phi2.zeros()).conj()
    c1, a1 = m1[0, 1:], m1[1:, 1:]
    c2, a2 = m2[0, 1:], m2[1:, 1:]
    gram = np.zeros((len(c1), len(c2)), dtype=np.complex128)
    for k in range(len(c1)):
        w = a1[k, k]
        rhs = c1[k] * c2 + (a1[:k, k] @ gram[:k]) @ a2
        row = gram[k]
        for l in range(len(c2)):
            row[l] = (rhs[l] + w * (row[:l] @ a2[:l, l])) / (1.0 - w * a2[l, l])
    return gram


def taylor_cross_gram(phi1: BlaschkeProduct, phi2: BlaschkeProduct) -> np.ndarray:
    """:func:`cross_gram` from truncated Taylor coefficients of both bases.

    The independent cross-check of the Stein solve.  It always truncates at
    :func:`default_truncation` of both products, which keeps every basis
    tail bound below ``TAIL_TARGET``.
    """
    n_terms = default_truncation(phi1, phi2)
    c1, _ = takenaka_basis(phi1, n_terms)
    c2, _ = takenaka_basis(phi2, n_terms)
    return c1 @ c2.conj().T


@dataclass(frozen=True)
class AngleReport:
    """Smallest principal angle between two model spaces.

    ``sin_lower_bound`` carries the zero-separation bound when both inputs
    have a single distinct zero, else 0.  ``truncation`` is the number of
    Taylor terms behind the Gram matrix; it is 0, since :func:`cross_gram`
    is exact.
    """

    cos_angle: float
    sin_angle: float
    sin_lower_bound: float
    truncation: int


def subspace_cos_angle(phi1: BlaschkeProduct, phi2: BlaschkeProduct) -> AngleReport:
    """Angle between the model spaces of two Blaschke products.

    The cosine is the top singular value of :func:`cross_gram`, clamped to
    [0, 1].  Products sharing a zero have intersecting model spaces and
    raise CommonZeroError.
    """
    for z1, _ in phi1.factors:
        for z2, _ in phi2.factors:
            if abs(z1 - z2) < COMMON_ZERO_TOL:
                raise CommonZeroError(f"shared zero at {z1}")
    gram = cross_gram(phi1, phi2)
    cos_angle = float(min(1.0, max(0.0, linalg.singular_values(gram)[0])))
    sin_angle = math.sqrt(max(0.0, 1.0 - cos_angle * cos_angle))
    try:
        bound = sin_angle_lower_bound(phi1, phi2)
    except NotSingleZeroError:
        bound = 0.0
    return AngleReport(
        cos_angle=cos_angle,
        sin_angle=sin_angle,
        sin_lower_bound=bound,
        truncation=0,
    )


def sin_angle_lower_bound(phi1: BlaschkeProduct, phi2: BlaschkeProduct) -> float:
    """Zero-separation lower bound for the sine of the subspace angle.

    For products with single zeros a1, a2 of multiplicities n1, n2 this is
    the pseudo-hyperbolic distance |(a1 - a2) / (1 - conj(a1) a2)| raised
    to the power 2 n1 n2; it lies in [0, 1).
    """
    z1, m1 = phi1.sole_zero()
    z2, m2 = phi2.sole_zero()
    d = abs((z1 - z2) / (1.0 - z1.conjugate() * z2))
    return d ** (2 * m1 * m2)


class RadiusEstimate(NamedTuple):
    """Pairwise angles and factor radii of a product of single-zero factors.

    ``rho`` is the largest pairwise cosine and ``delta`` the largest
    single-factor radius.  ``angles`` holds the :class:`AngleReport` of
    every factor pair (i, j), i < j, in lexicographic order when rho is
    numeric, and is empty for the proxy.
    """

    rho: float
    delta: float
    angles: tuple[AngleReport, ...] = ()


def radius_estimate(factors, rho_mode: str = "numeric") -> RadiusEstimate:
    """rho and delta for a product of single-zero Blaschke factors.

    delta is the largest single-factor radius.  Each factor's model space
    is an S*-invariant subspace of the product's, so delta is at most the
    numerical radius of the product model operator.  rho bounds the
    pairwise cosines of the model-space angles, either computed
    numerically from the cross-Gram ("numeric", sharper) or replaced by
    the proxy sqrt(1 - b) with b the zero-separation bound ("f-proxy").
    """
    factors = list(factors)
    p = len(factors)
    if p < 2:
        raise ValueError("need at least two factors")
    if rho_mode not in ("numeric", "f-proxy"):
        raise ValueError(f"unknown rho_mode {rho_mode!r}")
    singles = [phi.sole_zero() for phi in factors]
    for i in range(p):
        for j in range(i + 1, p):
            if abs(singles[i][0] - singles[j][0]) < COMMON_ZERO_TOL:
                raise CommonZeroError(f"factors {i} and {j} share the zero {singles[i][0]}")
    delta = max(radius_single_zero(z, m) for z, m in singles)
    rho = 0.0
    angles = []
    for i in range(p):
        for j in range(i + 1, p):
            if rho_mode == "numeric":
                angles.append(subspace_cos_angle(factors[i], factors[j]))
                rho = max(rho, angles[-1].cos_angle)
            else:
                b = sin_angle_lower_bound(factors[i], factors[j])
                rho = max(rho, math.sqrt(max(0.0, 1.0 - b)))
    return RadiusEstimate(rho=rho, delta=delta, angles=tuple(angles))
