"""Polynomial functional calculus, operator Moebius transforms, and
numerical certification of the contraction inequalities for nilpotent
matrices: the Schwarz-Pick bound through the single-zero radius and the
Haagerup-de la Harpe bound."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .blaschke import _in_disc
from .errors import ConstantMapError, NotNilpotentError, SelfMapViolationError
from .model_operator import shift_adjoint_matrix
from .numerical_range import numerical_radius
from .radius import radius_single_zero

SELF_MAP_SAMPLES = 4096
SELF_MAP_SLACK = 1e-9
VANISHING_TOL = 1e-10
NILPOTENCY_TOL = 1e-12
CONTRACTION_SLACK = 1e-12


@dataclass(frozen=True)
class AnalyticSelfMap:
    """Polynomial self map of the closed unit disc.

    ``coeffs[k]`` multiplies z**k.  Construction certifies the self-map
    property on ``SELF_MAP_SAMPLES`` boundary points (sufficient on the
    whole disc by the maximum principle) with ``SELF_MAP_SLACK`` slack.
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("need at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        ts = 2.0 * math.pi * np.arange(SELF_MAP_SAMPLES) / SELF_MAP_SAMPLES
        peak = float(np.max(np.abs(self(np.exp(1j * ts)))))
        if peak > 1.0 + SELF_MAP_SLACK:
            raise SelfMapViolationError(
                f"boundary modulus reaches {peak}, not a self map of the disc"
            )

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        out = np.zeros_like(np.asarray(z, dtype=np.complex128))
        for c in reversed(self.coeffs):
            out = out * z + c
        return out if out.shape else complex(out)


def _taylor_shift(coeffs, center: complex) -> list[complex]:
    # repeated synthetic division; c[k] becomes f^(k)(center)/k!
    c = [complex(v) for v in coeffs]
    n = len(c)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            c[j] += center * c[j + 1]
    return c


def vanishing_order(f: AnalyticSelfMap, alpha) -> int:
    """Multiplicity of alpha as a zero of f - f(alpha).

    The smallest m >= 1 with |f^(m)(alpha)| / m! above ``VANISHING_TOL``.
    Raises ConstantMapError when every derivative vanishes.
    """
    shifted = _taylor_shift(f.coeffs, complex(alpha))
    for m in range(1, len(shifted)):
        if abs(shifted[m]) > VANISHING_TOL:
            return m
    raise ConstantMapError("the map is constant to working precision")


def operator_mobius(t, alpha) -> np.ndarray:
    """(alpha I - T)(I - conj(alpha) T)^{-1} for |alpha| < 1.

    Maps contractions to contractions; the inverse exists whenever
    ||T|| <= 1 and |alpha| < 1.
    """
    a = _in_disc(alpha)
    m = linalg.as_square(t)
    eye = np.eye(m.shape[0], dtype=np.complex128)
    return linalg.rdiv(a * eye - m, eye - a.conjugate() * m)


def polynomial_apply(t, f: AnalyticSelfMap) -> np.ndarray:
    """Evaluate the polynomial on a square matrix by Horner's scheme."""
    m = linalg.as_square(t)
    eye = np.eye(m.shape[0], dtype=np.complex128)
    out = f.coeffs[-1] * eye
    for c in reversed(f.coeffs[:-1]):
        out = out @ m + c * eye
    return out


@dataclass(frozen=True)
class NilpotentContraction:
    """A contraction whose ``order``-th power vanishes.

    Construction checks ||matrix**order|| below ``NILPOTENCY_TOL`` and the
    top singular value at most 1 within ``CONTRACTION_SLACK``.
    """

    matrix: np.ndarray
    order: int

    def __post_init__(self):
        m = linalg.as_square(self.matrix)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "order", int(self.order))
        if self.order < 1:
            raise ValueError("order must be positive")
        if linalg.norm_inf(np.linalg.matrix_power(m, self.order)) > NILPOTENCY_TOL:
            raise NotNilpotentError(f"matrix**{self.order} is not numerically zero")
        top = linalg.spectral_norm(m)
        if top > 1.0 + CONTRACTION_SLACK:
            raise ValueError(f"matrix is not a contraction, norm {top}")


class InequalityCheck(NamedTuple):
    lhs: float
    rhs: float
    margin: float


def schwarz_pick_transform(matrix, f: AnalyticSelfMap, alpha) -> np.ndarray:
    """(f(alpha) I - f(A))(I - conj(f(alpha)) f(A))^{-1}.

    For a 1 x 1 matrix [t] the numerical radius of the result is the
    classical pseudo-hyperbolic distance between f(alpha) and f(t).
    """
    fa = complex(f(complex(alpha)))
    return operator_mobius(polynomial_apply(matrix, f), fa)


def schwarz_pick_check(
    t: NilpotentContraction, f: AnalyticSelfMap, alpha
) -> InequalityCheck:
    """Certify the Schwarz-Pick bound for a nilpotent contraction.

    lhs is the numerical radius of the Moebius difference transform of
    f(T); rhs is the single-zero model radius at |alpha| and degree equal
    to the nilpotency order, raised to the vanishing order of f - f(alpha)
    at alpha.  The certified inequality is margin = rhs - lhs >= 0 up to
    rounding.
    """
    a = _in_disc(alpha)
    m_ord = vanishing_order(f, a)
    lhs = numerical_radius(schwarz_pick_transform(t.matrix, f, a))
    rhs = radius_single_zero(abs(a), t.order) ** m_ord
    return InequalityCheck(lhs=lhs, rhs=rhs, margin=rhs - lhs)


class SchwarzPickChain(NamedTuple):
    """Intermediate quantities of the Schwarz-Pick certification.

    lhs <= shift_bound <= mobius_power, and mobius_power equals
    formula_power up to the accuracy of the radius computations.
    """

    lhs: float
    shift_bound: float
    mobius_power: float
    formula_power: float
    order: int


def schwarz_pick_chain(
    t: NilpotentContraction, f: AnalyticSelfMap, alpha
) -> SchwarzPickChain:
    """Evaluate the inequality chain behind :func:`schwarz_pick_check`.

    lhs and formula_power are that check's lhs and rhs.  shift_bound
    applies the same transform to the pure nilpotent shift; mobius_power
    is the radius of the plain Moebius transform of the shift raised to
    the vanishing order.
    """
    check = schwarz_pick_check(t, f, alpha)
    a = complex(alpha)
    m_ord = vanishing_order(f, a)
    s = shift_adjoint_matrix(t.order)
    shift_bound = numerical_radius(schwarz_pick_transform(s, f, a))
    mobius_power = numerical_radius(operator_mobius(s, a)) ** m_ord
    return SchwarzPickChain(
        lhs=check.lhs,
        shift_bound=shift_bound,
        mobius_power=mobius_power,
        formula_power=check.rhs,
        order=m_ord,
    )


def haagerup_harpe_check(t: NilpotentContraction) -> InequalityCheck:
    """Certify the nilpotent numerical radius bound.

    lhs is the numerical radius of T, rhs is ||T|| cos(pi/(n+1)) with n
    the nilpotency order; equality holds exactly for the pure shift.
    """
    lhs = numerical_radius(t.matrix)
    rhs = linalg.spectral_norm(t.matrix) * math.cos(math.pi / (t.order + 1))
    return InequalityCheck(lhs=lhs, rhs=rhs, margin=rhs - lhs)


def random_nilpotent_contraction(n: int, seed: int) -> NilpotentContraction:
    """Strictly upper triangular random matrix scaled to unit norm.

    Deterministic per seed; the n-th power vanishes exactly by strict
    triangularity.
    """
    n = int(n)
    if n < 2:
        raise ValueError("need dimension at least 2")
    rng = np.random.default_rng(seed)
    rows, cols = np.triu_indices(n, 1)
    m = np.zeros((n, n), dtype=np.complex128)
    while True:
        m[rows, cols] = (
            rng.standard_normal(len(rows)) + 1j * rng.standard_normal(len(rows))
        ) / math.sqrt(2.0)
        top = linalg.spectral_norm(m)
        if top > 1e-12:
            break
    return NilpotentContraction(matrix=m / top, order=n)
