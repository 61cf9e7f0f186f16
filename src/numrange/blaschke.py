"""Finite Blaschke products and their scalar circle functions.

Evaluation, the Poisson kernel, the Toeplitz symbol of the real part of a
single-zero model operator, and Taylor coefficients of the Takenaka
orthonormal basis with certified truncation tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphaOutOfRangeError,
    IndexOutOfRangeError,
    NotSingleZeroError,
    TruncationInsufficientError,
)

# Slack allowed outside the closed unit disc when evaluating.
UNIT_DISC_TOL = 1e-9
# The default truncation keeps every Takenaka basis tail bound below this.
TAIL_TARGET = 1e-10
MAX_TRUNCATION = 100_000


def _in_disc(alpha) -> complex:
    a = complex(alpha)
    if not (math.isfinite(a.real) and math.isfinite(a.imag)):
        raise AlphaOutOfRangeError("zero must be finite")
    if abs(a) >= 1.0:
        raise AlphaOutOfRangeError(
            f"zero must lie strictly inside the unit disc, got |alpha| = {abs(a)}"
        )
    return a


def _defect(z: complex) -> float:
    """1 - |z|^2 as (1 - x)(1 + x) - y^2, z = x + iy: full accuracy for real z near +-1."""
    return (1.0 - z.real) * (1.0 + z.real) - z.imag * z.imag


def _unit_interval(alpha) -> float:
    a = float(alpha)
    if not 0.0 <= a < 1.0:
        raise AlphaOutOfRangeError(f"expected a real parameter in [0, 1), got {alpha!r}")
    return a


@dataclass(frozen=True)
class BlaschkeProduct:
    """A finite Blaschke product given by its zeros inside the unit disc.

    ``factors`` is an ordered tuple of (zero, multiplicity) pairs.  The
    ordering matters: the spanned model space does not depend on it, but
    the Takenaka basis and the matrix of the compressed shift do.
    """

    factors: tuple[tuple[complex, int], ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a Blaschke product needs at least one zero")
        checked = []
        for zero, mult in self.factors:
            m = int(mult)
            if m < 1:
                raise ValueError(f"multiplicity must be positive, got {mult}")
            checked.append((_in_disc(zero), m))
        object.__setattr__(self, "factors", tuple(checked))

    @classmethod
    def single_zero(cls, alpha, n: int = 1) -> "BlaschkeProduct":
        return cls(((complex(alpha), int(n)),))

    @classmethod
    def monomial(cls, n: int) -> "BlaschkeProduct":
        """The product z**n."""
        return cls.single_zero(0.0, n)

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.factors)

    def sole_zero(self) -> tuple[complex, int]:
        """The product's one distinct zero and the degree, however the
        factors list it; NotSingleZeroError if it has more distinct zeros."""
        distinct = {z for z, _ in self.factors}
        if len(distinct) != 1:
            raise NotSingleZeroError(f"product has {len(distinct)} distinct zeros")
        return self.factors[0][0], self.degree

    def zeros(self) -> list[complex]:
        """Multiplicity-expanded zeros in declaration order."""
        out: list[complex] = []
        for zero, mult in self.factors:
            out.extend([zero] * mult)
        return out

    def __mul__(self, other: "BlaschkeProduct") -> "BlaschkeProduct":
        return BlaschkeProduct(self.factors + other.factors)

    def __call__(self, z):
        return evaluate(self, z)


def evaluate(phi: BlaschkeProduct, z) -> complex:
    """Evaluate the product at a point of the closed unit disc.

    The result has modulus at most one inside the disc and modulus one on
    the circle.  Points further than ``UNIT_DISC_TOL`` outside the closed
    disc are rejected.
    """
    w = complex(z)
    if abs(w) > 1.0 + UNIT_DISC_TOL:
        raise ValueError(f"point must lie in the closed unit disc, got |z| = {abs(w)}")
    out = 1.0 + 0.0j
    for zero, mult in phi.factors:
        out *= ((w - zero) / (1.0 - zero.conjugate() * w)) ** mult
    return out


def _poisson_denominator(a: float, t):
    # 1 - 2 a cos t + a^2 without the cancellation near a = 1, t = 0
    return (1.0 - a) ** 2 + 4.0 * a * np.sin(0.5 * np.asarray(t)) ** 2


def poisson_kernel(alpha, t):
    """P_a(e^{it}) = (1 - a^2) / (1 - 2 a cos t + a^2) for real a in [0, 1).

    The numerator (1 - a)(1 + a) and the denominator (1 - a)^2 + 4 a sin^2(t/2)
    keep full relative accuracy for a near 1 and small t.  ``t`` may be a
    number or an array of angles.
    """
    a = _unit_interval(alpha)
    return (1.0 - a) * (1.0 + a) / _poisson_denominator(a, t)


def real_part_symbol(alpha, t):
    """Toeplitz symbol of the real part of the single-zero model operator.

    h(t) = ((1 + a^2) cos t - 2 a) / (1 - 2 a cos t + a^2), the symbol for
    the zero placed at -a.  It reduces to cos t at a = 0 and is strictly
    decreasing on [0, pi].  Numerator and denominator are evaluated as
    (1 - a)^2 - 2 (1 + a^2) sin^2(t/2) and (1 - a)^2 + 4 a sin^2(t/2), free
    of cancellation for a near 1 and small t.  ``t`` may be a number or an
    array of angles.
    """
    a = _unit_interval(alpha)
    half_sin_sq = np.sin(0.5 * np.asarray(t)) ** 2
    return ((1.0 - a) ** 2 - 2.0 * (1.0 + a * a) * half_sin_sq) / _poisson_denominator(a, t)


@dataclass(frozen=True)
class TaylorSeries:
    """Truncated Taylor coefficients with a certified tail bound.

    ``coeffs[m]`` is the coefficient of z**m.  ``truncation_error_bound``
    dominates the sum of the absolute values of all dropped coefficients.
    """

    coeffs: np.ndarray
    truncation_error_bound: float


def _kernel_series(alpha: complex, n_terms: int) -> np.ndarray:
    # (1 - |a|^2)^{1/2} / (1 - conj(a) z) as a geometric series
    return math.sqrt(_defect(alpha)) * alpha.conjugate() ** np.arange(n_terms)


def _factor_series(alpha: complex, n_terms: int) -> np.ndarray:
    # (z - a) / (1 - conj(a) z): constant term -a, then geometric decay
    c = np.empty(n_terms, dtype=np.complex128)
    c[0] = -alpha
    if n_terms > 1:
        c[1:] = _defect(alpha) * alpha.conjugate() ** np.arange(n_terms - 1)
    return c


def _tail_bound(factor_zeros, kernel_zero: complex, n_terms: int) -> float:
    """Bound sum_{m >= n_terms} |c_m| for a Takenaka basis function.

    Each convolved series is dominated termwise by K * rho**m with rho the
    largest zero modulus involved; a product of q such majorants is
    dominated by binom(m+q-1, q-1) * prod(K) * rho**m, whose tail is summed
    by a geometric comparison.
    """
    zs = list(factor_zeros) + [kernel_zero]
    rho = max(abs(z) for z in zs)
    if rho == 0.0:
        # plain monomial basis: the series is exact once it holds the degree
        return 0.0 if n_terms >= len(zs) else 1.0
    q = len(zs)
    log_k = 0.5 * math.log(_defect(kernel_zero))
    for z in factor_zeros:
        # log max(|z|, (1 - |z|^2) / rho), without overflow for subnormal rho
        log_k += max(math.log(abs(z)) if z else -math.inf,
                     math.log(_defect(z)) - math.log(rho))
    growth = 1.0 + (q - 1) / (n_terms + 1.0)
    if growth * rho >= 1.0:
        return math.inf
    log_binom = (
        math.lgamma(n_terms + q) - math.lgamma(n_terms + 1) - math.lgamma(q)
    )
    log_tail = (
        log_k + log_binom + n_terms * math.log(rho) - math.log(1.0 - growth * rho)
    )
    return math.exp(min(log_tail, 700.0))


def default_truncation(*phis: BlaschkeProduct) -> int:
    """The smallest power of two from 32 at which every Takenaka basis tail
    bound of every product is below ``TAIL_TARGET``.

    Any zeros strictly inside the disc, of any multiplicity, are accepted
    until that truncation would pass ``MAX_TRUNCATION``; past it the call
    raises TruncationInsufficientError.
    """
    n_terms = 32
    while n_terms <= MAX_TRUNCATION:
        if max(_basis_tail_bound(phi.zeros(), n_terms) for phi in phis) < TAIL_TARGET:
            return n_terms
        n_terms *= 2
    raise TruncationInsufficientError(
        f"cannot reach tail target {TAIL_TARGET} within {MAX_TRUNCATION} terms"
    )


def _checked_truncation(phi: BlaschkeProduct, n_terms: int | None) -> int:
    if n_terms is None:
        n_terms = default_truncation(phi)
    n_terms = int(n_terms)
    if n_terms < 1:
        raise ValueError("n_terms must be positive")
    if n_terms > MAX_TRUNCATION:
        raise TruncationInsufficientError(f"truncation {n_terms} exceeds {MAX_TRUNCATION}")
    return n_terms


def _takenaka_rows(zeros: list[complex], n_terms: int) -> np.ndarray:
    """Taylor coefficients of the first len(zeros) Takenaka basis functions.

    Row k is the kernel series at zeros[k] times the product of the factor
    series of zeros[:k].  A row whose zero repeats the previous one is that
    row times one factor series; otherwise the running factor product is
    brought up to date and multiplied by the new kernel series.
    """
    rows = np.empty((len(zeros), n_terms), dtype=np.complex128)
    product, multiplied = None, 0  # product of the factor series of zeros[:multiplied]
    for k, z in enumerate(zeros):
        if k and z == zeros[k - 1]:
            rows[k] = np.convolve(rows[k - 1], _factor_series(z, n_terms))[:n_terms]
            continue
        for w in zeros[multiplied:k]:
            factor = _factor_series(w, n_terms)
            product = factor if product is None else np.convolve(product, factor)[:n_terms]
        multiplied = k
        kernel = _kernel_series(z, n_terms)
        rows[k] = kernel if product is None else np.convolve(kernel, product)[:n_terms]
    return rows


def _basis_tail_bound(zeros: list[complex], n_terms: int) -> float:
    """Largest :func:`_tail_bound` among the Takenaka basis functions of the
    multiplicity-expanded ``zeros``."""
    return max(_tail_bound(zeros[:k], zeros[k], n_terms) for k in range(len(zeros)))


def takenaka_basis(phi: BlaschkeProduct, n_terms: int | None = None) -> tuple[np.ndarray, float]:
    """Taylor coefficients of the whole Takenaka basis of H(phi), one row per
    basis function, and the largest tail bound among the rows.

    ``n_terms`` defaults to :func:`default_truncation`, as in
    :func:`takenaka_taylor`, whose rows these are.
    """
    n_terms = _checked_truncation(phi, n_terms)
    zeros = phi.zeros()
    return _takenaka_rows(zeros, n_terms), _basis_tail_bound(zeros, n_terms)


def takenaka_taylor(phi: BlaschkeProduct, k: int, n_terms: int | None = None) -> TaylorSeries:
    """Taylor coefficients of the k-th Takenaka basis function of H(phi).

    The basis function is the normalized reproducing kernel at the k-th
    (multiplicity-expanded) zero times the partial product of the first
    k-1 Blaschke factors.  Indexing is 1-based in k.

    Parameters
    ----------
    phi : BlaschkeProduct
    k : int
        Basis index, 1 <= k <= degree.
    n_terms : int, optional
        Number of retained coefficients; defaults to
        :func:`default_truncation`.

    Returns
    -------
    TaylorSeries
        Coefficients of z**0 .. z**(n_terms-1) plus a tail bound.
    """
    zeros = phi.zeros()
    if not 1 <= k <= len(zeros):
        raise IndexOutOfRangeError(f"basis index {k} outside 1..{len(zeros)}")
    n_terms = _checked_truncation(phi, n_terms)
    coeffs = _takenaka_rows(zeros[:k], n_terms)[-1]
    return TaylorSeries(coeffs, _tail_bound(zeros[: k - 1], zeros[k - 1], n_terms))
