"""Symmetric Toeplitz matrices with geometric entries (the classical
Kac-Murdock-Szego family), the trigonometric root system that
parameterizes their spectrum, and the spectrum of the real part of the
single-zero model operator.

The whole root system is solved at once with numpy arrays by safeguarded
Newton steps (:func:`kms_root_system`); a single root is solved by scalar
bisection (:func:`solve_root`).  The radius formulas use the scalar
solver and the spectra the array one, so the two cross-check each other.
``numrange kms`` checks the array spectra against a dense real ``eigvalsh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blaschke import _unit_interval, poisson_kernel, real_part_symbol
from .errors import BracketFailureError, TOutOfRangeError

BISECTION_WIDTH = 1e-13
PARITY_RESIDUAL_TOL = 1e-11
EQUATION_RESIDUAL_TOL = 1e-9
# A Newton step this small ends the array solve of a root.  The solve took
# at most 12 steps over 1 <= n <= 1000 and alpha from 1e-6 to 0.9999.
NEWTON_STEP_TOL = 1e-14
MAX_NEWTON_STEPS = 100


def kms_matrix(alpha, n: int) -> np.ndarray:
    """The n x n symmetric Toeplitz matrix with entries alpha**|r - s|."""
    a = _unit_interval(alpha)
    n = int(n)
    if n < 1:
        raise ValueError("dimension must be positive")
    idx = np.arange(n)
    return (a ** np.arange(n, dtype=float))[np.abs(idx[:, None] - idx[None, :])]


def eigenvalue_equation(alpha, n: int, t: float) -> float:
    """The degree-n polynomial in cos t whose roots locate the spectrum.

    p_n(cos t) = (sin (n+1)t - 2 a sin nt + a^2 sin (n-1)t) / sin t,
    defined for t in the open interval (0, pi).
    """
    a = _unit_interval(alpha)
    t = float(t)
    if not 0.0 < t < math.pi:
        raise TOutOfRangeError(f"t must lie in (0, pi), got {t}")
    return float(_equation_values(a, int(n), t))


def parity_equation(alpha, n: int, k: int, t: float) -> float:
    """Half-angle factor of the eigenvalue equation selected by parity of k.

    Odd k roots solve  cos((n+1)t/2) - a cos((n-1)t/2) = 0,
    even k roots solve sin((n+1)t/2) - a sin((n-1)t/2) = 0.
    """
    a = _unit_interval(alpha)
    half_hi = 0.5 * (n + 1) * t
    half_lo = 0.5 * (n - 1) * t
    if k % 2:
        return math.cos(half_hi) - a * math.cos(half_lo)
    return math.sin(half_hi) - a * math.sin(half_lo)


def solve_root(alpha, n: int, k: int) -> float:
    """The k-th root t_k of the eigenvalue equation, 1-based, by scalar
    bisection.

    Each root is bracketed strictly between consecutive grid points
    x_{k-1} and x_k with x_j = j pi / (n+1), and located by bisection on
    the parity-selected half-angle equation, which changes sign across
    that interval for alpha in (0, 1).  At alpha = 0 the root is exactly
    x_k.  Bisection runs until the bracket is down to two adjacent floats,
    so that its midpoint rounds to an endpoint, and returns that midpoint;
    the parity and eigenvalue-equation residuals are verified afterwards.
    This is the solver for a single root (the radius formulas); the whole
    system is solved by :func:`kms_root_system`.
    """
    a = _unit_interval(alpha)
    n = int(n)
    k = int(k)
    if not 1 <= k <= n:
        raise ValueError(f"root index {k} outside 1..{n}")
    hi = k * math.pi / (n + 1)
    if a == 0.0:
        return hi
    lo = (k - 1) * math.pi / (n + 1)
    f_lo = parity_equation(a, n, k, lo)
    f_hi = parity_equation(a, n, k, hi)
    if f_hi == 0.0:
        return hi
    if f_lo == 0.0 or (f_lo > 0.0) == (f_hi > 0.0):
        raise BracketFailureError(
            f"no sign change on ({lo}, {hi}] for alpha={a}, n={n}, k={k}"
        )
    t = 0.5 * (lo + hi)
    while lo < t < hi:
        f_t = parity_equation(a, n, k, t)
        if f_t == 0.0:
            return t
        if (f_t > 0.0) == (f_lo > 0.0):
            lo, f_lo = t, f_t
        else:
            hi = t
        t = 0.5 * (lo + hi)
    if abs(parity_equation(a, n, k, t)) > PARITY_RESIDUAL_TOL:
        raise BracketFailureError(f"parity residual too large at t={t}")
    if abs(eigenvalue_equation(a, n, t)) > EQUATION_RESIDUAL_TOL:
        raise BracketFailureError(f"eigenvalue equation residual too large at t={t}")
    return t


@dataclass(frozen=True)
class KmsRootSystem:
    """Roots t_1 < ... < t_n in (0, pi) with their bracketing intervals."""

    alpha: float
    n: int
    roots: np.ndarray
    brackets: np.ndarray


def _parity_with_slope(a: float, n: int, odd: np.ndarray, t: np.ndarray):
    """:func:`parity_equation` and its t-derivative for arrays of roots."""
    hi, lo = 0.5 * (n + 1), 0.5 * (n - 1)
    x, y = hi * t, lo * t
    c_hi, s_hi, c_lo, s_lo = np.cos(x), np.sin(x), np.cos(y), np.sin(y)
    value = np.where(odd, c_hi - a * c_lo, s_hi - a * s_lo)
    slope = np.where(odd, (a * lo) * s_lo - hi * s_hi, hi * c_hi - (a * lo) * c_lo)
    return value, slope


def _equation_values(a: float, n: int, t: np.ndarray) -> np.ndarray:
    """:func:`eigenvalue_equation` for an array of t in (0, pi)."""
    return (
        np.sin((n + 1) * t) - 2.0 * a * np.sin(n * t) + a * a * np.sin((n - 1) * t)
    ) / np.sin(t)


def _newton_roots(a: float, n: int, odd: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  f_lo: np.ndarray) -> np.ndarray:
    """Safeguarded Newton on the parity equation inside every bracket at once.

    Each bracket keeps the sign change of its root: it shrinks to the side
    of the current iterate that still holds it, and a Newton step leaving
    the bracket is replaced by its midpoint.  A root is kept once it took
    a Newton step inside its bracket no longer than ``NEWTON_STEP_TOL``.
    """
    t = 0.5 * (lo + hi)
    done = np.zeros(len(t), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MAX_NEWTON_STEPS):
            f, df = _parity_with_slope(a, n, odd, t)
            right = (f > 0.0) == (f_lo > 0.0)
            lo, f_lo = np.where(right, t, lo), np.where(right, f, f_lo)
            hi = np.where(right, hi, t)
            step = f / df
            t_new = t - step
            newton = (lo <= t_new) & (t_new <= hi)
            t = np.where(done, t, np.where(newton, t_new, 0.5 * (lo + hi)))
            done |= newton & (np.abs(step) <= NEWTON_STEP_TOL)
            if done.all():
                return t
    raise BracketFailureError(f"Newton did not converge for alpha={a}, n={n}")


def _require(ok: np.ndarray, roots: np.ndarray, failure: str) -> None:
    if not ok.all():
        raise BracketFailureError(f"{failure} at t={roots[int(np.argmin(ok))]}")


def kms_root_system(alpha, n: int) -> KmsRootSystem:
    """All n roots of the eigenvalue equation, solved together.

    Root t_k lies in (x_{k-1}, x_k] with x_j = j pi / (n+1); at alpha = 0
    it is exactly x_k.  Otherwise it is located by safeguarded Newton on
    the parity equation (:func:`_newton_roots`) and certified by a sign
    change of that equation across a sub-bracket of width at most
    ``BISECTION_WIDTH`` around it, then checked against the parity and
    eigenvalue-equation residual tolerances, as :func:`solve_root` does.
    """
    a = _unit_interval(alpha)
    n = int(n)
    grid = np.arange(n + 1) * math.pi / (n + 1)
    lo, hi = grid[:-1], grid[1:]
    brackets = np.column_stack([lo, hi])
    if a == 0.0 or n < 1:
        return KmsRootSystem(alpha=a, n=n, roots=hi.copy(), brackets=brackets)
    odd = np.arange(1, n + 1) % 2 == 1
    (f_lo, f_hi), _ = _parity_with_slope(a, n, odd, brackets.T)
    _require((f_lo != 0.0) & (np.sign(f_lo) != np.sign(f_hi)), lo,
             f"no sign change for alpha={a}, n={n} on the bracket starting")
    roots = _newton_roots(a, n, odd, lo, hi, f_lo)
    half = 0.5 * BISECTION_WIDTH
    ends = np.stack([np.maximum(roots - half, lo), np.minimum(roots + half, hi), roots])
    (f_left, f_right, f_root), _ = _parity_with_slope(a, n, odd, ends)
    _require(np.sign(f_left) != np.sign(f_right), roots,
             f"no sign change within {BISECTION_WIDTH}")
    _require(np.abs(f_root) <= PARITY_RESIDUAL_TOL, roots, "parity residual too large")
    _require(np.abs(_equation_values(a, n, roots)) <= EQUATION_RESIDUAL_TOL, roots,
             "eigenvalue equation residual too large")
    return KmsRootSystem(alpha=a, n=n, roots=roots, brackets=brackets)


def kms_eigenvalues(alpha, n: int) -> np.ndarray:
    """Spectrum of :func:`kms_matrix` in descending order.

    The eigenvalues are the Poisson kernel evaluated at the roots of the
    eigenvalue equation; they lie strictly between (1-a)/(1+a) and
    (1+a)/(1-a) and decrease as the root index grows.
    """
    system = kms_root_system(alpha, n)
    return poisson_kernel(system.alpha, system.roots)


def real_part_spectrum(alpha, n: int) -> np.ndarray:
    """Spectrum of Re(M) in descending order, M the model operator with
    single zero -alpha.

    Values are the real-part symbol evaluated at the roots; at alpha = 0
    this reduces to cos(k pi / (n+1)).  The largest magnitude is attained
    by the last (most negative) value, which equals minus the numerical
    radius of Re(M).
    """
    system = kms_root_system(alpha, n)
    return real_part_symbol(system.alpha, system.roots)
