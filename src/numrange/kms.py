"""Symmetric Toeplitz matrices with geometric entries (the classical
Kac-Murdock-Szego family), the trigonometric root system that
parameterizes their spectrum, and the spectrum of the real part of the
single-zero model operator.

The whole root system is solved at once by safeguarded Newton steps on a phase equation
(:func:`kms_root_system`), a single root by scalar bisection (:func:`solve_root`).  Both
take the parity equation and its exact value at the grid end x_k = k pi / (n+1) from
:func:`_parity`, and end a root once its bracket is spent (two adjacent floats; a Newton
step or bracket within ``NEWTON_STEP_TOL``), so roots certify for every alpha in [0, 1).
The radius formulas use the scalar solver and the spectra the array one, a cross-check;
``numrange kms`` checks the spectra against :func:`kms_dense_eigenvalues`."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blaschke import _unit_interval, poisson_kernel, real_part_symbol
from .errors import BracketFailureError, TOutOfRangeError

BISECTION_WIDTH = 1e-13
PARITY_RESIDUAL_TOL = 1e-11
EQUATION_RESIDUAL_TOL = 1e-9
# An in-bracket Newton step or a Newton bracket this small ends the array solve of a root.
# Over 1 <= n <= 1000 it took 2 to 8 steps for 1e-6 <= alpha <= 0.95 and at most 12 at 0.9999.
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


def kms_dense_eigenvalues(alpha, n: int) -> np.ndarray:
    """Spectrum of the centrosymmetric :func:`kms_matrix` M in descending order
    from its two parity blocks (Cantoni & Butler 1976).  With h = floor(n/2),
    A = M[:h, :h] and B = M[:h, n-h:] with its columns reversed, A + B (bordered
    for odd n by sqrt(2) M[:h, h] and M[h, h]) holds the eigenvalues of odd index
    k = 1, 3, ..., and A - B the others."""
    m = kms_matrix(alpha, n)
    h, c = n // 2, (n + 1) // 2
    symmetric = m[:c, :c] + m[:c, h:][:, ::-1]
    # for odd n the middle row and column came in twice: scale them to the border
    symmetric[h:] /= math.sqrt(2.0)
    symmetric[:, h:] /= math.sqrt(2.0)
    values = np.empty(n)
    values[0::2] = np.linalg.eigvalsh(symmetric)[::-1]
    values[1::2] = np.linalg.eigvalsh(m[:h, :h] - m[:h, c:][:, ::-1])[::-1]
    return values


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


def _parity(a: float, n: int, k):
    """:func:`parity_equation` of root k, and its value -a trig((n-1)x/2) at x = x_k, where
    trig(k pi / 2) is exactly 0.  An int array k (roots on the last axis) takes arrays."""
    half_hi, half_lo = 0.5 * (n + 1), 0.5 * (n - 1)
    odd = k % 2 == 1
    trig = ((lambda x: np.where(odd, np.cos(x), np.sin(x))) if isinstance(k, np.ndarray)
            else math.cos if odd else math.sin)
    return lambda t: trig(half_hi * t) - a * trig(half_lo * t), lambda x: -a * trig(half_lo * x)


def parity_equation(alpha, n: int, k: int, t: float) -> float:
    """Half-angle factor of the eigenvalue equation selected by parity of k.

    Odd k roots solve  cos((n+1)t/2) - a cos((n-1)t/2) = 0,
    even k roots solve sin((n+1)t/2) - a sin((n-1)t/2) = 0.
    """
    return _parity(_unit_interval(alpha), n, k)[0](t)


def solve_root(alpha, n: int, k: int) -> float:
    """The k-th root t_k of the eigenvalue equation, 1-based, by scalar bisection.

    Each root is bracketed strictly between consecutive grid points x_{k-1} and x_k
    with x_j = j pi / (n+1), and located by bisection on the parity-selected
    half-angle equation, which changes sign across that interval for alpha in (0, 1);
    at x_k it takes the grid value of :func:`_parity`, which is 0 at alpha = 0, where
    the root is exactly x_k.  Bisection runs until the bracket is down to two adjacent
    floats, so that its midpoint rounds to an endpoint, and returns that midpoint; the
    parity and eigenvalue-equation residuals are verified afterwards.
    """
    a = _unit_interval(alpha)
    n, k = int(n), int(k)
    if not 1 <= k <= n:
        raise ValueError(f"root index {k} outside 1..{n}")
    parity, at_grid = _parity(a, n, k)
    lo, hi = (k - 1) * math.pi / (n + 1), k * math.pi / (n + 1)
    f_lo, f_hi = parity(lo), at_grid(hi)
    if f_hi == 0.0:
        return hi
    if f_lo == 0.0 or (f_lo > 0.0) == (f_hi > 0.0):
        raise BracketFailureError(f"no sign change on ({lo}, {hi}] for alpha={a}, n={n}, k={k}")
    t = 0.5 * (lo + hi)
    while lo < t < hi:
        f_t = parity(t)
        if f_t == 0.0:
            return t
        if (f_t > 0.0) == (f_lo > 0.0):
            lo, f_lo = t, f_t
        else:
            hi = t
        t = 0.5 * (lo + hi)
    if abs(parity(t)) > PARITY_RESIDUAL_TOL:
        raise BracketFailureError(f"parity residual too large at t={t}")
    if abs(_equation_values(a, n, t)) > EQUATION_RESIDUAL_TOL:
        raise BracketFailureError(f"eigenvalue equation residual too large at t={t}")
    return t


@dataclass(frozen=True)
class KmsRootSystem:
    """Roots t_1 < ... < t_n in (0, pi) with their bracketing intervals."""

    alpha: float
    n: int
    roots: np.ndarray
    brackets: np.ndarray


def _equation_values(a: float, n: int, t: np.ndarray) -> np.ndarray:
    """:func:`eigenvalue_equation` for an array of t in (0, pi)."""
    numerator = np.sin((n + 1) * t) - 2.0 * a * np.sin(n * t) + a * a * np.sin((n - 1) * t)
    return numerator / np.sin(t)


def _newton_roots(a: float, n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Safeguarded Newton on the phase equation inside every bracket at once.

    The parity equation of t_k is the real (odd k) or imaginary (even k) part
    of e^{i(n+1)t/2} (1 - a e^{-it}), so t_k solves g_k(t) = (n+1) t + 2 beta(t)
    - k pi = 0 with beta = arg(1 - a e^{-it}), and g_k' = (n+1) + 2a (cos t - a)
    / |1 - a e^{-it}|^2 >= n: g_k < 0 (> 0) marks a lower (upper) end of the
    bracket, and a step leaving it becomes its midpoint.  Newton starts at the
    a = 0 roots and keeps a root after an in-bracket step <= ``NEWTON_STEP_TOL``, or
    once its bracket is that narrow (the rounding of g swamps an a below 1e-14)."""
    k_pi = np.arange(1, n + 1) * math.pi
    t = hi
    done = np.zeros(n, dtype=bool)
    for _ in range(MAX_NEWTON_STEPS):
        # 1 - a cos t = (1 - a) + v with v = 2a sin^2(t/2), free of cancellation as a -> 1
        v = 2.0 * a * np.sin(0.5 * t) ** 2
        g = (n + 1) * t + 2.0 * np.arctan2(a * np.sin(t), (1.0 - a) + v) - k_pi
        step = g / ((n + 1) + 2.0 * (a * (1.0 - a) - v) / ((1.0 - a) ** 2 + 2.0 * v))
        lo, hi = np.where(g < 0.0, t, lo), np.where(g > 0.0, t, hi)
        t_new = t - step
        newton = (lo <= t_new) & (t_new <= hi)
        t = np.where(done, t, np.where(newton, t_new, 0.5 * (lo + hi)))
        done |= np.where(newton, np.abs(step), hi - lo) <= NEWTON_STEP_TOL
        if np.count_nonzero(done) == n:
            return t
    raise BracketFailureError(f"Newton did not converge for alpha={a}, n={n}")


def kms_root_system(alpha, n: int) -> KmsRootSystem:
    """All n roots of the eigenvalue equation, solved together.

    Root t_k lies in (x_{k-1}, x_k] with x_j = j pi / (n+1); at alpha = 0 it is
    exactly x_k.  Otherwise it is located by safeguarded Newton on the phase equation
    (:func:`_newton_roots`) and certified by a sign change of the parity equation
    (at x_k its grid value) across a sub-bracket of width at most ``BISECTION_WIDTH``
    around it, then checked against the parity and eigenvalue-equation residual
    tolerances, as :func:`solve_root` does.
    """
    a = _unit_interval(alpha)
    n = int(n)
    if n < 1:
        raise ValueError("dimension must be positive")
    grid = np.arange(n + 1) * math.pi / (n + 1)
    lo, hi = grid[:-1], grid[1:]
    brackets = np.column_stack([lo, hi])
    if a == 0.0:
        return KmsRootSystem(alpha=a, n=n, roots=hi.copy(), brackets=brackets)
    roots = _newton_roots(a, n, lo, hi)
    half = 0.5 * BISECTION_WIDTH
    ends = np.array([np.maximum(roots - half, lo), np.minimum(roots + half, hi), roots])
    parity, at_grid = _parity(a, n, np.arange(1, n + 1))
    f_left, f_right, f_root = parity(ends)
    reached = ends[1] == hi
    if np.count_nonzero(reached):
        f_right[reached] = at_grid(hi)[reached]
    for ok, failure in (
        (np.sign(f_left) != np.sign(f_right), f"no sign change within {BISECTION_WIDTH}"),
        (np.abs(f_root) <= PARITY_RESIDUAL_TOL, "parity residual too large"),
        (np.abs(_equation_values(a, n, roots)) <= EQUATION_RESIDUAL_TOL,
         "eigenvalue equation residual too large"),
    ):
        if not ok.all():
            raise BracketFailureError(f"{failure} at t={roots[int(np.argmin(ok))]}")
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
