"""Numerical radius formulas for model operators of single-zero Blaschke
products: the root-based formula valid for every degree, the closed forms
for degrees 2, 3 and 4, and the equivalent Poisson-kernel restatement."""

from __future__ import annotations

import math

from .blaschke import _in_disc, poisson_kernel, real_part_symbol
from .errors import AlphaOutOfRangeError, UnsupportedDegreeError
from .kms import solve_root

POISSON_FORM_MIN_ALPHA = 1e-5


def radius_single_zero(alpha, n: int) -> float:
    """Numerical radius of the degree-n model operator with one zero.

    Depends only on |alpha|.  Equals minus the real-part symbol at the
    last root of the eigenvalue equation,

        (2|a| - (1 + |a|^2) cos t_n) / (1 - 2|a| cos t_n + |a|^2),

    and reduces to cos(pi/(n+1)) at alpha = 0.
    """
    a = abs(_in_disc(alpha))
    n = int(n)
    if n < 1:
        raise ValueError("degree must be positive")
    if a == 0.0:
        return math.cos(math.pi / (n + 1))
    return -real_part_symbol(a, solve_root(a, n, n))


def radius_poisson_form(alpha, n: int) -> float:
    """Equivalent restatement of :func:`radius_single_zero` through the Poisson kernel,
    kept as a separate code path for cross-checking.  It divides an O(a) difference by
    2a, a = |alpha|, so it raises :class:`AlphaOutOfRangeError` for 0 < a below
    ``POISSON_FORM_MIN_ALPHA``; at the bound it errs by up to 8.4e-12 over n <= 1000."""
    a = abs(_in_disc(alpha))
    n = int(n)
    if n < 1:
        raise ValueError("degree must be positive")
    if a == 0.0:
        return math.cos(math.pi / (n + 1))
    if a < POISSON_FORM_MIN_ALPHA:
        raise AlphaOutOfRangeError(f"need |alpha| = 0 or >= {POISSON_FORM_MIN_ALPHA}, got {a}")
    t = solve_root(a, n, n)
    return (1.0 - a * a) / (2.0 * a) * ((1.0 + a * a) / (1.0 - a * a) - poisson_kernel(a, t))


def radius_closed_form(alpha, n: int) -> float:
    """Closed-form radius for degrees 2, 3 and 4.

    n = 2:  (1 + 2a - a^2) / 2
    n = 3:  (7a - a^3 + (1 + a^2) sqrt(a^2 + 8))
            / (4 + 2a^2 + 2a sqrt(a^2 + 8))
    n = 4:  (-a^3 + a^2 + 7a + 1 + (1 + a^2) sqrt(a^2 + 2a + 5))
            / (2a^2 + 2a + 4 + 2a sqrt(a^2 + 2a + 5))

    with a = |alpha|.  These share no subexpressions with the root-based
    path, so agreement between the two is a meaningful check.
    """
    a = abs(_in_disc(alpha))
    n = int(n)
    if n == 2:
        return (1.0 + 2.0 * a - a * a) / 2.0
    if n == 3:
        s = math.sqrt(a * a + 8.0)
        return (7.0 * a - a**3 + (1.0 + a * a) * s) / (4.0 + 2.0 * a * a + 2.0 * a * s)
    if n == 4:
        s = math.sqrt(a * a + 2.0 * a + 5.0)
        return (-(a**3) + a * a + 7.0 * a + 1.0 + (1.0 + a * a) * s) / (
            2.0 * a * a + 2.0 * a + 4.0 + 2.0 * a * s
        )
    raise UnsupportedDegreeError(f"closed forms exist for degrees 2, 3, 4 only, got {n}")
