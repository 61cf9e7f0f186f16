"""Support function, boundary parametrization and numerical radius of the
numerical range W(T) of a square complex matrix."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg

DEFAULT_RADIUS_GRID = 256
DEFAULT_BOUNDARY_GRID = 2048
MIN_GRID = 64  # smallest grid_size of boundary and numerical_radius
# Matrix entries per stacked eigensolve; bounds the memory of support_sweep.
ENTRIES = 4096
_STRIDE = 8  # grid cells per arc of the coarse radius sweep: pi/4 at most, as N >= MIN_GRID
_GAIN_TOL = 4.0 * np.finfo(np.float64).eps  # relative gain below which the radius refinement stops


def rotated_real_part(t, theta: float) -> np.ndarray:
    """Re(e^{-i theta} T), Hermitian by construction."""
    m = linalg.as_square(t)
    w = complex(math.cos(theta), -math.sin(theta))
    return 0.5 * (w * m + (w * m).conj().T)


def _hermitian_parts(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Re T and Im T: Re(e^{-i theta} T) = cos(theta) Re T + sin(theta) Im T
    return 0.5 * (m + m.conj().T), -0.5j * (m - m.conj().T)


def _spectrum_ends(re_t, im_t, thetas) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest eigenvalue of Re(e^{-i theta} T) at each angle of
    ``thetas``, from one ``eigvalsh`` call per stacked block of ``ENTRIES``
    entries."""
    thetas = np.asarray(thetas, dtype=np.float64).reshape(-1)
    cos_t = np.cos(thetas)[:, None, None]
    sin_t = np.sin(thetas)[:, None, None]
    block = max(1, ENTRIES // re_t.size)
    bottom, top = np.empty(len(thetas)), np.empty(len(thetas))
    for i in range(0, len(thetas), block):
        stack = cos_t[i : i + block] * re_t + sin_t[i : i + block] * im_t
        vals = np.linalg.eigvalsh(stack)
        bottom[i : i + block], top[i : i + block] = vals[:, 0], vals[:, -1]
    return bottom, top


def support_sweep(t, thetas) -> np.ndarray:
    """Largest eigenvalue of Re(e^{-i theta} T) at each angle of ``thetas``,
    from one ``eigvalsh`` call per stacked block of ``ENTRIES`` entries."""
    return _spectrum_ends(*_hermitian_parts(linalg.as_square(t)), thetas)[1]


def _uniform_support(re_t, im_t, grid_size) -> tuple[np.ndarray, np.ndarray]:
    """Angles theta_k = 2 pi k / N and the support function there, for an
    even N of at least ``MIN_GRID``, from N/2 eigensolves.

    Re(e^{-i(theta + pi)} T) = -Re(e^{-i theta} T), so the largest eigenvalue
    at theta_{k + N/2} = theta_k + pi is minus the smallest one at theta_k:
    one sweep over the first half of the grid gives both halves.
    """
    thetas = _grid(grid_size)[0]
    bottom, top = _spectrum_ends(re_t, im_t, thetas[: len(thetas) // 2])
    return thetas, np.concatenate([top, -bottom])


@functools.lru_cache(maxsize=8)
def _grid(grid_size):
    """Read-only constants of an even grid of N >= ``MIN_GRID`` angles: theta_k =
    2 pi k / N and, for :func:`_pruned_support`, the coarse and the other indices
    (rows k and k + N/2, k < N/2), the arcs of the latter and cos, sin of half widths."""
    n = int(grid_size)
    if n < MIN_GRID:
        raise ValueError(f"grid_size must be at least {MIN_GRID}")
    if n % 2:
        raise ValueError(f"grid_size must be even, got {n}")
    coarse = np.arange(0, n // 2, _STRIDE) + [[0], [n // 2]]
    inner = np.flatnonzero(np.arange(n // 2) % _STRIDE) + [[0], [n // 2]]
    ends = coarse.ravel()  # in order: arc j runs from ends[j] to ends[j + 1], the last to N
    s = math.pi / n * np.diff(ends, append=n)
    arcs = np.searchsorted(ends, inner, side="right") - 1
    consts = (2.0 * math.pi * np.arange(n) / n, coarse, inner, arcs, np.cos(s), np.sin(s))
    for a in consts:
        a.flags.writeable = False
    return consts


def _wedge_bound(h_a, h_b, cos_s, sin_s):
    """Bound on the support function over an arc [c - s, c + s], 0 < s < pi/2,
    from its values h_a and h_b at the ends, whose supporting lines meet at
    e^{ic}(x + iy), x = (h_a + h_b) / (2 cos s), y = (h_b - h_a) / (2 sin s).
    W(T) lies in their wedge (Uhlig 2009, Numer. Algorithms 52), so the bound
    is |x + iy| if |y| <= x tan s (apex in the arc), else max(h_a, h_b)."""
    x, y = (h_a + h_b) / (2.0 * cos_s), (h_b - h_a) / (2.0 * sin_s)
    apex_in_arc = np.abs(y) * cos_s <= x * sin_s
    return np.where(apex_in_arc, np.hypot(x, y), np.maximum(h_a, h_b))


def _pruned_support(re_t, im_t, grid_size) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_uniform_support` at every ``_STRIDE``-th angle and in the arcs
    between them whose :func:`_wedge_bound` reaches the largest of those values
    less 1e-12 max(1, |largest|), far above ``eigvalsh`` rounding; -inf elsewhere."""
    thetas, coarse, inner, arcs, cos_s, sin_s = _grid(grid_size)
    support = np.full(len(thetas), -np.inf)
    bottom, top = _spectrum_ends(re_t, im_t, thetas[coarse[0]])
    support[coarse] = top, -bottom
    h_a = support[coarse].ravel()
    bound, best = _wedge_bound(h_a, np.roll(h_a, -1), cos_s, sin_s), float(np.max(h_a))
    idx = inner[:, (bound >= best - 1e-12 * max(1.0, abs(best)))[arcs].any(axis=0)]
    bottom, top = _spectrum_ends(re_t, im_t, thetas[idx[0]])
    support[idx] = top, -bottom
    return thetas, support


def support_function(t, theta: float) -> float:
    """Largest eigenvalue of Re(e^{-i theta} T): the signed distance from
    the origin to the supporting line of W(T) with outward direction theta."""
    return float(support_sweep(t, [theta])[0])


@dataclass(frozen=True)
class BoundarySample:
    """Boundary of W(T) parametrized by the supporting-line angle.

    ``points[i]`` is the complex point x + iy at ``thetas[i]``; the chord
    identity x cos(theta) + y sin(theta) = support holds at every grid point
    by construction.
    """

    thetas: np.ndarray
    support: np.ndarray
    points: np.ndarray


def boundary(t, grid_size: int = DEFAULT_BOUNDARY_GRID) -> BoundarySample:
    """Sample the boundary of W(T) on a uniform grid of ``grid_size`` angles
    theta_k = 2 pi k / N.  N must be even and at least ``MIN_GRID``:
    the support function comes from N/2 eigensolves, the largest eigenvalue
    at theta_k and minus the smallest at theta_k + pi (:func:`_uniform_support`).

    Boundary points come from the envelope of supporting lines,
    x = s cos(theta) - s' sin(theta), y = s sin(theta) + s' cos(theta),
    with s' obtained by periodic central differences (O(h^2) accurate; the
    support function is differentiable for the rank-one-defect class this
    package targets).  Corner points of degenerate ranges, such as those
    of normal matrices, are still emitted but s' is only a subgradient
    there.
    """
    m = linalg.as_square(t)
    thetas, support = _uniform_support(*_hermitian_parts(m), grid_size)
    h = 2.0 * math.pi / len(thetas)
    lam_p = (np.roll(support, -1) - np.roll(support, 1)) / (2.0 * h)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    x = support * cos_t - lam_p * sin_t
    y = support * sin_t + lam_p * cos_t
    return BoundarySample(thetas=thetas, support=support, points=x + 1j * y)


def _top_slopes(re_t, im_t, thetas) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalue of Re(e^{-i theta} T) at each angle of ``thetas``
    and its slope v* Im(e^{-i theta} T) v, v the top eigenvector, from one
    stacked ``eigh``."""
    thetas = np.asarray(thetas, dtype=np.float64).reshape(-1)
    cos_t = np.cos(thetas)[:, None, None]
    sin_t = np.sin(thetas)[:, None, None]
    vals, vecs = np.linalg.eigh(cos_t * re_t + sin_t * im_t)
    top = vecs[:, :, -1]
    slopes = np.einsum("ki,kij,kj->k", top.conj(), cos_t * im_t - sin_t * re_t, top).real
    return vals[:, -1], slopes


def numerical_radius(t, grid_size: int = DEFAULT_RADIUS_GRID) -> float:
    """Numerical radius of T, the maximum of the support function over the
    angle (lambda_min(theta) = -lambda_max(theta + pi)).

    The best angle x of a uniform grid of ``grid_size`` angles, the one of
    the full sweep, comes from the angles that a wedge bound cannot rule out
    (:func:`_pruned_support`).  One stacked ``eigh`` gives the support
    function and its slope at x - h, x and x + h (:func:`_top_slopes`).  When
    the outer slopes bracket a maximum, the bracket is cut at x and regula
    falsi (Illinois safeguard) refines the root of the slope, one ``eigh``
    per step, until |slope| times the width of the bracket left, which bounds
    the gain still possible where the support function is concave, is at
    most ``_GAIN_TOL * max(1, best)``, or the iterate leaves the open bracket.
    When they do not (a plateau or a kink) the grid maximum is returned; the
    result is never below the grid maximum.

    Parameters
    ----------
    t : array_like
        Square complex matrix.
    grid_size : int
        Number of grid angles, even and at least ``MIN_GRID``.
    """
    re_t, im_t = _hermitian_parts(linalg.as_square(t))
    thetas, support = _pruned_support(re_t, im_t, grid_size)
    k = int(np.argmax(support))
    best, x, h = float(support[k]), float(thetas[k]), 2.0 * math.pi / len(thetas)
    lo, hi = x - h, x + h
    (_, lam, _), (slope_lo, slope, slope_hi) = _top_slopes(re_t, im_t, [lo, x, hi])
    if not slope_lo > 0.0 > slope_hi:
        return best
    moved = 0  # +1 after lo moved, -1 after hi moved
    while True:
        best = max(best, float(lam))
        if slope > 0.0:
            if moved == 1:  # Illinois: the same end moved twice
                slope_hi *= 0.5
            lo, slope_lo, moved = x, slope, 1
        else:
            if moved == -1:
                slope_lo *= 0.5
            hi, slope_hi, moved = x, slope, -1
        if abs(slope) * (hi - lo) <= _GAIN_TOL * max(1.0, best):
            return best
        x = lo + slope_lo * (hi - lo) / (slope_lo - slope_hi)
        if not lo < x < hi:
            return best
        (lam,), (slope,) = _top_slopes(re_t, im_t, [x])
