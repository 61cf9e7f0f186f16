"""Support function, boundary parametrization and numerical radius of the
numerical range W(T) of a square complex matrix."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg

DEFAULT_RADIUS_GRID = 256
DEFAULT_BOUNDARY_GRID = 2048
DEFAULT_REFINE_TOL = 1e-12
MIN_RADIUS_GRID = 64
MIN_BOUNDARY_GRID = 8
# Matrix entries per stacked eigensolve; bounds the memory of support_sweep.
ENTRIES = 4096
_NEWTON_GAP = 1e-9  # relative top-eigenvalue gap below which the radius refinement bisects


def rotated_real_part(t, theta: float) -> np.ndarray:
    """Re(e^{-i theta} T), Hermitian by construction."""
    m = linalg.as_square(t)
    w = complex(math.cos(theta), -math.sin(theta))
    return 0.5 * (w * m + (w * m).conj().T)


def _hermitian_parts(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Re T and Im T: Re(e^{-i theta} T) = cos(theta) Re T + sin(theta) Im T
    return 0.5 * (m + m.conj().T), -0.5j * (m - m.conj().T)


def support_sweep(t, thetas) -> np.ndarray:
    """Largest eigenvalue of Re(e^{-i theta} T) at each angle of ``thetas``,
    from one ``eigvalsh`` call per stacked block of ``ENTRIES`` entries."""
    re_t, im_t = _hermitian_parts(linalg.as_square(t))
    thetas = np.asarray(thetas, dtype=np.float64).reshape(-1)
    cos_t = np.cos(thetas)[:, None, None]
    sin_t = np.sin(thetas)[:, None, None]
    block = max(1, ENTRIES // re_t.size)
    out = np.empty(len(thetas))
    for i in range(0, len(thetas), block):
        stack = cos_t[i : i + block] * re_t + sin_t[i : i + block] * im_t
        out[i : i + block] = np.linalg.eigvalsh(stack)[:, -1]
    return out


def support_function(t, theta: float) -> float:
    """Largest eigenvalue of Re(e^{-i theta} T): the signed distance from
    the origin to the supporting line of W(T) with outward direction theta."""
    return float(support_sweep(t, [theta])[0])


@dataclass(frozen=True)
class BoundarySample:
    """Boundary of W(T) parametrized by the supporting-line angle.

    ``points[i]`` is (x, y) at ``thetas[i]``; the chord identity
    x cos(theta) + y sin(theta) = support holds at every grid point by
    construction.  ``lambda_prime`` holds central-difference derivatives
    of the support function.
    """

    thetas: np.ndarray
    support: np.ndarray
    lambda_prime: np.ndarray
    points: np.ndarray

    def points_complex(self) -> np.ndarray:
        return self.points[:, 0] + 1j * self.points[:, 1]

    def radii(self) -> np.ndarray:
        return np.hypot(self.points[:, 0], self.points[:, 1])


def boundary(t, grid_size: int = DEFAULT_BOUNDARY_GRID) -> BoundarySample:
    """Sample the boundary of W(T) on a uniform angle grid.

    Boundary points come from the envelope of supporting lines,
    x = s cos(theta) - s' sin(theta), y = s sin(theta) + s' cos(theta),
    with s' obtained by periodic central differences (O(h^2) accurate; the
    support function is differentiable for the rank-one-defect class this
    package targets).  Corner points of degenerate ranges, such as those
    of normal matrices, are still emitted but s' is only a subgradient
    there.
    """
    m = linalg.as_square(t)
    grid_size = int(grid_size)
    if grid_size < MIN_BOUNDARY_GRID:
        raise ValueError(f"grid_size must be at least {MIN_BOUNDARY_GRID}")
    thetas = 2.0 * math.pi * np.arange(grid_size) / grid_size
    support = support_sweep(m, thetas)
    h = 2.0 * math.pi / grid_size
    lam_p = (np.roll(support, -1) - np.roll(support, 1)) / (2.0 * h)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    x = support * cos_t - lam_p * sin_t
    y = support * sin_t + lam_p * cos_t
    return BoundarySample(
        thetas=thetas,
        support=support,
        lambda_prime=lam_p,
        points=np.column_stack([x, y]),
    )


def _support_derivatives(re_t, im_t, theta: float) -> tuple[float, float, float]:
    """Support function and its first two theta-derivatives from one eigh;
    the second is +inf where a nearly multiple top eigenvalue breaks it."""
    c, s = math.cos(theta), math.sin(theta)
    vals, vecs = np.linalg.eigh(c * re_t + s * im_t)
    lam = float(vals[-1])
    # v_j* Im(e^{-i theta} T) v_top; Im(e^{-i theta} T) is the derivative
    coupling = vecs.conj().T @ ((c * im_t - s * re_t) @ vecs[:, -1])
    slope = float(coupling[-1].real)
    gaps = lam - vals[:-1]
    if np.any(gaps < _NEWTON_GAP * max(1.0, abs(lam))):
        return lam, slope, math.inf
    return lam, slope, -lam + 2.0 * float(np.sum(np.abs(coupling[:-1]) ** 2 / gaps))


def numerical_radius(
    t,
    grid_size: int = DEFAULT_RADIUS_GRID,
    refine_tol: float = DEFAULT_REFINE_TOL,
) -> float:
    """Numerical radius of T, the maximum of the support function over the
    angle (lambda_min(theta) = -lambda_max(theta + pi)).

    One :func:`support_sweep` over a uniform grid locates the best cell and
    safeguarded Newton on lambda' refines it, bisecting when the curvature
    is not negative, the step leaves the bracket or the top eigenvalue is
    nearly multiple.  When the cell's end slopes do not bracket a maximum
    (a plateau or a kink) the grid maximum is returned; the result is never
    below the grid maximum.

    Parameters
    ----------
    t : array_like
        Square complex matrix.
    grid_size : int
        Number of coarse angles, at least ``MIN_RADIUS_GRID``.
    refine_tol : float
        Angle tolerance of the Newton bracket and step.
    """
    m = linalg.as_square(t)
    grid_size = int(grid_size)
    if grid_size < MIN_RADIUS_GRID:
        raise ValueError(f"grid_size must be at least {MIN_RADIUS_GRID}")
    thetas = 2.0 * math.pi * np.arange(grid_size) / grid_size
    support = support_sweep(m, thetas)
    k = int(np.argmax(support))
    best, x, h = float(support[k]), float(thetas[k]), 2.0 * math.pi / grid_size
    lo, hi = x - h, x + h
    re_t, im_t = _hermitian_parts(m)
    if not _support_derivatives(re_t, im_t, lo)[1] > 0.0 > _support_derivatives(re_t, im_t, hi)[1]:
        return best
    while hi - lo > refine_tol and lo < x < hi:
        lam, slope, curv = _support_derivatives(re_t, im_t, x)
        best = max(best, lam)
        if slope == 0.0:
            break
        lo, hi = (x, hi) if slope > 0.0 else (lo, x)
        newton = x - slope / curv if curv < 0.0 else math.nan
        if abs(newton - x) <= refine_tol:
            break
        x = newton if lo < newton < hi else 0.5 * (lo + hi)
    return best
