"""Support function, boundary parametrization and numerical radius of the
numerical range W(T) of a square complex matrix."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg

DEFAULT_BOUNDARY_GRID = 2048
MIN_GRID = 64  # smallest grid_size of boundary
# Matrix entries per stacked eigensolve; bounds the memory of support_sweep.
ENTRIES = 4096
_SEED = 16  # angles of the sweep that seeds the radius search
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
    even N, from N/2 eigensolves.

    Re(e^{-i(theta + pi)} T) = -Re(e^{-i theta} T), so the largest eigenvalue
    at theta_{k + N/2} = theta_k + pi is minus the smallest one at theta_k:
    one sweep over the first half of the grid gives both halves.
    """
    thetas = 2.0 * math.pi * np.arange(grid_size) / grid_size
    bottom, top = _spectrum_ends(re_t, im_t, thetas[: grid_size // 2])
    return thetas, np.concatenate([top, -bottom])


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
    if grid_size < MIN_GRID:
        raise ValueError(f"grid_size must be at least {MIN_GRID}")
    if grid_size % 2:
        raise ValueError(f"grid_size must be even, got {grid_size}")
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


def _refine(re_t, im_t, lo, x, hi, best) -> float:
    """Largest support value found by refining from x in the bracket [lo, hi],
    and at least ``best``.

    One stacked ``eigh`` gives the support function and its slope at lo, x
    and hi (:func:`_top_slopes`).  When the outer slopes bracket a maximum,
    the bracket is cut at x and regula falsi (Illinois safeguard) refines the
    root of the slope, one ``eigh`` per step, until |slope| times the width of
    the bracket left, which bounds the gain still possible where the support
    function is concave, is at most ``_GAIN_TOL * max(1, best)``, or the
    iterate leaves the open bracket.  When they do not (a plateau or a kink)
    ``best`` is returned.
    """
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


def _level_crossings(re_t, im_t, phi0, u) -> np.ndarray:
    """Angles theta at which u is an eigenvalue of Re(e^{-i theta} T), for a
    level u at which P + uI is positive definite, P = Re(e^{-i phi0} T).

    With Q = Re(e^{-i(phi0 + pi/2)} T) and t = tan((theta - phi0) / 2),
    det(Re(e^{-i theta} T) - uI) vanishes where det(t^2 (P + uI) - 2tQ - (P - uI))
    does (He & Watson 1997, IMA J. Numer. Anal. 17).  With P + uI = CC* and
    Y = C^{-1} its roots t are the eigenvalues of [[0, I], [I - 2uYY*, 2YQY*]];
    the real ones, to 1e-8 relative, give the angles.  The tolerance errs
    loose: a spurious angle only costs the caller one more sample.
    """
    c, s, n = math.cos(phi0), math.sin(phi0), len(re_t)
    eye = np.eye(n)
    y = np.linalg.inv(np.linalg.cholesky(c * re_t + s * im_t + u * eye))
    yh = y.conj().T
    companion = np.zeros((2 * n, 2 * n), dtype=complex)
    companion[:n, n:], companion[n:, :n] = eye, eye - 2.0 * u * (y @ yh)
    companion[n:, n:] = 2.0 * (y @ (c * im_t - s * re_t) @ yh)
    roots = np.linalg.eigvals(companion)
    real = roots.real[np.abs(roots.imag) <= 1e-8 * np.maximum(1.0, np.abs(roots))]
    return phi0 + 2.0 * np.arctan(real)


def numerical_radius(t) -> float:
    """Numerical radius of T, the maximum of the support function over the
    angle (lambda_min(theta) = -lambda_max(theta + pi)).

    A sweep of ``_SEED`` uniform angles seeds the search, and :func:`_refine`
    climbs from the best of them within one grid spacing.  Then a level-set
    test (Mengi & Overton 2005, IMA J. Numer. Anal. 25) asks whether any angle
    reaches the level best + 1e-12 max(1, best): :func:`_level_crossings`
    cuts the circle into arcs on which the support function stays on one
    side of the level.  If there are none, or no arc midpoint exceeds the
    level, the best value is returned; else :func:`_refine` climbs in the arc
    of the highest midpoint and the test repeats at a higher level.

    The test runs at phi0 = pi plus the seed angle of the smallest support
    value, so that P + uI is positive definite for every level u above it.
    A failed Cholesky factorization propagates as ``LinAlgError``: it is not
    read as "no crossing".
    """
    re_t, im_t = _hermitian_parts(linalg.as_square(t))
    thetas, support = _uniform_support(re_t, im_t, _SEED)
    k, h = int(np.argmax(support)), 2.0 * math.pi / _SEED
    best = _refine(re_t, im_t, thetas[k] - h, thetas[k], thetas[k] + h, float(support[k]))
    phi0 = float(thetas[np.argmin(support)]) + math.pi
    while True:
        level = best + 1e-12 * max(1.0, best)
        ends = np.sort(_level_crossings(re_t, im_t, phi0, level) % (2.0 * math.pi))
        if not len(ends):
            return best
        ends = np.append(ends, ends[0] + 2.0 * math.pi)
        mids = 0.5 * (ends[:-1] + ends[1:])
        values = _spectrum_ends(re_t, im_t, mids)[1]
        j = int(np.argmax(values))
        if values[j] <= level:
            return best
        best = _refine(re_t, im_t, ends[j], mids[j], ends[j + 1], float(values[j]))
