import cmath
import math

import numpy as np
import pytest

from numrange.blaschke import BlaschkeProduct
from numrange.inequalities import (
    AnalyticSelfMap,
    polynomial_apply,
    random_nilpotent_contraction,
    schwarz_pick_transform,
)
from numrange.linalg import hermitian_eig, spectral_norm
from numrange.model_operator import (
    compress_shift_adjoint,
    shift_adjoint_matrix,
    shift_matrix,
    single_zero_matrix,
)
from numrange.numerical_range import (
    _hermitian_parts,
    _level_crossings,
    _top_slopes,
    _uniform_support,
    boundary,
    numerical_radius,
    rotated_real_part,
    support_function,
    support_sweep,
)
from numrange.verify import SELF_MAPS


def random_product(rng, max_degree=5, max_mod=0.8):
    total = int(rng.integers(2, max_degree + 1))
    factors = []
    while total > 0:
        mult = int(rng.integers(1, total + 1))
        z = max_mod * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        factors.append((z, mult))
        total -= mult
    return BlaschkeProduct(tuple(factors))


def test_support_of_identity_is_cosine():
    for theta in (0.0, 0.7, 2.0, 5.0):
        assert abs(support_function(np.eye(3), theta) - math.cos(theta)) < 1e-12


def test_support_of_zero_matrix():
    assert abs(support_function(np.zeros((3, 3)), 1.0)) < 1e-14


def test_support_of_shift_at_zero_angle():
    for n in (2, 4, 7):
        expected = math.cos(math.pi / (n + 1))
        assert abs(support_function(shift_matrix(n), 0.0) - expected) < 1e-12


def test_support_of_normal_matrix_is_abs_cosine():
    t = np.diag([1.0, -1.0]).astype(complex)
    for theta in (0.0, 0.5, 1.8, 3.0):
        assert abs(support_function(t, theta) - abs(math.cos(theta))) < 1e-12


def test_support_matches_hermitian_eig_route():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    for theta in (0.2, 1.1, 4.0):
        top = hermitian_eig(rotated_real_part(a, theta)).values[-1]
        assert abs(support_function(a, theta) - top) < 1e-12


def test_boundary_of_jordan_block_is_circle():
    sample = boundary(shift_matrix(2), 512)
    assert np.max(np.abs(np.hypot(sample.points.real, sample.points.imag) - 0.5)) < 1e-9


def test_boundary_envelope_identity():
    sample = boundary(single_zero_matrix(0.5, 3).matrix, 256)
    lhs = sample.points.real * np.cos(sample.thetas) + sample.points.imag * np.sin(sample.thetas)
    assert np.max(np.abs(lhs - sample.support)) < 1e-6


def test_boundary_of_normal_matrix_degenerates_to_segment():
    sample = boundary(np.diag([1.0, -1.0]).astype(complex), 1024)
    assert np.max(np.abs(sample.points.imag)) < 1e-2
    assert np.max(np.abs(sample.support - np.abs(np.cos(sample.thetas)))) < 1e-10


def test_boundary_points_inside_disc_for_contractions():
    rng = np.random.default_rng(5)
    for _ in range(5):
        op = compress_shift_adjoint(random_product(rng))
        sample = boundary(op.matrix, 2048)
        assert np.max(np.hypot(sample.points.real, sample.points.imag)) <= 1.0 + 1e-4


def test_boundary_grid_guard():
    with pytest.raises(ValueError):
        boundary(np.eye(2), 4)
    with pytest.raises(ValueError, match="at least 64"):
        boundary(np.eye(2), 32)
    with pytest.raises(ValueError, match="even"):
        boundary(np.eye(2), 2047)


def test_radius_of_shift_closed_value():
    for n in range(1, 13):
        assert abs(numerical_radius(shift_matrix(n)) - math.cos(math.pi / (n + 1))) < 1e-10


def test_radius_of_identity():
    assert abs(numerical_radius(np.eye(3)) - 1.0) < 1e-12


def test_radius_of_single_zero_degree_two():
    assert abs(numerical_radius(single_zero_matrix(0.5, 2).matrix) - 0.875) < 1e-10


def test_radius_result_at_least_grid_max():
    m = single_zero_matrix(0.3 + 0.4j, 5).matrix
    r = numerical_radius(m)
    grid = max(
        max(abs(v) for v in np.linalg.eigvalsh(rotated_real_part(m, th)))
        for th in 2 * math.pi * np.arange(64) / 64
    )
    assert r >= grid - 1e-15


def random_unitary(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]


def test_radius_adjoint_reflection():
    # W(T*) is the mirror image of W(T) and W(T^T) = W(T): same radius
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a /= spectral_norm(a)
        r = numerical_radius(a)
        assert abs(r - numerical_radius(a.conj().T)) < 1e-10
        assert abs(r - numerical_radius(a.T)) < 1e-10


def test_radius_rotation_covariance():
    # w(e^{i gamma} T) = w(T) and w(U* T U) = w(T) for a unitary U
    rng = np.random.default_rng(13)
    unitaries = np.random.default_rng(23)
    for gamma in (0.3, 1.9, 4.4) + tuple(2 * math.pi * np.arange(1, 18) / 18):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a /= spectral_norm(a)
        u = random_unitary(unitaries, n)
        r = numerical_radius(a)
        assert abs(numerical_radius(np.exp(1j * gamma) * a) - r) < 1e-10
        assert abs(numerical_radius(u.conj().T @ a @ u) - r) < 1e-10


def test_radius_backends_agree_on_model_operators():
    # lambda_min(theta) = -lambda_max(theta + pi): the radius needs only the support function
    rng = np.random.default_rng(17)
    for _ in range(6):
        m = compress_shift_adjoint(random_product(rng)).matrix
        for theta in 2 * math.pi * rng.random(4):
            bottom = hermitian_eig(rotated_real_part(m, theta)).values[0]
            assert abs(-bottom - support_function(m, theta + math.pi)) < 1e-12


@pytest.mark.parametrize("n, grid", [(3, 1000), (1, 37), (64, 5)])
def test_support_sweep_matches_per_angle_eigvalsh(n, grid):
    # grid 1000 is not a multiple of the n = 3 block; n = 64 has a block of one
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a /= spectral_norm(a)
    thetas = 2 * math.pi * rng.random(grid)
    expected = [np.linalg.eigvalsh(rotated_real_part(a, th))[-1] for th in thetas]
    assert np.max(np.abs(support_sweep(a, thetas) - expected)) < 1e-13


@pytest.mark.parametrize("n, grid", [(1, 2048), (3, 2048), (64, 64)])
def test_uniform_support_matches_support_sweep(n, grid):
    # n = 3 needs several stacked blocks for 1024 angles; n = 64 has a block of one
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a /= spectral_norm(a)
    thetas, support = _uniform_support(*_hermitian_parts(a), grid)
    assert np.array_equal(thetas, 2 * math.pi * np.arange(grid) / grid)
    assert np.max(np.abs(support - support_sweep(a, thetas))) < 1e-13


def _radius_inputs():
    rng = np.random.default_rng(41)
    mats = [np.zeros((1, 1)), np.zeros((4, 4))]
    for n in range(1, 14):
        mats += [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2)]
    for n in (1, 2, 5, 9):
        mats.append(shift_matrix(n))
        mats.append(np.diag(np.exp(2j * math.pi * rng.random(n))))
    for n in (2, 4, 6):
        t = random_nilpotent_contraction(n, seed=n).matrix
        for _, coeffs in SELF_MAPS:
            f = AnalyticSelfMap(coeffs)
            mats.append(schwarz_pick_transform(t, f, 0.3 - 0.5j))
            mats.append(polynomial_apply(shift_adjoint_matrix(n), f))
    return mats


def test_top_slopes_match_support_sweep():
    # eigenvalues against the eigvalsh sweep, slopes against its central differences
    rng = np.random.default_rng(31)
    step = 1e-6
    for n in (1, 2, 5, 12):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a /= spectral_norm(a)
        thetas = 2 * math.pi * rng.random(5)
        lam, slope = _top_slopes(*_hermitian_parts(a), thetas)
        diff = (support_sweep(a, thetas + step) - support_sweep(a, thetas - step)) / (2 * step)
        assert np.max(np.abs(lam - support_sweep(a, thetas))) < 1e-13
        assert np.max(np.abs(slope - diff)) < 1e-8


def test_radius_of_two_maxima_in_one_grid_cell():
    # the support function peaks twice within 2 pi / 256 of its best grid angle;
    # a refinement started from the two cell ends settles on the lower peak
    phi = BlaschkeProduct(
        (
            (-0.9426885814557996 - 0.3333740367707904j, 1),
            (-0.9523031196488188 - 0.3048258163396394j, 2),
        )
    )
    assert numerical_radius(compress_shift_adjoint(phi).matrix) >= 0.9999999950001


def _two_near_equal_peaks():
    # support peaks 1 at angle 0 and 1.00001 at 1.5 h, h = 2 pi / 256: a search that
    # refines only around the best sampled angle settles on the lower peak
    h = 2 * math.pi / 256
    return np.diag([1.0, (1 + 1e-5) * cmath.exp(1.5j * h)])


def test_radius_of_two_near_equal_peaks_one_cell_apart():
    assert abs(numerical_radius(_two_near_equal_peaks()) - 1.00001) < 1e-12


def test_radius_of_rotations_of_two_near_equal_peaks():
    # w(e^{i psi} D) = w(D): a rotation moves the peaks against the seed angles
    d = _two_near_equal_peaks()
    radii = [numerical_radius(cmath.exp(2j * math.pi * j / 97) * d) for j in range(97)]
    assert max(radii) - min(radii) < 1e-12
    assert max(abs(r - 1.00001) for r in radii) < 1e-12


@pytest.mark.parametrize(
    "zeros",
    [
        (
            (-0.9306572005971562 + 0.36561890675492226j, 1),
            (-0.9996306563748967 + 0.023206913527940146j, 1),
            (0.1617485091129636 + 0.25266068115109147j, 3),
            (-0.34733545086357265 + 0.937634307485279j, 1),
        ),
        (
            (0.045901756028380605 + 0.2964675847264099j, 2),
            (-0.7256578446028079 - 0.5323727008087539j, 2),
            (-0.019357926810018907 + 0.9997125990351516j, 1),
            (0.9962296909990276 + 0.08559446694723968j, 3),
        ),
    ],
    ids=["A", "B"],
)
def test_radius_of_peak_narrower_than_grid_spacing(zeros):
    # the peak of the support function is narrower than 2 pi / 256
    m = compress_shift_adjoint(BlaschkeProduct(zeros)).matrix
    fine = _uniform_support(*_hermitian_parts(m), 65536)[1].max()
    assert numerical_radius(m) >= fine - 1e-12


def _model_operators():
    # two products of distinct zeros with |z| <= 0.9 at each of n = 16 and n = 64
    rng = np.random.default_rng(47)
    mats = []
    for n in (16, 16, 64, 64):
        zeros = 0.9 * np.sqrt(rng.random(n)) * np.exp(2j * math.pi * rng.random(n))
        mats.append(compress_shift_adjoint(BlaschkeProduct(tuple((complex(z), 1) for z in zeros))).matrix)
    return mats


def test_radius_reaches_fine_sweep_maximum():
    # the level test finds any peak that the 16-angle seed sweep misses
    for m in _radius_inputs() + _model_operators():
        w = numerical_radius(m)
        fine = _uniform_support(*_hermitian_parts(m), 4096)[1].max()
        assert w >= fine - 1e-13 * max(1.0, w)


def test_radius_of_discs():
    # W(S_n) is a disc about 0, so P + uI is singular to within 1e-12 u at every level
    for n in range(1, 65):
        expected = math.cos(math.pi / (n + 1))
        assert abs(numerical_radius(shift_matrix(n)) - expected) < 1e-14
        assert abs(numerical_radius(1e3j * shift_matrix(n)) - 1e3 * expected) < 1e-11


def test_radius_of_degenerate_inputs():
    assert numerical_radius(np.zeros((1, 1))) == 0.0
    assert numerical_radius(np.zeros((5, 5))) == 0.0
    assert abs(numerical_radius(np.eye(4)) - 1.0) < 1e-15
    assert abs(numerical_radius(np.array([[0.3 - 0.4j]])) - 0.5) < 1e-15
    unitary = np.diag(np.exp(2j * math.pi * np.array([0.1, 0.35, 0.8])))
    assert abs(numerical_radius(unitary) - 1.0) < 1e-14


def test_level_crossings_bracket_every_sign_change():
    rng = np.random.default_rng(53)
    grid = 2 * math.pi * np.arange(4096) / 4096
    mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in range(1, 14)]
    for m in mats + _model_operators():
        parts = _hermitian_parts(m)
        support = _uniform_support(*parts, len(grid))[1]
        phi0 = grid[np.argmin(support)] + math.pi  # P + uI > 0 for u above the smallest support
        lo, hi = support.min(), support.max()
        for u in lo + (hi - lo) * np.array([0.05, 0.5, 0.95]):
            thetas = _level_crossings(*parts, phi0, u)
            for theta in thetas:
                gap = np.abs(np.linalg.eigvalsh(rotated_real_part(m, theta)) - u).min()
                assert gap <= 1e-8 * max(1.0, abs(u))
            changes = np.count_nonzero(np.diff(np.sign(np.append(support, support[0]) - u)))
            assert len(thetas) >= changes
        assert len(_level_crossings(*parts, phi0, numerical_radius(m) * (1 + 1e-9))) == 0


def test_model_operator_radius_strictly_between_polygon_floor_and_one():
    rng = np.random.default_rng(19)
    for _ in range(8):
        phi = random_product(rng)
        n = phi.degree
        r = numerical_radius(compress_shift_adjoint(phi).matrix)
        assert math.cos(math.pi / n) < r < 1.0


def test_real_part_reduction_for_negative_real_zero():
    for alpha, n in ((0.2, 3), (0.5, 5), (0.8, 8)):
        m = single_zero_matrix(-alpha, n).matrix
        r = numerical_radius(m)
        re_norm = spectral_norm(rotated_real_part(m, 0.0))
        assert abs(r - re_norm) < 1e-9


def test_real_part_maximum_attained_on_real_axis():
    for alpha, n in ((0.3, 4), (0.7, 6)):
        m = single_zero_matrix(-alpha, n).matrix

        def g(th):
            w = np.linalg.eigvalsh(rotated_real_part(m, th))
            return max(abs(w[0]), abs(w[-1]))

        grid = 2 * math.pi * np.arange(256) / 256
        vals = np.array([g(th) for th in grid])
        assert vals.max() <= max(g(0.0), g(math.pi)) + 1e-9


def test_support_shift_under_zero_rotation():
    # rotating the zero rotates the numerical range the opposite way
    alpha = 0.5 * cmath.exp(0.8j)
    m_rot = single_zero_matrix(alpha, 4).matrix
    m_abs = single_zero_matrix(abs(alpha), 4).matrix
    gamma = cmath.phase(alpha)
    for theta in np.linspace(0.0, 2 * math.pi, 37):
        lhs = support_function(m_rot, theta)
        rhs = support_function(m_abs, theta + gamma)
        assert abs(lhs - rhs) < 1e-9


def test_support_symmetric_for_real_zero():
    m = single_zero_matrix(0.6, 5).matrix
    for theta in np.linspace(0.0, math.pi, 19):
        assert abs(support_function(m, theta) - support_function(m, 2 * math.pi - theta)) < 1e-10
