import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from numrange.blaschke import BlaschkeProduct, default_truncation
from numrange.errors import CommonZeroError, NotSingleZeroError
from numrange.linalg import hermitian_eig
from numrange import subspaces, verify
from numrange.numerical_range import numerical_radius
from numrange.subspaces import (
    RadiusEstimate,
    cross_gram,
    radius_estimate,
    sin_angle_lower_bound,
    subspace_cos_angle,
    taylor_cross_gram,
)


def single(z, m=1):
    return BlaschkeProduct.single_zero(z, m)


def test_gram_of_basis_with_itself_is_identity():
    phi = BlaschkeProduct.monomial(4)
    assert np.max(np.abs(cross_gram(phi, phi) - np.eye(4))) < 1e-12


def test_gram_entry_against_kernel_formula():
    g = cross_gram(single(0.0), single(0.5))
    assert abs(g[0, 0] - math.sqrt(0.75)) < 1e-12


def test_gram_entries_obey_cauchy_schwarz():
    rng = np.random.default_rng(2)
    for _ in range(5):
        z1 = 0.7 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        z2 = 0.7 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        g = cross_gram(single(z1, 2), single(z2, 2))
        assert np.max(np.abs(g)) <= 1.0 + 1e-10


@pytest.mark.parametrize(
    "phi1, phi2",
    [
        (single(0.0), single(0.5)),
        (single(0.3 + 0.2j, 2), single(-0.4 + 0.1j)),
        (single(0.9, 4), single(-0.9 + 0.1j, 4)),
        (single(0.99, 4), single(0.99j, 2)),
    ],
)
def test_angle_gram_is_exact_and_matches_taylor(phi1, phi2):
    taylor = taylor_cross_gram(phi1, phi2)
    assert np.max(np.abs(cross_gram(phi1, phi2) - taylor)) <= 1e-14
    assert subspace_cos_angle(phi1, phi2).truncation == 0


def test_angles_path_runs_no_taylor_series(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Taylor series on the angles path")

    monkeypatch.setattr(subspaces, "takenaka_basis", refuse)
    monkeypatch.setattr(subspaces, "default_truncation", refuse)
    est = radius_estimate([single(0.9995, 2), single(-0.3 + 0.4j), single(0.2j, 3)])
    assert len(est.angles) == 3 and all(rep.truncation == 0 for rep in est.angles)


@st.composite
def products(draw):
    """Products of up to three factors, |z| <= 0.95, multiplicities up to 3,
    each factor optionally followed by a simple zero within 1e-4 of it."""
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        z = draw(st.floats(0.0, 0.95)) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
        factors.append((z, draw(st.integers(1, 3))))
        if draw(st.booleans()):
            w = z + draw(st.floats(1e-6, 1e-4)) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
            factors.append((w * min(1.0, 0.95 / abs(w)), 1))
    return BlaschkeProduct(tuple(factors))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(products(), products())
def test_stein_gram_matches_taylor(phi1, phi2):
    n_terms = default_truncation(phi1, phi2)
    assume(n_terms <= 4096)
    delta = np.max(np.abs(cross_gram(phi1, phi2) - taylor_cross_gram(phi1, phi2)))
    assert delta <= 1e-14


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from([0.0, 0.5, 0.9, 0.9999, 1 - 1e-5, 1 - 1e-6]) | st.floats(0.0, 1 - 1e-6),
    st.floats(0.0, 2 * math.pi),
    st.floats(0.0, 1 - 1e-6),
    st.floats(0.0, 2 * math.pi),
)
def test_simple_zero_gram_against_mpmath(ra, ta, rb, tb):
    a, b = ra * cmath.exp(1j * ta), rb * cmath.exp(1j * tb)
    with mpmath.workdps(30):
        ma, mb = mpmath.mpc(a), mpmath.mpc(b)
        s_a, s_b = mpmath.sqrt(1 - abs(ma) ** 2), mpmath.sqrt(1 - abs(mb) ** 2)
        exact = complex(s_a * s_b / (1 - mpmath.conj(ma) * mb))
    # first-order rounding of s_a, s_b and 1 - conj(a) b, each relative to its size
    cond = 1 / (1 - abs(a) ** 2) + 1 / (1 - abs(b) ** 2) + 1 / abs(1 - a.conjugate() * b)
    g = cross_gram(single(a), single(b))[0, 0]
    assert abs(g - exact) <= 8 * np.finfo(float).eps * cond * abs(exact)


def test_angle_between_kernel_lines():
    rep = subspace_cos_angle(single(0.0), single(0.5))
    assert abs(rep.cos_angle - math.sqrt(0.75)) < 1e-10
    assert abs(rep.sin_angle - 0.5) < 1e-10
    assert abs(rep.sin_lower_bound - 0.25) < 1e-14
    assert rep.sin_angle >= rep.sin_lower_bound


def test_angle_common_zero_rejected():
    with pytest.raises(CommonZeroError):
        subspace_cos_angle(single(0.3), single(0.3, 2))


def test_angle_opposite_zeros():
    rep = subspace_cos_angle(single(0.1), single(-0.1))
    bound = abs(0.2 / 1.01) ** 2
    assert rep.sin_angle >= bound - 1e-6
    # one-dimensional spaces: sine equals the pseudo-hyperbolic distance
    assert abs(rep.sin_angle - 0.2 / 1.01) < 1e-9


def test_sin_lower_bound_values():
    assert sin_angle_lower_bound(single(0.4), single(0.4, 3)) == 0.0
    assert abs(sin_angle_lower_bound(single(0.0), single(0.5)) - 0.25) < 1e-15
    assert abs(sin_angle_lower_bound(single(0.0, 2), single(0.5)) - 0.5**4) < 1e-15


def test_sin_lower_bound_needs_single_zero():
    two = BlaschkeProduct(((0.1, 1), (0.2, 1)))
    with pytest.raises(NotSingleZeroError):
        sin_angle_lower_bound(two, single(0.5))


def test_angle_of_a_two_zero_product_has_no_separation_bound():
    rep = subspace_cos_angle(BlaschkeProduct(((0.1, 1), (0.2, 1))), single(0.5))
    assert rep.sin_lower_bound == 0.0
    assert rep.sin_angle > 0.0


def test_sin_lower_bound_merges_factors_of_one_zero():
    split = BlaschkeProduct(((0.3, 1), (0.3, 2)))
    for other in (single(0.5), single(-0.2 + 0.4j, 2)):
        assert sin_angle_lower_bound(split, other) == sin_angle_lower_bound(single(0.3, 3), other)
        assert sin_angle_lower_bound(other, split) == sin_angle_lower_bound(other, single(0.3, 3))


@st.composite
def single_zero_factors(draw):
    """Two or three single-zero factors, |z| <= 0.95, multiplicities up to 3."""
    return [
        (draw(st.floats(0.0, 0.95)) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi))),
         draw(st.integers(1, 3)))
        for _ in range(draw(st.integers(2, 3)))
    ]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(single_zero_factors())
def test_cos_angle_dominates_kernel_cosine(factors):
    # the reproducing kernels of a and b lie in the two model spaces, so their
    # normalized inner product bounds the top cosine from below; with
    # multiplicity 1 the spaces are those kernel lines and the bound is tight
    zeros = [z for z, _ in factors]
    assume(all(abs(a - b) > 1e-9 for i, a in enumerate(zeros) for b in zeros[i + 1:]))
    est = radius_estimate([single(z, m) for z, m in factors])
    pairs = [(a, b) for i, a in enumerate(zeros) for b in zeros[i + 1:]]
    for (a, b), rep in zip(pairs, est.angles):
        kernel = math.sqrt((1 - abs(a) ** 2) * (1 - abs(b) ** 2)) / abs(1 - a.conjugate() * b)
        assert rep.cos_angle >= kernel - 1e-14


def test_sine_dominates_bound_on_random_pairs():
    rng = np.random.default_rng(5)
    for _ in range(25):
        z1 = 0.7 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        z2 = 0.7 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        if abs(z1 - z2) < 1e-6:
            continue
        n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        rep = subspace_cos_angle(single(z1, n1), single(z2, n2))
        assert rep.sin_angle >= rep.sin_lower_bound - 1e-6


def test_estimate_of_two_scalar_factors():
    est = radius_estimate([single(0.05), single(-0.05)])
    assert abs(est.delta - 0.05) < 1e-12
    assert RadiusEstimate._fields == ("rho", "delta", "angles")


def test_estimate_keeps_every_pair_angle():
    factors = [single(0.5 + 0.2j, 2), single(-0.4 + 0.1j, 3), single(0.1 - 0.6j), single(-0.2j, 2)]
    est = radius_estimate(factors)
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    assert est.angles == tuple(subspace_cos_angle(factors[i], factors[j]) for i, j in pairs)
    assert est.rho == max(rep.cos_angle for rep in est.angles)
    for (i, j), rep in zip(pairs, est.angles):
        assert rep.sin_lower_bound == sin_angle_lower_bound(factors[i], factors[j])
    assert radius_estimate(factors, rho_mode="f-proxy").angles == ()


def test_estimate_duplicate_zero_rejected():
    with pytest.raises(CommonZeroError, match="factors 0 and 1 share the zero"):
        radius_estimate([single(0.3), single(0.3, 2)])


def test_estimate_proxy_matches_two_factor_closed_form():
    phi1, phi2 = single(0.25, 2), single(-0.4)
    est = radius_estimate([phi1, phi2], rho_mode="f-proxy")
    b = sin_angle_lower_bound(phi1, phi2)
    rho = math.sqrt(1.0 - b)
    from numrange.radius import radius_single_zero

    delta = max(radius_single_zero(0.25, 2), radius_single_zero(-0.4, 1))
    assert abs(est.rho - rho) < 1e-12
    assert est.delta == delta


def test_estimate_numeric_rho_no_larger_than_proxy():
    rng = np.random.default_rng(7)
    for _ in range(10):
        z1 = 0.6 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        z2 = 0.6 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        if abs(z1 - z2) < 1e-6:
            continue
        est = radius_estimate([single(z1), single(z2)])
        proxy = radius_estimate([single(z1), single(z2)], rho_mode="f-proxy")
        assert est.rho <= proxy.rho + 1e-9


def test_pair_sum_identity():
    rng = np.random.default_rng(13)
    for _ in range(10):
        p = int(rng.integers(2, 8))
        xs = rng.standard_normal(p)
        pair_sum = sum(xs[i] + xs[j] for i in range(p) for j in range(i + 1, p))
        assert abs(pair_sum - (p - 1) * xs.sum()) < 1e-12 * max(1.0, abs(xs.sum()) * p)


def test_hollow_ones_matrix_spectrum():
    for n in (2, 5, 9):
        b = np.ones((n, n)) - np.eye(n)
        vals = hermitian_eig(b).values
        assert np.max(np.abs(vals[:-1] + 1.0)) < 1e-10
        assert abs(vals[-1] - (n - 1)) < 1e-10


def test_bound_matrix_radius_identity():
    # radius of delta I + rho (ones - I) is delta + rho (p - 1)
    for p, rho, delta in ((3, 0.1, 0.5), (5, 0.05, 0.7)):
        a = delta * np.eye(p) + rho * (np.ones((p, p)) - np.eye(p))
        assert abs(numerical_radius(a) - (delta + rho * (p - 1))) < 1e-10


def test_angles_suite_fails_a_product_radius_below_delta(monkeypatch):
    # each factor's model space is S*-invariant in the product's, so the
    # product radius is at least delta; a radius just under delta must fail
    deltas = []

    def estimate(factors, rho_mode="numeric"):
        est = radius_estimate(factors, rho_mode)
        deltas.append(est.delta)
        return est

    monkeypatch.setattr(verify, "radius_estimate", estimate)
    monkeypatch.setattr(verify, "numerical_radius", lambda matrix: deltas[-1] - 1e-6)
    suite = verify.angles_suite(trials=5, seed=3)
    assert not suite.passed
    assert sum("below delta" in f for f in suite.failures) == 5


def test_angles_suite_reads_its_proxy_slack_from_the_tolerances(monkeypatch):
    # the numeric rho never exceeds the proxy; a slack of -1 makes every trial fail,
    # so the check applies the named tolerance the verify report lists
    monkeypatch.setitem(verify.TOLERANCES, "proxy_slack", -1.0)
    suite = verify.angles_suite(trials=3, seed=3)
    assert sum("above proxy" in f for f in suite.failures) == 3
