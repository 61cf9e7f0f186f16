"""Acceptance suite.

One test per criterion, each run at its stated tolerance; a pass/fail
line is printed for every criterion (visible with pytest -s or in the
captured output of failures).
"""

import cmath
import math
import time

import numpy as np

from numrange.inequalities import haagerup_harpe_check, random_nilpotent_contraction
from numrange.kms import (
    eigenvalue_equation,
    kms_eigenvalues,
    kms_matrix,
    kms_root_system,
)
from numrange.linalg import hermitian_eig, norm_inf, solve, spectral_norm
from numrange.model_operator import (
    char_det_closed_form,
    char_det_recurrence,
    shift_matrix,
    single_zero_matrix,
)
from numrange.numerical_range import numerical_radius, rotated_real_part
from numrange.radius import radius_closed_form, radius_single_zero
from numrange.verify import angles_suite, poncelet_suite, radius_suite, schwarz_pick_suite


def _report(idx, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {idx} ({name}): {status}")
    assert not failures, f"criterion {idx} ({name}): " + "; ".join(failures[:10])


def test_criterion_1_radius_formula_agreement():
    start = time.perf_counter()
    suite = radius_suite(trials=50, seed=7)
    elapsed = time.perf_counter() - start
    failures = list(suite.failures)
    worst = max(rec["formula_vs_eigen"] for rec in suite.records)
    if worst > 1e-9:
        failures.append(f"worst agreement {worst:.3e} above 1e-9")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s not below 10s")
    _report(1, "radius formula agreement", failures)


def test_criterion_2_closed_form_corollaries():
    failures = []
    rng = np.random.default_rng(2)
    for n in (2, 3, 4):
        for a in np.linspace(0.0, 0.95, 20):
            alpha = a * cmath.exp(2j * math.pi * rng.random())
            closed = radius_closed_form(alpha, n)
            formula = radius_single_zero(alpha, n)
            eigen = numerical_radius(single_zero_matrix(alpha, n).matrix)
            if abs(closed - formula) > 1e-11:
                failures.append(f"n={n} a={a:.3f}: closed vs formula {abs(closed - formula):.2e}")
            if abs(closed - eigen) > 1e-11:
                failures.append(f"n={n} a={a:.3f}: closed vs eigen {abs(closed - eigen):.2e}")
    for n, value in ((2, math.cos(math.pi / 3)), (3, math.cos(math.pi / 4)), (4, math.cos(math.pi / 5))):
        if abs(radius_closed_form(0.0, n) - value) > 1e-14:
            failures.append(f"n={n}: closed form at zero misses cos(pi/{n + 1})")
    _report(2, "closed-form corollaries", failures)


def test_criterion_3_kms_spectrum():
    failures = []
    for alpha in np.arange(0.1, 0.95, 0.1):
        alpha = float(round(alpha, 10))
        for n in (1, 2, 3, 5, 8, 13, 21, 30):
            analytic = kms_eigenvalues(alpha, n)
            dense = hermitian_eig(kms_matrix(alpha, n)).values[::-1]
            delta = float(np.max(np.abs(analytic - dense)))
            if delta > 1e-9:
                failures.append(f"alpha={alpha} n={n}: spectrum delta {delta:.2e}")
            system = kms_root_system(alpha, n)
            grid = np.arange(n + 1) * math.pi / (n + 1)
            for k in range(1, n + 1):
                t = system.roots[k - 1]
                if not (grid[k - 1] < t <= grid[k]):
                    failures.append(f"alpha={alpha} n={n} k={k}: root {t} leaves its bracket")
        n = 30
        for k in range(1, n + 1):
            x = k * math.pi / (n + 1)
            val = eigenvalue_equation(alpha, n, x)
            expected = (-1) ** k * 2 * alpha * (1 - alpha * math.cos(x))
            if abs(val - expected) > 1e-10 * abs(expected):
                failures.append(f"alpha={alpha} k={k}: sign identity off by {abs(val - expected):.2e}")
    _report(3, "KMS spectrum and root system", failures)


def test_criterion_4_real_part_reduction():
    failures = []
    rng = np.random.default_rng(4)
    pairs = [(float(rng.uniform(0.0, 0.95)), int(rng.integers(2, 13))) for _ in range(20)]
    for alpha, n in pairs:
        m = single_zero_matrix(-alpha, n).matrix
        radius = numerical_radius(m)
        real_norm = spectral_norm(rotated_real_part(m, 0.0))
        if abs(radius - real_norm) > 1e-9:
            failures.append(f"alpha={alpha:.3f} n={n}: radius vs real part {abs(radius - real_norm):.2e}")

        def norm_at(th):
            w = np.linalg.eigvalsh(rotated_real_part(m, th))
            return max(abs(w[0]), abs(w[-1]))

        grid_max = max(norm_at(th) for th in 2 * math.pi * np.arange(128) / 128)
        if grid_max > max(norm_at(0.0), norm_at(math.pi)) + 1e-9:
            failures.append(f"alpha={alpha:.3f} n={n}: maximum not attained on the real axis")
    _report(4, "real-part reduction", failures)


def test_criterion_5_haagerup_harpe():
    failures = []
    for n in range(1, 13):
        delta = abs(numerical_radius(shift_matrix(n)) - math.cos(math.pi / (n + 1)))
        if delta > 1e-10:
            failures.append(f"n={n}: shift radius off by {delta:.2e}")
    rng = np.random.default_rng(5)
    for i in range(100):
        n = int(rng.integers(2, 13))
        t = random_nilpotent_contraction(n, seed=int(rng.integers(0, 2**31 - 1)))
        margin = haagerup_harpe_check(t).margin
        if margin < -1e-9:
            failures.append(f"trial {i} n={n}: margin {margin:.2e}")
    _report(5, "Haagerup-de la Harpe bound", failures)


def test_criterion_6_schwarz_pick():
    start = time.perf_counter()
    suite = schwarz_pick_suite(trials=200, seed=1)
    elapsed = time.perf_counter() - start
    failures = list(suite.failures)
    worst = min(rec["margin"] for rec in suite.records)
    if worst < -1e-9:
        failures.append(f"worst margin {worst:.3e}")
    for key in ("chain_step1", "chain_step2"):
        step_worst = min(rec[key] for rec in suite.records)
        if step_worst < -1e-9:
            failures.append(f"worst {key} {step_worst:.3e}")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s not below 60s")
    _report(6, "Schwarz-Pick inequality", failures)


def test_criterion_7_poncelet():
    suite = poncelet_suite(trials=32, seed=0)
    failures = list(suite.failures)
    assert len(suite.records) == 3 * 3 * 32
    worst_gap = max(rec["max_edge_gap"] for rec in suite.records)
    if worst_gap > 1e-6:
        failures.append(f"worst tangency gap {worst_gap:.3e}")
    _report(7, "Poncelet polygons", failures)


def test_criterion_8_subspace_estimates():
    suite = angles_suite(trials=50, seed=3)
    failures = list(suite.failures)
    headroom = min(rec["product_radius"] - rec["delta"] for rec in suite.records)
    print(f"[acceptance] criterion 8 note: smallest product radius - delta {headroom:.3e}")
    _report(8, "subspace estimates", failures)


def test_criterion_9_kernel_soundness():
    failures = []
    rng = np.random.default_rng(9)
    for i in range(25):
        n = int(rng.integers(2, 13))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = 0.5 * (a + a.conj().T)
        eig = hermitian_eig(h)
        rebuilt = (eig.vectors * eig.values) @ eig.vectors.conj().T
        if norm_inf(rebuilt - h) > 1e-9 * norm_inf(h):
            failures.append(f"trial {i}: reconstruction residual")
        if abs(np.trace(h).real - eig.values.sum()) > 1e-10 * max(1.0, abs(np.trace(h).real)):
            failures.append(f"trial {i}: trace identity")
        well = a + 3 * np.eye(n)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if norm_inf(solve(well, well @ x) - x) > 1e-10 * norm_inf(x) * max(1.0, norm_inf(well)):
            failures.append(f"trial {i}: solve round trip")
    for i in range(25):
        alpha = float(rng.uniform(0.0, 0.9))
        theta = float(rng.uniform(0.0, 2 * math.pi))
        lam = float(rng.uniform(-0.95, 0.95))
        n = int(rng.integers(1, 11))
        rec = char_det_recurrence(alpha, lam, theta, n)
        clo = char_det_closed_form(alpha, lam, theta, n)
        eigs = hermitian_eig(rotated_real_part(single_zero_matrix(-alpha, n).matrix, theta)).values
        det = float(np.prod(eigs - lam))
        if abs(rec - clo) > 1e-10 * max(1.0, abs(rec)):
            failures.append(f"trial {i}: recurrence vs closed form")
        if abs(rec - det) > 1e-10 * max(1.0, abs(det)):
            failures.append(f"trial {i}: recurrence vs determinant")
    _report(9, "kernel soundness", failures)
