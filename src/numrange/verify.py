"""Randomized certification suites.

Each suite draws seeded instances, runs independent computation routes
against each other, and records per-trial margins.  The suites back both
the ``verify`` CLI subcommand and the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blaschke import BlaschkeProduct
from .inequalities import (
    AnalyticSelfMap,
    polynomial_apply,
    random_nilpotent_contraction,
    schwarz_pick_chain,
)
from .model_operator import compress_shift_adjoint, shift_adjoint_matrix, single_zero_matrix
from .numerical_range import numerical_radius
from .poncelet import (
    UNIT_MODULUS_TOL,
    VERTEX_DISTINCT_TOL,
    VERTEX_MATCH_TOL,
    edge_support_gaps,
    poncelet_polygon,
)
from .radius import radius_closed_form, radius_single_zero
from .subspaces import cross_gram, radius_estimate, taylor_cross_gram

TOLERANCES = {
    "radius_agreement": 1e-9,
    "closed_form_agreement": 1e-11,
    "margin_floor": -1e-9,
    "chain_equality": 5e-9,
    "unit_modulus": UNIT_MODULUS_TOL,
    "vertex_match": VERTEX_MATCH_TOL,
    "vertex_distinct": VERTEX_DISTINCT_TOL,
    "circumscription": 1e-6,
    "sin_bound_slack": 1e-6,
    "proxy_slack": 1e-9,
    "estimate_slack": 1e-8,
    "dense_agreement": 1e-9,
    "gram_agreement": 1e-13,
}

SELF_MAPS = (
    ("z", (0.0, 1.0)),
    ("z^2", (0.0, 0.0, 1.0)),
    ("(z+z^3)/2", (0.0, 0.5, 0.0, 0.5)),
    ("0.45(z+z^2)", (0.0, 0.45, 0.45)),
)


@dataclass
class SuiteResult:
    suite: str
    trials: int
    seed: int
    records: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        self.failures.append(message)


def _disc_point(rng: np.random.Generator, radius: float) -> complex:
    return radius * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random())


def radius_suite(trials: int = 50, seed: int = 7) -> SuiteResult:
    """Root-based radius formula against the eigenvalue route, plus the
    closed forms where they exist."""
    out = SuiteResult(suite="radius", trials=trials, seed=seed)
    rng = np.random.default_rng(seed)
    for i in range(trials):
        alpha = _disc_point(rng, 0.8)
        n = int(rng.integers(2, 13))
        formula = radius_single_zero(alpha, n)
        eigen = numerical_radius(single_zero_matrix(alpha, n).matrix)
        delta = abs(formula - eigen)
        rec = {"trial": i, "alpha": alpha, "n": n, "formula": formula, "eigen": eigen,
               "formula_vs_eigen": delta}
        if delta > TOLERANCES["radius_agreement"]:
            out.fail(f"trial {i}: formula vs eigen delta {delta:.3e}")
        if n <= 4:
            closed = radius_closed_form(alpha, n)
            d2 = abs(closed - formula)
            rec["closed"] = closed
            rec["closed_vs_formula"] = d2
            if d2 > TOLERANCES["closed_form_agreement"]:
                out.fail(f"trial {i}: closed vs formula delta {d2:.3e}")
        out.records.append(rec)
    return out


def poncelet_suite(trials: int = 32, seed: int = 0) -> SuiteResult:
    """Polygon construction swept over the unit circle for the single-zero
    degrees 2, 3, 4 and moduli 0, 0.3, 0.6; ``trials`` counts the vertex
    samples per configuration."""
    out = SuiteResult(suite="poncelet", trials=trials, seed=seed)
    for n in (2, 3, 4):
        for a in (0.0, 0.3, 0.6):
            t = single_zero_matrix(a, n).matrix
            for j in range(trials):
                lam = np.exp(2j * math.pi * j / trials)
                tag = f"n={n} a={a} j={j}"
                try:
                    verts = poncelet_polygon(t, lam)
                except Exception as exc:  # noqa: BLE001 - recorded, not raised
                    out.fail(f"{tag}: construction failed: {exc}")
                    continue
                unit_err = float(np.max(np.abs(np.abs(verts) - 1.0)))
                vert_gap = float(np.min(np.abs(verts - np.roll(verts, 1))))
                lam_err = float(np.min(np.abs(verts - lam)))
                gaps = edge_support_gaps(verts, t)
                max_violation = float(np.max(gaps))
                rec = {
                    "n": n, "alpha": a, "vertex_index": j,
                    "unit_modulus_error": unit_err,
                    "min_vertex_gap": vert_gap,
                    "vertex_error": lam_err,
                    "max_edge_gap": float(np.max(np.abs(gaps))),
                    "max_violation": max_violation,
                }
                out.records.append(rec)
                if len(verts) != n + 1:
                    out.fail(f"{tag}: expected {n + 1} vertices, got {len(verts)}")
                if unit_err > TOLERANCES["unit_modulus"]:
                    out.fail(f"{tag}: unit modulus error {unit_err:.3e}")
                if vert_gap <= TOLERANCES["vertex_distinct"]:
                    out.fail(f"{tag}: vertices too close, gap {vert_gap:.3e}")
                if lam_err > TOLERANCES["vertex_match"]:
                    out.fail(f"{tag}: prescribed vertex missed by {lam_err:.3e}")
                if float(np.max(np.abs(gaps))) > TOLERANCES["circumscription"]:
                    out.fail(f"{tag}: tangency gap {float(np.max(np.abs(gaps))):.3e}")
                if abs(max_violation) > TOLERANCES["circumscription"]:
                    out.fail(f"{tag}: violation {max_violation:.3e}")
    return out


def schwarz_pick_suite(trials: int = 200, seed: int = 1) -> SuiteResult:
    """Schwarz-Pick margins over random nilpotent contractions, the
    stepwise inequality chain, and the polynomial-calculus comparison with
    the pure shift."""
    out = SuiteResult(suite="schwarz-pick", trials=trials, seed=seed)
    rng = np.random.default_rng(seed)
    maps = [(name, AnalyticSelfMap(coeffs)) for name, coeffs in SELF_MAPS]
    floor = TOLERANCES["margin_floor"]
    for i in range(trials):
        n = int(rng.integers(2, 7))
        alpha = _disc_point(rng, 0.8)
        name, f = maps[int(rng.integers(0, len(maps)))]
        t = random_nilpotent_contraction(n, seed=int(rng.integers(0, 2**31 - 1)))
        chain = schwarz_pick_chain(t, f, alpha)
        margin = chain.formula_power - chain.lhs
        shift_radius = numerical_radius(polynomial_apply(shift_adjoint_matrix(n), f))
        nilp_radius = numerical_radius(polynomial_apply(t.matrix, f))
        rec = {
            "trial": i, "n": n, "alpha": alpha, "map": name,
            "lhs": chain.lhs, "rhs": chain.formula_power, "margin": margin,
            "chain_step1": chain.shift_bound - chain.lhs,
            "chain_step2": chain.mobius_power - chain.shift_bound,
            "chain_formula_delta": abs(chain.mobius_power - chain.formula_power),
            "calculus_margin": shift_radius - nilp_radius,
        }
        out.records.append(rec)
        if margin < floor:
            out.fail(f"trial {i}: margin {margin:.3e}")
        if rec["chain_step1"] < floor:
            out.fail(f"trial {i}: first chain link {rec['chain_step1']:.3e}")
        if rec["chain_step2"] < floor:
            out.fail(f"trial {i}: second chain link {rec['chain_step2']:.3e}")
        if rec["chain_formula_delta"] > TOLERANCES["chain_equality"]:
            out.fail(f"trial {i}: chain formula delta {rec['chain_formula_delta']:.3e}")
        if rec["calculus_margin"] < floor:
            out.fail(f"trial {i}: calculus margin {rec['calculus_margin']:.3e}")
    return out


def angles_suite(trials: int = 50, seed: int = 3) -> SuiteResult:
    """Subspace angle sine against its separation lower bound, the product
    radius against the largest factor radius delta below it and the strict
    polygon bound cos(pi/n) below it, and the exact (Stein) cross-Gram
    against the Taylor one at its default truncation."""
    out = SuiteResult(suite="angles", trials=trials, seed=seed)
    rng = np.random.default_rng(seed)
    for i in range(trials):
        while True:
            z1, z2 = _disc_point(rng, 0.7), _disc_point(rng, 0.7)
            if abs(z1 - z2) > 1e-6:
                break
        n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        phi1 = BlaschkeProduct.single_zero(z1, n1)
        phi2 = BlaschkeProduct.single_zero(z2, n2)
        est = radius_estimate([phi1, phi2])
        (rep,) = est.angles
        bound = rep.sin_lower_bound
        proxy = radius_estimate([phi1, phi2], rho_mode="f-proxy")
        product_radius = numerical_radius(compress_shift_adjoint(phi1 * phi2).matrix)
        n = n1 + n2
        gram_delta = float(np.max(np.abs(cross_gram(phi1, phi2) - taylor_cross_gram(phi1, phi2))))
        rec = {
            "trial": i, "zero1": z1, "zero2": z2, "n1": n1, "n2": n2,
            "cos": rep.cos_angle, "sin": rep.sin_angle, "sin_lower_bound": bound,
            "rho": est.rho, "delta": est.delta, "product_radius": product_radius,
            "polygon_floor": math.cos(math.pi / n),
            "gram_taylor_delta": gram_delta,
        }
        out.records.append(rec)
        if rep.sin_angle < bound - TOLERANCES["sin_bound_slack"]:
            out.fail(f"trial {i}: sin {rep.sin_angle:.6f} below bound {bound:.6f}")
        if product_radius < est.delta - TOLERANCES["estimate_slack"]:
            out.fail(f"trial {i}: radius {product_radius:.6f} below delta {est.delta:.6f}")
        if est.rho > proxy.rho + TOLERANCES["proxy_slack"]:
            out.fail(f"trial {i}: numeric rho {est.rho:.6f} above proxy {proxy.rho:.6f}")
        if gram_delta > TOLERANCES["gram_agreement"]:
            out.fail(f"trial {i}: Stein vs Taylor cross-Gram delta {gram_delta:.3e}")
        if not product_radius > math.cos(math.pi / n):
            out.fail(f"trial {i}: radius {product_radius:.6f} not above cos(pi/{n})")
    return out


SUITES = {
    "radius": radius_suite,
    "poncelet": poncelet_suite,
    "schwarz-pick": schwarz_pick_suite,
    "angles": angles_suite,
}
