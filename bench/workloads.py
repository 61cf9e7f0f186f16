"""Seeded op pools for the benchmark workloads, and the check each op must pass.

A workload is a pool of ops built from the seed before timing starts; the
timed loop runs the pool in rounds, one pass over it per round.  ``Op.call`` is the timed part:
it calls the library, or the CLI in process, and returns its output.
``Op.check`` compares that output with the repository's own tolerances
(``numrange.verify.TOLERANCES``) and an independent route, and returns True
when every check holds.

The parameters that set an op's cost (degree, number of factors, KMS size
and, for the angles calls, every zero modulus and multiplicity) are
stratified over the pool, or drawn once from a fixed shape seed, so every
seed builds a pool of the same cost; the seed orders the pool and draws the
rest: zero arguments, matrices, vertices and KMS parameters.  The
library is always reached through module attributes at call time, so the
traced run sees every call through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import numrange as nr
import numrange.cli
import numrange.verify

# One round of the timed loop is one pass over the pool: at least 100 ops, so
# that ten of them lie beyond p90, and a few seconds long.
POOL_SIZES = {"certify": 110, "poncelet": 126, "angles-kms": 384}
WORKLOADS = tuple(POOL_SIZES)


@dataclass(frozen=True)
class Op:
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def _tol(name: str) -> float:
    return numrange.verify.TOLERANCES[name]


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = numrange.cli.main(argv)
    return code, out.getvalue()


def _disc_points(rng: np.random.Generator, radius: float, count: int) -> np.ndarray:
    """Area-uniform points of the disc |z| <= radius."""
    r = radius * np.sqrt(rng.random(count))
    return r * np.exp(2j * math.pi * rng.random(count))


def _unit_strata(rng: np.random.Generator, count: int) -> np.ndarray:
    """One uniform draw from each of ``count`` equal strata of [0, 1), in seeded order."""
    return (rng.permutation(count) + rng.random(count)) / count


def _strata(rng: np.random.Generator, values, count: int) -> list:
    """``count`` draws that use every value equally often, in seeded order."""
    values = list(values)
    picks = [values[i % len(values)] for i in range(count)]
    return [picks[i] for i in rng.permutation(count)]


def _zero_flag(z: complex, mult: int = 1) -> str:
    return f"--zero={z.real!r},{z.imag!r}" + (f":{mult}" if mult > 1 else "")


# certify: a Schwarz-Pick trial followed by a radius trial.  The two trials
# take 23-60 ms and 3-11 ms, so an op of one trial alone would make the
# latency distribution bimodal with its median in the gap between the modes.


def _certify_op(t, f, alpha_sp: complex, alpha_r: complex, n_r: int) -> Op:
    def call():
        n = t.order
        check = nr.schwarz_pick_check(t, f, alpha_sp)
        chain = nr.schwarz_pick_chain(t, f, alpha_sp)
        hh = nr.haagerup_harpe_check(t)
        shift_radius = nr.numerical_radius(nr.polynomial_apply(nr.shift_adjoint_matrix(n), f))
        nilp_radius = nr.numerical_radius(nr.polynomial_apply(t.matrix, f))
        formula = nr.radius_single_zero(alpha_r, n_r)
        eigen = nr.numerical_radius(nr.single_zero_matrix(alpha_r, n_r).matrix)
        closed = nr.radius_closed_form(alpha_r, n_r) if n_r <= 4 else None
        return check, chain, hh, shift_radius, nilp_radius, formula, eigen, closed

    def verify(out) -> bool:
        check, chain, hh, shift_radius, nilp_radius, formula, eigen, closed = out
        floor = _tol("margin_floor")
        return (
            check.margin >= floor
            and chain.shift_bound - chain.lhs >= floor
            and chain.mobius_power - chain.shift_bound >= floor
            and abs(chain.mobius_power - chain.formula_power) <= _tol("chain_equality")
            and hh.margin >= floor
            and shift_radius - nilp_radius >= floor
            and abs(formula - eigen) <= _tol("radius_agreement")
            and (closed is None or abs(closed - formula) <= _tol("closed_form_agreement"))
        )

    return Op(call, verify)


def _certify(rng: np.random.Generator, size: int) -> list[Op]:
    maps = [nr.AnalyticSelfMap(coeffs) for _, coeffs in numrange.verify.SELF_MAPS]
    sp_n = _strata(rng, range(2, 7), size)
    sp_map = _strata(rng, range(len(maps)), size)
    r_n = _strata(rng, range(2, 13), size)
    alphas = _disc_points(rng, 0.8, 2 * size)
    seeds = rng.integers(0, 2**31 - 1, size)
    return [
        _certify_op(
            nr.random_nilpotent_contraction(sp_n[i], seed=int(seeds[i])),
            maps[sp_map[i]],
            complex(alphas[2 * i]),
            complex(alphas[2 * i + 1]),
            r_n[i],
        )
        for i in range(size)
    ]


# poncelet: one in-process ``numrange poncelet`` call.


def _poncelet_op(factors: list[tuple[complex, int]], vertex: complex) -> Op:
    n = sum(m for _, m in factors)
    argv = ["poncelet", *(_zero_flag(z, m) for z, m in factors)]
    argv.append(f"--vertex={vertex.real!r},{vertex.imag!r}")

    def call():
        return _run_cli(argv)

    def verify(out) -> bool:
        code, text = out
        if code != 0:
            return False
        res = json.loads(text)["results"]
        verts = np.array([complex(*v) for v in res["vertices"]])
        tol = _tol("circumscription")
        return (
            len(verts) == n + 1
            and float(np.max(np.abs(np.abs(verts) - 1.0))) <= _tol("unit_modulus")
            and float(np.min(np.abs(verts - vertex))) <= _tol("vertex_match")
            and max(abs(g) for g in res["edge_gaps"]) <= tol
            and abs(res["max_violation"]) <= tol
        )

    return Op(call, verify)


def _poncelet_factors(rng: np.random.Generator, n: int, kind: str) -> list[tuple[complex, int]]:
    if kind == "distinct":
        return [(complex(z), 1) for z in _disc_points(rng, 0.9, n)]
    if kind == "clustered":
        center = complex(_disc_points(rng, 0.8, 1)[0])
        return [(center + complex(d), 1) for d in _disc_points(rng, 0.05, n)]
    # repeated: ceil(n/2) distinct zeros whose multiplicities sum to n
    k = (n + 1) // 2
    mults = np.ones(k, dtype=int)
    for j in rng.integers(0, k, n - k):
        mults[j] += 1
    return [(complex(z), int(m)) for z, m in zip(_disc_points(rng, 0.9, k), mults)]


def _poncelet(rng: np.random.Generator, size: int) -> list[Op]:
    shapes = _strata(rng, [(n, kind) for n in range(2, 9)
                           for kind in ("distinct", "clustered", "repeated")], size)
    vertices = np.exp(2j * math.pi * rng.random(size))
    return [
        _poncelet_op(_poncelet_factors(rng, n, kind), complex(vertices[i]))
        for i, (n, kind) in enumerate(shapes)
    ]


# angles-kms: an angles call and an in-process ``numrange kms`` call, alternating.
# KMS degrees stop at 128: see the KMS note in bench/README.md.

KMS_DEGREES = (8, 128)
SHAPE_SEED = 20120217


def _angles_op(factors: list) -> Op:
    def call():
        pairs = []
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                rep = nr.subspace_cos_angle(factors[i], factors[j])
                pairs.append((rep.sin_angle, nr.sin_angle_lower_bound(factors[i], factors[j])))
        est = nr.radius_estimate(factors)
        proxy = nr.radius_estimate(factors, rho_mode="f-proxy")
        return pairs, est, proxy

    def verify(out) -> bool:
        pairs, est, proxy = out
        slack = _tol("sin_bound_slack")
        return all(s >= b - slack for s, b in pairs) and est.rho <= proxy.rho + 1e-9

    return Op(call, verify)


def _kms_op(alpha: float, n: int) -> Op:
    argv = ["kms", "--alpha", repr(alpha), "--n", str(n)]

    def call():
        return _run_cli(argv)

    def verify(out) -> bool:
        code, text = out
        if code != 0:
            return False
        report = json.loads(text)
        res = report["results"]
        roots = np.array(res["roots"])
        brackets = np.array(res["brackets"])
        return (
            len(roots) == n
            and bool(np.all((brackets[:, 0] < roots) & (roots < brackets[:, 1])))
            and res["dense_delta_max"] <= report["tolerances"]["dense_agreement"]
        )

    return Op(call, verify)


def _angles_factors(rng: np.random.Generator, moduli, mults: list[int]) -> list:
    """Single-zero factors with the given zero moduli and seeded arguments.
    The moduli and multiplicities set the Taylor truncation of every pair,
    which dominates the call's cost, so they come from the shape alone."""
    while True:
        zeros = moduli * np.exp(2j * math.pi * rng.random(len(moduli)))
        gaps = np.abs(zeros[:, None] - zeros[None, :]) + np.eye(len(moduli))
        if gaps.min() > 1e-6:
            break
    return [nr.BlaschkeProduct.single_zero(complex(z), m) for z, m in zip(zeros, mults)]


def _angles_kms(rng: np.random.Generator, size: int) -> list[Op]:
    # The truncation doubles when a modulus crosses a threshold, so moduli
    # drawn per seed would make the angles calls of two pools differ in cost
    # by up to 1.5x.  The cost shape comes from SHAPE_SEED, the same for every
    # seed; the seed draws the order, the zero arguments and alpha.
    shape = np.random.default_rng(SHAPE_SEED)
    half = size // 2
    counts = _strata(shape, range(2, 5), half)
    top_mults = _strata(shape, range(1, 5), half)
    mults = iter(_strata(shape, range(1, 5), sum(counts) - half))
    r_max = 0.95 * np.sqrt(_unit_strata(shape, half))  # area-uniform
    lo, hi = (math.log(d) for d in KMS_DEGREES)
    degrees = np.rint(np.exp(lo + (hi - lo) * _unit_strata(shape, half))).astype(int)
    shapes = []
    for i in range(half):
        factor_mults = [top_mults[i], *(next(mults) for _ in range(counts[i] - 1))]
        # the other zeros are area-uniform in the disc |z| <= r_max
        moduli = np.concatenate([[r_max[i]], r_max[i] * np.sqrt(shape.random(counts[i] - 1))])
        shapes.append((moduli, factor_mults, int(degrees[i])))
    ops = []
    for i in rng.permutation(half):
        moduli, factor_mults, degree = shapes[i]
        ops.append(_angles_op(_angles_factors(rng, moduli, factor_mults)))
        ops.append(_kms_op(float(rng.uniform(0.05, 0.95)), degree))
    return ops


_BUILDERS = {"certify": _certify, "poncelet": _poncelet, "angles-kms": _angles_kms}


def build(workload: str, seed: int) -> list[Op]:
    """The op pool of ``workload`` for ``seed``; equal seeds give equal pools."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, POOL_SIZES[workload])
