"""Command line interface.

Subcommands: radius, boundary, poncelet, kms, angles, verify.  Every run
prints a key-sorted JSON report, so identical command lines give
byte-identical output.  Exit codes: 0 success, 1 certification failure,
2 usage error, 3 domain error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import math
import sys

import numpy as np

from .blaschke import BlaschkeProduct, poisson_kernel, real_part_symbol
from .errors import NotSingleZeroError, NumrangeError
from .kms import kms_dense_eigenvalues, kms_root_system
from .model_operator import compress_shift_adjoint
from .numerical_range import DEFAULT_BOUNDARY_GRID, boundary, numerical_radius
from .poncelet import edge_support_gaps, poncelet_polygon
from .radius import radius_closed_form, radius_single_zero
from .report import RunReport, boundary_csv, boundary_svg
from .subspaces import radius_estimate
from .verify import SUITES, TOLERANCES

EXIT_OK = 0
EXIT_CERTIFICATION = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

# boundary angles drawn under a `poncelet --svg` polygon
POLYGON_SVG_GRID = 256


def _complex_arg(text: str) -> complex:
    try:
        re_part, im_part = text.split(",")
        return complex(float(re_part), float(im_part))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected re,im, got {text!r}") from exc


def _zero_arg(text: str) -> tuple[complex, int]:
    body, _, mult = text.partition(":")
    try:
        z = _complex_arg(body)
        m = int(mult) if mult else 1
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"expected re,im[:mult], got {text!r}") from exc
    if m < 1:
        raise argparse.ArgumentTypeError(f"multiplicity must be positive, got {m}")
    return z, m


def _phi_from_args(args) -> BlaschkeProduct:
    zeros = getattr(args, "zero", None)
    alpha = getattr(args, "alpha", None)
    if alpha is not None and zeros:
        raise ValueError("--alpha and --zero are mutually exclusive")
    if alpha is not None:
        return BlaschkeProduct.single_zero(alpha, getattr(args, "n", None) or 1)
    if zeros:
        return BlaschkeProduct(tuple(zeros))
    raise ValueError("specify --alpha re,im [--n N] or at least one --zero re,im[:mult]")


def _phi_inputs(phi: BlaschkeProduct) -> dict:
    return {"zeros": [[z.real, z.imag, m] for z, m in phi.factors], "degree": phi.degree}


def cmd_radius(args) -> tuple[RunReport, int]:
    phi = _phi_from_args(args)
    op = compress_shift_adjoint(phi)
    n = op.n
    eigen = numerical_radius(op.matrix)
    results: dict = {"degree": n, "eigen_radius": eigen}
    if n >= 2:
        results["polygon_floor"] = math.cos(math.pi / n)
    agreement: dict = {}
    try:
        zero, _ = phi.sole_zero()
    except NotSingleZeroError:
        pass
    else:
        formula = radius_single_zero(zero, n)
        results["formula_radius"] = formula
        agreement["formula_vs_eigen"] = abs(formula - eigen)
        if 2 <= n <= 4:
            closed = radius_closed_form(zero, n)
            results["closed_form_radius"] = closed
            agreement["closed_vs_formula"] = abs(closed - formula)
    if agreement:
        results["agreement"] = agreement
    report = RunReport(
        command="radius",
        inputs=_phi_inputs(phi),
        results=results,
        tolerances={k: TOLERANCES[k] for k in ("radius_agreement", "closed_form_agreement")},
    )
    return report, EXIT_OK


def cmd_boundary(args) -> tuple[RunReport, int]:
    phi = _phi_from_args(args)
    op = compress_shift_adjoint(phi)
    sample = boundary(op.matrix, grid_size=args.grid)
    x, y = sample.points.real, sample.points.imag
    radii = np.hypot(x, y)
    chord = x * np.cos(sample.thetas) + y * np.sin(sample.thetas)
    envelope = np.max(np.abs(chord - sample.support))
    vertices = None
    if args.vertex is not None:
        vertices = poncelet_polygon(op.matrix, args.vertex)
    results = {
        "radius_min": float(radii.min()),
        "radius_max": float(radii.max()),
        "envelope_residual_max": float(envelope),
        "csv": args.csv,
        "svg": args.svg,
    }
    if vertices is not None:
        results["polygon_vertices"] = list(vertices)
    if args.csv:
        with open(args.csv, "w", encoding="ascii") as fh:
            fh.write(boundary_csv(sample))
    if args.svg:
        with open(args.svg, "w", encoding="ascii") as fh:
            fh.write(boundary_svg(sample, vertices))
    inputs = _phi_inputs(phi)
    inputs["grid"] = args.grid
    if args.vertex is not None:
        inputs["vertex"] = args.vertex
    report = RunReport(command="boundary", inputs=inputs, results=results, tolerances={})
    return report, EXIT_OK


def cmd_poncelet(args) -> tuple[RunReport, int]:
    phi = _phi_from_args(args)
    op = compress_shift_adjoint(phi)
    vertices = poncelet_polygon(op.matrix, args.vertex)
    gaps = edge_support_gaps(vertices, op.matrix)
    results = {
        "vertices": list(vertices),
        "edge_gaps": list(gaps),
        "max_violation": float(np.max(gaps)),
        "svg": args.svg,
    }
    if args.svg:
        sample = boundary(op.matrix, grid_size=POLYGON_SVG_GRID)
        with open(args.svg, "w", encoding="ascii") as fh:
            fh.write(boundary_svg(sample, vertices))
    inputs = _phi_inputs(phi)
    inputs["vertex"] = args.vertex
    report = RunReport(
        command="poncelet",
        inputs=inputs,
        results=results,
        tolerances={"circumscription": TOLERANCES["circumscription"]},
    )
    return report, EXIT_OK


def cmd_kms(args) -> tuple[RunReport, int]:
    system = kms_root_system(args.alpha, args.n)
    analytic = poisson_kernel(system.alpha, system.roots)
    dense = kms_dense_eigenvalues(args.alpha, args.n)
    spectrum = real_part_symbol(system.alpha, system.roots)
    delta = float(np.max(np.abs(analytic - dense)))
    tol = TOLERANCES["dense_agreement"]
    results = {
        "roots": system.roots.tolist(),
        "brackets": system.brackets.tolist(),
        "eigenvalues": analytic.tolist(),
        "dense_delta_max": delta,
        "real_part_spectrum": spectrum.tolist(),
        "real_part_radius": float(-spectrum[-1]),
    }
    report = RunReport(
        command="kms",
        inputs={"alpha": args.alpha, "n": args.n},
        results=results,
        tolerances={"dense_agreement": tol},
    )
    # a NaN delta fails the comparison too
    return report, EXIT_OK if delta <= tol else EXIT_CERTIFICATION


def cmd_angles(args) -> tuple[RunReport, int]:
    if not args.zero or len(args.zero) < 2:
        raise ValueError("need at least two --zero factors")
    factors = [BlaschkeProduct.single_zero(z, m) for z, m in args.zero]
    est = radius_estimate(factors)
    proxy = radius_estimate(factors, rho_mode="f-proxy")
    pairs = [
        {"i": i, "j": j, **dataclasses.asdict(rep)}
        for (i, j), rep in zip(itertools.combinations(range(len(factors)), 2), est.angles)
    ]
    results = {
        "pairs": pairs,
        "estimate": {"rho": est.rho, "delta": est.delta},
        "estimate_proxy": {"rho": proxy.rho},
    }
    inputs = {"zeros": [[z.real, z.imag, m] for z, m in args.zero]}
    report = RunReport(
        command="angles",
        inputs=inputs,
        results=results,
        tolerances={"sin_bound_slack": TOLERANCES["sin_bound_slack"]},
    )
    return report, EXIT_OK


def cmd_verify(args) -> tuple[RunReport, int]:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    kwargs = {}
    if args.trials is not None:
        kwargs["trials"] = args.trials
    if args.seed is not None:
        kwargs["seed"] = args.seed
    results = {}
    all_passed = True
    for name in names:
        suite = SUITES[name](**kwargs)
        all_passed = all_passed and suite.passed
        results[name] = {
            "trials": suite.trials,
            "seed": suite.seed,
            "passed": suite.passed,
            "failures": suite.failures,
            "records": suite.records,
        }
    report = RunReport(
        command="verify",
        inputs={"suite": args.suite, "trials": args.trials, "seed": args.seed},
        results=results,
        tolerances=dict(TOLERANCES),
    )
    return report, EXIT_OK if all_passed else EXIT_CERTIFICATION


def _add_operator_args(sub) -> None:
    sub.add_argument("--alpha", type=_complex_arg, help="single zero as re,im")
    sub.add_argument("--n", type=int, help="multiplicity used with --alpha")
    sub.add_argument(
        "--zero",
        action="append",
        type=_zero_arg,
        help="zero as re,im[:mult]; repeat for products",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``numrange`` parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="numrange",
        description="Numerical ranges of compressed shifts for finite Blaschke products",
    )
    parser.add_argument("--out", help="also write the JSON report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("radius", help="numerical radius by several methods")
    _add_operator_args(p)
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("boundary", help="boundary of the numerical range")
    _add_operator_args(p)
    p.add_argument("--grid", type=int, default=DEFAULT_BOUNDARY_GRID)
    p.add_argument("--csv", help="write theta,lambda,x,y rows here")
    p.add_argument("--svg", help="write a static SVG plot here")
    p.add_argument("--vertex", type=_complex_arg, help="overlay the polygon through this unit-circle point")
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("poncelet", help="circumscribing polygon through a vertex")
    _add_operator_args(p)
    p.add_argument("--vertex", type=_complex_arg, required=True)
    p.add_argument("--svg", help="write a static SVG plot here")
    p.set_defaults(func=cmd_poncelet)

    p = sub.add_parser("kms", help="Toeplitz root system and spectra")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_kms)

    p = sub.add_parser("angles", help="model space angles and radius estimate")
    p.add_argument(
        "--zero",
        action="append",
        type=_zero_arg,
        help="single-zero factor as re,im[:mult]; repeat at least twice",
    )
    p.set_defaults(func=cmd_angles)

    p = sub.add_parser("verify", help="randomized certification suites")
    p.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_verify)

    return parser


_VALUE_FLAGS = {"--zero", "--alpha", "--vertex"}


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join flag values starting with a minus sign into --flag=value form so
    argparse does not mistake them for options."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in _VALUE_FLAGS and nxt and nxt.startswith("-") and not nxt.startswith("--"):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = parser.parse_args(_merge_negative_values(argv))
    try:
        report, code = args.func(args)
    except NumrangeError as exc:
        print(f"numrange: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"numrange: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"numrange: {exc}", file=sys.stderr)
        return EXIT_IO
    text = report.to_json()
    sys.stdout.write(text)
    if args.out:
        try:
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"numrange: {exc}", file=sys.stderr)
            return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
