import json
import math

import numpy as np
import pytest

from numrange.blaschke import BlaschkeProduct
from numrange.cli import build_parser, main
from numrange.report import RunReport, _json_default, boundary_csv, boundary_svg
from numrange.numerical_range import boundary
from numrange.model_operator import compress_shift_adjoint, shift_matrix
from numrange.poncelet import circumscription_check, edge_support_gaps, poncelet_polygon
from numrange.verify import TOLERANCES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_radius_monomial_degree_three(capsys):
    code, out, _ = run_cli(capsys, "radius", "--alpha", "0,0", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["formula_radius"] == 0.7071067811865476
    assert data["version"] == "0.1.0"


def test_radius_single_zero_agreement(capsys):
    code, out, _ = run_cli(capsys, "radius", "--alpha", "0.5,0", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert abs(data["results"]["closed_form_radius"] - 0.875) < 1e-12
    assert data["results"]["agreement"]["formula_vs_eigen"] < 1e-9


def test_radius_two_zero_product_has_no_estimate_block(capsys):
    # rho and delta of a product come from `numrange angles`
    code, out, _ = run_cli(
        capsys, "radius", "--zero", "0.3,0", "--zero", "-0.4,0.1"
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert "eigen_radius" in results
    assert "estimate" not in results


def test_radius_product_with_repeated_zero_has_no_estimate_block(capsys):
    code, out, _ = run_cli(capsys, "radius", "--zero", "0.3,0", "--zero", "0.3,0:2")
    assert code == 0
    results = json.loads(out)["results"]
    assert "eigen_radius" in results
    assert "estimate" not in results


def test_radius_of_a_repeated_zero_does_not_depend_on_how_it_is_listed(capsys):
    # phi has one distinct zero, so the formula and closed-form cross-checks run
    reports = []
    for argv in (["--zero", "0.3,0", "--zero", "0.3,0"], ["--zero", "0.3,0:2"]):
        code, out, _ = run_cli(capsys, "radius", *argv)
        assert code == 0
        reports.append(json.loads(out))
    repeated, merged = reports
    assert repeated["results"] == merged["results"]
    assert repeated["results"]["agreement"]["formula_vs_eigen"] <= 1e-9
    assert "closed_form_radius" in repeated["results"]


def test_radius_lists_every_tolerance_it_reports_against(capsys):
    code, out, _ = run_cli(capsys, "radius", "--alpha", "0.5,0", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert set(data["results"]["agreement"]) == {"formula_vs_eigen", "closed_vs_formula"}
    assert data["tolerances"] == {
        "radius_agreement": TOLERANCES["radius_agreement"],
        "closed_form_agreement": TOLERANCES["closed_form_agreement"],
    }


def test_radius_rejects_zero_on_boundary(capsys):
    code, _, err = run_cli(capsys, "radius", "--alpha", "1,0", "--n", "2")
    assert code == 3
    assert "disc" in err


def test_malformed_zero_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["radius", "--zero", "nonsense"])
    assert exc.value.code == 2


def test_missing_operator_spec_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "radius")
    assert code == 2
    assert "--alpha" in err or "--zero" in err


def test_boundary_csv_of_jordan_block(tmp_path, capsys):
    csv_path = tmp_path / "boundary.csv"
    code, out, _ = run_cli(
        capsys,
        "boundary", "--zero", "0,0:2", "--grid", "256", "--csv", str(csv_path),
    )
    assert code == 0
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "theta,lambda,x,y"
    assert len(rows) == 257
    for row in rows[1:]:
        _, _, x, y = map(float, row.split(","))
        assert abs(math.hypot(x, y) - 0.5) < 1e-6


def test_boundary_grid_consistency(capsys):
    outs = []
    for grid in ("64", "128"):
        code, out, _ = run_cli(
            capsys, "boundary", "--alpha", "0.4,0", "--n", "3", "--grid", grid
        )
        assert code == 0
        outs.append(json.loads(out)["results"]["radius_max"])
    assert abs(outs[0] - outs[1]) < 1e-3


def test_boundary_grid_too_small(capsys):
    code, _, err = run_cli(capsys, "boundary", "--alpha", "0.4,0", "--n", "3", "--grid", "32")
    assert code == 2


@pytest.mark.parametrize("command", ["boundary"])
def test_odd_grid_is_usage_error(capsys, command):
    code, out, err = run_cli(capsys, command, "--alpha", "0.4,0", "--n", "3", "--grid", "255")
    assert code == 2
    assert out == ""
    assert "even" in err


def test_radius_has_no_grid_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["radius", "--alpha", "0.4,0", "--n", "3", "--grid", "256"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--grid" in captured.err


def test_boundary_svg_written(tmp_path, capsys):
    svg_path = tmp_path / "plot.svg"
    code, _, _ = run_cli(
        capsys,
        "boundary", "--alpha", "0.5,0", "--n", "2", "--grid", "128",
        "--svg", str(svg_path), "--vertex", "1,0",
    )
    assert code == 0
    text = svg_path.read_text()
    assert text.startswith("<svg")
    assert "<polyline" in text and "<polygon" in text


def test_boundary_unwritable_path_is_io_error(capsys):
    code, _, err = run_cli(
        capsys,
        "boundary", "--alpha", "0.5,0", "--n", "2", "--grid", "128",
        "--csv", "/nonexistent-dir/x.csv",
    )
    assert code == 4


def test_poncelet_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "poncelet", "--zero", "0,0:2", "--vertex", "1,0"
    )
    assert code == 0
    data = json.loads(out)
    verts = [complex(re, im) for re, im in data["results"]["vertices"]]
    assert len(verts) == 3
    assert abs(data["results"]["max_violation"]) < 1e-6


def test_poncelet_violation_is_exact_on_clustered_repeated_zeros(capsys):
    # sampled boundary points once put max_violation at 1.78e-6 on these inputs
    zeros = (
        (0.8870054317715744 - 0.07756944876629955j, 1),
        (0.3344896397789011 + 0.8195982969167099j, 3),
        (-0.6511555361260958 - 0.5717760354688303j, 2),
    )
    vertex = 0.6181054281918041 + 0.7860952102893303j
    argv = ["poncelet", "--vertex", f"{vertex.real!r},{vertex.imag!r}"]
    for z, m in zeros:
        argv += ["--zero", f"{z.real!r},{z.imag!r}:{m}"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    res = json.loads(out)["results"]
    assert abs(res["max_violation"]) <= 1e-9
    assert res["max_violation"] == max(res["edge_gaps"])
    t = compress_shift_adjoint(BlaschkeProduct(zeros)).matrix
    poly = poncelet_polygon(t, vertex)
    worst = circumscription_check(poly, t)
    assert worst == float(np.max(edge_support_gaps(poly, t))) == res["max_violation"]


def test_kms_subcommand(capsys):
    code, out, _ = run_cli(capsys, "kms", "--alpha", "0.5", "--n", "6")
    assert code == 0
    data = json.loads(out)
    assert len(data["results"]["roots"]) == 6
    assert data["results"]["dense_delta_max"] < 1e-9


def test_kms_dense_disagreement_is_certification_failure(capsys, monkeypatch):
    # tolerance 0 makes the exit path independent of how accurate the root system is
    monkeypatch.setitem(TOLERANCES, "dense_agreement", 0.0)
    code, out, _ = run_cli(capsys, "kms", "--alpha", "0.9999", "--n", "128")
    assert code == 1
    data = json.loads(out)
    assert data["results"]["dense_delta_max"] > data["tolerances"]["dense_agreement"] == 0.0


def test_kms_near_circle_agrees_with_dense_solver(capsys):
    code, out, _ = run_cli(capsys, "kms", "--alpha", "0.9999", "--n", "128")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["dense_delta_max"] <= data["tolerances"]["dense_agreement"] == 1e-9


@pytest.mark.parametrize("alpha, n", [("1e-11", "1000"), ("1e-15", "14")])
def test_kms_certifies_tiny_alpha(capsys, alpha, n):
    # the sign certificate reads the parity value at the grid end exactly, and
    # Newton ends a root whose bracket collapsed under rounding
    code, out, _ = run_cli(capsys, "kms", "--alpha", alpha, "--n", n)
    assert code == 0
    assert json.loads(out)["results"]["dense_delta_max"] <= 1e-9


@pytest.mark.parametrize("n", ["0", "-3"])
def test_kms_rejects_nonpositive_degree(capsys, n):
    code, out, err = run_cli(capsys, "kms", "--alpha", "0.5", "--n", n)
    assert code == 2
    assert out == "" and "positive" in err


def test_kms_dense_check_on_bench_like_inputs(capsys):
    # alpha and n from the ranges the angles-kms benchmark draws; the real
    # values-only dense solve agrees with the root system far inside
    # dense_agreement = 1e-9
    rng = np.random.default_rng(15)
    for _ in range(30):
        alpha, n = float(rng.uniform(0.05, 0.95)), int(rng.integers(8, 129))
        code, out, _ = run_cli(capsys, "kms", "--alpha", repr(alpha), "--n", str(n))
        assert code == 0
        assert json.loads(out)["results"]["dense_delta_max"] <= 1e-12, (alpha, n)


def test_angles_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "angles", "--zero", "0.1,0", "--zero", "-0.1,0"
    )
    assert code == 0
    results = json.loads(out)["results"]
    pair = results["pairs"][0]
    assert pair["sin_angle"] >= pair["sin_lower_bound"] - 1e-6
    assert set(results) == {"pairs", "estimate", "estimate_proxy"}
    assert set(results["estimate"]) == {"rho", "delta"}
    assert set(results["estimate_proxy"]) == {"rho"}


@pytest.mark.parametrize("a", [0.9999, 1 - 1e-6])
def test_angles_accepts_zero_near_the_circle(capsys, a):
    code, out, _ = run_cli(capsys, "angles", "--zero", f"{a!r},0", "--zero", "0.3,0")
    assert code == 0
    (pair,) = json.loads(out)["results"]["pairs"]
    closed = math.sqrt((1 - a) * (1 + a) * (1 - 0.3**2)) / (1 - a * 0.3)
    assert abs(pair["cos_angle"] - closed) <= 1e-15
    assert pair["truncation"] == 0


def test_verify_smoke_all_suites(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--trials", "1", "--seed", "0")
    assert code == 0
    data = json.loads(out)
    assert set(data["results"]) == {"radius", "poncelet", "schwarz-pick", "angles"}
    assert all(block["passed"] for block in data["results"].values())


def test_verify_radius_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "radius", "--trials", "10", "--seed", "7")
    assert code == 0
    data = json.loads(out)
    for rec in data["results"]["radius"]["records"]:
        assert rec["formula_vs_eigen"] < 1e-9


def test_byte_identical_reports(capsys):
    argv = ["radius", "--alpha", "0.3,0.2", "--n", "4"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_shared_parser_keeps_no_state_between_calls(capsys):
    # `--zero` appends, so a list left over from one call must not reach the next
    first = ["poncelet", "--zero", "0.3,0", "--zero", "-0.2,0.4", "--vertex", "0,1"]
    second = ["poncelet", "--zero", "0.5,-0.1:2", "--vertex", "1,0"]
    shared = [run_cli(capsys, *argv) for argv in (first, second)]
    for argv, result in zip((first, second), shared):
        build_parser.cache_clear()
        assert run_cli(capsys, *argv) == result
        assert result[0] == 0
    assert shared[0][1] != shared[1][1]


def test_report_roundtrip_is_byte_identical():
    report = RunReport(
        command="radius",
        inputs={"zeros": [[0.5, 0.0, 2]], "grid": 256},
        results={"eigen_radius": 0.875, "vertex": [0.0, 1.0]},
        tolerances={"radius_agreement": 1e-9},
    )
    text = report.to_json()
    assert report.to_json() == text
    assert json.loads(text) == {
        "command": report.command,
        "inputs": report.inputs,
        "results": report.results,
        "tolerances": report.tolerances,
        "version": report.version,
    }


def test_report_is_one_key_sorted_line():
    # numpy values, complex numbers and nested keys out of order, as the commands produce them
    report = RunReport(
        command="kms",
        inputs={"n": np.int64(3), "alpha": 0.5},
        results={"roots": np.array([0.5, 1.5]), "vertex": 0.6 + 0.8j, "ok": np.bool_(True),
                 "nested": {"b": [1.0, {"d": 2, "c": 3}], "a": None}},
        tolerances={"dense_agreement": 1e-9},
    )
    payload = {
        "command": report.command,
        "inputs": report.inputs,
        "results": report.results,
        "tolerances": report.tolerances,
        "version": report.version,
    }
    text = report.to_json()
    assert text == json.dumps(payload, sort_keys=True, default=_json_default) + "\n"
    assert text.index("\n") == len(text) - 1


def test_out_flag_writes_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "--out", str(path), "radius", "--alpha", "0,0", "--n", "2"
    )
    assert code == 0
    assert path.read_text() == out


def test_csv_serializer_digits():
    sample = boundary(shift_matrix(2), 64)
    text = boundary_csv(sample)
    first = text.splitlines()[1].split(",")
    assert len(first) == 4
    # 17 significant digits survive a float round-trip
    assert float(first[1]) == sample.support[0]


def test_svg_serializer_is_pure():
    sample = boundary(shift_matrix(2), 64)
    assert boundary_svg(sample) == boundary_svg(sample)
