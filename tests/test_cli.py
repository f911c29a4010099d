"""Command-line surface: documents, exit codes, determinism."""

import json
import re
from pathlib import Path

import pytest

import monokit
from monokit.cli import MAX_INPUT_DEGREE, main
from monokit.mpoly import MPoly
from monokit.report import SECTIONS, build_report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_basis_degree_zero(capsys):
    code, out, _ = run(capsys, "basis", "--degree", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "monogenics-kit/1"
    assert doc["count"] == 3
    labels = [e["index"] for e in doc["elements"]]
    assert labels == ["X:0", "X:1", "Y:1"]
    coeffs = [e["poly"]["terms"][0]["c"] for e in doc["elements"]]
    assert coeffs == [["1/2", "0/1", "0/1", "0/1"],
                      ["0/1", "-1/2", "0/1", "0/1"],
                      ["0/1", "0/1", "-1/2", "0/1"]]


def test_basis_rejects_negative_degree(capsys):
    code, _, err = run(capsys, "basis", "--degree", "-1")
    assert code == 2
    assert "error" in err


def test_check_gram(capsys):
    code, out, err = run(capsys, "check", "--gram", "--max-degree", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["gram"]["passed"]
    assert doc["gram"]["max_deviation"] < 1e-10
    assert "PASS gram" in err


def test_check_records_the_tolerance_only_when_the_gram_row_runs(capsys):
    _, out, _ = run(capsys, "check", "--bounds", "sc", "--max-degree", "3")
    assert "tolerance" not in json.loads(out)["config"]
    _, out, _ = run(capsys, "check", "--gram", "--max-degree", "2")
    assert json.loads(out)["config"]["tolerance"] == 1e-10


def test_check_bounds_subset(capsys):
    code, out, _ = run(capsys, "check", "--bounds", "corollary", "--bounds", "sc",
                       "--max-degree", "3")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["bounds"]) == {"corollary", "sc"}
    assert all(v["passed"] for v in doc["bounds"].values())


def test_check_runs_only_the_requested_families(capsys, monkeypatch):
    def polynomial_sweep(*args, **kwargs):
        raise AssertionError("the polynomial family was not requested")

    monkeypatch.setattr(monokit.bohr, "verify_polynomial_bounds", polynomial_sweep)
    code, out, _ = run(capsys, "check", "--bounds", "sc", "--bounds", "constants",
                       "--max-degree", "6")
    assert code == 0
    assert set(json.loads(out)["bounds"]) == {"sc", "constants"}


def test_check_runs_a_repeated_family_once(capsys, monkeypatch):
    calls = []
    real = monokit.bohr.verify_scalar_part_bounds
    monkeypatch.setattr(monokit.bohr, "verify_scalar_part_bounds",
                        lambda n: calls.append(n) or real(n))
    code, out, err = run(capsys, "check", "--bounds", "sc", "--bounds", "corollary",
                         "--bounds", "sc", "--max-degree", "3")
    assert code == 0
    assert calls == [3]
    assert [line.split()[1] for line in err.splitlines()] == ["bounds.sc:", "bounds.corollary:"]
    assert set(json.loads(out)["bounds"]) == {"sc", "corollary"}


def test_a_failing_section_fails_report_and_check_alike(capsys, monkeypatch, tmp_path):
    def failing_gram(max_degree):
        return {"max_degree": max_degree, "size": 0, "max_deviation": 0.5,
                "tolerance": 1e-10, "passed": False}

    monkeypatch.setattr(monokit.report, "check_gram", failing_gram)
    line = "FAIL gram: max deviation 5.000e-01 vs 1e-10"
    path = tmp_path / "r.json"
    code, _, err = run(capsys, "report", "--max-degree", "1", "--functions", "2",
                       "--output", str(path))
    assert code == 1
    assert line in err.splitlines()
    doc = json.loads(path.read_text())
    assert doc["failed_sections"] == ["gram"] and not doc["passed"]
    code, out, err = run(capsys, "check", "--gram", "--max-degree", "1")
    assert code == 1
    assert err.splitlines() == [line]
    assert not json.loads(out)["passed"]


@pytest.mark.parametrize("name, section, line", [
    ("monogenicity", {"max_degree": 1, "elements": 8, "passed": False, "failures": ["1:Y:2"]},
     "FAIL monogenicity: 8 elements, failures ['1:Y:2']"),
    ("ball_sphere_relation", {"max_degree": 1, "max_relative_error": 0.25, "tolerance": 1e-10,
                              "passed": False},
     "FAIL ball_sphere_relation: max relative error 2.500e-01 vs 1e-10"),
    ("norms", {"max_degree": 1, "sphere_norm_rel_error": 1.5e-16, "scalar_norm_rel_error": 0.125,
               "constants_scalar_norm_rel_error": 0.0, "constants_degree_range": [1, 1],
               "tolerance": 1e-10, "passed": False},
     "FAIL norms: relative errors sphere 1.500e-16, scalar 1.250e-01, constants 0.000e+00"
     " vs 1e-10"),
    ("taylor", {"max_degree": 1, "round_trip_exact": True, "permutation_oracle_match": False,
                "passed": False},
     "FAIL taylor: round trip exact True, permutation oracle match False"),
], ids=["monogenicity", "ball_sphere_relation", "norms", "taylor"])
def test_a_failing_row_names_its_observed_and_allowed_values(capsys, monkeypatch, tmp_path,
                                                            name, section, line):
    # the allowed value of a flag row is True (no failures); the others print their tolerance
    monkeypatch.setattr(monokit.report, f"check_{name}", lambda max_degree: section)
    code, _, err = run(capsys, "report", "--max-degree", "1", "--functions", "2",
                       "--output", str(tmp_path / "r.json"))
    assert code == 1
    assert line in err.splitlines()
    assert json.loads((tmp_path / "r.json").read_text())["failed_sections"] == [name]


def test_check_bounds_match_the_report_sections(capsys):
    code, out, _ = run(capsys, "check", "--bounds", "pointwise", "--bounds", "sc",
                       "--bounds", "constants", "--bounds", "corollary", "--max-degree", "3")
    assert code == 0
    expected = build_report(3, bohr_functions=1)["bounds"]
    assert json.loads(out)["bounds"] == {name: expected[name]
                                         for name in ("pointwise", "sc", "constants", "corollary")}


def test_taylor_element(capsys):
    code, out, _ = run(capsys, "taylor", "--degree", "1", "--index", "X:0")
    assert code == 0
    doc = json.loads(out)
    gammas = [tuple(c["gamma"]) for c in doc["coefficients"]]
    assert gammas == [(0, 1), (1, 0)]


def test_taylor_bad_index(capsys):
    code, _, err = run(capsys, "taylor", "--degree", "1", "--index", "Z:0")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("degree, label", [
    ("1", "X:+1"), ("1", "X:01"), ("1", "X: 1"), ("1", "X:\u0661"), ("9", "X:1_0"),
], ids=["plus-sign", "leading-zero", "inner-space", "arabic-indic-digit", "underscore"])
def test_taylor_rejects_non_canonical_index(capsys, degree, label):
    code, out, err = run(capsys, "taylor", "--degree", degree, "--index", label)
    assert code == 2
    assert out == ""
    assert err.startswith("error: index label must look like")


def test_fourier_round_trip(capsys, tmp_path):
    from fractions import Fraction
    from monokit.basis import basis_for_degree
    f = Fraction(1, 2) * basis_for_degree(1)[0].poly
    path = tmp_path / "poly.json"
    path.write_text(f.to_json())
    code, out, _ = run(capsys, "fourier", "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["input_monogenic"] is True
    values = {(c["n"], c["index"]): c["value"] for c in doc["coefficients"]}
    nonzero = {k: v for k, v in values.items() if abs(v) > 1e-10}
    assert set(nonzero) == {(1, "X:0")}


_TERM = {"e": [1, 0, 0], "c": ["1/2", "0/1", "0/1", "0/1"]}


@pytest.mark.parametrize("terms", [
    [{"e": [0, 0, 0], "c": ["1/0", "0/1", "0/1", "0/1"]}],
    [{"e": [1.5, 0, 0], "c": _TERM["c"]}],
    [{"e": [-1, 0, 0], "c": _TERM["c"]}],
    [{"e": [0, 0, 0], "c": ["0.5", "0/1", "0/1", "0/1"]}],
    [_TERM, {"e": [1, 0, 0], "c": ["1/3", "0/1", "0/1", "0/1"]}],
    [{"e": [True, 0, 0], "c": _TERM["c"]}],
    [{"e": [0, 0, 0], "c": {"1/2": 0, "1/3": 0, "1/4": 0, "1/5": 0}}],
], ids=["zero-denominator", "float-exponent", "negative-exponent", "decimal-component",
        "duplicate-exponent", "bool-exponent", "object-components"])
def test_fourier_rejects_malformed_input(capsys, tmp_path, terms):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"terms": terms}))
    code, out, err = run(capsys, "fourier", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot parse polynomial")
    assert "Traceback" not in err


def _monomial(degree: int) -> str:
    return json.dumps({"terms": [{"e": [0, 0, degree], "c": _TERM["c"]}]})


@pytest.mark.parametrize("argv, input_text", [
    (["report", "--functions", "0"], None),
    (["report", "--functions", "-2"], None),
    (["report", "--seed", "-1"], None),
    (["fourier"], "[" * 100_000),
    (["fourier"], _monomial(MAX_INPUT_DEGREE + 1)),
    (["fourier", "--max-degree", str(MAX_INPUT_DEGREE + 1)], _monomial(1)),
    (["basis", "--degree", "0", "--output", "TMP/file/x.json"], None),
    (["basis", "--degree", "0", "--output", "TMP/missing/x.json"], None),
    (["report", "--golden-dir", "TMP/file/sub"], None),
    (["check", "--bounds", "sc", "--max-degree", "3", "--output", "TMP/missing/x.json"], None),
], ids=["functions-0", "functions-negative",
        "report-seed-negative", "deeply-nested-json",
        "input-degree-over-cap", "max-degree-over-cap", "output-under-a-file",
        "output-in-missing-dir", "golden-dir-under-a-file", "check-output-in-missing-dir"])
def test_malformed_input_exits_two(capsys, tmp_path, argv, input_text):
    (tmp_path / "file").write_text("")  # a file where a directory is needed
    unwritable = any("TMP" in arg for arg in argv)
    argv = [arg.replace("TMP", str(tmp_path)) for arg in argv]
    if input_text is not None:
        path = tmp_path / "poly.json"
        path.write_text(input_text)
        argv = argv + ["--input", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write " if unwritable else "error: ")
    assert "Traceback" not in err
    assert not any(line.startswith(("PASS", "FAIL")) for line in err.splitlines())


def test_fourier_accepts_the_degree_cap(capsys, tmp_path):
    path = tmp_path / "poly.json"
    path.write_text(_monomial(MAX_INPUT_DEGREE))
    code, out, _ = run(capsys, "fourier", "--input", str(path), "--max-degree", "0")
    assert code == 0
    assert json.loads(out)["input_degree"] == MAX_INPUT_DEGREE


def test_fourier_missing_input(capsys, tmp_path):
    code, _, err = run(capsys, "fourier", "--input", str(tmp_path / "nope.json"))
    assert code == 2
    assert "not found" in err


def test_bohr_document(capsys):
    code, out, err = run(capsys, "bohr", "--at", "0.01")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"]
    assert 0.0490 < doc["r1"] < 0.0500
    assert 0.5695 < doc["r2"] < 0.5700
    assert doc["radius"] == doc["r1"]
    assert "0.01" in doc["margins"]
    assert "PASS bohr" in err


def test_bohr_rejects_radius_out_of_domain(capsys):
    code, _, err = run(capsys, "bohr", "--at", "0.7")
    assert code == 2
    assert "error" in err


def test_markdown_and_csv_formats(capsys):
    code, out, _ = run(capsys, "bohr", "--format", "md")
    assert code == 0
    assert out.startswith("# bohr")
    code, out, _ = run(capsys, "bohr", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("r1,") for line in lines)


def test_output_flag_and_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "bohr", "--output", str(a))[0] == 0
    assert run(capsys, "bohr", "--output", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_is_deterministic(capsys, tmp_path):
    outputs = []
    for name in ("a", "b"):
        path = tmp_path / f"report-{name}.json"
        code = main(["report", "--max-degree", "1", "--functions", "2",
                     "--output", str(path)])
        capsys.readouterr()
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_report_status_lines_follow_section_table(capsys, tmp_path):
    code, _, err = run(capsys, "report", "--max-degree", "1", "--functions", "2",
                       "--output", str(tmp_path / "r.json"))
    assert code == 0
    names = [line.split()[1].rstrip(":") for line in err.splitlines()]
    assert names == [path for path, *_ in SECTIONS]
    deviation = json.loads((tmp_path / "r.json").read_text())["gram"]["max_deviation"]
    assert f"PASS gram: max deviation {deviation:.3e} vs 1e-10" in err.splitlines()
    assert "PASS bounds.sc_ratio_lemmas: max ratio " in err


def test_report_at_degree_zero(capsys, tmp_path):
    # no constants-e1 degree is in range, so that norm check is empty
    code, _, _ = run(capsys, "report", "--max-degree", "0", "--functions", "2",
                     "--output", str(tmp_path / "r.json"))
    assert code == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["norms"]["constants_scalar_norm_rel_error"] == 0.0


def test_package_reads_no_environment():
    package = Path(monokit.__file__).parent
    offenders = [path.name for path in sorted(package.glob("*.py"))
                 if re.search(r"os\.environ|getenv", path.read_text())]
    assert offenders == []


def test_report_golden_regeneration(capsys, tmp_path):
    code, out, _ = run(capsys, "report", "--golden-dir", str(tmp_path),
                       "--max-degree", "2")
    assert code == 0
    axial = json.loads((tmp_path / "axial_closed_forms.json").read_text())
    assert axial["variants"]["binomial-falling"]["summary"]["disagree"] == 0
    assert (tmp_path / "taylor_closed_forms.json").exists()


def test_report_refuses_the_removed_samples_flag(capsys):
    # the polynomial family samples nothing, so `report` has no --samples
    with pytest.raises(SystemExit) as exc:
        main(["report", "--samples", "100"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --samples" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["check", "--seed", "1"],
                                  ["basis", "--degree", "0", "--tolerance", "1e-3"],
                                  ["check", "--tolerance", "1e-9"],
                                  ["bohr", "--tolerance", "1e-9"],
                                  ["report", "--tolerance", "1e-9"]],
                         ids=["check-seed", "basis-tolerance", "check-tolerance",
                              "bohr-tolerance", "report-tolerance"])
def test_subcommands_refuse_flags_they_do_not_read(capsys, argv):
    # --seed is report's only; no subcommand has a --tolerance: every float check
    # reads the fixed report.TOLERANCE
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err
    assert "Traceback" not in err


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
