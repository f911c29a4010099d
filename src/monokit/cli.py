"""Command-line surface: construct, check, expand, and report.

Subcommands:
  basis    list one degree block of the orthogonal system as JSON polynomials
  check    run the Gram identity and/or the inequality sweeps
  taylor   exact Taylor coefficients of one basis element
  fourier  expand a polynomial (JSON wire format) in the orthonormal system
  bohr     the two series thresholds and margin values
  report   the full verification document; optionally (re)write golden tables

Machine-readable output goes to stdout (or --output); PASS/FAIL summary
lines go to stderr, from one table, report.SECTIONS, for `check` and
`report` alike; `check` runs the gram row and the --bounds families it names,
each once, in flag order.  The float checks and `bohr`'s residuals read the
fixed report.TOLERANCE (1e-10); no flag sets it.  Identical (command, flags)
produce identical output bytes.  Exit status: 0 all invoked checks pass,
1 a check failed, 2 configuration error (an unwritable --output or
--golden-dir included).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

from . import bohr as bohr_mod
from . import report as report_mod
from .basis import BasisIndex, basis_for_degree
from .fueter import taylor_coefficients
from .mpoly import MPoly
from .quadrature import QuadratureRule, fourier_expand
from .quaternion import frac_str

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2

# largest polynomial degree `fourier` accepts, in its input and --max-degree;
# the degree sizes the basis and the quadrature rule (about 1 s at 16, half exact norms)
MAX_INPUT_DEGREE = 16


# the SECTIONS rows `check` runs: "gram" and each bound family by its --bounds name
CHECK_SECTIONS = {row[0].removeprefix("bounds."): row
                  for row in report_mod.SECTIONS if row[2]}


class ConfigError(Exception):
    pass


# -- output formatting -----------------------------------------------------------


def _flatten(obj, prefix: str, rows: list):
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(value, f"{prefix}.{key}" if prefix else str(key), rows)
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            _flatten(value, f"{prefix}.{i}", rows)
    else:
        rows.append((prefix, obj))


def _to_markdown(obj, lines: list, depth: int = 0):
    indent = "  " * depth
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{indent}- **{key}**:")
                _to_markdown(value, lines, depth + 1)
            else:
                lines.append(f"{indent}- {key}: {value}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            if isinstance(value, (dict, list)):
                lines.append(f"{indent}- [{i}]:")
                _to_markdown(value, lines, depth + 1)
            else:
                lines.append(f"{indent}- {value}")


def render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if fmt == "md":
        lines = [f"# {doc.get('command', 'report')}", ""]
        _to_markdown(doc, lines)
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        rows: list = []
        _flatten(doc, "", rows)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        writer.writerows(rows)
        return buf.getvalue()
    raise ConfigError(f"unknown format {fmt!r}")


def emit(doc: dict, args) -> None:
    text = render(doc, args.format)
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.output}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def status_line(ok: bool, name: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", file=sys.stderr)


# -- subcommands -----------------------------------------------------------------


def cmd_basis(args) -> int:
    if args.degree < 0:
        raise ConfigError("--degree must be >= 0")
    elements = []
    for e in basis_for_degree(args.degree):
        elements.append({
            "index": e.index.label,
            "n": e.index.n,
            "m": e.index.m,
            "kind": e.index.kind,
            "norm_sq_sphere_over_pi": frac_str(e.norm_sq_S),
            "poly": e.poly.to_json_dict(),
        })
    emit({"schema": report_mod.SCHEMA, "command": "basis",
          "degree": args.degree, "count": len(elements), "elements": elements}, args)
    return EXIT_OK


def cmd_check(args) -> int:
    if args.max_degree < 0:
        raise ConfigError("--max-degree must be >= 0")
    names = (["gram"] if args.gram else []) + args.bounds  # none asked for: every row
    rows = [CHECK_SECTIONS[name] for name in dict.fromkeys(names or CHECK_SECTIONS)]
    config = {"max_degree": args.max_degree}
    if CHECK_SECTIONS["gram"] in rows:  # the one row with a tolerance
        config["tolerance"] = report_mod.TOLERANCE
    doc = report_mod.build_sections(
        {"schema": report_mod.SCHEMA, "command": "check", "config": config}, rows, config)
    status = report_mod.section_status(doc, rows)
    for name, ok, detail in status:
        status_line(ok, name, detail)
    doc["passed"] = all(ok for _, ok, _ in status)
    emit(doc, args)
    return EXIT_OK if doc["passed"] else EXIT_CHECK_FAILED


def cmd_taylor(args) -> int:
    if args.degree < 0:
        raise ConfigError("--degree must be >= 0")
    try:
        index = BasisIndex.parse(args.degree, args.index)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    element = next(e for e in basis_for_degree(args.degree) if e.index == index)
    tc = taylor_coefficients(element.poly)
    coeffs = [{"gamma": list(gamma), "value": value.to_strings()}
              for gamma, value in tc.items()]
    emit({"schema": report_mod.SCHEMA, "command": "taylor", "degree": args.degree,
          "index": index.label, "coefficients": coeffs}, args)
    return EXIT_OK


def cmd_fourier(args) -> int:
    path = Path(args.input)
    if not path.is_file():
        raise ConfigError(f"input file not found: {path}")
    try:
        poly = MPoly.from_json(path.read_text())
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ConfigError(f"cannot parse polynomial: {exc}") from exc
    degree = max(poly.degree(), 0)
    if degree > MAX_INPUT_DEGREE:
        raise ConfigError(f"input degree {degree} exceeds {MAX_INPUT_DEGREE}")
    max_degree = args.max_degree if args.max_degree is not None else degree
    if not 0 <= max_degree <= MAX_INPUT_DEGREE:
        raise ConfigError(f"--max-degree must be in 0..{MAX_INPUT_DEGREE}")
    rule = QuadratureRule.for_degree(degree + max_degree + 2)
    coeffs = fourier_expand(poly, max_degree, rule)
    emit({"schema": report_mod.SCHEMA, "command": "fourier",
          "input_degree": degree, "input_monogenic": poly.dirac().is_zero(),
          **coeffs.to_json_dict()}, args)
    return EXIT_OK


def cmd_bohr(args) -> int:
    for r in args.at:
        if not 0.0 <= r < 0.5:
            raise ConfigError(f"--at must be in [0, 0.5), got {r}")
    report = bohr_mod.bohr_radius(extra_radii=args.at)
    residual_1 = abs(bohr_mod.series_s1(report.r1) - 1.0)
    residual_2 = abs(bohr_mod.series_s2(report.r2) - 1.0)
    ok = max(residual_1, residual_2) < report_mod.TOLERANCE
    doc = {"schema": report_mod.SCHEMA, "command": "bohr",
           "config": {"tolerance": report_mod.TOLERANCE},
           **report.to_json_dict(),
           "residuals": {"S1_at_r1": residual_1, "S2_at_r2": residual_2},
           "passed": ok}
    status_line(ok, "bohr",
                f"r1={report.r1:.6f} r2={report.r2:.6f} radius={report.radius:.6f}")
    emit(doc, args)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_report(args) -> int:
    if args.max_degree < 0:
        raise ConfigError("--max-degree must be >= 0")
    if args.functions < 1:
        raise ConfigError("--functions must be >= 1")
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    if args.golden_dir:
        golden = Path(args.golden_dir)
        try:
            golden.mkdir(parents=True, exist_ok=True)
            for name, table in (("axial_closed_forms.json",
                                 report_mod.axial_agreement(args.max_degree)),
                                ("taylor_closed_forms.json",
                                 report_mod.taylor_agreement(args.max_degree))):
                (golden / name).write_text(json.dumps(table, sort_keys=True, indent=2) + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write {golden}: {exc.strerror or exc}") from exc
        emit({"schema": report_mod.SCHEMA, "command": "report",
              "golden_dir": str(golden), "max_degree": args.max_degree,
              "files": ["axial_closed_forms.json", "taylor_closed_forms.json"]}, args)
        return EXIT_OK
    doc = report_mod.build_report(max_degree=args.max_degree, seed=args.seed,
                                  bohr_functions=args.functions)
    doc["command"] = "report"
    for name, ok, detail in report_mod.section_status(doc, report_mod.SECTIONS):
        status_line(ok, name, detail)
    emit(doc, args)
    return EXIT_OK if doc["passed"] else EXIT_CHECK_FAILED


# -- argument parsing --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monokit",
        description="exact monogenic polynomial bases on the unit ball of R^3,"
                    " their inequalities, and the associated Bohr-type radius")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "md", "csv"), default="json",
                        help="output format (default json)")
    common.add_argument("--output", metavar="PATH", default=None,
                        help="write the document here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", parents=[common],
                       help="one degree block of the orthogonal system")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("check", parents=[common],
                       help="Gram identity and/or inequality sweeps")
    p.add_argument("--gram", action="store_true", help="check the ball Gram matrix")
    p.add_argument("--bounds", action="append", default=[],
                   choices=[name for name in CHECK_SECTIONS if name != "gram"],
                   help="inequality family to sweep (repeatable)")
    p.add_argument("--max-degree", type=int, default=6)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("taylor", parents=[common],
                       help="exact Taylor coefficients of a basis element")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--index", required=True, metavar="X:l|Y:m",
                   help='element label, e.g. "X:0" or "Y:2"')
    p.set_defaults(fn=cmd_taylor)

    p = sub.add_parser("fourier", parents=[common],
                       help="expand a JSON polynomial in the orthonormal system")
    p.add_argument("--input", required=True, metavar="poly.json")
    p.add_argument("--max-degree", type=int, default=None)
    p.set_defaults(fn=cmd_fourier)

    p = sub.add_parser("bohr", parents=[common],
                       help="series thresholds and margins")
    p.add_argument("--at", type=float, action="append", default=[],
                   metavar="R", help="extra radius to tabulate (repeatable)")
    p.set_defaults(fn=cmd_bohr)

    p = sub.add_parser("report", parents=[common],
                       help="full verification document")
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--functions", type=int, default=100,
                   help="empirical radius-test function count (default 100)")
    p.add_argument("--seed", type=int, default=0,
                   help="PRNG seed of the empirical test functions (default 0)")
    p.add_argument("--golden-dir", metavar="DIR", default=None,
                   help="write only the closed-form agreement tables into DIR")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.output:
            parent = Path(args.output).parent
            if not (parent.is_dir() and os.access(parent, os.W_OK)):
                raise ConfigError(f"cannot write {args.output}:"
                                  f" {parent} is not a writable directory")
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
