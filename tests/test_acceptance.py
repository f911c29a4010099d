"""Acceptance gate: the headline capabilities at their stated tolerances.

Each test emits one [PASS]/[FAIL] line for its criterion.  Tolerances and
time budgets are pinned here on purpose; loosening them is a contract
change, not a fix.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from monokit import basis, legendre
from monokit.basis import basis_for_degree, spherical_monogenic
from monokit.bohr import (bohr_radius, empirical_bohr_sweep, pointwise_polynomial_bound,
                          series_s1, verify_corollary_bounds, verify_pointwise_bounds)
from monokit.fueter import fueter_power, taylor_coefficients, taylor_reconstruct
from monokit.moments import norm_sq_sphere
from monokit.quadrature import gram_matrix_ball
from monokit.quaternion import E1
from monokit.report import (TOLERANCE, axial_agreement, check_ball_sphere_relation,
                            check_norms, check_taylor, taylor_agreement)

GOLDEN = Path(__file__).parent / "golden"


def emit(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} {name}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_exact_monogenicity():
    for cached in (basis.solid_harmonic, basis.spherical_monogenic, basis.basis_for_degree,
                   basis._radius_sq_power, basis.complex_power_parts, legendre.legendre_coeffs,
                   legendre.assoc_body):
        cached.cache_clear()
    start = time.perf_counter()
    failures = []
    count = 0
    for n in range(11):
        for element in basis_for_degree(n):
            count += 1
            if not element.poly.dirac().is_zero():
                failures.append(element.index.label)
    elapsed = time.perf_counter() - start
    ok = not failures and count == 143 and elapsed < 10.0
    emit(1, "exact monogenicity n<=10", ok,
         f"{count} elements, {len(failures)} nonzero, {elapsed:.2f}s < 10s")


def test_criterion_2_orthonormal_gram():
    start = time.perf_counter()
    gram = gram_matrix_ball(6)
    elapsed = time.perf_counter() - start
    deviation = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    ok = gram.shape == (63, 63) and deviation < 1e-10 and elapsed < 30.0
    emit(2, "ball Gram is 63x63 identity", ok,
         f"max deviation {deviation:.3e} < 1e-10, {elapsed:.2f}s < 30s")


def test_criterion_3_ball_sphere_relation():
    out = check_ball_sphere_relation(6)
    ok = out["passed"] and out["tolerance"] == TOLERANCE == 1e-10
    emit(3, "ball product = sphere/(2n+3), diagonal blocks", ok,
         f"max relative error {out['max_relative_error']:.3e} < 1e-10")


def test_criterion_4_norm_closed_forms():
    out = check_norms(8)
    worst = max(out["sphere_norm_rel_error"], out["scalar_norm_rel_error"],
                out["constants_scalar_norm_rel_error"])
    x0 = norm_sq_sphere((spherical_monogenic(0, "X", 1).poly * E1).sc())
    y0 = norm_sq_sphere((spherical_monogenic(0, "Y", 1).poly * E1).sc())
    ok = out["passed"] and out["tolerance"] == TOLERANCE == 1e-10 and x0 == 1 and y0 == 0
    emit(4, "norm closed forms (sphere n<=8, Sc n<=8, constants n in 1..8)", ok,
         f"worst relative error {worst:.3e} < 1e-10; degree-0 exception pinned")


def test_criterion_5_taylor_round_trip():
    start = time.perf_counter()
    out = check_taylor(6)
    elapsed = time.perf_counter() - start
    ok = out["passed"] and elapsed < 10.0
    emit(5, "Taylor round-trip and permutation oracle, n<=6", ok,
         f"round_trip_exact={out['round_trip_exact']},"
         f" oracle={out['permutation_oracle_match']} (rational equality),"
         f" {elapsed:.2f}s < 10s")


def test_taylor_section_reaches_degree_16():
    # the reach that the polarization oracle buys; a report test at degree 14
    # would cost the suite about a second more
    fueter_power.cache_clear()
    start = time.perf_counter()
    out = check_taylor(16)
    elapsed = time.perf_counter() - start
    assert out["passed"] and elapsed < 5.0, f"passed={out['passed']}, {elapsed:.2f}s < 5s"


def test_exact_layer_per_element_through_degree_12():
    # the exact-basis benchmark op, cold: build, Dirac check, exact norm, Taylor round trip
    for cached in (basis.solid_harmonic, basis.spherical_monogenic, basis.basis_for_degree,
                   basis._legendre_radial, basis._radius_sq_power, basis.complex_power_parts,
                   legendre.legendre_coeffs, legendre.assoc_body, fueter_power):
        cached.cache_clear()
    start = time.perf_counter()
    count = 0
    for n in range(13):
        for ix in basis.degree_indices(n):
            poly = spherical_monogenic(n, ix.kind, ix.m).poly
            assert poly.dirac().is_zero()
            assert norm_sq_sphere(poly) == basis.norm_sq_sphere_closed(n, ix.m)
            assert taylor_reconstruct(taylor_coefficients(poly)) == poly
            count += 1
    elapsed = time.perf_counter() - start
    assert count == 195 and elapsed < 1.0, f"{count} elements, {elapsed:.2f}s < 1s"


def test_criterion_6_bound_sweeps():
    corollary = verify_corollary_bounds(8)
    pointwise = verify_pointwise_bounds(8)
    polynomial = pointwise["polynomial"]
    exact_n0 = (polynomial.samples == 99
                and polynomial.max_ratio == 0.5 / pointwise_polynomial_bound(0, 0)
                and polynomial.worst_case == {"n": 0, "index": "X:0"})
    tight_sc = (pointwise["scalar-part"].max_ratio == 1.0
                and all({"n": n, "index": "X:0"} in pointwise["scalar-part"].tight_cases
                        for n in range(9)))
    tight_const = all({"n": n, "kind": kind} in pointwise["constants-e1"].tight_cases
                      for n in range(9) for kind in ("X", "Y") if n or kind == "X")
    ok = (corollary.passed and all(r.passed and r.max_ratio <= 1.0 for r in pointwise.values())
          and exact_n0 and tight_sc and tight_const)
    ratios = {name: round(r.max_ratio, 15) for name, r in pointwise.items()}
    emit(6, "coefficient and pointwise bounds, n<=8, polynomial and scalar-part sups"
         " certified from exact sphere norms (one case per element), scalar-part"
         " factorization and constants-e1 read from exact identities", ok,
         f"corollary max {corollary.max_ratio:.4f}, pointwise max {ratios}, polynomial"
         f" worst X:0 at n=0 (sqrt(1/4)/bound), every family max <= 1 with no slack,"
         f" scalar-part max exactly 1, tight (ratio exactly 1): scalar-part"
         f" X:0 at n=0..8, constants-e1 X at n=0..8 and Y at n=1..8")


def test_criterion_7_radius_thresholds():
    start = time.perf_counter()
    report = bohr_radius()
    elapsed = time.perf_counter() - start
    residual = abs(series_s1(report.r1) - 1.0)
    ok = (abs(report.r1 - 0.0496) < 0.0004 and residual < 1e-10
          and series_s1(0.047) < 1.0 and report.radius < 0.05
          and abs(report.r2 - 0.5697) < 0.0002 and elapsed < 1.0)
    emit(7, "series thresholds", ok,
         f"r1={report.r1:.6f} (residual {residual:.1e}), r2={report.r2:.6f},"
         f" S1(0.047)={series_s1(0.047):.4f}<1, min<0.05, {elapsed:.3f}s < 1s")


def test_criterion_8_empirical_radius_property():
    start = time.perf_counter()
    report = empirical_bohr_sweep(100, r=0.049, seed=2024)
    elapsed = time.perf_counter() - start
    ok = report.passed and report.samples >= 100 and elapsed < 10.0
    emit(8, "100 certified test functions at r=0.049", ok,
         f"max block sum {report.max_ratio:.6f} < 1, {elapsed:.1f}s < 10s")


def test_criterion_9_closed_form_agreement_is_frozen():
    current = {"axial": axial_agreement(6), "taylor": taylor_agreement(6)}
    frozen = {
        "axial": json.loads((GOLDEN / "axial_closed_forms.json").read_text()),
        "taylor": json.loads((GOLDEN / "taylor_closed_forms.json").read_text()),
    }
    same = all(current[key]["variants"] == frozen[key]["variants"]
               for key in ("axial", "taylor"))
    summaries = {key: {v: t["summary"] for v, t in frozen[key]["variants"].items()}
                 for key in ("axial", "taylor")}
    emit(9, "closed-form agreement status matches golden tables", same,
         f"{summaries}")
