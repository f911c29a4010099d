"""The three benchmark workloads: inputs, one op each, and the validators.

Input generation and validation run in the parent process (run.py); the
op functions run in a fresh worker interpreter (worker.py).  Ops reach
monokit through module attributes at call time, so the tracer's patched
functions are the ones called.

  report-cli-d6   one op = one cold `python -m monokit report` process
  exact-basis     one op per basis element through degree 12, seeded order
  fourier-stream  one op = one wire-format polynomial expanded and summed
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

REPORT_ARGS = ["report", "--max-degree", "6", "--functions", "20"]
GOLDEN_FILES = {"axial": "axial_closed_forms.json", "taylor": "taylor_closed_forms.json"}

EXACT_MAX_DEGREE = 12

FOURIER_MAX_DEGREE = 8
# Requests of each degree in one batch (60 in all).  With these counts the
# median op falls inside the degree-4 group and the tail op (10 beyond it)
# inside the degree-7 group, never on the edge between two groups, where
# the statistic would jump with the noise of one op.
FOURIER_COUNTS = {1: 8, 2: 8, 3: 8, 4: 8, 5: 6, 6: 6, 7: 12, 8: 4}
BOHR_RADIUS = 0.049
# Coefficient error allowed, relative to the norm of the coefficient vector.
# A tolerance relative to each coefficient fails on honest roundoff.
COEFF_RTOL = 1e-10


# -- inputs (parent side, before any timing) --------------------------------------


def report_seeds(seed: int, count: int) -> list[int]:
    """The --seed of each report op, derived from the benchmark seed."""
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


def exact_inputs(seed: int) -> list[list]:
    """[n, kind, m] for every basis element through EXACT_MAX_DEGREE, in seeded order.

    In ascending degree the ops that set the median and the tail would all
    run within a second or two of each other, so those two statistics would
    follow the machine's speed over that moment alone; shuffled, they are
    spread over the whole batch.  The work done is the same in any order.
    """
    from monokit.basis import degree_indices

    items = [[ix.n, ix.kind, ix.m] for n in range(EXACT_MAX_DEGREE + 1)
             for ix in degree_indices(n)]
    order = np.random.default_rng(seed).permutation(len(items))
    return [items[i] for i in order]


def fourier_request(rng: np.random.Generator, d: int) -> tuple[str, dict]:
    """A random exact-rational combination of the degree-d basis elements.

    Returns the wire-format document and the known Fourier coefficients,
    keyed "n:label", for every degree 0..d.  The coefficient of element k
    with rational weight c_k is c_k * sqrt(N_k pi) / sqrt(2d+3), with N_k
    the closed-form squared sphere norm over pi.
    """
    from monokit.basis import basis_for_degree, degree_indices, norm_sq_sphere_closed
    from monokit.mpoly import MPoly

    elements = basis_for_degree(d)
    weights = [Fraction(0)] * len(elements)
    while not any(weights):
        weights = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))
                   for _ in elements]
    poly = MPoly.zero()
    for c, element in zip(weights, elements):
        poly = poly + c * element.poly
    known = {f"{n}:{ix.label}": 0.0 for n in range(d) for ix in degree_indices(n)}
    for c, element in zip(weights, elements):
        norm = math.sqrt(float(norm_sq_sphere_closed(d, element.index.m)) * math.pi)
        known[f"{d}:{element.index.label}"] = float(c) * norm / math.sqrt(2 * d + 3)
    return poly.to_json(), known


def fourier_inputs(seed: int) -> tuple[list[str], list[dict]]:
    """One batch: FOURIER_COUNTS requests of each degree, in seeded order.

    The counts are fixed, so the seed changes the order and the
    coefficients but not the amount of work in a batch.
    """
    rng = np.random.default_rng(seed)
    degrees = rng.permutation([d for d, count in FOURIER_COUNTS.items() for _ in range(count)])
    docs, known = [], []
    for d in degrees:
        doc, coeffs = fourier_request(rng, int(d))
        docs.append(doc)
        known.append(coeffs)
    return docs, known


def load_goldens(root: Path) -> dict:
    golden = root / "tests" / "golden"
    return {key: json.loads((golden / name).read_text())
            for key, name in GOLDEN_FILES.items()}


# -- set-up and ops (worker side) --------------------------------------------------


def setup(workload: str) -> None:
    """The declared warm-up, after the import; part of setup_s."""
    if workload == "fourier-stream":
        from monokit import basis

        for n in range(FOURIER_MAX_DEGREE + 1):
            for element in basis.basis_for_degree(n):
                element.norm_sq_S  # exact norm, cached by the basis module


def exact_op(item: list) -> dict:
    from monokit import basis, fueter, moments

    n, kind, m = item
    poly = basis.spherical_monogenic(n, kind, m).poly
    dirac_zero = poly.dirac().is_zero()
    norm = moments.norm_sq_sphere(poly)
    round_trip = fueter.taylor_reconstruct(fueter.taylor_coefficients(poly)) == poly
    return {"dirac_zero": dirac_zero, "norm_sq": f"{norm.numerator}/{norm.denominator}",
            "taylor_round_trip": round_trip}


def fourier_op(doc: str) -> dict:
    from monokit import bohr, mpoly, quadrature

    poly = mpoly.MPoly.from_json(doc)
    monogenic = poly.dirac().is_zero()
    d = poly.degree()
    rule = quadrature.QuadratureRule.for_degree(2 * d + 2)
    coeffs = quadrature.fourier_expand(poly, d, rule)
    total = bohr.empirical_bohr_sum(coeffs, BOHR_RADIUS)
    return {"monogenic": monogenic,
            "coefficients": {f"{n}:{label}": value for (n, label), value in coeffs.items()},
            "bohr_sum": total}


OPS = {"exact-basis": exact_op, "fourier-stream": fourier_op}


# -- validators: each returns a list of problems, empty when the answer is right ---


def check_report(doc: dict, goldens: dict) -> list[str]:
    problems = []
    if doc.get("passed") is not True:
        problems.append("report not passed")
    if doc.get("failed_sections") != []:
        problems.append(f"failed sections {doc.get('failed_sections')}")
    if doc.get("taylor", {}).get("permutation_oracle_match") is not True:
        problems.append("permutation oracle mismatch")
    agreement = doc.get("closed_form_agreement", {})
    for key, table in goldens.items():
        if agreement.get(key) != table:
            problems.append(f"closed_form_agreement.{key} differs from the golden table")
    return problems


def check_exact(item: list, out: dict) -> list[str]:
    from monokit.basis import norm_sq_sphere_closed

    n, kind, m = item
    problems = []
    if out["dirac_zero"] is not True:
        problems.append(f"{kind}:{m} at degree {n} is not monogenic")
    if Fraction(out["norm_sq"]) != norm_sq_sphere_closed(n, m):
        problems.append(f"{kind}:{m} at degree {n}: norm {out['norm_sq']} is not the closed form")
    if out["taylor_round_trip"] is not True:
        problems.append(f"{kind}:{m} at degree {n}: Taylor round trip differs")
    return problems


def check_fourier(known: dict, out: dict) -> list[str]:
    problems = []
    if out["monogenic"] is not True:
        problems.append("input reported not monogenic")
    got = out["coefficients"]
    if set(got) != set(known):
        problems.append("coefficient indices differ")
    else:
        scale = math.sqrt(sum(v * v for v in known.values()))
        worst = max(abs(got[key] - value) for key, value in known.items())
        if not worst <= COEFF_RTOL * scale:
            problems.append(f"coefficient error {worst:.3e} above {COEFF_RTOL:.0e} x {scale:.3e}")
    if not math.isfinite(out["bohr_sum"]):
        problems.append("Bohr sum not finite")
    return problems


def count_failures(outcomes) -> tuple[int, int, list[str]]:
    """(attempted, failed, first problems) over (error, problems) pairs.

    An op fails on an error (nonzero exit, exception, no answer) or on any
    validation problem.
    """
    attempted = failed = 0
    notes: list[str] = []
    for error, problems in outcomes:
        attempted += 1
        found = [error] if error else problems
        if found:
            failed += 1
            if len(notes) < 5:
                notes.append(found[0])
    return attempted, failed, notes
