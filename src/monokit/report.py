"""Aggregate verification report and the closed-form agreement tables.

Everything here reduces to a plain dict (JSON-ready, schema-tagged,
seed and tolerance recorded, no timestamps) so the command line can emit
it unchanged and tests can compare it structurally.  The float checks all
read one fixed TOLERANCE; a caller chooses what is checked, never how
strictly.  SECTIONS is the one table of the checks that decide pass or fail:
build_report builds every row, `monokit check` the rows it is asked for, and
both print section_status.
The two closed-form agreement tables share one generator,
basis.axial_closed_form: the axial table compares the whole polynomial, the
Taylor table its x0-free coefficients.
"""

from __future__ import annotations

import math

import numpy as np

from . import bohr as bohr_mod
from .basis import (BETA_VARIANTS, axial_closed_form, basis_elements,
                    norm_sq_sphere_closed, sc_e1_norm_sq_closed, sc_norm_sq_closed,
                    spherical_monogenic)
from .fueter import polarization_match, taylor_coefficients, taylor_reconstruct
from .quadrature import (QuadratureRule, basis_samples, gram_matrix_ball, radial_pairs,
                         sphere_gram, sphere_norms)

SCHEMA = "monogenics-kit/1"

# the bound of every float check: gram, ball_sphere_relation, norms and `bohr`
TOLERANCE = 1e-10

# One row per section that decides pass or fail, in report order: (dotted path,
# stderr detail format over the section's keys, whether `check` runs it,
# builder).  A builder takes the run's config (build_report's keywords) and
# looks its section function up when called, so patches and tracers see it.
_RATIO = "max ratio {max_ratio:.12f}"
SECTIONS = (
    ("monogenicity", "{elements} elements, failures {failures}", False,
     lambda c: check_monogenicity(c["max_degree"])),
    ("gram", "max deviation {max_deviation:.3e} vs {tolerance:.0e}", True,
     lambda c: check_gram(c["max_degree"])),
    ("ball_sphere_relation", "max relative error {max_relative_error:.3e} vs {tolerance:.0e}",
     False, lambda c: check_ball_sphere_relation(c["max_degree"])),
    ("norms", "relative errors sphere {sphere_norm_rel_error:.3e}, scalar"
     " {scalar_norm_rel_error:.3e}, constants {constants_scalar_norm_rel_error:.3e}"
     " vs {tolerance:.0e}", False, lambda c: check_norms(c["max_degree"])),
    ("taylor", "round trip exact {round_trip_exact}, permutation oracle match"
     " {permutation_oracle_match}", False, lambda c: check_taylor(c["max_degree"])),
    ("bounds.corollary", _RATIO, True,
     lambda c: bohr_mod.verify_corollary_bounds(c["max_degree"]).to_json_dict()),
    ("bounds.pointwise", _RATIO, True,
     lambda c: bohr_mod.verify_polynomial_bounds(c["max_degree"]).to_json_dict()),
    ("bounds.sc", _RATIO, True,
     lambda c: bohr_mod.verify_scalar_part_bounds(c["max_degree"]).to_json_dict()),
    ("bounds.constants", _RATIO, True,
     lambda c: bohr_mod.verify_constants_e1_bounds(c["max_degree"]).to_json_dict()),
    ("bounds.sc_ratio_lemmas", _RATIO, False,
     lambda c: bohr_mod.verify_sc_ratio_lemmas(c["max_degree"]).to_json_dict()),
    ("bounds.constants_ratio_lemma", _RATIO, False,
     lambda c: bohr_mod.verify_constants_ratio_lemma(c["max_degree"]).to_json_dict()),
    ("bohr.empirical", "max block sum {max_ratio:.6f}", False,
     lambda c: bohr_mod.empirical_bohr_sweep(c["bohr_functions"],
                                             seed=c["seed"]).to_json_dict()),
)


def build_sections(doc: dict, rows, config: dict) -> dict:
    """Build each row's section into doc at its dotted path, in row order."""
    for path, _, _, build in rows:
        *parents, key = path.split(".")
        node = doc
        for name in parents:
            node = node.setdefault(name, {})
        node[key] = build(config)
    return doc


def section_status(doc: dict, rows) -> list[tuple[str, bool, str]]:
    """(path, passed, stderr detail) for each row, in order, read from doc."""
    out = []
    for path, detail, _, _ in rows:
        section = doc
        for key in path.split("."):
            section = section[key]
        out.append((path, section["passed"], detail.format(**section)))
    return out


# -- individual check sections --------------------------------------------------


def check_monogenicity(max_degree: int) -> dict:
    """Exact kernel check: applying the Cauchy-Riemann operator gives zero."""
    failures = [f"{e.index.n}:{e.index.label}" for e in basis_elements(max_degree)
                if not e.poly.dirac().is_zero()]
    return {
        "max_degree": max_degree,
        "elements": sum(2 * n + 3 for n in range(max_degree + 1)),
        "passed": not failures,
        "failures": failures,
    }


def check_gram(max_degree: int) -> dict:
    """Ball Gram of the normalized system vs the identity, quadrature route."""
    gram = gram_matrix_ball(max_degree)
    deviation = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    return {
        "max_degree": max_degree,
        "size": gram.shape[0],
        "max_deviation": deviation,
        "tolerance": TOLERANCE,
        "passed": deviation < TOLERANCE,
    }


def check_ball_sphere_relation(max_degree: int) -> dict:
    """Ball inner products equal sphere ones over (2n+3) on the diagonal blocks.

    Quaternion-valued products on both sides, the ball side integrated with
    its own radial quadrature, compared entrywise after scaling by the
    sphere-norm product so the tolerance is relative.
    """
    elements = basis_elements(max_degree)
    sphere = sphere_gram(max_degree)
    n = np.array([e.index.n for e in elements])
    ball = sphere * radial_pairs(n)[..., None]
    same_degree = (n[:, None] == n[None, :])[..., None]
    expected = np.where(same_degree, sphere / (2 * n + 3)[:, None, None], 0.0)
    norms = sphere_norms(elements)
    worst = float((np.abs(ball - expected).max(axis=-1) / np.outer(norms, norms)).max())
    return {
        "max_degree": max_degree,
        "max_relative_error": worst,
        "tolerance": TOLERANCE,
        "passed": worst < TOLERANCE,
    }


def check_norms(max_degree: int) -> dict:
    """Quadrature norms against every closed form, worst relative error each.

    One node reduction gives the squared norm of each component of every
    element.  The sphere norm sums the four; the scalar part is component
    0; Sc(f e1) = -f_1, so the scalar part of an order-(n+1) element times
    e1 is component 1.  That closed form is used only from degree 1 up; at
    degree 0 it does not hold and the true values (1 and 0 times pi) are
    pinned instead.
    """
    rule = QuadratureRule.for_degree(2 * max_degree)
    samples = basis_samples(rule, max_degree)
    squares = np.einsum("itpc,itpc,tp->ic", samples, samples, rule.node_weights())
    sphere, sc, const = [], [], []
    for e, square in zip(basis_elements(max_degree), squares):
        n, m = e.index.n, e.index.m
        sphere.append((square.sum(), norm_sq_sphere_closed(n, m)))
        if e.index.kind == "X" and m <= n:
            sc.append((square[0], sc_norm_sq_closed(n, m)))
        if n >= 1 and m == n + 1:
            const.append((square[1], sc_e1_norm_sq_closed(n)))

    def worst(pairs) -> float:
        return max((abs(float(quad) - float(closed) * math.pi) / (float(closed) * math.pi)
                    for quad, closed in pairs), default=0.0)

    sphere_worst, sc_worst, const_worst = worst(sphere), worst(sc), worst(const)
    return {
        "max_degree": max_degree,
        "sphere_norm_rel_error": sphere_worst,
        "scalar_norm_rel_error": sc_worst,
        "constants_scalar_norm_rel_error": const_worst,
        "constants_degree_range": [1, max_degree],
        "tolerance": TOLERANCE,
        "passed": max(sphere_worst, sc_worst, const_worst) < TOLERANCE,
    }


def check_taylor(max_degree: int) -> dict:
    """Exact Taylor round-trip, failed by an inhomogeneous element, and the powers against
    their definition as the mean over all factor orders, by the polarization identity."""
    round_trip = all(e.poly.is_homogeneous()
                     and taylor_reconstruct(taylor_coefficients(e.poly)) == e.poly
                     for e in basis_elements(max_degree))
    oracle = polarization_match(max_degree)
    return {
        "max_degree": max_degree,
        "round_trip_exact": round_trip,
        "permutation_oracle_match": oracle,
        "passed": round_trip and oracle,
    }


# -- closed-form agreement tables (golden material) ------------------------------


def _agreement_variants(max_degree: int, status) -> dict:
    """Entries and tally per variant; status(n, l, variant) is agree, disagree or
    undefined (the reading divides by zero), tallied in that key order."""
    variants = {}
    for variant in BETA_VARIANTS:
        entries = [{"n": n, "l": l, "status": status(n, l, variant)}
                   for n in range(max_degree + 1) for l in range(n + 2)]
        tally = {key: sum(e["status"] == key for e in entries)
                 for key in ("agree", "disagree", "undefined")}
        variants[variant] = {"entries": entries, "summary": tally}
    return variants


def axial_agreement(max_degree: int) -> dict:
    """Printed axial closed forms vs the derivative-of-harmonic route, by variant.

    Agree means exact polynomial equality.  Nothing here is asserted;
    shifts in status are what the golden comparison guards.
    """
    def status(n: int, l: int, variant: str) -> str:
        candidate = axial_closed_form(n, l, variant)
        if candidate is None:
            return "undefined"
        return "agree" if candidate == spherical_monogenic(n, "X", l).poly else "disagree"

    return {"family": "axial-closed-forms", "max_degree": max_degree,
            "canonical": "half-conjugate-derivative-of-solid-harmonic",
            "variants": _agreement_variants(max_degree, status)}


def taylor_agreement(max_degree: int) -> dict:
    """Printed Taylor-coefficient closed forms vs exact coefficients, by variant.

    The printed sums are the x0-free coefficients of the axial closed form,
    so each candidate is read off it at the degree-n multi-indices; terms
    with x0 never reach this slice.
    """
    def status(n: int, l: int, variant: str) -> str:
        candidate = axial_closed_form(n, l, variant)
        if candidate is None:
            return "undefined"
        exact = taylor_coefficients(spherical_monogenic(n, "X", l).poly)
        same = all(candidate.coefficient((0, g1, g2)) == c for (g1, g2), c in exact.items())
        return "agree" if same else "disagree"

    return {"family": "taylor-closed-forms", "max_degree": max_degree,
            "canonical": "repeated-partials-of-basis-element",
            "variants": _agreement_variants(max_degree, status)}


# -- top-level document -----------------------------------------------------------


def build_report(max_degree: int = 6, seed: int = 0, bohr_functions: int = 100) -> dict:
    """One document covering every verification the package makes.

    Schema and config, then every SECTIONS row in order, then the parts that
    decide nothing: the radius, margins and note under bohr, and the two
    closed-form tables; passed and failed_sections close it.  Every section
    but bohr.empirical reads degrees 0..max_degree; the constants norms start
    at 1, where their closed form holds, and the empirical sweep draws its test
    functions through degree 5 whatever max_degree is.
    """
    config = {"max_degree": max_degree, "tolerance": TOLERANCE, "seed": seed,
              "bohr_functions": bohr_functions}
    doc = build_sections({"schema": SCHEMA, "config": config}, SECTIONS, config)
    # "bohr" already holds the empirical sweep; re-assigning keeps its place
    doc["bohr"] = {
        **bohr_mod.bohr_radius().to_json_dict(),
        **doc["bohr"],
        "note": ("the first series reaches 1 at r1, so the usable radius is a"
                 " rounding of r1; S1 already exceeds 1 at 0.05"),
    }
    doc["closed_form_agreement"] = {
        "axial": axial_agreement(max_degree),
        "taylor": taylor_agreement(max_degree),
    }
    failed = [path for path, ok, _ in section_status(doc, SECTIONS) if not ok]
    doc["passed"] = not failed
    doc["failed_sections"] = failed
    return doc
