"""Series thresholds, coefficient domination, and the inequality sweeps."""

import math

import numpy as np
import pytest

from monokit import bohr as bohr_mod
from monokit.basis import basis_for_degree, degree_indices, spherical_monogenic
from monokit.bohr import (bohr_radius, coefficient_domination, empirical_bohr_sum,
                          empirical_bohr_sweep, random_test_function, series_f1_threshold,
                          series_f2_threshold, series_s1, series_s2,
                          verify_constants_e1_bounds, verify_constants_ratio_lemma,
                          verify_corollary_bounds, verify_pointwise_bounds,
                          verify_sc_ratio_lemmas, verify_scalar_part_bounds)
from monokit.moments import norm_sq_sphere
from monokit.quadrature import (FourierCoeffs, QuadratureRule, bin_factors, block_table,
                                block_values, eval_terms, fourier_expand, fourier_synthesize,
                                grid_powers)
from reference_routes import (assoc_legendre_float, block_terms, eval_grid,
                              series_f1_threshold_truncated, series_f2_threshold_truncated,
                              series_s1_truncated, series_s2_truncated, sphere_grid)

R1 = 0.049583846938703394
R2 = 0.5695633074465153


def test_series_closed_forms_match_truncation():
    for r in (0.01, 0.049, 0.2):
        assert abs(series_s1(r) - series_s1_truncated(r, 400)) < 1e-13
    for r in (0.1, 0.5695, 1.5):
        assert abs(series_s2(r) - series_s2_truncated(r, 40)) < 1e-13


def test_series_are_monotone():
    grid = np.linspace(0.0, 0.49, 50)
    s1 = [series_s1(r) for r in grid]
    s2 = [series_s2(r) for r in grid]
    assert all(a < b for a, b in zip(s1, s1[1:]))
    assert all(a < b for a, b in zip(s2, s2[1:]))


def test_series_domain():
    with pytest.raises(ValueError):
        series_s1(0.5)
    with pytest.raises(ValueError):
        series_s2(-0.1)


def test_first_threshold():
    r1 = series_f1_threshold()
    assert 0.0490 < r1 < 0.0500
    assert abs(r1 - 0.0496) < 0.0004
    assert abs(r1 - R1) < 1e-9
    assert abs(series_s1(r1) - 1.0) < 1e-10
    assert abs(r1 - series_f1_threshold_truncated()) < 1e-10


def test_second_threshold():
    r2 = series_f2_threshold()
    assert 0.5695 < r2 < 0.5700
    assert abs(r2 - 0.5697) < 0.0002
    assert r2 == math.log1p(math.sqrt(3.0 * math.pi) / 4.0)
    assert abs(r2 - R2) < 1e-12
    assert abs(series_s2(r2) - 1.0) < 1e-12
    assert abs(r2 - series_f2_threshold_truncated()) < 1e-10


def test_margin_anchors():
    # the headline 0.05 is a rounding of r1: already slightly past threshold
    assert series_s1(0.047) == pytest.approx(0.9387763414387241, rel=1e-12)
    assert series_s1(0.05) == pytest.approx(1.0099690075854897, rel=1e-12)
    assert series_s1(0.047) < 1.0
    assert series_s1(0.05) > 1.0


def test_radius_report():
    report = bohr_radius(extra_radii=(0.03,))
    assert report.radius == min(report.r1, report.r2) == report.r1
    assert report.f1_binds
    assert 0.03 in report.margins and 0.047 in report.margins
    doc = report.to_json_dict()
    assert doc["f1_binds"] is True
    assert doc["radius"] < 0.05


def test_coefficient_domination_examples():
    near_one = 1.0 - 1e-15
    assert coefficient_domination(1, "X", 0, 0.0, near_one) == \
        pytest.approx(3.0 / (2.0 * math.sqrt(math.pi)), rel=1e-12)
    assert coefficient_domination(1, "X", 1, 0.0, near_one) == \
        pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)
    assert coefficient_domination(1, "X", 2, 0.0, 0.5) == \
        pytest.approx(0.5 / math.sqrt(3.0 * math.pi), rel=1e-12)


def test_coefficient_domination_validation():
    with pytest.raises(ValueError):
        coefficient_domination(1, "X", 0, 0.0, 0.0)
    with pytest.raises(ValueError):
        coefficient_domination(1, "X", 0, 0.0, 1.0)
    with pytest.raises(ValueError):
        coefficient_domination(1, "Y", 0, 0.0, 0.5)
    with pytest.raises(ValueError):
        coefficient_domination(1, "X", 3, 0.0, 0.5)


def test_witness_is_the_earliest_case_near_the_maximum():
    from monokit.bohr import _sweep
    above = float(np.nextafter(1.0, 2.0))  # one ulp above 1
    cases = [(0.5, {"i": 0}), (1.0, {"i": 1}), (above, {"i": 2})]
    report = _sweep("ties", (0, 1), cases)
    assert report.max_ratio == above and not report.passed
    assert report.worst_case == {"i": 2}
    assert report.tight_cases == [{"i": 1}]
    report = _sweep("ties", (0, 1), cases + [(1.5, {"i": 3}), (1.5, {"i": 4})])
    assert report.worst_case == {"i": 3}


def test_sweep_pass_rules_samples_and_empty_sweep():
    from monokit.bohr import _sweep
    cases = [(0.25, {"i": 0}), (1.0, {"i": 1})]
    default = _sweep("exact-one", (0, 1), cases)
    assert default.passed
    assert default.samples == 2
    assert default.max_ratio == 1.0 and default.worst_case == {"i": 1}
    strict = _sweep("exact-one", (0, 1), iter(cases), passes=lambda max_ratio: max_ratio < 1.0)
    assert not strict.passed and strict.samples == 2
    empty = _sweep("empty", (1, 0), iter(()))
    assert empty.max_ratio == 0.0
    assert empty.passed
    assert empty.worst_case == {}
    assert empty.samples == 0 and empty.tight_cases == []


def test_corollary_bounds_sweep():
    report = verify_corollary_bounds(5)
    assert report.passed
    assert report.max_ratio <= 1.0 + 1e-12
    assert report.samples > 0


def test_corollary_family_fails_on_a_broken_coefficient(monkeypatch):
    real = bohr_mod.taylor_coefficients

    def inflated(poly):
        coefficients = real(poly)
        if poly == spherical_monogenic(2, "Y", 1).poly:
            coefficients[(1, 1)] = 100 * coefficients[(1, 1)]
        return coefficients

    monkeypatch.setattr(bohr_mod, "taylor_coefficients", inflated)
    report = verify_corollary_bounds(4)
    assert not report.passed and report.max_ratio == math.inf
    assert report.worst_case == {"n": 2, "index": "Y:1", "gamma": [1, 1]}


def test_pointwise_bounds_sweep():
    reports = verify_pointwise_bounds(4)
    assert all(r.passed for r in reports.values())
    assert reports["polynomial"].samples == 35  # one decided case per element
    sc = reports["scalar-part"]
    assert {"n": 0, "index": "X:0"} in sc.tight_cases
    const = reports["constants-e1"]
    assert {"n": 0, "kind": "X"} in const.tight_cases
    assert all({"n": n, "kind": "X"} in const.tight_cases for n in range(5))


def test_polynomial_family_certifies_above_a_ball_sample():
    # reference oracle: |f| at seeded random ball points never exceeds the
    # certified sup, element by element, through degree 8
    rng = np.random.default_rng(0)
    direction = rng.normal(size=(2000, 3))
    radius = rng.random(2000) ** (1.0 / 3.0)
    points = (direction / np.linalg.norm(direction, axis=1, keepdims=True) * radius[:, None]).T
    certified = {}
    report = bohr_mod.verify_polynomial_bounds(8)
    assert report.passed and report.samples == 99
    for n in range(9):
        for e in basis_for_degree(n):
            sup_sq = bohr_mod._sphere_sup_sq(n, e.norm_sq_S)
            bound = bohr_mod.pointwise_polynomial_bound(n, e.index.m)
            certified[n, e.index.label] = math.sqrt(sup_sq) / bound
            moduli = np.sqrt((eval_grid(e.poly, *points) ** 2).sum(axis=-1))
            sampled = float(np.max(moduli / (bound * radius ** n)))
            assert sampled <= certified[n, e.index.label] * (1.0 + 1e-12)
    assert report.max_ratio == max(certified.values()) == certified[0, "X:0"]
    assert report.worst_case == {"n": 0, "index": "X:0"}


def test_polynomial_family_fails_on_a_non_harmonic_element(monkeypatch):
    from monokit.basis import BasisElement
    from monokit.mpoly import MPoly
    real = bohr_mod.basis_for_degree

    def broken(n):
        if n != 3:
            return real(n)
        return tuple(BasisElement(e.index, e.poly + MPoly.monomial((1, 2, 0), 1))
                     if e.index.label == "Y:2" else e for e in real(n))

    monkeypatch.setattr(bohr_mod, "basis_for_degree", broken)
    report = bohr_mod.verify_polynomial_bounds(4)
    assert not report.passed and report.max_ratio == math.inf
    assert report.worst_case == {"n": 3, "index": "Y:2"}


def test_sphere_families_are_tight_where_the_bound_is_attained():
    sc = verify_scalar_part_bounds(8)
    assert sc.passed and sc.samples == 81  # one per decided element, 2n+1 at degree n
    assert all({"n": n, "index": "X:0"} in sc.tight_cases for n in range(9))
    const = verify_constants_e1_bounds(8)
    assert const.passed and const.max_ratio == 1.0
    assert all({"n": n, "kind": kind} in const.tight_cases
               for n in range(1, 9) for kind in ("X", "Y"))


def test_scalar_part_family_fails_on_a_broken_factorization(monkeypatch):
    real = bohr_mod.solid_harmonic
    monkeypatch.setattr(bohr_mod, "solid_harmonic", lambda deg, kind, m: (
        2 * real(deg, kind, m) if (deg, kind, m) == (3, "V", 2) else real(deg, kind, m)))
    report = verify_scalar_part_bounds(4)
    assert not report.passed and report.max_ratio == math.inf
    assert report.worst_case == {"n": 3, "index": "Y:2"}


def test_scalar_part_family_fails_on_a_non_harmonic_scalar_part(monkeypatch):
    from monokit.basis import BasisElement
    from monokit.mpoly import MPoly
    extra = MPoly.monomial((1, 2, 0), 1)  # x0 x1^2, Laplacian 2 x0
    real_basis, real_harmonic = bohr_mod.basis_for_degree, bohr_mod.solid_harmonic

    def broken(n):
        if n != 3:
            return real_basis(n)
        return tuple(BasisElement(e.index, e.poly + extra)
                     if e.index.label == "Y:2" else e for e in real_basis(n))

    # Sc Y^2_3 = 3 V^2_3 still factors, so only the premise can fail
    monkeypatch.setattr(bohr_mod, "basis_for_degree", broken)
    monkeypatch.setattr(bohr_mod, "solid_harmonic", lambda deg, kind, m: (
        real_harmonic(deg, kind, m) + extra / 3 if (deg, kind, m) == (3, "V", 2)
        else real_harmonic(deg, kind, m)))
    report = verify_scalar_part_bounds(4)
    assert not report.passed and report.max_ratio == math.inf
    assert report.worst_case == {"n": 3, "index": "Y:2"}


def test_scalar_part_family_certifies_above_the_t_grid():
    # reference oracle: the 20,001-point t grid of |P^m_n| never exceeds the
    # certified sup of Sc X^m_n = (n+1+m)/2 r^n U^m_n; both read (n+1)/2 at m = 0
    t = np.linspace(-1.0, 1.0, 20001)
    for n in range(13):
        for m in range(n + 1):
            grid = (n + 1 + m) / 2.0 * float(np.max(np.abs(assoc_legendre_float(n, m, t))))
            sc = spherical_monogenic(n, "X", m).poly.sc()
            certified = math.sqrt(bohr_mod._harmonic_sup_sq(sc, n, norm_sq_sphere(sc)))
            assert grid <= certified * (1.0 + 1e-12)
            if m == 0:
                assert grid == certified == (n + 1) / 2


def test_constants_family_fails_on_a_broken_factorization(monkeypatch):
    real = bohr_mod.complex_power_parts
    monkeypatch.setattr(bohr_mod, "complex_power_parts", lambda m: (
        tuple(2 * part for part in real(m)) if m == 2 else real(m)))
    report = verify_constants_e1_bounds(4)
    assert not report.passed and report.max_ratio == math.inf
    assert report.worst_case == {"n": 2, "kind": "X"}


def test_ratio_lemmas():
    assert verify_sc_ratio_lemmas(6).passed
    report = verify_constants_ratio_lemma(6)
    assert report.passed
    assert report.worst_case == {"k": 1}
    assert report.to_json_dict()["note"].startswith("k=0 X-branch ratio 0.25")
    assert verify_constants_ratio_lemma(0).worst_case == {}
    assert "note" not in verify_sc_ratio_lemmas(2).to_json_dict()


def test_scalar_part_family_and_its_ratio_lemmas_decide_the_same_inequality():
    # both decide sup |Sc X^m_n| <= (n+1+m)!/(2 n!) from one exact quotient
    for n in range(9):
        sc, lemmas = verify_scalar_part_bounds(n), verify_sc_ratio_lemmas(n)
        assert sc.max_ratio == lemmas.max_ratio == 1.0
        assert ([(case["n"], case["index"]) for case in sc.tight_cases]
                == [(case["k"], f"X:{case['m']}") for case in lemmas.tight_cases])
        constants = verify_constants_ratio_lemma(n)
        if n == 0:  # the lemma starts at k = 1
            assert constants.samples == 0
        else:
            assert constants.max_ratio == 0.5


def test_random_function_hypotheses():
    rng = np.random.default_rng(12)
    theta = np.linspace(0.0, math.pi, 361)[:, None]
    phi = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)[None, :]
    for _ in range(5):
        values = fourier_synthesize(random_test_function(rng), np.cos(theta), np.sin(theta), phi)
        assert float(np.sqrt((values ** 2).sum(axis=-1)).max()) < 1.0
        assert float(values[..., 0].min()) > 0.0


def test_empirical_sum_for_constant():
    from fractions import Fraction
    from monokit.mpoly import MPoly
    f = MPoly.scalar(Fraction(3, 4))
    coeffs = fourier_expand(f, 2, QuadratureRule.for_degree(6))
    for r in (0.0, 0.049, 0.3):
        assert empirical_bohr_sum(coeffs, r) == pytest.approx(0.75, abs=1e-12)


def test_random_function_is_the_exact_combination_it_draws():
    # in-test reference: the same draws combined as exact degree blocks, each
    # block's sup bound read from its own exact sphere norm, and the rescaled
    # polynomial expanded by quadrature
    from fractions import Fraction
    from monokit.mpoly import MPoly
    from monokit.moments import norm_sq_sphere
    for seed in range(4):
        coeffs = random_test_function(np.random.default_rng(seed), max_degree=3)
        rng = np.random.default_rng(seed)
        constant = Fraction(int(rng.integers(4, 13)), 16)
        blocks = [MPoly.zero() for _ in range(4)]
        for n in range(4):
            for e in basis_for_degree(n):
                blocks[n] = blocks[n] + Fraction(int(rng.integers(-9, 10)), 8) * e.poly
        ticks = 0
        for n, block in enumerate(blocks):
            sup_sq = Fraction(2 * n + 1, 4) * norm_sq_sphere(block) * 1024 ** 2
            ticks += math.isqrt(math.ceil(sup_sq)) + 1  # the next multiple of 1/1024 up
        combo = sum(blocks, MPoly.zero())
        scale = min(constant, 1 - constant) * Fraction(3, 4) / Fraction(ticks, 1024)
        f = MPoly.scalar(constant) + scale * combo
        reference = fourier_expand(f, 3, QuadratureRule.for_degree(6))
        assert coeffs.max_degree == 3
        assert set(coeffs.values) == set(reference.values)
        for key, value in reference.values.items():
            assert coeffs.values[key] == pytest.approx(value, rel=1e-12, abs=1e-15)


def test_empirical_sweep_draws_the_pinned_functions():
    # pinned at the scale read from exact block norms (the sphere-norm sup bound)
    report = empirical_bohr_sweep(20, seed=0)
    assert report.max_ratio == pytest.approx(0.7500025875660524, rel=1e-12)
    assert report.worst_case == {"function": 14}


def test_empirical_sum_matches_per_element_reference():
    coeffs = random_test_function(np.random.default_rng(3), max_degree=5)
    assert all(any(abs(c) > 1e-6 for c in coeffs.block(n)) for n in range(6))
    theta = np.linspace(0.0, math.pi, 65)[:, None]
    phi = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)[None, :]
    s = np.sin(theta)
    grid = (np.cos(theta) * np.ones_like(phi), s * np.cos(phi), s * np.sin(phi))
    r = 0.9
    reference = 0.0
    for n in range(6):
        block = np.zeros(grid[0].shape + (4,))
        for e, c in zip(basis_for_degree(n), coeffs.block(n)):
            block += c * math.sqrt(2 * n + 3) / float(e.norm_S) * eval_grid(e.poly, *grid)
        reference += r ** n * float(np.sqrt((block ** 2).sum(axis=-1)).max())
    assert empirical_bohr_sum(coeffs, r) == pytest.approx(reference, rel=1e-13)


def _half_grid():
    """The first 64 of the 128 phi nodes of the 65 x 128 sphere grid: phi in [0, pi)."""
    x0, rho, phi = sphere_grid(65, 128)
    return x0, rho, phi[:, :64]


def _normal_draw(rng, max_degree=8):
    return FourierCoeffs(max_degree, {(ix.n, ix.label): float(rng.normal())
                                      for n in range(max_degree + 1) for ix in degree_indices(n)})


def _per_block_bohr_sum(coeffs, r, grids):
    # reference: each block folded to one term list, evaluated by eval_terms on every grid
    total = 0.0
    for n in range(coeffs.max_degree + 1):
        terms = block_terms(n, coeffs.block(n))
        total += r ** n * math.sqrt(max((eval_terms(terms, *grid) ** 2).sum(axis=-1).max()
                                        for grid in grids))
    return total


def test_blocks_flip_sign_exactly_at_the_antipodes_of_the_half_grid():
    # the premise of the 65 x 64 sup: block n at (-x0, -rho, phi) is (-1)^n times its value at
    # (x0, rho, phi), in every bit but the sign of a zero (+ 0.0 clears that sign on both sides)
    x0, rho, phi = _half_grid()
    coeffs = _normal_draw(np.random.default_rng(29))
    for n in range(9):
        sign = (-1.0) ** n
        terms = block_terms(n, coeffs.block(n))
        here, there = eval_terms(terms, x0, rho, phi), eval_terms(terms, -x0, -rho, phi)
        assert np.count_nonzero(here) >= 3 * here.size // 4
        assert (sign * here + 0.0).tobytes() == (there + 0.0).tobytes()
        factors = bohr_mod._bohr_block_factors(n)
        assert [f.shape[-2:] for f in factors] == [(1, 64), (1, 64), (65, 1)]
        antipodes = bin_factors(block_table(n)[1], grid_powers(-x0, -rho, phi, n))
        here, there = block_values(coeffs, n, factors), block_values(coeffs, n, antipodes)
        assert here.shape == (4, 65, 64)
        assert (sign * here + 0.0).tobytes() == (there + 0.0).tobytes()


def test_empirical_sum_equals_the_per_block_route_bit_for_bit():
    rng = np.random.default_rng(23)
    draws = [random_test_function(rng) for _ in range(20)]
    draws.append(_normal_draw(rng))
    x0, rho, phi = _half_grid()
    closed = [(x0, rho, phi), (-x0, -rho, phi)]  # the half grid closed under x -> -x
    for coeffs in draws:
        for r in (0.049, 0.9):
            got = empirical_bohr_sum(coeffs, r)
            assert got == _per_block_bohr_sum(coeffs, r, closed)
            # the open 65 x 128 grid, with no exact antipodes, gives the sup to roundoff
            assert got == pytest.approx(_per_block_bohr_sum(coeffs, r, [sphere_grid(65, 128)]),
                                        rel=1e-15, abs=0.0)
    # the blocks themselves, on every node of the half grid
    for n in range(9):
        values = np.moveaxis(block_values(draws[-1], n, bohr_mod._bohr_block_factors(n)), 0, -1)
        want = eval_terms(block_terms(n, draws[-1].block(n)), x0, rho, phi)
        assert values.tobytes() == want.tobytes()


def test_empirical_sweep_small():
    report = empirical_bohr_sweep(8, r=0.049, seed=42)
    assert report.passed
    assert report.max_ratio < 1.0
    assert report.samples == 8


def test_empirical_sum_rejects_bad_radius():
    coeffs = random_test_function(np.random.default_rng(1), max_degree=2)
    with pytest.raises(ValueError):
        empirical_bohr_sum(coeffs, 1.0)
