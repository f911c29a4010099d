"""The degree-wise orthogonal system: construction, exact norms, closed forms."""

import math
from fractions import Fraction

import numpy as np
import pytest

from monokit.basis import (BETA_VARIANTS, BasisIndex, axial_closed_form,
                           basis_for_degree, beta_coefficient, complex_power_parts, degree_indices,
                           norm_sq_sphere_closed, sc_e1_norm_sq_closed, sc_norm_sq_closed,
                           solid_harmonic, spherical_monogenic)
from monokit.legendre import double_factorial
from monokit.moments import norm_sq_ball, norm_sq_sphere
from monokit.mpoly import MPoly, X0, X1, X2
from monokit.quadrature import QuadratureRule
from monokit.quaternion import E1, E2
from reference_routes import (assoc_legendre_float, eval_grid, norm_sq_ball_closed,
                              sc_inner_product_S)


def test_degree_zero_block():
    half = Fraction(1, 2)
    polys = [e.poly for e in basis_for_degree(0)]
    assert polys[0] == MPoly.scalar(half)
    assert polys[1] == MPoly.scalar(-half * E1)
    assert polys[2] == MPoly.scalar(-half * E2)


def test_degree_one_axial_element():
    e = spherical_monogenic(1, "X", 0)
    assert e.poly == X0 + Fraction(1, 2) * X1 * E1 + Fraction(1, 2) * X2 * E2


def test_solid_harmonics_low_degree():
    assert solid_harmonic(0, "U", 0) == MPoly.one()
    with pytest.raises(ValueError):
        solid_harmonic(-1, "U", 0)
    assert solid_harmonic(1, "U", 0) == X0
    assert solid_harmonic(1, "V", 1) == X2
    half = Fraction(1, 2)
    assert solid_harmonic(2, "U", 0) == X0 * X0 - half * X1 * X1 - half * X2 * X2
    for deg in range(1, 7):
        for m in range(deg + 1):
            assert solid_harmonic(deg, "U", m).laplacian().is_zero()
            if m >= 1:
                assert solid_harmonic(deg, "V", m).laplacian().is_zero()


def test_index_ordering_and_labels():
    labels = [ix.label for ix in degree_indices(2)]
    assert labels == ["X:0", "X:1", "Y:1", "X:2", "Y:2", "X:3", "Y:3"]
    assert BasisIndex.parse(2, "Y:3") == BasisIndex("Y", 2, 3)
    with pytest.raises(ValueError):
        BasisIndex.parse(2, "Y:0")
    with pytest.raises(ValueError):
        BasisIndex.parse(2, "X:4")


def test_block_sizes():
    for n in range(7):
        assert len(basis_for_degree(n)) == 2 * n + 3


def test_monogenic_and_reduced():
    for n in range(7):
        for e in basis_for_degree(n):
            assert e.poly.dirac().is_zero()
            assert e.poly.is_reduced()
            assert e.poly.is_homogeneous()
            assert e.poly.degree() == n


def test_sphere_norms_match_closed_form():
    for n in range(9):
        for e in basis_for_degree(n):
            assert e.norm_sq_S == norm_sq_sphere_closed(n, e.index.m)
            assert norm_sq_sphere(e.poly) == e.norm_sq_S


def test_order_zero_norm_is_the_exception():
    # the generic factorial form would give (n+1)^2 (n+1)!^2 / 2 at m = 0
    for n in range(9):
        assert norm_sq_sphere_closed(n, 0) == Fraction(n + 1)
        generic = Fraction((n + 1) * math.factorial(n + 1), 2) * math.factorial(n + 1)
        assert norm_sq_sphere_closed(n, 0) != generic


def test_ball_norm_is_sphere_over_odd_weight():
    for n in range(7):
        for e in basis_for_degree(n):
            assert norm_sq_ball_closed(n, e.index.m) == e.norm_sq_S / (2 * n + 3)
            assert norm_sq_ball(e.poly) == norm_sq_ball_closed(n, e.index.m)


def test_scalar_part_norms():
    for n in range(7):
        for m in range(n + 1):
            poly = spherical_monogenic(n, "X", m).poly.sc()
            assert norm_sq_sphere(poly) == sc_norm_sq_closed(n, m)


def test_scalar_part_of_constants_times_e1():
    for n in range(1, 7):
        for kind in ("X", "Y"):
            poly = (spherical_monogenic(n, kind, n + 1).poly * E1).sc()
            assert norm_sq_sphere(poly) == sc_e1_norm_sq_closed(n)
    # degree 0 breaks the pattern: the closed form gives 1/2, truth is 1 and 0
    assert sc_e1_norm_sq_closed(0) == Fraction(1, 2)
    x_poly = (spherical_monogenic(0, "X", 1).poly * E1).sc()
    y_poly = (spherical_monogenic(0, "Y", 1).poly * E1).sc()
    assert norm_sq_sphere(x_poly) == 1
    assert norm_sq_sphere(y_poly) == 0


def test_monogenic_constants():
    for n in range(6):
        for kind in ("X", "Y"):
            p = spherical_monogenic(n, kind, n + 1).poly
            assert p.partial(0).is_zero()
            assert p.dirac().is_zero()
            assert p.dirac_bar().is_zero()


def test_monogenic_constant_eval_matches_poly():
    # X^{n+1}_n = -c (Re e1 - Im e2) and Y^{n+1}_n = -c (Im e1 + Re e2), with
    # c = (n+1)/2 (2n+1)!! and Re, Im those of (x1 + i x2)^n, exactly through
    # degree 12.  (x1 + x2 e1)^n carries Re and Im as components 0, 1.
    count = 0
    power = MPoly.one()
    for n in range(13):
        re, im = power.component(0), power.component(1)
        c = Fraction(n + 1, 2) * double_factorial(2 * n + 1)
        for kind in ("X", "Y"):
            p = spherical_monogenic(n, kind, n + 1).poly
            count += 1
            assert p == -c * (re * E1 - im * E2 if kind == "X" else im * E1 + re * E2)
        power = power * (X1 + X2 * E1)
    assert count == 26


def test_sc_closed_form_matches_poly():
    # Sc X^m_n = (n+1+m)/2 r^n U^m_n and Sc Y^m_n = (n+1+m)/2 r^n V^m_n for
    # every m <= n, exactly through degree 12
    count = 0
    for n in range(13):
        for e in basis_for_degree(n):
            m = e.index.m
            if m > n:
                continue
            count += 1
            harmonic = solid_harmonic(n, "U" if e.index.kind == "X" else "V", m)
            assert e.poly.sc() == Fraction(n + 1 + m, 2) * harmonic
    assert count == 169


def test_solid_harmonic_on_a_meridian_is_the_associated_legendre_function():
    # at (t, sqrt(1 - t^2), 0) the angle phi is 0, so r^n U^m_n = P^m_n(t)
    t = np.linspace(-1.0, 1.0, 41)
    for n in range(13):
        for m in range(n + 1):
            values = eval_grid(solid_harmonic(n, "U", m), t, np.sqrt(1.0 - t * t),
                               np.zeros_like(t))[..., 0]
            reference = assoc_legendre_float(n, m, t)
            scale = max(1.0, float(np.abs(reference).max()))
            assert float(np.abs(values - reference).max()) <= 1e-12 * scale


def test_beta_variants():
    assert BETA_VARIANTS == ("binomial-falling", "statement-rising", "proof-bare")
    # the rising reading divides by x - 1 when its index count is zero,
    # which is undefined where n + 1 - 2k = 1
    assert beta_coefficient(0, 0, 0, "statement-rising") is None
    assert beta_coefficient(2, 0, 1, "statement-rising") is None
    assert beta_coefficient(1, 0, 0, "statement-rising") == Fraction(3, 4)
    for variant in BETA_VARIANTS:
        value = beta_coefficient(3, 2, 0, variant)
        assert value is None or isinstance(value, Fraction)


def test_axial_closed_form_agreement():
    for n in range(5):
        for l in range(n + 2):
            canonical = spherical_monogenic(n, "X", l).poly
            assert axial_closed_form(n, l, "binomial-falling") == canonical
    # the other readings are kept verbatim; they do not reproduce the system
    assert axial_closed_form(2, 1, "proof-bare") != spherical_monogenic(2, "X", 1).poly


def test_complex_power_parts_are_the_binomial_expansion():
    for m in range(14):
        re = im = MPoly.zero()
        for j in range(m + 1):  # C(m, j) x1^(m-j) (i x2)^j
            monomial = MPoly.one()
            for factor in [X1] * (m - j) + [X2] * j:
                monomial = monomial * factor
            unit = 1j ** j
            re = re + math.comb(m, j) * round(unit.real) * monomial
            im = im + math.comb(m, j) * round(unit.imag) * monomial
        assert complex_power_parts(m) == (re, im)
        assert complex_power_parts(m) is complex_power_parts(m)


def test_axial_closed_forms_are_shared():
    for variant in BETA_VARIANTS:
        assert axial_closed_form(4, 2, variant) is axial_closed_form(4, 2, variant)


def test_norm_S_matches_the_quadrature_norm():
    for n in range(7):
        rule = QuadratureRule.for_degree(2 * n)
        for e in basis_for_degree(n):
            quadrature = math.sqrt(sc_inner_product_S(e.poly, e.poly, rule))
            assert e.norm_S == pytest.approx(quadrature, rel=1e-13, abs=0)
