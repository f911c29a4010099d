"""Legendre bodies: exact identities, norms, and a float quadrature cross-check."""

import math
from fractions import Fraction

import numpy as np

from monokit.legendre import assoc_body, double_factorial, legendre_coeffs
from reference_routes import (assoc_legendre_float, assoc_norm_sq, assoc_norm_sq_closed,
                              ode_residual, ode_residual_body, recurrence_residual)


def poly_eval(coeffs, t: Fraction) -> Fraction:
    """Exact value of sum_k coeffs[k] t^k."""
    return sum((c * t ** k for k, c in enumerate(coeffs)), Fraction(0))


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(5) == 15
    assert double_factorial(6) == 48
    assert double_factorial(9) == 945


def test_legendre_coeffs_low_degrees():
    assert legendre_coeffs(0) == (Fraction(1),)
    assert legendre_coeffs(1) == (Fraction(0), Fraction(1))
    assert legendre_coeffs(2) == (Fraction(-1, 2), Fraction(0), Fraction(3, 2))
    assert legendre_coeffs(3) == (Fraction(0), Fraction(-3, 2), Fraction(0),
                                  Fraction(5, 2))
    assert legendre_coeffs(4) == (Fraction(3, 8), Fraction(0), Fraction(-30, 8),
                                  Fraction(0), Fraction(35, 8))


def test_legendre_endpoint_values():
    for d in range(12):
        assert poly_eval(legendre_coeffs(d), Fraction(1)) == 1
        assert poly_eval(legendre_coeffs(d), Fraction(-1)) == (-1) ** d


def test_top_order_body_is_double_factorial():
    for m in range(8):
        body = assoc_body(m, m)
        assert body == (Fraction(double_factorial(2 * m - 1)),)
    assert assoc_body(3, 5) == ()


def test_norms_match_closed_form_exactly():
    for d in range(11):
        for m in range(d + 1):
            assert assoc_norm_sq(d, m) == assoc_norm_sq_closed(d, m)


def test_recurrence_identity_exact():
    for d in range(1, 10):
        for m in range(d):
            assert recurrence_residual(d, m).is_zero()


def test_recurrence_identity_at_top_orders():
    # also holds at m = d and (trivially) m = d + 1, beyond the stated range
    for d in range(1, 10):
        assert recurrence_residual(d, d).is_zero()
        assert recurrence_residual(d, d + 1).is_zero()


def test_ode_body_identity_exact():
    for d in range(10):
        for m in range(d + 1):
            assert ode_residual_body(d, m).is_zero()


def test_ode_float_residual():
    for d, m, t in ((2, 1, 0.25), (5, 2, 0.3), (6, 0, -0.8), (7, 4, 0.62)):
        assert abs(ode_residual(d, m, t)) < 1e-9


def test_float_eval_matches_exact():
    t = Fraction(3, 7)
    for d in range(8):
        exact = poly_eval(legendre_coeffs(d), t)
        assert abs(assoc_legendre_float(d, 0, float(t)) - float(exact)) < 1e-14


def test_assoc_float_matches_exact_body_pointwise():
    for t in (Fraction(-3, 7), Fraction(0), Fraction(1, 3), Fraction(5, 6)):
        root = (1.0 - float(t) ** 2) ** 0.5
        for d in range(9):
            for m in range(d + 1):
                exact = float(poly_eval(assoc_body(d, m), t)) * root ** m
                value = assoc_legendre_float(d, m, float(t))
                assert isinstance(value, float)
                assert math.isclose(value, exact, rel_tol=1e-13), (d, m, t)


def test_quadrature_cross_check():
    """Gauss-Legendre integration of products against the closed norms."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    for d in range(9):
        for dd in range(d, 9):
            for m in range(min(d, dd) + 1):
                f = assoc_legendre_float(d, m, nodes)
                g = assoc_legendre_float(dd, m, nodes)
                integral = float(np.dot(weights, f * g))
                expected = float(assoc_norm_sq_closed(d, m)) if d == dd else 0.0
                scale = max(1.0, float(np.max(np.abs(f * g))))
                assert abs(integral - expected) < 1e-13 * scale
