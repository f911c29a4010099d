"""Symmetrized power polynomials and the exact Taylor expansion."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from monokit import fueter, report
from monokit.basis import (BETA_VARIANTS, BasisElement, axial_closed_form, basis_elements,
                           basis_for_degree, spherical_monogenic)
from monokit.fueter import (fueter_power, polarization_match, taylor_coefficients,
                            taylor_reconstruct)
from monokit.mpoly import MPoly, X0, X1, X2, Z1, Z2
from monokit.quaternion import E1, E2, Quaternion
from monokit.report import check_taylor
from reference_routes import (evaluate, fueter_power_bound_check, fueter_power_permutation_sum,
                              printed_axial_expansion, printed_taylor_sums)


def test_low_order_powers():
    assert fueter_power(0, 0) == MPoly.one()
    assert fueter_power(1, 0) == Z1
    assert fueter_power(0, 1) == Z2
    assert fueter_power(2, 0) == X1 * X1 - X0 * X0 - 2 * (X0 * X1) * E1
    assert fueter_power(1, 1) == X1 * X2 - (X0 * X2) * E1 - (X0 * X1) * E2


def test_powers_match_permutation_oracle():
    for n in range(8):
        for g1 in range(n + 1):
            assert fueter_power(g1, n - g1) == \
                fueter_power_permutation_sum(g1, n - g1)


def test_permutation_oracle_is_the_sum_over_all_orders():
    # the n! definition itself: every factor order, duplicates included
    for n in range(6):
        for g1 in range(n + 1):
            total = MPoly.zero()
            for order in itertools.permutations([Z1] * g1 + [Z2] * (n - g1)):
                prod = MPoly.one()
                for factor in order:
                    prod = prod * factor
                total = total + prod
            assert fueter_power_permutation_sum(g1, n - g1) == total / math.factorial(n)


def test_polarization_matches_the_recursion():
    for d in range(17):
        assert polarization_match(d)


# one power off its definition: the two orders of z1 z2 alone, and a stray term at degree 5
MUTANTS = {
    "v11-is-z1z2": ((1, 1), Z1 * Z2),
    "v11-is-z2z1": ((1, 1), Z2 * Z1),
    "v23-plus-x0^5/7": ((2, 3), fueter_power(2, 3) + MPoly.monomial((5, 0, 0), Fraction(1, 7))),
}


@pytest.fixture(params=sorted(MUTANTS))
def mutant_power(request, monkeypatch):
    """fueter.fueter_power with one value replaced, read from a table through degree 6."""
    gamma, poly = MUTANTS[request.param]
    table = {(g, n - g): fueter_power(g, n - g) for n in range(7) for g in range(n + 1)}
    table[gamma] = poly
    monkeypatch.setattr(fueter, "fueter_power", lambda g1, g2: table[(g1, g2)])


def test_polarization_rejects_a_wrong_power(mutant_power):
    assert not polarization_match(6)


def test_check_taylor_fails_on_a_wrong_power(mutant_power):
    out = check_taylor(6)
    assert out["permutation_oracle_match"] is False
    assert out["passed"] is False


def test_check_taylor_passes_again_once_a_wrong_power_is_undone(monkeypatch):
    # the reconstruction keeps no copy of a patched power: the unit view lives on each MPoly
    with monkeypatch.context() as patch:
        patch.setattr(fueter, "fueter_power", lambda g1, g2: (Z1 * Z2 if (g1, g2) == (1, 1)
                                                              else fueter_power(g1, g2)))
        out = check_taylor(6)
        assert out["round_trip_exact"] is False and out["passed"] is False
    assert fueter.fueter_power is fueter_power
    out = check_taylor(6)
    assert out["round_trip_exact"] is True and out["passed"] is True


def test_check_taylor_fails_on_an_inhomogeneous_element(monkeypatch):
    # degree-2 X:1 plus 1/7 of the degree-1 X:0: a FAIL, not a ValueError
    elements = basis_elements(3)
    k = next(i for i, e in enumerate(elements) if (e.index.n, e.index.label) == (2, "X:1"))
    elements[k] = BasisElement(elements[k].index,
                               elements[k].poly + spherical_monogenic(1, "X", 0).poly / 7)
    monkeypatch.setattr(report, "basis_elements", lambda max_degree: elements)
    out = check_taylor(3)
    assert out == {"max_degree": 3, "round_trip_exact": False,
                   "permutation_oracle_match": True, "passed": False}


def test_powers_are_monogenic():
    for n in range(9):
        for g1 in range(n + 1):
            assert fueter_power(g1, n - g1).dirac().is_zero()


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        fueter_power(-1, 2)


def test_taylor_round_trip_exact():
    for n in range(6):
        for e in basis_for_degree(n):
            tc = taylor_coefficients(e.poly)
            assert taylor_reconstruct(tc) == e.poly


def repeated_partials(f: MPoly) -> dict:
    """(1/(g1! g2!)) d^g1/dx1 d^g2/dx2 f at 0, differentiated literally."""
    n = max(f.degree(), 0)
    out = {}
    for g1 in range(n + 1):
        d = f
        for i in [1] * g1 + [2] * (n - g1):
            d = d.partial(i)
        out[(g1, n - g1)] = (evaluate(d, (Fraction(0),) * 3)
                             / (math.factorial(g1) * math.factorial(n - g1)))
    return out


def test_taylor_read_matches_repeated_partials():
    for n in range(7):
        for e in basis_for_degree(n):
            assert dict(taylor_coefficients(e.poly).items()) == repeated_partials(e.poly)
    # not monogenic, with x0 terms that the read must skip
    f = (X0 * X0 * X1 * Quaternion(1, 2, 0, 3) + X1 * X2 * X2 * E1
         - Fraction(5, 3) * (X1 * X1 * X1) + X0 * X2 * X2 * E2)
    assert not f.dirac().is_zero()
    tc = taylor_coefficients(f)
    assert dict(tc.items()) == repeated_partials(f)
    assert tc[(3, 0)] == Quaternion(Fraction(-5, 3)) and tc[(0, 3)] == 0


def test_taylor_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        taylor_coefficients(X0 + X0 * X0)


def test_taylor_coefficients_are_constants():
    tc = taylor_coefficients(spherical_monogenic(2, "X", 1).poly)
    assert sorted(gamma for gamma, _ in tc.items()) == [(0, 2), (1, 1), (2, 0)]
    for _, value in tc.items():
        assert isinstance(value, Quaternion)


def test_power_moduli_bounded_by_radius_power():
    rng = np.random.default_rng(5)
    direction = rng.normal(size=(400, 3))
    points = direction / np.linalg.norm(direction, axis=1, keepdims=True)
    points *= rng.random(400)[:, None] ** (1.0 / 3.0)
    for n in range(6):
        for g1 in range(n + 1):
            assert fueter_power_bound_check(g1, n - g1, points) <= 1.0 + 1e-12


def closed_form_taylor(n, l, variant):
    """The printed Taylor closed form: the axial form's x0-free coefficients at degree n."""
    axial = axial_closed_form(n, l, variant)
    if axial is None:
        return None
    return {(g1, n - g1): axial.coefficient((0, g1, n - g1)) for g1 in range(n + 1)}


def test_closed_form_taylor_agreement():
    for n in range(5):
        for l in range(n + 2):
            exact = taylor_coefficients(spherical_monogenic(n, "X", l).poly)
            closed = closed_form_taylor(n, l, "binomial-falling")
            assert closed is not None
            assert all(closed[gamma] == value for gamma, value in exact.items())


def test_closed_form_taylor_other_readings():
    # the alternative readings differ or blow up
    assert closed_form_taylor(0, 0, "statement-rising") is None
    bare = closed_form_taylor(2, 1, "proof-bare")
    exact = taylor_coefficients(spherical_monogenic(2, "X", 1).poly)
    assert any(bare[gamma] != value for gamma, value in exact.items())


def test_axial_closed_form_is_the_printed_expansion_and_its_taylor_slice():
    # dirac_bar of one scalar polynomial is the printed component-wise expansion,
    # and its x0-free coefficients are the printed parity-gated Taylor sums
    for n in range(9):
        for l in range(n + 2):
            for variant in BETA_VARIANTS:
                axial = axial_closed_form(n, l, variant)
                assert axial == printed_axial_expansion(n, l, variant)
                assert axial is None or not axial.is_zero()
                assert closed_form_taylor(n, l, variant) == printed_taylor_sums(n, l, variant)
