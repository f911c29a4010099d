"""Sparse quaternion-coefficient polynomials: ring ops, operators, wire format."""

import json
import re
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from monokit import mpoly
from monokit.fueter import fueter_power
from monokit.mpoly import MPoly, X0, X1, X2, Z1, Z2
from monokit.quadrature import eval_terms
from monokit.quaternion import E1, E2, Quaternion, parse_components, parse_frac_parts
from reference_routes import block_terms, eval_grid, evaluate, point, sphere_grid


def test_construction_and_degree():
    p = X0 * X0 + Fraction(1, 2) * X1
    assert p.degree() == 2
    assert not p.is_homogeneous()
    assert MPoly.zero().degree() == -1
    assert MPoly.one().degree() == 0


def test_left_coefficients_do_not_commute():
    p = X0 * E1
    q = E1 * X0
    assert p == q  # variables are central, so scalar placement is immaterial
    r = (E1 * X0) * (E2 * X1)
    assert r.coefficient((1, 1, 0)) == E1 * E2
    s = (E2 * X1) * (E1 * X0)
    assert s.coefficient((1, 1, 0)) == E2 * E1
    assert r != s


def test_fueter_variables_are_monogenic():
    assert Z1.dirac().is_zero()
    assert Z2.dirac().is_zero()
    assert not X0.dirac().is_zero()


def test_laplacian_factors_through_dirac():
    p = (Z1 * Z1 * Z2) + Fraction(3, 5) * (X0 * X1 * X2) * E2
    assert p.dirac_bar().dirac() == p.laplacian()
    assert p.dirac().dirac_bar() == p.laplacian()


def test_harmonic_degree_is_the_same_before_and_after_dirac():
    # harmonic but not monogenic; monogenic; monogenic but not homogeneous; neither
    cases = [(lambda: X1 * X1 - X2 * X2, 2), (lambda: Z1 * Z2 + Z2 * Z1, 2),
             (lambda: Z1 + MPoly.one(), None), (lambda: X0 * X0, None)]
    for build, want in cases:
        first, second = build(), build()
        assert first.harmonic_degree() == want
        first.dirac(), first.dirac_bar()
        assert first.harmonic_degree() == want
        second.dirac(), second.dirac_bar()
        assert second.harmonic_degree() == want
    assert (Z1 * Z2 + Z2 * Z1) / 2 == fueter_power(1, 1)


def test_results_of_arithmetic_start_with_empty_memos():
    f, g = X1 * X1 - X2 * X2, Z1 * Z2
    for p in (f, g):  # fill every memo of the operands
        p.harmonic_degree(), p.dirac(), p.terms, p.units
    results = [f + g, f - g, -f, f * g, f * E1, E1 * f, f / 3, f.conjugate(), f.component(0),
               f.partial(1), f.dirac(), f.laplacian(), MPoly.from_json(f.to_json())]
    for p in results:
        assert p._harmonic is mpoly._UNDECIDED
        assert p._units is None and p._terms is None
    assert (f * X0).harmonic_degree() == 3  # x0 times a harmonic stays harmonic
    assert (f * X1).harmonic_degree() is None and (f + X0 * X0).harmonic_degree() is None


def test_units_view_splits_the_terms_by_unit():
    p = X0 * Quaternion(1, 0, Fraction(-2, 3), 0) + X1 * X2 * E1 * Fraction(5, 6)
    assert p.den == 6
    assert p.units == (((((1, 0, 0), 6),), (((0, 1, 1), 5),), (((1, 0, 0), -4),), ()))
    assert p.units is p.units
    assert MPoly.zero().units == ((), (), (), ())


def test_euler_identity_on_homogeneous_parts():
    p = Z1 * Z2 * Z1
    n = p.degree()
    euler = X0 * p.partial(0) + X1 * p.partial(1) + X2 * p.partial(2)
    assert euler == Fraction(n) * p


def test_evaluate_exact():
    p = X0 * X0 - X1 * X2 * E1
    x = point(Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5))
    value = evaluate(p, x)
    assert value == Quaternion(Fraction(1, 4), Fraction(2, 15), 0, 0)
    with pytest.raises(TypeError):
        evaluate(p, (0.5, 0, 0))


def test_eval_grid_matches_evaluate():
    p = Z1 * Z2 + Fraction(7, 3) * X2 * E2
    xs = point(Fraction(1, 4), Fraction(-2, 3), Fraction(0))
    grid = eval_grid(p, np.array([float(xs[0])]), np.array([float(xs[1])]),
                     np.array([float(xs[2])]))
    exact = evaluate(p, xs)
    assert np.allclose(grid[0], [float(c) for c in exact.components()], atol=1e-15)


def test_eval_grid_at_scalar_points():
    from monokit.basis import basis_for_degree
    x = point(Fraction(1, 2), Fraction(1, 5), Fraction(1, 10))
    for element in basis_for_degree(2):
        scalar = eval_grid(element.poly, 0.5, 0.2, 0.1)
        single = eval_grid(element.poly, np.array([0.5]), np.array([0.2]), np.array([0.1]))
        assert scalar.shape == (4,)
        assert np.array_equal(scalar, single[0])
        exact = [float(c) for c in evaluate(element.poly, x).components()]
        assert np.max(np.abs(scalar - exact)) <= 1e-15


def _per_term_reference(terms, x0, x1, x2, monomials=None):
    # reference: the plain per-term evaluator, three float powers per term at
    # every point; monomials may keep them across calls on the same points
    x0, x1, x2 = np.broadcast_arrays(x0, x1, x2)
    monomials = {} if monomials is None else monomials
    out = np.zeros(x0.shape + (4,))
    for exp, comps in terms:
        if exp not in monomials:
            monomials[exp] = x0 ** exp[0] * x1 ** exp[1] * x2 ** exp[2]
        mono = monomials[exp]
        for i in range(4):
            out[..., i] += comps[i] * mono
    return out


def _factored_grids():
    from monokit.quadrature import QuadratureRule
    # the last is the Legendre shape: x0 of shape (N,), scalar rho = phi = 0
    return [QuadratureRule.for_degree(16).grid(), sphere_grid(121, 240), sphere_grid(65, 128),
            (np.linspace(-1.0, 1.0, 201), 0.0, 0.0)]


@lru_cache(maxsize=None)
def _term_lists():
    # the basis elements through degree 8; a full degree-5 series as one
    # term list, whose bins hold several (b, c) pairs;
    # some elements with components zeroed, plus an all-zero term
    from monokit.basis import basis_elements
    from monokit.bohr import random_test_function
    lists = [element.poly.float_terms() for element in basis_elements(8)]
    coeffs = random_test_function(np.random.default_rng(3), 5)
    lists.append([term for n in range(6) for term in block_terms(n, coeffs.block(n))])
    lists += [[(exp, tuple(0.0 if (k + exp[1]) % 3 == 0 else v for k, v in enumerate(comps)))
               for exp, comps in terms] + [((1, 1, 1), (0.0,) * 4)]
              for terms in lists[3:30:3]]
    return tuple(lists)


def test_eval_terms_matches_per_term_reference_on_sphere_grids():
    for x0, rho, phi in _factored_grids():
        x1, x2 = rho * np.cos(phi), rho * np.sin(phi)
        monomials = {}
        for terms in _term_lists():
            got = eval_terms(terms, x0, rho, phi)
            want = _per_term_reference(terms, x0, x1, x2, monomials)
            assert got.shape == want.shape == np.broadcast(x0, phi).shape + (4,)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_eval_grid_at_scattered_points_matches_per_term_reference():
    from monokit.basis import basis_elements
    rng = np.random.default_rng(5)
    cloud = rng.normal(size=(200, 3))
    cloud *= rng.random((200, 1)) ** (1 / 3) / np.linalg.norm(cloud, axis=1, keepdims=True)
    special = [(0, 0, 0), (0.5, 0, 0), (-0.7, 0, 0), (1, 0, 0), (-1, 0, 0),
               (-0.3, 0.4, -0.5), (-0.6, -0.8, 0), (0, -1, 0), (0, 0, -1)]
    x0, x1, x2 = np.concatenate([np.array(special, dtype=float), cloud]).T
    for element in basis_elements(8):
        got = eval_grid(element.poly, x0, x1, x2)
        want = _per_term_reference(element.poly.float_terms(), x0, x1, x2)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.all(np.abs(got[0]) == np.abs(want[0]))  # the origin: only the constant


def test_eval_terms_does_not_depend_on_term_order():
    rng = np.random.default_rng(11)
    x0, x1, x2 = rng.uniform(-1.0, 1.0, size=(3, 300))
    points = (x0, np.hypot(x1, x2), np.arctan2(x2, x1))
    # a repeated exponent adds, so reversing its two terms must not change the sum
    repeated = [((2, 1, 0), (1.5, -2.0, 0.0, 0.25)), ((0, 0, 3), (0.5, 0.5, 1.0, -1.0)),
                ((2, 1, 0), (0.125, 3.0, -1.0, 0.0))]
    for terms in _term_lists() + (repeated,):
        for at in (sphere_grid(65, 128), points):
            assert np.array_equal(eval_terms(terms, *at), eval_terms(reversed(terms), *at))


def _binned_loop_reference(terms, x0, rho, phi):
    # reference: the bin-by-bin loop, which adds radial * row into the output
    # one bin at a time, in sorted order; eval_terms must give the same bits
    x0, rho = np.broadcast_arrays(np.asarray(x0, dtype=float), np.asarray(rho, dtype=float))
    phi = np.asarray(phi, dtype=float)
    out = np.zeros((4,) + np.broadcast_shapes(x0.shape, phi.shape))
    bins = {}
    for (a, b, c), comps in sorted(terms, key=lambda term: term[0]):
        bins.setdefault((a, b + c), []).append((b, c, comps))
    for (a, s), group in sorted(bins.items()):
        radial = _power(x0, a) * _power(rho, s)
        for k in range(4):
            parts = [comps[k] * _power(np.cos(phi), b) * _power(np.sin(phi), c)
                     for b, c, comps in group if comps[k]]
            if parts:
                out[k] += radial * sum(parts)
    return np.moveaxis(out, 0, -1)


def _power(v, k):
    # v^k by repeated multiplication from 1.0, as the evaluator's power tables
    out = np.ones_like(v)
    for _ in range(k):
        out = out * v
    return out


def test_eval_terms_equals_the_binned_loop_bit_for_bit():
    rng = np.random.default_rng(17)
    x0, x1, x2 = rng.uniform(-1.0, 1.0, size=(3, 300))
    scattered = (x0, np.hypot(x1, x2), np.arctan2(x2, x1))
    for at in _factored_grids() + [scattered]:
        for terms in _term_lists():
            assert np.array_equal(eval_terms(terms, *at), _binned_loop_reference(terms, *at))
    # a one-point output is one dot product over the bins, which einsum may
    # vectorize; it equals the one-element array bit for bit, the loop to 1e-13
    for terms in _term_lists():
        got = eval_terms(terms, 0.3, 0.4, 1.1)
        assert got.shape == (4,)
        assert np.array_equal(got, eval_terms(terms, np.array([0.3]), [0.4], [1.1])[0])
        want = _binned_loop_reference(terms, 0.3, 0.4, 1.1)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_eval_terms_of_no_terms_is_zero():
    values = eval_terms([], np.ones((3, 1)), np.ones((3, 1)), np.zeros((1, 5)))
    assert values.shape == (3, 5, 4)
    assert not values.any()


def test_json_round_trip_is_stable():
    p = Z2 * Z1 - Fraction(5, 8) * (X0 * X0 * X0) + MPoly.scalar(E1 * Fraction(2, 9))
    text = p.to_json()
    q = MPoly.from_json(text)
    assert q == p
    assert q.to_json() == text
    # ascending lexicographic exponent order on the wire
    exps = [term["e"] for term in __import__("json").loads(text)["terms"]]
    assert exps == sorted(exps)


def test_json_rejects_garbage():
    with pytest.raises((ValueError, KeyError, TypeError)):
        MPoly.from_json('{"terms": [{"e": [0, 0], "c": ["1/1"]}]}')


def test_json_parse_reduces_like_the_fraction_route():
    terms = [{"e": [0, 0, 0], "c": ["2/4", "-0/3", "007/014", "0/1"]},
             {"e": [1, 2, 0], "c": ["-6/9", "10/4", "0/5", "-3/12"]},
             {"e": [0, 0, 3], "c": ["0/2", "-0/7", "000/1", "0/3"]}]
    got = MPoly.from_json(json.dumps({"terms": terms}))
    want = MPoly({tuple(t["e"]): Quaternion(*map(Fraction, t["c"])) for t in terms})
    assert (got.den, got.ints) == (want.den, want.ints) == (12, {(0, 0, 0): [6, 0, 6, 0],
                                                                 (1, 2, 0): [-8, 30, 0, -3]})
    assert got.to_json() == want.to_json()
    assert parse_frac_parts("007/014") == (1, 2) == parse_components(terms[0]["c"])[0]
    for comps, message in ((["1/0", "0/1", "0/1", "0/1"], "got '1/0'"),
                           (["1.5/2", "0/1", "0/1", "0/1"], "got '1.5/2'"),
                           (["0/1", "1/-2", "0/1", "0/1"], "got '1/-2'"),
                           (["1/1", "0/1", "0/1"], "need a list of 4 components")):
        with pytest.raises(ValueError, match=re.escape(message)):
            MPoly.from_json(json.dumps({"terms": [{"e": [0, 0, 0], "c": comps}]}))


def test_is_reduced():
    assert (X0 + X1 * E1).is_reduced()
    assert not (X0 * (E1 * E2)).is_reduced()


def test_conjugate():
    p = X0 + X1 * E1
    assert p.conjugate() == X0 - X1 * E1
    q = Z1 * Z2
    assert q.conjugate().conjugate() == q
