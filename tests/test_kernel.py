"""The integer polynomial product kernel against the term-by-term Quaternion loop,
the canonical integer form every MPoly is stored in, and an exact layer free of NumPy."""

import ast
import doctest
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import monokit.legendre
import monokit.mpoly
import monokit.quadrature
import monokit.quaternion
from monokit.basis import basis_for_degree, solid_harmonic
from monokit.fueter import fueter_power, taylor_coefficients, taylor_reconstruct
from monokit.mpoly import MPoly, Z1, Z2, sum_of_products
from monokit.quaternion import E1, E2, E3, Quaternion

repeatable = settings(derandomize=True, database=None, deadline=None)

fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
quaternions = st.builds(Quaternion, fractions, fractions, fractions, fractions)
exponents = st.tuples(*[st.integers(0, 3)] * 3)
polys = st.dictionaries(exponents, quaternions, max_size=6).map(MPoly)
reals = st.integers(-30, 30) | fractions
nonzero_reals = reals.filter(bool)


def _reference_product(f: MPoly, g: MPoly) -> MPoly:
    # the term-by-term Quaternion loop that MPoly.__mul__ used to be
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            exp = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            prod = c1 * c2
            out[exp] = out[exp] + prod if exp in out else prod
    return MPoly(out)


def _reference_dirac(f: MPoly, sign: int) -> MPoly:
    return (f.partial(0)
            + _reference_product(MPoly.scalar(sign * E1), f.partial(1))
            + _reference_product(MPoly.scalar(sign * E2), f.partial(2)))


@repeatable
@given(polys, polys)
def test_product_matches_the_quaternion_loop(f, g):
    assert f * g == _reference_product(f, g)
    assert g * f == _reference_product(g, f)


@repeatable
@given(polys, quaternions, reals)
def test_scalar_multiples_keep_their_side(f, q, c):
    assert q * f == MPoly({exp: q * coeff for exp, coeff in f.terms.items()})
    assert f * q == MPoly({exp: coeff * q for exp, coeff in f.terms.items()})
    assert c * f == f * c == MPoly({exp: coeff * c for exp, coeff in f.terms.items()})


@repeatable
@given(polys)
def test_dirac_matches_the_quaternion_loop(f):
    assert f.dirac() == _reference_dirac(f, 1)
    assert f.dirac_bar() == _reference_dirac(f, -1)


def test_dirac_matches_the_quaternion_loop_on_the_basis_and_its_harmonics():
    # exponents up to 13 and large integers, beyond what the drawn polynomials reach
    for n in range(13):
        harmonics = [solid_harmonic(n + 1, kind, m)
                     for kind, low in (("U", 0), ("V", 1)) for m in range(low, n + 2)]
        for f in harmonics + [e.poly for e in basis_for_degree(n)]:
            assert f.dirac() == _reference_dirac(f, 1)
            assert f.dirac_bar() == _reference_dirac(f, -1)
            assert f.laplacian() == sum((f.partial(i).partial(i) for i in range(3)), MPoly.zero())


@repeatable
@given(st.lists(st.tuples(polys, polys), max_size=4))
def test_sum_of_products_matches_the_quaternion_loop(pairs):
    want = MPoly.zero()
    for f, g in pairs:
        want = want + _reference_product(f, g)
    assert sum_of_products(pairs) == want


def test_sum_of_products_rescales_pairs_of_different_denominators():
    f = MPoly({(1, 0, 0): Quaternion(Fraction(1, 3), 0, 0, Fraction(2, 7)),
               (0, 1, 1): Quaternion(0, Fraction(-5, 12), 1, 0)})
    g = MPoly({(1, 0, 0): Quaternion(Fraction(3, 4), Fraction(1, 5), 0, 0),
               (0, 0, 2): E3 * Fraction(7, 11)})
    pairs = [(f, g), (g, f), (g, g), (MPoly.scalar(E1), Z1 * Fraction(1, 9)),
             (Z2, MPoly.scalar(E2))]
    assert len({a.den * b.den for a, b in pairs}) == 4
    want = MPoly.zero()
    for a, b in pairs:
        want = want + _reference_product(a, b)
    assert sum_of_products(pairs) == want
    assert sum_of_products([]) == MPoly.zero()
    assert sum_of_products([(f, MPoly.zero())]) == MPoly.zero()


def test_stored_form_scales_by_the_lcm():
    f = MPoly({(0, 0, 0): Quaternion(Fraction(1, 4), 0, Fraction(-1, 6), 0),
               (2, 0, 1): Quaternion(0, 0, 0, 3), (1, 1, 1): Quaternion()})
    assert f.den == 12
    assert sorted(f.ints.items()) == [((0, 0, 0), [3, 0, -2, 0]), ((2, 0, 1), [0, 0, 0, 36])]
    assert (MPoly.zero().den, MPoly.zero().ints) == (1, {})
    assert (f - f).den == 1 and not (f - f).ints


def _assert_canonical(p: MPoly) -> None:
    assert p.den > 0
    assert math.gcd(p.den, *(x for comps in p.ints.values() for x in comps)) == 1
    assert all(len(comps) == 4 and any(comps) for comps in p.ints.values())
    assert all(coeff for coeff in p.terms.values())
    assert MPoly(p.terms) == p


@repeatable
@given(polys, polys, quaternions, nonzero_reals)
def test_every_operation_returns_the_canonical_form(f, g, q, c):
    for p in (f, g, f + g, f - g, -f, f * g, q * f, f * q, c * f, f / c, f.conjugate(),
              f.dirac(), f.dirac_bar(), f.laplacian(), *(f.partial(i) for i in range(3))):
        _assert_canonical(p)
    for a, b in ((f, g), (f, MPoly(f.terms)), (f + g - g, f), (f * 0, MPoly.zero())):
        assert (a == b) == (dict(a.terms) == dict(b.terms))
    assert (f / c).terms == {exp: coeff / c for exp, coeff in f.terms.items()}


def test_division_by_zero_raises_and_negative_divisors_keep_den_positive():
    f = Z1 * Fraction(3, 4)
    for zero in (0, Fraction(0)):
        for p in (f, MPoly.zero()):
            with pytest.raises(ZeroDivisionError):
                p / zero
    for divisor in (-3, Fraction(-2, 9)):
        quotient = f / divisor
        assert quotient.den > 0
        assert quotient == MPoly({exp: coeff / divisor for exp, coeff in f.terms.items()})
    with pytest.raises(TypeError):
        f.terms[(0, 1, 0)] = Quaternion(1)


def _assert_floats_match_the_view(p: MPoly) -> None:
    assert p.float_terms() == [(e, c.to_floats()) for e, c in p.sorted_terms()]


@repeatable
@given(polys)
def test_float_terms_equal_the_view_floats_bit_for_bit(f):
    _assert_floats_match_the_view(f)
    _assert_floats_match_the_view(f * Fraction(1, 7) + f.dirac())


def test_basis_float_terms_equal_the_view_floats_bit_for_bit():
    for n in range(13):
        for element in basis_for_degree(n):
            _assert_floats_match_the_view(element.poly)


def test_taylor_reconstruct_matches_the_additive_loop():
    for n in range(9):
        for element in basis_for_degree(n):
            tc = taylor_coefficients(element.poly)
            want = MPoly.zero()
            for gamma, c in tc.items():
                if c:
                    want = want + _reference_product(fueter_power(*gamma), MPoly.scalar(c))
            assert taylor_reconstruct(tc) == want == element.poly


# every component drawn nonzero, so each unit part of V_gamma meets all four units of c
full_quaternions = st.builds(Quaternion, *[fractions.filter(bool)] * 4)
gammas = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda g: sum(g) <= 6)


@repeatable
@given(st.dictionaries(gammas, full_quaternions | quaternions, max_size=5))
def test_taylor_reconstruct_matches_the_quaternion_loop_on_full_quaternions(tc):
    want = MPoly.zero()
    for gamma, c in tc.items():
        want = want + _reference_product(fueter_power(*gamma), MPoly.scalar(c))
    assert taylor_reconstruct(tc) == want


@pytest.mark.parametrize("module", [monokit.mpoly, monokit.quaternion, monokit.legendre,
                                    monokit.quadrature])
def test_doctests_pass(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0


def _imports(name):
    """Modules that monokit.<name> imports, package modules as 'monokit.<module>'."""
    tree = ast.parse((Path(monokit.mpoly.__file__).parent / f"{name}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:  # from .x import y; from . import x
            yield from ([f"monokit.{node.module}"] if node.module else
                        [f"monokit.{alias.name}" for alias in node.names])
        elif isinstance(node, ast.ImportFrom):
            yield node.module


@pytest.mark.parametrize("name", ["quaternion", "mpoly", "legendre", "moments", "basis", "fueter"])
def test_the_exact_layer_imports_no_numpy(name):
    # the modules name reaches through its package imports, itself included
    reached, todo = set(), [f"monokit.{name}"]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            imports = set(_imports(module.removeprefix("monokit.")))
            assert not {m for m in imports if m.split(".")[0] == "numpy"}, f"{module} imports numpy"
            todo += [m for m in imports if m.startswith("monokit.")]
    float_layer = {"monokit.quadrature", "monokit.bohr", "monokit.report", "monokit.cli"}
    assert not reached & float_layer, f"monokit.{name} reaches {sorted(reached & float_layer)}"


def test_public_names_resolve():
    missing = [name for name in monokit.__all__ if not hasattr(monokit, name)]
    assert not missing
