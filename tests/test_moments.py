"""The real-product kernel of the moments module against the quaternion route,
and its Fischer route against its pair route."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from monokit.basis import basis_for_degree, norm_sq_sphere_closed
from monokit.moments import inner_ball, inner_sphere, norm_sq_ball, norm_sq_sphere
from monokit.mpoly import MPoly, X0
from monokit.quaternion import Quaternion
from reference_routes import inner_ball_h, inner_sphere_h, pair_real_product


def assert_kernel_matches_reference(f: MPoly, g: MPoly) -> None:
    assert inner_sphere(f, g) == inner_sphere_h(f, g).sc()
    assert inner_ball(f, g) == inner_ball_h(f, g).sc()


def assert_kernel_matches_pairs(f: MPoly, g: MPoly) -> None:
    assert inner_sphere(f, g) == pair_real_product(f, g, False)
    assert inner_ball(f, g) == pair_real_product(f, g, True)
    if f is g:
        assert norm_sq_sphere(f) == pair_real_product(f, f, False)
        assert norm_sq_ball(f) == pair_real_product(f, f, True)


def assert_harmonic_degree(f: MPoly) -> None:
    harmonic = f.is_homogeneous() and f.laplacian().is_zero()
    assert f.harmonic_degree() == (f.degree() if harmonic else None)


def test_basis_norms_take_the_pair_value_through_degree_12():
    for n in range(13):
        for e in basis_for_degree(n):
            assert e.poly.harmonic_degree() == n  # so the norm takes the Fischer route
            assert_kernel_matches_pairs(e.poly, e.poly)


def test_same_degree_basis_pairs_and_scalar_parts_take_the_pair_value():
    for n in range(7):
        elements = basis_for_degree(n)
        for e in elements:
            for g in elements:
                assert_kernel_matches_pairs(e.poly, g.poly)
                if e.index != g.index:
                    assert inner_sphere(e.poly, g.poly) == 0 == inner_ball(e.poly, g.poly)
    for n in range(9):
        parts = [e.poly.sc() for e in basis_for_degree(n)]
        for p in parts:
            assert p.harmonic_degree() == (n if p else -1)
            for q in parts:  # q is p once: the norms too
                assert_kernel_matches_pairs(p, q)


def test_inputs_that_are_not_harmonic_of_one_degree_take_the_pair_kernel():
    square = X0 * X0  # homogeneous, not harmonic: the Fischer sum would give 8/15
    assert square.harmonic_degree() is None
    assert norm_sq_sphere(square) == Fraction(4, 5) and norm_sq_ball(square) == Fraction(4, 35)
    affine = MPoly.one() + X0  # harmonic, not homogeneous
    assert affine.harmonic_degree() is None
    assert norm_sq_sphere(affine) == Fraction(16, 3)
    one = MPoly.one()  # harmonic of degrees 0 and 1: the pair kernel, value 0
    assert inner_sphere(one, X0) == 0 and inner_ball(X0, one) == 0
    for f, g in ((square, square), (affine, affine), (one, X0), (X0, square)):
        assert_kernel_matches_pairs(f, g)


def test_basis_pairs_match_quaternion_route():
    elements = [e for n in range(4) for e in basis_for_degree(n)]
    for e in elements:
        for g in elements:
            assert_kernel_matches_reference(e.poly, g.poly)
            if e.index != g.index:  # same degree too: the random-function scale needs it
                assert inner_sphere(e.poly, g.poly) == 0
                assert inner_ball(e.poly, g.poly) == 0


def test_mixed_parity_and_zero_polynomials_match_quaternion_route():
    f = MPoly({(0, 0, 0): Quaternion(Fraction(1, 3), -2, 0, Fraction(5, 7)),
               (1, 0, 0): Quaternion(0, Fraction(-3, 4), 1, 0),
               (2, 1, 0): Quaternion(Fraction(2, 9), 0, 0, -1),
               (0, 2, 2): Quaternion(1, Fraction(1, 6), Fraction(-1, 10), 3)})
    g = MPoly({(0, 0, 0): Quaternion(Fraction(-5, 2), 1, 1, 0),
               (0, 1, 1): Quaternion(Fraction(7, 11), 0, -4, Fraction(1, 8)),
               (2, 0, 0): Quaternion(0, 0, Fraction(3, 5), 0),
               (2, 1, 0): Quaternion(1, Fraction(-2, 3), 0, 0),
               (1, 0, 3): Quaternion(0, 2, 0, Fraction(-9, 4))})
    zero = MPoly.zero()
    for a, b in ((f, g), (g, f), (f, f), (f, zero), (zero, g), (zero, zero)):
        assert_kernel_matches_reference(a, b)
    assert inner_sphere(f, g) != 0
    assert inner_sphere(f, zero) == 0 and inner_ball(zero, zero) == 0
    assert norm_sq_sphere(f) == inner_sphere_h(f, f).sc()
    assert norm_sq_ball(f) == inner_ball_h(f, f).sc()


def test_sums_over_several_degrees_match_quaternion_route():
    # each call divides one sum per total degree; these pairs reach degrees 0 to 16
    def combination(degrees, shift):
        out = MPoly.zero()
        for n in degrees:
            for i, e in enumerate(basis_for_degree(n)):
                out = out + Fraction(i - shift, i + n + 1) * e.poly
        return out

    f, g = combination((0, 3, 8), 2), combination((1, 2, 7, 8), 5)
    for a, b in ((f, g), (g, f), (f, f), (g, g)):
        assert_kernel_matches_reference(a, b)
    assert inner_sphere(f, g) != 0 and inner_ball(f, g) != 0


def test_sphere_norms_equal_closed_forms_through_degree_12():
    count = 0
    for n in range(13):
        for e in basis_for_degree(n):
            count += 1
            assert norm_sq_sphere(e.poly) == norm_sq_sphere_closed(n, e.index.m)
    assert count == 195


# every p/q with q <= 6 and |p/q| <= 3 has |p| <= 18, so this covers those values and more
small_fractions = st.builds(Fraction, st.integers(-18, 18), st.integers(1, 6))
exponents = st.sampled_from([(a, b, c) for a in range(7) for b in range(7 - a)
                             for c in range(7 - a - b)])
quaternions = st.builds(Quaternion, small_fractions, small_fractions,
                        small_fractions, small_fractions)
polys = st.dictionaries(exponents, quaternions, max_size=8).map(MPoly)


@st.composite
def harmonic_polys(draw, n):
    """A combination of the degree-n basis with quaternion coefficients on either side."""
    out = MPoly.zero()
    for e in basis_for_degree(n):
        if draw(st.booleans()):
            out = out + draw(quaternions) * e.poly * draw(quaternions)
    return out


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(harmonic_polys(n), harmonic_polys(n))))
def test_harmonic_draws_take_the_pair_value(pair):
    f, g = pair
    for p in (f, g):
        assert_harmonic_degree(p)
    assert_kernel_matches_pairs(f, g)
    assert_kernel_matches_pairs(f, f)


@settings(derandomize=True, database=None, deadline=None)
@given(polys, polys)
def test_kernel_is_the_symmetric_scalar_part_of_the_quaternion_route(f, g):
    assert_kernel_matches_reference(f, g)
    assert_kernel_matches_pairs(f, g)
    assert_kernel_matches_pairs(f, f)
    assert_harmonic_degree(f)
    assert_harmonic_degree(g)
    assert inner_sphere(f, g) == inner_sphere(g, f)
    assert inner_ball(f, g) == inner_ball(g, f)
    copy_of_f = MPoly(dict(f.terms))
    assert inner_sphere(f, f) == inner_sphere(f, copy_of_f)
    assert inner_ball(f, f) == inner_ball(f, copy_of_f)
