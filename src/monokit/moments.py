"""Exact integrals of polynomials over the unit sphere and unit ball.

The monomial moment over the unit sphere S^2 (surface measure, total 4*pi)
is

    integral x0^a x1^b x2^c dsigma
        = 4*pi * (a-1)!!(b-1)!!(c-1)!! / (a+b+c+1)!!   (a, b, c all even)
        = 0                                            (otherwise)

so every polynomial integral is (rational) * pi.  All functions here
return that rational factor; multiply by pi (or math.pi) at the float
boundary.  This gives exact Gram matrices, norms and scalar products
with the single transcendental factored out.

Over the unit ball a monomial of total degree n picks up the radial
factor 1/(n+3), term by term.

inner_sphere and inner_ball share one kernel on Sc(conj(f) g) = sum_c f_c g_c:
it reads the stored integer components of both polynomials (MPoly.ints
over MPoly.den), pairs only terms of the same exponent parity pattern (other
moments vanish), sums weight * 4 (a-1)!!(b-1)!!(c-1)!! in integers per total
degree D and divides each sum once, by (D+1)!! or on the ball (D+1)!! (D+3).
No Quaternion is built.  The quaternion-valued route, which integrates the
product conj(f) g term by term, is their reference in tests/reference_routes.py.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache

from .legendre import double_factorial
from .mpoly import MPoly


@lru_cache(maxsize=None)
def sphere_moment(a: int, b: int, c: int) -> Fraction:
    """Rational q with  integral_S x0^a x1^b x2^c dsigma = q * pi."""
    if min(a, b, c) < 0:
        raise ValueError(f"negative exponent in ({a}, {b}, {c})")
    if a % 2 or b % 2 or c % 2:
        return Fraction(0)
    return Fraction(_numerator(a, b, c), double_factorial(a + b + c + 1))


@lru_cache(maxsize=None)
def _numerator(a: int, b: int, c: int) -> int:
    return 4 * double_factorial(a - 1) * double_factorial(b - 1) * double_factorial(c - 1)


@lru_cache(maxsize=None)
def ball_moment(a: int, b: int, c: int) -> Fraction:
    """Rational q with  integral_B x0^a x1^b x2^c dV = q * pi."""
    return sphere_moment(a, b, c) / (a + b + c + 3)


def _real_product(f: MPoly, g: MPoly, ball: bool) -> Fraction:
    """sum_c integral f_c g_c, over pi: the scalar part of integral conj(f) g, on S or B."""
    g_groups = defaultdict(list)  # exponent parity pattern -> terms
    for e2, ints in g.ints.items():
        g_groups[(e2[0] % 2, e2[1] % 2, e2[2] % 2)].append((e2, ints))
    weights = defaultdict(int)
    for e1, (a0, a1, a2, a3) in f.ints.items():
        for e2, (b0, b1, b2, b3) in g_groups[(e1[0] % 2, e1[1] % 2, e1[2] % 2)]:
            weights[(e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])] += \
                a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3
    sums = defaultdict(int)  # total degree D -> sum of weight * numerator
    for exp, w in weights.items():
        sums[sum(exp)] += w * _numerator(*exp)
    return sum((Fraction(s, double_factorial(d + 1) * (d + 3 if ball else 1) * f.den * g.den)
                for d, s in sums.items()), Fraction(0))


def inner_sphere(f: MPoly, g: MPoly) -> Fraction:
    """Real product: integral_S Sc(conj(f) g) dsigma, over pi."""
    return _real_product(f, g, False)


def inner_ball(f: MPoly, g: MPoly) -> Fraction:
    return _real_product(f, g, True)


def norm_sq_sphere(f: MPoly) -> Fraction:
    return inner_sphere(f, f)


def norm_sq_ball(f: MPoly) -> Fraction:
    return inner_ball(f, f)
