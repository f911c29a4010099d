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

inner_sphere and inner_ball share one kernel on Sc(conj(f) g) = sum_c f_c g_c over
the stored integers (MPoly.ints, MPoly.den).  For f, g harmonic of one degree n
(MPoly.harmonic_degree) it is the Fischer product, one pass over the terms:
integral_S p q dsigma = 4*pi sum_alpha alpha! p_alpha q_alpha / (2n+1)!! (Axler, Bourdon
& Ramey, Harmonic Function Theory, ch. 5; Stein & Weiss 1971, ch. IV), divided by 2n+3
on the ball.  Any other input takes the pair kernel: terms of one exponent parity pattern
(other moments vanish), weight * 4 (a-1)!!(b-1)!!(c-1)!! summed in integers per total
degree D, each sum divided once by (D+1)!! or (D+1)!! (D+3).  The quaternion route and
the pair kernel alone are their references in tests/reference_routes.py.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import factorial

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


@lru_cache(maxsize=None)
def _factorials(a: int, b: int, c: int) -> int:
    return factorial(a) * factorial(b) * factorial(c)


def _real_product(f: MPoly, g: MPoly, ball: bool) -> Fraction:
    """sum_c integral f_c g_c, over pi: the scalar part of integral conj(f) g, on S or B."""
    n = f.harmonic_degree()
    if n is not None and g.harmonic_degree() == n:
        s = 0  # the Fischer product [f, g] over f.den * g.den
        for e, (a0, a1, a2, a3) in f.ints.items():
            b = g.ints.get(e)
            if b:
                s += _factorials(*e) * (a0 * b[0] + a1 * b[1] + a2 * b[2] + a3 * b[3])
        return Fraction(4 * s, double_factorial(2 * n + 1) * (2 * n + 3 if ball else 1)
                        * f.den * g.den)
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
