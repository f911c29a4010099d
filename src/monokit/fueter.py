"""Fueter variables, generalized powers and Taylor expansion.

The generalized power for a multi-index gamma = (g1, g2) is the symmetrized
product

    V_gamma = (1/n!) * sum over all n! arrangements of g1 copies of z1
              and g2 copies of z2,   n = g1 + g2,

with z1 = x1 - e1 x0 and z2 = x2 - e2 x0.  It is computed by the recursion
on the last factor,

    V_gamma = (g1/n) V_(g1-1,g2) z1 + (g2/n) V_(g1,g2-1) z2.

The report's taylor section checks that recursion against the definition
by polarization.  A real s commutes with z1 and z2, and the words with g
copies of z1 sum to C(n, g) V_(g, n-g), so for every real s

    (z1 + s z2)^n = sum_g C(n, g) s^(n-g) V_(g, n-g).

Both sides are polynomials of degree n in s, so equality at the n+1
points s = 0..n decides every V of degree n (Vandermonde); no word is
multiplied out.  A homogeneous monogenic polynomial of degree n is
recovered exactly from its n+1 Taylor coefficients

    c_gamma = (1/(g1! g2!)) d^g1/dx1 d^g2/dx2 f at 0,
    f = sum_gamma V_gamma c_gamma   (coefficients on the right).

Those derivatives leave only the monomial x1^g1 x2^g2 of f, so c_gamma
is read off as its coefficient.  The same read on basis.axial_closed_form
gives the printed Taylor closed forms, so they need no code here.  The sum
is formed on integers: each term v e_u x^e of V_gamma (MPoly.units; one unit
per term, as the words reduce to +-e1^p e2^q) times each component c_j e_j of
c_gamma adds v c_j e_u e_j x^e, with e_u e_j = _UNIT_SIGN[u][j] e_(u xor j).
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache

from .mpoly import MPoly, Z1, Z2, sum_of_products
from .quaternion import Quaternion


@lru_cache(maxsize=None)
def fueter_power(g1: int, g2: int) -> MPoly:
    """The symmetrized power V_gamma for gamma = (g1, g2), by the recursion."""
    if g1 < 0 or g2 < 0:
        raise ValueError(f"negative multi-index ({g1}, {g2})")
    n = g1 + g2
    if n == 0:
        return MPoly.one()
    pairs = [(fueter_power(g1 - 1, g2), Z1 * Fraction(g1, n))] if g1 else []
    if g2:
        pairs.append((fueter_power(g1, g2 - 1), Z2 * Fraction(g2, n)))
    return sum_of_products(pairs)


def polarization_match(max_degree: int) -> bool:
    """Every V of degree <= max_degree against the definition: for s = 0..max_degree,
    each power (z1 + s z2)^n equals sum_g C(n, g) s^(n-g) V_(g, n-g)."""
    for s in range(max_degree + 1):
        power, step = MPoly.one(), Z1 + Z2 * s
        for n in range(max_degree + 1):
            if power != sum_of_products([(MPoly.scalar(math.comb(n, g) * s ** (n - g)),
                                          fueter_power(g, n - g)) for g in range(n + 1)]):
                return False
            power = power * step
    return True


def taylor_coefficients(f: MPoly) -> dict[tuple[int, int], Quaternion]:
    """Exact Taylor coefficients {gamma: c_gamma} of a homogeneous polynomial, gamma ascending."""
    if not f.is_homogeneous():
        raise ValueError("input must be homogeneous")
    n = max(f.degree(), 0)
    # (1/(g1! g2!)) d^g1/dx1 d^g2/dx2 f at 0 is the coefficient of x1^g1 x2^g2
    return {(g1, n - g1): f.coefficient((0, g1, n - g1)) for g1 in range(n + 1)}


_UNIT_SIGN = ((1, 1, 1, 1), (1, -1, 1, -1), (1, -1, -1, 1), (1, 1, -1, -1))


def taylor_reconstruct(tc: dict[tuple[int, int], Quaternion]) -> MPoly:
    """sum_gamma V_gamma c_gamma, the c_gamma on the right, on integers."""
    parts = [(fueter_power(*gamma), c.components()) for gamma, c in tc.items() if c]
    den = math.lcm(*(v.den * x.denominator for v, comps in parts for x in comps))
    acc: dict = defaultdict(lambda: [0, 0, 0, 0])
    for v, comps in parts:
        for j, x in enumerate(comps):
            if x:
                w = x.numerator * (den // (v.den * x.denominator))
                for u, terms in enumerate(v.units):
                    i, s = u ^ j, w * _UNIT_SIGN[u][j]
                    for exp, y in terms:
                        acc[exp][i] += y * s
    return MPoly._from_ints(den, acc)
