"""Legendre and associated Legendre polynomials, exact in the rationals.

The associated function of degree d and order m is

    P^m_d(t) = (1 - t^2)^(m/2) * d^m/dt^m P_d(t)

with NO Condon-Shortley sign.  The square root factor is irrational, so
the exact layer works with the polynomial body Q_{d,m} = d^m/dt^m P_d and
keeps the (1-t^2)^(m/2) factor symbolic; identities are then polynomial
identities with Fraction coefficients.  For m > d the body is the zero
polynomial.

Bodies are coefficient tuples, index = power of t.  This module is a leaf:
it imports no other module of the package.  The recurrence, the
differentiated Legendre equation and the norms of the bodies are checked by
the reference routes in tests/reference_routes.py.

Example
-------
>>> assoc_body(3, 1)
(Fraction(-3, 2), Fraction(0, 1), Fraction(15, 2))
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def double_factorial(n: int) -> int:
    """n!! with the empty-product conventions (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError(f"double factorial undefined for {n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


# -- Legendre bodies ----------------------------------------------------------

@lru_cache(maxsize=None)
def legendre_coeffs(d: int) -> tuple[Fraction, ...]:
    """Coefficients of P_d(t), exact.

    P_d(t) = sum_k a_{d,k} t^(d-2k) with
    a_{d,k} = (-1)^k (2d-2k)! / (2^d k! (d-k)! (d-2k)!).
    """
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    out = [Fraction(0)] * (d + 1)
    for k in range(d // 2 + 1):
        num = (-1) ** k * math.factorial(2 * d - 2 * k)
        den = 2 ** d * math.factorial(k) * math.factorial(d - k) * math.factorial(d - 2 * k)
        out[d - 2 * k] = Fraction(num, den)
    return tuple(out)


@lru_cache(maxsize=None)
def assoc_body(d: int, m: int) -> tuple[Fraction, ...]:
    """Coefficients of Q_{d,m} = d^m/dt^m P_d; zero polynomial when m > d.

    The m-th derivative takes t^k to k!/(k-m)! t^(k-m).
    """
    if m < 0:
        raise ValueError(f"order must be >= 0, got {m}")
    if m > d:
        return ()
    return tuple(c * math.perm(k, m) for k, c in enumerate(legendre_coeffs(d)))[m:]
