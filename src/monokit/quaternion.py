"""Exact quaternion arithmetic over the rationals.

Quaternion values are built on fractions.Fraction, so identities hold with
zero floating point noise.  Polynomials (mpoly.MPoly) do not store them: they
keep one denominator and integer components, and make Quaternions only for
their terms view.  Floats appear only where a caller asks for them (grid
evaluation, quadrature, reports).

Units follow the convention e1*e2 = e3, e2*e3 = e1, e3*e1 = e2 and
e_i^2 = -1.  The reduced subspace span{1, e1, e2} is where all basis
polynomials take their values; it is not closed under multiplication,
so it is exposed as a constructor plus a predicate rather than a type.

>>> (E1 * E2 == E3, E2 * E1 == -E3, E1 * E1 == -ONE)
(True, True, True)
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]
_FRAC_PARTS = re.compile(r"(-?[0-9]+)/(0*[1-9][0-9]*)")  # 'p/q' of parse_frac_parts


def frac(value: Union[Rational, str]) -> Fraction:
    """Coerce to Fraction, rejecting floats (exactness is the contract)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def frac_str(value: Fraction) -> str:
    """Canonical wire form 'p/q', lowest terms, q > 0, denominator always written."""
    return f"{value.numerator}/{value.denominator}"


def parse_frac_parts(text) -> tuple[int, int]:
    """Exactly 'p/q' with integers p and q > 0, as (p, q) in lowest terms."""
    match = _FRAC_PARTS.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"rational 'p/q' with q > 0 expected, got {text!r}")
    p, q = int(match[1]), int(match[2])
    g = math.gcd(p, q)
    return p // g, q // g


def parse_components(items) -> list[tuple[int, int]]:
    """The wire form of a quaternion, a list of 4 'p/q' strings, as 4 (p, q) pairs."""
    if not isinstance(items, list) or len(items) != 4:
        raise ValueError("need a list of 4 components")
    return [parse_frac_parts(s) for s in items]


class Quaternion:
    """a + b e1 + c e2 + d e3 with Fraction components."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Union[Rational, str] = 0, b: Union[Rational, str] = 0,
                 c: Union[Rational, str] = 0, d: Union[Rational, str] = 0):
        self.a = frac(a)
        self.b = frac(b)
        self.c = frac(c)
        self.d = frac(d)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: Quaternion) -> Quaternion:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.a + other.a, self.b + other.b,
                          self.c + other.c, self.d + other.d)

    def __sub__(self, other: Quaternion) -> Quaternion:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.a - other.a, self.b - other.b,
                          self.c - other.c, self.d - other.d)

    def __neg__(self) -> Quaternion:
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            a1, b1, c1, d1 = self.a, self.b, self.c, self.d
            a2, b2, c2, d2 = other.a, other.b, other.c, other.d
            return Quaternion(
                a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
            )
        if isinstance(other, (int, Fraction)):
            return Quaternion(self.a * other, self.b * other,
                              self.c * other, self.d * other)
        return NotImplemented

    def __rmul__(self, other):
        # scalars commute; quaternion*quaternion always lands in __mul__
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Quaternion(self.a / other, self.b / other,
                              self.c / other, self.d / other)
        return NotImplemented

    def conjugate(self) -> Quaternion:
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def sc(self) -> Fraction:
        """Scalar part."""
        return self.a

    def norm_sq(self) -> Fraction:
        return self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d

    def inverse(self) -> Quaternion:
        n = self.norm_sq()
        if n == 0:
            raise ZeroDivisionError("inverse of zero quaternion")
        return Quaternion(self.a / n, -self.b / n, -self.c / n, -self.d / n)

    # -- structure --------------------------------------------------------

    def is_reduced(self) -> bool:
        """True when the value lies in span{1, e1, e2}."""
        return self.d == 0

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    def components(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    def to_floats(self) -> tuple[float, float, float, float]:
        return (float(self.a), float(self.b), float(self.c), float(self.d))

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Quaternion):
            return self.components() == other.components()
        if isinstance(other, (int, Fraction)):
            return self == Quaternion(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.components())

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        units = ("", "*e1", "*e2", "*e3")
        parts = [f"{comp}{unit}" for comp, unit in zip(self.components(), units) if comp]
        return "Quaternion(0)" if not parts else "Quaternion(" + " + ".join(parts) + ")"

    # -- serialization ------------------------------------------------------

    def to_strings(self) -> list[str]:
        return [frac_str(comp) for comp in self.components()]


def reduced(a: Union[Rational, str] = 0, b: Union[Rational, str] = 0,
            c: Union[Rational, str] = 0) -> Quaternion:
    """Quaternion in the reduced subspace span{1, e1, e2}."""
    return Quaternion(a, b, c, 0)


ZERO = Quaternion()
ONE = Quaternion(1)
E1 = Quaternion(0, 1)
E2 = Quaternion(0, 0, 1)
E3 = Quaternion(0, 0, 0, 1)
