"""Sparse polynomials in x0, x1, x2 with quaternion coefficients.

Coefficients sit on the left of the (real, hence central) variables, so a
term is  c * x0^a0 * x1^a1 * x2^a2  with c a Quaternion.  Multiplication
of two polynomials multiplies coefficients in quaternion order and adds
exponents, which is exactly right because the variables commute with
everything.  The value is stored in one canonical integer form: den > 0 and
ints {exponent: [a, b, c, d]} with gcd(den, every int) == 1 and no all-zero
term.  Arithmetic works on the ints and renormalises with one gcd; products
run through one kernel, sum_of_products.  Two read-only views are built on
first read: terms, {exponent: Quaternion}, the only place a Fraction is made,
and units, the (exponent, int) terms of each unit 1, e1, e2, e3.

The generalized Cauchy-Riemann operator and its conjugate act from the
left:

    dirac(f)     = d/dx0 f + e1 d/dx1 f + e2 d/dx2 f
    dirac_bar(f) = d/dx0 f - e1 d/dx1 f - e2 d/dx2 f

A polynomial is (left) monogenic when dirac(f) == 0.  dirac(dirac_bar(f))
and dirac_bar(dirac(f)) are the Laplacian in the three variables, so a zero
dirac decides the harmonic premise (harmonic_degree, kept once per
polynomial).  Both are one pass over the integer terms, in which left
multiplication by e1 and e2 permutes the components with signs.

Floats are evaluated in quadrature, whose eval_terms reads float_terms.  Exact
evaluation at a rational point is a test reference (tests/reference_routes.py).

Example
-------
>>> z1 = MPoly.variable(1) - MPoly.scalar(E1) * MPoly.variable(0)
>>> z1.dirac().is_zero()
True
>>> MPoly.scalar(E1) * Z2 != Z2 * MPoly.scalar(E1)
True
>>> p = X0 / 6 + X1 / 4
>>> p.den, sorted(p.ints.items())
(12, [((0, 1, 0), [3, 0, 0, 0]), ((1, 0, 0), [2, 0, 0, 0])])
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from fractions import Fraction
from itertools import chain
from types import MappingProxyType
from typing import Iterator

from .quaternion import E1, E2, Quaternion, parse_components

Exponent = tuple[int, int, int]
_ZERO = Fraction(0)
_ZERO_TERM = [0, 0, 0, 0]  # compared with, never changed
_UNDECIDED = object()  # harmonic_degree not yet decided


def _as_coeff(value) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, Fraction)):
        return Quaternion(value)
    raise TypeError(f"not a quaternion coefficient: {value!r}")


def _quaternion(comps: list[int], den: int) -> Quaternion:
    return Quaternion(*(Fraction(x, den) if x else _ZERO for x in comps))


class MPoly:
    """Sparse polynomial: integer components over one denominator, per exponent triple."""

    __slots__ = ("den", "ints", "_terms", "_units", "_harmonic")

    def __init__(self, terms: dict[Exponent, Quaternion] | None = None):
        coeffs = [(tuple(exp), _as_coeff(c).components()) for exp, c in (terms or {}).items()]
        # the lcm of the reduced denominators leaves gcd(den, ints) == 1
        self.den = math.lcm(*(x.denominator for _, comps in coeffs for x in comps))
        self.ints = {exp: [x.numerator * (self.den // x.denominator) for x in comps]
                     for exp, comps in coeffs if any(comps)}
        self._terms, self._units, self._harmonic = None, None, _UNDECIDED

    @classmethod
    def _from_ints(cls, den: int, ints: dict[Exponent, list[int]]) -> MPoly:
        """sum ints[e] / den * x^e (den > 0), brought to canonical form by one gcd."""
        ints = {exp: comps for exp, comps in ints.items() if comps != _ZERO_TERM}
        g = math.gcd(den, *chain.from_iterable(ints.values()))
        poly = cls.__new__(cls)
        poly.den, poly._terms, poly._units, poly._harmonic = den // g, None, None, _UNDECIDED
        poly.ints = ({exp: [a // g, b // g, c // g, d // g] for exp, (a, b, c, d) in ints.items()}
                     if g > 1 else ints)
        return poly

    @property
    def terms(self) -> MappingProxyType:
        """Read-only {exponent: Quaternion} view, built on first read."""
        if self._terms is None:
            self._terms = MappingProxyType({exp: _quaternion(comps, self.den)
                                            for exp, comps in self.ints.items()})
        return self._terms

    @property
    def units(self) -> tuple[tuple[tuple[Exponent, int], ...], ...]:
        """Read-only view, built on first read: units[u] is the (exponent, int over den)
        pairs of the terms whose component u (of 1, e1, e2, e3) is nonzero."""
        if self._units is None:
            self._units = tuple(tuple((e, c[u]) for e, c in self.ints.items() if c[u])
                                for u in range(4))
        return self._units

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> MPoly:
        return cls()

    @classmethod
    def one(cls) -> MPoly:
        return cls({(0, 0, 0): Quaternion(1)})

    @classmethod
    def scalar(cls, value) -> MPoly:
        return cls({(0, 0, 0): _as_coeff(value)})

    @classmethod
    def variable(cls, i: int) -> MPoly:
        if i not in (0, 1, 2):
            raise ValueError(f"variable index must be 0, 1 or 2, got {i}")
        exp = [0, 0, 0]
        exp[i] = 1
        return cls({tuple(exp): Quaternion(1)})

    @classmethod
    def monomial(cls, exp: Exponent, coeff=1) -> MPoly:
        return cls({tuple(exp): _as_coeff(coeff)})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: MPoly) -> MPoly:
        if not isinstance(other, MPoly):
            return NotImplemented
        den = math.lcm(self.den, other.den)
        ks, ko = den // self.den, den // other.den
        out = {exp: [ks * x for x in comps] for exp, comps in self.ints.items()}
        for exp, comps in other.ints.items():
            out[exp] = [x + ko * y for x, y in zip(out.get(exp, (0, 0, 0, 0)), comps)]
        return MPoly._from_ints(den, out)

    def __sub__(self, other: MPoly) -> MPoly:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> MPoly:
        return MPoly._from_ints(self.den, {exp: [-x for x in comps]
                                           for exp, comps in self.ints.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Quaternion)):
            other = MPoly.scalar(other)  # right scalar: stays on the right
        if isinstance(other, MPoly):
            return sum_of_products([(self, other)])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Quaternion)):
            return sum_of_products([(MPoly.scalar(other), self)])
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = 1 / Fraction(other)  # ZeroDivisionError for 0; q.denominator > 0
            return MPoly._from_ints(self.den * q.denominator,
                                    {exp: [q.numerator * x for x in comps]
                                     for exp, comps in self.ints.items()})
        return NotImplemented

    def conjugate(self) -> MPoly:
        return MPoly._from_ints(self.den, {exp: [a, -b, -c, -d]
                                           for exp, (a, b, c, d) in self.ints.items()})

    # -- calculus -----------------------------------------------------------

    def partial(self, i: int) -> MPoly:
        out = {}
        for exp, comps in self.ints.items():
            if exp[i] == 0:
                continue
            lowered = list(exp)
            lowered[i] -= 1
            out[tuple(lowered)] = [exp[i] * x for x in comps]
        return MPoly._from_ints(self.den, out)

    def dirac(self) -> MPoly:
        return self._dirac(1)

    def dirac_bar(self) -> MPoly:
        return self._dirac(-1)

    def _dirac(self, s: int, scale: int = 1) -> MPoly:
        """(d0 f + s (e1 d1 f + e2 d2 f)) / scale, one pass over the integer terms; a zero
        result decides harmonic_degree, as dirac_bar and dirac factor the Laplacian."""
        acc: dict[Exponent, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
        for (x, y, z), (a, b, c, d) in self.ints.items():
            if x:  # d0 f
                t = acc[x - 1, y, z]
                t[0], t[1], t[2], t[3] = t[0] + x * a, t[1] + x * b, t[2] + x * c, t[3] + x * d
            if y:  # s e1 d1 f, e1 q = (-b, a, -d, c)
                k, t = s * y, acc[x, y - 1, z]
                t[0], t[1], t[2], t[3] = t[0] - k * b, t[1] + k * a, t[2] - k * d, t[3] + k * c
            if z:  # s e2 d2 f, e2 q = (-c, d, a, -b)
                k, t = s * z, acc[x, y, z - 1]
                t[0], t[1], t[2], t[3] = t[0] - k * c, t[1] + k * d, t[2] + k * a, t[3] - k * b
        out = MPoly._from_ints(self.den * scale, acc)
        if not out.ints and self._harmonic is _UNDECIDED:
            self._harmonic = self.degree() if self.is_homogeneous() else None
        return out

    def laplacian(self) -> MPoly:
        """d0^2 f + d1^2 f + d2^2 f, as dirac_bar(dirac(f))."""
        return self.dirac().dirac_bar()

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.ints

    def degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        if not self.ints:
            return -1
        return max(sum(exp) for exp in self.ints)

    def is_homogeneous(self) -> bool:
        degrees = {sum(exp) for exp in self.ints}
        return len(degrees) <= 1

    def harmonic_degree(self) -> int | None:
        """n if homogeneous of degree n with a zero Laplacian (-1 for 0), else None; decided
        once per polynomial, here or by a zero dirac() or dirac_bar()."""
        if self._harmonic is _UNDECIDED:
            self._harmonic = (self.degree() if self.is_homogeneous()
                              and self.laplacian().is_zero() else None)
        return self._harmonic

    def is_reduced(self) -> bool:
        """True when every coefficient lies in span{1, e1, e2}."""
        return all(comps[3] == 0 for comps in self.ints.values())

    def coefficient(self, exp: Exponent) -> Quaternion:
        return _quaternion(self.ints.get(tuple(exp), _ZERO_TERM), self.den)

    def component(self, i: int) -> MPoly:
        """Real polynomial (as MPoly) of the i-th quaternion component."""
        return MPoly._from_ints(self.den, {exp: [comps[i], 0, 0, 0]
                                           for exp, comps in self.ints.items()})

    def sc(self) -> MPoly:
        return self.component(0)

    def sorted_terms(self) -> list[tuple[Exponent, Quaternion]]:
        return sorted(self.terms.items())

    def __iter__(self) -> Iterator[tuple[Exponent, Quaternion]]:
        return iter(self.sorted_terms())

    def __len__(self) -> int:
        return len(self.ints)

    def __bool__(self) -> bool:
        return bool(self.ints)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.den == other.den and self.ints == other.ints

    def __repr__(self) -> str:
        if not self.ints:
            return "MPoly(0)"
        bits = []
        for exp, coeff in self.sorted_terms():
            mono = "*".join(f"x{i}^{e}" for i, e in enumerate(exp) if e)
            bits.append(f"({coeff!r})" + (f"*{mono}" if mono else ""))
        return "MPoly[" + " + ".join(bits) + "]"

    # -- serialization ----------------------------------------------------------

    def float_terms(self) -> list[tuple[Exponent, tuple[float, ...]]]:
        """Sorted (exponent, 4 floats) terms, the input of quadrature.eval_terms."""
        den = self.den  # int / int rounds correctly, as float(Fraction) does
        return [(e, (a / den, b / den, c / den, d / den))
                for e, (a, b, c, d) in sorted(self.ints.items())]

    def to_json_dict(self) -> dict:
        return {"terms": [{"e": list(exp), "c": coeff.to_strings()}
                          for exp, coeff in self.sorted_terms()]}

    @classmethod
    def from_json_dict(cls, data: dict) -> MPoly:
        parts = {}
        for term in data["terms"]:
            exp = tuple(term["e"])
            # bool is an int subclass, so compare types exactly
            if len(exp) != 3 or not all(type(e) is int and e >= 0 for e in exp):
                raise ValueError(f"exponent triple of ints >= 0 expected, got {term['e']}")
            if exp in parts:
                raise ValueError(f"exponent {term['e']} appears twice")
            parts[exp] = parse_components(term["c"])
        den = math.lcm(*(q for comps in parts.values() for _, q in comps))
        return cls._from_ints(den, {exp: [p * (den // q) for p, q in comps]
                                    for exp, comps in parts.items()})

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> MPoly:
        return cls.from_json_dict(json.loads(text))


def sum_of_products(pairs) -> MPoly:
    """sum of f * g over a list of (f, g) pairs, on the stored integer components.

    Every pair is rescaled to den, the lcm over the pairs of f.den * g.den, on
    the terms of g.  A term pair costs the 16 int products of the quaternion
    table in (f, g) order; the sums are brought to canonical form by one gcd.
    """
    den = math.lcm(*(f.den * g.den for f, g in pairs))
    acc: dict[Exponent, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
    for f, g in pairs:
        k = den // (f.den * g.den)
        g_terms = [(e, [k * x for x in c]) for e, c in g.ints.items()] if k > 1 else g.ints.items()
        for e1, (a1, b1, c1, d1) in f.ints.items():
            for e2, (a2, b2, c2, d2) in g_terms:
                exp = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                s = acc[exp]
                s[0] += a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2
                s[1] += a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2
                s[2] += a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2
                s[3] += a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2
    return MPoly._from_ints(den, acc)


X0 = MPoly.variable(0)
X1 = MPoly.variable(1)
X2 = MPoly.variable(2)

# Fueter variables: the two monogenic degree-1 building blocks
Z1 = X1 - MPoly.scalar(E1) * X0
Z2 = X2 - MPoly.scalar(E2) * X0
