"""Sparse polynomials in x0, x1, x2 with quaternion coefficients.

Coefficients sit on the left of the (real, hence central) variables, so a
term is  c * x0^a0 * x1^a1 * x2^a2  with c a Quaternion.  Multiplication
of two polynomials multiplies coefficients in quaternion order and adds
exponents, which is exactly right because the variables commute with
everything.  The value is stored in one canonical integer form: den > 0 and
ints {exponent: [a, b, c, d]} with gcd(den, every int) == 1 and no all-zero
term.  Arithmetic works on the ints and renormalises with one gcd; products,
dirac and dirac_bar run through one kernel, sum_of_products.  The read-only
{exponent: Quaternion} view, terms, is the only place a Fraction is made.

The generalized Cauchy-Riemann operator and its conjugate act from the
left:

    dirac(f)     = d/dx0 f + e1 d/dx1 f + e2 d/dx2 f
    dirac_bar(f) = d/dx0 f - e1 d/dx1 f - e2 d/dx2 f

A polynomial is (left) monogenic when dirac(f) == 0.  dirac(dirac_bar(f))
is the Laplacian in the three variables.

Float evaluation has one path, eval_terms, at points given as (x0, rho,
phi) with x1 = rho cos phi and x2 = rho sin phi, binning terms by their x0
and rho powers and summing the bins of a component in one einsum; sphere
grids stay factored that way, and eval_grid converts Cartesian points once.

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
from types import MappingProxyType
from typing import Iterator, Union

import numpy as np

from .quaternion import E1, E2, Quaternion, frac, Rational

Exponent = tuple[int, int, int]
Point3 = tuple[Fraction, Fraction, Fraction]


def point(x0: Union[Rational, str], x1: Union[Rational, str],
          x2: Union[Rational, str]) -> Point3:
    """Exact point of R^3; floats are rejected."""
    return (frac(x0), frac(x1), frac(x2))


def _as_coeff(value) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, Fraction)):
        return Quaternion(value)
    raise TypeError(f"not a quaternion coefficient: {value!r}")


def _quaternion(comps: list[int], den: int) -> Quaternion:
    return Quaternion(*(Fraction(x, den) for x in comps))


class MPoly:
    """Sparse polynomial: integer components over one denominator, per exponent triple."""

    __slots__ = ("den", "ints", "_terms")

    def __init__(self, terms: dict[Exponent, Quaternion] | None = None):
        coeffs = [(tuple(exp), _as_coeff(c).components()) for exp, c in (terms or {}).items()]
        # the lcm of the reduced denominators leaves gcd(den, ints) == 1
        self.den = math.lcm(*(x.denominator for _, comps in coeffs for x in comps))
        self.ints = {exp: [x.numerator * (self.den // x.denominator) for x in comps]
                     for exp, comps in coeffs if any(comps)}
        self._terms = None

    @classmethod
    def _from_ints(cls, den: int, ints: dict[Exponent, list[int]]) -> MPoly:
        """sum ints[e] / den * x^e (den > 0), brought to canonical form by one gcd."""
        ints = {exp: comps for exp, comps in ints.items() if any(comps)}
        g = math.gcd(den, *(x for comps in ints.values() for x in comps))
        poly = cls.__new__(cls)
        poly.den, poly._terms = den // g, None
        poly.ints = {exp: [x // g for x in comps] for exp, comps in ints.items()} if g > 1 else ints
        return poly

    @property
    def terms(self) -> MappingProxyType:
        """Read-only {exponent: Quaternion} view, built on first read."""
        if self._terms is None:
            self._terms = MappingProxyType({exp: _quaternion(comps, self.den)
                                            for exp, comps in self.ints.items()})
        return self._terms

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
        return sum_of_products([(MPoly.scalar(unit), self.partial(i))
                                for i, unit in enumerate((1, E1, E2))])

    def dirac_bar(self) -> MPoly:
        return sum_of_products([(MPoly.scalar(unit), self.partial(i))
                                for i, unit in enumerate((1, -E1, -E2))])

    def laplacian(self) -> MPoly:
        return sum((self.partial(i).partial(i) for i in range(3)), MPoly.zero())

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

    def homogeneous_part(self, n: int) -> MPoly:
        return MPoly._from_ints(self.den, {exp: comps for exp, comps in self.ints.items()
                                           if sum(exp) == n})

    def is_reduced(self) -> bool:
        """True when every coefficient lies in span{1, e1, e2}."""
        return all(comps[3] == 0 for comps in self.ints.values())

    def coefficient(self, exp: Exponent) -> Quaternion:
        comps = self.ints.get(tuple(exp))
        return _quaternion(comps, self.den) if comps else Quaternion()

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

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, at: Point3) -> Quaternion:
        """Exact evaluation at a rational point."""
        x0, x1, x2 = (frac(c) for c in at)
        total = Quaternion()
        for exp, coeff in self.terms.items():
            total = total + coeff * (x0 ** exp[0] * x1 ** exp[1] * x2 ** exp[2])
        return total

    def float_terms(self) -> list[tuple[Exponent, tuple[float, ...]]]:
        """Sorted (exponent, 4 floats) terms, the input of eval_terms."""
        den = self.den  # int / int rounds correctly, as float(Fraction) does
        return [(e, tuple(x / den for x in comps)) for e, comps in sorted(self.ints.items())]

    def eval_grid(self, x0: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Float evaluation at Cartesian points (broadcastable arrays); grid+(4,)."""
        return eval_terms(self.float_terms(), x0, np.hypot(x1, x2), np.arctan2(x2, x1))

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"terms": [{"e": list(exp), "c": coeff.to_strings()}
                          for exp, coeff in self.sorted_terms()]}

    @classmethod
    def from_json_dict(cls, data: dict) -> MPoly:
        out = {}
        for term in data["terms"]:
            exp = tuple(term["e"])
            # bool is an int subclass, so compare types exactly
            if len(exp) != 3 or not all(type(e) is int and e >= 0 for e in exp):
                raise ValueError(f"exponent triple of ints >= 0 expected, got {term['e']}")
            if exp in out:
                raise ValueError(f"exponent {term['e']} appears twice")
            out[exp] = Quaternion.from_strings(term["c"])
        return cls(out)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> MPoly:
        return cls.from_json_dict(json.loads(text))


def sum_of_products(pairs) -> MPoly:
    """sum of f * g over a list of (f, g) pairs, on the stored integer components.

    Every pair is rescaled to den, the lcm over the pairs of f.den * g.den.
    A term pair costs the 16 int products of the quaternion table in (f, g)
    order; the sums are brought to canonical form by one gcd at the end.
    """
    den = math.lcm(*(f.den * g.den for f, g in pairs))
    acc: dict[Exponent, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
    for f, g in pairs:
        k = den // (f.den * g.den)
        g_terms = g.ints.items()
        for e1, comps in f.ints.items():
            a1, b1, c1, d1 = (k * x for x in comps)
            for e2, (a2, b2, c2, d2) in g_terms:
                exp = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                s = acc[exp]
                s[0] += a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2
                s[1] += a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2
                s[2] += a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2
                s[3] += a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2
    return MPoly._from_ints(den, acc)


def _powers(v: np.ndarray, top: int) -> np.ndarray:
    """v^0 .. v^top by repeated multiplication, stacked on a new first axis."""
    table = np.empty((top + 1,) + v.shape)
    table[0] = 1.0
    for k in range(1, top + 1):
        # table[k, ...] stays an array view when v is 0-d; table[k] would not
        np.multiply(table[k - 1], v, out=table[k, ...])
    return table


def eval_terms(terms, x0, rho, phi) -> np.ndarray:
    """The one float evaluator: (exponent, 4 floats) terms at x1 = rho cos phi, x2 = rho sin phi.

    Terms are binned by x0 power a and rho power b + c: a bin is one radial
    column x0^a rho^(b+c) on the (x0, rho) shape times, per component, one
    row sum comps * cos^b sin^c on the phi shape.  The columns and the rows
    are stacked over the bins, and each component is one einsum (no BLAS)
    over the bin axis, which adds the bins in sorted order; terms are sorted
    within a bin, a component zero in every term is skipped, and a bin where
    it is zero gives it a zero row.  Returns broadcast shape + (4,).
    """
    x0, rho = np.broadcast_arrays(np.asarray(x0, dtype=float), np.asarray(rho, dtype=float))
    phi = np.asarray(phi, dtype=float)
    out = np.zeros((4,) + np.broadcast_shapes(x0.shape, phi.shape))
    bins: dict[tuple[int, int], list] = {}
    for (a, b, c), comps in sorted(terms, key=lambda term: term[0]):
        bins.setdefault((a, b + c), []).append((b, c, comps))
    if not bins:
        return np.moveaxis(out, 0, -1)
    keys = sorted(bins)
    x0_pow = _powers(x0, max(a for a, _ in keys))
    rho_pow = _powers(rho, max(s for _, s in keys))
    cos_pow = _powers(np.cos(phi), max(b for group in bins.values() for b, _, _ in group))
    sin_pow = _powers(np.sin(phi), max(c for group in bins.values() for _, c, _ in group))
    radial = np.empty((len(keys),) + x0.shape)
    rows = np.empty((len(keys),) + phi.shape)
    for i, (a, s) in enumerate(keys):
        # [i, ...] and [k, ...] stay array views when the points are 0-d; [i] would not
        np.multiply(x0_pow[a], rho_pow[s], out=radial[i, ...])
    for k in range(4):
        if any(comps[k] for group in bins.values() for _, _, comps in group):
            for i, key in enumerate(keys):
                rows[i] = sum([comps[k] * cos_pow[b] * sin_pow[c]
                               for b, c, comps in bins[key] if comps[k]])
            np.einsum("b...,b...->...", radial, rows, out=out[k, ...])
    return np.moveaxis(out, 0, -1)


X0 = MPoly.variable(0)
X1 = MPoly.variable(1)
X2 = MPoly.variable(2)

# Fueter variables: the two monogenic degree-1 building blocks
Z1 = X1 - MPoly.scalar(E1) * X0
Z2 = X2 - MPoly.scalar(E2) * X0
