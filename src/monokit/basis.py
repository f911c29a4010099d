"""Solid harmonics and the homogeneous monogenic polynomial basis.

Construction path (canonical): the degree-(n+1) solid harmonics are built
exactly in Cartesian form from associated Legendre bodies,

    r^(n+1) U^m_(n+1) = Re[(x1 + i x2)^m] * sum_j q_j x0^j (x0^2+x1^2+x2^2)^((n+1-m-j)/2)
    r^(n+1) V^m_(n+1) = Im[(x1 + i x2)^m] * (same radial-axial factor),

with q_j the coefficients of d^m/dt^m P_(n+1); the exponent of the radius
factor is a non-negative even integer by the parity of the derivative body.
Applying the hypercomplex derivative (1/2) dirac_bar then yields the
degree-n homogeneous monogenic polynomials (X and Y families).  Everything
stays in exact rational arithmetic, so monogenicity is a literal zero
polynomial, and squared norms are rational multiples of pi.

An alternative closed-form assembly of the X family (an axial expansion
with coefficients beta_{n+1,l,k}) exists in several printed variants that
disagree with each other; see axial_closed_form and the report module.
Each variant's expansion is dirac_bar of one scalar polynomial, the same
derivative as above, and the printed Taylor formulas are that expansion's
x0-free coefficients.  The derivative path is the single source of truth,
the variants are diff material only.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .legendre import assoc_body, legendre_coeffs
from .moments import norm_sq_sphere
from .mpoly import MPoly, X0, X1, X2, sum_of_products

KINDS = ("X", "Y")


@dataclass(frozen=True)
class BasisIndex:
    kind: str  # "X" or "Y"
    n: int
    m: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be X or Y, got {self.kind!r}")
        if self.n < 0:
            raise ValueError(f"degree must be >= 0, got {self.n}")
        low = 0 if self.kind == "X" else 1
        if not low <= self.m <= self.n + 1:
            raise ValueError(f"order {self.m} out of range for {self.kind} at degree {self.n}")

    @cached_property
    def label(self) -> str:
        return f"{self.kind}:{self.m}"

    @classmethod
    def parse(cls, n: int, label: str) -> BasisIndex:
        match = re.fullmatch(r"([XY]):(0|[1-9][0-9]*)", label)
        if not match:
            raise ValueError(f"index label must look like 'X:0' or 'Y:2', got {label!r}")
        return cls(match[1], n, int(match[2]))


@dataclass(frozen=True)
class BasisElement:
    """One homogeneous monogenic basis polynomial with its sphere norm.

    poly is the raw (unnormalized) polynomial; norm_sq_S is its squared
    L2 norm over the unit sphere divided by pi, exact, and norm_S the
    norm itself as a float; each is computed once per element.
    """

    index: BasisIndex
    poly: MPoly

    @cached_property
    def norm_sq_S(self) -> Fraction:
        return norm_sq_sphere(self.poly)

    @cached_property
    def norm_S(self) -> float:
        return math.sqrt(float(self.norm_sq_S) * math.pi)


# -- construction ---------------------------------------------------------------


@lru_cache(maxsize=None)
def complex_power_parts(m: int) -> tuple[MPoly, MPoly]:
    """Re and Im of (x1 + i x2)^m as exact polynomials, shared; i^j is 1, i, -1, -i."""
    parts: tuple[dict, dict] = ({}, {})
    for j in range(m + 1):
        parts[j % 2][(0, m - j, j)] = [(-1) ** (j // 2) * math.comb(m, j), 0, 0, 0]
    return MPoly._from_ints(1, parts[0]), MPoly._from_ints(1, parts[1])


@lru_cache(maxsize=None)
def _radius_sq_power(k: int) -> MPoly:
    return MPoly.one() if k == 0 else _radius_sq_power(k - 1) * (X0 * X0 + X1 * X1 + X2 * X2)


def _axial(terms) -> MPoly:
    """sum of c x0^a |x|^r over the (c, a, r) terms, r even, from one sum_of_products."""
    pairs = []
    for c, a, r in terms:
        assert r % 2 == 0, "radius power is odd"
        pairs.append((MPoly.monomial((a, 0, 0), c), _radius_sq_power(r // 2)))
    return sum_of_products(pairs)


@lru_cache(maxsize=None)
def _legendre_radial(deg: int, m: int) -> MPoly:
    """sum_j q_j x0^j |x|^(deg-m-j), q_j from assoc_body(deg, m); shared by U and V."""
    return _axial([(q, j, deg - m - j) for j, q in enumerate(assoc_body(deg, m)) if q])


@lru_cache(maxsize=None)
def solid_harmonic(deg: int, kind: str, m: int) -> MPoly:
    """Exact Cartesian form of r^deg U^m_deg (kind U, the cos branch) or
    r^deg V^m_deg (kind V, the sin branch), a homogeneous harmonic polynomial."""
    if deg < 0:
        raise ValueError(f"degree must be >= 0, got {deg}")
    if kind not in ("U", "V"):
        raise ValueError(f"kind must be U or V, got {kind!r}")
    low = 0 if kind == "U" else 1
    if not low <= m <= deg:
        raise ValueError(f"order {m} out of range for {kind} of degree {deg}")
    return _legendre_radial(deg, m) * complex_power_parts(m)[kind == "V"]


@lru_cache(maxsize=None)
def spherical_monogenic(n: int, kind: str, m: int) -> BasisElement:
    """Degree-n homogeneous monogenic polynomial r^n X^m_n or r^n Y^m_n.

    Obtained as (1/2) dirac_bar applied to the matching solid harmonic of
    degree n+1 (the hypercomplex derivative of its monogenic extension
    coincides with this on harmonic polynomials).
    """
    index = BasisIndex(kind, n, m)
    harmonic = solid_harmonic(n + 1, "U" if kind == "X" else "V", m)
    return BasisElement(index, harmonic._dirac(-1, 2))  # dirac_bar() / 2, normalised once


@lru_cache(maxsize=None)
def degree_indices(n: int) -> tuple[BasisIndex, ...]:
    """Canonical ordering: X:0, X:1, Y:1, ..., X:n+1, Y:n+1 (2n+3 entries), shared."""
    out = [BasisIndex("X", n, 0)]
    for m in range(1, n + 2):
        out.append(BasisIndex("X", n, m))
        out.append(BasisIndex("Y", n, m))
    return tuple(out)


@lru_cache(maxsize=None)
def basis_for_degree(n: int) -> tuple[BasisElement, ...]:
    return tuple(spherical_monogenic(ix.n, ix.kind, ix.m) for ix in degree_indices(n))


def basis_elements(max_degree: int) -> list[BasisElement]:
    """Degrees 0..max_degree in degree-major order, canonical within a degree."""
    return [e for n in range(max_degree + 1) for e in basis_for_degree(n)]


# -- closed-form norms ------------------------------------------------------------


def norm_sq_sphere_closed(n: int, m: int) -> Fraction:
    """Squared L2(S) norm over pi.

    For m >= 1 this is the literature relation (n+1)(n+1+m)!/(2(n+1-m)!);
    the m = 0 value is not covered by that relation and equals n+1
    (checked exactly against the moment integrals in the tests).
    """
    if m == 0:
        return Fraction(n + 1)
    return Fraction((n + 1) * math.factorial(n + 1 + m), 2 * math.factorial(n + 1 - m))


def sc_norm_sq_closed(n: int, m: int) -> Fraction:
    """Squared L2(S) norm over pi of the scalar part, m = 0..n."""
    if not 0 <= m <= n:
        raise ValueError(f"scalar part of order {m} vanishes or is out of range at degree {n}")
    if m == 0:
        return Fraction((n + 1) ** 2, 2 * n + 1)
    return Fraction((n + 1 + m) * math.factorial(n + 1 + m),
                    2 * (2 * n + 1) * math.factorial(n - m))


def sc_e1_norm_sq_closed(n: int) -> Fraction:
    """Squared L2(S) norm over pi of Sc(X^{n+1}_n e1), as printed: (n+1)(2n+2)!/4.

    Fails at n = 0, where the exact values are 1 (X branch) and 0 (Y branch);
    see the n = 0 notes in the tests.
    """
    return Fraction((n + 1) * math.factorial(2 * n + 2), 4)


# -- the axial closed-form variants (diff material, never canonical) ----------------


BETA_VARIANTS = ("binomial-falling", "statement-rising", "proof-bare")


def beta_coefficient(n: int, l: int, k: int, variant: str) -> Fraction | None:
    """The three printed/implied readings of beta_{n+1,l,k}.

    binomial-falling: a_{n+1,k}/2 times the falling factorial with l factors
        (the reading that makes the axial expansion match the derivative path).
    statement-rising: a_{n+1,k}/2 times the rising factorial (x)_{l-1} with
        l-1 factors; at l = 0 the symbol (x)_{-1} = 1/(x-1) is used, which is
        undefined at x = 1 (None is returned there).
    proof-bare: 2 times the falling factorial, no a_{n+1,k} at all.

    beta_table asks only for x = n+1-2k >= l, where x(x-1)...(x-l+1) is
    perm(x, l) and x(x+1)...(x+l-2) is perm(x+l-2, l-1).
    """
    x = n + 1 - 2 * k
    # a_{n+1,k}, the coefficient of t^x in P_(n+1)
    a = legendre_coeffs(n + 1)[x] if 0 <= 2 * k <= n + 1 else Fraction(0)
    if variant == "binomial-falling":
        return a / 2 * math.perm(x, l)
    if variant == "statement-rising":
        if l == 0:
            if x == 1:
                return None
            return a / 2 / (x - 1)
        return a / 2 * math.perm(x + l - 2, l - 1)
    if variant == "proof-bare":
        return Fraction(2 * math.perm(x, l))
    raise ValueError(f"unknown beta variant {variant!r}")


def beta_table(n: int, l: int, variant: str) -> list[Fraction] | None:
    """beta_{n+1,l,k} for k = 0..(n+1-l)//2, or None when the variant leaves one undefined."""
    table = [beta_coefficient(n, l, k, variant) for k in range((n + 1 - l) // 2 + 1)]
    return None if None in table else table


@lru_cache(maxsize=None)
def axial_closed_form(n: int, l: int, variant: str = "binomial-falling") -> MPoly | None:
    """The printed axial expansion of r^n X^l_n per beta variant, or None where
    that beta is undefined (statement-rising at l = 0 can hit a pole); shared.

    The printed component sums are the product rule applied to one scalar
    H = sum_k beta_k x0^(n+1-2k-l) |x|^(2k) Re[(x1 + i x2)^l]: component 0
    is d0 H and components 1, 2 are -d1 H, -d2 H.  So it is H.dirac_bar().
    """
    if not 0 <= l <= n + 1:
        raise ValueError(f"order {l} out of range at degree {n}")
    beta = beta_table(n, l, variant)
    if beta is None:
        return None
    return (_axial([(b, n + 1 - 2 * k - l, 2 * k) for k, b in enumerate(beta)])
            * complex_power_parts(l)[0]).dirac_bar()
