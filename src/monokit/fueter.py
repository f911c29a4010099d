"""Fueter variables, generalized powers and Taylor expansion.

The generalized power for a multi-index gamma = (g1, g2) is the symmetrized
product

    V_gamma = (1/n!) * sum over all n! arrangements of g1 copies of z1
              and g2 copies of z2,   n = g1 + g2,

with z1 = x1 - e1 x0 and z2 = x2 - e2 x0.  It is computed by the recursion
on the last factor,

    V_gamma = (g1/n) V_(g1-1,g2) z1 + (g2/n) V_(g1,g2-1) z2,

which agrees with the literal permutation sum (kept here as a brute-force
oracle for the tests).  The oracle multiplies out each of the C(n, g1)
distinct words once, factor by factor: a word stands for the g1! g2!
orders that put z1 at the same places, so the (1/n!) sum over orders is
the mean over words.  A homogeneous monogenic polynomial of degree n is
recovered exactly from its n+1 Taylor coefficients

    c_gamma = (1/(g1! g2!)) d^g1/dx1 d^g2/dx2 f at 0,
    f = sum_gamma V_gamma c_gamma   (coefficients on the right).

Those derivatives leave only the monomial x1^g1 x2^g2 of f, so c_gamma
is read off as its coefficient.

closed_form_taylor evaluates the printed parity-gated coefficient formulas
for the X family; like the axial expansion in the basis module they depend
on the ambiguous beta coefficient and are diff material, not a source of
truth.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .basis import beta_table
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


def fueter_power_permutation_sum(g1: int, g2: int) -> MPoly:
    """The (1/n!) sum over all n! factor orders, as the mean of the C(n, g1)
    distinct words, each multiplied out literally; oracle, exponential cost."""
    n = g1 + g2
    total = MPoly.zero()
    for z1_places in itertools.combinations(range(n), g1):
        prod = MPoly.one()
        for i in range(n):
            prod = prod * (Z1 if i in z1_places else Z2)
        total = total + prod
    return total / math.comb(n, g1)


def taylor_coefficients(f: MPoly) -> dict[tuple[int, int], Quaternion]:
    """Exact Taylor coefficients {gamma: c_gamma} of a homogeneous polynomial, gamma ascending."""
    if not f.is_homogeneous():
        raise ValueError("input must be homogeneous")
    n = max(f.degree(), 0)
    # (1/(g1! g2!)) d^g1/dx1 d^g2/dx2 f at 0 is the coefficient of x1^g1 x2^g2
    return {(g1, n - g1): f.coefficient((0, g1, n - g1)) for g1 in range(n + 1)}


def taylor_reconstruct(tc: dict[tuple[int, int], Quaternion]) -> MPoly:
    return sum_of_products([(fueter_power(*gamma), MPoly.scalar(c))
                            for gamma, c in tc.items() if c])


def fueter_power_bound_check(g1: int, g2: int, points) -> float:
    """max over points of |V_gamma(x)| / r^n; the claim is that this is <= 1."""
    import numpy as np

    n = g1 + g2
    pts = np.asarray(points, dtype=float)
    r = np.sqrt((pts ** 2).sum(axis=1))
    if np.any(r == 0):
        raise ValueError("points must avoid the origin")
    values = fueter_power(g1, g2).eval_grid(pts[:, 0], pts[:, 1], pts[:, 2])
    moduli = np.sqrt((values ** 2).sum(axis=-1))
    return float(np.max(moduli / r ** n))


# -- printed closed forms (diff material) -----------------------------------------


def parity_gate(i: int, j: int) -> int:
    """1 when i and j have the same parity, else 0.

    Defined for any integers: the printed coefficient formulas use the
    gate at l-1, which is -1 when l = 0.
    """
    return 1 if (i - j) % 2 == 0 else 0


def _comb(a: int, b) -> int:
    """Binomial that is zero outside 0 <= b <= a; b must be integral."""
    if b != int(b):
        raise ValueError(f"non-integral binomial index {b}")
    b = int(b)
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def closed_form_taylor(n: int, l: int, variant: str = "binomial-falling") -> dict | None:
    """The printed Taylor-coefficient formulas for the X family at (n, l).

    Evaluates the three parity-gated component sums per the given beta
    variant; returns None when that variant's beta is undefined here.
    Every half-integer index is only formed behind its gate, and is
    asserted integral there (a gate bug would raise, not truncate).
    """
    if not 0 <= l <= n + 1:
        raise ValueError(f"order {l} out of range at degree {n}")
    beta = beta_table(n, l, variant)
    if beta is None:
        return None
    out: dict[tuple[int, int], Quaternion] = {}
    for a1 in range(n + 1):
        a2 = n - a1

        comp0 = Fraction(0)
        if parity_gate(l, n) and parity_gate(a1, l) and parity_gate(a2, 0):
            acc = Fraction(0)
            for j in range(l // 2 + 1):
                acc += (-1) ** j * math.comb(l, 2 * j) * _comb((n - l) // 2, Fraction(a1 - l, 2) + j)
            comp0 = beta[(n - l) // 2] * acc

        comp1 = Fraction(0)
        if parity_gate(l - 1, n) and parity_gate(l - 1, a1) and parity_gate(a2, 0):
            first = Fraction(0)
            second = Fraction(0)
            for p in range(1, (n - l + 1) // 2 + 1):
                outer = beta[p] * 2 * p * _comb(p - 1, Fraction(l - n - 1, 2) + p)
                if outer:
                    inner = sum((-1) ** (j + 1) * math.comb(l, 2 * j)
                                * _comb((n - l - 1) // 2, Fraction(a1 - l - 1, 2) + j)
                                for j in range(l // 2 + 1))
                    first += outer * inner
            for p in range((n - l + 1) // 2 + 1):
                outer = beta[p] * _comb(p, Fraction(l - n - 1, 2) + p)
                if outer:
                    inner = sum((-1) ** (j + 1) * math.comb(l, 2 * j) * (l - 2 * j)
                                * _comb((n - l + 1) // 2, Fraction(a1 - l + 1, 2) + j)
                                for j in range((l - 1) // 2 + 1))
                    second += outer * inner
            comp1 = first + second

        comp2 = Fraction(0)
        if parity_gate(l - 1, n) and parity_gate(l, a1) and parity_gate(a2, 1):
            first = Fraction(0)
            second = Fraction(0)
            for p in range(1, (n - l + 1) // 2 + 1):
                outer = beta[p] * 2 * p * _comb(p - 1, Fraction(l - n - 1, 2) + p)
                if outer:
                    inner = sum((-1) ** (j + 1) * math.comb(l, 2 * j)
                                * _comb((n - l - 1) // 2, Fraction(a1 - l, 2) + j)
                                for j in range(l // 2 + 1))
                    first += outer * inner
            for p in range((n - l + 1) // 2 + 1):
                outer = beta[p] * _comb(p, Fraction(l - n - 1, 2) + p)
                if outer:
                    inner = sum((-1) ** (j + 1) * math.comb(l, 2 * j) * (2 * j)
                                * _comb((n - l + 1) // 2, Fraction(a1 - l, 2) + j)
                                for j in range(1, l // 2 + 1))
                    second += outer * inner
            comp2 = first + second

        out[(a1, a2)] = Quaternion(comp0, comp1, comp2, 0)
    return out
