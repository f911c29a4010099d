"""Reference routes that the batched float paths must reproduce bit for bit.

block_terms folds one degree block of a Fourier series into one float
coefficient per monomial of the block; eval_terms then evaluates that term
list as one polynomial.  quadrature.block_values contracts the same weights
with the padded block table instead and evaluates it with eval_bins.
sphere_grid(65, 128) is the grid of bohr.empirical_bohr_sum.

printed_axial_expansion and printed_taylor_sums transcribe the printed
beta_{n+1,l,k} formulas verbatim: the component-wise axial expansion of
r^n X^l_n and its parity-gated Taylor-coefficient sums.  basis.axial_closed_form
builds the first as dirac_bar of one scalar polynomial, and report.taylor_agreement
reads the second as that polynomial's x0-free coefficients.
"""

import math
from fractions import Fraction

import numpy as np

from monokit.basis import _radius_sq_power, basis_for_degree, beta_table, complex_power_parts
from monokit.mpoly import MPoly
from monokit.quadrature import sphere_norms
from monokit.quaternion import Quaternion


def block_terms(n, alphas):
    """Block n of the series, alphas in degree_indices(n) order, as (exponent, 4 floats) terms."""
    elements = basis_for_degree(n)
    exps = sorted({exp for e in elements for exp in e.poly.ints})
    rows = [dict(e.poly.float_terms()) for e in elements]
    table = np.array([[row.get(exp, (0.0,) * 4) for exp in exps] for row in rows])
    scale = np.asarray(alphas, dtype=float) * math.sqrt(2 * n + 3)
    scale = scale / sphere_norms(elements)
    return list(zip(exps, np.einsum("i,imc->mc", scale, table)))


def sphere_grid(n_theta, n_phi):
    """Theta-phi grid on S, poles included, as eval_terms takes it: cos, sin theta; phi."""
    theta = np.linspace(0.0, np.pi, n_theta)[:, None]
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)[None, :]
    return np.cos(theta), np.sin(theta), phi


def printed_axial_expansion(n, l, variant):
    """The printed component-wise expansion of r^n X^l_n; None where beta is undefined."""
    beta = beta_table(n, l, variant)
    if beta is None:
        return None
    cos_l = complex_power_parts(l)[0]  # r^l cos(l phi)
    dcos_x1 = cos_l.partial(1)
    dcos_x2 = cos_l.partial(2)

    comp0 = MPoly.zero()
    for k in range((n - l) // 2 + 1):
        comp0 = comp0 + beta[k] * (n + 1 - 2 * k - l) * MPoly.monomial((n - 2 * k - l, 0, 0)) \
            * _radius_sq_power(k) * cos_l
    for k in range(1, (n + 1 - l) // 2 + 1):
        comp0 = comp0 + beta[k] * (2 * k) * MPoly.monomial((n + 2 - 2 * k - l, 0, 0)) \
            * _radius_sq_power(k - 1) * cos_l

    comp1 = MPoly.zero()
    comp2 = MPoly.zero()
    x1 = MPoly.monomial((0, 1, 0))
    x2 = MPoly.monomial((0, 0, 1))
    for k in range(1, (n + 1 - l) // 2 + 1):
        common = beta[k] * (2 * k) * MPoly.monomial((n + 1 - 2 * k - l, 0, 0)) * _radius_sq_power(k - 1)
        comp1 = comp1 - common * x1 * cos_l
        comp2 = comp2 - common * x2 * cos_l
    for k in range((n + 1 - l) // 2 + 1):
        common = beta[k] * MPoly.monomial((n + 1 - 2 * k - l, 0, 0)) * _radius_sq_power(k)
        comp1 = comp1 - common * dcos_x1
        comp2 = comp2 - common * dcos_x2
    e1 = MPoly.scalar(Quaternion(0, 1))
    e2 = MPoly.scalar(Quaternion(0, 0, 1))
    return comp0 + comp1 * e1 + comp2 * e2


def parity_gate(i, j):
    """1 when i and j have the same parity, else 0.

    Defined for any integers: the printed coefficient formulas use the
    gate at l-1, which is -1 when l = 0.
    """
    return 1 if (i - j) % 2 == 0 else 0


def _comb(a, b):
    """Binomial that is zero outside 0 <= b <= a; b must be integral."""
    if b != int(b):
        raise ValueError(f"non-integral binomial index {b}")
    b = int(b)
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def printed_taylor_sums(n, l, variant):
    """The printed Taylor-coefficient sums {gamma: c_gamma} of r^n X^l_n; None where
    beta is undefined.  Every half-integer index is only formed behind its gate,
    and is asserted integral there (a gate bug would raise, not truncate).
    """
    beta = beta_table(n, l, variant)
    if beta is None:
        return None
    out = {}
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
