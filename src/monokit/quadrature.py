"""Quadrature on the unit sphere and ball, the float kernel, Fourier analysis.

The sphere rule is tensor Gauss-Legendre in t = cos(theta) crossed with a
uniform midpoint grid in phi.  For integrands that are polynomials on the
sphere of total degree D this is exact (up to roundoff) once

    n_t >= ceil((D+1)/2)   and   n_phi >= D+1,

because the integrand is a polynomial of degree <= D in t times a
trigonometric polynomial of degree <= D in phi, and the midpoint rule on a
full period integrates e^(i k phi) exactly for |k| < n_phi.  Everything in
this module is binary64; the exact counterparts live in the moments module
and are used by the tests to pin these numbers down, as are the pairwise
quadrature products in tests/reference_routes.py.

Floats are evaluated on tensor theta-phi grids, x0 and rho as (n, 1) columns and phi as a
(1, n_phi) row, x1 = rho cos phi, x2 = rho sin phi, by one kernel, eval_bins: two einsums over
a padded table binned by the x0 and rho powers (x0^a x1^b x2^c is x0^a rho^(b+c) cos^b sin^c)
and the factors of its bins on the grid, bin_factors.  One builder, bin_table, lays every table
out: fourier_expand's for one term list, block_table's for one degree block of the basis, which
basis_samples evaluates and block_values folds into one coefficient per monomial.  Float inner
products reduce the memoized basis_samples by np.einsum without BLAS, so reruns are
byte-identical; sphere_gram takes all component pairs at once.

>>> table, bins = bin_table([[((1, 0, 0), (2.0, 0.0, 0.0, 0.0)),   # 2 x0 + x1 e1
...                            ((0, 1, 0), (0.0, 1.0, 0.0, 0.0))]])
>>> x0, rho, phi = np.array([[0.6], [0.0]]), np.array([[0.8], [1.0]]), np.array([[0.0, np.pi]])
>>> values = eval_bins(table, bin_factors(bins, grid_powers(x0, rho, phi, 1)))
>>> values.shape
(1, 4, 2, 2)
>>> values[0, :2]
array([[[ 1.2,  1.2],
        [ 0. ,  0. ]],
<BLANKLINE>
       [[ 0.8, -0.8],
        [ 1. , -1. ]]])
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .basis import basis_elements, basis_for_degree, degree_indices
from .mpoly import MPoly
from .quaternion import E1, E2, E3, ONE


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only in place, so that memos may share them."""
    for v in arrays:
        v.flags.writeable = False
    return arrays


def _powers(v: np.ndarray, top: int) -> np.ndarray:
    """v^0 .. v^top by repeated multiplication, stacked on a new first axis, read-only."""
    table = np.empty((top + 1,) + v.shape)
    table[0] = 1.0
    for k in range(1, top + 1):
        np.multiply(table[k - 1], v, out=table[k])
    return _read_only(table)[0]


def grid_powers(x0, rho, phi, top: int) -> tuple[np.ndarray, ...]:
    """x0^k, rho^k on the (n, 1) columns and cos^k, sin^k of the (1, n_phi) row phi, k = 0..top."""
    return tuple(_powers(v, top) for v in (x0, rho, np.cos(phi), np.sin(phi)))


def bin_factors(bins, powers) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """eval_bins' factors of bins on the grid of powers (grid_powers), read-only: cos^b per
    slot b, sin^(s-b) per bin and slot (sin^0 past s) and x0^a rho^s per bin (a, s)."""
    x0_pow, rho_pow, cos_pow, sin_pow = powers
    a, s = np.array(bins, dtype=int).reshape(-1, 2).T
    b = np.arange(s.max(initial=-1) + 1)
    return _read_only(cos_pow[b], sin_pow[np.maximum(s[:, None] - b, 0)], x0_pow[a] * rho_pow[s])


def eval_bins(table, factors, out=None) -> np.ndarray:
    """The float kernel: E tables of bin_table on the grid of bin_factors; (E, 4, n, n_phi).

    radial is (bins, n, 1) and cos_rows (slots, 1, n_phi).  One einsum sums the rows
    (comps * cos^b) * sin^(s-b) over the slots from zero in ascending b, one more (no BLAS) the
    rows times the radial columns over the bins in order, along rows of all E * 4 * n_phi values,
    into a contiguous buffer of E * 4 * n * n_phi floats (out, if given) of which the result is
    a view."""
    cos_rows, sin_rows, radial = factors
    n_e, n_k, n_bins = table.shape[:3]
    n, n_phi = radial.shape[1], cos_rows.shape[-1]
    out = np.empty(n_e * n_k * n * n_phi) if out is None else out
    rows = np.einsum("ekib,b...,ib...->iek...", table, cos_rows, sin_rows, order="C")
    np.einsum("b...,b...->...", radial, rows.reshape(n_bins, n_e * n_k * n_phi),
              out=out.reshape(n, -1))
    return np.moveaxis(out.reshape(n, n_e, n_k, n_phi), 0, 2)


def bin_table(term_lists) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """eval_bins' padded table and bins for E lists of (exponent, 4 floats) terms, each read once.

    table[e, k, i, b] is component k of list e on x0^a rho^s cos^b sin^(s-b), (a, s) = bins[i]:
    bins are the sorted (a, b+c) pairs present, b > s is zero padding, and repeated exponents add.
    """
    exps, values, ends = [], [], []
    for terms in term_lists:
        for exp, comps in terms:
            exps.extend(exp)
            values.extend(comps)  # += would broadcast an ndarray of comps
        ends.append(len(values) // 4)
    a, b, c = np.array(exps, dtype=int).reshape(-1, 3).T
    element = np.repeat(np.arange(len(ends)), [j - i for i, j in zip([0] + ends, ends)])
    width = int((b + c).max(initial=-1)) + 1
    keys = a * width + b + c  # these sort as the (a, s) pairs
    bins = sorted(set(keys.tolist()))
    table = np.zeros((len(ends), 4, len(bins), width))
    np.add.at(table, (element, slice(None), np.searchsorted(bins, keys), b),
              np.array(values, dtype=float).reshape(-1, 4))
    return table, tuple(divmod(key, width) for key in bins)


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes/weights for the sphere; weights sum to 4*pi.

    for_degree shares one read-only rule per degree, so equal rules are identical.
    """

    t_nodes: np.ndarray
    t_weights: np.ndarray
    n_phi: int
    exactness_degree: int

    @classmethod
    @lru_cache(maxsize=None)
    def for_degree(cls, max_degree: int, /) -> QuadratureRule:
        if max_degree < 0:
            raise ValueError(f"max_degree must be >= 0, got {max_degree}")
        n_t = max((max_degree + 1 + 1) // 2, 1)
        n_phi = max(max_degree + 1, 1)
        nodes, weights = np.polynomial.legendre.leggauss(n_t)
        return cls(*_read_only(nodes, weights), n_phi, max_degree)

    def require(self, degree: int) -> None:
        """Raise ValueError unless the rule is exact for polynomials of total degree `degree`."""
        if self.exactness_degree < degree:
            raise ValueError(f"rule exact to degree {self.exactness_degree}, need {degree}")

    @lru_cache(maxsize=None)
    def grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The node grid as grid_powers takes it: x0 = t and rho as (n_t, 1), phi as (1, n_phi)."""
        t = self.t_nodes[:, None]
        phi = 2.0 * np.pi * (np.arange(self.n_phi) + 0.5) / self.n_phi
        return _read_only(t, np.sqrt(1.0 - t * t), phi[None, :])

    @lru_cache(maxsize=None)
    def node_weights(self) -> np.ndarray:
        """Weight of each grid node, shape (n_t, n_phi)."""
        return _read_only(np.outer(self.t_weights, np.full(self.n_phi, 2 * np.pi / self.n_phi)))[0]

    @lru_cache(maxsize=None)
    def powers(self, top: int) -> tuple[np.ndarray, ...]:
        return grid_powers(*self.grid(), top)  # read-only, as grid_powers' tables are


@lru_cache(maxsize=None)
def radial_moment(power: int) -> float:
    """Gauss-Legendre value of the integral of r^power over [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(power // 2 + 2)
    r = 0.5 * (nodes + 1.0)
    return float(np.dot(weights, 0.5 * r ** power))


# _CONJ_TABLE[a, b] holds the components of conj(u_a) u_b for the units u
_UNITS = (ONE, E1, E2, E3)
_CONJ_TABLE = np.array([[(p.conjugate() * q).to_floats() for q in _UNITS] for p in _UNITS])


@dataclass
class FourierCoeffs:
    """Real coefficients w.r.t. the ball-orthonormal system, by degree block.

    values[(n, label)] is the coefficient of sqrt(2n+3) r^n X^(m,*)_n (or
    Y), labels as in BasisIndex ("X:0", "X:1", "Y:1", ...).
    """

    max_degree: int
    values: dict[tuple[int, str], float] = field(default_factory=dict)

    def coefficient(self, n: int, label: str) -> float:
        return self.values[(n, label)]

    def block(self, n: int) -> list[float]:
        return [self.values.get((n, ix.label), 0.0) for ix in degree_indices(n)]

    def items(self):
        return sorted(self.values.items())

    def to_json_dict(self) -> dict:
        return {"max_degree": self.max_degree,
                "coefficients": [{"n": n, "index": label, "value": v}
                                 for (n, label), v in self.items()]}


@lru_cache(maxsize=16)
def basis_samples(rule: QuadratureRule, max_degree: int) -> np.ndarray:
    """Raw basis polynomials on the rule grid, shape (elements, n_t, n_phi, 4).

    Elements are ordered as basis_elements(max_degree), one eval_bins call per
    block_table.  The array is memoized per rule and degree (the 16 most recent,
    a few MB at most each) and shared by every caller, so it is read-only.
    """
    samples = np.concatenate([eval_bins(table, bin_factors(bins, rule.powers(max_degree)))
                              for table, bins in map(block_table, range(max_degree + 1))])
    return _read_only(np.moveaxis(np.ascontiguousarray(samples), 1, -1))[0]  # strides: sum order


def radial_pairs(degrees: np.ndarray) -> np.ndarray:
    """radial_moment(n + k + 2) for every pair of element degrees, shape (E, E)."""
    table = np.array([radial_moment(k + 2) for k in range(2 * degrees.max() + 1)])
    return table[degrees[:, None] + degrees[None, :]]


@lru_cache(maxsize=None)
def _element_scales(max_degree: int) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
    """Keys (n, label), degrees, sphere norms and sqrt(2n+3) of basis_elements(max_degree)."""
    elements = basis_elements(max_degree)
    degrees = np.array([e.index.n for e in elements])
    return ([(e.index.n, e.index.label) for e in elements],
            *_read_only(degrees, np.array([e.norm_S for e in elements]), np.sqrt(2 * degrees + 3)))


def fourier_expand(f: MPoly, max_degree: int, rule: QuadratureRule) -> FourierCoeffs:
    """Project onto the orthonormal system, degrees 0..max_degree.

    The coefficient of sqrt(2n+3) r^n X^(m,*)_n is the real ball inner
    product with that unit vector; by homogeneity and the cross-degree
    sphere orthogonality of the system it reduces to a sphere integral:

        alpha = <f restricted to S, X^(m,*)_n>_S / sqrt(2n+3).

    f is a polynomial, sampled on the rule grid; the rule must integrate
    its products with the degree-max_degree elements exactly, else ValueError.
    """
    rule.require(max(f.degree(), 0) + max_degree)
    table, bins = bin_table([f.float_terms()])
    values = eval_bins(table, bin_factors(bins, rule.powers(rule.exactness_degree)))[0]
    raw = np.einsum("itpc,ctp,tp->i", basis_samples(rule, max_degree),
                    np.ascontiguousarray(values), rule.node_weights())  # strides set sum order
    keys, _, norms, roots = _element_scales(max_degree)
    return FourierCoeffs(max_degree, dict(zip(keys, (raw / norms / roots).tolist())))


@lru_cache(maxsize=None)
def block_table(n: int) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """The bin_table of the degree-n elements (degree_indices(n) order), shared, read-only.

    Each block holds all n+1 powers of x0 (tested through n = 16), so bin a is (a, n - a)
    and the table is (2n+3, 4, n+1, n+1), under 50 KB at n = 8.
    """
    table, bins = bin_table(e.poly.float_terms() for e in basis_for_degree(n))
    return _read_only(table)[0], bins


def block_values(coeffs: FourierCoeffs, n: int, factors, out=None) -> np.ndarray:
    """Block n of the series on the grid of its bin_factors, (4, n, n_phi); out as in eval_bins.

    One einsum (no BLAS) contracts the weights sqrt(2n+3) alpha / norm_S with block_table.
    """
    scale = np.asarray(coeffs.block(n), dtype=float) * math.sqrt(2 * n + 3)
    scale = scale / _element_scales(n)[2][n * (n + 2):]  # block n's norms come last
    return eval_bins(np.einsum("i,i...->...", scale, block_table(n)[0])[None], factors, out)[0]


@lru_cache(maxsize=None)
def sphere_gram(max_degree: int) -> np.ndarray:
    """Integrals of conj(f_i) f_j over S for the raw basis through max_degree, (E, E, 4).

    Elements are ordered as basis_elements(max_degree), on the rule exact to 2 max_degree.  The
    node reduction yields every component pair (a, b) at once, each degree block against the
    blocks from it on, the rest mirrored; the pairwise products over the nodes are never stored.
    Component 0 is the real Gram.  Memoized per degree and shared, so read-only.
    """
    rule = QuadratureRule.for_degree(2 * max_degree)
    samples = basis_samples(rule, max_degree)
    pairs = np.empty((len(samples),) * 2 + (4, 4))
    for n in range(max_degree + 1):
        lo, hi = n * (n + 2), (n + 1) * (n + 3)  # block n, after the 2k+3 elements of each k < n
        block = np.einsum("itpa,jtpb,tp->ijab", samples[lo:hi], samples[lo:], rule.node_weights())
        pairs[lo:hi, lo:], pairs[lo:, lo:hi] = block, block.transpose(1, 0, 3, 2)
    return _read_only(np.einsum("ijab,abk->ijk", pairs, _CONJ_TABLE))[0]


def gram_matrix_ball(max_degree: int) -> np.ndarray:
    """Real-inner-product Gram of the full orthonormal system, degrees <= max_degree.

    Entry order is degree-major with the canonical within-degree ordering;
    the matrix should be the identity (Theorem-level claim, tested).  The
    ball integral is the sphere integral times the radial moment of
    r^(n+k+2), normalized by sqrt(2n+3)/norm_S on each side.
    """
    _, degrees, norms, roots = _element_scales(max_degree)
    scale = roots / norms
    return sphere_gram(max_degree)[..., 0] * radial_pairs(degrees) * np.outer(scale, scale)


def gram_matrix_quaternion(n: int) -> np.ndarray:
    """Quaternion-valued sphere Gram of one degree block, shape (s, s, 4).

    This one is not diagonal: the system is orthonormal for the real inner
    product, while the quaternion-valued products keep nonzero vector
    parts.  Reported for inspection, never asserted diagonal.
    """
    norms = _element_scales(n)[2][n * (n + 2):]  # block n's norms come last
    return sphere_gram(n)[-len(norms):, -len(norms):] / np.outer(norms, norms)[..., None]
