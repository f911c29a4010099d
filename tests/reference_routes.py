"""Reference routes that the batched float paths must reproduce bit for bit.

block_terms folds one degree block of a Fourier series into one float
coefficient per monomial of the block; eval_terms then evaluates that term
list as one polynomial.  quadrature.block_values contracts the same weights
with the padded block table instead and evaluates it with eval_bins.
sphere_grid(65, 128) is the grid of bohr.empirical_bohr_sum.
"""

import math

import numpy as np

from monokit.basis import basis_for_degree
from monokit.quadrature import sphere_norms


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
