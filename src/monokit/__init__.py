"""Exact monogenic polynomial bases on the unit ball of R^3.

Quaternion-coefficient polynomials with rational entries, the degree-wise
orthogonal system of A-valued homogeneous monogenic polynomials, its exact
sphere/ball norms, Taylor expansions in the symmetrized linear variables,
quadrature cross-checks, inequality sweeps, and the Bohr-type radius of the
associated Fourier series.
"""

from .basis import (BasisElement, BasisIndex, basis_for_degree, degree_indices,
                    norm_sq_sphere_closed, sc_e1_norm_sq_closed, sc_norm_sq_closed,
                    solid_harmonic, spherical_monogenic)
from .bohr import (BohrReport, BoundCheckReport, bohr_radius, coefficient_domination,
                   empirical_bohr_sum, empirical_bohr_sweep, random_test_function,
                   series_f1_threshold, series_f2_threshold, series_s1, series_s2,
                   verify_corollary_bounds, verify_pointwise_bounds)
from .fueter import fueter_power, taylor_coefficients, taylor_reconstruct
from .legendre import assoc_body, legendre_coeffs
from .moments import (ball_moment, inner_ball, inner_sphere, norm_sq_ball, norm_sq_sphere,
                      sphere_moment)
from .mpoly import MPoly, X0, X1, X2, Z1, Z2
from .quadrature import (FourierCoeffs, QuadratureRule, fourier_expand,
                         fourier_synthesize, gram_matrix_ball, gram_matrix_quaternion)
from .quaternion import E1, E2, E3, ONE, Quaternion, ZERO, reduced

__version__ = "0.1.0"

__all__ = [
    "BasisElement", "BasisIndex", "BohrReport", "BoundCheckReport", "E1", "E2", "E3",
    "FourierCoeffs", "MPoly", "ONE", "QuadratureRule", "Quaternion",
    "X0", "X1", "X2", "Z1", "Z2", "ZERO",
    "assoc_body", "ball_moment", "basis_for_degree",
    "bohr_radius", "coefficient_domination", "degree_indices", "empirical_bohr_sum",
    "empirical_bohr_sweep", "fourier_expand", "fourier_synthesize", "fueter_power",
    "gram_matrix_ball", "gram_matrix_quaternion", "inner_ball", "inner_sphere",
    "legendre_coeffs", "norm_sq_ball", "norm_sq_sphere", "norm_sq_sphere_closed",
    "random_test_function", "reduced", "sc_e1_norm_sq_closed", "sc_norm_sq_closed",
    "series_f1_threshold", "series_f2_threshold", "series_s1", "series_s2",
    "solid_harmonic", "spherical_monogenic", "sphere_moment", "taylor_coefficients",
    "taylor_reconstruct", "verify_corollary_bounds", "verify_pointwise_bounds",
]
