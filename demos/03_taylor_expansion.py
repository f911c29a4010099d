"""
Taylor expansion in the symmetrized variables
=============================================

Every A-valued homogeneous monogenic polynomial is a left-coefficient
combination of the symmetrized powers of z1 = x1 - x0 e1 and
z2 = x2 - x0 e2.  The expansion and its inverse are exact, so the round
trip is rational equality, not a tolerance check.
"""

from monokit import (fueter_power, spherical_monogenic, taylor_coefficients,
                     taylor_reconstruct)

# The symmetrized power for exponent (2, 1): average of the 3 orderings of
# z1 z1 z2.  It is itself monogenic and homogeneous of degree 3.
v21 = fueter_power(2, 1)
print("symmetrized power (2,1) =", v21)
assert v21.dirac().is_zero()

# Expand a degree-3 basis element.  The coefficients live on gamma = (g1, g2)
# with g1 + g2 = 3, and they are exact quaternions.
element = spherical_monogenic(3, "X", 0)
coeffs = taylor_coefficients(element.poly)
print("\nTaylor coefficients of X:0 at degree 3:")
for gamma, value in coeffs.items():
    print(f"  gamma={gamma}: {value}")

# Reconstructing from the coefficients returns the identical polynomial.
rebuilt = taylor_reconstruct(coeffs)
assert rebuilt == element.poly
print("\nround trip: reconstruction == original (exact) ->", rebuilt == element.poly)

# The expansion is graded: a degree-n polynomial uses exactly n + 1 powers.
for n in range(6):
    count = len(taylor_coefficients(spherical_monogenic(n, "X", 1).poly))
    print(f"degree {n}: {count} Taylor coefficients")
