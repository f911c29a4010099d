"""
The Bohr-type radius
====================

Two majorant series control the Fourier blocks of a bounded monogenic
function with positive scalar part; the radius is where the first one
reaches 1.  The demo solves both thresholds, shows the margins around the
headline value 0.05, and then tests the inequality empirically on a
family of certified random functions.
"""

from monokit import bohr_radius, coefficient_domination, empirical_bohr_sweep, series_s1

# Solve both threshold equations.  r1 is the root of a quadratic in 2r;
# r2 has a logarithmic closed form.
report = bohr_radius()
print(f"r1 = {report.r1:.12f}   (first series reaches 1)")
print(f"r2 = {report.r2:.12f}   (second series reaches 1)")
print(f"radius = min(r1, r2) = {report.radius:.12f}, first series binds:",
      report.f1_binds)

# The margins show the headline 0.05 is a rounding of r1: the series is
# still below 1 at 0.047 and already above 1 at 0.05.
print("\nmargins (radius -> S1, S2):")
for r in sorted(report.margins):
    s1, s2 = report.margins[r]
    flag = "<1" if s1 < 1 else ">1"
    print(f"  {r:.3f} -> S1={s1:.6f} {flag}, S2={s2:.6f}")
assert series_s1(0.047) < 1.0 < series_s1(0.05)

# The coefficient-domination rows that feed the series: bounds on
# sqrt(2k+3) |coefficient| for a function with |f| < 1 and Sc f > 0.
print("\ncoefficient domination at k=2, alpha0=0.5, delta=0.5:")
for kind, m in (("X", 0), ("X", 1), ("X", 3)):
    value = coefficient_domination(2, kind, m, alpha0=0.5, delta=0.5)
    print(f"  kind={kind}, m={m}: {value:.6f}")

# Empirical check: random reduced-quaternion polynomials, drawn as coefficient
# vectors over the basis and certified to have modulus < 1 and positive scalar
# part; their Fourier block sums at r = 0.049 stay below 1.
sweep = empirical_bohr_sweep(12, r=0.049, seed=99)
print(f"\nempirical sweep: {sweep.samples} functions at r=0.049, "
      f"max block sum {sweep.max_ratio:.6f} -> passed={sweep.passed}")
