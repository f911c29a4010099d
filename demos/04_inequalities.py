"""
Inequality sweeps with witnessed tightness
==========================================

The coefficient bounds are verified over exact Taylor coefficients and
the polynomial bound from each element's exact sphere norm (the addition
theorem bounds sup |f| on the sphere by it).  The two sphere bounds check
an exact factorization of each element; the scalar part is a harmonic, so
the same sphere-norm certificate decides its bound.  Each sweep reports the
largest ratio certified sup / bound and the cases where it reaches 1.
"""

from monokit import verify_corollary_bounds, verify_pointwise_bounds
from monokit.bohr import verify_constants_ratio_lemma, verify_sc_ratio_lemmas

# Taylor-coefficient bound: every |coefficient| of X:m and Y:m sits under
# the closed-form envelope.  The sweep is exact on the coefficient side.
corollary = verify_corollary_bounds(6)
print(f"coefficient bound, degrees 0..6: max ratio {corollary.max_ratio:.4f} "
      f"over {corollary.samples} coefficients -> passed={corollary.passed}")

# Pointwise bounds: the polynomial modulus certified from its exact sphere
# norm; the scalar part and the monogenic-constant blocks times e1 on the
# sphere, each from its exact factorization.  Every family decides one case
# per element.
reports = verify_pointwise_bounds(5)
for name, report in reports.items():
    print(f"\n{name}: max ratio {report.max_ratio:.6f} "
          f"({report.samples} cases) -> passed={report.passed}")
    if report.tight_cases:
        print(f"  tight (ratio exactly 1) at: {report.tight_cases}")

# Two ratio lemmas behind the Bohr estimate: the certified sup of |Sc| over the
# sphere against its squared norm times the closed bound, decided in rationals.
sc = verify_sc_ratio_lemmas(8)
print(f"\nscalar-part ratio lemmas, degrees 0..8: max ratio {sc.max_ratio:.6f} "
      f"-> passed={sc.passed}")

# And the constants row, which only holds from degree 1 on; the degree-0
# anomaly is carried in the report instead of being swept under the rug.
constants = verify_constants_ratio_lemma(8)
print(f"constants ratio lemma, degrees 1..8: max ratio {constants.max_ratio:.6f} "
      f"-> passed={constants.passed}")
print(f"  note: {constants.note}")
