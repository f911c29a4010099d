"""Bohr-type radius machinery and the inequality verifiers.

Two scalar majorant series control the block split f = f1 + f2 of a bounded
monogenic function (f2 collects the order-(n+1) monogenic-constant blocks):

    S1(r) = (5/sqrt(pi))  * sum_{n>=1} (2r)^n (2n+1)
          = (5/sqrt(pi))  * (2q/(1-q)^2 + q/(1-q)),  q = 2r < 1
    S2(r) = (4/sqrt(3 pi)) * sum_{n>=1} r^n/n!
          = (4/sqrt(3 pi)) * (e^r - 1).

The radius below which the term-moduli sum of the Fourier expansion stays
under 1 is min(r1, r2) with S1(r1) = S2(r2) = 1; the first series binds.
Both thresholds are closed forms; bisection on the truncated partial sums,
their independent oracle, lives in tests/reference_routes.py.

The verify_* functions decide the coefficient and pointwise inequalities
(Taylor-coefficient bounds, pointwise polynomial bounds, scalar-part
bounds) and report the worst certified/allowed ratio per claim.  Each sweep,
the empirical one too, only generates (ratio, case) pairs, one per case; one
fold, _sweep, builds every report.  A bound sweep passes at a maximum of at
most 1, the empirical sweep only strictly below 1; no tolerance is applied.

If each component of f is harmonic and homogeneous of degree n, the addition
theorem for spherical harmonics (Stein & Weiss 1971, ch. IV) gives sup_S |f|^2
<= (2n+1)/4 ||f||^2/pi, _sphere_sup_sq; _harmonic_sup_sq checks the premise.  It
decides the polynomial family, the scalar-part family (Sc X^m_n is a harmonic of
degree n) and its ratio lemmas, and scales the random test functions.

The two sphere families check an exact factorization per element, Sc X^m_n =
(n+1+m)/2 r^n U^m_n and (X^{n+1}_n)_1 = -(n+1)/2 (2n+1)!! Re (x1 + i x2)^n.
The scalar-part family and its ratio lemmas decide sup_S |Sc X^m_n| <= (n+1+m)!/
(2 n!) in Fractions (pi times a lemma bound is rational): each ratio is the sqrt
of one exact quotient, equal in both routes, 1 at m = 0.  The constants family
reads its supremum _e1_sc_sup, its lemma exactly 1/2.  No bound family samples.

The empirical sweep draws each random admissible f as a coefficient vector
over the basis; no polynomial is built or expanded per function.  Block sups take 65 x 64
theta-phi nodes, phi in [0, pi) (a degree-n block is (-1)^n itself at -x), kept factored
(cos, sin theta; phi), the kernel's factors of each block built once, one value buffer.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .basis import (basis_elements, basis_for_degree, complex_power_parts,
                    norm_sq_sphere_closed, sc_e1_norm_sq_closed, solid_harmonic,
                    spherical_monogenic)
from .fueter import taylor_coefficients
from .legendre import double_factorial
from .moments import norm_sq_sphere
from .mpoly import MPoly
from .quadrature import FourierCoeffs, bin_factors, block_table, block_values, grid_powers


# -- majorant series -----------------------------------------------------------


def series_s1(r: float) -> float:
    """Closed form of (5/sqrt(pi)) sum_{n>=1} (2r)^n (2n+1), for 0 <= 2r < 1."""
    q = 2.0 * r
    if not 0.0 <= q < 1.0:
        raise ValueError(f"need 0 <= r < 1/2, got r={r}")
    return 5.0 / math.sqrt(math.pi) * (2.0 * q / (1.0 - q) ** 2 + q / (1.0 - q))


def series_s2(r: float) -> float:
    """Closed form of (4/sqrt(3 pi)) sum_{n>=1} r^n/n!."""
    if r < 0.0:
        raise ValueError(f"need r >= 0, got {r}")
    return 4.0 / math.sqrt(3.0 * math.pi) * math.expm1(r)


def series_f1_threshold() -> float:
    """r1 with S1(r1) = 1, in closed form.

    With s = sqrt(pi)/5, S1 = 1 reads 2q/(1-q)^2 + q/(1-q) = s, that is
    (1+s) q^2 - (3+2s) q + s = 0; q = 2 r1 is the root in (0, 1).
    """
    s = math.sqrt(math.pi) / 5.0
    q = ((3.0 + 2.0 * s) - math.sqrt(9.0 + 8.0 * s)) / (2.0 * (1.0 + s))
    return q / 2.0


def series_f2_threshold() -> float:
    """r2 with S2(r2) = 1; closed form ln(1 + sqrt(3 pi)/4)."""
    return math.log1p(math.sqrt(3.0 * math.pi) / 4.0)


@dataclass
class BohrReport:
    r1: float
    r2: float
    radius: float
    margins: dict[float, tuple[float, float]] = field(default_factory=dict)

    @property
    def f1_binds(self) -> bool:
        return self.r1 <= self.r2

    def to_json_dict(self) -> dict:
        return {
            "r1": self.r1,
            "r2": self.r2,
            "radius": self.radius,
            "f1_binds": self.f1_binds,
            "margins": {repr(r): {"S1": s1, "S2": s2}
                        for r, (s1, s2) in sorted(self.margins.items())},
        }


def bohr_radius(extra_radii=()) -> BohrReport:
    """Both thresholds plus margin values of the two series.

    The default margin radii include 0.047 (where S1 < 1 still holds) and
    0.05 (where S1 is already slightly above 1, showing the headline radius
    is a rounding of r1).
    """
    r1 = series_f1_threshold()
    r2 = series_f2_threshold()
    report = BohrReport(r1, r2, min(r1, r2))
    for r in sorted({0.04, 0.047, 0.049, 0.05, 0.06, *extra_radii}):
        report.margins[r] = (series_s1(r), series_s2(r))
    return report


# -- coefficient domination (the per-coefficient inequalities of the proof) ------


def coefficient_domination(k: int, kind: str, m: int, alpha0: float, delta: float) -> float:
    """Upper bound on sqrt(2k+3) |coefficient| for the degree-k order-m block.

    For m <= k the comparison coefficient alpha0 is the constant-block
    alpha^0_0 and the factor is (delta - (1/2) sqrt(3/pi) alpha0); for
    m = k+1 (the monogenic-constant block) alpha0 means alpha^1_0 and the
    factor is ((1-delta) - (1/2) sqrt(3/pi) alpha0).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if kind not in ("X", "Y"):
        raise ValueError(f"kind must be X or Y, got {kind!r}")
    if kind == "Y" and m == 0:
        raise ValueError("the Y family has no order-0 element")
    if not 0 <= m <= k + 1:
        raise ValueError(f"order {m} out of range at degree {k}")
    if m == 0:
        factor = delta - 0.5 * math.sqrt(3.0 / math.pi) * alpha0
        return 1.0 / math.sqrt(math.pi) * (2 * k + 1) / (k + 1) * factor
    if m <= k:
        factor = delta - 0.5 * math.sqrt(3.0 / math.pi) * alpha0
        return (2.0 / math.sqrt(math.pi) * (2 * k + 1) * math.factorial(k - m)
                / ((k + 1 + m) * math.factorial(k)) * factor)
    factor = (1.0 - delta) - 0.5 * math.sqrt(3.0 / math.pi) * alpha0
    return 4.0 / math.sqrt(3.0 * math.pi) / (2 ** k * math.factorial(k + 1)) * factor


# -- bound sweep reports -----------------------------------------------------------


@dataclass
class BoundCheckReport:
    proposition: str
    degree_range: tuple[int, int]
    max_ratio: float
    passed: bool
    worst_case: dict = field(default_factory=dict)
    samples: int = 0
    tight_cases: list = field(default_factory=list)
    note: str = ""  # a case the sweep leaves out, stated in prose

    def to_json_dict(self) -> dict:
        doc = {**asdict(self), "degree_range": list(self.degree_range)}
        return doc if self.note else {k: v for k, v in doc.items() if k != "note"}


def _sweep(proposition: str, degree_range: tuple[int, int], cases,
           passes=lambda max_ratio: max_ratio <= 1.0) -> BoundCheckReport:
    """Fold (ratio, case) pairs, in order, into a finished report.

    The witness is the earliest case at the maximum, {} for an empty sweep,
    and the tight cases are those at exactly 1.
    """
    cases = list(cases)
    max_ratio = max((ratio for ratio, _ in cases), default=0.0)
    return BoundCheckReport(proposition, degree_range, max_ratio, passes(max_ratio),
                            next((case for ratio, case in cases if ratio == max_ratio), {}),
                            len(cases), [case for ratio, case in cases if ratio == 1.0])


def _bound_sq_over_pi(n: int, m: int, lead: int) -> Fraction:
    """lead^2 times the closed-form ball norm ||X^m_n||^2_B / pi, exact: the printed
    coefficient bound at lead = (n+1)!/gamma!, the pointwise one at (n+1) 2^n."""
    return lead ** 2 * norm_sq_sphere_closed(n, m) / (2 * n + 3)


_PI_BELOW = Fraction(333, 106)  # < pi, so a bound with a factor pi is decided exactly


def _pi_ratio(sup_sq: Fraction | None, bound_sq_over_pi: Fraction) -> float:
    """sqrt(sup_sq / (pi bound_sq_over_pi)); inf unless sup_sq <= _PI_BELOW bound_sq_over_pi,
    which decides sup_sq <= pi bound_sq_over_pi in Fractions."""
    holds = sup_sq is not None and sup_sq <= _PI_BELOW * bound_sq_over_pi
    return math.sqrt(sup_sq) / math.sqrt(math.pi * bound_sq_over_pi) if holds else math.inf


def verify_corollary_bounds(n_max: int) -> BoundCheckReport:
    """Exact Taylor coefficients c_gamma of every element against the printed bound
    (n+1)!/gamma! sqrt(pi (n+1)/(2n+3)) (times its m >= 1 factor), decided from |c|^2."""
    return _sweep("taylor-coefficient-bounds", (0, n_max), (
        (_pi_ratio(c.norm_sq(), _bound_sq_over_pi(
            n, e.index.m, math.factorial(n + 1) // math.prod(map(math.factorial, gamma)))),
         {"n": n, "index": e.index.label, "gamma": list(gamma)})
        for n in range(n_max + 1) for e in basis_for_degree(n)
        for gamma, c in taylor_coefficients(e.poly).items()))


def pointwise_polynomial_bound(n: int, m: int) -> float:
    """r^n (n+1) 2^n sqrt(...) bound at r = 1 (homogeneity covers the rest)."""
    return math.sqrt(math.pi * _bound_sq_over_pi(n, m, (n + 1) * 2 ** n))


def _sphere_sup_sq(n: int, norm_sq: Fraction) -> Fraction:
    """sup_S |f|^2 <= (2n+1)/4 ||f||^2/pi = (2n+1)/4 norm_sq; see the module docstring."""
    return Fraction(2 * n + 1, 4) * norm_sq


def _harmonic_sup_sq(p: MPoly, n: int, norm_sq: Fraction) -> Fraction | None:
    """_sphere_sup_sq(n, norm_sq = ||p||^2/pi) if p is homogeneous of degree n with
    a zero Laplacian, else None."""
    return _sphere_sup_sq(n, norm_sq) if p.harmonic_degree() == n else None


def _decided_ratio(sup_sq: Fraction | None, bound: Fraction) -> float:
    """sqrt(sup_sq / bound^2), one exact quotient; inf unless sup_sq <= bound^2."""
    holds = sup_sq is not None and sup_sq <= bound * bound
    return math.sqrt(sup_sq / (bound * bound)) if holds else math.inf


def verify_polynomial_bounds(n_max: int) -> BoundCheckReport:
    """|f(x)| <= pointwise_polynomial_bound(n, m) |x|^n for every element f, decided by
    _pi_ratio from _harmonic_sup_sq; a failed premise or comparison gives inf."""
    return _sweep("pointwise-polynomial-bounds", (0, n_max), (
        (_pi_ratio(_harmonic_sup_sq(e.poly, n, e.norm_sq_S),
                   _bound_sq_over_pi(n, e.index.m, (n + 1) * 2 ** n)),
         {"n": n, "index": e.index.label})
        for n in range(n_max + 1) for e in basis_for_degree(n)))


def _e1_sc_sup(n: int) -> Fraction:
    """sup_S |Sc(X^{n+1}_n e1)| = (n+1)/2 (2n+1)!!, attained on the equator."""
    return Fraction(n + 1, 2) * double_factorial(2 * n + 1)


def verify_scalar_part_bounds(n_max: int) -> BoundCheckReport:
    """sup_S |Sc X^m_n|, sup_S |Sc Y^m_n| <= (n+1+m)!/(2 n!) for m <= n: Sc is (n+1+m)/2
    r^n U^m_n (V for Y), and _harmonic_sup_sq(Sc) <= bound^2.  A failure gives inf."""
    def ratio(n, e):
        m = e.index.m
        harmonic = solid_harmonic(n, "U" if e.index.kind == "X" else "V", m)
        if (sc := e.poly.sc()) != Fraction(n + 1 + m, 2) * harmonic:
            return math.inf
        return _decided_ratio(_harmonic_sup_sq(sc, n, norm_sq_sphere(sc)),
                              Fraction(math.factorial(n + 1 + m), 2 * math.factorial(n)))

    return _sweep("scalar-part-bounds", (0, n_max), (
        (ratio(n, e), {"n": n, "index": e.index.label})
        for n in range(n_max + 1) for e in basis_for_degree(n) if e.index.m <= n))


def verify_constants_e1_bounds(n_max: int) -> BoundCheckReport:
    """sup_S |Sc(X^{n+1}_n e1)|, same for Y, <= (n+1)/2 (2n+1)!!, with Sc(f e1) = -f_1.
    On S, Re (x1 + i x2)^n is sin^n(theta) cos(n phi) (Im: sin), and Im is 0 at
    n = 0.  A failed identity gives inf."""
    def ratio(n, e):
        angular = complex_power_parts(n)[e.index.kind == "Y"]
        if e.poly.component(1) != -_e1_sc_sup(n) * angular:
            return math.inf
        sup = 0 if angular.is_zero() else _e1_sc_sup(n)
        return _decided_ratio(sup * sup, Fraction(n + 1, 2) * double_factorial(2 * n + 1))

    return _sweep("constants-e1-scalar-bounds", (0, n_max), (
        (ratio(n, e), {"n": n, "kind": e.index.kind})
        for n in range(n_max + 1) for e in basis_for_degree(n) if e.index.m == n + 1))


def verify_pointwise_bounds(n_max: int) -> dict[str, BoundCheckReport]:
    """The three pointwise families, keyed 'polynomial', 'scalar-part' and 'constants-e1'."""
    return {"polynomial": verify_polynomial_bounds(n_max),
            "scalar-part": verify_scalar_part_bounds(n_max),
            "constants-e1": verify_constants_e1_bounds(n_max)}


def verify_sc_ratio_lemmas(k_max: int) -> BoundCheckReport:
    """sup |Sc| / ||Sc||^2 against the per-order ratios used in the radius proof.

    m = 0 row: <= (1/(2 pi)) (2k+1)/(k+1); m = 1..k rows: <= (1/pi)
    (2k+1)(k-m)!/((k+1+m) k!).  sup^2 is _harmonic_sup_sq(Sc), and ||Sc||^2/pi and
    pi times the bound are rational, so sup <= ||Sc||^2 bound is decided in Fractions.
    """
    def ratio(k: int, m: int) -> float:
        sc = spherical_monogenic(k, "X", m).poly.sc()
        norm_sq = norm_sq_sphere(sc)
        bound_pi = (Fraction(2 * k + 1, 2 * (k + 1)) if m == 0 else Fraction(
            (2 * k + 1) * math.factorial(k - m), (k + 1 + m) * math.factorial(k)))
        return _decided_ratio(_harmonic_sup_sq(sc, k, norm_sq), norm_sq * bound_pi)

    return _sweep("scalar-ratio-lemmas", (0, k_max), (
        (ratio(k, m), {"k": k, "m": m}) for k in range(k_max + 1) for m in range(k + 1)))


def verify_constants_ratio_lemma(k_max: int) -> BoundCheckReport:
    """sup |Sc(X^{k+1}_k e1)| / ||...||^2 <= (2/pi) / (2^k (k+1)!) for k >= 1.

    At k = 0 the printed right side is below the true ratio (the phi-average
    of cos^2(k phi) jumps from 1/2 to 1 there); the report keeps k = 0 out of
    the pass flag and states it in its note instead.
    """
    def ratio(k: int) -> float:  # ||...||^2/pi and the bound times pi, exact
        bound_pi = Fraction(2, 2 ** k * math.factorial(k + 1))
        return _decided_ratio(_e1_sc_sup(k) ** 2, sc_e1_norm_sq_closed(k) * bound_pi)

    report = _sweep("constants-ratio-lemma", (1, k_max),
                    ((ratio(k), {"k": k}) for k in range(1, k_max + 1)))
    report.note = f"k=0 X-branch ratio {(0.5 / math.pi) / (2.0 / math.pi)} vs printed bound 1"
    return report


# -- empirical Bohr property -----------------------------------------------------


@lru_cache(maxsize=None)
def _bohr_block_factors(n: int) -> tuple[np.ndarray, ...]:
    """bin_factors of block n at the sum's 65 x 64 theta-phi nodes, poles in, phi in [0, pi)."""
    theta = np.linspace(0.0, np.pi, 65)[:, None]
    phi = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)[None, :64]
    return bin_factors(block_table(n)[1], grid_powers(np.cos(theta), np.sin(theta), phi, n))


def random_test_function(rng: np.random.Generator, max_degree: int = 5) -> FourierCoeffs:
    """Fourier coefficients of an A-valued monogenic f with certified sup_B |f| < 1, Sc f > 0.

    f is a constant c in [1/4, 3/4] plus g, exact rational weights num/8 on the
    raw basis elements through max_degree times an exact rational scale.  Same-
    degree elements are orthogonal, so block n of g has ||g_n||^2/pi = sum w_e^2
    norm_sq_S, and sqrt(_sphere_sup_sq) of it, rounded up past a multiple of
    1/1024, bounds |g_n| on the ball.  The scale takes the sum over n of those to
    a budget b < min(c, 1 - c), so |f| <= c + b < 1 and Sc f >= c - b > 0.
    """
    constant = Fraction(int(rng.integers(4, 13)), 16)
    budget = min(constant, 1 - constant) * Fraction(3, 4)
    elements = basis_elements(max_degree)
    weights = [Fraction(int(rng.integers(-9, 10)), 8) for _ in elements]
    block_norm_sq = [Fraction(0)] * (max_degree + 1)
    for e, w in zip(elements, weights):
        block_norm_sq[e.index.n] += w * w * e.norm_sq_S
    ticks = sum(math.isqrt(math.ceil(1024 ** 2 * _sphere_sup_sq(n, norm_sq))) + 1
                for n, norm_sq in enumerate(block_norm_sq))  # (isqrt(k) + 1)^2 > k
    scale = budget / Fraction(ticks, 1024)
    weights = [scale * w for w in weights]
    weights[0] += 2 * constant  # the degree-0 element X:0 is the constant 1/2
    return FourierCoeffs(max_degree, {  # over the unit vectors sqrt(2n+3) e / norm_S
        (e.index.n, e.index.label): float(w) * e.norm_S / math.sqrt(2 * e.index.n + 3)
        for e, w in zip(elements, weights)})


def empirical_bohr_sum(coeffs: FourierCoeffs, r: float) -> float:
    """sum over degree blocks of r^n sup_S |block_n|, the radius claim's left side.

    Block n is sqrt(2n+3) { X^0 alpha_0 + sum_m (X^m alpha_m + Y^m beta_m) } on S.  Its sup is
    taken at 65 x 64 theta-phi nodes, phi in [0, pi), since block_n(-x) = (-1)^n block_n(x).
    """
    if not 0.0 <= r < 1.0:
        raise ValueError(f"need 0 <= r < 1, got {r}")
    buffer, square, total = np.empty(4 * 65 * 64), np.empty((65, 64)), 0.0
    for n in range(coeffs.max_degree + 1):
        values = block_values(coeffs, n, _bohr_block_factors(n), buffer)
        np.einsum("k...,k...->...", values, values, out=square)  # |block|^2, no BLAS
        total += r ** n * math.sqrt(square.max())
    return total


def empirical_bohr_sweep(count: int, r: float = 0.049, seed: int = 2024,
                         max_degree: int = 5) -> BoundCheckReport:
    """Generate `count` admissible functions; each block-moduli sum at r must stay below 1."""
    rng = np.random.default_rng(seed)
    return _sweep("empirical-bohr-sum", (0, max_degree), (
        (empirical_bohr_sum(random_test_function(rng, max_degree), r), {"function": i})
        for i in range(count)), passes=lambda max_ratio: max_ratio < 1.0)
