"""Reference routes and oracles that only the tests call.

The package keeps what the report, the command line, the demos and the
benchmark run; every independent route that the tests compare it against
lives here.

block_terms folds one degree block of a Fourier series into one float
coefficient per monomial of the block; quadrature.eval_terms then evaluates
that term list as one polynomial.  quadrature.block_values contracts the same
weights with the padded block table instead and evaluates it with eval_bins.
block_table_loop fills that table term by term, the reference of
quadrature.bin_table.  eval_bins_slot_loop is the earlier form of the float
kernel, quadrature.eval_bins: it loops over the slots and contracts each
live (element, component) in its own einsum.  sphere_grid(65, 128) is a kernel
test grid; its first 64 phi nodes are those of bohr.empirical_bohr_sum, which
takes each block's sup there and at their antipodes.  sphere_pairs_full is the
one full node reduction that quadrature.sphere_gram halves.

printed_axial_expansion and printed_taylor_sums transcribe the printed
beta_{n+1,l,k} formulas verbatim: the component-wise axial expansion of
r^n X^l_n and its parity-gated Taylor-coefficient sums.  basis.axial_closed_form
builds the first as dirac_bar of one scalar polynomial, and report.taylor_agreement
reads the second as that polynomial's x0-free coefficients.

evaluate and eval_grid evaluate an MPoly exactly at a rational point (built
by point) and in floats at Cartesian points.  The pairwise quadrature products
(inner_product_S, inner_product_B) are the reference of the batched Grams,
the quaternion-valued moment integrals (inner_sphere_h, inner_ball_h) that of
the real-product kernel of moments, and pair_real_product, that kernel's
pair route alone, the reference of its Fischer route.  The Legendre residuals
and norms check the identities of legendre.assoc_body, the truncated series
and their bisection the closed-form Bohr thresholds, fueter_power_bound_check
the modulus bound of the Fueter powers, fueter_power_permutation_sum the
Fueter powers as the literal mean over all words of their definition, and
norm_sq_ball_closed the ball norms.
"""

import itertools
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np

from monokit.basis import (_radius_sq_power, basis_for_degree, beta_table, complex_power_parts,
                           norm_sq_sphere_closed)
from monokit.fueter import fueter_power
from monokit.legendre import assoc_body, double_factorial
from monokit.moments import _numerator, ball_moment, sphere_moment
from monokit.mpoly import MPoly, X0, Z1, Z2
from monokit.quadrature import (_CONJ_TABLE, QuadratureRule, basis_samples, eval_terms,
                                radial_moment, sphere_norms)
from monokit.quaternion import Quaternion, Rational, frac

Point3 = tuple[Fraction, Fraction, Fraction]


def block_terms(n, alphas):
    """Block n of the series, alphas in degree_indices(n) order, as (exponent, 4 floats) terms."""
    elements = basis_for_degree(n)
    exps = sorted({exp for e in elements for exp in e.poly.ints})
    rows = [dict(e.poly.float_terms()) for e in elements]
    table = np.array([[row.get(exp, (0.0,) * 4) for exp in exps] for row in rows])
    scale = np.asarray(alphas, dtype=float) * math.sqrt(2 * n + 3)
    scale = scale / sphere_norms(elements)
    return list(zip(exps, np.einsum("i,imc->mc", scale, table)))


def block_table_loop(n):
    """quadrature.block_table(n) as (table, bins), filled one term at a time into a fresh table."""
    table = np.zeros((2 * n + 3, 4, n + 1, n + 1))
    for i, e in enumerate(basis_for_degree(n)):
        for (a, b, _), comps in e.poly.float_terms():
            table[i, :, a, b] = comps
    return table, tuple((a, n - a) for a in range(n + 1))


def eval_bins_slot_loop(table, bins, powers) -> np.ndarray:
    """The float kernel: E tables of bin_table at the points of powers (grid_powers); (E, 4) + grid.

    Rows comps * cos^b * sin^(s-b) are summed slot by slot from zero in ascending b; each live
    (e, k) is then one einsum (no BLAS) over the bins, in order, with the columns x0^a rho^s.
    """
    x0_pow, rho_pow, cos_pow, sin_pow = powers
    a, s = np.asarray(bins, dtype=int).reshape(-1, 2).T
    live = table.any(axis=(2, 3))
    comps = np.flatnonzero(live.any(axis=0))
    coeffs = table[:, comps][(...,) + (None,) * (cos_pow.ndim - 1)]  # onto the phi shape
    rows = np.zeros(coeffs.shape[:3] + cos_pow.shape[1:])
    term = np.empty_like(rows)  # one buffer for the products of every slot
    for b in range(table.shape[3]):
        np.multiply(coeffs[:, :, :, b], cos_pow[b], out=term)
        rows += np.multiply(term, sin_pow[np.maximum(s - b, 0)], out=term)
    radial = x0_pow[a] * rho_pow[s]
    out = np.empty(table.shape[:2] + np.broadcast_shapes(radial.shape[1:], cos_pow.shape[1:]))
    out[~live] = 0.0  # einsum zeroes the live ones before it adds
    for e, i in zip(*np.nonzero(live[:, comps])):
        # out[e, k, ...] stays an array view when the points are 0-d; out[e, k] would not
        np.einsum("b...,b...->...", radial, rows[e, i], out=out[e, comps[i], ...])
    return out


def sphere_pairs_full(rule, max_degree):
    """Every component pair of every element pair, reduced over the nodes of rule at once."""
    samples = basis_samples(rule, max_degree)
    return np.einsum("itpa,jtpb,tp->ijab", samples, samples, rule.node_weights())


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


# -- polynomial evaluation -----------------------------------------------------------

def point(x0: Rational | str, x1: Rational | str, x2: Rational | str) -> Point3:
    """Exact point of R^3; floats are rejected."""
    return (frac(x0), frac(x1), frac(x2))


def evaluate(poly: MPoly, at: Point3) -> Quaternion:
    """Exact evaluation at a rational point."""
    x0, x1, x2 = (frac(c) for c in at)
    total = Quaternion()
    for exp, coeff in poly.terms.items():
        total = total + coeff * (x0 ** exp[0] * x1 ** exp[1] * x2 ** exp[2])
    return total


def eval_grid(poly: MPoly, x0: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Float evaluation at Cartesian points (broadcastable arrays); grid+(4,)."""
    return eval_terms(poly.float_terms(), x0, np.hypot(x1, x2), np.arctan2(x2, x1))


# -- pairwise quadrature products -------------------------------------------------------

def inner_product_S(f: MPoly, g: MPoly, rule: QuadratureRule) -> np.ndarray:
    """Quaternion-valued integral of conj(f) g over S, as a 4-vector."""
    rule.require(max(f.degree(), 0) + max(g.degree(), 0))
    grid = rule.grid()
    fv, gv = eval_terms(f.float_terms(), *grid), eval_terms(g.float_terms(), *grid)
    return np.einsum("tpa,tpb,abk,tp->k", fv, gv, _CONJ_TABLE, rule.node_weights())


def sc_inner_product_S(f: MPoly, g: MPoly, rule: QuadratureRule) -> float:
    """The real inner product: integral of Sc(conj(f) g) over S."""
    return float(inner_product_S(f, g, rule)[0])


def inner_product_B(f: MPoly, g: MPoly, rule: QuadratureRule) -> np.ndarray:
    """Quaternion-valued integral of conj(f) g over the unit ball.

    Both inputs must be homogeneous; the radial direction is integrated by
    an actual Gauss-Legendre rule on [0, 1] (not the analytic 1/(n+k+3)),
    so the ball/sphere relation stays an honest statement to test.
    """
    for p in (f, g):
        if not p.is_homogeneous():
            raise ValueError("ball inner product needs homogeneous inputs")
    radial = radial_moment(max(f.degree(), 0) + max(g.degree(), 0) + 2)
    return inner_product_S(f, g, rule) * radial


# -- quaternion-valued moment integrals ---------------------------------------------------

def _integrate(poly: MPoly, moment) -> Quaternion:
    total = Quaternion()
    for exp, coeff in poly.terms.items():
        q = moment(*exp)
        if q:
            total = total + coeff * q
    return total


def sphere_integral(poly: MPoly) -> Quaternion:
    """Quaternion q with  integral_S poly dsigma = q * pi."""
    return _integrate(poly, sphere_moment)


def ball_integral(poly: MPoly) -> Quaternion:
    return _integrate(poly, ball_moment)


def inner_sphere_h(f: MPoly, g: MPoly) -> Quaternion:
    """Quaternion-valued product: integral_S conj(f) g dsigma, over pi."""
    return sphere_integral(f.conjugate() * g)


def inner_ball_h(f: MPoly, g: MPoly) -> Quaternion:
    return ball_integral(f.conjugate() * g)


def pair_real_product(f: MPoly, g: MPoly, ball: bool) -> Fraction:
    """sum_c integral f_c g_c, over pi, from every pair of terms of one parity pattern."""
    g_groups = defaultdict(list)  # exponent parity pattern -> terms
    for e2, ints in g.ints.items():
        g_groups[(e2[0] % 2, e2[1] % 2, e2[2] % 2)].append((e2, ints))
    weights = defaultdict(int)
    for e1, (a0, a1, a2, a3) in f.ints.items():
        for e2, (b0, b1, b2, b3) in g_groups[(e1[0] % 2, e1[1] % 2, e1[2] % 2)]:
            weights[(e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])] += \
                a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3
    sums = defaultdict(int)  # total degree D -> sum of weight * numerator
    for exp, w in weights.items():
        sums[sum(exp)] += w * _numerator(*exp)
    return sum((Fraction(s, double_factorial(d + 1) * (d + 3 if ball else 1) * f.den * g.den)
                for d, s in sums.items()), Fraction(0))


def norm_sq_ball_closed(n: int, m: int) -> Fraction:
    return norm_sq_sphere_closed(n, m) / (2 * n + 3)


# -- Legendre identities ----------------------------------------------------------------
# Bodies of legendre.assoc_body go through MPoly in the variable x0 = t, so
# their identities are MPoly equalities and their float values come from
# eval_terms.

def _x0_poly(coeffs) -> MPoly:
    """The polynomial sum_k coeffs[k] x0^k."""
    return MPoly({(k, 0, 0): c for k, c in enumerate(coeffs)})


def _eval_x0(poly: MPoly, t) -> np.ndarray:
    """Float values of a real polynomial in x0 at x0 = t, through eval_terms."""
    return eval_terms(poly.float_terms(), t, 0.0, 0.0)[..., 0]


_ONE_MINUS_T2 = MPoly.one() - X0 * X0


def assoc_legendre_float(d: int, m: int, t) -> float | np.ndarray:
    """P^m_d(t) = (1-t^2)^(m/2) Q_{d,m}(t), no Condon-Shortley sign."""
    t = np.asarray(t, dtype=float)
    out = (1.0 - t * t) ** (m / 2.0) * _eval_x0(_x0_poly(assoc_body(d, m)), t)
    return out if np.shape(out) else float(out)


def assoc_norm_sq(d: int, m: int) -> Fraction:
    """Exact value of the integral of (P^m_d)^2 over [-1, 1].

    (1-t^2)^m Q^2 is a genuine polynomial, so this is a rational number;
    odd powers drop out and t^a integrates to 2/(a+1).
    """
    body = _x0_poly(assoc_body(d, m))
    integrand = body * body
    for _ in range(m):
        integrand = integrand * _ONE_MINUS_T2
    return sum((2 * c.sc() / (exp[0] + 1) for exp, c in integrand.terms.items()
                if exp[0] % 2 == 0), Fraction(0))


def assoc_norm_sq_closed(d: int, m: int) -> Fraction:
    """2/(2d+1) * (d+m)!/(d-m)!"""
    return Fraction(2, 2 * d + 1) * Fraction(math.factorial(d + m), math.factorial(d - m))


def recurrence_residual(d: int, m: int) -> MPoly:
    """Body-level residual of (1-t^2) d/dt P^m_d = (d+m) P^m_{d-1} - d t P^m_d.

    After dividing out (1-t^2)^(m/2) the identity reads

        (1-t^2) Q'_{d,m} - m t Q_{d,m} = (d+m) Q_{d-1,m} - d t Q_{d,m}

    and the returned polynomial in x0 = t is LHS - RHS, exactly zero when
    the identity holds.
    """
    q_d = _x0_poly(assoc_body(d, m))
    q_prev = _x0_poly(assoc_body(d - 1, m))
    lhs = _ONE_MINUS_T2 * q_d.partial(0) - m * (X0 * q_d)
    rhs = (d + m) * q_prev - d * (X0 * q_d)
    return lhs - rhs


def ode_residual_body(d: int, m: int) -> MPoly:
    """Exact residual of the m-times differentiated Legendre equation.

    (1-t^2) Q'' - 2(m+1) t Q' + (d(d+1) - m(m+1)) Q = 0 for Q = Q_{d,m};
    this is the associated equation with the root factor divided out.
    The residual is a polynomial in x0 = t.
    """
    q = _x0_poly(assoc_body(d, m))
    dq = q.partial(0)
    return (_ONE_MINUS_T2 * dq.partial(0) - 2 * (m + 1) * (X0 * dq)
            + (d * (d + 1) - m * (m + 1)) * q)


def ode_residual(d: int, m: int, t: float) -> float:
    """Float residual of (1-t^2) P'' - 2t P' + (d(d+1) - m^2/(1-t^2)) P at t.

    Derivatives of the full associated function (root factor included) are
    evaluated analytically from the body and its derivatives; |t| = 1 is
    rejected because of the m^2/(1-t^2) pole.
    """
    if not -1.0 < t < 1.0:
        raise ValueError(f"need |t| < 1, got {t}")
    u = 1.0 - t * t
    body = _x0_poly(assoc_body(d, m))
    dbody = body.partial(0)
    q, dq, ddq = (float(_eval_x0(p, t)) for p in (body, dbody, dbody.partial(0)))
    root = u ** (m / 2.0)
    p = root * q
    g = u * dq - m * t * q
    dp = root / u * g
    dg = u * ddq - (m + 2) * t * dq - m * q
    ddp = root / (u * u) * (-(m - 2) * t * g + u * dg)
    return u * ddp - 2 * t * dp + (d * (d + 1) - m * m / u) * p


# -- truncated Bohr series ------------------------------------------------------------

def series_s1_truncated(r: float, terms: int) -> float:
    q = 2.0 * r
    return 5.0 / math.sqrt(math.pi) * sum(q ** n * (2 * n + 1) for n in range(1, terms + 1))


def series_s2_truncated(r: float, terms: int) -> float:
    return 4.0 / math.sqrt(3.0 * math.pi) * sum(r ** n / math.factorial(n)
                                                for n in range(1, terms + 1))


def _bisect(fn, lo: float, hi: float, tol: float = 1e-12) -> float:
    flo, fhi = fn(lo), fn(hi)
    if flo * fhi > 0:
        raise ValueError("bisection bracket does not straddle a root")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flo * fn(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def series_f1_threshold_truncated(terms: int = 80) -> float:
    """Bisection against the partial sum; oracle for the closed form."""
    return _bisect(lambda r: series_s1_truncated(r, terms) - 1.0, 1e-9, 0.499)


def series_f2_threshold_truncated(terms: int = 30) -> float:
    return _bisect(lambda r: series_s2_truncated(r, terms) - 1.0, 1e-9, 2.0)


# -- Fueter powers -------------------------------------------------------------------

def fueter_power_bound_check(g1: int, g2: int, points) -> float:
    """max over points of |V_gamma(x)| / r^n; the claim is that this is <= 1."""
    n = g1 + g2
    pts = np.asarray(points, dtype=float)
    r = np.sqrt((pts ** 2).sum(axis=1))
    if np.any(r == 0):
        raise ValueError("points must avoid the origin")
    values = eval_grid(fueter_power(g1, g2), pts[:, 0], pts[:, 1], pts[:, 2])
    moduli = np.sqrt((values ** 2).sum(axis=-1))
    return float(np.max(moduli / r ** n))


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
