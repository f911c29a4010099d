"""Legendre and associated Legendre polynomials, exact in the rationals.

The associated function of degree d and order m is

    P^m_d(t) = (1 - t^2)^(m/2) * d^m/dt^m P_d(t)

with NO Condon-Shortley sign.  The square root factor is irrational, so
the exact layer works with the polynomial body Q_{d,m} = d^m/dt^m P_d and
keeps the (1-t^2)^(m/2) factor symbolic; identities are then polynomial
identities with Fraction coefficients.  For m > d the body is the zero
polynomial.

Bodies are coefficient tuples, index = power of t.  Their identities and
float values go through MPoly in the variable x0 = t (_x0_poly), so there
is one exact polynomial type and one float evaluator, mpoly.eval_terms.

Example
-------
>>> recurrence_residual(4, 2).is_zero()
True
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .mpoly import MPoly, X0, eval_terms


def double_factorial(n: int) -> int:
    """n!! with the empty-product conventions (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError(f"double factorial undefined for {n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _x0_poly(coeffs) -> MPoly:
    """The polynomial sum_k coeffs[k] x0^k."""
    return MPoly({(k, 0, 0): c for k, c in enumerate(coeffs)})


def _eval_x0(poly: MPoly, t) -> np.ndarray:
    """Float values of a real polynomial in x0 at x0 = t, through eval_terms."""
    return eval_terms(poly.float_terms(), t, 0.0, 0.0)[..., 0]


_ONE_MINUS_T2 = MPoly.one() - X0 * X0


# -- Legendre bodies ----------------------------------------------------------

@lru_cache(maxsize=None)
def legendre_coeffs(d: int) -> tuple[Fraction, ...]:
    """Coefficients of P_d(t), exact.

    P_d(t) = sum_k a_{d,k} t^(d-2k) with
    a_{d,k} = (-1)^k (2d-2k)! / (2^d k! (d-k)! (d-2k)!).
    """
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    out = [Fraction(0)] * (d + 1)
    for k in range(d // 2 + 1):
        num = (-1) ** k * math.factorial(2 * d - 2 * k)
        den = 2 ** d * math.factorial(k) * math.factorial(d - k) * math.factorial(d - 2 * k)
        out[d - 2 * k] = Fraction(num, den)
    return tuple(out)


@lru_cache(maxsize=None)
def assoc_body(d: int, m: int) -> tuple[Fraction, ...]:
    """Coefficients of Q_{d,m} = d^m/dt^m P_d; zero polynomial when m > d.

    The m-th derivative takes t^k to k!/(k-m)! t^(k-m).
    """
    if m < 0:
        raise ValueError(f"order must be >= 0, got {m}")
    if m > d:
        return ()
    return tuple(c * math.perm(k, m) for k, c in enumerate(legendre_coeffs(d)))[m:]


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


# -- identity residuals --------------------------------------------------------

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
