"""Limiting constants: the critical temperature and the CLT parameters.

The fluctuation theory has two scales.  At scale N^{-p/2} the centered free
energy is asymptotically N(0, beta^4 p!/2) for beta below the critical
point beta_p, where beta_p^2 = inf_{0<m<1} (1 + m^{-p}) phi(m) with
phi(m) = (1-m)/2 ln(1-m) + (1+m)/2 ln(1+m).  At the finer scale
A_N(p)/N, the gap between the free energy and the coupling term has limit
N(mu, sigma^2) with

    p even:  A_N = N^{3p/4 - 1/2},  mu = 0,          sigma^2 = beta^6/3 E[He_p(X)^3]
    p odd:   A_N = N^{p-1},         mu = -beta^4 p!/4, sigma^2 = beta^8/12 E[He_p(X)^4]
                                                              - beta^8 p!^2/8

with X standard normal.  Both moments are exact integers from factorials:
E[He_p^3] = p!^3 / ((p/2)!)^3 for even p (the triple-product formula), and
E[He_p^4] = sum_k (k! binom(p,k)^2)^2 (2p-2k)! from the linearization
He_p^2 = sum_k k! binom(p,k)^2 He_{2p-2k}; each is rounded to double once.
``gaussian_moment`` computes E[q(X)^r] for any polynomial q of degree <= 64
by exact rational expansion or by Gauss-Hermite quadrature; the tests hold
it against the closed forms.  beta_p is found by a golden-section search
over the scalar excess g - 2 ln 2; scipy is needed at run time for
scipy.special only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.polynomial import polyval

from .covariance import MomentPolynomial
from .errors import InvalidParametersError, check_beta, check_count, finite_double, finite_power

# Large-p limit of beta_p: the critical temperature sqrt(2 ln 2).
REM_BETA = math.sqrt(2.0 * math.log(2.0))

_LN2 = math.log(2.0)
_BRACKET_LO = 1e-6   # smallest magnetization searched
_LAYER_LO = 1e-16    # deepest boundary-layer distance 1 - m resolved
_T_TOL = 1e-10       # final bracket width of the search, in ln(1 - m)
_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)


@dataclass(frozen=True)
class LimitConstants:
    """Constants of the two limit theorems for one (beta, p)."""

    clt_variance: float
    mu: float
    sigma2: float
    a_exponent: float
    alpha_exponent: float


def _excess_objective(u: float, p: float) -> float:
    # g(1-u) - 2 ln 2 without cancellation.  With E = (1-u)^{-p} - 1 and
    # D = phi(1-u) - ln 2 the excess is 2D + E ln 2 + E D; both E and D are
    # O(u ln u) near u = 0, so the value stays accurate down to u ~ 1e-16.
    expo = -p * math.log1p(-u)
    if expo > 700.0:
        return math.inf
    big = math.expm1(expo)
    dev = (
        0.5 * (u * math.log(u) + (2.0 - u) * math.log1p(-0.5 * u))
        - 0.5 * u * _LN2
    )
    return 2.0 * dev + big * (_LN2 + dev)


def beta_p(p: int) -> float:
    """Critical inverse temperature: sqrt of inf over (0,1) of g(m).

    The minimizer approaches m = 1 - 2^{1-p} as p grows, so the search runs
    in t = ln(1 - m), from 1 - m = 1e-16 up to m = 1e-6: a golden-section
    search, which shrinks the bracket by a fixed ratio per step and stops
    once it is narrower than 1e-10 in t.  The excess is unimodal there: it
    falls to its minimum and rises after, and from p = 61 on the minimum is
    the bracket's left edge.  The objective is evaluated as the excess
    g - 2 ln 2 in a cancellation-free form; otherwise the boundary-layer
    minimum drowns in rounding and the computed value can cross the
    m -> 1 limit 2 ln 2.  By convention beta_2 = 1.
    """
    if check_count(p, "p", 2) == 2:
        return 1.0
    p = finite_double(p, "p")
    lo, hi = math.log(_LAYER_LO), math.log(1.0 - _BRACKET_LO)
    a, b = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    fa, fb = _excess_objective(math.exp(a), p), _excess_objective(math.exp(b), p)
    while hi - lo > _T_TOL:
        if fa <= fb:
            hi, b, fb = b, a, fa
            a = hi - _GOLDEN * (hi - lo)
            fa = _excess_objective(math.exp(a), p)
        else:
            lo, a, fa = a, b, fb
            b = lo + _GOLDEN * (hi - lo)
            fb = _excess_objective(math.exp(b), p)
    # clamped at 0: the excess is < 0 for every 0 < u < 2^-p, so its infimum is
    # never positive, but from p = 61 on the minimizer ~2^-p/e is below _LAYER_LO
    return math.sqrt(2.0 * _LN2 + min(fa, fb, 0.0))


def clt_variance(beta: float, p: int) -> float:
    """Variance beta^4 p!/2 of the leading-scale Gaussian limit."""
    check_count(p, "p")
    check_beta(beta)
    # 171! is past the largest double: a larger p is refused, its factorial never formed
    return finite_power(beta, 4, "beta") * finite_double(math.factorial(min(p, 171)), "p!") / 2.0


def _double_factorial_odd(m: int) -> int:
    # (2m-1)!! = (2m)! / (2^m m!)
    return math.factorial(2 * m) // ((1 << m) * math.factorial(m))


def gaussian_moment(poly: MomentPolynomial, r: int, method: str = "exact") -> float:
    """E[q(X)^r] for standard normal X and polynomial q.

    ``method="exact"`` expands q^r by exact rational convolution and pairs
    monomials with E[X^{2m}] = (2m-1)!!; odd powers vanish.
    ``method="quadrature"`` uses Gauss-Hermite nodes, enough of them that
    the polynomial integrand is integrated exactly up to rounding.
    """
    check_count(r, "r", 1, 4)
    if poly.degree * r > 64:
        raise InvalidParametersError(
            f"degree {poly.degree} * r={r} exceeds the 64 cap"
        )
    if method == "exact":
        coeffs = [Fraction(c) for c in poly.coefficients]
        power = [Fraction(1)]
        for _ in range(r):
            power = _convolve(power, coeffs)
        total = Fraction(0)
        for deg, c in enumerate(power):
            if c and deg % 2 == 0:
                total += c * _double_factorial_odd(deg // 2)
        return finite_double(total, f"E[q(X)^{r}]")
    if method == "quadrature":
        nodes = (poly.degree * r) // 2 + 1
        x, w = hermegauss(max(nodes, 1))
        with np.errstate(over="ignore"):  # an overflowed moment is refused below
            vals = polyval(x, poly.coefficients) ** r
        # einsum, not np.dot: a BLAS dot splits its sum by thread count
        return finite_double(np.einsum("i,i->", w, vals) / math.sqrt(2.0 * math.pi),
                             f"E[q(X)^{r}]")
    raise InvalidParametersError(f"unknown method {method!r}")


def _convolve(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def a_exponent(p: int) -> float:
    """a in A_N = N^a, the fine scale A_N/N: 3p/4 - 1/2 for even p, p - 1 for odd p."""
    check_count(p, "p", 3)
    return 0.75 * finite_double(p, "p") - 0.5 if p % 2 == 0 else finite_double(p - 1, "p - 1")


def hermite_moment(p: int, r: int) -> int:
    """E[He_p(X)^r] for standard normal X and r in (3, 4), as an exact integer.

    r = 3: p!^3 / ((p/2)!)^3 for even p, 0 for odd p.  r = 4:
    sum_k (k! binom(p,k)^2)^2 (2p-2k)!, pairing the linearization of He_p^2
    with itself through E[He_a He_b] = a! [a = b].
    """
    check_count(p, "p")
    if check_count(r, "r", 3, 4) == 3:
        return 0 if p % 2 else math.factorial(p) ** 3 // math.factorial(p // 2) ** 3
    return sum((math.factorial(k) * math.comb(p, k) ** 2) ** 2 * math.factorial(2 * p - 2 * k)
               for k in range(p + 1))


def limit_constants(beta: float, p: int) -> LimitConstants:
    """All fine-scale constants for one (beta, p), the moment from ``hermite_moment``.

    Finite for every p <= 80 at moderate beta.  From p = 81 at odd p and
    p = 108 at even p the moment exceeds the largest double: a
    NumericalError, and so is a power of beta past it; a finite power times
    the moment can still overflow to inf.
    """
    a = a_exponent(p)
    variance = clt_variance(beta, p)  # refuses p >= 171 before a factorial below is formed
    fact = math.factorial(p)
    r = 3 if p % 2 == 0 else 4
    moment = finite_double(hermite_moment(p, r), f"E[He_p^{r}] at p={p}")
    if r == 3:
        mu = 0.0
        sigma2 = finite_power(beta, 6, "beta") / 3.0 * moment
    else:
        base = moment / 12.0 - fact**2 / 8.0
        mu = -finite_power(beta, 4, "beta") * fact / 4.0
        sigma2 = finite_power(beta, 8, "beta") * base
    return LimitConstants(
        clt_variance=variance,
        mu=mu,
        sigma2=sigma2,
        a_exponent=a,
        alpha_exponent=a - 1.0,
    )
