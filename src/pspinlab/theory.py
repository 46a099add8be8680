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
it against the closed forms.  beta_p is polished by a bounded Brent
minimizer kept here, so scipy is needed at run time for scipy.special only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.polynomial import polyval

from .covariance import MomentPolynomial
from .errors import InvalidParametersError, NumericalError, beta_power, check_beta, check_count

__all__ = [
    "LimitConstants",
    "beta_p",
    "clt_variance",
    "gaussian_moment",
    "hermite_moment",
    "a_exponent",
    "limit_constants",
    "REM_BETA",
]

# Large-p limit of beta_p: the critical temperature sqrt(2 ln 2).
REM_BETA = math.sqrt(2.0 * math.log(2.0))

_LN2 = math.log(2.0)
_GRID_POINTS = 10_000
_BRACKET_LO = 1e-6   # smallest magnetization kept in the scan
_LAYER_LO = 1e-16    # deepest boundary-layer distance 1 - m resolved
_BRENT_TOL = 1e-10   # xatol of the Brent polish, in ln(1 - m)


@dataclass(frozen=True)
class LimitConstants:
    """Constants of the two limit theorems for one (beta, p)."""

    clt_variance: float
    mu: float
    sigma2: float
    a_exponent: float
    alpha_exponent: float


def _excess_objective(u: float, p: int) -> float:
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


def _excess_grid(u: np.ndarray, p: int) -> np.ndarray:
    # _excess_objective over an array, for the grid scan only: numpy's
    # log/expm1 may differ from libm's in the last bit, so the scan takes
    # just its argmin from here
    expo = -p * np.log1p(-u)
    with np.errstate(over="ignore"):
        big = np.expm1(expo)
    dev = 0.5 * (u * np.log(u) + (2.0 - u) * np.log1p(-0.5 * u)) - 0.5 * u * _LN2
    return np.where(expo > 700.0, np.inf, 2.0 * dev + big * (_LN2 + dev))


def _bounded_brent(func, lo: float, hi: float, xatol: float, maxiter: int = 500) -> tuple:
    """(x, func(x)) at a minimum of func on [lo, hi]: golden section plus parabolas.

    The bounded Brent method as scipy's ``minimize_scalar(method="bounded")``
    runs it, operation for operation, so the minimizer keeps its bits.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:
            # parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        si = np.sign(rat) + (rat == 0)
        x = xf + si * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            raise NumericalError(f"bounded Brent did not converge in {num} evaluations")
    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        raise NumericalError("bounded Brent met a NaN objective")
    return xf, fx


def beta_p(p: int) -> float:
    """Critical inverse temperature: sqrt of inf over (0,1) of g(m).

    The minimizer approaches m = 1 - 2^{1-p} as p grows, so the scan runs
    on a log-spaced grid in u = 1 - m (10^4 points down to u = 1e-16) and
    bounded Brent refinement in ln u polishes the bracketing cell to
    |d ln u| < 1e-10.  The objective is evaluated as the excess g - 2 ln 2 in a
    cancellation-free form; otherwise the boundary-layer minimum drowns in
    rounding and the computed value can cross the m -> 1 limit 2 ln 2.
    By convention beta_2 = 1.
    """
    if check_count(p, "p", 2) == 2:
        return 1.0
    t_grid = np.linspace(math.log(_LAYER_LO), math.log(1.0 - _BRACKET_LO), _GRID_POINTS)
    i = int(np.argmin(_excess_grid(np.exp(t_grid), p)))
    lo = t_grid[max(i - 1, 0)]
    hi = t_grid[min(i + 1, _GRID_POINTS - 1)]
    t_min, excess = _bounded_brent(lambda t: _excess_objective(math.exp(t), p), lo, hi, _BRENT_TOL)
    if not (lo <= t_min <= hi):
        raise NumericalError(f"failed to bracket the minimum of g for p={p}")
    # clamped at 0: the excess is < 0 for every 0 < u < 2^-p, so its infimum is
    # never positive, but from p = 61 on the minimizer ~2^-p/e is below _LAYER_LO
    excess = min(excess, _excess_objective(math.exp(t_grid[i]), p), 0.0)
    return math.sqrt(2.0 * _LN2 + excess)


def clt_variance(beta: float, p: int) -> float:
    """Variance beta^4 p!/2 of the leading-scale Gaussian limit."""
    check_count(p, "p")
    check_beta(beta)
    return beta_power(beta, 4) * math.factorial(p) / 2.0


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
        return float(total)
    if method == "quadrature":
        nodes = (poly.degree * r) // 2 + 1
        x, w = hermegauss(max(nodes, 1))
        vals = polyval(x, poly.coefficients) ** r
        # einsum, not np.dot: a BLAS dot splits its sum by thread count
        return float(np.einsum("i,i->", w, vals) / math.sqrt(2.0 * math.pi))
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
    return 0.75 * p - 0.5 if p % 2 == 0 else float(p - 1)


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
    check_beta(beta)
    fact = math.factorial(p)
    r = 3 if p % 2 == 0 else 4
    try:
        moment = float(hermite_moment(p, r))
    except OverflowError:
        raise NumericalError(f"E[He_p^{r}] at p={p} exceeds the largest double") from None
    if r == 3:
        mu = 0.0
        sigma2 = beta_power(beta, 6) / 3.0 * moment
    else:
        base = moment / 12.0 - fact**2 / 8.0
        mu = -beta_power(beta, 4) * fact / 4.0
        sigma2 = beta_power(beta, 8) * base
    return LimitConstants(
        clt_variance=clt_variance(beta, p),
        mu=mu,
        sigma2=sigma2,
        a_exponent=a,
        alpha_exponent=a - 1.0,
    )
