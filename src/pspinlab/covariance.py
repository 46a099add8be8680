"""Finite-N covariance of the field, its expansion, and the overlap law.

For two configurations disagreeing on k sites (overlap m = 1 - 2k/N) the
covariance of the Gaussian field is

    f_{p,N}(m) = binom(N,p)^{-1} sum_j (-1)^j binom(k,j) binom(N-k,p-j),

an exact integer numerator over binom(N, p) (a Krawtchouk value).  For
large N, f_{p,N}(m) = sum_k d_{p-2k} N^{-k} m^{p-2k} (1 + O(1/N)) with
d_{p-2k} = (-1)^k p! / (2^k k! (p-2k)!), which are exactly the coefficients
of the probabilists' Hermite polynomial He_p.  Consequently
N^{p/2} f_{p,N}(x/sqrt(N)) -> He_p(x).

The overlap of two uniform configurations lives on the grid
Gamma_N = {-1 + 2j/N : j = 0..N} with pmf p_N(m) = binom(N, N(1+m)/2) 2^{-N},
approximated near 0 by the normalized local limit
(2/sqrt(2 pi N)) exp(-N m^2 / 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParametersError, check_budget, check_count, check_sizes, finite_double

__all__ = [
    "MomentPolynomial",
    "OverlapGrid",
    "d_coefficient",
    "hermite",
    "covariance_numerator",
    "exact_covariance",
    "expansion_approx",
    "hermite_scaling_gap",
    "overlap_grid",
    "overlap_pmf",
    "overlap_pmf_gaussian",
]

# The scaling window |sqrt(N) m| <= _X_WINDOW of hermite_scaling_gap.
_X_WINDOW = 0.5

# Peak bytes per value of an overlap grid, a float and its tuple slot
# (tracemalloc at N = 10^4..10^6: 32.6-33.9 B).
_GRID_VALUE_BYTES = 34


@dataclass(frozen=True)
class MomentPolynomial:
    """Polynomial in one variable; ``coefficients[j]`` multiplies x^j."""

    coefficients: tuple

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        if not all(math.isfinite(c) for c in coeffs):
            raise InvalidParametersError(f"coefficients {coeffs} must be finite")
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        if len(coeffs) - 1 > 64:
            raise InvalidParametersError(f"degree {len(coeffs) - 1} exceeds 64")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


@dataclass(frozen=True)
class OverlapGrid:
    """The achievable overlaps {-1 + 2j/N : j = 0..N}, strictly increasing."""

    N: int
    values: tuple

    @property
    def spacing(self) -> float:
        return 2.0 / self.N


def d_coefficient(p: int, k: int) -> float:
    """Expansion coefficient d_{p-2k} = (-1)^k p! / (2^k k! (p-2k)!).

    Always an integer (it equals binom(p, 2k) (2k-1)!! up to sign); computed
    exactly and returned as a double.
    """
    check_count(p, "p", 0)
    check_count(k, "k", 0, p // 2)
    num = math.factorial(p)
    den = (1 << k) * math.factorial(k) * math.factorial(p - 2 * k)
    sign = -1 if k % 2 else 1
    return finite_double(sign * (num // den), f"d_{{p-2k}} at p={p}, k={k}")


def hermite(p: int) -> MomentPolynomial:
    """Probabilists' Hermite polynomial He_p as a MomentPolynomial.

    Built from d_coefficient, so He_p(x) = sum_k d_{p-2k} x^{p-2k}; the
    classical recurrence He_{p+1} = x He_p - p He_{p-1} is a test oracle.
    """
    if check_count(p, "p", 0) > 64:  # the MomentPolynomial cap, before any coefficient
        raise InvalidParametersError(f"degree {p} exceeds 64")
    coeffs = [0.0] * (p + 1)
    for k in range(p // 2 + 1):
        coeffs[p - 2 * k] = d_coefficient(p, k)
    return MomentPolynomial(tuple(coeffs))


def covariance_numerator(N: int, p: int, k_disagree: int) -> int:
    """Exact integer binom(N,p) f_{p,N}(m): the alternating Krawtchouk sum."""
    check_sizes(N, p)
    check_count(k_disagree, "k_disagree", 0, N)
    return sum(
        (-1) ** j * math.comb(k_disagree, j) * math.comb(N - k_disagree, p - j)
        for j in range(p + 1)
    )


def exact_covariance(N: int, p: int, k_disagree: int) -> float:
    """Cov(X_sigma, X_sigma') for configurations disagreeing on k sites.

    Exact rational value (integer numerator over binom(N,p)) rounded once
    to double.  k=0 gives 1; k=N gives (-1)^p.
    """
    num = covariance_numerator(N, p, k_disagree)
    return num / math.comb(N, p)


def expansion_approx(N: int, p: int, m: float) -> float:
    """Truncated expansion sum_k d_{p-2k} N^{-k} m^{p-2k} of f_{p,N}(m)."""
    check_sizes(N, p)
    _check_overlap(m)
    n = finite_double(N, "N")
    acc = 0.0
    for k in range(p // 2 + 1):
        acc += d_coefficient(p, k) * n ** (-k) * m ** (p - 2 * k)
    return acc


def hermite_scaling_gap(N: int, p: int) -> float:
    """max over grid points of |N^{p/2} f_{p,N}(m) - He_p(sqrt(N) m)|.

    The maximum runs over overlaps m in Gamma_N with |sqrt(N) m| <= 0.5,
    the scaling window in which the covariance converges to the Hermite
    profile.
    """
    check_sizes(N, p)
    he = hermite(p)
    scale = N ** (p / 2.0)
    sqrt_n = math.sqrt(N)
    worst = 0.0
    for k in range(N + 1):
        m = 1.0 - 2.0 * k / N
        x = sqrt_n * m
        if abs(x) > _X_WINDOW + 1e-12:
            continue
        gap = abs(scale * exact_covariance(N, p, k) - he(x))
        worst = max(worst, gap)
    return worst


def overlap_grid(N: int) -> OverlapGrid:
    check_count(N, "N")
    n = finite_double(N, "N")
    check_budget((N + 1) * _GRID_VALUE_BYTES,
                 f"{N + 1} overlap grid values at {_GRID_VALUE_BYTES} B each")
    return OverlapGrid(N=N, values=tuple(-1.0 + 2.0 * j / n for j in range(N + 1)))


def _check_overlap(m) -> None:
    if not -1.0 <= m <= 1.0:  # NaN included
        raise InvalidParametersError(f"m={m} must be an overlap in [-1, 1]")


def _grid_point_to_count(N: int, m: float) -> int:
    _check_overlap(m)
    j = finite_double((1.0 + m) * finite_double(N, "N") / 2.0, "N (1 + m) / 2")
    j_int = round(j)
    if abs(j - j_int) > 1e-9 * max(1, N):
        raise InvalidParametersError(f"m={m} is not on the overlap grid for N={N}")
    return j_int


def overlap_pmf(N: int, m: float) -> float:
    """P(overlap = m) = binom(N, N(1+m)/2) 2^{-N} for m on the grid.

    Evaluated in log domain (lgamma) and exponentiated, so it stays finite
    for any N in range.
    """
    check_count(N, "N")
    j = _grid_point_to_count(N, m)
    log_binom = (
        math.lgamma(N + 1) - math.lgamma(j + 1) - math.lgamma(N - j + 1)
    )
    return math.exp(log_binom - N * math.log(2.0))


def overlap_pmf_gaussian(N: int, m: float) -> float:
    """Local-limit approximation (2/sqrt(2 pi N)) exp(-N m^2/2).

    Carries the 1/sqrt(N) normalization so it is an honest pmf
    approximation on the spacing-2/N grid (it sums to 1 + O(1/N)).
    """
    check_count(N, "N")
    _check_overlap(m)
    n = finite_double(N, "N")
    return 2.0 / math.sqrt(2.0 * math.pi * n) * math.exp(-n * m * m / 2.0)
