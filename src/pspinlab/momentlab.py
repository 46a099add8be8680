"""Quenched moments, their combinatorial representations, and disorder laws.

E_sigma[H^k] for k = 2, 3, 4 come from the model's one enumeration pass,
folded on the global flip in the theorem modes and unfolded for the
identity checks, where E[H^3] = 0 at odd p must cancel for real.  The same
quantities have enumeration-free combinatorial forms built from bitmask
algebra: a product sigma_A sigma_B ... averages to 1 exactly when the
symmetric difference of the index sets is empty, and to 0 otherwise.  That
yields

* the cubic representation  E_sigma(-H^3) = a_N^3 sum_{(distinct)} J_A J_B J_C
  over ordered triples with C = A xor B,
* the fully-distinct quartic statistic
  H4 = (a_N^4/4!) sum_{(distinct)} J_A J_B J_C J_D over quadruples with
  empty symmetric difference, linked to the moments by the decomposition
  -E(H^2)^2/8 + E(H^4)/24 = -(a_N^4/12) sum_A J_A^4 + H4,
* the Taylor proxy  T_N = 1 - b^4 E(H^2)^2/8 - b^3 E(H^3)/6 + b^4 E(H^4)/24.

Closed-form disorder expectations (the first moment of the deflated
partition function and the moment generating function of the J term) are
evaluated in log domain, with Monte Carlo estimators provided for
agreement tests.  Pair-overlap moments are computed in exact integer
arithmetic along two independent routes so equality is bit-exact.

The index combinatorics of the pair sums depend only on (N, p): they are
built once per (N, p), under a byte budget, into a cached pair plan that
every disorder replica reuses, so a replica only gathers and bins couplings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .covariance import covariance_numerator
from .errors import IdentityCheckError, InvalidParametersError, ResourceLimitError
from .model import j_term, partition_and_power_sums
from .multiindex import (
    Disorder,
    ModelParams,
    derive_seed,
    mask_table,
    philox_words,
    sample_disorder,
)

__all__ = [
    "QuenchedMoments",
    "quenched_moments",
    "free_energy_and_moments",
    "h3_representation",
    "h4_statistic",
    "h4_direct",
    "check_pair_budget",
    "pair_plan",
    "h4_quadruple_loop",
    "exact_first_moment",
    "first_moment_expansion",
    "j_mgf",
    "first_moment_mc",
    "j_mgf_mc",
    "pair_statistic_moment",
    "pair_moment_paths",
]

# Building the pair plan peaks at 49-61 B per coupling pair (tracemalloc,
# n = 495..3060, p = 3..5: n^2 uint64 differences, np.unique's sort and
# inverse); a call adds 16 B.  The harness builds the plan before its pool
# forks, so workers share the parent's copy.
_PLAN_BYTES_PER_PAIR = 64
_PLAN_BYTE_BUDGET = 2 * 2**30
_H3_BLOCK_PAIRS = 25_000_000  # h3 row block = this // n rows; block sums add in order
_QUAD_BUDGET = 2 * 10**6      # binom^3 cap for the literal quadruple loop
BRUTE_PAIR_N = 14             # brute-force pair-moment budget
_SIGMA_TAG = 0x5349474D41     # auxiliary stream id for configuration draws


@dataclass(frozen=True)
class QuenchedMoments:
    """E_sigma[H^k] for one disorder, with the quartic statistics.

    t_value is the Taylor proxy T_N(beta); h4 the fully-distinct quartic
    statistic; j4_sum = sum_A J_A^4.
    """

    m2: float
    m3: float
    m4: float
    h4: float
    j4_sum: float
    t_value: float


def quenched_moments(disorder: Disorder, beta: float) -> QuenchedMoments:
    """E_sigma[H^k], k = 2..4, from the unfolded pass over all 2^N states."""
    return free_energy_and_moments(disorder, beta, half=False)[1]


def free_energy_and_moments(disorder: Disorder, beta: float, half: bool = True) -> tuple:
    """(F_N(beta), quenched moments) from one enumeration pass.

    With ``half`` the pass is folded and F_N is bit-identical to
    :func:`free_energy`, but for odd p the fold makes E[H^3] exactly 0.
    Unfolded, every state is summed, so that vanishing is a genuine
    cancellation.
    """
    log_z, s2, s3, s4 = partition_and_power_sums(disorder, beta, half=half)
    return log_z / disorder.params.N, _moments_from_sums(disorder, beta, s2, s3, s4)


def _moments_from_sums(disorder: Disorder, beta: float, s2, s3, s4) -> QuenchedMoments:
    """Moments and quartic statistics from sums of X^2, X^3, X^4 over 2^N states."""
    params = disorder.params
    n_states = 2.0**params.N
    N = params.N
    m2 = N * (s2 / n_states)
    m3 = -(N**1.5) * (s3 / n_states)
    m4 = N * N * (s4 / n_states)
    j4_sum = float(np.sum(disorder.couplings**4))
    a4 = params.a_n**4
    h4 = -(m2 * m2) / 8.0 + m4 / 24.0 + a4 / 12.0 * j4_sum
    t_value = (
        1.0
        - beta**4 * (m2 * m2) / 8.0
        - beta**3 * m3 / 6.0
        + beta**4 * m4 / 24.0
    )
    return QuenchedMoments(m2=m2, m3=m3, m4=m4, h4=h4, j4_sum=j4_sum, t_value=t_value)


def h3_representation(disorder: Disorder) -> float:
    """E_sigma(-H^3) by pure index combinatorics, no enumeration.

    Sums a_N^3 J_A J_B J_C over ordered pairs (A, B) with |A xor B| = p and
    C = A xor B; each ordered triple with empty symmetric difference is hit
    exactly once.  For odd p the sum is empty (two p-sets always have a
    symmetric difference of even size) and the representation vanishes
    identically, matching the vanishing of E[H^3].  The rank triples come
    from the pair plan built once per (N, p), in row blocks.
    """
    params = disorder.params
    couplings = disorder.couplings
    total = 0.0
    for a, b, c in pair_plan(params.N, params.p)[0]:
        product = couplings.take(a) * couplings.take(b) * couplings.take(c)
        total += float(np.sum(product))
    return params.a_n**3 * total


def h4_statistic(disorder: Disorder) -> float:
    """The fully-distinct quartic statistic, via the moment decomposition.

    H4 = -E(H^2)^2/8 + E(H^4)/24 + (a_N^4/12) sum_A J_A^4.  The direct
    combinatorial sum (:func:`h4_direct`) is the independent oracle.
    """
    return quenched_moments(disorder, 0.0).h4


def h4_direct(disorder: Disorder) -> float:
    """H4 by grouping coupling pairs on their symmetric difference.

    The quadruple condition A xor B xor C xor D = 0 says the two pairs
    share a symmetric difference v; summing T(v)^2 over v counts every
    ordered quadruple, and the only colliding (non-distinct) combinations
    are (C, D) = (A, B) or (B, A), removed exactly by 2 sum_{A != B}
    J_A^2 J_B^2.  Checked against the literal quadruple loop at small N.
    The pairs' groups by v come from the pair plan built once per (N, p);
    group 0 is v = 0, the diagonal A = B, and is dropped.
    """
    params = disorder.params
    groups = pair_plan(params.N, params.p)[1]
    couplings = disorder.couplings
    outer = (couplings[:, None] * couplings[None, :]).ravel()
    t_by_diff = np.bincount(groups, weights=outer)[1:]
    # einsum, not np.dot: a long BLAS dot splits its sum by thread count
    j2 = float(np.einsum("i,i->", couplings, couplings))
    j4 = float(np.sum(couplings**4))
    quad_sum = float(np.einsum("i,i->", t_by_diff, t_by_diff)) - 2.0 * (j2 * j2 - j4)
    return params.a_n**4 / 24.0 * quad_sum


def check_pair_budget(N: int, p: int) -> None:
    """Refuse an (N, p) whose pair plan would not fit the byte budget."""
    pairs = math.comb(N, p) ** 2
    if pairs * _PLAN_BYTES_PER_PAIR > _PLAN_BYTE_BUDGET:
        raise ResourceLimitError(
            f"pair plan over binom^2 = {pairs} pairs exceeds the "
            f"{_PLAN_BYTE_BUDGET >> 30} GiB budget at {_PLAN_BYTES_PER_PAIR} B/pair"
        )


@lru_cache(maxsize=1)
def pair_plan(N: int, p: int) -> tuple:
    """(h3 blocks, h4 groups), read-only, shared by every disorder.

    h3: per row block with hits, the (3, k) int32 ranks A, B, C = A xor B of
    the pairs with |A xor B| = p.  h4: np.unique's inverse of the n^2 A xor B,
    kept intp because np.bincount copies any other index type on every call.
    """
    check_pair_budget(N, p)
    masks = mask_table(N, p)
    n = masks.size
    block = max(1, _H3_BLOCK_PAIRS // n)
    h3_blocks = []
    for start in range(0, n, block):
        sym = masks[start : start + block, None] ^ masks[None, :]
        rows, cols = np.nonzero(np.bitwise_count(sym) == np.uint64(p))
        if rows.size:
            c_rank = np.searchsorted(masks, sym[rows, cols])
            h3_blocks.append(np.array([start + rows, cols, c_rank], dtype=np.int32))
    sym = (masks[:, None] ^ masks[None, :]).ravel()
    groups = np.unique(sym, return_inverse=True)[1]
    for x in (groups, *h3_blocks):
        x.flags.writeable = False
    return tuple(h3_blocks), groups


def h4_quadruple_loop(disorder: Disorder) -> float:
    """Literal sum over ordered distinct quadruples; small-N oracle only."""
    params = disorder.params
    n = params.n_couplings
    if n**3 > _QUAD_BUDGET:
        raise ResourceLimitError(f"quadruple loop over binom^3 = {n**3} exceeds budget")
    masks = [int(m) for m in mask_table(params.N, params.p)]
    rank_of = {m: i for i, m in enumerate(masks)}
    couplings = disorder.couplings
    total = 0.0
    for a in range(n):
        ja = couplings[a]
        for b in range(n):
            if b == a:
                continue
            mab = masks[a] ^ masks[b]
            jab = ja * couplings[b]
            for c in range(n):
                if c == a or c == b:
                    continue
                d = rank_of.get(mab ^ masks[c])
                if d is None or d == a or d == b or d == c:
                    continue
                total += jab * couplings[c] * couplings[d]
    return params.a_n**4 / 24.0 * total


def _closed_form_binom(N: int, p: int) -> int:
    # closed forms never enumerate configurations, so N is not capped at
    # the 64-bit bound the sampling structures enforce
    if not isinstance(N, int) or not isinstance(p, int):
        raise InvalidParametersError("N and p must be integers")
    if p < 2 or N < p:
        raise InvalidParametersError(f"need 2 <= p <= N, got p={p}, N={N}")
    return math.comb(N, p)


def exact_first_moment(N: int, p: int, beta: float) -> float:
    """Closed-form disorder mean of the deflated partition function.

    E[Z_N e^{-N J_N}] = exp(binom(N,p) [t/(2(1+t)) - ln(1+t)/2]) with
    t = beta^2 a_N^2; evaluated in log domain.
    """
    n = _closed_form_binom(N, p)
    if not (beta >= 0.0):
        raise InvalidParametersError(f"beta={beta} must be >= 0")
    t = beta * beta * (N / n)
    ln_val = n * (t / (2.0 * (1.0 + t)) - 0.5 * math.log1p(t))
    return math.exp(ln_val)


def first_moment_expansion(N: int, p: int, beta: float) -> float:
    """Second-order small-t expansion 1 - b^4 N a^2/4 + b^8 N^2 a^4/32."""
    a2 = N / _closed_form_binom(N, p)
    return 1.0 - beta**4 * N * a2 / 4.0 + beta**8 * N * N * a2 * a2 / 32.0


def j_mgf(N: int, p: int, beta: float, q: float) -> float:
    """E[e^{-q N J_N}] = (1 + q beta^2 a_N^2)^{-binom(N,p)/2}, log domain."""
    n = _closed_form_binom(N, p)
    t = q * beta * beta * (N / n)
    if t <= -1.0:
        raise InvalidParametersError(
            f"q beta^2 a_N^2 = {t} is outside the domain (> -1 required)"
        )
    return math.exp(-0.5 * n * math.log1p(t))


def first_moment_mc(
    N: int,
    p: int,
    beta: float,
    replicas: int,
    base_seed: int,
    sigma_samples: int = 64,
) -> np.ndarray:
    """Per-replica conditional Monte Carlo estimates of E[Z_N e^{-N J_N}].

    For each disorder replica the configuration average inside Z_N is
    itself estimated from ``sigma_samples`` uniform configurations (plus
    their global flips, which cost nothing via cosh), then deflated by the
    exact e^{-N J_N} of that replica.  Unbiased; the returned array is one
    estimate per replica, suitable for mean/standard-error tests.
    """
    params = ModelParams(N=N, p=p)
    if replicas < 1 or sigma_samples < 1:
        raise InvalidParametersError("replicas and sigma_samples must be >= 1")
    masks = mask_table(N, p)
    scale = beta * math.sqrt(N)
    root = 1.0 / math.sqrt(params.n_couplings)
    out = np.empty(replicas)
    for r in range(replicas):
        rep_seed = derive_seed(base_seed, r)
        disorder = sample_disorder(params, rep_seed)
        sigma_seed = derive_seed(rep_seed, _SIGMA_TAG)
        states = philox_words(sigma_seed, sigma_samples) & np.uint64((1 << N) - 1)
        parity = (np.bitwise_count(masks[None, :] & states[:, None]) & np.uint64(1)).astype(
            np.float64
        )
        x_vals = (1.0 - 2.0 * parity) @ disorder.couplings * root
        out[r] = float(np.cosh(scale * x_vals).mean()) * math.exp(-N * j_term(disorder, beta))
    return out


def j_mgf_mc(
    N: int, p: int, beta: float, q: float, replicas: int, base_seed: int
) -> np.ndarray:
    """Per-replica Monte Carlo samples of e^{-q N J_N}."""
    params = ModelParams(N=N, p=p)
    if replicas < 1:
        raise InvalidParametersError("replicas must be >= 1")
    out = np.empty(replicas)
    for r in range(replicas):
        disorder = sample_disorder(params, derive_seed(base_seed, r))
        out[r] = math.exp(-q * N * j_term(disorder, beta))
    return out


def pair_statistic_moment(N: int, p: int, k: int) -> float:
    """E over two uniform configurations of (sum_A sigma_A sigma'_A)^k.

    Computed along two exact integer routes (overlap-grid sum with
    Krawtchouk numerators, and brute-force subset enumeration); they must
    agree bit-for-bit before the common value is returned as a double.
    """
    grid_path, brute_path = pair_moment_paths(N, p, k)
    if grid_path != brute_path:
        raise IdentityCheckError(
            f"pair moment paths disagree at N={N}, p={p}, k={k}: "
            f"{grid_path} vs {brute_path}"
        )
    return float(grid_path)


def pair_moment_paths(N: int, p: int, k: int):
    """Both exact rational routes to the pair-overlap moment, unreduced.

    Route one sums (binom f)^k against the overlap pmf on the grid; route
    two enumerates subsets at each disagreement count, once per (N, p).
    Returns a pair of Fractions for bit-exact comparison.
    """
    if k not in (1, 2, 3, 4):
        raise InvalidParametersError(f"moment order k={k} must be in 1..4")
    if p < 1 or N < p:
        raise InvalidParametersError(f"need 1 <= p <= N, got p={p}, N={N}")
    if N > BRUTE_PAIR_N:
        raise ResourceLimitError(f"brute-force pair moments capped at N={BRUTE_PAIR_N}")
    grid_total = 0
    for k_dis in range(N + 1):
        weight = math.comb(N, N - k_dis)
        grid_total += weight * covariance_numerator(N, p, k_dis) ** k
    brute_total = 0
    for k_dis, signed in enumerate(_brute_signed_sums(N, p)):
        brute_total += math.comb(N, k_dis) * signed**k
    denom = 1 << N
    return Fraction(grid_total, denom), Fraction(brute_total, denom)


@lru_cache(maxsize=None)
def _brute_signed_sums(N: int, p: int) -> tuple:
    """Per k_dis = 0..N, the sum over p-subsets A of (-1)^|A & {1..k_dis}|."""
    subsets = list(combinations(range(1, N + 1), p))
    return tuple(
        sum(-1 if sum(a <= k_dis for a in A) % 2 else 1 for A in subsets)
        for k_dis in range(N + 1)
    )
