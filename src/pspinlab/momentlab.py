"""Quenched moments, their combinatorial representations, and disorder laws.

E_sigma[H^k] for k = 2, 3, 4 come from the model's one enumeration pass,
folded on the global flip in the theorem modes and unfolded for the
identity checks, where E[H^3] = 0 at odd p must cancel for real.  The same
quantities have enumeration-free combinatorial forms built from bitmask
algebra: a product sigma_A sigma_B ... averages to 1 exactly when the
symmetric difference of the index sets is empty, and to 0 otherwise.  With
the pair table T(v) defined below, that yields

* the cubic representation  E_sigma(-H^3) = a_N^3 sum_{(distinct)} J_A J_B J_C
  over ordered triples with C = A xor B, that is a_N^3 sum_C J_C T(C),
* the fully-distinct quartic statistic
  H4 = (a_N^4/4!) sum_{(distinct)} J_A J_B J_C J_D over quadruples with
  empty symmetric difference (two pairs of one difference v), that is
  (a_N^4/4!) (sum_{v != 0} T(v)^2 - 2 sum_{A != B} J_A^2 J_B^2), linked to
  the moments by -E(H^2)^2/8 + E(H^4)/24 = -(a_N^4/12) sum_A J_A^4 + H4,
* the Taylor proxy  T_N = 1 - b^4 E(H^2)^2/8 - b^3 E(H^3)/6 + b^4 E(H^4)/24.

Closed-form disorder expectations (the first moment of the deflated
partition function and the moment generating function of the J term) are
evaluated in log domain, with Monte Carlo estimators provided for
agreement tests.  Pair-overlap moments are computed in exact integer
arithmetic along two independent routes so equality is bit-exact.

Both sums share one table over the ordered coupling pairs,
T(v) = sum_{A xor B = v} J_A J_B, indexed by v itself.  Its index work,
the differences v, depends only on (N, p): it is built once per (N, p),
under a byte budget, into a cached pair plan that every replica reuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .covariance import covariance_numerator
from .errors import (IdentityCheckError, InvalidParametersError, ResourceLimitError, check_beta,
                     check_budget, check_count, check_sizes, finite_double, finite_exp,
                     finite_power, shown)
from .model import j_term, partition_and_power_sums
from .multiindex import (
    Disorder,
    ModelParams,
    derive_seed,
    mask_table,
    philox_words,
    sample_disorder,
)

# Building the pair plan peaks at 4.05-4.22 B per coupling pair, what it keeps
# (tracemalloc, n = 462..3060, p = 3..6: the upper-triangle differences as intp);
# a call adds 8 B per table entry, 2^N of them, and one row block.  The harness
# builds the plan before it forks, so workers share it.
_PLAN_BYTES_PER_PAIR = 8
# first_moment_mc's (states x couplings) parity matrix peaks at 24.0-24.1 B per entry
# (tracemalloc, binom = 7.3e3..4.3e4, 64 and 256 states); 32 B leaves a margin.
_PARITY_BYTES = 32
_PAIR_BLOCK_ENTRIES = 2**13   # pair-table row block = this // n rows: a 64 KiB scratch
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
        - finite_power(beta, 4, "beta") * (m2 * m2) / 8.0
        - finite_power(beta, 3, "beta") * m3 / 6.0
        + finite_power(beta, 4, "beta") * m4 / 24.0
    )
    return QuenchedMoments(m2=m2, m3=m3, m4=m4, h4=h4, j4_sum=j4_sum, t_value=t_value)


def h3_representation(disorder: Disorder) -> float:
    """E_sigma(-H^3) = a_N^3 sum_C J_C T(C), see :func:`pair_sums`; 0.0 at odd p."""
    return pair_sums(disorder)[0]


def h4_statistic(disorder: Disorder) -> float:
    """The fully-distinct quartic statistic, via the moment decomposition.

    H4 = -E(H^2)^2/8 + E(H^4)/24 + (a_N^4/12) sum_A J_A^4.  The direct
    combinatorial sum (:func:`h4_direct`) is the independent oracle.
    """
    return quenched_moments(disorder, 0.0).h4


def h4_direct(disorder: Disorder) -> float:
    """H4 = a_N^4/24 (sum_{v != 0} T(v)^2 - 2 (j2^2 - j4)), see :func:`pair_sums`."""
    return pair_sums(disorder)[1]


def pair_sums(disorder: Disorder) -> tuple:
    """(E_sigma(-H^3), H4) from one pair table T(v) = sum_{A xor B = v} J_A J_B.

    A triple with empty symmetric difference is a pair (A, B) and the
    coupling C = A xor B != 0 (so A != B): h3 = a_N^3 sum_C J_C T(C).  At odd p
    every difference has even size, none is a coupling, and h3 is exactly 0.0.
    T(v)^2 counts the quadruples with A xor B = C xor D = v; at v != 0 the
    non-distinct ones, (C, D) = (A, B) or (B, A), each sum to j2^2 - j4
    (j_k = sum J_A^k): h4 = a_N^4/24 (sum_{v != 0} T(v)^2 - 2 (j2^2 - j4)).
    T has 2^N entries indexed by v.  Only pairs of rank A < B are added, in
    the plan's row blocks, to T_half = T / 2; np.add.at adds in index order,
    so an entry sums row-major.  The T(v)^2 sum takes nonzero v only.
    """
    params = disorder.params
    blocks, masks = pair_plan(params.N, params.p)
    couplings = disorder.couplings
    table = np.zeros(1 << params.N)
    scratch = np.empty(blocks[0][1].size)
    for start, block_v in blocks:
        rows = scratch[: block_v.size].reshape(-1, couplings.size - start)
        # einsum, not a broadcast multiply, which takes two 64 KiB ufunc buffers
        np.einsum("i,j->ij", couplings[start : start + len(rows)], couplings[start:], out=rows)
        np.add.at(table, block_v, rows.ravel())
    del scratch, rows  # before the nonzero gather below
    # T = 2 T_half enters as exact factors, 2 on h3 and 4 on the sum of T^2:
    # powers of two do not change rounding, and no pass over the table is made
    # einsum, not np.dot: a long BLAS dot splits its sum by thread count
    h3 = 2.0 * float(np.einsum("i,i->", couplings, table[masks]))
    j2 = float(np.einsum("i,i->", couplings, couplings))
    j4 = float(np.sum(couplings**4))
    t = table[1:][table[1:] != 0.0]
    quad_sum = 4.0 * float(np.einsum("i,i->", t, t)) - 2.0 * (j2 * j2 - j4)
    return params.a_n**3 * h3, params.a_n**4 / 24.0 * quad_sum


def check_pair_budget(N: int, p: int, tables: int = 1) -> None:
    """Refuse an (N, p) whose pair plan and ``tables`` 2^N-entry tables exceed the byte budget.

    Count one table per process that fills one: each forked worker holds its own.
    """
    pairs = math.comb(N, p) ** 2
    check_budget(pairs * _PLAN_BYTES_PER_PAIR + tables * 8 * 2**N,
                 f"pair plan over binom^2 = {pairs} pairs at {_PLAN_BYTES_PER_PAIR} B/pair "
                 f"and {tables} table(s) of 2^{N} entries")


@lru_cache(maxsize=1)
def pair_plan(N: int, p: int) -> tuple:
    """(row blocks, masks), read-only, for every disorder.

    The masks are the coupling masks viewed as intp, so a mask or a
    difference A xor B indexes a table of 2^N entries directly.  A row block
    (start, v) holds A xor B for its rows' pairs with the columns from start
    on, row-major, with 0 on the diagonal and below it.
    """
    check_pair_budget(N, p)
    masks = mask_table(N, p).view(np.intp)
    rows = max(1, _PAIR_BLOCK_ENTRIES // masks.size)
    blocks = tuple((start, np.triu(masks[start : start + rows, None] ^ masks[None, start:], 1).ravel())
                   for start in range(0, masks.size, rows))
    for _, block_v in blocks:
        block_v.flags.writeable = False
    return blocks, masks


def exact_first_moment(N: int, p: int, beta: float) -> float:
    """Closed-form disorder mean of the deflated partition function.

    E[Z_N e^{-N J_N}] = exp(binom(N,p) [t/(2(1+t)) - ln(1+t)/2]) with
    t = beta^2 a_N^2; evaluated in log domain.
    """
    # closed forms never enumerate configurations, so N is not capped at
    # the 64-bit bound the sampling structures enforce
    check_sizes(N, p, min_p=2)
    n = math.comb(N, p)
    check_beta(beta)
    t = finite_double(beta * beta * (N / n), f"beta^2 a_N^2 at beta={beta!r}")
    ln_val = finite_double(n, "binom(N, p)") * (t / (2.0 * (1.0 + t)) - 0.5 * math.log1p(t))
    return math.exp(ln_val)


def j_mgf(N: int, p: int, beta: float, q: float) -> float:
    """E[e^{-q N J_N}] = (1 + q beta^2 a_N^2)^{-binom(N,p)/2}, log domain."""
    check_sizes(N, p, min_p=2)
    n = math.comb(N, p)
    check_beta(beta)
    t = q * beta * beta * (N / n)
    if not t > -1.0:  # NaN included
        raise InvalidParametersError(
            f"q beta^2 a_N^2 = {t} is outside the domain (> -1 required)"
        )
    return math.exp(-0.5 * finite_double(n, "binom(N, p)") * math.log1p(t))


def _estimates(replicas: int) -> np.ndarray:
    """An empty array for one 8 B estimate per replica, refused past the byte budget."""
    check_budget(8 * check_count(replicas, "replicas"), f"{shown(replicas)} estimates at 8 B each")
    return np.empty(replicas)


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
    params = ModelParams(N=N, p=p, beta=beta)
    out = _estimates(replicas)
    check_count(sigma_samples, "sigma_samples")
    check_budget(sigma_samples * params.n_couplings * _PARITY_BYTES,
                 f"{shown(sigma_samples)} states x binom({N},{p}) = {params.n_couplings} couplings "
                 f"at {_PARITY_BYTES} B each")
    masks = mask_table(N, p)
    scale = beta * math.sqrt(N)
    root = 1.0 / math.sqrt(params.n_couplings)
    for r in range(replicas):
        rep_seed = derive_seed(base_seed, r)
        disorder = sample_disorder(params, rep_seed)
        sigma_seed = derive_seed(rep_seed, _SIGMA_TAG)
        states = philox_words(sigma_seed, sigma_samples) & np.uint64((1 << N) - 1)
        parity = (np.bitwise_count(masks[None, :] & states[:, None]) & np.uint64(1)).astype(
            np.float64
        )
        # einsum, not a BLAS gemv: its sums split by thread count
        x_vals = np.einsum("si,i->s", 1.0 - 2.0 * parity, disorder.couplings) * root
        log_deflation = -N * j_term(disorder, beta)  # J_N first: an overflowed J_N is refused
        y = scale * x_vals
        with np.errstate(over="ignore"):  # an inf mean is taken again in log domain
            mean = float(np.cosh(y).mean())
        if mean < math.inf:
            out[r] = math.exp(log_deflation) * mean
        else:  # ln of the mean of cosh(y), shifted by m = max |y|
            m = float(np.abs(y).max())
            log_mean = m + math.log(float(((np.exp(y - m) + np.exp(-y - m)) / 2.0).mean()))
            out[r] = finite_exp(log_deflation + log_mean, "E_sigma[Z_N] e^{-N J_N}")
    return out


def j_mgf_mc(
    N: int, p: int, beta: float, q: float, replicas: int, base_seed: int
) -> np.ndarray:
    """Per-replica Monte Carlo samples of e^{-q N J_N}."""
    params = ModelParams(N=N, p=p, beta=beta)
    out = _estimates(replicas)
    if math.isnan(q):
        raise InvalidParametersError(f"q={q} must be a number")
    for r in range(replicas):
        disorder = sample_disorder(params, derive_seed(base_seed, r))
        out[r] = finite_exp(-q * N * j_term(disorder, beta), "e^{-q N J_N}")
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
    check_count(k, "k", 1, 4)
    check_sizes(N, p)
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
    masks = mask_table(N, p)
    signed = []
    for k_dis in range(N + 1):
        odd = np.bitwise_count(masks & np.uint64((1 << k_dis) - 1)) & np.uint8(1)
        signed.append(masks.size - 2 * int(np.count_nonzero(odd)))
    return tuple(signed)
