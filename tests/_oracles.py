"""Independent oracles and gauges for the test modules.

Everything here recomputes quantities from first principles, avoiding the
library's incremental or transform-based code paths.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from pspinlab import (
    InvalidParametersError,
    ResourceLimitError,
    derive_seed,
    exact_covariance,
    expansion_approx,
    gaussian_field,
    mask_table,
    overlap_pmf,
    overlap_pmf_gaussian,
)

_QUAD_BUDGET = 2 * 10**6      # binom^3 cap for the literal quadruple loop


def enumerate_multi_indices(N, p):
    """All strictly increasing p-tuples over {1, ..., N}, colex order.

    Returns exactly binom(N, p) tuples.  Colex order: compare the largest
    differing entry, so (2,3,4) < (1,2,5).
    """
    if not 1 <= p <= N:
        raise InvalidParametersError(f"need 1 <= p <= N, got p={p}, N={N}")
    out = []
    a = list(range(1, p + 1))
    while True:
        out.append(tuple(a))
        # colex successor: bump the smallest entry that has headroom,
        # reset everything below it to the minimal prefix
        j = 0
        while j < p - 1 and a[j] + 1 == a[j + 1]:
            j += 1
        if j == p - 1 and a[j] == N:
            break
        a[j] += 1
        for i in range(j):
            a[i] = i + 1
    return out


def index_to_mask(A):
    """Bitmask with bit (a-1) set for each site label a in the tuple."""
    m = 0
    for a in A:
        m |= 1 << (a - 1)
    return m


def coupling_entry(params, seed, r):
    """Regenerate coupling entry r alone, without entries before it.

    Philox counts in 4-word blocks; entry r lives in block r // 4 at word
    r % 4.  The stream is keyed as the library keys it, then read from that
    block on.
    """
    if not (0 <= r < params.n_couplings):
        raise InvalidParametersError(f"coupling rank {r} out of range")
    key = derive_seed(seed, 0x6B79) | (derive_seed(seed, 0x9D39) << 64)
    block = Philox(key=key, counter=[r >> 2, 0, 0, 0]).random_raw(4)
    u = ((block[r & 3 : (r & 3) + 1] >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return float(ndtri(u)[0])


def hamiltonian(bits, disorder):
    """H(sigma) = -sqrt(N) X_sigma."""
    return -math.sqrt(disorder.params.N) * gaussian_field(bits, disorder)


def h4_quadruple_loop(disorder):
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


def first_moment_expansion(N, p, beta):
    """Second-order small-t expansion 1 - b^4 N a^2/4 + b^8 N^2 a^4/32."""
    a2 = N / math.comb(N, p)
    return 1.0 - beta**4 * N * a2 / 4.0 + beta**8 * N * N * a2 * a2 / 32.0


def expansion_deviation(N, p, m_window=1.0):
    """max over grid overlaps |m| <= m_window of the expansion error.

    Error is |exact - expansion| / max(|exact|, N^{-p/2}); the floor keeps
    the ratio meaningful where f vanishes.
    """
    worst = 0.0
    for k in range(N + 1):
        m = 1.0 - 2.0 * k / N
        if abs(m) > m_window + 1e-12:
            continue
        exact = exact_covariance(N, p, k)
        approx = expansion_approx(N, p, m)
        err = abs(exact - approx) / max(abs(exact), N ** (-p / 2.0))
        worst = max(worst, err)
    return worst


def gaussian_pmf_error(N, m_window=None):
    """max relative error of the Gaussian pmf over |m| <= m_window.

    Defaults to the bulk window m_window = N^{-1/3}, where the local limit
    is uniformly good.  Only grid points are evaluated.
    """
    if m_window is None:
        m_window = N ** (-1.0 / 3.0)
    worst = 0.0
    for j in range(N + 1):
        m = -1.0 + 2.0 * j / N
        if abs(m) > m_window + 1e-12:
            continue
        exact = overlap_pmf(N, m)
        err = abs(overlap_pmf_gaussian(N, m) - exact) / exact
        worst = max(worst, err)
    return worst


def phi(m):
    """(1-m)/2 ln(1-m) + (1+m)/2 ln(1+m), extended by continuity to [-1, 1].

    Symmetric in m by construction; phi(0) = 0 and phi(+-1) = ln 2 exactly.
    """
    if not (-1.0 <= m <= 1.0):
        raise InvalidParametersError(f"phi requires |m| <= 1, got m={m}")
    a = abs(m)
    if a == 0.0:
        return 0.0
    if a == 1.0:
        return math.log(2.0)
    return ((1.0 - a) * math.log1p(-a) + (1.0 + a) * math.log1p(a)) / 2.0


def critical_objective(m, p):
    """g(m) = (1 + m^{-p}) phi(m), the function whose infimum is beta_p^2."""
    if not (0.0 < m < 1.0):
        raise InvalidParametersError(f"need 0 < m < 1, got m={m}")
    # ln[(1 + m^{-p}) phi(m)] without forming m^{-p}, which overflows for
    # small m and large p: ln(1 + m^{-p}) is the softplus of t = -p ln m
    t = -p * math.log(m)
    softplus = t + math.log1p(math.exp(-t)) if t > 36.0 else math.log1p(math.exp(t))
    return math.exp(math.log(phi(m)) + softplus)


def naive_field_table(disorder):
    """X values for every configuration, each recomputed from scratch."""
    N = disorder.params.N
    masks = mask_table(N, disorder.params.p)
    states = np.arange(1 << N, dtype=np.uint64)
    parity = (np.bitwise_count(masks[None, :] & states[:, None]) & np.uint64(1))
    signs = 1.0 - 2.0 * parity.astype(np.float64)
    return signs @ disorder.couplings / math.sqrt(disorder.params.n_couplings)


def naive_log_partition(disorder, beta):
    vals = naive_field_table(disorder)
    y = beta * math.sqrt(disorder.params.N) * vals
    m = float(y.max())
    return m + math.log(float(np.exp(y - m).sum())) - disorder.params.N * math.log(2.0)


def logsumexp_mean(values, scale):
    y = scale * np.asarray(values, dtype=np.float64)
    m = float(y.max())
    return m + math.log(float(np.exp(y - m).mean()))


def fwht_radix2(a):
    """In-place Walsh-Hadamard transform, one radix-2 stage at a time."""
    n = a.size
    h = 1
    while h < n:
        b = a.reshape(-1, 2 * h)
        x = b[:, :h].copy()
        b[:, :h] += b[:, h:]
        b[:, h:] = x - b[:, h:]
        h *= 2
    return a


def dense_field_chunks(disorder, half, chunk_bits):
    """The field table in 2^chunk_bits-state chunks, each scattered dense.

    Every chunk is the full bincount of its signed couplings, divided by
    sqrt(binom(N, p)), at the low mask bits, transformed by the radix-2
    stage loop.
    """
    params = disorder.params
    n_bits = params.N - 1 if half else params.N
    chunk_bits = min(chunk_bits, n_bits)
    masks = mask_table(params.N, params.p)
    low = (masks & np.uint64((1 << chunk_bits) - 1)).astype(np.intp)
    high = masks >> np.uint64(chunk_bits)
    scaled = disorder.couplings / math.sqrt(params.n_couplings)
    for high_state in range(1 << (n_bits - chunk_bits)):
        parity = np.bitwise_count(high & np.uint64(high_state)) & np.uint64(1)
        values = scaled * (1.0 - 2.0 * parity.astype(np.float64))
        table = np.bincount(low, weights=values, minlength=1 << chunk_bits)
        fwht_radix2(table)
        yield table


def h3_pair_scan(disorder, block_pairs=25_000_000):
    """E_sigma(-H^3) with the pair index work redone per call.

    Row blocks of ``block_pairs // n`` rows; block sums are added in order.
    """
    params = disorder.params
    n = params.n_couplings
    masks = mask_table(params.N, params.p)
    couplings = disorder.couplings
    total = 0.0
    block = max(1, block_pairs // n)
    for start in range(0, n, block):
        sym = masks[start : start + block, None] ^ masks[None, :]
        rows, cols = np.nonzero(np.bitwise_count(sym) == np.uint64(params.p))
        if rows.size == 0:
            continue
        c_rank = np.searchsorted(masks, sym[rows, cols])
        total += float(
            np.sum(couplings[start + rows] * couplings[cols] * couplings[c_rank])
        )
    return params.a_n**3 * total


def h4_pair_grouping(disorder):
    """H4 with the pairs grouped by symmetric difference afresh per call."""
    params = disorder.params
    masks = mask_table(params.N, params.p)
    couplings = disorder.couplings
    sym = (masks[:, None] ^ masks[None, :]).ravel()
    outer = (couplings[:, None] * couplings[None, :]).ravel()
    off = sym != 0
    _, inverse = np.unique(sym[off], return_inverse=True)
    t_by_diff = np.bincount(inverse, weights=outer[off])
    j2 = float(np.einsum("i,i->", couplings, couplings))
    j4 = float(np.sum(couplings**4))
    quad_sum = float(np.einsum("i,i->", t_by_diff, t_by_diff)) - 2.0 * (j2 * j2 - j4)
    return params.a_n**4 / 24.0 * quad_sum


def sorted_bin_pair_plan(N, p, block_entries=2**14):
    """(row blocks, bin count, coupling ranks, their bins): the pair plan with sorted bins.

    Bins number the distinct A xor B in increasing order, so bin 0 is
    v = 0; a row block (start, bins) holds the bins of its rows' pairs with
    the columns from start on, row-major, the diagonal and below in bin 0.
    """
    masks = mask_table(N, p)
    n = masks.size
    values, inverse = np.unique((masks[:, None] ^ masks[None, :]).ravel(), return_inverse=True)
    inverse = inverse.reshape(n, n)
    rows = max(1, block_entries // n)
    blocks = [(start, np.triu(inverse[start : start + rows, start:], 1).ravel())
              for start in range(0, n, rows)]
    _, ranks, bins = np.intersect1d(masks, values, assume_unique=True, return_indices=True)
    return blocks, values.size, ranks, bins


def sorted_bin_pair_sums(disorder):
    """(E_sigma(-H^3), H4) from a pair table over the sorted bins of A xor B."""
    params = disorder.params
    blocks, n_bins, ranks, bins = sorted_bin_pair_plan(params.N, params.p)
    couplings = disorder.couplings
    n = couplings.size
    table = np.zeros(n_bins)
    for start, block_bins in blocks:
        rows = couplings[start : start + block_bins.size // (n - start)]
        np.add.at(table, block_bins, np.outer(rows, couplings[start:]).ravel())
    table *= 2.0
    h3 = float(np.einsum("i,i->", couplings[ranks], table[bins]))
    j2 = float(np.einsum("i,i->", couplings, couplings))
    j4 = float(np.sum(couplings**4))
    quad_sum = float(np.einsum("i,i->", table[1:], table[1:])) - 2.0 * (j2 * j2 - j4)
    return params.a_n**3 * h3, params.a_n**4 / 24.0 * quad_sum


def exact_pair_sums(disorder):
    """((h3, h3 size), (h4, h4 size)) from exact rational pair products.

    The values are the pair-sum formulas evaluated without rounding, on
    integer multiples of the couplings' common binary denominator, times the
    floating prefactors the library applies (a_N^3 and a_N^4 / 24).  Each
    size is the same formula on |J| with every subtracted term added: the
    sum of the magnitudes of the terms that are rounded and summed.
    """
    params = disorder.params
    masks = mask_table(params.N, params.p)
    exact = [Fraction(float(j)) for j in disorder.couplings]
    scale = max(x.denominator for x in exact)
    ints = np.array([int(x * scale) for x in exact], dtype=object)
    sym = (masks[:, None] ^ masks[None, :]).ravel()
    off = np.flatnonzero(sym != 0)
    values, inverse = np.unique(sym[off], return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    starts = np.searchsorted(inverse[order], np.arange(values.size))

    def table(x):
        # T(v) over the ordered pairs A != B, one entry per v != 0
        return np.add.reduceat(np.multiply.outer(x, x).ravel()[off[order]], starts)

    t, u = table(ints), table(np.abs(ints))
    _, ranks, bins = np.intersect1d(masks, values, return_indices=True)
    h3 = sum(ints[ranks] * t[bins])
    h3_size = sum(np.abs(ints[ranks]) * u[bins])
    j2 = sum(ints * ints)
    j4 = sum(ints**4)
    h4 = sum(t * t) - 2 * (j2 * j2 - j4)
    h4_size = sum(u * u) + 2 * (j2 * j2 + j4)
    a3 = Fraction(params.a_n**3) / scale**3
    a4 = Fraction(params.a_n**4 / 24.0) / scale**4
    return (a3 * h3, a3 * h3_size), (a4 * h4, a4 * h4_size)


def beta_p_scalar_scan(p, tol=1e-10):
    """beta_p by a route independent of the library's search.

    A 10^4-point grid in t = ln(1 - m), evaluated point by point, picks the
    cell of the minimum, and scipy's bounded minimizer refines it there.
    """
    from scipy.optimize import minimize_scalar

    from pspinlab.theory import _excess_objective

    points = 10_000
    t_grid = np.linspace(math.log(1e-16), math.log(1.0 - 1e-6), points)
    values = np.array([_excess_objective(float(math.exp(t)), p) for t in t_grid])
    i = int(np.argmin(values))
    lo, hi = t_grid[max(i - 1, 0)], t_grid[min(i + 1, points - 1)]
    res = minimize_scalar(
        lambda t: _excess_objective(math.exp(t), p), bounds=(lo, hi),
        method="bounded", options={"xatol": tol},
    )
    return math.sqrt(2.0 * math.log(2.0) + min(float(res.fun), float(values[i]), 0.0))


def brute_signed_sums_loop(N, p):
    """Per k = 0..N, the sum over p-subsets A of (-1)^|A & {1..k}|, subset by subset."""
    subsets = list(combinations(range(1, N + 1), p))
    return tuple(
        sum(-1 if sum(a <= k for a in A) % 2 else 1 for A in subsets)
        for k in range(N + 1)
    )


def hermite_fourth_integral(poly):
    """Int q(m)^4 e^{-m^2/2} dm over the real line, by the trapezoid rule.

    A uniform grid of step 1/8 on [-24, 24].  For q of degree at most 15
    the integrand past |m| = 24 is below 1e-40 of the integral, and the
    rule's error on an entire, Gaussian-damped integrand falls
    geometrically with the step, far below the rounding of the sum.
    """
    m = np.linspace(-24.0, 24.0, 385)
    return float(np.trapezoid(poly(m) ** 4 * np.exp(-m * m / 2.0), dx=0.125))
