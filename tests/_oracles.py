"""Independent oracles shared by test modules.

Everything here recomputes quantities from first principles, avoiding the
library's incremental or transform-based code paths.
"""

import math

import numpy as np

from pspinlab import mask_table


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
    j2 = float(np.dot(couplings, couplings))
    j4 = float(np.sum(couplings**4))
    quad_sum = float(np.dot(t_by_diff, t_by_diff)) - 2.0 * (j2 * j2 - j4)
    return params.a_n**4 / 24.0 * quad_sum


def beta_p_scalar_scan(p, tol=1e-10):
    """beta_p with its grid scan evaluated point by point in scalar Python."""
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
    return math.sqrt(2.0 * math.log(2.0) + min(float(res.fun), float(values[i])))
