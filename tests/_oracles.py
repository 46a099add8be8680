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
