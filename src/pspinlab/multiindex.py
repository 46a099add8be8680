"""Interaction-index bookkeeping and disorder sampling.

The index set for interaction order p over N sites is the family of strictly
increasing p-tuples with entries in {1, ..., N}, each held as the bitmask of
its sites.  Tuples are kept in colexicographic order throughout, which has
two useful consequences:

* the colex rank of a tuple does not depend on N, so ranks stay stable if
  the system grows;
* colex order coincides with numeric order of the site bitmasks, so a
  sorted mask table doubles as a rank-lookup table via binary search.

Couplings are standard normal, one per tuple, produced by a counter-based
generator (Philox) keyed on the disorder seed with the tuple rank as counter
position.  Entry r of a disorder is therefore reproducible without generating
entries before it, and generation order (or worker partitioning) can never
change the values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from .errors import DataError, check_beta, check_budget, check_count, check_sizes

_MASK64 = (1 << 64) - 1

# Peak bytes per coupling (tracemalloc, binom = 1.1e3..2.7e6): building the
# mask table takes 16-19 B; drawing a disorder takes 24 B (Philox words, then
# normals), 32 B next to the cached 8 B mask table of an enumerating mode.
_COUPLING_BYTES = 40


def check_seed(seed: int) -> int:
    """``seed`` itself if it is an integer 64-bit word; masking would alias a wider one.

    A bool is refused: ``True`` would run as seed 1.
    """
    return check_count(seed, "seed", 0, _MASK64)


def derive_seed(*words: int) -> int:
    """Mix 64-bit words, wider ones refused, into a 64-bit seed (splitmix64).

    Used for per-replica seeds ``derive_seed(base_seed, replica_index)`` and
    for auxiliary streams.  Pure arithmetic, identical across processes.
    """
    z = 0x243F6A8885A308D3
    for w in words:
        z ^= check_seed(w)
        z = (z + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
    return z


@dataclass(frozen=True)
class ModelParams:
    """System size N, interaction order p, and inverse temperature beta.

    Invariants: 2 <= p <= N <= 64 (configurations must fit one 64-bit
    bitmask) and 0 <= beta < inf.  The number of couplings binom(N, p) and
    the normalization a_N = sqrt(N / binom(N, p)) are derived exactly.
    """

    N: int
    p: int
    beta: float = 0.0

    def __post_init__(self) -> None:
        check_sizes(self.N, self.p, min_p=2, max_n=64)
        check_beta(self.beta)

    @property
    def n_couplings(self) -> int:
        return math.comb(self.N, self.p)

    @property
    def a_n(self) -> float:
        return math.sqrt(self.N / self.n_couplings)


@dataclass(frozen=True)
class Disorder:
    """A full coupling vector in colex rank order, plus its provenance.

    ``couplings[r]`` is the standard-normal coupling of the rank-r tuple.
    Regenerating from (seed, N, p) reproduces the vector bit-for-bit.
    """

    params: ModelParams
    seed: int
    couplings: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        check_seed(self.seed)
        if len(self.couplings) != self.params.n_couplings:
            raise DataError(
                f"coupling vector has length {len(self.couplings)}, "
                f"expected binom({self.params.N},{self.params.p}) = {self.params.n_couplings}"
            )
        if not np.all(np.isfinite(self.couplings)):
            raise DataError("coupling vector contains non-finite entries")
        self.couplings.setflags(write=False)


def mask_table(N: int, p: int) -> np.ndarray:
    """uint64 bitmasks of all multi-indices, in colex (= ascending) order.

    Ascending numeric order makes ``np.searchsorted`` a rank lookup.  The
    last two results are cached, read-only; callers share one per (N, p).
    """
    check_sizes(N, p, max_n=64)
    return _mask_table_cached(N, p)


def check_coupling_budget(N: int, p: int, workers: int = 1) -> None:
    """Refuse an (N, p) whose binom(N, p) couplings, one vector per worker, exceed the byte budget."""
    n = math.comb(N, p)
    check_budget(workers * n * _COUPLING_BYTES,
                 f"binom({N},{p}) = {n} couplings at {_COUPLING_BYTES} B/coupling "
                 f"in {workers} process(es)")


@lru_cache(maxsize=2)  # the run path uses one (N, p) per process
def _mask_table_cached(N: int, p: int) -> np.ndarray:
    check_coupling_budget(N, p)
    # Colex order is ascending mask order, so over the sites 1..n
    # masks(n, k) = masks(n-1, k) ++ (masks(n-1, k-1) | 1 << (n-1)).
    # rows[k] holds masks(n, k); k runs high to low so that rows[k-1] is
    # still masks(n-1, k-1), and only the k that can still reach p are kept.
    rows = [np.zeros(1, dtype=np.uint64)] + [np.empty(0, dtype=np.uint64)] * p
    for n in range(1, N + 1):
        bit = np.uint64(1 << (n - 1))
        for k in range(min(n, p), max(p - N + n, 1) - 1, -1):
            kept, below = rows[k], rows[k - 1]
            row = np.empty(kept.size + below.size, dtype=np.uint64)
            row[: kept.size] = kept
            np.bitwise_or(below, bit, out=row[kept.size :])
            rows[k] = row
    masks = rows[p]
    masks.setflags(write=False)
    return masks


def philox_words(seed: int, count: int) -> np.ndarray:
    """The first ``count`` raw 64-bit words of the Philox stream keyed on ``seed``."""
    # 128-bit key from the 64-bit seed; two independent mixes
    lo = derive_seed(seed, 0x6B79)
    hi = derive_seed(seed, 0x9D39)
    return Philox(key=lo | (hi << 64)).random_raw(count)


def _raw_to_normal(raw: np.ndarray) -> np.ndarray:
    # top 53 bits -> open-interval uniform -> inverse normal CDF;
    # the +0.5 offset keeps u away from {0, 1} so ndtri stays finite
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(u)


def sample_disorder(params: ModelParams, seed: int) -> Disorder:
    """Draw the full coupling vector for (params, seed).

    One raw 64-bit Philox word per coupling, consumed in rank order, so the
    stream position of entry r is r itself: Philox counts in 4-word blocks,
    and entry r is word r % 4 of block r // 4.
    """
    check_coupling_budget(params.N, params.p)
    raw = philox_words(seed, params.n_couplings)
    return Disorder(params=params, seed=seed, couplings=_raw_to_normal(raw))
