"""Interaction-index bookkeeping and disorder sampling.

The index set for interaction order p over N sites is the family of strictly
increasing p-tuples with entries in {1, ..., N}.  Tuples are kept in
colexicographic order throughout, which has two useful consequences:

* the colex rank of a tuple, ``sum(comb(a_j - 1, j) for j-th smallest a_j)``,
  does not depend on N, so ranks stay stable if the system grows;
* colex order coincides with numeric order of the associated site bitmasks,
  so a sorted mask table doubles as a rank-lookup table via binary search.

Couplings are standard normal, one per tuple, produced by a counter-based
generator (Philox) keyed on the disorder seed with the tuple rank as counter
position.  Entry r of a disorder is therefore reproducible without generating
entries before it, and generation order (or worker partitioning) can never
change the values.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from .errors import DataError, InvalidParametersError, check_budget, write_atomic

_MASK64 = (1 << 64) - 1
_MAGIC = b"PSPN1"

# Peak bytes per coupling (tracemalloc, binom = 1.1e3..2.7e6): building the
# mask table takes 16-19 B; drawing a disorder takes 24 B (Philox words, then
# normals), 32 B next to the cached 8 B mask table of an enumerating mode.
_COUPLING_BYTES = 40

# A multi-index is a plain tuple of strictly increasing site labels in [1, N].
MultiIndex = tuple

__all__ = [
    "MultiIndex",
    "ModelParams",
    "Disorder",
    "enumerate_multi_indices",
    "rank",
    "unrank",
    "index_to_mask",
    "mask_to_index",
    "mask_table",
    "check_coupling_budget",
    "philox_words",
    "sample_disorder",
    "coupling_entry",
    "derive_seed",
    "check_seed",
    "save_disorder",
    "load_disorder",
]


def check_seed(seed: int) -> int:
    """``seed`` itself if it is an integer 64-bit word; masking would alias a wider one."""
    if not (isinstance(seed, int) and 0 <= seed <= _MASK64):
        raise InvalidParametersError(f"seed {seed!r} is not an integer in [0, 2^64)")
    return seed


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
        if not isinstance(self.N, int) or not isinstance(self.p, int):
            raise InvalidParametersError("N and p must be integers")
        if self.p < 2:
            raise InvalidParametersError(f"interaction order p={self.p} must be >= 2")
        if self.N < self.p:
            raise InvalidParametersError(f"system size N={self.N} must be >= p={self.p}")
        if self.N > 64:
            raise InvalidParametersError(f"N={self.N} exceeds the 64-bit configuration bound")
        if not (0.0 <= self.beta < math.inf):
            raise InvalidParametersError(f"beta={self.beta} must be finite and >= 0")

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


def enumerate_multi_indices(N: int, p: int) -> list:
    """All strictly increasing p-tuples over {1, ..., N}, colex order.

    Returns exactly binom(N, p) tuples.  Colex order: compare the largest
    differing entry, so (2,3,4) < (1,2,5).
    """
    _check_np(N, p)
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


def rank(A, N: int, p: int) -> int:
    """Colex rank of a multi-index: sum of comb(a_j - 1, j), j = 1..p."""
    _check_np(N, p)
    _check_index(A, N, p)
    return sum(math.comb(a - 1, j) for j, a in enumerate(A, start=1))


def unrank(r: int, N: int, p: int):
    """Inverse of :func:`rank`; greedy from the largest entry down."""
    _check_np(N, p)
    if not (0 <= r < math.comb(N, p)):
        raise InvalidParametersError(
            f"rank {r} out of range [0, binom({N},{p})={math.comb(N, p)})"
        )
    out = []
    hi = N
    for j in range(p, 0, -1):
        a = hi
        while math.comb(a - 1, j) > r:
            a -= 1
        out.append(a)
        r -= math.comb(a - 1, j)
        hi = a - 1
    return tuple(reversed(out))


def index_to_mask(A) -> int:
    """Bitmask with bit (a-1) set for each site label a in the tuple."""
    m = 0
    for a in A:
        m |= 1 << (a - 1)
    return m


def mask_to_index(mask: int):
    """Tuple of 1-based site labels for the set bits of ``mask``."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def mask_table(N: int, p: int) -> np.ndarray:
    """uint64 bitmasks of all multi-indices, in colex (= ascending) order.

    Ascending numeric order makes ``np.searchsorted`` a rank lookup.  The
    last two results are cached, read-only; callers share one per (N, p).
    """
    _check_np(N, p)
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


def philox_words(seed: int, count: int, block: int = 0) -> np.ndarray:
    """``count`` raw 64-bit words of the Philox stream keyed on ``seed``.

    The stream counts in 4-word blocks; it is read from block ``block`` on.
    """
    # 128-bit key from the 64-bit seed; two independent mixes
    lo = derive_seed(seed, 0x6B79)
    hi = derive_seed(seed, 0x9D39)
    return Philox(key=lo | (hi << 64), counter=[block, 0, 0, 0]).random_raw(count)


def _raw_to_normal(raw: np.ndarray) -> np.ndarray:
    # top 53 bits -> open-interval uniform -> inverse normal CDF;
    # the +0.5 offset keeps u away from {0, 1} so ndtri stays finite
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(u)


def sample_disorder(params: ModelParams, seed: int) -> Disorder:
    """Draw the full coupling vector for (params, seed).

    One raw 64-bit Philox word per coupling, consumed in rank order, so the
    stream position of entry r is r itself (see :func:`coupling_entry`).
    """
    check_coupling_budget(params.N, params.p)
    raw = philox_words(seed, params.n_couplings)
    return Disorder(params=params, seed=seed, couplings=_raw_to_normal(raw))


def coupling_entry(params: ModelParams, seed: int, r: int) -> float:
    """Regenerate coupling entry r alone, without entries before it.

    Philox counts in 4-word blocks; entry r lives in block r // 4 at word
    r % 4.
    """
    if not (0 <= r < params.n_couplings):
        raise InvalidParametersError(f"coupling rank {r} out of range")
    block = philox_words(seed, 4, r >> 2)
    return float(_raw_to_normal(block[r & 3 : (r & 3) + 1])[0])


def save_disorder(disorder: Disorder, path) -> None:
    """Write the binary disorder format.

    Layout: magic ``PSPN1``, then N, p, seed as little-endian unsigned
    64-bit integers, then binom(N, p) IEEE-754 little-endian doubles in
    rank order.
    """
    header = _MAGIC + struct.pack("<QQQ", disorder.params.N, disorder.params.p, disorder.seed)
    payload = np.ascontiguousarray(disorder.couplings, dtype="<f8").tobytes()
    write_atomic(path, (header, payload), mode="wb")


def load_disorder(path) -> Disorder:
    """Read the binary disorder format written by :func:`save_disorder`."""
    with open(path, "rb") as fh:
        magic = fh.read(5)
        if magic != _MAGIC:
            raise DataError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        header = fh.read(24)
        if len(header) != 24:
            raise DataError(f"header is {5 + len(header)} bytes, expected 29")
        N, p, seed = struct.unpack("<QQQ", header)
        params = ModelParams(N=int(N), p=int(p))
        check_coupling_budget(params.N, params.p)
        expected = params.n_couplings * 8
        data = fh.read(expected + 1)  # the byte past the payload shows trailing data
    if len(data) != expected:
        raise DataError(f"payload is {len(data)} bytes, expected {expected}")
    couplings = np.frombuffer(data, dtype="<f8").astype(np.float64)
    return Disorder(params=params, seed=int(seed), couplings=couplings)


def _check_np(N: int, p: int) -> None:
    if not isinstance(N, int) or not isinstance(p, int):
        raise InvalidParametersError("N and p must be integers")
    if p < 1 or p > N:
        raise InvalidParametersError(f"need 1 <= p <= N, got p={p}, N={N}")
    if N > 64:
        raise InvalidParametersError(f"N={N} exceeds the 64-bit configuration bound")


def _check_index(A, N: int, p: int) -> None:
    if len(A) != p:
        raise InvalidParametersError(f"multi-index {A} has length {len(A)}, expected {p}")
    prev = 0
    for a in A:
        if not (prev < a <= N):
            raise InvalidParametersError(
                f"multi-index {A} is not strictly increasing within [1, {N}]"
            )
        prev = a
