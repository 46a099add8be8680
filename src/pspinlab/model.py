"""Exact evaluation of the Gaussian field, partition function and J term.

Configurations are N-bit masks (bit i set means spin i+1 points down).  Two
enumeration engines coexist:

* :func:`gray_sweep` visits all 2^N configurations in reflected-Gray-code
  order with an incremental :class:`EnergyLedger`, touching only the
  binom(N-1, p-1) couplings that contain the flipped site.  It is the
  reference path and the oracle the fast path is tested against.
* :func:`field_chunks` evaluates the hypercube one subcube at a time.
  Since sigma_A(s) = (-1)^{popcount(mask_A & s)}, the table of coupling
  sums over all states is the Walsh-Hadamard transform of the coupling
  vector scattered at the subset bitmasks, costing O(N 2^N) instead of
  O(2^N binom).  Each chunk fixes the high state bits, which fold into the
  coupling signs, and transforms the cache-sized subcube over the low bits.
  A chunk is scattered straight into a compact layout of the columns its
  low FWHT stages can reach; the rest hold +0.0 and are not transformed.
  It is the one table builder: :func:`field_table` is its one-chunk case.

:func:`partition_and_power_sums` is the one pass over the field table: it
yields ln Z_N together with the sums of X^2, X^3, X^4 the quenched moments
need, reducing each chunk of one table while it is in cache.  By default
it folds on the global-flip symmetry X(~s) = (-1)^p X(s): only the
half-space with the top spin up is transformed, and the mirrored half
enters as exp(-y) (p odd) or a factor 2 (p even).  Unfolded, it sums the
full 2^N table, so for odd p the vanishing of the X^3 sum is a genuine
cancellation.  The fold is checked against the unfolded sum in the test
suite; :func:`log_partition` and :func:`free_energy` are thin callers of
the folded pass.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DataError, InvalidParametersError, ResourceLimitError
from .multiindex import Disorder, ModelParams, mask_table

__all__ = [
    "SpinConfiguration",
    "EnergyLedger",
    "ENUMERATION_BUDGET",
    "check_enumeration_budget",
    "gaussian_field",
    "hamiltonian",
    "gray_sweep",
    "field_table",
    "field_chunks",
    "partition_and_power_sums",
    "log_partition",
    "free_energy",
    "j_term",
]

# Hard cap for any full-hypercube operation; the cost model is
# 2^N butterflies plus exp evaluations, about a minute per replica at N=30.
ENUMERATION_BUDGET = 30

# Largest table built in one piece: 2^24 doubles = 128 MiB.
_DIRECT_TABLE_BITS = 24

# Peak bytes per coupling of one enumeration pass besides its tables
# (tracemalloc, binom = 1.3e5..2.7e6): 49-78 B for the compact layout, the
# coupling signs and the scatter weights, next to the cached mask table.
_PASS_COUPLING_BYTES = 96
_PASS_BYTE_BUDGET = 2 * 2**30

# FWHT blocking: 2^16 doubles (512 KiB) plus equal scratch fit in L2;
# stages below 2^8 have rows too short for numpy and run transposed.
_FWHT_BLOCK_BITS = 16
_FWHT_LOW_BITS = 8

# A configuration is a plain int bitmask; bit i set <=> sigma_{i+1} = -1.
SpinConfiguration = int


def gaussian_field(bits: SpinConfiguration, disorder: Disorder) -> float:
    """X_sigma = binom(N,p)^{-1/2} sum_A J_A sigma_A for one configuration."""
    params = disorder.params
    _check_bits(bits, params.N)
    signs = _signs(mask_table(params.N, params.p), bits)
    return float(np.einsum("i,i->", disorder.couplings, signs) / math.sqrt(params.n_couplings))


def hamiltonian(bits: SpinConfiguration, disorder: Disorder) -> float:
    """H(sigma) = -sqrt(N) X_sigma."""
    return -math.sqrt(disorder.params.N) * gaussian_field(bits, disorder)


class EnergyLedger:
    """Incremental per-site bookkeeping for single-spin flips.

    The sign vector sigma_A is stored explicitly (exact +-1 entries); a
    flip of site i negates the signs of the binom(N-1, p-1) couplings
    containing i and decrements X by twice their current signed sum.  Only
    the running X accumulates rounding, a plain random walk that the
    periodic resync caps.
    """

    __slots__ = ("disorder", "bits", "current_X", "_sign", "_rows", "_scale")

    def __init__(self, disorder: Disorder):
        params = disorder.params
        N, p = params.N, params.p
        masks = mask_table(N, p)
        member_bits = ((masks[:, None] >> np.arange(N, dtype=np.uint64)) & np.uint64(1)).astype(bool)
        self.disorder = disorder
        self.bits = 0
        self._scale = 1.0 / math.sqrt(params.n_couplings)
        self._sign = np.ones(params.n_couplings)
        self._rows = [np.nonzero(member_bits[:, i])[0] for i in range(N)]
        self.current_X = float(disorder.couplings.sum()) * self._scale

    def flip(self, site: int) -> None:
        """Flip one spin (0-based site) and update all incremental state."""
        rows = self._rows[site]
        signed = self.disorder.couplings[rows] * self._sign[rows]
        self.current_X -= 2.0 * self._scale * float(signed.sum())
        self._sign[rows] *= -1.0
        self.bits ^= 1 << site

    def resync(self) -> None:
        """Rebuild X from bits; caps float drift on long sweeps."""
        params = self.disorder.params
        self._sign = _signs(mask_table(params.N, params.p), self.bits)
        j_sigma = np.einsum("i,i->", self.disorder.couplings, self._sign)
        self.current_X = float(j_sigma) * self._scale


_RESYNC_INTERVAL = 4096


def gray_sweep(disorder: Disorder, visitor) -> None:
    """Visit all 2^N configurations in reflected-Gray-code order.

    ``visitor(bits, x)`` is called once per configuration with the current
    bitmask and field value.  After the initial configuration each step
    flips exactly one site, at O(binom(N-1, p-1)) coupling touches.  The
    ledger resynchronizes from scratch every few thousand flips so
    incremental rounding cannot accumulate past ~1e-14.
    """
    params = disorder.params
    check_enumeration_budget(params)
    ledger = EnergyLedger(disorder)
    visitor(ledger.bits, ledger.current_X)
    for t in range(1, 1 << params.N):
        site = (t & -t).bit_length() - 1
        ledger.flip(site)
        if not t % _RESYNC_INTERVAL:
            ledger.resync()
        visitor(ledger.bits, ledger.current_X)


def _wht_axis0(x: np.ndarray, t: np.ndarray) -> None:
    """Walsh-Hadamard transform along axis 0 of the 2-D view x, in place.

    ``t`` is scratch of x's shape.  A radix-4 step runs the radix-2 stages
    h and 2h, x -> t -> x, with the same additions in the same order as two
    separate radix-2 stages; a radix-2 tail covers an odd stage count.
    """
    rows, cols = x.shape
    h = 1
    while 4 * h <= rows:
        q = x.reshape(-1, 4, h, cols)
        r = t.reshape(-1, 4, h, cols)
        for src, dst, pairs in ((q, r, ((0, 1), (2, 3))), (r, q, ((0, 2), (1, 3)))):
            for i, j in pairs:
                np.add(src[:, i], src[:, j], out=dst[:, i])
                np.subtract(src[:, i], src[:, j], out=dst[:, j])
        h *= 4
    if h < rows:
        lo, hi, diff = x[:h], x[h:], t[:h]
        np.subtract(lo, hi, out=diff)
        lo += hi
        hi[...] = diff


@lru_cache(maxsize=2)
def _compact_layout(N: int, p: int, bits: int) -> tuple:
    """Where the low FWHT stages of a 2^bits chunk find the coupling scatter.

    Each 2^_FWHT_BLOCK_BITS block runs its low stages on a transposed
    (2^_FWHT_LOW_BITS, columns) copy, one column per value of the block's
    upper bits.  A coupling mask has p bits set, so the columns of block b
    whose popcount exceeds p - popcount(b) receive no coupling and hold
    only +0.0, which the butterflies keep exactly +0.0.  Only the live
    columns are laid out: block after block, each a (2^_FWHT_LOW_BITS, live)
    array.  Returns the compact position of the low ``bits`` bits of each
    mask (read-only) and the live columns of each block.
    """
    low_bits = min(bits, _FWHT_LOW_BITS)
    block_bits = min(bits, _FWHT_BLOCK_BITS)
    cols = np.bitwise_count(np.arange(1 << (block_bits - low_bits)))
    blocks = np.bitwise_count(np.arange(1 << (bits - block_bits)))
    is_live = cols[None, :] + blocks[:, None] <= p
    counts = is_live.sum(axis=1)
    starts = np.cumsum(counts << low_bits) - (counts << low_bits)
    # compact position of row 0 of each (block, column), and the row stride
    base = (starts[:, None] + np.cumsum(is_live, axis=1) - 1).ravel()
    stride = np.repeat(counts, cols.size)
    low = (mask_table(N, p) & np.uint64((1 << bits) - 1)).astype(np.intp)
    upper = low >> low_bits
    index = base[upper] + (low & ((1 << low_bits) - 1)) * stride[upper]
    index.flags.writeable = False
    return index, [np.flatnonzero(row) for row in is_live]


def _transform(a: np.ndarray, live: list, t: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform, natural ordering, in place from compact form.

    ``a`` begins with the live columns of :func:`_compact_layout` and ends
    as the transform of the table whose other columns are +0.0; ``t`` is
    scratch of one block.  Every entry sees the butterflies of the radix-2
    stages h = 1, 2, 4, ... in that order, so the result is bit-identical to
    the plain stage loop.  Blocks run last to first, so no block's rows
    cover a compact array still to be read: each runs its low stages on its
    live columns, writes them into its rows with the dead rows +0.0 and runs
    its remaining stages.  The wide stages then run over column slices.
    """
    n, block = a.size, t.size
    low = min(n, 1 << _FWHT_LOW_BITS)
    end = low * sum(cols.size for cols in live)
    for b, cols in zip(a.reshape(-1, block)[::-1], live[::-1]):
        if not cols.size:
            b.fill(0.0)
            continue
        end -= low * cols.size
        x = a[end : end + low * cols.size].reshape(low, -1)
        tx = t[: x.size].reshape(x.shape)
        _wht_axis0(x, tx)
        np.copyto(tx, x)  # the block's rows may cover x
        rows = b.reshape(-1, low)
        if cols.size < rows.shape[0]:
            rows.fill(0.0)
        rows[cols] = tx.T
        _wht_axis0(rows, t.reshape(rows.shape))
    if n > block:
        rows = n // block
        width = block // rows
        wide = a.reshape(rows, block)
        for col in range(0, block, width):
            _wht_axis0(wide[:, col : col + width], t.reshape(rows, width))
    return a


def _fwht(a: np.ndarray) -> np.ndarray:
    """In-place Walsh-Hadamard transform of a dense table: every column live."""
    low = min(a.size, 1 << _FWHT_LOW_BITS)
    block = min(a.size, 1 << _FWHT_BLOCK_BITS)
    a[...] = a.reshape(-1, block // low, low).transpose(0, 2, 1).ravel()
    return _transform(a, [np.arange(block // low)] * (a.size // block), np.empty(block))


def field_table(disorder: Disorder, half: bool = False) -> np.ndarray:
    """X values for every configuration, indexed by state bitmask.

    With ``half=True`` only states with the top spin up (top bit clear) are
    returned; the remaining half follows from X(~s) = (-1)^p X(s).  It is
    the single chunk of :func:`field_chunks`, so at most 2^24 states.
    """
    return next(field_chunks(disorder, half=half, chunk_bits=disorder.params.N))


def field_chunks(disorder: Disorder, half: bool = False, chunk_bits: int | None = None):
    """Yield the field table in contiguous state-order chunks.

    The high state bits are fixed per chunk and fold into the coupling
    signs, so only the low-bit subcube is scattered and transformed, into
    the live columns of :func:`_compact_layout` at the start of the chunk.
    By default a chunk is the cache-sized FWHT block, widened (up to the
    in-memory table size, the largest chunk allowed) to at least 8 entries
    per coupling so that the O(binom(N,p)) scatter of each chunk stays small
    next to its transform.  Each chunk is a fresh array; the transform
    scratch is allocated once per call.
    """
    params = disorder.params
    check_enumeration_budget(params)
    n_bits = params.N - 1 if half else params.N
    if chunk_bits is None:
        wide = (8 * params.n_couplings - 1).bit_length()
        chunk_bits = min(max(_FWHT_BLOCK_BITS, wide), _DIRECT_TABLE_BITS)
    chunk_bits = min(chunk_bits, n_bits)
    if chunk_bits > _DIRECT_TABLE_BITS:
        raise ResourceLimitError(f"a 2^{chunk_bits}-state table exceeds the in-memory limit")
    index, live = _compact_layout(params.N, params.p, chunk_bits)
    high = mask_table(params.N, params.p) >> np.uint64(chunk_bits)
    scratch = np.empty(1 << min(chunk_bits, _FWHT_BLOCK_BITS))
    for high_state in range(1 << (n_bits - chunk_bits)):
        values = disorder.couplings * _signs(high, high_state) if high_state else disorder.couplings
        table = np.bincount(index, weights=values, minlength=1 << chunk_bits)
        _transform(table, live, scratch)
        table /= math.sqrt(params.n_couplings)
        yield table


def partition_and_power_sums(disorder: Disorder, beta: float, half: bool = True) -> tuple:
    """ln Z_N(beta) and the sums of X^2, X^3, X^4 over all 2^N states.

    One pass over the field table.  ln Z_N = ln E_sigma e^{beta sqrt(N) X}
    is accumulated in log domain with a running maximum, safe for
    beta sqrt(N) max|X| up to the exp overflow threshold.  With ``half``
    only the half table is transformed: the mirrored half
    X(~s) = (-1)^p X(s) doubles the even powers, and the odd power doubles
    for even p and cancels to exactly 0 for odd p.  Without it the full
    table is summed as it stands.
    """
    params = disorder.params
    if not (beta >= 0.0):
        raise InvalidParametersError(f"beta={beta} must be >= 0")
    if not np.all(np.isfinite(disorder.couplings)):
        raise DataError("non-finite coupling encountered")
    scale = beta * math.sqrt(params.N)
    mirror_odd = half and params.p % 2 == 1
    running_max = -math.inf
    acc = s2 = s3 = s4 = 0.0
    buf = None  # allocated by the first chunk, reused by the rest
    for chunk in field_chunks(disorder, half=half):
        buf = np.multiply(chunk, chunk, out=buf)
        s2 += float(buf.sum())
        # einsum, not np.dot: a BLAS dot splits its sum by thread count
        if not mirror_odd:
            s3 += float(np.einsum("i,i->", buf, chunk))
        s4 += float(np.einsum("i,i->", buf, buf))
        y = np.multiply(chunk, scale, out=chunk)
        for part in range(2 if mirror_odd else 1):
            if part:
                np.negative(y, out=y)
            m = float(y.max())
            if m > running_max:
                acc *= math.exp(running_max - m)
                running_max = m
            np.subtract(y, m, out=buf)
            acc += float(np.exp(buf, out=buf).sum()) * math.exp(m - running_max)
    fold = 2.0 if half else 1.0
    if not mirror_odd:
        acc *= fold
    log_z = running_max + math.log(acc) - params.N * math.log(2.0)
    return log_z, fold * s2, fold * s3, fold * s4


def log_partition(disorder: Disorder, beta: float) -> float:
    """ln Z_N(beta) = ln E_sigma e^{beta sqrt(N) X_sigma}, exact enumeration."""
    return partition_and_power_sums(disorder, beta)[0]


def free_energy(disorder: Disorder, beta: float) -> float:
    """F_N(beta) = ln Z_N(beta) / N."""
    return log_partition(disorder, beta) / disorder.params.N


def j_term(disorder: Disorder, beta: float) -> float:
    """J_N(beta) = beta^2 / (2 binom(N,p)) sum_A J_A^2.

    Equals (beta^2 / 2N) E_sigma[H^2]; no enumeration involved.
    """
    # einsum, not np.dot: a long BLAS dot splits by thread count, threads spin
    j2 = float(np.einsum("i,i->", disorder.couplings, disorder.couplings))
    return beta * beta * j2 / (2.0 * disorder.params.n_couplings)


def _signs(masks: np.ndarray, bits: int) -> np.ndarray:
    """sigma_A = (-1)^{popcount(mask_A & bits)} for each coupling mask, as +-1.0."""
    parity = np.bitwise_count(masks & np.uint64(bits)) & np.uint64(1)
    return 1.0 - 2.0 * parity.astype(np.float64)


def _check_bits(bits: int, N: int) -> None:
    if bits < 0 or bits >> N:
        raise InvalidParametersError(
            f"configuration {bits:#x} has bits outside the low {N}"
        )


def check_enumeration_budget(params: ModelParams) -> None:
    """Refuse an enumeration beyond 2^30 states or the byte budget of its couplings."""
    if params.N > ENUMERATION_BUDGET:
        raise ResourceLimitError(
            f"N={params.N} exceeds the enumeration budget N <= {ENUMERATION_BUDGET} "
            f"(cost ~ 2^N states)"
        )
    if params.n_couplings * _PASS_COUPLING_BYTES > _PASS_BYTE_BUDGET:
        raise ResourceLimitError(
            f"binom({params.N},{params.p}) = {params.n_couplings} couplings exceed the "
            f"{_PASS_BYTE_BUDGET >> 30} GiB enumeration budget at {_PASS_COUPLING_BYTES} B/coupling"
        )
