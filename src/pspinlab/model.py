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
  O(2^N binom).  Each chunk (2^19 states by default) fixes the high state
  bits, which fold into the coupling signs, and transforms the subcube
  over the low bits in 2^16-state blocks, joined by the wide stages.
  Before stage k only the entries whose bits >= k have popcount <= p can
  be nonzero, so each block's transform runs on that Hamming ball alone,
  of radius p - popcount(block), grouped by radius so that no stage
  gathers (:class:`_BallPlan`); the skipped entries hold +0.0 and each
  chunk keeps the dense transform's bits.  :func:`_chunk_layout` is the
  one layout of a chunk's slots, and this the one table builder:
  :func:`field_table` is its one-chunk case.

:func:`partition_and_power_sums` is the one pass over the field table: it
yields ln Z_N together with the sums of X^2, X^3, X^4 the quenched moments
need, reducing each chunk in 2^16-state slices that stay in cache.  By
default it folds on the global-flip symmetry X(~s) = (-1)^p X(s): only the
half-space with the top spin up is transformed, and the mirrored half
enters through cosh(y) (p odd) or a factor 2 (p even).  The sum of e^y is
taken as it stands; only if it overflows is ln Z_N computed again, in log
domain with a running maximum over the unfolded table.  Unfolded, it
sums the full 2^N table, so for odd p the vanishing of the X^3 sum is a
genuine cancellation.  The fold is checked against the unfolded sum in
the test suite; :func:`log_partition` and :func:`free_energy` are thin
callers of the folded pass.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache

import numpy as np

from .errors import (DataError, ResourceLimitError, check_beta, check_budget, check_count,
                     finite_double)
from .multiindex import Disorder, ModelParams, mask_table

__all__ = [
    "SpinConfiguration",
    "EnergyLedger",
    "ENUMERATION_BUDGET",
    "check_enumeration_budget",
    "gaussian_field",
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

# Peak bytes per coupling of one enumeration pass besides its table
# (tracemalloc over the first two default chunks of half tables, 2^19-2^23
# states, binom = 1.3e5..2.7e6): 36-49 B, 44-56 B with the mask table built
# inside; the most at (20, 8).
_PASS_COUPLING_BYTES = 96

# FWHT blocking: a block of 2^16 doubles (512 KiB) and its two ping-pong
# buffers fit in L2.  Every plan runs in the same buffers, under the lock;
# the wide stages ping-pong each column slice through both of them.
_FWHT_BLOCK_BITS = 16
_BLOCK_BUFFERS = (np.empty(1 << _FWHT_BLOCK_BITS), np.empty(1 << _FWHT_BLOCK_BITS))
_BLOCK_LOCK = threading.Lock()

# Default chunk: 2^19 states (4 MiB).  Block b of it runs the ball plan of
# radius p - popcount(b), where a 2^16 chunk, its high bits folded into the
# coupling signs, runs the radius-p plan; the wide stages that join the
# blocks cost less than the smaller plans save.
_CHUNK_BITS = 19

# A configuration is a plain int bitmask; bit i set <=> sigma_{i+1} = -1.
SpinConfiguration = int


def gaussian_field(bits: SpinConfiguration, disorder: Disorder) -> float:
    """X_sigma = binom(N,p)^{-1/2} sum_A J_A sigma_A for one configuration."""
    params = disorder.params
    check_count(bits, "configuration", 0, (1 << params.N) - 1)
    signs = _signs(mask_table(params.N, params.p), bits)
    return float(np.einsum("i,i->", disorder.couplings, signs) / math.sqrt(params.n_couplings))


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


class _BallPlan:
    """The Hamming-ball schedule of the FWHT of one 2^bits block.

    Before its transform the block is nonzero only at indices of popcount
    <= radius.  Before stage lv an entry (H, L), H its high bits, L its low
    lv bits, can be nonzero only if popcount(H) <= radius, so the live rows
    H are grouped by rho = radius - popcount(H), each class a contiguous
    (count, 2^lv) array.  A class-0 row is the transform of one entry at
    L = 0: one constant, kept as a (count, 1) prefix of the scattered slots.
    Class rho at level lv lists the even children of the class-rho parents,
    then the odd children of the class-(rho+1) parents, so stage lv is, for
    rho >= 1, out[:, :h] = A + B and out[:, h:] = A - B with A a prefix of
    class rho and B a suffix of class rho-1.  Each entry sees the stages in
    order with the same a + b and a - b; a skipped butterfly had a +0.0
    partner and a +/- 0.0 = a (tables never hold -0.0), so the result is
    bit-identical to the dense stage loop.  The steps are views bound to
    the plan's slot array and _BLOCK_BUFFERS; the last stage writes into
    the caller's array.
    """

    __slots__ = ("positions", "slots", "steps", "last")

    def __init__(self, bits: int, radius: int):
        # the high parts of each class, built from the top level down
        members = [np.zeros(0, np.intp)] * radius + [np.zeros(1, np.intp)]
        counts = [[m.size for m in members]]
        for _ in range(bits):
            members = [np.concatenate((2 * members[r], 2 * members[r + 1] + 1))
                       if r < radius else 2 * members[r] for r in range(radius + 1)]
            counts.append([m.size for m in members])
        counts.reverse()
        self.positions = np.concatenate(members)  # state index of each slot
        self.positions.flags.writeable = False
        self.slots = np.empty(self.positions.size)
        ends = np.cumsum(counts[0]).tolist()
        classes = [self.slots[e - c : e].reshape(c, 1) for c, e in zip(counts[0], ends)]
        self.steps = []
        for lv in range(bits - 1):
            h, pos = 1 << lv, 0
            rows = [classes[0][: counts[lv + 1][0]]]
            for r in range(1, radius + 1):
                c = counts[lv + 1][r]
                a, b = classes[r][:c], classes[r - 1][len(classes[r - 1]) - c :]
                out = _BLOCK_BUFFERS[lv & 1][pos : pos + 2 * c * h].reshape(c, 2, h)
                pos += 2 * c * h
                if c:
                    self.steps.append((a, b, out[:, 0], out[:, 1]))
                rows.append(out.reshape(c, 2 * h))
            classes = rows
        # the last stage makes the one row of class radius
        self.last = (classes[radius][:1].ravel(), classes[radius - 1][-1:].ravel()) if radius else None

    def run(self, slots: np.ndarray, out: np.ndarray) -> None:
        """Transform the block scattered at ``slots`` into ``out``."""
        np.copyto(self.slots, slots)
        for a, b, lo, hi in self.steps:
            np.add(a, b, out=lo)
            np.subtract(a, b, out=hi)
        if self.last is None:  # radius 0: one entry at index 0
            out.fill(self.slots[0])
            return
        a, b = self.last
        np.add(a, b, out=out[: a.size])
        np.subtract(a, b, out=out[a.size :])


def _block_plans(bits: int, radius: int) -> tuple:
    """The plan of each 2^16 block of a 2^bits chunk and the chunk index of each slot.

    Block b can be nonzero only at indices of popcount <= radius -
    popcount(b); a block with no such index gets no plan (None) and is all
    +0.0, and blocks of one radius share a plan.  The chunk's slots are every
    plan's level-0 positions offset by its block, block after block.
    """
    block_bits = min(bits, _FWHT_BLOCK_BITS)
    shared, plans = {}, []
    for b in range(1 << (bits - block_bits)):
        r = min(radius - b.bit_count(), block_bits)
        if r >= 0 and r not in shared:
            shared[r] = _BallPlan(block_bits, r)
        plans.append(shared.get(r))
    return tuple(plans), np.concatenate([plan.positions + (b << block_bits)
                                         for b, plan in enumerate(plans) if plan])


@lru_cache(maxsize=2)  # one layout per run, one more for the overflow fallback below N = 20
def _chunk_layout(N: int, p: int, bits: int) -> tuple:
    """The layout of (N, p) in 2^bits chunks, read-only.

    The :func:`_block_plans` (bits, p), the slot count, and each coupling's
    slot in a chunk and high state bits, which fold into its sign.
    """
    plans, positions = _block_plans(bits, p)
    order = np.argsort(positions)  # the positions are distinct and hold every mask's low bits
    masks = mask_table(N, p)
    low = (masks & np.uint64((1 << bits) - 1)).view(np.intp)
    index = order[np.searchsorted(positions[order], low)]
    high = masks >> np.uint64(bits)
    index.flags.writeable = high.flags.writeable = False
    return plans, positions.size, index, high


def _transform(slots: np.ndarray, plans: tuple, out: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform, natural ordering, of a scattered chunk into ``out``.

    Each block runs its :class:`_BallPlan` on the next slots.  The wide stages of
    a chunk of several blocks then run over cache-sized column slices: the
    radix-2 stages h = 1, 2, ... < rows, in the dense loop's order, each slice
    going from the table through the block buffers in turn and the last stage
    back into the table; a lone stage runs in place.
    """
    block = 1 << _FWHT_BLOCK_BITS
    with _BLOCK_LOCK:
        start = 0
        for dest, plan in zip(out.reshape(len(plans), -1), plans):
            if plan:
                plan.run(slots[start : start + plan.slots.size], dest)
                start += plan.slots.size
            else:
                dest.fill(0.0)
        if out.size > block:
            rows = len(plans)
            width = block // rows
            stages = rows.bit_length() - 1
            wide = out.reshape(rows, block)
            buffers = [_BLOCK_BUFFERS[k & 1].reshape(rows, width) for k in range(stages - 1)]
            for col in range(0, block, width):
                piece = src = wide[:, col : col + width]
                if stages == 1:  # in place, the differences kept in a buffer
                    lo, hi = piece
                    diff = np.subtract(lo, hi, out=_BLOCK_BUFFERS[0][:width])
                    lo += hi
                    hi[...] = diff
                    continue
                for k, dest in enumerate(buffers + [piece]):
                    q, r = src.reshape(-1, 2, 1 << k, width), dest.reshape(-1, 2, 1 << k, width)
                    np.add(q[:, 0], q[:, 1], out=r[:, 0])
                    np.subtract(q[:, 0], q[:, 1], out=r[:, 1])
                    src = dest
    return out


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
    signs, so only the low-bit subcube is transformed.  Its couplings,
    divided by sqrt(binom(N,p)) once per disorder, are scattered by
    ``np.bincount`` into the slots of :func:`_chunk_layout`: the level-0
    positions of each 2^16 block's :class:`_BallPlan` (697 at p = 3, not
    2^16), block after block.  Block b runs the plan of radius
    p - popcount(b) over the entries its couplings can reach, and the wide
    stages join the blocks.  By default a chunk has 2^19 states, or the whole
    table if smaller, widened (up to the in-memory table size, the largest
    chunk allowed) to at least 8 entries per coupling so that the
    O(binom(N,p)) scatter of each chunk stays small next to its transform.
    Each chunk is a fresh array; the transform buffers are shared by the
    plans.
    """
    params = disorder.params
    check_enumeration_budget(params)
    n_bits = params.N - 1 if half else params.N
    if chunk_bits is None:
        wide = (8 * params.n_couplings - 1).bit_length()
        chunk_bits = min(max(_CHUNK_BITS, wide), _DIRECT_TABLE_BITS)
    chunk_bits = min(check_count(chunk_bits, "chunk_bits", 0), n_bits)
    if chunk_bits > _DIRECT_TABLE_BITS:
        raise ResourceLimitError(f"a 2^{chunk_bits}-state table exceeds the in-memory limit")
    plans, n_slots, index, high = _chunk_layout(params.N, params.p, chunk_bits)
    scaled = disorder.couplings / math.sqrt(params.n_couplings)  # the transform is linear
    for high_state in range(1 << (n_bits - chunk_bits)):
        values = scaled * _signs(high, high_state) if high_state else scaled
        slots = np.bincount(index, weights=values, minlength=n_slots)
        table = _transform(slots, plans, np.empty(1 << chunk_bits))
        yield table
        del table  # one table alive at a time: the caller drops its own as well


def partition_and_power_sums(disorder: Disorder, beta: float, half: bool = True) -> tuple:
    """ln Z_N(beta) and the sums of X^2, X^3, X^4 over all 2^N states.

    One pass over the field table, each chunk reduced in 2^16-state slices
    while they are in cache.  ln Z_N = ln E_sigma e^{beta sqrt(N) X}.  With
    ``half`` only the half table is transformed: the mirrored half
    X(~s) = (-1)^p X(s) doubles the even powers, and the odd power doubles
    for even p and cancels to exactly 0 for odd p; the two halves enter
    e^y as 2 cosh(y) for odd p and as 2 e^y for even p.  Without it the full
    table is summed as it stands.

    The sum of e^y or cosh(y), times the fold factor, is taken as it stands;
    X having mean 0, it is at least 1.  Only if it overflows to inf is ln Z_N
    computed again by a second pass over the unfolded table, in log domain
    with a running maximum, a NumericalError if that maximum overflows; the
    power sums are kept from the first pass.
    """
    params = disorder.params
    check_beta(beta)
    if not np.all(np.isfinite(disorder.couplings)):
        raise DataError("non-finite coupling encountered")
    scale = beta * math.sqrt(params.N)
    mirror_odd = half and params.p % 2 == 1
    term = np.cosh if mirror_odd else np.exp  # cosh(y): a state and its mirror, halved
    fold = 2.0 if half else 1.0
    acc = s2 = s3 = s4 = 0.0
    buf = None  # allocated by the first slice, reused by the rest
    for table in field_chunks(disorder, half=half):
        # in cache-sized slices: a 4 MiB table reduced in one piece misses
        for x in table.reshape(-1, min(table.size, 1 << _FWHT_BLOCK_BITS)):
            buf = np.multiply(x, x, out=buf)
            s2 += float(buf.sum())
            # einsum, not np.dot: a BLAS dot splits its sum by thread count
            if not mirror_odd:
                s3 += float(np.einsum("i,i->", buf, x))
            s4 += float(np.einsum("i,i->", buf, buf))
            with np.errstate(over="ignore", under="ignore"):  # an inf sum is retried below
                acc += float(term(np.multiply(x, scale, out=x), out=buf).sum())
        del table, x  # before field_chunks builds the next chunk
    acc *= fold
    # the fold before the test: twice a finite half sum can still overflow
    log_z = math.log(acc) if acc < math.inf else _log_sum_exp(disorder, scale)
    return log_z - params.N * math.log(2.0), fold * s2, fold * s3, fold * s4


def _log_sum_exp(disorder: Disorder, scale: float) -> float:
    """ln of the sum of e^{scale X} over the unfolded table, shifted by the running maximum."""
    peak, acc = -math.inf, 0.0
    for table in field_chunks(disorder):
        for x in table.reshape(-1, min(table.size, 1 << _FWHT_BLOCK_BITS)):
            y = np.multiply(x, scale, out=x)
            # refused past the largest double, or the shift below is inf - inf
            shift = max(peak, finite_double(y.max(), "beta sqrt(N) X"))
            with np.errstate(over="ignore", under="ignore"):  # far below the maximum: 0
                total = float(np.exp(np.subtract(y, shift, out=y), out=y).sum())
            acc, peak = acc * math.exp(peak - shift) + total, shift
        del table, x, y
    return peak + math.log(acc)


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
    check_beta(beta)
    # einsum, not np.dot: a long BLAS dot splits by thread count, threads spin
    j2 = float(np.einsum("i,i->", disorder.couplings, disorder.couplings))
    return finite_double(beta * beta * j2 / (2.0 * disorder.params.n_couplings), "J_N")


def _signs(masks: np.ndarray, bits: int) -> np.ndarray:
    """sigma_A = (-1)^{popcount(mask_A & bits)} for each coupling mask, as +-1.0."""
    parity = np.bitwise_count(masks & np.uint64(bits)) & np.uint64(1)
    return 1.0 - 2.0 * parity.astype(np.float64)


def check_enumeration_budget(params: ModelParams, workers: int = 1) -> None:
    """Refuse an enumeration beyond 2^30 states or the byte budget of a pass in each worker."""
    if params.N > ENUMERATION_BUDGET:
        raise ResourceLimitError(
            f"N={params.N} exceeds the enumeration budget N <= {ENUMERATION_BUDGET} "
            f"(cost ~ 2^N states)"
        )
    check_budget(workers * params.n_couplings * _PASS_COUPLING_BYTES,
                 f"enumeration budget: binom({params.N},{params.p}) = {params.n_couplings} "
                 f"couplings at {_PASS_COUPLING_BYTES} B/coupling in {workers} process(es)")
