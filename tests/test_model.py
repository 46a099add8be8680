import functools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from pspinlab import (
    Disorder,
    EnergyLedger,
    InvalidParametersError,
    ModelParams,
    NumericalError,
    ResourceLimitError,
    field_chunks,
    field_table,
    free_energy,
    gaussian_field,
    gray_sweep,
    j_term,
    log_partition,
    sample_disorder,
)

from pspinlab import model
from pspinlab.model import _ball_plan, _fwht, partition_and_power_sums

from _oracles import (dense_field_chunks, fwht_radix2, hamiltonian, naive_field_table,
                      naive_log_partition)


def unit_disorder(N, p, value=1.0):
    params = ModelParams(N=N, p=p)
    return Disorder(
        params=params, seed=0, couplings=np.full(params.n_couplings, value)
    )


def test_field_all_plus_unit_couplings():
    d = unit_disorder(10, 3)
    assert gaussian_field(0, d) == pytest.approx(math.sqrt(math.comb(10, 3)))


def test_field_single_coupling_when_n_equals_p():
    params = ModelParams(N=3, p=3)
    d = Disorder(params=params, seed=0, couplings=np.array([0.7]))
    assert gaussian_field(0, d) == pytest.approx(0.7)
    # one flipped spin negates the product
    assert gaussian_field(0b001, d) == pytest.approx(-0.7)


def test_global_flip_parity():
    for p in (3, 4):
        d = sample_disorder(ModelParams(N=9, p=p), 11)
        for bits in (0, 0b101, 0b111111111 >> 2):
            flipped = bits ^ ((1 << 9) - 1)
            assert gaussian_field(flipped, d) == pytest.approx(
                (-1.0) ** p * gaussian_field(bits, d), rel=1e-13, abs=1e-13
            )


def test_hamiltonian_examples():
    d = unit_disorder(3, 3)
    assert hamiltonian(0, d) == pytest.approx(-math.sqrt(3))
    rd = sample_disorder(ModelParams(N=7, p=3), 4)
    for bits in (0, 5, 100):
        assert hamiltonian(bits, rd) == pytest.approx(
            -math.sqrt(7) * gaussian_field(bits, rd)
        )


def test_gray_sweep_visits_every_state_once():
    d = sample_disorder(ModelParams(N=3, p=2), 0)
    seen = []
    gray_sweep(d, lambda bits, x: seen.append(bits))
    assert len(seen) == 8
    assert sorted(seen) == list(range(8))
    flips = [bin(a ^ b).count("1") for a, b in zip(seen, seen[1:])]
    assert flips == [1] * 7


def test_gray_values_match_direct_recomputation():
    # full per-step check against from-scratch recomputation
    for N, p in [(10, 3), (8, 4)]:
        d = sample_disorder(ModelParams(N=N, p=p), 21)
        naive = naive_field_table(d)
        worst = [0.0]

        def visit(bits, x, worst=worst, naive=naive):
            worst[0] = max(worst[0], abs(x - naive[bits]))

        gray_sweep(d, visit)
        assert worst[0] < 1e-13


def test_ledger_resync_is_a_noop_in_exact_arithmetic():
    d = sample_disorder(ModelParams(N=8, p=3), 3)
    ledger = EnergyLedger(d)
    for site in (0, 3, 5, 3, 7):
        ledger.flip(site)
    before = ledger.current_X
    ledger.resync()
    assert ledger.current_X == pytest.approx(before, rel=1e-12)
    assert ledger.current_X == pytest.approx(gaussian_field(ledger.bits, d))


def test_field_table_matches_naive():
    d = sample_disorder(ModelParams(N=8, p=3), 17)
    assert np.allclose(field_table(d), naive_field_table(d), atol=1e-13)


def test_field_chunks_agree_with_direct_table():
    d = sample_disorder(ModelParams(N=12, p=3), 2)
    direct = field_table(d)
    glued = np.concatenate(list(field_chunks(d, chunk_bits=8)))
    assert np.array_equal(glued, direct[: glued.size]) or np.allclose(
        glued, direct, atol=1e-12
    )
    assert glued.size == 1 << 12


def test_fwht_bit_identical_to_radix2_stages():
    # odd and even log2 sizes, up to 2^22 so that 1 to 6 wide column-slice
    # stages (odd and even counts) run past the cache block (2^16)
    rng = np.random.default_rng(3)
    for bits in range(1, 23):
        x = rng.standard_normal(1 << bits)
        assert np.array_equal(_fwht(x.copy()), fwht_radix2(x.copy())), bits


def test_field_chunks_bit_identical_to_dense_oracle():
    # the Hamming-ball transform skips only entries that hold +0.0, so
    # every chunk keeps the dense scatter's bits: the whole 2^12 table at
    # (12, 4); 2^16 chunks of (20, 3) and (18, 4) and the 2^19-20 single
    # tables of (20, 8); 2^17 and 2^18 chunks of several 2^16 blocks, each
    # with its own radius, at (20, 5) and (19, 6); explicit chunks of 2^2,
    # 2^4, 2^8 and four blocks (18); and at (20, 2) in 2^19 chunks, a block
    # whose index has more bits set than p.  Then one fold each: the full
    # 2^16 table of (16, 3), the half (20, 4), the nearly dense (10, 8),
    # the 32 chunks of the half (22, 3) and the one 2^21 chunk of the half
    # (22, 7): 32 rows, so five wide stages
    cases = [(12, 4, None), (20, 8, None), (20, 3, None), (18, 4, None),
             (20, 5, None), (19, 6, None), (12, 3, 2), (12, 3, 4), (14, 4, 8),
             (20, 3, 18), (20, 2, 19)]
    runs = [(N, p, chunk_bits, half) for N, p, chunk_bits in cases for half in (True, False)]
    runs += [(16, 3, None, False), (20, 4, None, True), (10, 8, None, False), (22, 3, None, True),
             (22, 7, None, True)]
    for N, p, chunk_bits, half in runs:
        d = sample_disorder(ModelParams(N=N, p=p), 60 + N + p)
        got = list(field_chunks(d, half=half, chunk_bits=chunk_bits))
        bits = got[0].size.bit_length() - 1
        expected = list(dense_field_chunks(d, half, bits))
        assert len(got) == len(expected), (N, p, half)
        for chunk, dense in zip(got, expected):
            assert chunk.tobytes() == dense.tobytes(), (N, p, chunk_bits, half)


def test_ball_plan_level0_is_the_hamming_ball():
    # level 0 holds one slot per index of popcount <= radius; a scattered
    # block run through the plan equals the radix-2 stage loop bit for bit
    rng = np.random.default_rng(4)
    weight = np.bitwise_count(np.arange(1 << 16))
    for radius in range(17):
        plan = _ball_plan(16, radius)
        assert plan.positions.size == sum(math.comb(16, j) for j in range(radius + 1))
        assert np.array_equal(np.sort(plan.positions), np.flatnonzero(weight <= radius))
    for bits in (1, 2, 5, 9):
        weight = np.bitwise_count(np.arange(1 << bits))
        for radius in range(bits + 1):
            plan = _ball_plan(bits, radius)
            x = np.where(weight <= radius, rng.standard_normal(1 << bits), 0.0)
            got = np.empty(1 << bits)
            plan.run(x[plan.positions], got)
            assert got.tobytes() == fwht_radix2(x).tobytes(), (bits, radius)


def test_field_chunks_from_threads_match_serial():
    # every ball plan runs in the same block buffers, under one lock:
    # threads switching every microsecond must still get the serial bits
    shapes = [(17, 3), (16, 4), (18, 3), (12, 4)]
    disorders = [sample_disorder(ModelParams(N=N, p=p), 70 + k) for k, (N, p) in enumerate(shapes)]
    expected = [np.concatenate(list(field_chunks(d, half=True))) for d in disorders]
    same = [None] * len(disorders)

    def work(k):
        same[k] = all(
            np.concatenate(list(field_chunks(disorders[k], half=True))).tobytes() == expected[k].tobytes()
            for _ in range(4)
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(disorders))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert same == [True] * len(disorders)


def test_half_table_fold_identity():
    # states with the top bit clear determine the rest by global flip
    for p in (3, 4):
        d = sample_disorder(ModelParams(N=9, p=p), 8)
        full = field_table(d)
        half = field_table(d, half=True)
        assert half.size == 1 << 8
        assert np.allclose(half, full[: 1 << 8], atol=1e-12)
        sign = (-1.0) ** p
        mirrored = sign * full[: 1 << 8][::-1]
        assert np.allclose(full[1 << 8 :], mirrored, atol=1e-12)


def test_multi_chunk_pass_matches_single_table(monkeypatch):
    # 2^4-state chunks run the running-max merge that full-size tables
    # only reach at N >= 24
    beta, N = 0.9, 10
    for p in (3, 4):
        d = sample_disorder(ModelParams(N=N, p=p), 40 + p)
        def both():
            return {half: partition_and_power_sums(d, beta, half=half) for half in (True, False)}

        single = both()
        with monkeypatch.context() as patch:
            patch.setattr(model, "field_chunks", functools.partial(field_chunks, chunk_bits=4))
            chunked = both()
        for half in (True, False):
            log_z, s2, s3, s4 = chunked[half]
            assert log_z == pytest.approx(naive_log_partition(d, beta), rel=1e-12)
            assert s2 == pytest.approx(single[half][1], rel=1e-12)
            assert s4 == pytest.approx(single[half][3], rel=1e-12)
            if p % 2 and half:
                assert s3 == 0.0
            elif p % 2:
                # a cancellation to rounding: tolerance on the scale of E|X|^3
                assert abs(s3 - single[half][2]) <= 1e-12 * s2**1.5 / 2.0 ** (N / 2)
            else:
                assert s3 == pytest.approx(single[half][2], rel=1e-12)


def test_mirrored_half_is_sign_symmetric():
    # at odd p the folded pass reads the mirrored half -y as (-m) - y with
    # m = -min(y).  Negating every coupling swaps the two halves, so ln Z
    # must not move.  (20, 5) is one table of eight 2^16 slices: the running
    # maximum merges across slices and across the two halves
    beta = 0.8
    for N, p in ((11, 3), (20, 5)):
        d = sample_disorder(ModelParams(N=N, p=p), 80 + N)
        flipped = Disorder(params=d.params, seed=d.seed, couplings=-d.couplings)
        assert log_partition(flipped, beta) == pytest.approx(log_partition(d, beta), rel=1e-13)
    d = sample_disorder(ModelParams(N=12, p=3), 81)
    log_z, s2, s3, s4 = partition_and_power_sums(d, beta, half=True)
    full = partition_and_power_sums(d, beta, half=False)
    assert log_z == pytest.approx(full[0], rel=1e-12)
    assert s2 == pytest.approx(full[1], rel=1e-12)
    assert s4 == pytest.approx(full[3], rel=1e-12)
    assert s3 == 0.0


def test_default_chunks_are_cache_sized():
    # 2^19-state chunks, or the whole table if smaller, unless one would
    # hold under 8 entries per coupling
    d = sample_disorder(ModelParams(N=18, p=3), 1)
    assert [c.size for c in field_chunks(d, half=True)] == [1 << 17]
    assert [c.size for c in field_chunks(d)] == [1 << 18]
    d = sample_disorder(ModelParams(N=20, p=3), 1)
    assert [c.size for c in field_chunks(d)] == [1 << 19] * 2
    d = sample_disorder(ModelParams(N=18, p=9), 1)
    assert [c.size for c in field_chunks(d, half=True)] == [1 << 17]


def test_pass_holds_one_table_at_a_time():
    # (21, 3) half is two 2^19-state chunks (4 MiB each): the first is
    # dropped before the second is built
    d = sample_disorder(ModelParams(N=21, p=3), 1)
    partition_and_power_sums(d, 0.3)
    tracemalloc.start()
    try:
        partition_and_power_sums(d, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_multi_chunk_pass_matches_single_table_large_binom(monkeypatch):
    # (18, 9) is one table by default; in 2^16-state chunks every chunk
    # scatters all 48620 couplings with its own high-bit signs
    beta, N = 0.5, 18
    d = sample_disorder(ModelParams(N=N, p=9), 3)
    single = {half: partition_and_power_sums(d, beta, half=half) for half in (True, False)}
    monkeypatch.setattr(model, "field_chunks", functools.partial(field_chunks, chunk_bits=16))
    for half in (True, False):
        log_z, s2, s3, s4 = partition_and_power_sums(d, beta, half=half)
        assert log_z == pytest.approx(single[half][0], rel=1e-12)
        assert s2 == pytest.approx(single[half][1], rel=1e-12)
        assert s4 == pytest.approx(single[half][3], rel=1e-12)
        if half:
            assert s3 == 0.0
        else:
            assert abs(s3 - single[half][2]) <= 1e-12 * s2**1.5 / 2.0 ** (N / 2)


def test_chunked_field_spot_check_n24():
    # no full oracle is affordable at 2^23 half-table states: 300 random
    # states of the default chunks against the direct coupling sum
    d = sample_disorder(ModelParams(N=24, p=3), 11)
    states = np.sort(np.random.default_rng(5).choice(1 << 23, size=300, replace=False))
    got, start = [], 0
    for chunk in field_chunks(d, half=True):
        assert chunk.size == 1 << 19
        inside = states[(states >= start) & (states < start + chunk.size)]
        got.extend(chunk[inside - start])
        start += chunk.size
    assert start == 1 << 23
    expected = [gaussian_field(int(s), d) for s in states]
    assert np.allclose(got, expected, rtol=0.0, atol=1e-12)


def spot_check_half_table(N, seed, rng_seed, per_chunk):
    # per_chunk random states in each 2^19-state default chunk of the (N, 3)
    # half table against the direct coupling sum
    d = sample_disorder(ModelParams(N=N, p=3), seed)
    rng = np.random.default_rng(rng_seed)
    got, expected, start = [], [], 0
    for chunk in field_chunks(d, half=True):
        assert chunk.size == 1 << 19
        for i in rng.choice(chunk.size, size=per_chunk, replace=False):
            got.append(chunk[i])
            expected.append(gaussian_field(start + int(i), d))
        start += chunk.size
    assert start == 1 << (N - 1)
    assert len(got) == per_chunk << (N - 20)
    assert np.allclose(got, expected, rtol=0.0, atol=1e-12)


def test_chunked_field_spot_check_n26():
    # 16 states in each of the 64 chunks: 1,024 states
    spot_check_half_table(26, 13, 6, per_chunk=16)


def test_chunked_field_spot_check_n30():
    # at the enumeration budget's edge: 2 states in each of the 1,024 chunks
    spot_check_half_table(30, 14, 7, per_chunk=2)


def test_chunked_pass_matches_logsumexp_n22():
    from scipy.special import logsumexp

    beta, N = 0.6, 22
    d = sample_disorder(ModelParams(N=N, p=3), 12)
    table = field_table(d, half=False)
    expected = float(logsumexp(beta * math.sqrt(N) * table)) - N * math.log(2.0)
    for half in (True, False):
        log_z, s2, _, s4 = partition_and_power_sums(d, beta, half=half)
        assert log_z == pytest.approx(expected, rel=1e-12)
        assert s2 == pytest.approx(float(np.sum(table**2)), rel=1e-12)
        assert s4 == pytest.approx(float(np.sum(table**4)), rel=1e-12)


def gate_beta(d):
    """The beta at which beta sqrt(N) sum |J_A| / sqrt(binom) + N ln 2 reaches ln(max double)."""
    params = d.params
    per_beta = math.sqrt(params.N / params.n_couplings) * float(np.abs(d.couplings).sum())
    return (math.log(np.finfo(float).max) - params.N * math.log(2.0)) / per_beta


def test_pass_matches_logsumexp_on_both_routes():
    # e^y (full table, even fold) and cosh(y) (odd fold) are summed as they
    # stand; at (10, 3) beta = 300, far past the gate, they overflow and only
    # the running-max fallback stays finite
    from scipy.special import logsumexp

    for N, p, beta in ((12, 3, 0.7), (14, 4, 0.7), (10, 3, 300.0)):
        d = sample_disorder(ModelParams(N=N, p=p), 90 + N)
        assert (beta < gate_beta(d)) == (beta < 1.0)
        table = field_table(d, half=False)
        expected = float(logsumexp(beta * math.sqrt(N) * table)) - N * math.log(2.0)
        for half in (True, False):
            log_z = partition_and_power_sums(d, beta, half=half)[0]
            assert log_z == pytest.approx(expected, rel=1e-12)
            assert partition_and_power_sums(d, 0.0, half=half)[0] == 0.0


def test_pass_near_the_gate_raises_no_floating_point_error():
    # the direct sum is tried on both sides of the gate, where the
    # coupling-norm bound once switched to the fallback.  Neither over- nor
    # underflows
    from scipy.special import logsumexp

    for N, p in ((10, 3), (10, 4)):
        d = sample_disorder(ModelParams(N=N, p=p), 95 + p)
        table = field_table(d, half=False)
        for beta in (gate_beta(d) * (1.0 - 1e-9), gate_beta(d) * (1.0 + 1e-9)):
            expected = float(logsumexp(beta * math.sqrt(N) * table)) - N * math.log(2.0)
            with np.errstate(all="raise"):
                got = [partition_and_power_sums(d, beta, half=half)[0] for half in (True, False)]
            assert got == pytest.approx([expected, expected], rel=1e-12)


def expected_log_z(d, beta):
    from scipy.special import logsumexp

    table = field_table(d, half=False)
    return float(logsumexp(beta * math.sqrt(d.params.N) * table)) - d.params.N * math.log(2.0)


def test_subcritical_high_p_passes_sum_directly(monkeypatch):
    # below beta_8 = 1.174 and beta_9 = 1.176 max|y| is about 21, far from
    # overflow, though the coupling-norm bound was 1,266 and 819 there
    def no_fallback(disorder, scale):
        raise AssertionError("the log-domain fallback ran")

    monkeypatch.setattr(model, "_log_sum_exp", no_fallback)
    for N, p, beta in ((20, 8, 1.0), (18, 9, 1.1)):
        d = sample_disorder(ModelParams(N=N, p=p), 1)
        expected = expected_log_z(d, beta)
        for half in (True, False):
            assert partition_and_power_sums(d, beta, half=half)[0] == pytest.approx(expected, rel=1e-12)


def test_folded_sum_overflow_takes_the_fallback(monkeypatch):
    # max y = 709.5: e^709.5 is finite, but the state and its mirror, 2 e^709.5, are not
    calls = []
    fallback = model._log_sum_exp

    def counted(disorder, scale):
        calls.append(scale)
        return fallback(disorder, scale)

    monkeypatch.setattr(model, "_log_sum_exp", counted)
    d = sample_disorder(ModelParams(N=10, p=4), 7)
    beta = 709.5 / (math.sqrt(10) * float(field_table(d).max()))
    expected = expected_log_z(d, beta)
    for half in (True, False):
        assert partition_and_power_sums(d, beta, half=half)[0] == pytest.approx(expected, rel=1e-12)
    assert len(calls) == 2


def test_fallback_raises_no_floating_point_error():
    # at beta = 300 the fallback's e^{y - max} underflows for most states
    d = sample_disorder(ModelParams(N=10, p=3), 100)
    expected = expected_log_z(d, 300.0)
    for half in (True, False):
        with np.errstate(all="raise"):
            log_z = partition_and_power_sums(d, 300.0, half=half)[0]
        assert log_z == pytest.approx(expected, rel=1e-12)


def test_log_z_past_the_largest_double_is_numerical_error():
    # beta sqrt(N) X overflows to inf: the fallback warned "invalid value" on
    # inf - inf and returned nan; 1e307 still gives a finite ln Z
    d = sample_disorder(ModelParams(N=10, p=3), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(partition_and_power_sums(d, 1e307)[0])
        with pytest.raises(NumericalError, match="numerical overflow"):
            partition_and_power_sums(d, 1e308)


def test_log_partition_zero_beta():
    d = sample_disorder(ModelParams(N=10, p=3), 1)
    assert log_partition(d, 0.0) == 0.0


def test_log_partition_single_coupling_cosh():
    params = ModelParams(N=3, p=3)
    d = Disorder(params=params, seed=0, couplings=np.array([1.3]))
    for beta in (0.2, 0.7, 1.5):
        expect = math.log(math.cosh(beta * math.sqrt(3) * 1.3))
        assert log_partition(d, beta) == pytest.approx(expect, rel=1e-14)


def test_log_partition_matches_naive():
    for N, p, seed in [(10, 3, 0), (9, 4, 5), (12, 3, 9)]:
        d = sample_disorder(ModelParams(N=N, p=p), seed)
        for beta in (0.3, 0.9):
            assert log_partition(d, beta) == pytest.approx(
                naive_log_partition(d, beta), rel=1e-12
            )


def test_log_partition_convex_in_beta():
    d = sample_disorder(ModelParams(N=10, p=3), 13)
    betas = np.linspace(0.0, 1.2, 25)
    vals = np.array([log_partition(d, float(b)) for b in betas])
    second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
    assert np.all(second > -1e-10)


def test_log_partition_rejects_bad_inputs():
    d = sample_disorder(ModelParams(N=8, p=3), 0)
    with pytest.raises(InvalidParametersError):
        log_partition(d, -0.5)
    big = sample_disorder(ModelParams(N=31, p=3), 0)
    with pytest.raises(ResourceLimitError):
        log_partition(big, 0.5)
    with pytest.raises(ResourceLimitError):
        gray_sweep(big, lambda b, x: None)


def test_tables_above_in_memory_limit_refused():
    # a 2^25-state table (256 MiB) is refused before anything is allocated,
    # as the one chunk of field_table or as an explicit chunk size
    d = sample_disorder(ModelParams(N=25, p=3), 0)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            field_table(d, half=False)
        with pytest.raises(ResourceLimitError):
            next(field_chunks(d, chunk_bits=25))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_free_energy_is_scaled_log_partition():
    d = sample_disorder(ModelParams(N=11, p=3), 6)
    assert free_energy(d, 0.6) == log_partition(d, 0.6) / 11
    assert free_energy(d, 0.0) == 0.0


def test_free_energy_crude_upper_bound():
    d = sample_disorder(ModelParams(N=10, p=3), 30)
    beta = 0.5
    x_max = float(field_table(d).max())
    assert free_energy(d, beta) <= beta * x_max / math.sqrt(10) + 1e-12


def test_j_term_examples():
    d = sample_disorder(ModelParams(N=12, p=3), 2)
    assert j_term(d, 0.0) == 0.0
    assert j_term(unit_disorder(9, 3), 0.8) == pytest.approx(0.8**2 / 2)


def test_j_term_equals_scaled_second_moment():
    d = sample_disorder(ModelParams(N=8, p=3), 44)
    beta = 0.7
    x = naive_field_table(d)
    h2 = 8 * np.mean(x * x)
    assert j_term(d, beta) == pytest.approx(beta**2 / (2 * 8) * h2, rel=1e-12)


def test_j_term_independent_of_blas_threads():
    # 19600 couplings: long enough that a BLAS dot would split its sum
    code = (
        "from pspinlab import ModelParams, j_term, sample_disorder\n"
        "params = ModelParams(50, 3)\n"
        "print([repr(j_term(sample_disorder(params, s), 0.5)) for s in range(6)])\n"
    )
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_gaussian_field_and_resync_independent_of_blas_threads():
    # 19600 couplings, as in the j_term test above
    code = (
        "from pspinlab import EnergyLedger, ModelParams, gaussian_field, sample_disorder\n"
        "d = sample_disorder(ModelParams(50, 3), 7)\n"
        "ledger = EnergyLedger(d)\n"
        "for site in (0, 17, 49):\n"
        "    ledger.flip(site)\n"
        "ledger.resync()\n"
        "states = (0, 12345, 2**49 + 77, 2**50 - 1)\n"
        "print(repr(ledger.current_X), [repr(gaussian_field(s, d)) for s in states])\n"
    )
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_annealed_free_energy_mean():
    # disorder-averaged F at subcritical beta sits at beta^2/2 up to
    # a small negative deflation; 3-standard-error window
    beta, M = 0.5, 500
    params = ModelParams(N=18, p=3, beta=beta)
    from pspinlab import derive_seed

    vals = np.array(
        [
            free_energy(sample_disorder(params, derive_seed(316, i)), beta)
            for i in range(M)
        ]
    )
    se = vals.std(ddof=1) / math.sqrt(M)
    assert abs(vals.mean() - beta**2 / 2) < 3 * se


def test_field_covariance_structure():
    # across disorder, Cov(X_s, X_s') depends only on the overlap and
    # equals the exact covariance function; 10^4 replicas, 5 SE
    from numpy.random import Philox

    from pspinlab import exact_covariance, mask_table

    N, p, M = 10, 3, 10_000
    masks = mask_table(N, p)
    states = np.array([0, 1, 0b11111, 0b1111100111, 0b1111111111], dtype=np.uint64)
    parity = (np.bitwise_count(masks[None, :] & states[:, None]) & np.uint64(1))
    signs = 1.0 - 2.0 * parity.astype(np.float64)
    rng = np.random.Generator(Philox(20260717))
    couplings = rng.standard_normal((M, signs.shape[1]))
    x = couplings @ signs.T / math.sqrt(math.comb(N, p))
    for col, state in enumerate(states):
        k_dis = int(state).bit_count()
        expected = exact_covariance(N, p, k_dis)
        emp = float(np.mean(x[:, 0] * x[:, col]))
        se = float(np.std(x[:, 0] * x[:, col], ddof=1)) / math.sqrt(M)
        assert abs(emp - expected) <= 5.0 * se
