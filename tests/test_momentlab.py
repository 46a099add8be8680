"""Quenched moments, combinatorial representations, disorder laws."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import logsumexp

from pspinlab import momentlab
from pspinlab import (
    Disorder,
    InvalidParametersError,
    ModelParams,
    ResourceLimitError,
    derive_seed,
    exact_first_moment,
    first_moment_mc,
    free_energy,
    free_energy_and_moments,
    gaussian_field,
    h3_representation,
    h4_direct,
    h4_statistic,
    j_mgf,
    j_mgf_mc,
    j_term,
    log_partition,
    mask_table,
    pair_moment_paths,
    pair_statistic_moment,
    pair_sums,
    quenched_moments,
    sample_disorder,
)
from pspinlab.multiindex import philox_words
from _oracles import (
    brute_signed_sums_loop,
    exact_pair_sums,
    first_moment_expansion,
    h3_pair_scan,
    h4_pair_grouping,
    h4_quadruple_loop,
    naive_field_table,
    sorted_bin_pair_sums,
)


def make_disorder(N, p, seed):
    return sample_disorder(ModelParams(N=N, p=p), seed)


def hand_disorder(N, p, values):
    return Disorder(
        params=ModelParams(N=N, p=p),
        seed=0,
        couplings=np.asarray(values, dtype=np.float64),
    )


def test_quenched_moments_vs_naive_enumeration():
    for N, p, seed in ((8, 3, 11), (8, 4, 12), (10, 3, 13)):
        d = make_disorder(N, p, seed)
        q = quenched_moments(d, 0.7)
        x = naive_field_table(d)
        m2 = N * float(np.mean(x**2))
        m3 = -(N**1.5) * float(np.mean(x**3))
        m4 = N * N * float(np.mean(x**4))
        assert q.m2 == pytest.approx(m2, rel=1e-12)
        assert q.m3 == pytest.approx(m3, rel=1e-12, abs=1e-12 * m2**1.5)
        assert q.m4 == pytest.approx(m4, rel=1e-12)
        b = 0.7
        t = 1.0 - b**4 * m2 * m2 / 8.0 - b**3 * m3 / 6.0 + b**4 * m4 / 24.0
        assert q.t_value == pytest.approx(t, rel=1e-12)


def test_fused_pass_matches_separate_paths():
    beta = 0.4
    for p in (3, 4):
        for N in (9, 10, 12):
            d = make_disorder(N, p, 100 + 10 * p + N)
            f_n, fused = free_energy_and_moments(d, beta)
            unfolded = quenched_moments(d, beta)
            assert f_n == free_energy(d, beta)
            assert fused.m2 == pytest.approx(unfolded.m2, rel=1e-12, abs=0.0)
            assert fused.m4 == pytest.approx(unfolded.m4, rel=1e-12, abs=0.0)
            if p % 2:
                assert fused.m3 == 0.0
            else:
                assert fused.m3 == pytest.approx(unfolded.m3, rel=1e-12, abs=0.0)
            assert fused.j4_sum == unfolded.j4_sum
            assert fused.t_value == pytest.approx(unfolded.t_value, rel=1e-12, abs=0.0)


def test_single_coupling_moments():
    # N = p: the field is +-J, so |H| is constant
    for N, j in ((3, 1.3), (4, -0.8)):
        d = hand_disorder(N, N, [j])
        q = quenched_moments(d, 0.0)
        assert q.m2 == pytest.approx(N * j * j, rel=1e-14)
        assert q.m4 == pytest.approx(N * N * j**4, rel=1e-14)
        assert abs(q.m3) < 1e-14 * abs(j) ** 3
        assert q.t_value == 1.0
        assert abs(q.h4) < 1e-14 * j**4
        assert abs(h4_direct(d)) < 1e-15 * max(1.0, j**4)
        assert h4_quadruple_loop(d) == 0.0


def test_t_value_beta_zero_is_one():
    d = make_disorder(9, 3, 5)
    assert quenched_moments(d, 0.0).t_value == 1.0


def test_beta_validation():
    d = make_disorder(6, 3, 5)
    with pytest.raises(InvalidParametersError):
        quenched_moments(d, -0.1)


def outputs_under_blas_threads(code):
    """stdout of ``code`` run with 1 and with 2 OpenBLAS threads."""
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    return outputs


def test_quenched_moments_independent_of_blas_threads():
    code = (
        "from pspinlab import ModelParams, quenched_moments, sample_disorder\n"
        "q = quenched_moments(sample_disorder(ModelParams(18, 3), 3), 0.4)\n"
        "print(repr((q.m2, q.m3, q.m4, q.h4, q.t_value)))\n"
    )
    outputs = outputs_under_blas_threads(code)
    assert outputs[0] == outputs[1]


def test_h4_direct_independent_of_blas_threads():
    # at (15, 4) the pairs fall into 12910 symmetric differences: a BLAS
    # dot that long splits its sum by thread count
    code = (
        "from pspinlab import ModelParams, h4_direct, sample_disorder\n"
        "print([repr(h4_direct(sample_disorder(ModelParams(15, 4), s))) for s in range(4)])\n"
    )
    outputs = outputs_under_blas_threads(code)
    assert outputs[0] == outputs[1]


def test_first_moment_mc_independent_of_blas_threads():
    # 256 sampled states against binom(30, 4) = 27405 couplings: a BLAS
    # gemv that size may split its sums by thread count
    code = (
        "from pspinlab import first_moment_mc\n"
        "print(repr(first_moment_mc(30, 4, 0.5, replicas=2, base_seed=7, sigma_samples=256).tolist()))\n"
    )
    outputs = outputs_under_blas_threads(code)
    assert outputs[0] == outputs[1]


def test_m3_vanishes_for_odd_p():
    for p in (3, 5):
        for seed in range(10):
            d = make_disorder(10, p, 100 + seed)
            q = quenched_moments(d, 0.5)
            scale = float(np.sum(np.abs(d.couplings) ** 3))
            assert abs(q.m3) <= 1e-12 * scale


def test_h3_hand_example():
    # p=2, N=3, unit couplings: the six ordered triples of the three pairs
    d = hand_disorder(3, 2, [1.0, 1.0, 1.0])
    a3 = (3.0 / 3.0) ** 1.5
    assert h3_representation(d) == pytest.approx(a3 * 6.0, rel=1e-13)


def test_h3_odd_p_empty_sum():
    d = make_disorder(9, 3, 21)
    assert h3_representation(d) == 0.0


def test_h3_matches_quenched_m3():
    for N, p, seed in ((8, 2, 31), (8, 4, 32), (10, 4, 33), (9, 3, 34)):
        d = make_disorder(N, p, seed)
        q = quenched_moments(d, 0.0)
        scale = max(abs(q.m3), q.m2**1.5)
        assert abs(h3_representation(d) + q.m3) <= 1e-10 * scale


def test_h3_gray_style_enumeration_oracle():
    d = make_disorder(8, 4, 40)
    x = naive_field_table(d)
    minus_eh3 = 8**1.5 * float(np.mean(x**3))
    assert h3_representation(d) == pytest.approx(minus_eh3, rel=1e-11)


def test_h4_decomposition_vs_direct():
    for p in (3, 4):
        for seed in range(100):
            d = make_disorder(10, p, 1000 + seed)
            q = quenched_moments(d, 0.0)
            a4 = d.params.a_n**4
            scale = q.m2**2 / 8.0 + abs(q.m4) / 24.0 + a4 / 12.0 * q.j4_sum
            assert abs(q.h4 - h4_direct(d)) <= 1e-11 * scale


def test_h4_quadruple_loop_oracle():
    for N, p, seed in ((7, 3, 51), (8, 3, 52), (8, 4, 53)):
        d = make_disorder(N, p, seed)
        direct = h4_direct(d)
        literal = h4_quadruple_loop(d)
        scale = max(abs(literal), float(np.sum(d.couplings**2)) ** 2 * d.params.a_n**4)
        assert abs(direct - literal) <= 1e-12 * scale
        assert abs(h4_statistic(d) - literal) <= 1e-11 * scale


def test_h4_budget_guard():
    with pytest.raises(ResourceLimitError):
        h4_quadruple_loop(make_disorder(12, 3, 1))


@pytest.fixture
def fresh_pair_plan():
    momentlab.pair_plan.cache_clear()
    yield momentlab.pair_plan
    momentlab.pair_plan.cache_clear()


def close_to_exact(value, reference):
    """Within 8 eps of the sum of the terms' magnitudes of the exact value."""
    exact, size = reference
    return abs(Fraction(value) - exact) <= 8 * Fraction(np.finfo(np.float64).eps) * size


def test_pair_plan_matches_per_call_oracles(fresh_pair_plan):
    # p = 2, p = N, odd p (empty h3) and even p.  The pair table and the
    # per-call oracles sum in different orders, so each is held to the exact sum.
    grid = ((4, 2), (8, 2), (11, 2), (5, 5), (6, 6), (7, 3), (9, 3), (13, 5),
            (9, 4), (12, 4), (10, 6))
    for N, p in grid:
        for seed in range(3):
            d = make_disorder(N, p, 7000 + 100 * N + 10 * p + seed)
            h3_ref, h4_ref = exact_pair_sums(d)
            h3, h4 = pair_sums(d)
            assert (h3, h4) == (h3_representation(d), h4_direct(d))
            for value in (h3, h3_pair_scan(d)):
                assert close_to_exact(value, h3_ref)
            for value in (h4, h4_pair_grouping(d)):
                assert close_to_exact(value, h4_ref)
            if p % 2:
                assert h3 == 0.0


def test_pair_sums_match_sorted_bin_oracle(fresh_pair_plan):
    # the table indexed by v sums each entry in the order of the sorted bins
    grid = ((4, 2), (8, 2), (11, 2), (5, 5), (6, 6), (7, 3), (9, 3), (13, 5),
            (9, 4), (12, 4), (10, 6), (14, 4), (16, 3))
    for N, p in grid:
        for seed in range(3):
            d = make_disorder(N, p, 7100 + 100 * N + 10 * p + seed)
            assert pair_sums(d) == sorted_bin_pair_sums(d)


def test_pair_plan_build_peak(fresh_pair_plan):
    for N, p in ((12, 4), (14, 4)):
        mask_table(N, p)
        fresh_pair_plan.cache_clear()
        tracemalloc.start()
        try:
            fresh_pair_plan(N, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * math.comb(N, p) ** 2


def test_pair_plan_multi_block_h3(fresh_pair_plan, monkeypatch):
    # 1, 7 and >= n rows per block; np.add.at bins in index order, so every
    # block size gives the same bits
    N, p = 10, 4
    n = math.comb(N, p)
    disorders = [make_disorder(N, p, 7500 + seed) for seed in range(3)]
    references = [exact_pair_sums(d) for d in disorders]
    sums = []
    for rows in (1, 7, n + 5):
        fresh_pair_plan.cache_clear()
        monkeypatch.setattr(momentlab, "_PAIR_BLOCK_ENTRIES", rows * n)
        sums.append([pair_sums(d) for d in disorders])
        for (h3, h4), (h3_ref, h4_ref) in zip(sums[-1], references):
            assert close_to_exact(h3, h3_ref) and close_to_exact(h4, h4_ref)
        assert len(fresh_pair_plan(N, p)[0]) == -(-n // rows)
    assert sums[0] == sums[1] == sums[2]


def test_pair_sums_memory_bounded(fresh_pair_plan):
    # one bin table and one row block per call, never an n^2 array (8 MB here)
    d = make_disorder(14, 4, 7700)
    pair_sums(d)
    tracemalloc.start()
    try:
        pair_sums(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_pair_plan_built_once_per_shape(fresh_pair_plan):
    for seed in range(3):
        d = make_disorder(10, 4, 7600 + seed)
        h3_representation(d)
        h4_direct(d)
    info = fresh_pair_plan.cache_info()
    assert (info.misses, info.hits) == (1, 5)


def test_pair_plan_byte_budget(fresh_pair_plan):
    for N in (20, 21, 22, 25):
        momentlab.check_pair_budget(N, 4)
    # 14950^2 pairs at 8 B (1.79 GB) and a 2^26-entry table (0.54 GB) exceed 2 GiB
    with pytest.raises(ResourceLimitError):
        momentlab.check_pair_budget(26, 4)
    # a table of 2^28 doubles is 2 GiB by itself
    momentlab.check_pair_budget(27, 2)
    with pytest.raises(ResourceLimitError):
        momentlab.check_pair_budget(28, 2)
    # n^2 = 5.6e9 alone exceeds the budget: refused before any allocation
    d = make_disorder(22, 6, 1)
    for fn in (h3_representation, h4_direct):
        with pytest.raises(ResourceLimitError):
            fn(d)
    assert fresh_pair_plan.cache_info().currsize == 0


def test_h4_disorder_mean_is_zero():
    # every quadruple leaves at least one unpaired coupling
    M = 10_000
    vals = np.empty(M)
    for r in range(M):
        vals[r] = h4_statistic(make_disorder(8, 3, derive_seed(4242, r)))
    se = float(np.std(vals, ddof=1)) / math.sqrt(M)
    assert abs(float(np.mean(vals))) <= 4.0 * se


def test_brute_signed_sums_match_subset_loop():
    # the parity count over the mask table gives the subset loop's integers
    for N in range(1, 11):
        for p in range(1, N + 1):
            assert momentlab._brute_signed_sums(N, p) == brute_signed_sums_loop(N, p), (N, p)


def exact_h4_second_moment(N, p):
    # E[H4^2] = (a^8/4!) (E[(sum sigma sigma')^4] - 3 binom(binom-1) - binom)
    b = math.comb(N, p)
    grid_path, brute_path = pair_moment_paths(N, p, 4)
    assert grid_path == brute_path
    a8 = Fraction(N, b) ** 4
    return float(a8 / 24 * (grid_path - 3 * b * (b - 1) - b))


def test_h4_second_moment_trend():
    # N^{2p-4} E[H4^2] creeps toward E[He_3^4]/12 - (3!)^2/8 = 274.5
    limit = 3348.0 / 12.0 - 36.0 / 8.0
    exact = {N: N**2 * exact_h4_second_moment(N, 3) for N in (10, 14)}
    assert abs(limit - exact[14]) < abs(limit - exact[10])
    M = 1500
    mc = {}
    se = {}
    for N in (10, 14, 18):
        vals = np.empty(M)
        for r in range(M):
            vals[r] = h4_statistic(make_disorder(N, 3, derive_seed(555 + N, r)))
        sq = N**2 * vals**2
        mc[N] = float(np.mean(sq))
        se[N] = float(np.std(sq, ddof=1)) / math.sqrt(M)
    assert abs(mc[10] - exact[10]) <= 4.0 * se[10]
    assert abs(mc[14] - exact[14]) <= 4.0 * se[14]
    # the N=18 point must sit closer to the limit than the exact N=10 value
    assert abs(limit - mc[18]) - 2.0 * se[18] < abs(limit - exact[10])


def test_exact_first_moment_beta_zero():
    assert exact_first_moment(12, 3, 0.0) == 1.0


def test_exact_first_moment_validation():
    with pytest.raises(InvalidParametersError):
        exact_first_moment(12, 3, -0.5)


def factor_quad_oracle(t):
    # one-coupling contribution E_g[exp(sqrt(t) g - t g^2 / 2)]
    # the integrand is below 1e-190 outside |g| = 30, so a finite window
    # keeps the quadrature error estimate honest
    c = math.sqrt(t)
    val, err = quad(
        lambda g: math.exp(c * g - 0.5 * t * g * g) * math.exp(-0.5 * g * g) / math.sqrt(2 * math.pi),
        -30.0,
        30.0,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    assert err < 1e-10
    return val


def test_exact_first_moment_quad_oracle():
    for N, p, beta in ((10, 3, 0.8), (12, 4, 1.1)):
        b = math.comb(N, p)
        t = beta * beta * N / b
        ln_expected = b * math.log(factor_quad_oracle(t))
        assert math.log(exact_first_moment(N, p, beta)) == pytest.approx(ln_expected, abs=1e-9)


def test_first_moment_expansion_order():
    # (closed form - first-order expansion) / (N^2 a^4) stays bounded in N
    for beta in (0.5, 1.0):
        ratios = []
        for N in (12, 24, 48, 96):
            b = math.comb(N, 3)
            a2 = N / b
            first_order = 1.0 - beta**4 * N * a2 / 4.0
            ratios.append((exact_first_moment(N, 3, beta) - first_order) / (N * N * a2 * a2))
        cap = 2.0 * (beta**8 / 32.0 + beta**6 / 36.0)
        assert all(0.0 < r <= cap for r in ratios)
        assert ratios[-1] <= ratios[0]
        # second-order term matches the expansion helper
        b = math.comb(48, 3)
        a2 = 48.0 / b
        assert first_moment_expansion(48, 3, beta) == pytest.approx(
            1.0 - beta**4 * 48 * a2 / 4.0 + beta**8 * 48**2 * a2 * a2 / 32.0, rel=1e-14
        )


def test_first_moment_full_partition_mc():
    # literal estimator: exact Z_N e^{-N J_N} per replica, 2000 replicas
    N, p, beta, M = 20, 3, 0.5, 2000
    params = ModelParams(N=N, p=p)
    vals = np.empty(M)
    for r in range(M):
        d = sample_disorder(params, derive_seed(90210, r))
        vals[r] = math.exp(log_partition(d, beta) - N * j_term(d, beta))
    se = float(np.std(vals, ddof=1)) / math.sqrt(M)
    assert abs(float(np.mean(vals)) - exact_first_moment(N, p, beta)) <= 3.0 * se


def test_first_moment_conditional_mc():
    N, p, beta, M = 16, 3, 0.4, 3000
    vals = first_moment_mc(N, p, beta, replicas=M, base_seed=77)
    se = float(np.std(vals, ddof=1)) / math.sqrt(M)
    assert abs(float(np.mean(vals)) - exact_first_moment(N, p, beta)) <= 3.0 * se


def test_first_moment_mc_past_the_cosh_overflow():
    # at beta = 300 the mean of cosh(y) overflows while e^{-N J_N} underflows: the
    # product was nan, with an "overflow encountered in cosh" warning; each estimate
    # equals a log-domain oracle over the same 64 states and their flips
    N, p, samples = 8, 3, 64
    params = ModelParams(N=N, p=p)
    for beta in (0.4, 300.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = first_moment_mc(N, p, beta, replicas=2, base_seed=0, sigma_samples=samples)
        for r, value in enumerate(got):
            rep_seed = derive_seed(0, r)
            d = sample_disorder(params, rep_seed)
            states = philox_words(derive_seed(rep_seed, momentlab._SIGMA_TAG), samples)
            x = np.array([gaussian_field(int(s) % (1 << N), d) for s in states])
            y = beta * math.sqrt(N) * x
            log_mean = logsumexp(np.concatenate((y, -y))) - math.log(2 * samples)
            expected = math.exp(log_mean - N * j_term(d, beta))
            assert math.isfinite(value) and value >= 0.0, beta
            assert value == expected == 0.0 or value == pytest.approx(expected, rel=1e-12), beta


def test_first_moment_mc_guards():
    with pytest.raises(InvalidParametersError):
        first_moment_mc(8, 3, 0.5, replicas=0, base_seed=1)
    with pytest.raises(InvalidParametersError):
        first_moment_mc(8, 3, 0.5, replicas=4, base_seed=1, sigma_samples=0)


def test_first_moment_mc_parity_matrix_budget(monkeypatch):
    # 64 states x binom(40, 6) = 3,838,380 couplings at 24 B is about 5.5 GiB: refused
    # before the mask table, which its own budget admits, is built
    def no_table(N, p):
        raise AssertionError("the mask table was built")

    monkeypatch.setattr(momentlab, "mask_table", no_table)
    with pytest.raises(ResourceLimitError):
        first_moment_mc(40, 6, 0.3, replicas=1, base_seed=1)


def test_j_mgf_at_q_zero():
    assert j_mgf(14, 3, 0.9, 0.0) == 1.0


def test_j_mgf_log_form():
    N, p, beta, q = 18, 3, 0.8, 1.7
    b = math.comb(N, p)
    expected = math.exp(-0.5 * b * math.log1p(N * beta * beta * q / b))
    assert j_mgf(N, p, beta, q) == pytest.approx(expected, rel=1e-14)


def test_j_mgf_domain():
    # q beta^2 a^2 = -1.2 lies outside the (-1, inf) domain
    with pytest.raises(InvalidParametersError):
        j_mgf(6, 3, 2.0, -1.0)
    val = j_mgf(6, 3, 2.0, -0.5)    # t = -0.6, inside
    assert val > 1.0


def test_beta_outside_model_rule_refused():
    # the rule of ModelParams, finite and >= 0: NaN gave nan, -0.3 gave estimates
    d = make_disorder(8, 3, 1)
    for beta in (math.nan, math.inf, -0.3):
        calls = (lambda: exact_first_moment(8, 3, beta), lambda: j_mgf(8, 3, beta, 1.0),
                 lambda: first_moment_mc(8, 3, beta, replicas=2, base_seed=1),
                 lambda: j_mgf_mc(8, 3, beta, 1.0, replicas=2, base_seed=1),
                 lambda: log_partition(d, beta))
        for call in calls:
            with pytest.raises(InvalidParametersError, match="finite and >= 0"):
                call()


def test_j_mgf_quad_oracle():
    N, p, beta, q = 12, 3, 0.7, 1.3
    b = math.comb(N, p)
    s = 0.5 * q * beta * beta * N / b
    factor, err = quad(
        lambda g: math.exp(-s * g * g) * math.exp(-0.5 * g * g) / math.sqrt(2 * math.pi),
        -30.0,
        30.0,
        epsabs=1e-13,
    )
    assert err < 1e-10
    assert math.log(j_mgf(N, p, beta, q)) == pytest.approx(b * math.log(factor), abs=1e-9)


def test_j_mgf_mc_example():
    N, p, q, beta, M = 20, 3, 1.0, 0.5, 10_000
    vals = j_mgf_mc(N, p, beta, q, replicas=M, base_seed=1729)
    se = float(np.std(vals, ddof=1)) / math.sqrt(M)
    assert abs(float(np.mean(vals)) - j_mgf(N, p, beta, q)) <= 3.0 * se


def test_pair_moment_first_two_orders():
    for N, p in ((5, 3), (6, 2), (7, 4), (9, 5)):
        one_a, one_b = pair_moment_paths(N, p, 1)
        assert one_a == one_b == 0
        two_a, two_b = pair_moment_paths(N, p, 2)
        assert two_a == two_b == math.comb(N, p)
    assert pair_statistic_moment(5, 3, 2) == 10.0


def test_pair_moment_third_order_paths():
    a, b = pair_moment_paths(6, 3, 3)
    assert a == b
    # odd moment of an odd-p statistic: global flip of sigma' negates it
    assert a == 0
    c, d = pair_moment_paths(6, 2, 3)
    assert c == d
    assert d > 0


def test_pair_moment_fourth_order_paths():
    for N, p in ((7, 3), (8, 2), (10, 3)):
        a, b = pair_moment_paths(N, p, 4)
        assert a == b
        # E[H4^2] >= 0 forces the fourth moment above its paired part
        binom = math.comb(N, p)
        assert a >= 3 * binom * (binom - 1) + binom


def test_pair_moment_guards():
    with pytest.raises(InvalidParametersError):
        pair_moment_paths(8, 3, 5)
    with pytest.raises(InvalidParametersError):
        pair_moment_paths(2, 3, 2)
    with pytest.raises(ResourceLimitError):
        pair_moment_paths(15, 3, 2)
