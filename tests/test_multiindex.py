import math
import tracemalloc

import numpy as np
import pytest

from pspinlab import (
    DataError,
    Disorder,
    ExperimentConfig,
    InvalidParametersError,
    ModelParams,
    derive_seed,
    mask_table,
    run_experiment,
    sample_disorder,
)
from pspinlab import multiindex
from pspinlab.multiindex import check_seed

from _oracles import coupling_entry, enumerate_multi_indices, index_to_mask


def test_enumerate_examples():
    assert list(enumerate_multi_indices(3, 3)) == [(1, 2, 3)]
    assert list(enumerate_multi_indices(4, 3)) == [
        (1, 2, 3),
        (1, 2, 4),
        (1, 3, 4),
        (2, 3, 4),
    ]
    assert len(list(enumerate_multi_indices(5, 2))) == 10


def test_enumerate_count_and_colex_order():
    # colex comparison == lexicographic comparison of reversed tuples
    for N in range(1, 13):
        for p in range(1, N + 1):
            seq = list(enumerate_multi_indices(N, p))
            assert len(seq) == math.comb(N, p)
            rev = [tuple(reversed(a)) for a in seq]
            assert rev == sorted(rev)
            assert len(set(seq)) == len(seq)


def test_masks_align_with_colex_rank():
    # ascending bitmask order is exactly colex order on p-subsets
    for N, p in [(8, 3), (10, 2), (6, 5)]:
        masks = mask_table(N, p)
        assert np.all(np.diff(masks.astype(np.int64)) > 0)
        for i, a in enumerate(enumerate_multi_indices(N, p)):
            assert int(masks[i]) == index_to_mask(a)


def test_mask_table_matches_tuple_oracle():
    # p = 0 is no index set; both routes refuse it
    for N in (1, 5, 12):
        for call in (mask_table, enumerate_multi_indices):
            with pytest.raises(InvalidParametersError):
                call(N, 0)
    grid = [(N, p) for N in range(1, 9) for p in range(1, N + 1)]
    for N, p in grid + [(12, 4), (20, 3), (20, 8), (20, 20), (64, 1), (64, 2)]:
        oracle = np.array(
            [index_to_mask(a) for a in enumerate_multi_indices(N, p)], dtype=np.uint64
        )
        table = mask_table(N, p)
        assert table.dtype == np.uint64 and not table.flags.writeable
        assert np.array_equal(table, oracle), (N, p)


def test_mask_table_build_memory_bounded():
    # the table itself is 8 B per coupling; its build stays within a few rows
    n = math.comb(22, 6)
    multiindex._mask_table_cached.cache_clear()
    tracemalloc.start()
    try:
        mask_table(22, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        multiindex._mask_table_cached.cache_clear()
    assert peak < 48 * n


def test_mask_table_cache_memory_bounded():
    # the cache keeps the last two tables, not every table ever built
    shapes = [(N, 4) for N in range(52, 58)]
    largest = 8 * max(math.comb(N, p) for N, p in shapes)
    multiindex._mask_table_cached.cache_clear()
    tracemalloc.start()
    try:
        for N, p in shapes:
            mask_table(N, p)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        multiindex._mask_table_cached.cache_clear()
    assert retained < 3 * largest


def test_model_params_validation():
    with pytest.raises(InvalidParametersError):
        ModelParams(N=4, p=1)
    with pytest.raises(InvalidParametersError):
        ModelParams(N=2, p=3)
    with pytest.raises(InvalidParametersError):
        ModelParams(N=65, p=3)
    with pytest.raises(InvalidParametersError):
        ModelParams(N=8, p=3, beta=-0.1)
    params = ModelParams(N=10, p=3)
    assert params.n_couplings == 120
    assert params.a_n == pytest.approx(math.sqrt(10 / 120))


def test_sample_disorder_deterministic():
    params = ModelParams(N=12, p=3)
    a = sample_disorder(params, 42)
    b = sample_disorder(params, 42)
    c = sample_disorder(params, 43)
    assert np.array_equal(a.couplings, b.couplings)
    assert not np.array_equal(a.couplings, c.couplings)
    assert sample_disorder(ModelParams(N=3, p=3), 0).couplings.shape == (1,)


def test_coupling_entry_matches_bulk_stream():
    params = ModelParams(N=12, p=4)
    d = sample_disorder(params, 99)
    for r in [0, 1, 2, 3, 4, 5, 250, 494]:
        assert coupling_entry(params, 99, r) == d.couplings[r]


def test_pooled_entries_standard_normal():
    # 25 replicas of binom(64,3) couplings pool a little over 10^6 draws
    params = ModelParams(N=64, p=3)
    pool = np.concatenate(
        [sample_disorder(params, seed).couplings for seed in range(25)]
    )
    assert pool.size >= 10**6
    assert abs(pool.mean()) < 4e-3
    assert abs(pool.var() - 1.0) < 0.01


def test_derive_seed_mixes():
    seen = {derive_seed(0, i) for i in range(1000)}
    assert len(seen) == 1000
    assert derive_seed(7, 1) != derive_seed(1, 7)


def test_seed_outside_64_bits_refused():
    # masking would make 2^64 + 5 the stream of 5 and -1 that of 2^64 - 1
    params = ModelParams(N=6, p=3)
    for seed in (-1, 2**64, 2**64 + 5):
        with pytest.raises(InvalidParametersError):
            derive_seed(seed, 0)
        with pytest.raises(InvalidParametersError):
            sample_disorder(params, seed)
        with pytest.raises(InvalidParametersError):
            coupling_entry(params, seed, 0)
    with pytest.raises(InvalidParametersError):
        Disorder(params=params, seed=2**64 + 5, couplings=sample_disorder(params, 5).couplings)
    # True is an int, and would run as seed 1
    with pytest.raises(InvalidParametersError):
        check_seed(True)
    with pytest.raises(InvalidParametersError):
        sample_disorder(params, True)
    with pytest.raises(InvalidParametersError):
        run_experiment(ExperimentConfig(params=ModelParams(N=6, p=3, beta=0.3), replicas=2,
                                        base_seed=True, mode="jterm_clt"))
    assert sample_disorder(params, 2**64 - 1).seed == 2**64 - 1


def test_disorder_seed_outside_64_bits_refused_before_saving():
    # a Disorder carrying 2^64 + 5 or -1 is refused when built, so none can reach a file or report
    params = ModelParams(N=6, p=3)
    couplings = sample_disorder(params, 5).couplings
    for seed in (2**64 + 5, -1):
        with pytest.raises(InvalidParametersError):
            Disorder(params=params, seed=seed, couplings=couplings)
    kept = Disorder(params=params, seed=2**64 - 1, couplings=couplings)
    assert kept.seed == 2**64 - 1 and np.array_equal(kept.couplings, couplings)


def test_disorder_couplings_validated():
    params = ModelParams(N=8, p=3)
    with pytest.raises(DataError):
        Disorder(params=params, seed=0, couplings=np.zeros(3))
    bad = np.zeros(math.comb(8, 3))
    bad[0] = np.nan
    with pytest.raises(DataError):
        Disorder(params=params, seed=0, couplings=bad)
