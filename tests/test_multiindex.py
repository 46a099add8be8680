import math
import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pspinlab import (
    DataError,
    Disorder,
    InvalidParametersError,
    ModelParams,
    ResourceLimitError,
    coupling_entry,
    derive_seed,
    enumerate_multi_indices,
    index_to_mask,
    load_disorder,
    mask_table,
    mask_to_index,
    rank,
    sample_disorder,
    save_disorder,
    unrank,
)
from pspinlab import multiindex


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


def test_rank_examples():
    assert rank((1, 2, 3), 6, 3) == 0
    assert rank((1, 3, 4), 4, 3) == 2


def test_rank_matches_enumeration_position():
    for N, p in [(6, 3), (7, 2), (8, 4), (5, 5)]:
        for i, a in enumerate(enumerate_multi_indices(N, p)):
            assert rank(a, N, p) == i
            assert unrank(i, N, p) == a


@given(st.integers(1, 20).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))))
@settings(max_examples=60, deadline=None)
def test_unrank_rank_roundtrip(np_pair):
    N, p = np_pair
    total = math.comb(N, p)
    for r in {0, total - 1, total // 2, total // 3}:
        assert rank(unrank(r, N, p), N, p) == r


def test_rank_rejects_bad_index():
    with pytest.raises(InvalidParametersError):
        rank((2, 2, 3), 6, 3)
    with pytest.raises(InvalidParametersError):
        rank((0, 1, 2), 6, 3)
    with pytest.raises(InvalidParametersError):
        unrank(math.comb(6, 3), 6, 3)


def test_masks_align_with_colex_rank():
    # ascending bitmask order is exactly colex order on p-subsets
    for N, p in [(8, 3), (10, 2), (6, 5)]:
        masks = mask_table(N, p)
        assert np.all(np.diff(masks.astype(np.int64)) > 0)
        for i, a in enumerate(enumerate_multi_indices(N, p)):
            assert int(masks[i]) == index_to_mask(a)
            assert mask_to_index(int(masks[i])) == a


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
    assert sample_disorder(params, 2**64 - 1).seed == 2**64 - 1


def test_disorder_file_roundtrip(tmp_path):
    params = ModelParams(N=10, p=3, beta=0.4)
    d = sample_disorder(params, 5)
    path = tmp_path / "d.pspn"
    save_disorder(d, str(path))
    back = load_disorder(str(path))
    assert back.params.N == 10 and back.params.p == 3
    assert back.seed == 5
    assert np.array_equal(back.couplings, d.couplings)


def test_disorder_seed_outside_64_bits_refused_before_saving(tmp_path):
    # packed as seed & (2^64 - 1), 2^64 + 5 would load back as 5 and -1 as 2^64 - 1
    params = ModelParams(N=6, p=3)
    couplings = sample_disorder(params, 5).couplings
    path = tmp_path / "d.pspn"
    for seed in (2**64 + 5, -1):
        with pytest.raises(InvalidParametersError):
            save_disorder(Disorder(params=params, seed=seed, couplings=couplings), str(path))
    assert not list(tmp_path.iterdir())
    save_disorder(Disorder(params=params, seed=2**64 - 1, couplings=couplings), str(path))
    back = load_disorder(str(path))
    assert back.seed == 2**64 - 1 and np.array_equal(back.couplings, couplings)


def test_disorder_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pspn"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(DataError):
        load_disorder(str(path))
    d = sample_disorder(ModelParams(N=8, p=3), 1)
    good = tmp_path / "good.pspn"
    save_disorder(d, str(good))
    data = good.read_bytes()
    (tmp_path / "trunc.pspn").write_bytes(data[: len(data) - 16])
    with pytest.raises(DataError):
        load_disorder(str(tmp_path / "trunc.pspn"))
    path.write_bytes(b"PSPN1\x01\x02")
    with pytest.raises(DataError):
        load_disorder(str(path))


def test_disorder_file_header_budget_before_payload(tmp_path):
    # a header claiming binom(64, 32) couplings is refused before its payload
    # is read; one byte past a good payload is still trailing data
    path = tmp_path / "huge.pspn"
    path.write_bytes(b"PSPN1" + struct.pack("<QQQ", 64, 32, 0))
    with pytest.raises(ResourceLimitError, match="couplings"):
        load_disorder(str(path))
    save_disorder(sample_disorder(ModelParams(N=8, p=3), 1), str(path))
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(DataError):
        load_disorder(str(path))


def test_disorder_file_written_through_symlink_not_over_fifo(tmp_path):
    # a rename would replace the FIFO with a file and the link with a copy
    d = sample_disorder(ModelParams(N=8, p=3), 1)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    with pytest.raises(OSError, match="not a regular file"):
        save_disorder(d, str(fifo))
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    target, link = tmp_path / "target.pspn", tmp_path / "link.pspn"
    target.write_bytes(b"old")
    os.symlink(target, link)
    save_disorder(d, str(link))
    assert os.path.islink(link)
    assert np.array_equal(load_disorder(str(target)).couplings, d.couplings)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["fifo", "link.pspn", "target.pspn"]


def test_disorder_file_failed_rename_leaves_no_temp(tmp_path):
    # the target is a directory, so the write is refused before any temp file
    d = sample_disorder(ModelParams(N=8, p=3), 1)
    target = tmp_path / "out.pspn"
    target.mkdir()
    with pytest.raises(OSError):
        save_disorder(d, str(target))
    assert [f.name for f in tmp_path.iterdir()] == ["out.pspn"]


def test_disorder_couplings_validated():
    params = ModelParams(N=8, p=3)
    with pytest.raises(DataError):
        Disorder(params=params, seed=0, couplings=np.zeros(3))
    bad = np.zeros(math.comb(8, 3))
    bad[0] = np.nan
    with pytest.raises(DataError):
        Disorder(params=params, seed=0, couplings=bad)
