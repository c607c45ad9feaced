"""CSR memoization: equal keys share one matrix, cached arrays are
immutable, and cache hits skip reconstruction."""

import numpy as np
import pytest

from repro.kernels import (build_27pt, build_7pt, build_stencil_csr,
                           clear_csr_cache, csr_cache_info,
                           set_csr_cache_enabled, spmv_rows)
from repro.kernels.spmv import OFFSETS_27, _build_stencil_arrays
from repro.kernels import spmv as spmv_mod


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_csr_cache()
    yield
    clear_csr_cache()


def test_equal_keys_return_equal_matrices():
    a = build_27pt(4, 4, 4, has_lower=True, has_upper=False)
    b = build_27pt(4, 4, 4, has_lower=True, has_upper=False)
    assert a is b  # memoized: the very same object
    fresh = _build_stencil_arrays(4, 4, 4, True, False,
                                  tuple(OFFSETS_27), 27.0, -1.0)
    np.testing.assert_array_equal(a.row_ptr, fresh.row_ptr)
    np.testing.assert_array_equal(a.col, fresh.col)
    np.testing.assert_array_equal(a.val, fresh.val)
    assert (a.n_rows, a.halo_lo, a.halo_hi) == (
        fresh.n_rows, fresh.halo_lo, fresh.halo_hi)


def test_distinct_keys_are_distinct_entries():
    a = build_27pt(4, 4, 4, has_lower=False, has_upper=False)
    b = build_27pt(4, 4, 4, has_lower=True, has_upper=False)
    c = build_7pt(4, 4, 4, has_lower=False, has_upper=False)
    assert a is not b
    assert a.nnz != c.nnz
    assert csr_cache_info()["size"] == 3


def test_cached_arrays_are_read_only():
    m = build_27pt(3, 3, 3, has_lower=False, has_upper=False)
    with pytest.raises(ValueError):
        m.val[0] = 99.0
    with pytest.raises(ValueError):
        m.col[0] = 1
    with pytest.raises(ValueError):
        m.row_ptr[0] = 1


def test_cache_hits_skip_reconstruction():
    before = spmv_mod.build_count
    build_27pt(5, 5, 5, has_lower=False, has_upper=True)
    assert spmv_mod.build_count == before + 1
    for _ in range(10):
        build_27pt(5, 5, 5, has_lower=False, has_upper=True)
    assert spmv_mod.build_count == before + 1  # no further builds
    info = csr_cache_info()
    assert info["hits"] == 10 and info["misses"] == 1


def test_cache_disable_builds_fresh_writable():
    prev = set_csr_cache_enabled(False)
    try:
        a = build_27pt(3, 3, 3, has_lower=False, has_upper=False)
        b = build_27pt(3, 3, 3, has_lower=False, has_upper=False)
        assert a is not b
        a.val[0] = 99.0  # uncached matrices stay writable
    finally:
        set_csr_cache_enabled(prev)


def test_lru_evicts_oldest():
    for i in range(spmv_mod._CSR_CACHE_MAX + 1):
        build_stencil_csr(2, 2, 2, False, False, OFFSETS_27,
                          diag_val=float(i + 1), off_val=-1.0)
    info = csr_cache_info()
    assert info["size"] == spmv_mod._CSR_CACHE_MAX
    # the first entry was evicted: rebuilding it is a miss
    before = spmv_mod.build_count
    build_stencil_csr(2, 2, 2, False, False, OFFSETS_27,
                      diag_val=1.0, off_val=-1.0)
    assert spmv_mod.build_count == before + 1


@pytest.mark.parametrize("shape,lower,upper", [
    ((1, 1, 1), False, False),
    ((4, 4, 4), True, False),
    ((3, 5, 2), False, True),
    ((4, 4, 6), True, True),
])
def test_optimized_builder_matches_seed_reference(shape, lower, upper):
    """Differential test: the restructured (no-stack/no-argsort) builder
    reproduces the seed implementation bit-for-bit."""
    from repro.kernels.spmv import _build_stencil_arrays_reference
    for offsets, diag in ((OFFSETS_27, 27.0), (spmv_mod.OFFSETS_7, 6.0)):
        fast = _build_stencil_arrays(*shape, lower, upper,
                                     tuple(offsets), diag, -1.0)
        ref = _build_stencil_arrays_reference(*shape, lower, upper,
                                              tuple(offsets), diag, -1.0)
        np.testing.assert_array_equal(fast.row_ptr, ref.row_ptr)
        np.testing.assert_array_equal(fast.col, ref.col)
        np.testing.assert_array_equal(fast.val, ref.val)


def test_spmv_rows_matches_seed_reference():
    """Differential test: the block-cached product equals the seed's
    recompute-per-call implementation."""
    from repro.kernels.spmv import _spmv_rows_reference
    m = build_27pt(4, 5, 6, has_lower=True, has_upper=False)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(m.padded_len)
    for lo, hi in ((0, m.n_rows), (3, 17), (100, 101)):
        fast = np.empty(hi - lo)
        ref = np.empty(hi - lo)
        spmv_rows(m, x, lo, hi, fast)
        _spmv_rows_reference(m, x, lo, hi, ref)
        np.testing.assert_array_equal(fast, ref)


def test_row_block_cache_matches_direct_computation():
    m = build_27pt(4, 4, 6, has_lower=True, has_upper=True)
    x = np.arange(m.padded_len, dtype=np.float64)
    lo, hi = 7, 29
    y = np.empty(hi - lo)
    spmv_rows(m, x, lo, hi, y)   # populates the block cache
    spmv_rows(m, x, lo, hi, y)   # exercises the cached path
    # dense reference
    dense = np.zeros((m.n_rows, m.padded_len))
    for r in range(m.n_rows):
        for k in range(int(m.row_ptr[r]), int(m.row_ptr[r + 1])):
            dense[r, m.col[k]] += m.val[k]
    np.testing.assert_allclose(y, dense[lo:hi] @ x)
    assert m.row_nnz(lo, hi) == int(m.row_ptr[hi] - m.row_ptr[lo])


@pytest.mark.parametrize("delta", [-1, 1])
def test_spmv_rows_rejects_wrong_length_x(delta):
    """The gather clips instead of raising, so a vector that is not
    exactly the padded length must be refused up front."""
    m = build_27pt(4, 4, 4, has_lower=True, has_upper=True)
    x = np.ones(m.padded_len + delta)
    with pytest.raises(ValueError, match="padded"):
        spmv_rows(m, x, 0, m.n_rows, np.empty(m.n_rows))


@pytest.mark.parametrize("bad", [-1, 5])
def test_row_block_rejects_out_of_range_columns(bad):
    """Columns are bounds-checked once, when a block is cached."""
    from repro.kernels.spmv import CsrMatrix
    m = CsrMatrix(n_rows=2, halo_lo=1, halo_hi=1,
                  row_ptr=np.array([0, 2, 3], dtype=np.int64),
                  col=np.array([0, 1, bad], dtype=np.int32),
                  val=np.ones(3))
    x = np.ones(m.padded_len)
    spmv_rows(m, x, 0, 1, np.empty(1))           # row 0 is in range
    with pytest.raises(ValueError, match="column indices"):
        spmv_rows(m, x, 0, 2, np.empty(2))
