"""Sparse matrix-vector product on 27-point 3D-grid matrices (HPCCG).

HPCCG builds a symmetric 27-point operator over an ``nx × ny × nz``
local grid, partitioned across ranks along z.  We reproduce the same
structure as a CSR matrix whose column indices point into a *padded*
local vector ``[halo_lo | local | halo_hi]``, so the distributed matvec
is: exchange one xy-plane with each z-neighbour, then a purely local
CSR spmv.

The cost model (≈ 12 bytes per nonzero of matrix streaming + 16 bytes
per row) gives sparsemv the highest compute-per-output-byte of the three
HPCCG kernels, which is why its intra efficiency reaches ≈ 0.94 in
Figure 5a despite a vector-sized output.

Memoization
-----------
Every rank of every mode of every sweep point builds the *same* handful
of stencil matrices (profiling a two-point Figure 5b sweep showed 72
byte-identical rebuilds).  :func:`build_stencil_csr` therefore memoizes
construction behind a small LRU keyed on
``(nx, ny, nz, has_lower, has_upper, offsets, diag_val, off_val)``.
Cached matrices are shared, so their arrays are frozen read-only
(mutation raises) and per-row-block index lookups (`row_block`) are
cached on the matrix itself.  ``clear_csr_cache`` /
``set_csr_cache_enabled`` / ``csr_cache_info`` control and observe the
cache (the perf benchmark uses them to time cold vs warm builds).
"""

from __future__ import annotations

import collections
import dataclasses
import typing as _t

import numpy as np

from . import cachectl


@dataclasses.dataclass
class CsrMatrix:
    """Compressed-sparse-row matrix with halo-padded column indexing.

    ``col`` indexes into a padded vector of length
    ``halo_lo + n_rows + halo_hi``; the local entries occupy
    ``[halo_lo, halo_lo + n_rows)``.

    Instances returned by the memoized builders are shared: their arrays
    are read-only and :meth:`row_block` results are cached per instance.
    """

    n_rows: int
    halo_lo: int
    halo_hi: int
    row_ptr: np.ndarray  # int64, len n_rows + 1
    col: np.ndarray      # int32, len nnz
    val: np.ndarray      # float64, len nnz
    #: per-row-block lookup cache: (lo, hi) -> (start, stop, boundaries,
    #: empty_rows, nnz, col_block, val_block, scratch); see
    #: :meth:`row_block`
    _block_cache: _t.Dict[_t.Tuple[int, int], tuple] = dataclasses.field(
        default_factory=dict, repr=False, compare=False)

    @property
    def nnz(self) -> int:
        return int(self.val.size)

    @property
    def padded_len(self) -> int:
        return self.halo_lo + self.n_rows + self.halo_hi

    def row_block(self, lo: int, hi: int) -> tuple:
        """Cached index data of the row block [lo, hi): a tuple
        ``(start, stop, boundaries, empty_rows, nnz, col_block,
        val_block, scratch)`` where ``start`` / ``stop`` delimit the
        block's nonzeros, ``boundaries`` are the block-relative
        ``reduceat`` offsets, ``empty_rows`` indexes zero-nonzero rows
        (``None`` when there are none — the common case for stencil
        operators), ``col_block`` / ``val_block`` are the contiguous
        indptr-sliced views of the block's column indices and values,
        and ``scratch`` is a reusable float64 buffer of ``nnz`` entries
        (the gather/product temporary of :func:`spmv_rows`).  Caching a
        block checks once that its columns lie in ``[0, padded_len)``
        (raising :class:`ValueError` otherwise), which is what lets
        :func:`spmv_rows` gather without a per-call bounds check.

        The intra runtime evaluates each task's cost several times per
        section (scheduling + roofline charging) and executes the same
        row blocks every iteration, so these lookups are worth caching.
        When kernel caching is disabled (:func:`set_csr_cache_enabled`),
        the lookup is recomputed per call and the slice/scratch entries
        are ``None`` (the reference kernel path does not use them).
        """
        key = (lo, hi)
        blk = self._block_cache.get(key)
        if blk is None:
            row_ptr = self.row_ptr
            start = int(row_ptr[lo])
            stop = int(row_ptr[hi])
            counts = row_ptr[lo + 1:hi + 1] - row_ptr[lo:hi]
            boundaries = np.zeros(hi - lo, dtype=np.intp)
            np.cumsum(counts[:-1], out=boundaries[1:])
            empties = np.flatnonzero(counts == 0)
            if cachectl.enabled():
                col_block = self.col[start:stop]
                if col_block.size and not (
                        0 <= int(col_block.min())
                        and int(col_block.max()) < self.padded_len):
                    raise ValueError(
                        f"rows [{lo}, {hi}) have column indices outside "
                        f"the padded vector [0, {self.padded_len})")
                blk = (start, stop, boundaries,
                       empties if empties.size else None, stop - start,
                       col_block, self.val[start:stop],
                       np.empty(stop - start))
                self._block_cache[key] = blk
            else:
                blk = (start, stop, boundaries,
                       empties if empties.size else None, stop - start,
                       None, None, None)
        return blk

    def row_nnz(self, lo: int, hi: int) -> int:
        """Nonzeros in the row block [lo, hi) (cached)."""
        return self.row_block(lo, hi)[4]


#: the 27 offsets of the 3×3×3 stencil
OFFSETS_27 = [(dx, dy, dz) for dz in (-1, 0, 1) for dy in (-1, 0, 1)
              for dx in (-1, 0, 1)]
#: the 7 offsets of the axis-aligned stencil
OFFSETS_7 = [(0, 0, 0), (-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0),
             (0, 0, -1), (0, 0, 1)]


def _build_stencil_arrays(nx: int, ny: int, nz: int, has_lower: bool,
                          has_upper: bool,
                          offsets: _t.Tuple[_t.Tuple[int, int, int], ...],
                          diag_val: float, off_val: float) -> CsrMatrix:
    """The actual CSR construction (uncached).

    Rows are enumerated directly in canonical order (``idx = x + nx*y +
    nx*ny*z``, x fastest — HPCCG's ordering), so no post-hoc ``argsort``
    permutation is needed, and the per-offset columns are written into
    preallocated ``(n, n_offsets)`` arrays instead of stacked.
    """
    plane = nx * ny
    n = plane * nz
    halo_lo = plane if has_lower else 0
    halo_hi = plane if has_upper else 0

    rows = np.arange(n)
    X = rows % nx
    Y = (rows // nx) % ny
    Z = rows // plane

    n_off = len(offsets)
    cols = np.empty((n, n_off), dtype=np.int64)
    valids = np.empty((n, n_off), dtype=bool)
    vals = np.empty((n, n_off), dtype=np.float64)
    for j, (dx, dy, dz) in enumerate(offsets):
        nxx, nyy, nzz = X + dx, Y + dy, Z + dz
        valid = ((0 <= nxx) & (nxx < nx)
                 & (0 <= nyy) & (nyy < ny))
        # z legs may cross into halo planes
        below = nzz < 0
        above = nzz >= nz
        if not has_lower:
            valid &= ~below
        if not has_upper:
            valid &= ~above
        xy = nxx + nx * nyy
        # padded column index: lower halo | interior | upper halo
        cols[:, j] = np.where(below, xy,
                              np.where(above, halo_lo + n + xy,
                                       halo_lo + xy + plane * nzz))
        valids[:, j] = valid
        diag = (dx == 0) and (dy == 0) and (dz == 0)
        vals[:, j] = diag_val if diag else off_val

    counts = valids.sum(axis=1)
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    flat_cols = cols[valids].astype(np.int32)
    flat_vals = vals[valids]
    return CsrMatrix(n_rows=n, halo_lo=halo_lo, halo_hi=halo_hi,
                     row_ptr=row_ptr, col=flat_cols, val=flat_vals)


def _build_stencil_arrays_reference(
        nx: int, ny: int, nz: int, has_lower: bool, has_upper: bool,
        offsets: _t.Tuple[_t.Tuple[int, int, int], ...],
        diag_val: float, off_val: float) -> CsrMatrix:
    """The seed's CSR construction, kept verbatim as a reference
    implementation: it is the oracle the optimized builder is
    differential-tested against, and the path taken when kernel caching
    is disabled (the perf benchmark's seed-equivalent baseline).

    Enumerates the grid in meshgrid order and sorts rows into canonical
    order afterwards (``np.stack`` + ``argsort`` — the round-trip the
    optimized builder avoids).
    """
    plane = nx * ny
    n = plane * nz
    halo_lo = plane if has_lower else 0
    halo_hi = plane if has_upper else 0

    ix = np.arange(nx)
    iy = np.arange(ny)
    iz = np.arange(nz)
    X, Y, Z = np.meshgrid(ix, iy, iz, indexing="ij")
    X = X.ravel()
    Y = Y.ravel()
    Z = Z.ravel()
    row_of = (X + nx * Y + plane * Z)

    cols_per_offset = []
    valid_per_offset = []
    vals_per_offset = []
    for dx, dy, dz in offsets:
        nxx, nyy, nzz = X + dx, Y + dy, Z + dz
        valid = ((0 <= nxx) & (nxx < nx)
                 & (0 <= nyy) & (nyy < ny))
        below = nzz < 0
        above = nzz >= nz
        if has_lower:
            z_ok = np.ones_like(valid)
        else:
            z_ok = ~below
        if not has_upper:
            z_ok = z_ok & ~above
        valid = valid & z_ok
        col = np.where(
            below, nxx + nx * nyy,
            np.where(above,
                     halo_lo + n + nxx + nx * nyy,
                     halo_lo + nxx + nx * nyy + plane * nzz))
        diag = (dx == 0) and (dy == 0) and (dz == 0)
        vals = np.where(diag, diag_val, off_val)
        cols_per_offset.append(col)
        valid_per_offset.append(valid)
        vals_per_offset.append(np.broadcast_to(vals, col.shape))

    cols = np.stack(cols_per_offset, axis=1)
    valids = np.stack(valid_per_offset, axis=1)
    vals = np.stack(vals_per_offset, axis=1)
    counts = valids.sum(axis=1)
    order = np.argsort(row_of, kind="stable")
    cols = cols[order]
    valids = valids[order]
    vals = vals[order]
    counts = counts[order]

    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    flat_cols = cols[valids].astype(np.int32)
    flat_vals = vals[valids].astype(np.float64)
    return CsrMatrix(n_rows=n, halo_lo=halo_lo, halo_hi=halo_hi,
                     row_ptr=row_ptr, col=flat_cols, val=flat_vals)


# --------------------------------------------------------------- LRU cache
_CSR_CACHE_MAX = 32
_csr_cache: "collections.OrderedDict[tuple, CsrMatrix]" = \
    collections.OrderedDict()
_csr_hits = 0
_csr_misses = 0
#: total number of actual (uncached) constructions, for cache tests
build_count = 0


def set_csr_cache_enabled(enabled: bool) -> bool:
    """Enable/disable kernel-layer caching (CSR memoization, row-block
    lookups, stencil scratch, blas temporaries); returns the previous
    setting."""
    return cachectl.set_enabled(enabled)


def clear_csr_cache() -> None:
    """Drop all memoized matrices and reset hit/miss counters."""
    global _csr_hits, _csr_misses
    _csr_cache.clear()
    _csr_hits = 0
    _csr_misses = 0


def csr_cache_info() -> _t.Dict[str, int]:
    """Cache observability: hits, misses, current size, max size."""
    return {"hits": _csr_hits, "misses": _csr_misses,
            "size": len(_csr_cache), "maxsize": _CSR_CACHE_MAX,
            "builds": build_count}


def build_stencil_csr(nx: int, ny: int, nz: int, has_lower: bool,
                      has_upper: bool,
                      offsets: _t.Sequence[_t.Tuple[int, int, int]],
                      diag_val: float, off_val: float) -> CsrMatrix:
    """Explicit CSR matrix of a constant-coefficient stencil operator
    over the local ``nx·ny·nz`` grid (z-partitioned across ranks).

    ``has_lower`` / ``has_upper`` say whether a z-neighbour rank exists;
    if so, stencil legs crossing the boundary point into the halo planes
    (one xy-plane of ``nx·ny`` entries per side).  Legs leaving the
    global domain in x/y are dropped (Dirichlet-like truncation, as in
    HPCCG's local grid mode).

    Storing the operator *explicitly* — values and column indices —
    matters for the reproduction: it is the matrix streaming traffic
    that gives CSR spmv its high compute-per-output-byte ratio (§V-C),
    both in HPCCG and in AMG2013 (an *algebraic* multigrid, which keeps
    CSR matrices at every level).

    Construction is memoized (see module docstring); the returned matrix
    may be shared with other callers and its arrays are read-only.
    """
    global _csr_hits, _csr_misses, build_count
    if min(nx, ny, nz) < 1:
        raise ValueError("grid dimensions must be positive")
    key_offsets = tuple((int(dx), int(dy), int(dz))
                        for dx, dy, dz in offsets)
    if not cachectl.enabled():
        # uncached mode is the seed-equivalent reference configuration
        build_count += 1
        return _build_stencil_arrays_reference(
            nx, ny, nz, bool(has_lower), bool(has_upper), key_offsets,
            float(diag_val), float(off_val))
    key = (nx, ny, nz, bool(has_lower), bool(has_upper), key_offsets,
           float(diag_val), float(off_val))
    matrix = _csr_cache.get(key)
    if matrix is not None:
        _csr_hits += 1
        _csr_cache.move_to_end(key)
        return matrix
    _csr_misses += 1
    build_count += 1
    matrix = _build_stencil_arrays(nx, ny, nz, bool(has_lower),
                                   bool(has_upper), key_offsets,
                                   float(diag_val), float(off_val))
    # shared instances must be immutable
    matrix.row_ptr.flags.writeable = False
    matrix.col.flags.writeable = False
    matrix.val.flags.writeable = False
    _csr_cache[key] = matrix
    if len(_csr_cache) > _CSR_CACHE_MAX:
        _csr_cache.popitem(last=False)
    return matrix


def build_27pt(nx: int, ny: int, nz: int, has_lower: bool,
               has_upper: bool) -> CsrMatrix:
    """The HPCCG operator: 27 on the diagonal, −1 on every neighbour
    within the 3×3×3 stencil (also AMG2013's 27-point Laplace problem)."""
    return build_stencil_csr(nx, ny, nz, has_lower, has_upper,
                             OFFSETS_27, diag_val=27.0, off_val=-1.0)


def build_7pt(nx: int, ny: int, nz: int, has_lower: bool,
              has_upper: bool) -> CsrMatrix:
    """The 7-point Laplace operator of AMG2013's GMRES problem: 6 on the
    diagonal, −1 on the six axis neighbours."""
    return build_stencil_csr(nx, ny, nz, has_lower, has_upper,
                             OFFSETS_7, diag_val=6.0, off_val=-1.0)


def _spmv_rows_reference(matrix: CsrMatrix, x_padded: np.ndarray, lo: int,
                         hi: int, y_block: np.ndarray) -> None:
    """The seed's row-block product, kept verbatim: the differential
    oracle for :func:`spmv_rows` and the path taken when kernel caching
    is disabled (all boundary indices recomputed per call)."""
    start = int(matrix.row_ptr[lo])
    stop = int(matrix.row_ptr[hi])
    prod = matrix.val[start:stop] * x_padded[matrix.col[start:stop]]
    counts = (matrix.row_ptr[lo + 1:hi + 1]
              - matrix.row_ptr[lo:hi]).astype(np.int64)
    boundaries = np.concatenate(
        ([0], np.cumsum(counts)[:-1])).astype(np.int64)
    if prod.size:
        sums = np.add.reduceat(prod, boundaries)
        sums[counts == 0] = 0.0
    else:
        sums = np.zeros(hi - lo)
    np.copyto(y_block, sums)


def spmv_rows(matrix: CsrMatrix, x_padded: np.ndarray, lo: int, hi: int,
              y_block: np.ndarray) -> None:
    """``y[lo:hi] = A[lo:hi, :] @ x_padded`` — one intra-parallel task.

    Vectorised CSR row-block product over the matrix's precomputed block
    slices (no Python-level row loop, no per-call temporaries): the
    gather runs through ``take`` into the block's reusable scratch
    buffer, the product is formed in place, and the segmented sum
    (``np.add.reduceat`` on the cached row boundaries) reduces straight
    into ``y_block``.  The arithmetic — gather, multiply, left-to-right
    segmented sum — is operation-for-operation the reference kernel's,
    so results are bit-identical to :func:`_spmv_rows_reference`
    (``tests/kernels/test_csr_cache.py`` asserts exact equality).

    ``x_padded`` and ``y_block`` must be float64 (all kernel call sites
    are); ``y_block`` must be a contiguous view of ``hi - lo`` entries.
    ``x_padded`` must hold exactly ``matrix.padded_len`` entries
    (:class:`ValueError` otherwise).  The gather uses ``mode="clip"``,
    which writes straight into the scratch buffer (the default
    ``mode="raise"`` buffers its output on every call); no index is
    ever clipped, because :meth:`CsrMatrix.row_block` verified the
    block's columns against ``padded_len`` when it cached them.
    """
    if not cachectl.enabled():
        _spmv_rows_reference(matrix, x_padded, lo, hi, y_block)
        return
    if x_padded.shape[0] != matrix.padded_len:
        raise ValueError(
            f"x_padded has {x_padded.shape[0]} entries, the matrix's "
            f"padded vector {matrix.padded_len}")
    (start, stop, boundaries, empty_rows, _nnz,
     col_block, val_block, scratch) = matrix.row_block(lo, hi)
    if stop > start:
        x_padded.take(col_block, out=scratch, mode="clip")
        np.multiply(scratch, val_block, out=scratch)
        np.add.reduceat(scratch, boundaries, out=y_block)
        if empty_rows is not None:
            y_block[empty_rows] = 0.0
    else:
        y_block.fill(0.0)


def spmv_cost(matrix: CsrMatrix, lo: int, hi: int) -> _t.Tuple[float, float]:
    """Roofline cost of the row block [lo, hi): 2 flops per nonzero;
    12 bytes per nonzero (value + column index) plus 16 bytes per row
    (row pointer + y write); x gathers are assumed cache-resident for
    the banded 27-point structure."""
    nnz = matrix.row_nnz(lo, hi)
    rows = hi - lo
    return (2.0 * nnz, 12.0 * nnz + 16.0 * rows)


def make_spmv_task(matrix: CsrMatrix):
    """Bind a matrix into an intra-task function + cost pair.

    The returned function has signature ``(x_padded, lo_arr, y_block)``
    with tags ``[IN, IN, OUT]``; ``lo_arr`` is a 2-int array holding
    ``(lo, hi)`` (kept as an array so the launch API stays uniform).
    """
    def fn(x_padded: np.ndarray, bounds: np.ndarray,
           y_block: np.ndarray) -> None:
        spmv_rows(matrix, x_padded, int(bounds[0]), int(bounds[1]),
                  y_block)

    def cost(x_padded: np.ndarray, bounds: np.ndarray,
             y_block: np.ndarray) -> _t.Tuple[float, float]:
        return spmv_cost(matrix, int(bounds[0]), int(bounds[1]))

    return fn, cost
