"""Format conversions implemented from scratch with counting sorts.

The CSR<->CSC conversion is the standard O(nnz) bucket pass — the same
operation a GPU transposition kernel performs — rather than a comparison
sort, so it doubles as the package's sparse-transpose primitive
(Figure 3 transposes square blocks from CSC into CSR for the faster SpMV).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeMismatchError, SparseFormatError
from repro.formats.csr import reject_complex
from repro.utils.arrays import counts_to_indptr

__all__ = ["coo_to_csr_arrays", "csr_to_csc", "csc_to_csr", "csr_transpose"]


def coo_to_csr_arrays(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    shape: tuple[int, int],
    *,
    sum_duplicates: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble CSR arrays from coordinate triplets.

    Entries are sorted by (row, col); duplicates are summed when
    ``sum_duplicates`` is true, otherwise kept (which violates the sorted
    strictly-increasing invariant only within duplicated positions).
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals)
    reject_complex(vals)
    if not (len(rows) == len(cols) == len(vals)):
        raise ShapeMismatchError("COO triplet arrays must have equal length")
    n_rows, n_cols = shape
    if len(rows):
        if rows.min() < 0 or rows.max() >= n_rows:
            raise SparseFormatError("COO row index out of bounds")
        if cols.min() < 0 or cols.max() >= n_cols:
            raise SparseFormatError("COO col index out of bounds")
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if sum_duplicates and len(rows):
        key_changed = np.empty(len(rows), dtype=bool)
        key_changed[0] = True
        key_changed[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        group = np.cumsum(key_changed) - 1
        uniq = np.nonzero(key_changed)[0]
        summed = np.bincount(group, weights=vals.astype(np.float64))
        vals = summed.astype(vals.dtype if vals.dtype.kind == "f" else np.float64)
        rows, cols = rows[uniq], cols[uniq]
    counts = np.bincount(rows, minlength=n_rows)
    return counts_to_indptr(counts), cols.astype(np.int32), np.asarray(vals)


def _compress(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    n_major: int,
    n_minor: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Counting-sort re-bucketing: swap major/minor axes of a compressed
    matrix.  Returns the arrays of the transposed compression."""
    counts = np.bincount(indices, minlength=n_minor)
    out_indptr = counts_to_indptr(counts)
    nnz = len(indices)
    out_indices = np.empty(nnz, dtype=np.int32)
    out_data = np.empty(nnz, dtype=data.dtype)
    # Stable bucket fill: order entries by minor index, keep major order
    # inside each bucket (np.argsort with kind="stable" on the minor key).
    order = np.argsort(indices, kind="stable")
    major_of = np.repeat(np.arange(n_major, dtype=np.int32), np.diff(indptr))
    out_indices[:] = major_of[order]
    out_data[:] = data[order]
    return out_indptr, out_indices, out_data


def csr_to_csc(csr) -> "CSCMatrix":
    """Convert CSR -> CSC (same logical matrix)."""
    from repro.formats.csc import CSCMatrix

    indptr, indices, data = _compress(
        csr.indptr, csr.indices, csr.data, csr.n_rows, csr.n_cols
    )
    return CSCMatrix(csr.n_rows, csr.n_cols, indptr, indices, data, _validated=True)


def csc_to_csr(csc) -> "CSRMatrix":
    """Convert CSC -> CSR (same logical matrix)."""
    from repro.formats.csr import CSRMatrix

    indptr, indices, data = _compress(
        csc.indptr, csc.indices, csc.data, csc.n_cols, csc.n_rows
    )
    return CSRMatrix(csc.n_rows, csc.n_cols, indptr, indices, data, _validated=True)


def csr_transpose(csr) -> "CSRMatrix":
    """Transpose a CSR matrix, result again in CSR."""
    from repro.formats.csr import CSRMatrix

    indptr, indices, data = _compress(
        csr.indptr, csr.indices, csr.data, csr.n_rows, csr.n_cols
    )
    return CSRMatrix(csr.n_cols, csr.n_rows, indptr, indices, data, _validated=True)
