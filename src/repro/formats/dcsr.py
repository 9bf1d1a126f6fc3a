"""Doubly-compressed sparse row (DCSR).

Section 3.3 of the paper: when a square block of the recursive layout is
hypersparse — "a large portion of rows are probably empty" — the CSR row
pointer is compressed to cover only the non-empty rows, with an extra array
recording their actual row indices (in the spirit of Buluç & Gilbert's
DCSC).  The scalar-DCSR / vector-DCSR SpMV kernels then skip empty rows
entirely instead of reading a pointer pair for each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ShapeMismatchError, SparseFormatError
from repro.utils.arrays import segment_sums

__all__ = ["DCSRMatrix"]


@dataclass
class DCSRMatrix:
    """A sparse matrix storing only its non-empty rows.

    Parameters
    ----------
    n_rows, n_cols:
        Logical matrix shape.
    row_ids:
        Sorted indices of the non-empty rows, length ``n_active``.
    indptr:
        Compressed row pointer of length ``n_active + 1``.
    indices, data:
        Column indices / values exactly as in CSR.
    """

    n_rows: int
    n_cols: int
    row_ids: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    _validated: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.row_ids = np.ascontiguousarray(self.row_ids, dtype=np.int32)
        self.indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int32)
        if self.data.dtype.kind != "f":
            self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if not self._validated:
            self.validate()
            self._validated = True

    @classmethod
    def from_csr(cls, csr) -> "DCSRMatrix":
        """Compress a CSR matrix by dropping its empty rows."""
        counts = csr.row_counts()
        active = np.nonzero(counts > 0)[0]
        indptr = np.zeros(len(active) + 1, dtype=np.int64)
        np.cumsum(counts[active], out=indptr[1:])
        return cls(
            csr.n_rows,
            csr.n_cols,
            active.astype(np.int32),
            indptr,
            csr.indices.copy(),
            csr.data.copy(),
        )

    def to_csr(self):
        """Expand back to plain CSR (empty rows restored)."""
        from repro.formats.csr import CSRMatrix
        from repro.utils.arrays import counts_to_indptr

        counts = np.zeros(self.n_rows, dtype=np.int64)
        counts[self.row_ids] = np.diff(self.indptr)
        return CSRMatrix(
            self.n_rows,
            self.n_cols,
            counts_to_indptr(counts),
            self.indices.copy(),
            self.data.copy(),
        )

    def validate(self) -> None:
        if len(self.indptr) != len(self.row_ids) + 1:
            raise SparseFormatError("DCSR indptr must have len(row_ids)+1 entries")
        if len(self.row_ids):
            if np.any(np.diff(self.row_ids) <= 0):
                raise SparseFormatError("DCSR row_ids must be strictly increasing")
            if self.row_ids.min() < 0 or self.row_ids.max() >= self.n_rows:
                raise SparseFormatError("DCSR row id out of bounds")
            if np.any(np.diff(self.indptr) <= 0):
                raise SparseFormatError("DCSR must not store empty rows")
        if len(self.indptr) and self.indptr[-1] != len(self.indices):
            raise SparseFormatError("DCSR indptr[-1] must equal nnz")
        if len(self.indices):
            if self.indices.min() < 0 or self.indices.max() >= self.n_cols:
                raise SparseFormatError("DCSR column index out of bounds")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return int(len(self.indices))

    @property
    def n_active_rows(self) -> int:
        return int(len(self.row_ids))

    @property
    def empty_ratio(self) -> float:
        """Fraction of rows with no stored entry — the paper's emptyratio."""
        if self.n_rows == 0:
            return 0.0
        return 1.0 - self.n_active_rows / self.n_rows

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``y = A @ x``; only active rows produce output.

        ``x`` may also be an ``(n_cols, k)`` block; each column is summed
        exactly as the 1-D product of that column.  ``out``, when given,
        is *overwritten* (zeroed first, then the active rows are
        written) — the same semantics as allocating a fresh result.  It
        must have the result's shape; callers that want accumulation
        must add the result themselves.
        """
        x = np.asarray(x)
        if x.shape[0] != self.n_cols:
            raise ShapeMismatchError("matvec length mismatch")
        shape = (self.n_rows,) + x.shape[1:]
        if out is not None and out.shape != shape:
            raise ShapeMismatchError(
                f"out has shape {out.shape}, expected {shape}"
            )
        data = self.data if x.ndim == 1 else self.data[:, None]
        active_sums = segment_sums(data * x[self.indices], self.indptr)
        y = out if out is not None else np.zeros(
            shape, dtype=np.result_type(self.data, x)
        )
        if out is not None:
            y[:] = 0
        y[self.row_ids] = active_sums
        return y

    def matmat(self, X: np.ndarray) -> np.ndarray:
        """``Y = A @ X`` for a dense block of vectors (multi-RHS path)."""
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[0] != self.n_cols:
            raise ShapeMismatchError("matmat shape mismatch")
        return self.matvec(X)

    def to_dense(self) -> np.ndarray:
        return self.to_csr().to_dense()

    def astype(self, dtype) -> "DCSRMatrix":
        """Independent copy with values cast to ``dtype``.

        The index arrays are copied too: ``ascontiguousarray`` with an
        unchanged dtype is a no-op, so passing them through uncopied
        would alias the converted matrix to this one — mutating one
        would corrupt the other.
        """
        return DCSRMatrix(
            self.n_rows,
            self.n_cols,
            self.row_ids.copy(),
            self.indptr.copy(),
            self.indices.copy(),
            self.data.astype(dtype, copy=True),
            _validated=True,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DCSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"active_rows={self.n_active_rows}, empty_ratio={self.empty_ratio:.2f})"
        )
