"""Compressed Sparse Row container.

The canonical storage of Algorithm 1 in the paper: ``row_ptr`` /
``col_idx`` / ``val``.  For a lower-triangular matrix with sorted column
indices the diagonal entry is the *last* entry of each row
(``val[row_ptr[i+1]-1]``), which is exactly how the paper's serial kernel
addresses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ShapeMismatchError, SparseFormatError, ValidationError
from repro.utils.arrays import counts_to_indptr, gather_row_ranges, segment_sums

__all__ = ["CSRMatrix", "reject_complex"]

INDEX_DTYPE = np.int32
INDPTR_DTYPE = np.int64


def reject_complex(values: np.ndarray) -> None:
    """Refuse complex matrix values: a cast to the real work dtype would
    drop the imaginary part and return a wrong solution."""
    if values.dtype.kind == "c":
        raise ValidationError(
            f"complex matrix values ({values.dtype}) are not supported",
            kind="dtype",
        )


@dataclass
class CSRMatrix:
    """A sparse matrix in CSR format.

    Parameters
    ----------
    n_rows, n_cols:
        Matrix shape.
    indptr:
        ``int64`` array of length ``n_rows + 1``; row ``i`` owns entries
        ``indptr[i]:indptr[i+1]``.
    indices:
        ``int32`` column indices, sorted ascending within each row.
    data:
        Floating-point values, same length as ``indices``.
    """

    n_rows: int
    n_cols: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    _validated: bool = field(default=False, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        self.indptr = np.ascontiguousarray(self.indptr, dtype=INDPTR_DTYPE)
        self.indices = np.ascontiguousarray(self.indices, dtype=INDEX_DTYPE)
        reject_complex(self.data)
        if self.data.dtype.kind != "f":
            self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        else:
            self.data = np.ascontiguousarray(self.data)
        if not self._validated:
            self.validate()
            self._validated = True

    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: tuple[int, int],
        *,
        sum_duplicates: bool = True,
    ) -> "CSRMatrix":
        """Build from coordinate triplets (duplicates summed by default)."""
        from repro.formats.convert import coo_to_csr_arrays

        indptr, indices, data = coo_to_csr_arrays(
            rows, cols, vals, shape, sum_duplicates=sum_duplicates
        )
        return cls(shape[0], shape[1], indptr, indices, data)

    @classmethod
    def from_dense(cls, dense: np.ndarray, *, tol: float = 0.0) -> "CSRMatrix":
        """Build from a dense 2D array, keeping entries with ``|a| > tol``."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ShapeMismatchError("from_dense expects a 2D array")
        mask = np.abs(dense) > tol
        rows, cols = np.nonzero(mask)
        return cls.from_coo(rows, cols, dense[rows, cols], dense.shape)

    @classmethod
    def empty(cls, n_rows: int, n_cols: int, dtype=np.float64) -> "CSRMatrix":
        """An all-zero matrix with no stored entries."""
        return cls(
            n_rows,
            n_cols,
            np.zeros(n_rows + 1, dtype=INDPTR_DTYPE),
            np.empty(0, dtype=INDEX_DTYPE),
            np.empty(0, dtype=dtype),
        )

    @classmethod
    def identity(cls, n: int, dtype=np.float64) -> "CSRMatrix":
        """The ``n``-by-``n`` identity."""
        return cls(
            n,
            n,
            np.arange(n + 1, dtype=INDPTR_DTYPE),
            np.arange(n, dtype=INDEX_DTYPE),
            np.ones(n, dtype=dtype),
        )

    # ------------------------------------------------------------------ #
    # Invariants
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Raise :class:`SparseFormatError` if structural invariants fail."""
        if self.n_rows < 0 or self.n_cols < 0:
            raise SparseFormatError("negative dimension")
        if self.indptr.shape != (self.n_rows + 1,):
            raise SparseFormatError(
                f"indptr has length {len(self.indptr)}, expected {self.n_rows + 1}"
            )
        if self.n_rows and self.indptr[0] != 0:
            raise SparseFormatError("indptr[0] must be 0")
        if len(self.indptr) and self.indptr[-1] != len(self.indices):
            raise SparseFormatError("indptr[-1] must equal nnz")
        if len(self.indices) != len(self.data):
            raise SparseFormatError("indices and data length mismatch")
        if np.any(np.diff(self.indptr) < 0):
            raise SparseFormatError("indptr must be non-decreasing")
        if len(self.indices):
            if self.indices.min() < 0 or self.indices.max() >= self.n_cols:
                raise SparseFormatError("column index out of bounds")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return int(len(self.indices))

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def row_counts(self) -> np.ndarray:
        """Number of stored entries in each row."""
        return np.diff(self.indptr)

    def has_sorted_indices(self) -> bool:
        """True when column indices are strictly increasing within rows."""
        if self.nnz <= 1:
            return True
        d = np.diff(self.indices)
        # Positions where a new row starts are allowed to decrease.
        row_starts = self.indptr[1:-1]
        ok = d > 0
        boundary = np.zeros(len(d), dtype=bool)
        valid = (row_starts >= 1) & (row_starts <= len(d))
        boundary[row_starts[valid] - 1] = True
        return bool(np.all(ok | boundary))

    def sort_indices(self) -> "CSRMatrix":
        """Return an equivalent matrix with sorted column indices per row."""
        if self.has_sorted_indices():
            return self
        order = np.lexsort(
            (self.indices, np.repeat(np.arange(self.n_rows), self.row_counts()))
        )
        return CSRMatrix(
            self.n_rows,
            self.n_cols,
            self.indptr.copy(),
            self.indices[order],
            self.data[order],
        )

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        row_ids = np.repeat(np.arange(self.n_rows), self.row_counts())
        np.add.at(out, (row_ids, self.indices), self.data)
        return out

    def to_csc(self):
        from repro.formats.convert import csr_to_csc

        return csr_to_csc(self)

    def transpose(self) -> "CSRMatrix":
        from repro.formats.convert import csr_transpose

        return csr_transpose(self)

    def to_dcsr(self):
        from repro.formats.dcsr import DCSRMatrix

        return DCSRMatrix.from_csr(self)

    def astype(self, dtype) -> "CSRMatrix":
        """Independent copy with values cast to ``dtype`` (index arrays
        copied too, so mutating the result never touches this matrix)."""
        return CSRMatrix(
            self.n_rows,
            self.n_cols,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.astype(dtype, copy=True),
            _validated=True,
        )

    def copy(self) -> "CSRMatrix":
        return CSRMatrix(
            self.n_rows,
            self.n_cols,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
        )

    # ------------------------------------------------------------------ #
    # Numerics
    # ------------------------------------------------------------------ #
    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``y = A @ x`` via a segmented sum (no SciPy).

        ``x`` may also be an ``(n_cols, k)`` block; each column is summed
        exactly as the 1-D product of that column.
        """
        x = np.asarray(x)
        if x.shape[0] != self.n_cols:
            raise ShapeMismatchError(
                f"matvec: matrix has {self.n_cols} cols, x has {x.shape[0]}"
            )
        data = self.data if x.ndim == 1 else self.data[:, None]
        y = segment_sums(data * x[self.indices], self.indptr)
        if out is not None:
            out[:] = y
            return out
        return y

    def matmat(self, X: np.ndarray) -> np.ndarray:
        """``Y = A @ X`` for a dense block of vectors (multi-RHS path)."""
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[0] != self.n_cols:
            raise ShapeMismatchError(
                f"matmat: matrix has {self.n_cols} cols, X is {X.shape}"
            )
        return self.matvec(X)

    def diagonal(self) -> np.ndarray:
        """Stored main-diagonal values (0 where absent)."""
        diag = np.zeros(min(self.n_rows, self.n_cols), dtype=self.data.dtype)
        row_ids = np.repeat(np.arange(self.n_rows), self.row_counts())
        on_diag = self.indices == row_ids
        diag_rows = row_ids[on_diag]
        in_range = diag_rows < len(diag)
        diag[diag_rows[in_range]] = self.data[on_diag][in_range]
        return diag

    # ------------------------------------------------------------------ #
    # Structure manipulation
    # ------------------------------------------------------------------ #
    def extract_block(self, r0: int, r1: int, c0: int, c1: int) -> "CSRMatrix":
        """Sub-matrix ``A[r0:r1, c0:c1]`` as a new CSR matrix."""
        if not (0 <= r0 <= r1 <= self.n_rows and 0 <= c0 <= c1 <= self.n_cols):
            raise ShapeMismatchError("block bounds out of range")
        flat, _ = gather_row_ranges(self.indptr, np.arange(r0, r1))
        cols = self.indices[flat]
        keep = (cols >= c0) & (cols < c1)
        flat = flat[keep]
        # Rebuild per-row counts for kept entries.
        row_of_flat = np.searchsorted(self.indptr, flat, side="right") - 1
        counts = np.bincount(row_of_flat - r0, minlength=r1 - r0)
        return CSRMatrix(
            r1 - r0,
            c1 - c0,
            counts_to_indptr(counts),
            (self.indices[flat] - c0).astype(INDEX_DTYPE),
            self.data[flat].copy(),
        )

    def permute_symmetric(self, perm: np.ndarray) -> "CSRMatrix":
        """Return ``P A P^T`` where ``perm[k]`` is the *old* index placed at
        new position ``k`` (i.e. new row k is old row ``perm[k]``)."""
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (self.n_rows,) or self.n_rows != self.n_cols:
            raise ShapeMismatchError("symmetric permutation needs a square matrix")
        inv = np.empty_like(perm)
        inv[perm] = np.arange(self.n_rows)
        flat, seg_ptr = gather_row_ranges(self.indptr, perm)
        counts = np.diff(seg_ptr)
        new_indices = inv[self.indices[flat]].astype(INDEX_DTYPE)
        new_data = self.data[flat].copy()
        out = CSRMatrix(
            self.n_rows,
            self.n_cols,
            counts_to_indptr(counts),
            new_indices,
            new_data,
        )
        return out.sort_indices()

    def scale_rows(self, scale: np.ndarray) -> "CSRMatrix":
        """Return ``diag(scale) @ A``."""
        scale = np.asarray(scale)
        if scale.shape != (self.n_rows,):
            raise ShapeMismatchError("scale vector length mismatch")
        return CSRMatrix(
            self.n_rows,
            self.n_cols,
            self.indptr,
            self.indices,
            self.data * np.repeat(scale, self.row_counts()),
        )

    def row_slice(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(column indices, values) of row ``i`` as views."""
        s, e = self.indptr[i], self.indptr[i + 1]
        return self.indices[s:e], self.data[s:e]

    def allclose(self, other: "CSRMatrix", rtol: float = 1e-10, atol: float = 1e-12) -> bool:
        """Numeric equality test that tolerates different sparsity patterns."""
        if self.shape != other.shape:
            return False
        return bool(np.allclose(self.to_dense(), other.to_dense(), rtol=rtol, atol=atol))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, dtype={self.data.dtype})"
        )
