"""Triangular-structure utilities.

The paper's dataset takes each test matrix's lower-triangular part "plus a
diagonal to avoid singular" (§4.1); :func:`lower_triangular_from`
implements exactly that preparation.  The solvers additionally need to
split the strict part from the diagonal, since the improved recursive
layout of Figure 3 stores the diagonal separately.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NotTriangularError, ShapeMismatchError, SingularMatrixError
from repro.formats.csr import CSRMatrix
from repro.utils.arrays import counts_to_indptr

__all__ = [
    "is_lower_triangular",
    "is_upper_triangular",
    "triangle_orientation",
    "lower_triangular_from",
    "split_strict_and_diag",
    "check_solvable_diagonal",
    "upper_to_lower_mirror",
]


def is_lower_triangular(csr: CSRMatrix) -> bool:
    """True when no stored entry lies above the main diagonal."""
    row_ids = np.repeat(np.arange(csr.n_rows), csr.row_counts())
    return bool(np.all(csr.indices <= row_ids))


def is_upper_triangular(csr: CSRMatrix) -> bool:
    """True when no stored entry lies below the main diagonal."""
    row_ids = np.repeat(np.arange(csr.n_rows), csr.row_counts())
    return bool(np.all(csr.indices >= row_ids))


def triangle_orientation(csr: CSRMatrix) -> str:
    """``"L"``, ``"U"``, or ``"G"`` (general) in one structure pass.

    Equivalent to probing :func:`is_lower_triangular` then
    :func:`is_upper_triangular` — a diagonal-only matrix reports ``"L"``
    — but builds the row-id expansion once instead of once per probe,
    so callers that need the orientation (fingerprinting, the serve
    layer's mirror decision) can compute it a single time per request
    and thread it through.
    """
    row_ids = np.repeat(np.arange(csr.n_rows), csr.row_counts())
    if bool(np.all(csr.indices <= row_ids)):
        return "L"
    if bool(np.all(csr.indices >= row_ids)):
        return "U"
    return "G"


def lower_triangular_from(csr: CSRMatrix, *, unit_fill: float = 1.0) -> CSRMatrix:
    """The paper's test-matrix preparation: keep the lower-triangular part
    and force a full non-zero diagonal.

    Rows whose diagonal entry is missing or exactly zero receive
    ``unit_fill`` on the diagonal, so the returned matrix is always
    non-singular lower-triangular with sorted indices and the diagonal as
    the last entry of every row.
    """
    if csr.n_rows != csr.n_cols:
        raise ShapeMismatchError("triangular extraction needs a square matrix")
    csr = csr.sort_indices()
    n = csr.n_rows
    row_ids = np.repeat(np.arange(n), csr.row_counts())
    keep = csr.indices <= row_ids
    kept_rows = row_ids[keep]
    kept_cols = csr.indices[keep].astype(np.int64)
    kept_vals = csr.data[keep]
    # Locate rows that already have a nonzero diagonal.
    on_diag = kept_cols == kept_rows
    has_diag = np.zeros(n, dtype=bool)
    nonzero_diag_rows = kept_rows[on_diag & (kept_vals != 0)]
    has_diag[nonzero_diag_rows] = True
    # Drop explicit zero diagonals, then append fills for rows lacking one.
    drop = on_diag & (kept_vals == 0)
    kept_rows, kept_cols, kept_vals = (
        kept_rows[~drop],
        kept_cols[~drop],
        kept_vals[~drop],
    )
    missing = np.nonzero(~has_diag)[0]
    rows = np.concatenate([kept_rows, missing])
    cols = np.concatenate([kept_cols, missing])
    vals = np.concatenate(
        [kept_vals, np.full(len(missing), unit_fill, dtype=csr.data.dtype)]
    )
    out = CSRMatrix.from_coo(rows, cols, vals, (n, n))
    return out


def split_strict_and_diag(csr: CSRMatrix) -> tuple[CSRMatrix, np.ndarray]:
    """Split a lower-triangular matrix into its strict part and diagonal.

    Raises :class:`NotTriangularError` for non-triangular input and
    :class:`SingularMatrixError` if any diagonal entry is missing/zero.
    """
    if not is_lower_triangular(csr):
        raise NotTriangularError("matrix has entries above the diagonal")
    csr = csr.sort_indices()
    n = csr.n_rows
    row_ids = np.repeat(np.arange(n), csr.row_counts())
    on_diag = csr.indices == row_ids
    diag = np.zeros(n, dtype=csr.data.dtype)
    diag[row_ids[on_diag]] = csr.data[on_diag]
    check_solvable_diagonal(diag)
    keep = ~on_diag
    counts = np.bincount(row_ids[keep], minlength=n)
    strict = CSRMatrix(
        n,
        n,
        counts_to_indptr(counts),
        csr.indices[keep],
        csr.data[keep].copy(),
    )
    return strict, diag


def check_solvable_diagonal(diag: np.ndarray) -> None:
    """Raise :class:`SingularMatrixError` if the diagonal has a zero."""
    bad = np.nonzero(diag == 0)[0]
    if len(bad):
        raise SingularMatrixError(rows=bad)


def upper_to_lower_mirror(csr: CSRMatrix) -> tuple[CSRMatrix, np.ndarray]:
    """Map an upper-triangular system onto an equivalent lower one.

    ``U x = b`` with the anti-transpose ordering ``perm = [n-1, ..., 0]``
    becomes ``L y = c`` where ``L = P U P`` is lower triangular,
    ``c = P b`` and ``x = P y``.  Returns ``(L, perm)``.
    """
    if not is_upper_triangular(csr):
        raise NotTriangularError("expected an upper-triangular matrix")
    perm = np.arange(csr.n_rows)[::-1].copy()
    return csr.permute_symmetric(perm), perm
