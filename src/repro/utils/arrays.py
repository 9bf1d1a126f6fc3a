"""Vectorized segmented-array primitives.

These helpers are the workhorses behind every kernel in the package: a
"solve this set of independent rows at once" operation reduces to gathering
the flat CSR/CSC entry ranges of those rows and computing per-row
(segmented) sums.  Everything here is pure NumPy with no Python-level loops,
following the vectorization guidance of the scientific-python optimization
notes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "counts_to_indptr",
    "indptr_to_counts",
    "gather_row_ranges",
    "segment_ids",
    "segment_sums",
    "bincount_sums",
]


def counts_to_indptr(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum turning per-row counts into a CSR ``indptr``.

    >>> counts_to_indptr(np.array([2, 0, 3]))
    array([0, 2, 2, 5])
    """
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def indptr_to_counts(indptr: np.ndarray) -> np.ndarray:
    """Per-row entry counts from a CSR ``indptr``."""
    return np.diff(indptr)


def gather_row_ranges(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of all entries belonging to ``rows``.

    Returns ``(flat, seg_ptr)`` where ``flat`` indexes the parent
    ``indices``/``data`` arrays and ``seg_ptr`` is an indptr over the
    gathered segments (``seg_ptr[k]:seg_ptr[k+1]`` is the range of
    ``rows[k]`` inside ``flat``).  Empty rows are handled.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    seg_ptr = counts_to_indptr(counts)
    total = int(seg_ptr[-1])
    if total == 0:
        return np.empty(0, dtype=np.int64), seg_ptr
    # flat[j] = starts[k] + (j - seg_ptr[k]) for j in segment k
    flat = np.arange(total, dtype=np.int64)
    flat += np.repeat(starts - seg_ptr[:-1], counts)
    return flat, seg_ptr


def segment_ids(seg_ptr: np.ndarray) -> np.ndarray:
    """Segment index of every flat position described by ``seg_ptr``.

    >>> segment_ids(np.array([0, 2, 2, 5]))
    array([0, 0, 2, 2, 2])
    """
    counts = np.diff(seg_ptr)
    return np.repeat(np.arange(len(counts), dtype=np.int64), counts)


def segment_sums(values: np.ndarray, seg_ptr: np.ndarray) -> np.ndarray:
    """Per-segment sums; robust to empty segments (returns 0 for them).

    ``values`` may be 1-D or ``(nnz, k)``; a 2-D block sums each column
    exactly as :func:`bincount_sums` does.
    """
    nseg = len(seg_ptr) - 1
    if len(values) == 0:
        return np.zeros(
            (nseg,) + values.shape[1:],
            dtype=values.dtype if values.dtype.kind == "f" else np.float64,
        )
    return bincount_sums(segment_ids(seg_ptr), values, nseg)


def bincount_sums(ids: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """``np.bincount(ids, weights, minlength=n)`` cast to ``weights.dtype``.

    A 2-D ``(m, k)`` block of weights is summed column by column, each
    column exactly as the 1-D call on it: float64 accumulation, then one
    cast.  So a fused multi-RHS sum equals the single-vector sums bit for
    bit in every precision (``np.add.at`` on the block would accumulate
    in the value dtype instead, and is slower for small ``k``).
    """
    if weights.ndim == 1:
        return np.bincount(ids, weights=weights, minlength=n).astype(
            weights.dtype, copy=False
        )
    out = np.empty((n, weights.shape[1]), dtype=weights.dtype)
    for j in range(weights.shape[1]):
        out[:, j] = np.bincount(ids, weights=weights[:, j], minlength=n)
    return out
