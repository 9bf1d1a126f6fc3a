"""Level-sweep execution engine shared by the level-ordered kernels.

A :class:`LevelSchedule` precomputes, once per matrix, everything a
per-level sweep needs: rows grouped by level, the strict entries reordered
into (level, row) order, and per-level statistics (row count, nnz, longest
row, padded nnz) that the cost models consume.  The numeric sweep then
runs a handful of NumPy calls per level and no per-entry Python work.

All three level-ordered kernels (level-set, cuSPARSE stand-in, and the
numeric side of Sync-free) share this machinery; they differ only in their
simulated cost models.

:func:`sweep_solve` takes one right-hand side or a block of ``k``: the
fused multi-RHS execution of Liu et al.'s follow-up [50], where the
matrix streams once per level whatever the RHS count.  Each column of a
block is summed exactly as a single vector is, so column ``j`` of a
fused solve equals the single-vector solve of ``B[:, j]`` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ShapeMismatchError
from repro.graph.levels import cached_levels, level_sets
from repro.kernels.base import PreparedLower, solve_dtype
from repro.utils.arrays import (
    bincount_sums,
    counts_to_indptr,
    gather_row_ranges,
    segment_ids,
)

__all__ = [
    "LevelSchedule",
    "build_level_schedule",
    "sweep_solve",
]


@dataclass
class LevelSchedule:
    """Per-level execution plan of a lower-triangular system."""

    prep: PreparedLower
    levels: np.ndarray
    level_ptr: np.ndarray  # (nlevels+1,) over `items`
    items: np.ndarray  # rows sorted by level (stable)
    entry_ptr: np.ndarray  # (nlevels+1,) over the reordered strict entries
    entry_cols: np.ndarray
    entry_vals: np.ndarray
    entry_local_row: np.ndarray  # entry -> its row's index within its level
    level_rows: np.ndarray  # rows per level
    level_nnz: np.ndarray  # strict entries per level
    level_maxlen: np.ndarray  # longest strict row per level
    level_padded: np.ndarray  # sum(ceil(len/32)*32) per level (vector mode)
    level_thin_rows: np.ndarray  # rows with <= 2 strict entries per level
    _cost_cache: dict = field(default_factory=dict, repr=False)

    @property
    def nlevels(self) -> int:
        return len(self.level_ptr) - 1

    @property
    def n(self) -> int:
        return self.prep.n


def build_level_schedule(
    prep: PreparedLower, levels: np.ndarray | None = None, warp: int = 32
) -> LevelSchedule:
    """Assemble the (level, row)-ordered view of the strict part."""
    if levels is None:
        levels = cached_levels(prep.L)
    level_ptr, items = level_sets(levels)
    nlv = len(level_ptr) - 1
    strict = prep.strict
    counts = strict.row_counts()
    flat, seg_ptr = gather_row_ranges(strict.indptr, items)
    entry_cols = strict.indices[flat].astype(np.int64)
    entry_vals = strict.data[flat]
    # Per-entry position of its row inside its level.
    entry_item_pos = segment_ids(seg_ptr)
    item_level = levels[items]
    entry_local_row = entry_item_pos - level_ptr[item_level[entry_item_pos]]
    # Entry ranges per level.
    item_counts = counts[items]
    level_nnz = np.bincount(item_level, weights=item_counts, minlength=nlv).astype(
        np.int64
    )
    entry_ptr = counts_to_indptr(level_nnz)
    level_rows = np.diff(level_ptr)
    if nlv:
        # Every level 0..max has at least one row by construction (a row of
        # level l implies a dependency chain through all earlier levels),
        # so reduceat's segments are all non-empty.
        level_maxlen = np.maximum.reduceat(item_counts, level_ptr[:-1])
        padded = np.ceil(item_counts / warp) * warp
        level_padded = np.add.reduceat(padded, level_ptr[:-1]).astype(np.int64)
        level_thin_rows = np.add.reduceat(
            (item_counts <= 2).astype(np.int64), level_ptr[:-1]
        )
    else:
        level_maxlen = np.zeros(0, dtype=np.int64)
        level_padded = np.zeros(0, dtype=np.int64)
        level_thin_rows = np.zeros(0, dtype=np.int64)
    return LevelSchedule(
        prep=prep,
        levels=levels,
        level_ptr=level_ptr,
        items=items,
        entry_ptr=entry_ptr,
        entry_cols=entry_cols,
        entry_vals=entry_vals,
        entry_local_row=entry_local_row,
        level_rows=level_rows,
        level_nnz=level_nnz,
        level_maxlen=level_maxlen,
        level_padded=level_padded,
        level_thin_rows=level_thin_rows,
    )


def sweep_solve(sched: LevelSchedule, b: np.ndarray) -> np.ndarray:
    """Exact forward substitution, one vectorized step per level.

    ``b`` is a vector of length ``n`` or an ``(n, k)`` block.
    """
    prep = sched.prep
    n = prep.n
    b = np.asarray(b)
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ShapeMismatchError(
            f"b has shape {b.shape}, expected ({n},) or ({n}, k)"
        )
    dtype = solve_dtype(prep.L.data, b)
    x = np.zeros(b.shape, dtype=dtype)
    diag = prep.diag if b.ndim == 1 else prep.diag[:, None]
    vals = sched.entry_vals if b.ndim == 1 else sched.entry_vals[:, None]
    level_ptr = sched.level_ptr
    entry_ptr = sched.entry_ptr
    items = sched.items
    cols = sched.entry_cols
    local = sched.entry_local_row
    for lv in range(sched.nlevels):
        i0, i1 = level_ptr[lv], level_ptr[lv + 1]
        rows = items[i0:i1]
        z0, z1 = entry_ptr[lv], entry_ptr[lv + 1]
        if z1 > z0:
            contrib = bincount_sums(
                local[z0:z1], vals[z0:z1] * x[cols[z0:z1]], i1 - i0
            )
            x[rows] = (b[rows] - contrib) / diag[rows]
        else:
            x[rows] = b[rows] / diag[rows]
    return x
