"""Algorithm 1 — the serial CSR SpTRSV reference.

This is the paper's baseline pseudocode, transcribed directly: a forward
pass accumulating ``left_sum`` row by row, dividing by the diagonal stored
as the last entry of each row.  It is the correctness oracle for every
other kernel, and its simulated timing models a single GPU thread (useful
only to show why nobody runs SpTRSV that way).
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.errors import ShapeMismatchError
from repro.formats.csr import CSRMatrix
from repro.gpu.cost import CostModel
from repro.gpu.device import DeviceModel
from repro.gpu.report import KernelReport
from repro.kernels.base import (
    PreparedLower,
    SpTRSVKernel,
    prepare_lower,
    solve_dtype,
    solve_flops,
    width_detail,
)

__all__ = ["solve_serial", "SerialKernel"]


def solve_serial(L: CSRMatrix, b: np.ndarray) -> np.ndarray:
    """Algorithm 1 verbatim (lines 2-8), on a sorted-index CSR matrix.

    An ``(n, k)`` block is solved one column at a time.
    """
    b = np.asarray(b)
    if b.ndim == 2:
        x = np.empty(b.shape, dtype=solve_dtype(L.data, b))
        for j in range(b.shape[1]):
            x[:, j] = solve_serial(L, b[:, j])
        return x
    L = L.sort_indices()
    n = L.n_rows
    if b.shape[0] != n:
        raise ShapeMismatchError("b length mismatch")
    row_ptr = L.indptr.tolist()
    col_idx = L.indices.tolist()
    val = L.data.tolist()
    x = [0.0] * n
    left_sum = [0.0] * n
    for i in range(n):
        for j in range(row_ptr[i], row_ptr[i + 1] - 1):
            left_sum[i] += val[j] * x[col_idx[j]]
        x[i] = (b[i] - left_sum[i]) / val[row_ptr[i + 1] - 1]
    return np.asarray(x, dtype=solve_dtype(L.data, b))


class SerialKernel(SpTRSVKernel):
    """Single-thread execution model of Algorithm 1."""

    name = "serial"
    pure_report = True

    def solve_numeric(
        self, aux: PreparedLower, b: np.ndarray, device: DeviceModel
    ) -> np.ndarray:
        return solve_serial(aux.L, b)

    def preprocess(
        self, prep: PreparedLower, device: DeviceModel
    ) -> tuple[PreparedLower, KernelReport]:
        # Nothing to build: CSR is consumed as-is.
        return prep, KernelReport("serial-preprocess", 0.0, launches=0)

    def report(
        self, aux: PreparedLower, device: DeviceModel, k: int
    ) -> KernelReport:
        cost = CostModel(device)
        # One thread, fully dependent chain: every nonzero costs a
        # latency-bound load plus an FMA.
        time = cost.launch_time() + aux.nnz * (
            device.dram_latency_s * 0.25 + cost.serial_cycles_time(8)
        )
        n_calls = max(k, 1)
        # A block is not fused: one call per column, times added up.
        return KernelReport(
            "sptrsv-serial",
            sum(repeat(time, n_calls)),
            launches=n_calls,
            flops=solve_flops(aux.nnz) * n_calls,
            detail=width_detail({"n": aux.n}, k, fused=False),
        )
