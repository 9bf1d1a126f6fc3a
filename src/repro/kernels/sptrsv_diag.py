"""The "completely parallel" SpTRSV kernel.

Section 3.4, structure (1): after the recursive reorder, many small
triangular blocks contain *only* a diagonal.  Solving such a block is an
element-wise division ``x = b / d`` with perfect parallelism — the paper
credits part of the recursive algorithm's speedup on ``nlpkkt200`` to
exactly these blocks.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NotTriangularError
from repro.gpu.cost import CostModel
from repro.gpu.device import DeviceModel
from repro.gpu.report import KernelReport
from repro.kernels.base import (
    PreparedLower,
    SpTRSVKernel,
    solve_flops,
    width_detail,
)

__all__ = ["DiagonalKernel"]


class DiagonalKernel(SpTRSVKernel):
    """SPTRSV-COMPLETELYPARALLEL of Algorithm 7."""

    name = "diagonal"
    pure_report = True

    def solve_numeric(
        self, aux: PreparedLower, b: np.ndarray, device: DeviceModel
    ) -> np.ndarray:
        b = np.asarray(b)
        return b / (aux.diag if b.ndim == 1 else aux.diag[:, None])

    def preprocess(
        self, prep: PreparedLower, device: DeviceModel
    ) -> tuple[PreparedLower, KernelReport]:
        if prep.strict.nnz != 0:
            raise NotTriangularError(
                "DiagonalKernel requires a diagonal-only block "
                f"(found {prep.strict.nnz} off-diagonal entries)"
            )
        return prep, KernelReport("diagonal-preprocess", 0.0, launches=0)

    def report(
        self, aux: PreparedLower, device: DeviceModel, k: int
    ) -> KernelReport:
        # One block divide: the diagonal streams once for all RHS.
        n_rhs = max(k, 1)
        cost = CostModel(device)
        vb = aux.value_bytes
        nbytes = aux.n * vb * (1 + 2.0 * n_rhs)  # d once; b read, x write
        time = cost.launch_time() + cost.kernel_time(
            cost.stream_time(nbytes), cost.compute_time(aux.n * n_rhs, aux.n)
        )
        return KernelReport(
            "sptrsv-diagonal",
            time,
            launches=1,
            flops=solve_flops(aux.nnz) * n_rhs,
            bytes_moved=nbytes,
            detail=width_detail({"n": aux.n}, k),
        )
