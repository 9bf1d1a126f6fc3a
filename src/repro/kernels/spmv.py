"""The four SpMV kernels of §3.4: scalar/vector × CSR/DCSR.

All four compute the same update ``b -= A @ x`` (the right-hand-side
update of Algorithms 4–6); they differ in work mapping and row-pointer
storage, which the cost model prices:

* **scalar-CSR** — one thread per row.  Cheap for short uniform rows;
  a warp stalls on its longest member, so power-law rows are poison
  (priced through the warp-granularity imbalance factor), and adjacent
  threads stride through memory (priced through
  :meth:`~repro.gpu.cost.CostModel.scalar_entry_bytes`).
* **vector-CSR** — one warp per row.  Long rows are processed 32 lanes
  wide with a log-step reduction; short rows waste most of the warp
  (lane padding) and every row costs a warp issue.
* **scalar-DCSR / vector-DCSR** — same mappings over the DCSR compression
  of §3.3: empty rows are skipped entirely, trading an extra ``row_ids``
  indirection for not touching pointers (scalar) or not dispatching whole
  warps (vector) on empty rows.  Vector mode wastes more per empty row,
  which is why its DCSR crossover sits at a much lower empty ratio
  (Figure 5(b): 15% vs 50%).

Every entry point takes either RHS width: ``x``/``b`` of shape ``(n,)``
or an ``(n, k)`` block, the **fused multi-RHS** update in which the
matrix arrays stream once per call while vector traffic and arithmetic
scale with ``k`` — the amortization behind the multi-RHS solve phases
the paper's introduction motivates.  Column ``j`` of a block update is
summed exactly as the single-vector update of that column.
``report(A, device, k)`` prices one call at width ``k`` (0 = one 1-D
vector) without running it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ShapeMismatchError
from repro.formats.csr import CSRMatrix
from repro.formats.dcsr import DCSRMatrix
from repro.gpu.cost import CostModel
from repro.gpu.device import DeviceModel
from repro.gpu.report import KernelReport
from repro.kernels.base import INDEX_BYTES, PTR_BYTES, rhs_width

__all__ = [
    "SpMVKernel",
    "ScalarCSRSpMV",
    "VectorCSRSpMV",
    "ScalarDCSRSpMV",
    "VectorDCSRSpMV",
    "SPMV_KERNELS",
]

#: issue latency of one dependent FMA in a thread's serial row walk (cycles)
ROW_CHAIN_CYCLES = 8.0
#: warp-reduction + prologue overhead per row in vector mode (flops-equiv)
VECTOR_ROW_OVERHEAD_FLOPS = 8.0
#: per-thread prologue in scalar mode (flops-equivalent)
SCALAR_ROW_OVERHEAD_FLOPS = 2.0


def _imbalance(counts: np.ndarray, nnz: int, warp: int) -> float:
    """Warp-granularity load-imbalance of a thread-per-row mapping."""
    if len(counts) == 0 or nnz == 0:
        return 1.0
    c = counts.astype(np.float64)
    pad = (-len(c)) % warp
    if pad:
        c = np.concatenate([c, np.zeros(pad)])
    return float(c.reshape(-1, warp).max(axis=1).sum() * warp / max(nnz, 1))


def _col_span(A) -> int:
    """Width of the x slice the block actually touches."""
    if A.nnz == 0:
        return 1
    return int(A.indices.max()) - int(A.indices.min()) + 1


class SpMVKernel(ABC):
    """Interface: update ``b -= A @ x`` in place, return a timing report."""

    name: str = "abstract"
    wants_dcsr: bool = False
    #: True when :meth:`run`'s report is a pure function of
    #: ``(A, device, n_rhs)`` — independent of the vector values — so a
    #: compiled plan may freeze one report per segment (all four built-in
    #: kernels qualify; external kernels must opt in explicitly).
    pure_report: bool = True

    # ------------------------------------------------------------------ #
    # Numerics
    # ------------------------------------------------------------------ #
    def run_numeric(self, A, x: np.ndarray, b: np.ndarray) -> None:
        """``b -= A @ x`` with no shape checks and no report.

        The compiled executor's hot path; shapes were validated when the
        plan was compiled.  Kernels that override :meth:`run` with
        different numerics must override this too.
        """
        b -= A.matvec(x).astype(b.dtype, copy=False)

    #: Kept only for ``perfbench/layers.py``, which wraps this name by
    #: ``getattr``; nothing in the package calls it.
    run_numeric_multi = run_numeric

    def run(
        self, A, x: np.ndarray, b: np.ndarray, device: DeviceModel
    ) -> KernelReport:
        """``b -= A @ x`` plus the simulated timing of the call."""
        x = np.asarray(x)
        if (
            x.ndim not in (1, 2)
            or A.shape[1] != x.shape[0]
            or (A.shape[0],) + x.shape[1:] != b.shape
        ):
            raise ShapeMismatchError(
                f"spmv: A is {A.shape}, x is {x.shape}, b is {b.shape}"
            )
        b -= A.matvec(x).astype(b.dtype, copy=False)
        return self.report(A, device, rhs_width(x))

    # ------------------------------------------------------------------ #
    # Simulated cost
    # ------------------------------------------------------------------ #
    @abstractmethod
    def _cost(self, A, device: DeviceModel, n_rhs: int) -> tuple[float, dict]:
        """Simulated time of one (possibly fused) kernel call."""

    def report(self, A, device: DeviceModel, k: int = 0) -> KernelReport:
        """The simulated report of one update at RHS width ``k`` (0 = one
        1-D vector), without running the numerics — what a compiled
        plan freezes per segment."""
        n_rhs = max(k, 1)
        time, detail = self._cost(A, device, n_rhs)
        return KernelReport(
            f"spmv-{self.name}",
            time,
            launches=1,
            flops=2.0 * A.nnz * n_rhs,
            bytes_moved=A.nnz * (INDEX_BYTES + A.data.itemsize),
            detail=detail,
        )

    @staticmethod
    def _block_mem(
        cost: CostModel,
        nnz: int,
        touched_rows: float,
        vb: int,
        col_span: int,
        n_rhs: int,
        entry_bytes: float,
    ) -> float:
        """Matrix arrays once; x gathers and b read-modify-write per RHS.

        A fused kernel reads ``n_rhs`` consecutive values of X per column
        index, so the gather *element* grows instead of the gather count
        — the coalescing win of multi-RHS kernels."""
        stream = nnz * entry_bytes + touched_rows * 2.0 * vb * n_rhs
        ws = col_span * vb * n_rhs
        return cost.stream_time(stream) + cost.gather_time(nnz, vb * n_rhs, ws)


class ScalarCSRSpMV(SpMVKernel):
    """One thread per row over plain CSR."""

    name = "scalar-csr"

    def _cost(self, A: CSRMatrix, device: DeviceModel, n_rhs: int):
        cost = CostModel(device)
        vb = int(A.data.itemsize)
        counts = A.row_counts()
        active = int(np.count_nonzero(counts))
        avg_len = A.nnz / max(active, 1)
        mem = self._block_mem(
            cost,
            A.nnz,
            active,
            vb,
            _col_span(A),
            n_rhs,
            entry_bytes=cost.scalar_entry_bytes(avg_len, INDEX_BYTES + vb),
        )
        mem += cost.stream_time((A.n_rows + 1) * PTR_BYTES)
        imb = _imbalance(counts, A.nnz, device.warp_size)
        comp = (
            cost.compute_time(2.0 * A.nnz * n_rhs, A.n_rows) * imb
            + cost.compute_time(SCALAR_ROW_OVERHEAD_FLOPS * A.n_rows, A.n_rows)
            + cost.warp_issue_time(A.n_rows / device.warp_size)
            + cost.serial_cycles_time(
                float(counts.max(initial=0)) * ROW_CHAIN_CYCLES
            )
        )
        time = cost.launch_time() + cost.kernel_time(mem, comp)
        return time, {"imbalance": imb, "n_rhs": n_rhs}


class VectorCSRSpMV(SpMVKernel):
    """One warp per row over plain CSR."""

    name = "vector-csr"

    def _cost(self, A: CSRMatrix, device: DeviceModel, n_rhs: int):
        cost = CostModel(device)
        vb = int(A.data.itemsize)
        counts = A.row_counts()
        active = int(np.count_nonzero(counts))
        mem = self._block_mem(
            cost, A.nnz, active, vb, _col_span(A), n_rhs,
            entry_bytes=float(INDEX_BYTES + vb),
        )
        mem += cost.stream_time((A.n_rows + 1) * PTR_BYTES)
        warp = device.warp_size
        padded = float(np.sum(np.ceil(counts / warp)) * warp)
        comp = cost.compute_time(
            (2.0 * padded + VECTOR_ROW_OVERHEAD_FLOPS * A.n_rows) * n_rhs,
            A.n_rows * warp,
        ) + cost.warp_issue_time(A.n_rows) + cost.serial_cycles_time(
            np.ceil(float(counts.max(initial=0)) / warp) * ROW_CHAIN_CYCLES + 30.0
        )
        time = cost.launch_time() + cost.kernel_time(mem, comp)
        return time, {"n_rhs": n_rhs}


class ScalarDCSRSpMV(SpMVKernel):
    """One thread per *non-empty* row over DCSR."""

    name = "scalar-dcsr"
    wants_dcsr = True

    def _cost(self, A: DCSRMatrix, device: DeviceModel, n_rhs: int):
        cost = CostModel(device)
        vb = int(A.data.itemsize)
        counts = np.diff(A.indptr)
        nact = A.n_active_rows
        avg_len = A.nnz / max(nact, 1)
        mem = self._block_mem(
            cost,
            A.nnz,
            nact,
            vb,
            _col_span(A),
            n_rhs,
            entry_bytes=cost.scalar_entry_bytes(avg_len, INDEX_BYTES + vb),
        )
        mem += cost.stream_time((nact + 1) * PTR_BYTES + nact * INDEX_BYTES)
        imb = _imbalance(counts, A.nnz, device.warp_size)
        comp = (
            cost.compute_time(2.0 * A.nnz * n_rhs, max(nact, 1)) * imb
            + cost.compute_time(SCALAR_ROW_OVERHEAD_FLOPS * nact, max(nact, 1))
            + cost.warp_issue_time(nact / device.warp_size)
            + cost.serial_cycles_time(
                float(counts.max(initial=0)) * ROW_CHAIN_CYCLES
            )
        )
        time = cost.launch_time() + cost.kernel_time(mem, comp)
        return time, {"imbalance": imb, "n_rhs": n_rhs}


class VectorDCSRSpMV(SpMVKernel):
    """One warp per *non-empty* row over DCSR."""

    name = "vector-dcsr"
    wants_dcsr = True

    def _cost(self, A: DCSRMatrix, device: DeviceModel, n_rhs: int):
        cost = CostModel(device)
        vb = int(A.data.itemsize)
        counts = np.diff(A.indptr)
        nact = A.n_active_rows
        mem = self._block_mem(
            cost, A.nnz, nact, vb, _col_span(A), n_rhs,
            entry_bytes=float(INDEX_BYTES + vb),
        )
        mem += cost.stream_time((nact + 1) * PTR_BYTES + nact * INDEX_BYTES)
        warp = device.warp_size
        padded = float(np.sum(np.ceil(counts / warp)) * warp)
        comp = cost.compute_time(
            (2.0 * padded + VECTOR_ROW_OVERHEAD_FLOPS * nact) * n_rhs,
            max(nact, 1) * warp,
        ) + cost.warp_issue_time(nact) + cost.serial_cycles_time(
            np.ceil(float(counts.max(initial=0)) / warp) * ROW_CHAIN_CYCLES + 30.0
        )
        time = cost.launch_time() + cost.kernel_time(mem, comp)
        return time, {"n_rhs": n_rhs}


SPMV_KERNELS: dict[str, type[SpMVKernel]] = {
    k.name: k
    for k in (ScalarCSRSpMV, VectorCSRSpMV, ScalarDCSRSpMV, VectorDCSRSpMV)
}
