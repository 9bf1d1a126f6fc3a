"""Execution plans: the loop form shared by all three block algorithms.

A plan is an ordered list of segments over a (possibly permuted) matrix:

* :class:`TriSegment` — solve rows ``[lo, hi)`` with a chosen SpTRSV
  kernel (its auxiliary structures already preprocessed);
* :class:`SpMVSegment` — update ``b[row_lo:row_hi] -= A @ x[col_lo:col_hi]``
  with a chosen SpMV kernel.

Executing the plan in order is exactly Algorithms 4/5/6 unrolled — the
"loop implementation" the improved data structure of §3.3 is built for.
The plan also exposes the Tables 1–2 traffic counters measured from the
actual layout.

Production solves do not run here: :func:`repro.core.executor.compile_plan`
turns a plan into the one executor every request goes through.
:meth:`ExecutionPlan.solve` / :meth:`ExecutionPlan.solve_multi` are the
uninstrumented *reference loop* — every segment through the kernels'
reporting entry points on fresh buffers — that tests, benchmarks and
the reproduction experiments compare the executor against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ShapeMismatchError
from repro.gpu.device import DeviceModel
from repro.gpu.report import KernelReport, SolveReport, merge_reports
from repro.kernels.base import SpTRSVKernel, rhs_width, solve_dtype
from repro.kernels.spmv import SpMVKernel

__all__ = ["TriSegment", "SpMVSegment", "ExecutionPlan", "run_segment"]


@dataclass
class TriSegment:
    """A triangular sub-solve over rows/cols ``[lo, hi)``."""

    lo: int
    hi: int
    kernel: SpTRSVKernel
    aux: object
    nnz: int

    @property
    def n_rows(self) -> int:
        return self.hi - self.lo


@dataclass
class SpMVSegment:
    """A rectangular/square update ``b[rows] -= A @ x[cols]``."""

    row_lo: int
    row_hi: int
    col_lo: int
    col_hi: int
    matrix: object  # CSRMatrix or DCSRMatrix, matching the kernel
    kernel: SpMVKernel

    @property
    def nnz(self) -> int:
        return int(self.matrix.nnz)

    @property
    def n_rows(self) -> int:
        return self.row_hi - self.row_lo

    @property
    def n_cols(self) -> int:
        return self.col_hi - self.col_lo


def run_segment(seg, work, out, device: DeviceModel) -> KernelReport:
    """One segment through its kernel's reporting entry point: a
    triangle solves ``work[lo:hi]`` into ``out[lo:hi]``, a square updates
    ``work[rows] -= A @ out[cols]``.  Either RHS width."""
    if isinstance(seg, TriSegment):
        xs, rep = seg.kernel.solve(seg.aux, work[seg.lo : seg.hi], device)
        out[seg.lo : seg.hi] = xs
        return rep
    return seg.kernel.run(
        seg.matrix,
        out[seg.col_lo : seg.col_hi],
        work[seg.row_lo : seg.row_hi],
        device,
    )


@dataclass
class ExecutionPlan:
    """An ordered, preprocessed block-SpTRSV execution plan."""

    method: str
    n: int
    segments: list = field(default_factory=list)
    #: ``perm[k]`` = original index stored at permuted slot ``k``
    perm: np.ndarray | None = None
    preprocess_report: KernelReport | None = None

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _merge_reports(self, reports: list, k: int) -> SolveReport:
        """One solve's report from its per-segment reports; ``k`` is the
        RHS width of a fused solve, 0 for a single vector."""
        if k == 0:
            return merge_reports(
                self.method,
                reports,
                n_tri=self.n_tri_segments,
                n_spmv=self.n_spmv_segments,
            )
        return merge_reports(self.method, reports, n_rhs=k, fused=True)

    def _solve_reference(self, B: np.ndarray, device: DeviceModel):
        """Every segment in plan order through the kernels' reporting
        entry points, on freshly allocated buffers."""
        # Work buffers must be floating even for an integer b, or every
        # triangular division below silently truncates.
        work = (B[self.perm] if self.perm is not None else B).astype(
            solve_dtype(B), copy=True
        )
        X = np.zeros_like(work)
        reports = [run_segment(seg, work, X, device) for seg in self.segments]
        if self.perm is not None:
            out = np.empty_like(X)
            out[self.perm] = X
            X = out
        return X, self._merge_reports(reports, rhs_width(B))

    def solve(self, b: np.ndarray, device: DeviceModel) -> tuple[np.ndarray, SolveReport]:
        """Run the plan; returns the solution in *original* row order."""
        b = np.asarray(b)
        if b.shape != (self.n,):
            raise ShapeMismatchError(f"b must have shape ({self.n},)")
        return self._solve_reference(b, device)

    def solve_multi(
        self, B: np.ndarray, device: DeviceModel
    ) -> tuple[np.ndarray, SolveReport]:
        """Fused multi-RHS execution: every segment processes the whole
        RHS block per invocation, amortizing matrix traffic and launches
        (the multi-RHS scenario the paper's introduction motivates)."""
        B = np.asarray(B)
        if B.ndim != 2 or B.shape[0] != self.n:
            raise ShapeMismatchError(f"B must have shape ({self.n}, k)")
        return self._solve_reference(B, device)

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #
    def segment_dag(self):
        """The segment-level dependency DAG (see :mod:`repro.core.dag`):
        the partial order a sharded executor must respect to stay
        bit-identical with in-order execution."""
        from repro.core.dag import build_segment_dag

        return build_segment_dag(self)

    @property
    def tri_segments(self) -> list:
        return [s for s in self.segments if isinstance(s, TriSegment)]

    @property
    def spmv_segments(self) -> list:
        return [s for s in self.segments if isinstance(s, SpMVSegment)]

    @property
    def n_tri_segments(self) -> int:
        return len(self.tri_segments)

    @property
    def n_spmv_segments(self) -> int:
        return len(self.spmv_segments)

    @property
    def total_nnz(self) -> int:
        return sum(s.nnz for s in self.segments)

    # ------------------------------------------------------------------ #
    # Tables 1-2 traffic counters (measured from the layout)
    # ------------------------------------------------------------------ #
    @property
    def b_items_updated(self) -> int:
        """Items written to the right-hand side: every SpMV output row,
        plus one ``b`` access per component in the triangular solves
        (the paper's Table 1 accounting)."""
        return self.n + sum(s.n_rows for s in self.spmv_segments)

    @property
    def x_items_loaded(self) -> int:
        """Items of the solution vector read by SpMV parts (Table 2)."""
        return sum(s.n_cols for s in self.spmv_segments)

    def kernel_histogram(self) -> dict[str, int]:
        """How many segments each kernel was selected for — the adaptive
        method's observable decisions."""
        hist: dict[str, int] = {}
        for s in self.segments:
            hist[s.kernel.name] = hist.get(s.kernel.name, 0) + 1
        return hist
