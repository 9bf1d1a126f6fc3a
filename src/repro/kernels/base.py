"""Shared kernel infrastructure.

Every SpTRSV kernel consumes a :class:`PreparedLower` (split strict part +
diagonal, validated non-singular) and implements two phases mirroring the
GPU workflow:

* ``preprocess(prep, device)`` — returns kernel-specific auxiliary data
  plus a :class:`KernelReport` with the *simulated* preprocessing time
  (what Table 5 measures);
* the solve, as two width-agnostic halves: ``solve_numeric(aux, b,
  device)`` returns the exact solution for ``b`` of shape ``(n,)`` or
  ``(n, k)``, and ``report(aux, device, k)`` returns the simulated
  :class:`KernelReport` of that solve without running it (``k == 0``
  means a single 1-D vector; ``k >= 1`` a fused block of ``k`` columns,
  the multi-RHS formulation of [50]).  ``solve`` returns both.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeMismatchError, ValidationError
from repro.formats.csr import CSRMatrix
from repro.formats.triangular import split_strict_and_diag
from repro.gpu.cost import CostModel
from repro.gpu.device import DeviceModel
from repro.gpu.report import KernelReport

__all__ = [
    "PreparedLower",
    "prepare_lower",
    "SpTRSVKernel",
    "reference_dense_solve",
    "index_bytes",
    "solve_flops",
    "solve_dtype",
    "rhs_width",
]

#: bytes of one column/row index on device (int32, as in the paper's CSR)
INDEX_BYTES = 4
#: bytes of one row/col pointer (the CSR indptr entries; 32-bit on GPU)
PTR_BYTES = 4


def index_bytes() -> int:
    return INDEX_BYTES


def solve_flops(nnz: int) -> float:
    """The paper's flop count for SpTRSV GFlops: 2 flops per nonzero
    (multiply-add for off-diagonals; subtract-divide for the diagonal)."""
    return 2.0 * nnz


def solve_dtype(*operands) -> np.dtype:
    """Floating work-buffer dtype for a triangular solve.

    The NumPy result type of the operands, promoted to ``float64``
    whenever it is not already a floating type: an integer right-hand
    side must never allocate integer work buffers (every triangular
    division would silently truncate).  Float operands keep their
    precision, so single-precision paths stay single precision.
    Complex operands raise ``ValidationError(kind="dtype")``: no kernel
    may drop an imaginary part or fail on one with a bare NumPy error.
    """
    dt = np.result_type(*operands)
    if dt.kind == "c":
        raise ValidationError(
            f"complex right-hand sides ({dt}) are not supported", kind="dtype"
        )
    if not np.issubdtype(dt, np.inexact):
        dt = np.result_type(dt, np.float64)
    return dt


@dataclass
class PreparedLower:
    """A validated lower-triangular system ready for any kernel."""

    L: CSRMatrix  # full matrix (diagonal included), sorted indices
    strict: CSRMatrix  # strictly-lower part
    diag: np.ndarray  # dense diagonal, guaranteed nonzero

    @property
    def n(self) -> int:
        return self.L.n_rows

    @property
    def nnz(self) -> int:
        return self.L.nnz

    @property
    def value_bytes(self) -> int:
        return int(self.L.data.itemsize)

    def astype(self, dtype) -> "PreparedLower":
        return PreparedLower(
            self.L.astype(dtype), self.strict.astype(dtype), self.diag.astype(dtype)
        )


def prepare_lower(L: CSRMatrix) -> PreparedLower:
    """Validate and split a lower-triangular matrix once for all kernels."""
    L = L.sort_indices()
    strict, diag = split_strict_and_diag(L)
    return PreparedLower(L=L, strict=strict, diag=diag)


class SpTRSVKernel(ABC):
    """Interface of a simulated SpTRSV kernel.

    Built-in kernels implement :meth:`solve_numeric` and :meth:`report`
    and inherit :meth:`solve`.  A third-party kernel may instead
    override :meth:`solve` alone; it must then accept both RHS widths.
    """

    #: short identifier used by the adaptive selector and reports
    name: str = "abstract"
    #: True when :meth:`report` is a pure function of ``(aux, device,
    #: k)`` — independent of the right-hand side values — so a compiled
    #: plan may freeze one report per segment and reuse it across
    #: solves.  All built-in kernels qualify; external kernels must opt
    #: in explicitly.
    pure_report: bool = False

    @abstractmethod
    def preprocess(
        self, prep: PreparedLower, device: DeviceModel
    ) -> tuple[object, KernelReport]:
        """Build auxiliary structures; report simulated preprocessing time."""

    def solve_numeric(
        self, aux: object, b: np.ndarray, device: DeviceModel
    ) -> np.ndarray:
        """Solve ``L x = b`` exactly, with no report; ``b`` is ``(n,)`` or
        ``(n, k)``.

        The compiled executor's hot path.  The default serves kernels
        that override only :meth:`solve` and drops its report.
        """
        if type(self).solve is SpTRSVKernel.solve:
            raise NotImplementedError(
                f"{type(self).__name__} must override solve_numeric or solve"
            )
        return self.solve(aux, b, device)[0]

    def report(self, aux: object, device: DeviceModel, k: int) -> KernelReport:
        """The simulated report of one solve at RHS width ``k`` (0 = one
        1-D vector), without running the numerics."""
        raise NotImplementedError(f"{type(self).__name__} has no report()")

    def solve(
        self, aux: object, b: np.ndarray, device: DeviceModel
    ) -> tuple[np.ndarray, KernelReport]:
        """Solve ``L x = b`` exactly; report simulated solve time."""
        x = self.solve_numeric(aux, b, device)
        return x, self.report(aux, device, rhs_width(b))

    # Convenience single-shot path used by tests and calibration.
    def solve_system(
        self, L: CSRMatrix, b: np.ndarray, device: DeviceModel
    ) -> tuple[np.ndarray, KernelReport]:
        prep = prepare_lower(L)
        aux, _ = self.preprocess(prep, device)
        return self.solve(aux, b, device)


def rhs_width(b) -> int:
    """The RHS width convention of every ``report``: 0 for a 1-D vector,
    ``k`` for an ``(n, k)`` block."""
    shape = np.shape(b)
    return 0 if len(shape) == 1 else shape[1]


def width_detail(detail: dict, k: int, fused: bool = True) -> dict:
    """A report's ``detail`` at RHS width ``k``: blocks add ``n_rhs`` and
    whether the kernel fuses the columns."""
    return detail if k == 0 else {**detail, "n_rhs": k, "fused": fused}


def reference_dense_solve(L: CSRMatrix, b: np.ndarray) -> np.ndarray:
    """Dense forward substitution used only for validation in tests."""
    if L.n_rows != L.n_cols:
        raise ShapeMismatchError("square matrix required")
    dense = L.to_dense().astype(np.float64)
    x = np.zeros(L.n_rows, dtype=np.float64)
    for i in range(L.n_rows):
        x[i] = (b[i] - dense[i, :i] @ x[:i]) / dense[i, i]
    return x


def triangular_working_set_bytes(prep: PreparedLower) -> float:
    """Bytes of the x/b working set a triangular solve touches — the
    quantity the blocked layout shrinks below L2 size."""
    return 2.0 * prep.n * prep.value_bytes


def base_stream_bytes(prep: PreparedLower) -> float:
    """Coalesced traffic common to all SpTRSV kernels: matrix values and
    indices once, b read and x written once, pointer array once."""
    vb = prep.value_bytes
    return (
        prep.nnz * (INDEX_BYTES + vb)  # indices + values
        + (prep.n + 1) * PTR_BYTES  # indptr
        + prep.n * vb * 2  # read b, write x
    )


def make_cost(device: DeviceModel) -> CostModel:
    return CostModel(device)
