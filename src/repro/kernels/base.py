"""Shared kernel infrastructure.

Every SpTRSV kernel consumes a :class:`PreparedLower` (split strict part +
diagonal, validated non-singular) and implements two phases mirroring the
GPU workflow:

* ``preprocess(prep, device)`` — returns kernel-specific auxiliary data
  plus a :class:`KernelReport` with the *simulated* preprocessing time
  (what Table 5 measures);
* ``solve(aux, b, device)`` — returns the exact solution and a
  :class:`KernelReport` with the simulated solve time.
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
    """Interface of a simulated SpTRSV kernel."""

    #: short identifier used by the adaptive selector and reports
    name: str = "abstract"
    #: True when :meth:`solve`'s report is a pure function of
    #: ``(aux, device, n_rhs)`` — independent of the right-hand side
    #: values — so a compiled plan may freeze one report per segment and
    #: reuse it across solves.  All built-in kernels qualify; external
    #: kernels must opt in explicitly.
    pure_report: bool = False

    @abstractmethod
    def preprocess(
        self, prep: PreparedLower, device: DeviceModel
    ) -> tuple[object, KernelReport]:
        """Build auxiliary structures; report simulated preprocessing time."""

    @abstractmethod
    def solve(
        self, aux: object, b: np.ndarray, device: DeviceModel
    ) -> tuple[np.ndarray, KernelReport]:
        """Solve ``L x = b`` exactly; report simulated solve time."""

    def solve_numeric(
        self, aux: object, b: np.ndarray, device: DeviceModel
    ) -> np.ndarray:
        """Numerics only: the solution without constructing a report.

        The compiled executor's hot path.  The default delegates to
        :meth:`solve` and drops the report; built-in kernels override it
        to skip report construction entirely.
        """
        return self.solve(aux, b, device)[0]

    def solve_numeric_multi(
        self, aux: object, B: np.ndarray, device: DeviceModel
    ) -> np.ndarray:
        """Multi-RHS numerics only (see :meth:`solve_numeric`)."""
        return self.solve_multi(aux, B, device)[0]

    def solve_multi(
        self, aux: object, B: np.ndarray, device: DeviceModel
    ) -> tuple[np.ndarray, KernelReport]:
        """Solve for a block of right-hand sides.

        Default: one kernel invocation per column (time adds up).
        Kernels with a fused multi-RHS formulation override this to
        stream the matrix once per level/launch (see [50] for the
        Sync-free variant)."""
        B = np.asarray(B)
        cols = []
        total = 0.0
        report = None
        for j in range(B.shape[1]):
            x, report = self.solve(aux, B[:, j], device)
            cols.append(x)
            total += report.time_s
        out = KernelReport(
            report.kernel,
            total,
            launches=report.launches * B.shape[1],
            flops=report.flops * B.shape[1],
            bytes_moved=report.bytes_moved * B.shape[1],
            detail={**report.detail, "n_rhs": B.shape[1], "fused": False},
        )
        return np.stack(cols, axis=1), out

    # Convenience single-shot path used by tests and calibration.
    def solve_system(
        self, L: CSRMatrix, b: np.ndarray, device: DeviceModel
    ) -> tuple[np.ndarray, KernelReport]:
        prep = prepare_lower(L)
        aux, _ = self.preprocess(prep, device)
        return self.solve(aux, b, device)


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
