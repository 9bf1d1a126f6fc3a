"""Bad input gets a ``ReproError`` in the caller's terms.

* A zero diagonal names the caller's row, whatever the method reorders,
  splits into blocks or mirrors, on a cold build and on a values rebind.
* Complex matrices and right-hand sides are refused with
  ``ValidationError(kind="dtype")`` instead of a silently wrong ``x``
  or a bare NumPy error.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import SolveService, available_methods, solve_triangular
from repro.errors import SingularMatrixError, ValidationError
from repro.formats import CSRMatrix

from conftest import random_lower

N = 200
ZERO_ROW = 150


def _zero_diagonal(A: CSRMatrix, row: int) -> CSRMatrix:
    """``A`` with its stored diagonal entry at ``row`` set to 0 (same
    sparsity pattern, so a cached pattern plan rebinds onto it)."""
    lo, hi = A.indptr[row], A.indptr[row + 1]
    pos = lo + int(np.nonzero(A.indices[lo:hi] == row)[0][0])
    data = A.data.copy()
    data[pos] = 0.0
    return replace(A, data=data, _validated=True)


def _system(orientation: str) -> CSRMatrix:
    L = random_lower(N, 0.05, seed=21)
    return L if orientation == "lower" else L.transpose()


def _solve_triangular(A, bad, method):
    solve_triangular(bad, np.ones(N), method=method)


def _service_cold(A, bad, method):
    with SolveService(method=method, max_workers=1) as svc:
        svc.solve(bad, np.ones(N))


def _service_rebind(A, bad, method):
    with SolveService(method=method, max_workers=1) as svc:
        assert not svc.solve(A, np.ones(N)).fallback
        svc.solve(bad, np.ones(N))


ENTRY_POINTS = {
    "solve_triangular": _solve_triangular,
    "service_cold": _service_cold,
    "service_rebind": _service_rebind,
}


@pytest.mark.parametrize("orientation", ["lower", "upper"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("method", available_methods())
def test_zero_diagonal_names_the_callers_row(method, entry, orientation):
    A = _system(orientation)
    bad = _zero_diagonal(A, ZERO_ROW)
    with pytest.raises(SingularMatrixError) as info:
        ENTRY_POINTS[entry](A, bad, method)
    assert info.value.row == ZERO_ROW
    assert info.value.rows == [ZERO_ROW]
    assert f"row {ZERO_ROW})" in str(info.value)


class TestComplexInputRejected:
    pytestmark = pytest.mark.filterwarnings("error")

    def _dense(self):
        return np.tril(np.ones((6, 6))) + 5 * np.eye(6)

    def test_constructor(self):
        A = CSRMatrix.from_dense(self._dense())
        with pytest.raises(ValidationError) as info:
            CSRMatrix(6, 6, A.indptr, A.indices, A.data + 1j)
        assert info.value.kind == "dtype"

    def test_from_dense(self):
        with pytest.raises(ValidationError) as info:
            CSRMatrix.from_dense(self._dense() + 1j * np.eye(6))
        assert info.value.kind == "dtype"

    def test_from_coo(self):
        with pytest.raises(ValidationError) as info:
            CSRMatrix.from_coo([0, 1], [0, 1], np.array([1 + 1j, 2.0]), (2, 2))
        assert info.value.kind == "dtype"

    def test_astype(self):
        A = CSRMatrix.from_dense(self._dense())
        with pytest.raises(ValidationError) as info:
            A.astype(np.complex128)
        assert info.value.kind == "dtype"

    @pytest.mark.parametrize("method", available_methods())
    def test_complex_rhs(self, method):
        A = CSRMatrix.from_dense(self._dense())
        b = np.ones(6) + 1j
        with pytest.raises(ValidationError) as info:
            solve_triangular(A, b, method=method)
        assert info.value.kind == "dtype"
        with SolveService(method=method, max_workers=1) as svc:
            with pytest.raises(ValidationError) as info:
                svc.solve(A, b)
            assert info.value.kind == "dtype"
            with pytest.raises(ValidationError):
                svc.solve_batch([(A, b), (A, np.ones(6))])
