"""Correctness and cost-shape tests of the four SpMV kernels."""

import numpy as np
import pytest

from repro.errors import ShapeMismatchError
from repro.formats import CSRMatrix
from repro.gpu.device import TITAN_RTX_SCALED
from repro.kernels import (
    SPMV_KERNELS,
    ScalarCSRSpMV,
    ScalarDCSRSpMV,
    VectorCSRSpMV,
    VectorDCSRSpMV,
)

from conftest import random_square


def rect(n_rows, n_cols, density, seed=0):
    rng = np.random.default_rng(seed)
    d = (rng.random((n_rows, n_cols)) < density) * rng.standard_normal(
        (n_rows, n_cols)
    )
    return CSRMatrix.from_dense(d)


@pytest.fixture
def block():
    return rect(150, 120, 0.08, seed=2)


class TestCorrectness:
    @pytest.mark.parametrize("name", list(SPMV_KERNELS))
    def test_updates_b_in_place(self, name, block, rng):
        kernel = SPMV_KERNELS[name]()
        x = rng.standard_normal(block.n_cols)
        b = rng.standard_normal(block.n_rows)
        expected = b - block.to_dense() @ x
        A = block.to_dcsr() if kernel.wants_dcsr else block
        report = kernel.run(A, x, b, TITAN_RTX_SCALED)
        assert np.allclose(b, expected)
        assert report.flops == 2.0 * block.nnz
        assert report.launches == 1

    @pytest.mark.parametrize("name", list(SPMV_KERNELS))
    def test_empty_block(self, name):
        kernel = SPMV_KERNELS[name]()
        A = CSRMatrix.empty(10, 10)
        Ain = A.to_dcsr() if kernel.wants_dcsr else A
        b = np.ones(10)
        kernel.run(Ain, np.ones(10), b, TITAN_RTX_SCALED)
        assert np.allclose(b, 1.0)

    @pytest.mark.parametrize("name", list(SPMV_KERNELS))
    def test_shape_check(self, name, block):
        kernel = SPMV_KERNELS[name]()
        A = block.to_dcsr() if kernel.wants_dcsr else block
        with pytest.raises(ShapeMismatchError):
            kernel.run(A, np.ones(block.n_cols + 1), np.ones(block.n_rows),
                       TITAN_RTX_SCALED)

    @pytest.mark.parametrize("name", list(SPMV_KERNELS))
    def test_float32(self, name, block):
        kernel = SPMV_KERNELS[name]()
        A32 = block.astype(np.float32)
        Ain = A32.to_dcsr() if kernel.wants_dcsr else A32
        x = np.ones(block.n_cols, dtype=np.float32)
        b = np.zeros(block.n_rows, dtype=np.float32)
        kernel.run(Ain, x, b, TITAN_RTX_SCALED)
        assert b.dtype == np.float32
        assert np.allclose(b, -block.to_dense() @ np.ones(block.n_cols), atol=1e-3)


class TestCostShape:
    def test_scalar_beats_vector_on_short_rows(self):
        A = rect(3000, 3000, 0.0005, seed=3)  # ~1.5 nnz/row
        x = np.ones(3000)
        t = {}
        for K in (ScalarCSRSpMV, VectorCSRSpMV):
            b = np.zeros(3000)
            t[K.__name__] = K().run(A, x, b, TITAN_RTX_SCALED).time_s
        assert t["ScalarCSRSpMV"] < t["VectorCSRSpMV"]

    def test_vector_beats_scalar_on_long_rows(self):
        A = rect(400, 4000, 0.12, seed=4)  # ~480 nnz/row
        x = np.ones(4000)
        t = {}
        for K in (ScalarCSRSpMV, VectorCSRSpMV):
            b = np.zeros(400)
            t[K.__name__] = K().run(A, x, b, TITAN_RTX_SCALED).time_s
        assert t["VectorCSRSpMV"] < t["ScalarCSRSpMV"]

    def test_dcsr_beats_csr_when_mostly_empty(self):
        rng = np.random.default_rng(5)
        d = np.zeros((4000, 4000))
        active = rng.choice(4000, size=200, replace=False)
        for r in active:
            d[r, rng.choice(4000, size=3)] = 1.0
        A = CSRMatrix.from_dense(d)
        x = np.ones(4000)
        b1, b2 = np.zeros(4000), np.zeros(4000)
        t_csr = ScalarCSRSpMV().run(A, x, b1, TITAN_RTX_SCALED).time_s
        t_dcsr = ScalarDCSRSpMV().run(A.to_dcsr(), x, b2, TITAN_RTX_SCALED).time_s
        assert t_dcsr < t_csr
        assert np.allclose(b1, b2)

    def test_vector_dcsr_beats_vector_csr_when_mostly_empty(self):
        rng = np.random.default_rng(6)
        d = np.zeros((4000, 4000))
        active = rng.choice(4000, size=150, replace=False)
        for r in active:
            d[r, rng.choice(4000, size=40, replace=False)] = 1.0
        A = CSRMatrix.from_dense(d)
        x = np.ones(4000)
        b1, b2 = np.zeros(4000), np.zeros(4000)
        t_csr = VectorCSRSpMV().run(A, x, b1, TITAN_RTX_SCALED).time_s
        t_dcsr = VectorDCSRSpMV().run(A.to_dcsr(), x, b2, TITAN_RTX_SCALED).time_s
        assert t_dcsr < t_csr

    def test_narrow_span_cheaper_than_wide_span(self):
        """The blocking locality effect: same nnz, clustered columns are
        cheaper than scattered ones."""
        rng = np.random.default_rng(7)
        n = 20000
        rows = np.repeat(np.arange(2000), 4)
        narrow = CSRMatrix.from_coo(
            rows, rng.integers(0, 500, len(rows)), np.ones(len(rows)), (2000, n)
        )
        wide = CSRMatrix.from_coo(
            rows, rng.integers(0, n, len(rows)), np.ones(len(rows)), (2000, n)
        )
        x = np.ones(n)
        t_narrow = ScalarCSRSpMV().run(narrow, x, np.zeros(2000), TITAN_RTX_SCALED).time_s
        t_wide = ScalarCSRSpMV().run(wide, x, np.zeros(2000), TITAN_RTX_SCALED).time_s
        assert t_narrow < t_wide

    def test_imbalance_reported(self):
        d = np.zeros((64, 64))
        d[0, :] = 1.0
        d[1:, 0] = 1.0
        A = CSRMatrix.from_dense(d)
        rep = ScalarCSRSpMV().run(A, np.ones(64), np.zeros(64), TITAN_RTX_SCALED)
        assert rep.detail["imbalance"] > 2.0


class TestWidthContract:
    """``run`` takes either width: column ``j`` of a block update is the
    single-vector update of that column, bit for bit, in float64 and
    float32; the report is ``report(A, device, k)``."""

    @pytest.mark.parametrize("k", [0, 1, 2, 8])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("name", list(SPMV_KERNELS))
    def test_block_columns_equal_single_updates(self, name, dtype, k, block):
        kernel = SPMV_KERNELS[name]()
        A = block.astype(dtype)
        Ain = A.to_dcsr() if kernel.wants_dcsr else A
        rng = np.random.default_rng(44)
        X = rng.standard_normal((block.n_cols, max(k, 1))).astype(dtype)
        B = rng.standard_normal((block.n_rows, max(k, 1))).astype(dtype)
        if k == 0:
            X, B = X[:, 0].copy(), B[:, 0].copy()
        out = B.copy()
        report = kernel.run(Ain, X, out, TITAN_RTX_SCALED)
        assert out.dtype == dtype
        assert report == kernel.report(Ain, TITAN_RTX_SCALED, k)
        assert report.flops == 2.0 * block.nnz * max(k, 1)
        numeric = B.copy()
        kernel.run_numeric(Ain, X, numeric)
        assert np.array_equal(numeric, out)
        for j in range(k):
            bj = B[:, j].copy()
            kernel.run(Ain, X[:, j], bj, TITAN_RTX_SCALED)
            assert np.array_equal(out[:, j], bj), j

    def test_zero_width_reports_like_one(self, block):
        kernel = SPMV_KERNELS["vector-csr"]()
        assert kernel.report(block, TITAN_RTX_SCALED, 0) == kernel.report(
            block, TITAN_RTX_SCALED, 1
        )
