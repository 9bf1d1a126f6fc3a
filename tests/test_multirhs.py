"""Fused multi-RHS paths: matmat, and the width-agnostic sweep, SpTRSV
and SpMV kernel entry points on ``(n, k)`` blocks."""

import numpy as np
import pytest

from repro.errors import ShapeMismatchError
from repro.formats import CSRMatrix
from repro.gpu.device import TITAN_RTX_SCALED
from repro.kernels import (
    CuSparseLikeKernel,
    DiagonalKernel,
    LevelSetKernel,
    SPMV_KERNELS,
    SerialKernel,
    SyncFreeKernel,
    prepare_lower,
)
from repro.kernels.sweep import build_level_schedule, sweep_solve

from conftest import random_lower, random_square

DEV = TITAN_RTX_SCALED


class TestMatmat:
    def test_csr_matches_dense(self, rng):
        A = random_square(30, 0.2, seed=1)
        X = rng.standard_normal((30, 5))
        assert np.allclose(A.matmat(X), A.to_dense() @ X)

    def test_csr_single_column_matches_matvec(self, rng):
        A = random_square(25, 0.25, seed=2)
        x = rng.standard_normal(25)
        assert np.allclose(A.matmat(x[:, None])[:, 0], A.matvec(x))

    def test_csr_shape_check(self):
        A = random_square(10, 0.3)
        with pytest.raises(ShapeMismatchError):
            A.matmat(np.ones((11, 2)))
        with pytest.raises(ShapeMismatchError):
            A.matmat(np.ones(10))

    def test_dcsr_matches_csr(self, rng):
        d = np.zeros((40, 40))
        d[::5] = (rng.random((8, 40)) < 0.3) * rng.standard_normal((8, 40))
        A = CSRMatrix.from_dense(d)
        X = rng.standard_normal((40, 3))
        assert np.allclose(A.to_dcsr().matmat(X), A.matmat(X))


class TestSweepSolveMulti:
    def test_matches_columnwise(self, medium_lower, rng):
        sched = build_level_schedule(prepare_lower(medium_lower))
        B = rng.standard_normal((medium_lower.n_rows, 6))
        X = sweep_solve(sched, B)
        for j in range(6):
            assert np.array_equal(X[:, j], sweep_solve(sched, B[:, j]))

    def test_shape_check(self, medium_lower):
        sched = build_level_schedule(prepare_lower(medium_lower))
        n = medium_lower.n_rows
        for bad in (np.ones((n + 1, 2)), np.ones((n, 2, 1)), np.ones(n - 1)):
            with pytest.raises(ShapeMismatchError):
                sweep_solve(sched, bad)


class TestKernelSolveMulti:
    @pytest.mark.parametrize(
        "kernel_cls", [LevelSetKernel, SyncFreeKernel, CuSparseLikeKernel]
    )
    def test_fused_correct_and_amortized(self, kernel_cls, medium_lower, rng):
        kernel = kernel_cls()
        prep = prepare_lower(medium_lower)
        aux, _ = kernel.preprocess(prep, DEV)
        B = rng.standard_normal((medium_lower.n_rows, 8))
        X, fused = kernel.solve(aux, B, DEV)
        for j in range(8):
            xj, single = kernel.solve(aux, B[:, j], DEV)
            assert np.allclose(X[:, j], xj, rtol=1e-11)
        assert fused.detail["fused"] is True
        assert fused.time_s < 8 * single.time_s

    def test_serial_kernel_fallback(self, small_lower, rng):
        kernel = SerialKernel()
        prep = prepare_lower(small_lower)
        aux, _ = kernel.preprocess(prep, DEV)
        B = rng.standard_normal((small_lower.n_rows, 3))
        X, report = kernel.solve(aux, B, DEV)
        assert report.detail["fused"] is False
        for j in range(3):
            assert np.allclose(small_lower.matvec(X[:, j]), B[:, j], atol=1e-9)

    def test_diagonal_fused(self, rng):
        L = CSRMatrix.from_dense(np.diag(rng.random(20) + 1))
        kernel = DiagonalKernel()
        aux, _ = kernel.preprocess(prepare_lower(L), DEV)
        B = rng.standard_normal((20, 4))
        X, report = kernel.solve(aux, B, DEV)
        assert np.allclose(X, B / aux.diag[:, None])
        assert report.detail["fused"] is True


class TestSpMVRunMulti:
    @pytest.mark.parametrize("name", list(SPMV_KERNELS))
    def test_fused_update(self, name, rng):
        A = random_square(60, 0.1, seed=3)
        kernel = SPMV_KERNELS[name]()
        Ain = A.to_dcsr() if kernel.wants_dcsr else A
        X = rng.standard_normal((60, 4))
        B = rng.standard_normal((60, 4))
        expect = B - A.to_dense() @ X
        report = kernel.run(Ain, X, B, DEV)
        assert np.allclose(B, expect)
        assert report.detail["n_rhs"] == 4
        assert report.flops == pytest.approx(2.0 * A.nnz * 4)

    @pytest.mark.parametrize("name", list(SPMV_KERNELS))
    def test_fused_cheaper_than_repeated(self, name, rng):
        A = random_square(2000, 0.003, seed=4)
        kernel = SPMV_KERNELS[name]()
        Ain = A.to_dcsr() if kernel.wants_dcsr else A
        X = rng.standard_normal((2000, 16))
        t_fused = kernel.run(Ain, X, np.zeros((2000, 16)), DEV).time_s
        t_single = kernel.run(Ain, X[:, 0], np.zeros(2000), DEV).time_s
        assert t_fused < 16 * t_single

    def test_shape_check(self):
        A = random_square(10, 0.3)
        kernel = SPMV_KERNELS["scalar-csr"]()
        with pytest.raises(ShapeMismatchError):
            kernel.run(A, np.ones((11, 2)), np.ones((10, 2)), DEV)
        with pytest.raises(ShapeMismatchError):
            kernel.run(A, np.ones((10, 2)), np.ones((10, 3)), DEV)


class TestFormatsWidth:
    """CSR/DCSR block products sum each column as ``matvec`` does, so
    they equal the per-column products bit for bit in float32 too (the
    kernels' width tests cover the sweep)."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("fmt", ["csr", "dcsr"])
    def test_matmat_columns_equal_matvec(self, fmt, dtype, rng):
        d = np.zeros((60, 50))
        d[::3] = (rng.random((20, 50)) < 0.3) * rng.standard_normal((20, 50))
        A = CSRMatrix.from_dense(d).astype(dtype)
        if fmt == "dcsr":
            A = A.to_dcsr()
        X = rng.standard_normal((50, 8)).astype(dtype)
        Y = A.matmat(X)
        assert Y.dtype == dtype
        assert np.array_equal(A.matvec(X), Y)
        for j in range(8):
            assert np.array_equal(Y[:, j], A.matvec(X[:, j])), j
