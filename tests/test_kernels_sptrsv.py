"""Correctness and timing-behaviour tests of the four SpTRSV kernels."""

import numpy as np
import pytest

from repro.errors import NotTriangularError
from repro.formats import CSRMatrix
from repro.gpu.device import TITAN_RTX_SCALED
from repro.kernels import (
    CuSparseLikeKernel,
    DiagonalKernel,
    LevelSetKernel,
    SerialKernel,
    SpTRSVKernel,
    SyncFreeKernel,
    prepare_lower,
    reference_dense_solve,
    solve_serial,
)
from repro.matrices.generators import chain_matrix, layered_random

from conftest import random_lower

PARALLEL_KERNELS = [LevelSetKernel, SyncFreeKernel, CuSparseLikeKernel]
ALL_KERNELS = PARALLEL_KERNELS + [SerialKernel]


@pytest.fixture
def system(medium_lower, rng):
    b = rng.standard_normal(medium_lower.n_rows)
    return medium_lower, b, solve_serial(medium_lower, b)


class TestSerialReference:
    def test_matches_dense_forward_substitution(self, small_lower, rng):
        b = rng.standard_normal(small_lower.n_rows)
        x = solve_serial(small_lower, b)
        assert np.allclose(x, reference_dense_solve(small_lower, b), atol=1e-10)

    def test_residual_is_small(self, small_lower, rng):
        b = rng.standard_normal(small_lower.n_rows)
        x = solve_serial(small_lower, b)
        assert np.allclose(small_lower.matvec(x), b, atol=1e-9)

    def test_identity(self):
        I = CSRMatrix.identity(5)
        assert np.allclose(solve_serial(I, np.arange(5.0)), np.arange(5.0))


class TestKernelCorrectness:
    @pytest.mark.parametrize("kernel_cls", ALL_KERNELS)
    def test_matches_serial(self, kernel_cls, system, scaled_device):
        L, b, x_ref = system
        x, report = kernel_cls().solve_system(L, b, scaled_device)
        assert np.allclose(x, x_ref, rtol=1e-9, atol=1e-11)
        assert report.time_s > 0
        assert report.flops == 2.0 * L.nnz

    @pytest.mark.parametrize("kernel_cls", PARALLEL_KERNELS)
    def test_chain_matrix(self, kernel_cls, scaled_device, rng):
        L = chain_matrix(200, rng=np.random.default_rng(3))
        b = rng.standard_normal(200)
        x, _ = kernel_cls().solve_system(L, b, scaled_device)
        assert np.allclose(L.matvec(x), b, atol=1e-8)

    @pytest.mark.parametrize("kernel_cls", PARALLEL_KERNELS)
    def test_float32(self, kernel_cls, scaled_device, rng):
        L = random_lower(120, 0.05, seed=31).astype(np.float32)
        b = rng.standard_normal(120).astype(np.float32)
        x, _ = kernel_cls().solve_system(L, b, scaled_device)
        assert np.allclose(L.matvec(x), b, atol=1e-3)

    @pytest.mark.parametrize("kernel_cls", PARALLEL_KERNELS)
    def test_dense_lower(self, kernel_cls, scaled_device, rng):
        d = np.tril(rng.standard_normal((40, 40)) * 0.1) + np.eye(40) * 2
        L = CSRMatrix.from_dense(d)
        b = rng.standard_normal(40)
        x, _ = kernel_cls().solve_system(L, b, scaled_device)
        assert np.allclose(x, np.linalg.solve(d, b), atol=1e-9)


class TestDiagonalKernel:
    def test_solves(self, scaled_device):
        L = CSRMatrix.from_dense(np.diag(np.arange(1.0, 9.0)))
        x, report = DiagonalKernel().solve_system(L, np.ones(8), scaled_device)
        assert np.allclose(x, 1.0 / np.arange(1.0, 9.0))
        assert report.launches == 1

    def test_rejects_offdiagonal(self, small_lower, scaled_device):
        k = DiagonalKernel()
        with pytest.raises(NotTriangularError):
            k.preprocess(prepare_lower(small_lower), scaled_device)


class TestTimingBehaviour:
    def test_levelset_launches_per_level(self, scaled_device):
        L = chain_matrix(64, extra_nnz_per_row=0.0, rng=np.random.default_rng(0))
        k = LevelSetKernel()
        _, report = k.solve_system(L, np.ones(64), scaled_device)
        assert report.launches == 64

    def test_syncfree_single_launch(self, medium_lower, scaled_device):
        _, report = SyncFreeKernel().solve_system(
            medium_lower, np.ones(medium_lower.n_rows), scaled_device
        )
        assert report.launches == 1

    def test_syncfree_preprocess_cheaper_than_cusparse(
        self, medium_lower, scaled_device
    ):
        """Table 5: Sync-free preprocessing is far cheaper than cuSPARSE
        analysis (2.34ms vs 91.32ms)."""
        prep = prepare_lower(medium_lower)
        _, sf = SyncFreeKernel().preprocess(prep, scaled_device)
        _, cu = CuSparseLikeKernel().preprocess(prep, scaled_device)
        assert sf.time_s < cu.time_s / 5

    def test_deeper_matrix_slower_levelset(self, scaled_device):
        rng = np.random.default_rng(0)
        shallow = layered_random(np.array([200, 200]), 4.0, rng)
        deep = chain_matrix(400, rng=np.random.default_rng(1))
        _, r_sh = LevelSetKernel().solve_system(
            shallow, np.ones(400), scaled_device
        )
        _, r_dp = LevelSetKernel().solve_system(deep, np.ones(400), scaled_device)
        assert r_dp.time_s > r_sh.time_s

    def test_cusparse_beats_levelset_on_deep(self, scaled_device):
        """The nlevels > threshold region of Figure 5(a)."""
        deep = chain_matrix(800, rng=np.random.default_rng(5))
        b = np.ones(800)
        _, ls = LevelSetKernel().solve_system(deep, b, scaled_device)
        _, cu = CuSparseLikeKernel().solve_system(deep, b, scaled_device)
        assert cu.time_s < ls.time_s

    def test_syncfree_collapses_on_deep_wide_rows(self, scaled_device):
        """Sync-free pays dependency-chain atomics; cuSPARSE steps levels
        cheaply (the vas_stokes pattern of Table 4)."""
        rng = np.random.default_rng(7)
        deep_wide = layered_random(
            np.full(300, 8, dtype=np.int64), nnz_per_row=20.0, rng=rng
        )
        b = np.ones(deep_wide.n_rows)
        _, sf = SyncFreeKernel().solve_system(deep_wide, b, scaled_device)
        _, cu = CuSparseLikeKernel().solve_system(deep_wide, b, scaled_device)
        assert sf.time_s > cu.time_s

    def test_cost_cached_across_solves(self, medium_lower, scaled_device):
        k = LevelSetKernel()
        prep = prepare_lower(medium_lower)
        aux, _ = k.preprocess(prep, scaled_device)
        _, r1 = k.solve(aux, np.ones(medium_lower.n_rows), scaled_device)
        _, r2 = k.solve(aux, np.zeros(medium_lower.n_rows), scaled_device)
        assert r1.time_s == r2.time_s

    def test_rtx_not_slower_than_x_scaled(self, medium_lower, scaled_devices):
        x_dev, rtx_dev = scaled_devices
        b = np.ones(medium_lower.n_rows)
        for K in PARALLEL_KERNELS:
            _, rx = K().solve_system(medium_lower, b, x_dev)
            _, rr = K().solve_system(medium_lower, b, rtx_dev)
            assert rr.time_s <= rx.time_s * 1.05, K.__name__


class TestPreparedLower:
    def test_astype(self, small_lower):
        prep = prepare_lower(small_lower).astype(np.float32)
        assert prep.L.dtype == np.float32
        assert prep.diag.dtype == np.float32
        assert prep.value_bytes == 4

    def test_fields(self, small_lower):
        prep = prepare_lower(small_lower)
        assert prep.n == small_lower.n_rows
        assert prep.nnz == small_lower.nnz
        assert prep.value_bytes == 8


WIDTHS = [0, 1, 2, 8]
KERNELS_5 = [SerialKernel, DiagonalKernel] + PARALLEL_KERNELS


def _aux(kernel, dtype, device):
    """A preprocessed system the kernel accepts, in ``dtype``."""
    if isinstance(kernel, DiagonalKernel):
        L = CSRMatrix.from_dense(np.diag(np.linspace(1.0, 3.0, 90)))
    else:
        L = random_lower(90, 0.08, seed=41)
    aux, _ = kernel.preprocess(prepare_lower(L.astype(dtype)), device)
    return aux


class TestWidthContract:
    """One numeric path and one report at every RHS width: column ``j``
    of a block solve is the single-vector solve of that column, bit for
    bit, in float64 and float32."""

    @pytest.mark.parametrize("k", WIDTHS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kernel_cls", KERNELS_5)
    def test_block_columns_equal_single_solves(
        self, kernel_cls, dtype, k, scaled_device
    ):
        kernel = kernel_cls()
        aux = _aux(kernel, dtype, scaled_device)
        B = np.random.default_rng(42).standard_normal((90, max(k, 1)))
        B = (B[:, 0] if k == 0 else B).astype(dtype)
        X, report = kernel.solve(aux, B, scaled_device)
        assert X.shape == B.shape and X.dtype == dtype
        assert np.array_equal(kernel.solve_numeric(aux, B, scaled_device), X)
        assert report == kernel.report(aux, scaled_device, k)
        for j in range(k):
            xj, _ = kernel.solve(aux, B[:, j], scaled_device)
            assert np.array_equal(X[:, j], xj), j

    @pytest.mark.parametrize("kernel_cls", KERNELS_5)
    def test_report_scales_with_width(self, kernel_cls, scaled_device):
        kernel = kernel_cls()
        aux = _aux(kernel, np.float64, scaled_device)
        single = kernel.report(aux, scaled_device, 0)
        assert "n_rhs" not in single.detail
        assert kernel.report(aux, scaled_device, 1).time_s == single.time_s
        block = kernel.report(aux, scaled_device, 8)
        assert block.detail["n_rhs"] == 8
        assert block.flops == 8 * single.flops
        # fused kernels beat eight separate calls; serial adds them up
        if kernel_cls is SerialKernel:
            assert block.detail["fused"] is False
            assert block.launches == 8 * single.launches
        else:
            assert block.detail["fused"] is True
            assert block.time_s < 8 * single.time_s

    def test_kernel_overriding_only_solve_keeps_working(self, scaled_device):
        class SolveOnly(SpTRSVKernel):
            """A third-party kernel with the pre-split interface."""

            inner = LevelSetKernel()

            def preprocess(self, prep, device):
                return self.inner.preprocess(prep, device)

            def solve(self, aux, b, device):
                return self.inner.solve(aux, b, device)

        kernel = SolveOnly()
        aux = _aux(kernel, np.float64, scaled_device)
        B = np.random.default_rng(43).standard_normal((90, 2))
        for b in (B[:, 0], B):
            ref, _ = LevelSetKernel().solve(aux, b, scaled_device)
            assert np.array_equal(
                kernel.solve_numeric(aux, b, scaled_device), ref
            )

    def test_kernel_with_neither_path_raises(self, scaled_device):
        class Empty(SpTRSVKernel):
            def preprocess(self, prep, device):
                return prep, None

        with pytest.raises(NotImplementedError):
            Empty().solve_numeric(None, np.ones(3), scaled_device)
        with pytest.raises(NotImplementedError):
            Empty().solve(None, np.ones(3), scaled_device)
