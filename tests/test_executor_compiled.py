"""The compiled zero-allocation executor (:mod:`repro.core.executor`).

CompiledPlan must be a drop-in for ``plan.solve``/``plan.solve_multi``:
same solution, same dtype promotion, same simulated report — while warm
solves allocate nothing but the result array.  The arena pool is shared
by the serve thread pool, so buffer reuse across concurrent requests
must never leak one request's data into another's answer.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import Observability
from repro.core.executor import _POOL_KEEP, CompiledPlan, compile_plan
from repro.core.solver import SOLVERS, PreparedSolve
from repro.gpu.device import TITAN_RTX_SCALED
from repro.kernels.sptrsv_serial import solve_serial

from conftest import random_lower

DEVICE = TITAN_RTX_SCALED

METHODS = ["serial", "levelset", "cusparse", "syncfree",
           "column-block", "row-block", "recursive-block"]


def _prepared(method, n=120, seed=0, density=0.08):
    L = random_lower(n, density, seed=seed)
    solver = SOLVERS[method](device=DEVICE)
    return L, solver.prepare(L)


@pytest.mark.parametrize("method", METHODS)
def test_matches_plan_path_single_rhs(method):
    L, prepared = _prepared(method)
    compiled = compile_plan(prepared.plan, DEVICE)
    rng = np.random.default_rng(1)
    for _ in range(3):  # repeats land on the pooled arena
        b = rng.standard_normal(L.n_rows)
        x_ref, rep_ref = prepared.plan.solve(b, DEVICE)
        x, rep = compiled.solve(b)
        np.testing.assert_allclose(x, x_ref, rtol=1e-9, atol=1e-12)
        assert x.dtype == x_ref.dtype
        assert rep.time_s == rep_ref.time_s
        assert rep.launches == rep_ref.launches
        assert rep.flops == rep_ref.flops


@pytest.mark.parametrize("method", ["levelset", "recursive-block", "row-block"])
def test_matches_plan_path_multi_rhs(method):
    L, prepared = _prepared(method)
    compiled = compile_plan(prepared.plan, DEVICE)
    rng = np.random.default_rng(2)
    for k in (1, 2, 3, 7):
        B = rng.standard_normal((L.n_rows, k))
        X_ref, rep_ref = prepared.plan.solve_multi(B, DEVICE)
        first = None
        for _ in range(2):  # first call freezes this width's reports
            X, rep = compiled.solve_multi(B)
            np.testing.assert_allclose(X, X_ref, rtol=1e-9, atol=1e-12)
            assert X.shape == (L.n_rows, k)
            assert rep.time_s == rep_ref.time_s
            assert rep.launches == rep_ref.launches
            if first is None:
                first = X
        # the first solve at a new width is no special case
        assert np.array_equal(first, X)


def test_frozen_report_is_fresh_per_solve():
    L, prepared = _prepared("recursive-block")
    compiled = compile_plan(prepared.plan, DEVICE)
    b = np.ones(L.n_rows)
    _, rep1 = compiled.solve(b)
    _, rep2 = compiled.solve(b)
    assert rep1 is not rep2
    rep1.detail["mutated"] = True
    rep1.kernels.clear()
    _, rep3 = compiled.solve(b)
    assert "mutated" not in rep3.detail
    assert rep3.kernels  # caller mutation never reaches the frozen copy


class TestDtypes:
    def test_float32_rhs_stays_float32(self):
        L, prepared = _prepared("levelset")
        compiled = compile_plan(prepared.plan, DEVICE)
        b = np.linspace(-1, 1, L.n_rows).astype(np.float32)
        x, _ = compiled.solve(b)
        x_ref, _ = prepared.plan.solve(b, DEVICE)
        assert x.dtype == np.float32 == x_ref.dtype
        np.testing.assert_allclose(x, x_ref, rtol=1e-5)

    @pytest.mark.parametrize("dt", [np.int32, np.int64])
    def test_integer_rhs_promotes_to_float64(self, dt):
        L, prepared = _prepared("recursive-block")
        compiled = compile_plan(prepared.plan, DEVICE)
        b = np.arange(L.n_rows, dtype=dt) % 7 - 3
        x, _ = compiled.solve(b)
        assert x.dtype == np.float64
        np.testing.assert_allclose(
            x, solve_serial(L, b.astype(np.float64)), rtol=1e-9
        )

    def test_integer_multi_rhs_promotes(self):
        L, prepared = _prepared("levelset")
        compiled = compile_plan(prepared.plan, DEVICE)
        B = (np.arange(L.n_rows * 3, dtype=np.int64) % 5).reshape(-1, 3)
        X, _ = compiled.solve_multi(B)
        assert X.dtype == np.float64
        X_ref, _ = prepared.plan.solve_multi(B, DEVICE)
        np.testing.assert_allclose(X, X_ref, rtol=1e-9)

    def test_mixed_dtype_streams_share_the_plan(self):
        # Alternating dtypes must each get their own pooled arenas.
        L, prepared = _prepared("recursive-block")
        compiled = compile_plan(prepared.plan, DEVICE)
        rng = np.random.default_rng(3)
        for _ in range(3):
            b64 = rng.standard_normal(L.n_rows)
            b32 = b64.astype(np.float32)
            x64, _ = compiled.solve(b64)
            x32, _ = compiled.solve(b32)
            assert x64.dtype == np.float64 and x32.dtype == np.float32
            np.testing.assert_allclose(x32, x64, rtol=1e-4, atol=1e-5)


class TestShapeChecks:
    def test_single_rhs_wrong_length(self):
        _, prepared = _prepared("levelset", n=50)
        compiled = compile_plan(prepared.plan, DEVICE)
        with pytest.raises(Exception):
            compiled.solve(np.ones(49))

    def test_multi_rhs_wrong_rows(self):
        _, prepared = _prepared("levelset", n=50)
        compiled = compile_plan(prepared.plan, DEVICE)
        with pytest.raises(Exception):
            compiled.solve_multi(np.ones((49, 2)))


def test_non_pure_kernel_rebuilds_its_report():
    L, prepared = _prepared("levelset")
    plan = prepared.plan
    kernel = plan.segments[0].kernel
    # Simulate a third-party kernel that never opted into pure_report.
    type(kernel).pure_report = False
    try:
        compiled = CompiledPlan(plan, DEVICE)
        assert compiled.pure is False
        calls = []
        real_solve = kernel.solve

        def counting_solve(aux, b, device):
            calls.append(1)
            return real_solve(aux, b, device)

        kernel.solve = counting_solve
        b = np.ones(L.n_rows)
        for n_calls in (1, 2):  # no report frozen: one rebuild per solve
            x, rep = compiled.solve(b)
            assert len(calls) == n_calls
        del kernel.solve
        x_ref, rep_ref = plan.solve(b, DEVICE)
        np.testing.assert_allclose(x, x_ref, rtol=1e-12)
        assert rep.time_s == rep_ref.time_s
        X, _ = compiled.solve_multi(np.ones((L.n_rows, 2)))
        X_ref, _ = plan.solve_multi(np.ones((L.n_rows, 2)), DEVICE)
        np.testing.assert_allclose(X, X_ref, rtol=1e-12)
        # ordered execution runs the same steps
        assert np.array_equal(compiled.solve_ordered(b, [0]), x)
    finally:
        type(kernel).pure_report = True


def test_compile_failure_is_visible(monkeypatch):
    import repro.core.solver as solver_mod
    from repro import ServiceConfig, SolveService

    real = solver_mod.compile_plan

    def flaky(plan, device, **kwargs):
        if plan.method == "row-block":
            raise RuntimeError("injected compile failure")
        return real(plan, device, **kwargs)

    monkeypatch.setattr(solver_mod, "compile_plan", flaky)
    L, prepared = _prepared("row-block")
    b = np.ones(L.n_rows)
    # No silent answer from a second execution path.
    with pytest.raises(RuntimeError, match="injected"):
        prepared.solve(b)
    obs = Observability()
    config = ServiceConfig(device=DEVICE, method="row-block", obs=obs)
    with SolveService(config) as svc:
        res = svc.solve(L, b)
        stats = svc.stats()
    assert res.fallback and res.method == "levelset"
    np.testing.assert_allclose(res.x, solve_serial(L, b), rtol=1e-9)
    assert stats.fallbacks == 1
    assert obs.serve_metrics.fallbacks_total.total() == 1
    assert "repro_fallbacks_total 1" in obs.to_prometheus()


def test_obs_active_takes_the_instrumented_path():
    L, prepared = _prepared("recursive-block")
    compiled = prepared.compile()
    obs = Observability()
    with obs.activate():
        x, rep = prepared.solve(np.ones(L.n_rows))
    # The traced solve ran the compiled steps through the loop's step
    # hook: one profile row per segment.
    assert len(rep.profile) == len(prepared.plan.segments)
    assert obs.serve_metrics.solves_total.value(method="recursive-block") == 1
    np.testing.assert_allclose(x, compiled.solve(np.ones(L.n_rows))[0],
                               rtol=1e-9)


def test_prepared_solve_compiles_lazily_and_caches():
    L, prepared = _prepared("levelset")
    assert isinstance(prepared, PreparedSolve)
    c1 = prepared.compile()
    c2 = prepared.compile()
    assert c1 is c2
    x, _ = prepared.solve(np.ones(L.n_rows))
    np.testing.assert_allclose(x, solve_serial(L, np.ones(L.n_rows)),
                               rtol=1e-9)


def test_arena_pool_stays_bounded():
    L, prepared = _prepared("levelset", n=80)
    compiled = compile_plan(prepared.plan, DEVICE)
    b = np.ones(L.n_rows)
    for _ in range(3 * _POOL_KEEP):
        compiled.solve(b)
    free = compiled._pool._free
    assert all(len(stack) <= _POOL_KEEP for stack in free.values())
    # Sequential solves reuse one arena; the free list stays tiny.
    assert sum(len(stack) for stack in free.values()) <= 2


class TestThreadPoolStress:
    """Arena reuse must never leak state across concurrent requests."""

    @pytest.mark.parametrize("method", ["levelset", "recursive-block"])
    def test_concurrent_single_rhs(self, method):
        L, prepared = _prepared(method, n=150, seed=5)
        compiled = prepared.compile()
        rng = np.random.default_rng(6)
        rhs = [rng.standard_normal(L.n_rows) for _ in range(32)]
        expected = [solve_serial(L, b) for b in rhs]
        barrier = threading.Barrier(8)

        def worker(idx):
            barrier.wait(timeout=10.0)
            errs = []
            for j in range(idx, len(rhs), 8):
                x, _ = compiled.solve(rhs[j])
                errs.append(float(np.max(np.abs(x - expected[j]))))
            return max(errs)

        with ThreadPoolExecutor(max_workers=8) as pool:
            worst = max(pool.map(worker, range(8)))
        assert worst < 1e-8

    def test_concurrent_mixed_widths_and_dtypes(self):
        L, prepared = _prepared("recursive-block", n=120, seed=7)
        compiled = prepared.compile()
        rng = np.random.default_rng(8)
        jobs = []
        for i in range(24):
            if i % 3 == 0:
                b = rng.standard_normal((L.n_rows, 2 + i % 4))
            elif i % 3 == 1:
                b = rng.standard_normal(L.n_rows).astype(np.float32)
            else:
                b = rng.standard_normal(L.n_rows)
            jobs.append(b)

        def expected(b):
            if b.ndim == 2:
                return np.stack(
                    [solve_serial(L, b[:, j]) for j in range(b.shape[1])],
                    axis=1,
                )
            return solve_serial(L, b.astype(np.float64))

        refs = [expected(b) for b in jobs]

        def worker(i):
            b = jobs[i]
            x, _ = compiled.solve_multi(b) if b.ndim == 2 else compiled.solve(b)
            tol = 1e-4 if x.dtype == np.float32 else 1e-8
            assert float(np.max(np.abs(x - refs[i]))) < tol
            return True

        with ThreadPoolExecutor(max_workers=6) as pool:
            assert all(pool.map(worker, range(len(jobs))))
