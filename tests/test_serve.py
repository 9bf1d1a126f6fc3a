"""Tests for the serving layer: fingerprints, plan cache, SolveService."""

import threading

import numpy as np
import pytest

from repro import (
    LevelSetSolver,
    ServiceOverloadedError,
    ServiceClosedError,
    register_solver,
    unregister_solver,
)
from repro.core.solver import TriangularSolver
from repro.errors import NotTriangularError
from repro.kernels import solve_serial
from repro.serve import (
    PlanCache,
    ServiceConfig,
    ServiceTimeoutError,
    SolveRequest,
    SolveService,
    matrix_fingerprint,
    mixed_workload,
    replay,
    structure_fingerprint,
    structure_key,
)
from repro.gpu.device import TITAN_RTX_SCALED, TITAN_X_SCALED

from conftest import random_lower, random_square


class TestFingerprint:
    def test_deterministic(self):
        L = random_lower(60, 0.1, seed=1)
        assert matrix_fingerprint(L) == matrix_fingerprint(L.copy())

    def test_value_change_changes_fingerprint(self):
        L = random_lower(60, 0.1, seed=1)
        M = L.copy()
        M.data[0] += 1.0
        assert matrix_fingerprint(L) != matrix_fingerprint(M)

    def test_structure_change_changes_fingerprint(self):
        L = random_lower(60, 0.1, seed=1)
        M = random_lower(60, 0.1, seed=2)
        assert matrix_fingerprint(L) != matrix_fingerprint(M)

    def test_structure_key_separates_method_device_options(self):
        fp = structure_fingerprint(random_lower(30, 0.2, seed=3))
        base = structure_key(fp, "recursive-block", TITAN_RTX_SCALED, {})
        assert base != structure_key(fp, "levelset", TITAN_RTX_SCALED, {})
        assert base != structure_key(fp, "recursive-block", TITAN_X_SCALED, {})
        assert base != structure_key(
            fp, "recursive-block", TITAN_RTX_SCALED, {"depth": 2}
        )


class TestPlanCache:
    def test_lru_eviction_and_stats(self):
        cache = PlanCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        st = cache.stats()
        assert st.evictions == 1 and st.size == 2
        assert st.hits == 3 and st.misses == 1

    def test_get_or_build_single_build(self):
        cache = PlanCache(capacity=4)
        calls = []
        value, hit = cache.get_or_build("k", lambda: calls.append(1) or "v")
        assert (value, hit) == ("v", False)
        value, hit = cache.get_or_build("k", lambda: calls.append(1) or "v2")
        assert (value, hit) == ("v", True)
        assert len(calls) == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


class TestSolveService:
    def test_miss_then_hit_skips_preprocessing(self, rng):
        L = random_lower(150, 0.05, seed=5)
        with SolveService(cache_capacity=4, max_workers=2) as svc:
            r1 = svc.solve(L, rng.standard_normal(150))
            r2 = svc.solve(L, rng.standard_normal(150))
            recs = svc.records()
        assert not r1.cache_hit and r2.cache_hit
        assert recs[0].prep_time_s > 0 and recs[1].prep_time_s == 0.0
        assert recs[1].sim_latency_s < recs[0].sim_latency_s

    def test_solutions_exact(self, rng):
        L = random_lower(120, 0.06, seed=6)
        b = rng.standard_normal(120)
        with SolveService() as svc:
            res = svc.solve(L, b)
        assert np.allclose(res.x, solve_serial(L, b), rtol=1e-9)

    def test_upper_triangular_round_trip(self, rng):
        U = random_lower(90, 0.07, seed=7).transpose()
        b = rng.standard_normal(90)
        with SolveService() as svc:
            r1 = svc.solve(U, b)
            r2 = svc.solve(U, b)
        assert np.allclose(U.to_dense() @ r1.x, b, atol=1e-8)
        assert r2.cache_hit and np.allclose(r1.x, r2.x)

    def test_rejects_non_triangular(self):
        A = random_square(25, 0.5, seed=8)
        with SolveService() as svc:
            with pytest.raises(NotTriangularError):
                svc.solve(A, np.ones(25))
            assert svc.stats().failed == 1

    def test_batch_coalesces_same_matrix(self, rng):
        L = random_lower(130, 0.05, seed=9)
        M = random_lower(110, 0.05, seed=10)
        reqs = [
            SolveRequest(A=L, b=rng.standard_normal(130)),
            SolveRequest(A=M, b=rng.standard_normal(110)),
            SolveRequest(A=L, b=rng.standard_normal(130)),
            SolveRequest(A=L, b=rng.standard_normal((130, 3))),
        ]
        with SolveService(max_workers=4) as svc:
            out = svc.solve_batch(reqs)
            stats = svc.stats()
        for rq, res in zip(reqs, out):
            B = rq.b if rq.b.ndim == 2 else rq.b[:, None]
            X = np.asarray(res.x)
            X = X if X.ndim == 2 else X[:, None]
            assert np.allclose(rq.A.matmat(X), B, atol=1e-8)
        # The three L requests (5 columns total) ran as one fused solve.
        assert stats.coalesced_requests == 3
        assert stats.total_rhs == 6
        l_recs = [r for r in svc.records() if r.fingerprint == matrix_fingerprint(L)]
        assert all(r.coalesced == 3 for r in l_recs)

    def test_fallback_on_planner_failure(self):
        class Exploding(TriangularSolver):
            method = "exploding-test"

            def _prepare(self, L):
                raise RuntimeError("boom")

        register_solver("exploding-test", Exploding)
        try:
            L = random_lower(80, 0.08, seed=11)
            with SolveService(cache_capacity=4) as svc:
                r1 = svc.solve(L, np.ones(80), method="exploding-test")
                r2 = svc.solve(L, np.ones(80), method="exploding-test")
                stats = svc.stats()
            assert r1.fallback and r1.method == "levelset" and not r1.cache_hit
            assert r2.fallback and r2.cache_hit
            assert stats.fallbacks == 2
            assert np.allclose(L.matvec(r1.x), np.ones(80), atol=1e-9)
        finally:
            unregister_solver("exploding-test")

    def test_failure_propagates_when_fallback_disabled(self):
        class Exploding(TriangularSolver):
            method = "exploding-test2"

            def _prepare(self, L):
                raise RuntimeError("boom")

        register_solver("exploding-test2", Exploding)
        try:
            L = random_lower(40, 0.1, seed=12)
            with SolveService(fallback=False) as svc:
                with pytest.raises(RuntimeError):
                    svc.solve(L, np.ones(40), method="exploding-test2")
                assert svc.stats().failed == 1
        finally:
            unregister_solver("exploding-test2")

    def test_cache_eviction_under_pressure(self, rng):
        mats = [random_lower(70 + 10 * i, 0.08, seed=20 + i) for i in range(4)]
        with SolveService(cache_capacity=2) as svc:
            for A in mats:
                svc.solve(A, rng.standard_normal(A.n_rows))
            stats_tour = svc.stats()
            # Every request was a distinct matrix: all misses, 2 evictions.
            assert stats_tour.cache_misses == 4 and stats_tour.cache_hits == 0
            assert stats_tour.evictions == 2
            # The two most recent plans are resident; older ones rebuild.
            assert svc.solve(mats[3], rng.standard_normal(mats[3].n_rows)).cache_hit
            assert not svc.solve(mats[0], rng.standard_normal(mats[0].n_rows)).cache_hit

    def test_expired_deadline_times_out(self):
        L = random_lower(60, 0.1, seed=13)
        with SolveService() as svc:
            fut = svc.submit(L, np.ones(60), timeout_s=-1.0)
            with pytest.raises(ServiceTimeoutError):
                fut.result()
            stats = svc.stats()
        assert stats.timeouts == 1 and stats.failed == 0

    def test_overload_raises(self):
        release = threading.Event()

        class Slow(TriangularSolver):
            method = "slow-test"

            def _prepare(self, L):
                release.wait(timeout=30)
                return LevelSetSolver(device=self.device).prepare(L)

        register_solver("slow-test", Slow)
        try:
            L = random_lower(50, 0.1, seed=14)
            svc = SolveService(max_workers=1, queue_limit=1)
            fut = svc.submit(L, np.ones(50), method="slow-test")
            with pytest.raises(ServiceOverloadedError):
                svc.submit(L, np.ones(50))
            release.set()
            assert np.allclose(L.matvec(fut.result()[0].x), np.ones(50), atol=1e-9)
            svc.close()
        finally:
            release.set()
            unregister_solver("slow-test")

    def test_closed_service_rejects(self):
        svc = SolveService()
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.submit(random_lower(20, 0.2, seed=15), np.ones(20))

    def test_registered_solver_usable_by_name(self):
        class Custom(LevelSetSolver):
            method = "custom-levelset"

        register_solver("custom-levelset", Custom)
        try:
            L = random_lower(60, 0.1, seed=16)
            with SolveService() as svc:
                res = svc.solve(L, np.ones(60), method="custom-levelset")
            assert res.method == "custom-levelset" and not res.fallback
        finally:
            unregister_solver("custom-levelset")

    def test_concurrent_same_matrix_builds_once(self, rng):
        L = random_lower(200, 0.04, seed=17)
        with SolveService(max_workers=4) as svc:
            futures = [svc.submit(L, rng.standard_normal(200)) for _ in range(8)]
            results = [f.result()[0] for f in futures]
            assert svc.cache.stats().size == 1
        # Single-flight: exactly one request paid preprocessing.
        assert sum(1 for r in results if not r.cache_hit) == 1

    def test_stats_render_and_dict(self, rng):
        L = random_lower(80, 0.08, seed=18)
        with SolveService() as svc:
            svc.solve(L, rng.standard_normal(80))
            svc.solve(L, rng.standard_normal(80))
            stats = svc.stats()
        d = stats.as_dict()
        assert d["requests"] == 2 and d["cache_hits"] == 1
        assert d["cache"]["capacity"] == svc.cache.capacity
        text = stats.render()
        assert "hits" in text and "speedup" in text

    def test_invalid_config_method(self):
        with pytest.raises(ValueError):
            SolveService(method="no-such-method")

    def test_invalid_config_options(self):
        with pytest.raises(ValueError):
            SolveService(solver_options={"dpeth": 3})


class TestWorkload:
    def test_mixed_workload_deterministic(self):
        w1 = mixed_workload(12, scale=0.02, n_matrices=3, seed=4)
        w2 = mixed_workload(12, scale=0.02, n_matrices=3, seed=4)
        assert [n for n, _ in w1.stream] == [n for n, _ in w2.stream]
        assert w1.n_requests == 12 and len(w1.matrices) == 3

    def test_replay_batched_and_single(self):
        workload = mixed_workload(8, scale=0.02, n_matrices=2, seed=5)
        cfg = ServiceConfig(cache_capacity=4, max_workers=2)
        with SolveService(cfg) as svc:
            results = replay(svc, workload, batch_size=4)
            assert len(results) == 8
            assert svc.stats().requests == 8
        with SolveService(cfg) as svc:
            results = replay(svc, workload)
            assert len(results) == 8
            stats = svc.stats()
            assert stats.cache_misses == 2  # one per distinct matrix
            assert stats.cache_hits == 6
