"""Structural batching: two-level fingerprints, pattern-cache rebinding,
fused same-pattern buckets, and the BatchResult surface."""

from dataclasses import replace

import numpy as np
import pytest

from repro import (
    PreparedSolve,
    RecursiveBlockSolver,
    SolveService,
    available_methods,
    register_solver,
    solve_triangular,
    unregister_solver,
)
import repro.core.executor as executor_mod
from repro.core.executor import _ArenaPool
from repro.core.rebind import PlanRebinder, RebindError, tracer_matrix
from repro.gpu.device import TITAN_RTX_SCALED
from repro.serve import (
    BatchResult,
    BucketInfo,
    SolveRequest,
    fingerprints,
    matrix_fingerprint,
    revalued_workload,
    structure_fingerprint,
    structure_key,
    values_fingerprint,
)

from conftest import random_lower


def revalue(A, seed=0, lo=0.5, hi=1.5):
    """A values variant of ``A`` sharing its sparsity pattern."""
    rng = np.random.default_rng(seed)
    factors = rng.uniform(lo, hi, A.nnz).astype(A.data.dtype)
    return replace(A, data=(A.data * factors).astype(A.data.dtype),
                   _validated=True)


class TestTwoLevelFingerprints:
    def test_full_digest_matches_legacy_matrix_fingerprint(self):
        L = random_lower(80, 0.08, seed=1)
        full, sfp, vfp = fingerprints(L)
        assert full == matrix_fingerprint(L)
        assert sfp == structure_fingerprint(L)
        assert vfp == values_fingerprint(L)

    def test_structure_invariant_under_revaluing(self):
        L = random_lower(80, 0.08, seed=2)
        L2 = revalue(L, seed=3)
        assert structure_fingerprint(L) == structure_fingerprint(L2)
        assert values_fingerprint(L) != values_fingerprint(L2)
        assert matrix_fingerprint(L) != matrix_fingerprint(L2)

    def test_upper_mirror_gets_distinct_structure_key(self):
        L = random_lower(60, 0.1, seed=4)
        U = L.transpose()
        assert structure_fingerprint(L) != structure_fingerprint(U)
        kL = structure_key(structure_fingerprint(L), "levelset",
                           TITAN_RTX_SCALED, values_dtype=L.data.dtype)
        kU = structure_key(structure_fingerprint(U), "levelset",
                           TITAN_RTX_SCALED, values_dtype=U.data.dtype)
        assert kL != kU

    def test_structure_key_separates_dtypes(self):
        sfp = "ab" * 16
        k64 = structure_key(sfp, "levelset", TITAN_RTX_SCALED,
                            values_dtype=np.dtype(np.float64))
        k32 = structure_key(sfp, "levelset", TITAN_RTX_SCALED,
                            values_dtype=np.dtype(np.float32))
        assert k64 != k32


class TestRebinder:
    def test_rebound_plan_is_bit_identical_to_direct_build(self):
        L = random_lower(150, 0.06, seed=5)
        solver = RecursiveBlockSolver(device=TITAN_RTX_SCALED)
        prepared_t = solver.prepare(tracer_matrix(L))
        binder = PlanRebinder(prepared_t.plan, L.nnz, L.data.dtype)
        plan = binder.bind(L.data)
        direct = solver.prepare(L)
        b = np.random.default_rng(6).standard_normal(L.n_rows)
        x, _ = plan.solve(b, TITAN_RTX_SCALED)
        x_ref, _ = direct.plan.solve(b, TITAN_RTX_SCALED)
        assert np.array_equal(x, x_ref)

    def test_rebinder_rejects_dtype_mismatch(self):
        L = random_lower(40, 0.2, seed=7)
        L32 = replace(L, data=L.data.astype(np.float32), _validated=True)
        assert tracer_matrix(L32).data.dtype == np.float32
        with pytest.raises(RebindError):
            PlanRebinder(
                RecursiveBlockSolver(device=TITAN_RTX_SCALED)
                .prepare(tracer_matrix(L)).plan,
                L.nnz,
                np.float32,  # plan arrays are float64: dtype mismatch
            )

    def test_rebind_rechecks_diagonal(self):
        from repro.errors import SingularMatrixError

        L = random_lower(30, 0.2, seed=8)
        solver = RecursiveBlockSolver(device=TITAN_RTX_SCALED)
        prepared_t = solver.prepare(tracer_matrix(L))
        binder = PlanRebinder(prepared_t.plan, L.nnz, L.data.dtype)
        bad = L.data.copy()
        diag_rows = np.repeat(np.arange(L.n_rows), L.row_counts())
        bad[L.indices == diag_rows] = 0.0
        with pytest.raises(SingularMatrixError):
            binder.bind(bad)


class TestArenaPoolRelease:
    def test_release_keyed_by_arena_itself(self):
        pool = _ArenaPool(32, lambda dt: None, with_out=True)
        a64 = pool.acquire(np.dtype(np.float64), 0)
        assert a64.key == (np.dtype(np.float64), 0)
        pool.release(a64)
        assert pool.acquire(np.dtype(np.float64), 0) is a64
        # A dtype-mismatched arena can no longer poison the wrong bin:
        # the key travels with the arena.
        a32 = pool.acquire(np.dtype(np.float32), 0)
        pool.release(a32)
        pool.release(a64)
        assert pool.acquire(np.dtype(np.float32), 0) is a32
        assert pool.acquire(np.dtype(np.float64), 0) is a64


class TestStructuralService:
    def test_values_only_change_hits_pattern_cache(self):
        L = random_lower(120, 0.06, seed=10)
        L2 = revalue(L, seed=11)
        b = np.random.default_rng(12).standard_normal(L.n_rows)
        with SolveService(max_workers=1, cache_capacity=4) as svc:
            r1 = svc.solve(L, b)
            r2 = svc.solve(L2, b)
            recs = svc.records()
        assert not r1.cache_hit and not r2.cache_hit
        assert not recs[0].pattern_hit and recs[1].pattern_hit
        # The rebind prep is strictly cheaper than the full plan build.
        assert 0 < recs[1].prep_time_s < recs[0].prep_time_s
        x_ref, _ = solve_triangular(L2, b, method="serial")
        assert np.allclose(r2.x, x_ref, rtol=1e-9, atol=1e-12)

    def test_pattern_hit_skips_replanning(self):
        calls = {"prepare": 0}

        class CountingSolver(RecursiveBlockSolver):
            method = "counting-rb"

            def _prepare(self, L):
                calls["prepare"] += 1
                return super()._prepare(L)

        register_solver("counting-rb", CountingSolver)
        try:
            L = random_lower(100, 0.07, seed=13)
            variants = [revalue(L, seed=s) for s in (14, 15, 16)]
            b = np.ones(L.n_rows)
            with SolveService(method="counting-rb", max_workers=1) as svc:
                for V in variants:
                    svc.solve(V, b)
        finally:
            unregister_solver("counting-rb")
        # One tracer build serves every values variant.
        assert calls["prepare"] == 1

    def test_same_pattern_different_dtypes_never_fuse(self):
        L = random_lower(90, 0.08, seed=17)
        L32 = replace(L, data=L.data.astype(np.float32), _validated=True)
        b = np.ones(L.n_rows)
        with SolveService(max_workers=1) as svc:
            out = svc.solve_batch([(L, b), (L32, b)])
        assert len(out.buckets) == 2
        assert all(not bi.fused for bi in out.buckets)
        assert out.fused_requests == 0
        assert all(not r.fused for r in svc.records())

    def test_upper_and_lower_patterns_never_fuse(self):
        L = random_lower(70, 0.09, seed=18)
        U = L.transpose()
        b = np.ones(70)
        with SolveService(max_workers=1) as svc:
            out = svc.solve_batch([(L, b), (U, b)])
        assert len(out.buckets) == 2
        assert out.fused_requests == 0
        x_ref, _ = solve_triangular(U, b, method="serial")
        assert np.allclose(out[1].x, x_ref, rtol=1e-9, atol=1e-12)

    def test_single_request_bucket_is_bit_identical_to_solve(self):
        L = random_lower(110, 0.06, seed=19)
        b = np.random.default_rng(20).standard_normal(110)
        with SolveService(max_workers=1) as svc:
            warm = svc.solve(L, b)
            out = svc.solve_batch([(L, b)])
        assert len(out.buckets) == 1
        assert not out.buckets[0].fused
        assert np.array_equal(out[0].x, warm.x)

    def test_fused_bucket_bit_identical_to_per_request(self):
        L = random_lower(130, 0.05, seed=21)
        variants = [L] + [revalue(L, seed=s) for s in (22, 23)]
        b = np.random.default_rng(24).standard_normal(130)
        with SolveService(max_workers=2, cache_capacity=4) as svc:
            singles_warm = [svc.solve(V, b) for V in variants]
            out = svc.solve_batch([SolveRequest(A=V, b=b) for V in variants])
            singles = [svc.solve(V, b) for V in variants]
        assert len(out.buckets) == 1
        bi = out.buckets[0]
        assert bi.fused and bi.n_groups == 3 and bi.n_requests == 3
        assert out.fused_requests == 3
        for res, single, warm in zip(out, singles, singles_warm):
            assert np.array_equal(res.x, single.x)
            assert np.array_equal(res.x, warm.x)

    def test_first_fused_batch_bit_identical_to_per_request(self):
        # A fresh service's very first batch: every pattern meets its
        # fused widths here, with no warm-up solve before it.
        rng = np.random.default_rng(41)
        reqs = []
        for n, seed in ((140, 42), (170, 43)):
            L = random_lower(n, 0.05, seed=seed)
            for V in (revalue(L, seed=seed + 100), revalue(L, seed=seed + 200)):
                reqs += [SolveRequest(A=V, b=rng.standard_normal(n))
                         for _ in range(2)]
        with SolveService(max_workers=2, cache_capacity=8) as svc:
            out = svc.solve_batch(reqs)
            singles = [svc.solve(r.A, r.b) for r in reqs]
        assert out.fused_requests == len(reqs)
        for res, single in zip(out, singles):
            assert np.array_equal(res.x, single.x)

    @pytest.mark.parametrize("engine", [True, False], ids=["engine", "no-engine"])
    @pytest.mark.parametrize("method", available_methods())
    def test_float32_fused_batch_bit_identical_to_per_request(
        self, method, engine, monkeypatch
    ):
        # Each column of a fused solve must sum its products exactly as
        # a single-vector solve does, in single precision too; without
        # the SuperLU engine every step runs on the kernels' numerics.
        if not engine:
            monkeypatch.setattr(executor_mod, "_HAVE_SUPERLU", False)
        L = random_lower(300, 0.05, seed=61, dtype=np.float32)
        variants = [L, revalue(L, seed=62)]
        rng = np.random.default_rng(63)
        reqs = [
            SolveRequest(A=V, b=rng.standard_normal(300).astype(np.float32))
            for V in variants
            for _ in range(2)
        ]
        with SolveService(method=method, max_workers=1) as svc:
            out = svc.solve_batch(reqs)
            singles = [svc.solve(r.A, r.b) for r in reqs]
        assert out.fused_requests == len(reqs)
        for res, single in zip(out, singles):
            assert res.x.dtype == np.float32
            assert np.array_equal(res.x, single.x)

    def test_overlay_capacity_evicts_but_stays_correct(self):
        L = random_lower(80, 0.08, seed=27)
        variants = [revalue(L, seed=s) for s in range(28, 33)]
        b = np.random.default_rng(33).standard_normal(80)
        with SolveService(max_workers=1, overlay_capacity=1) as svc:
            for _ in range(2):  # second pass re-binds evicted overlays
                for V in variants:
                    res = svc.solve(V, b)
                    x_ref, _ = solve_triangular(V, b, method="serial")
                    assert np.allclose(res.x, x_ref, rtol=1e-9, atol=1e-12)
        recs = svc.records()
        assert sum(1 for r in recs if r.pattern_hit) == len(recs) - 1

    def test_non_rebindable_pattern_falls_back_to_full_builds(self):
        builds = {"n": 0}

        class OpaquePrepared(PreparedSolve):
            pass  # subclass: the service must refuse to rebind it

        class OpaqueSolver(RecursiveBlockSolver):
            method = "opaque-rb"

            def _prepare(self, L):
                builds["n"] += 1
                ps = super()._prepare(L)
                return OpaquePrepared(
                    method=self.method, plan=ps.plan, device=ps.device,
                    preprocess_report=ps.preprocess_report,
                )

        register_solver("opaque-rb", OpaqueSolver)
        try:
            L = random_lower(90, 0.07, seed=34)
            L2 = revalue(L, seed=35)
            b = np.ones(90)
            with SolveService(method="opaque-rb", max_workers=1) as svc:
                r1 = svc.solve(L, b)
                r2 = svc.solve(L2, b)
        finally:
            unregister_solver("opaque-rb")
        # tracer build + one full build per values vector
        assert builds["n"] == 3
        x_ref, _ = solve_triangular(L2, b, method="serial")
        assert np.allclose(r2.x, x_ref, rtol=1e-9, atol=1e-12)

    def test_fused_bucket_with_dist_devices(self):
        L = random_lower(140, 0.05, seed=36)
        L2 = revalue(L, seed=37)
        b = np.random.default_rng(38).standard_normal(140)
        with SolveService(method="column-block",
                          solver_options={"nseg": 8},
                          n_devices=2, max_workers=1) as svc:
            r1 = svc.solve(L, b)
            out = svc.solve_batch([(L, b), (L2, b)])
            r2 = svc.solve(L2, b)
        assert out.buckets[0].fused
        assert r1.report.detail["n_devices"] == 2
        assert np.array_equal(out[0].x, r1.x)
        assert np.array_equal(out[1].x, r2.x)
        x_ref, _ = solve_triangular(L2, b, method="serial")
        assert np.allclose(out[1].x, x_ref, rtol=1e-9, atol=1e-12)

    def test_concurrent_values_misses_build_once(self):
        L = random_lower(100, 0.06, seed=39)
        L2 = revalue(L, seed=40)
        b = np.ones(100)
        with SolveService(max_workers=4) as svc:
            svc.solve(L, b)  # pattern built
            futs = []
            for _ in range(4):
                futs.append(svc.submit(L2, b))
            results = [f.result()[0] for f in futs]
        recs = [r for r in svc.records() if not r.cache_hit and r.pattern_hit]
        # exactly one request paid the rebind for L2's values
        assert len(recs) == 1
        assert all(np.array_equal(r.x, results[0].x) for r in results)


class TestBatchResult:
    def test_list_compatibility(self):
        br = BatchResult([1, 2, 3])
        assert list(br) == [1, 2, 3]
        assert br == [1, 2, 3] and [1, 2, 3] == br
        assert br == (1, 2, 3)
        assert br[0] == 1 and br[-1] == 3 and br[1:] == [2, 3]
        assert len(br) == 3
        assert br != [1, 2]

    def test_aggregates(self):
        infos = [
            BucketInfo(structure="s1", method="m", n_requests=3, n_groups=2,
                       n_rhs=3, fused=True, pattern_hit=True, wall_time_s=0.1),
            BucketInfo(structure="s2", method="m", n_requests=1, n_groups=1,
                       n_rhs=1, fused=False, pattern_hit=False, wall_time_s=0.1),
        ]
        br = BatchResult(["a", "b", "c", "d"], infos, wall_time_s=0.25)
        assert br.fused_requests == 3
        assert br.wall_time_s == 0.25
        assert len(br.buckets) == 2

    def test_empty_batch(self):
        with SolveService(max_workers=1) as svc:
            out = svc.solve_batch([])
        assert isinstance(out, BatchResult)
        assert out == [] and len(out) == 0

    def test_submit_future_resolves_to_batch_result(self):
        L = random_lower(50, 0.1, seed=41)
        with SolveService(max_workers=1) as svc:
            fut = svc.submit(L, np.ones(50))
            out = fut.result()
        assert isinstance(out, BatchResult)
        assert len(out) == 1 and len(out.buckets) == 1


class TestRevaluedWorkload:
    def test_workload_shares_patterns(self):
        wl = revalued_workload(12, scale=0.02, n_patterns=2, n_values=3,
                               seed=3)
        assert wl.n_requests == 12
        sfps = {structure_fingerprint(A) for A in wl.matrices.values()}
        assert len(sfps) == 2
        assert len({matrix_fingerprint(A) for A in wl.matrices.values()}) == 6

    def test_replay_hits_pattern_cache(self):
        from repro.serve import replay

        wl = revalued_workload(10, scale=0.02, n_patterns=2, n_values=3,
                               seed=4)
        with SolveService(max_workers=2, cache_capacity=8) as svc:
            results = replay(svc, wl, batch_size=5)
            stats = svc.stats()
        assert len(results) == 10
        assert stats.completed == 10
        # only one full plan build per pattern; every other request is at
        # worst a values rebind
        assert stats.pattern_hits >= 10 - 2
        assert stats.fused_requests > 0
