"""Tests for the disk-backed plan store (repro.serve.store).

The contract under test: a populated store lets a *fresh* service reach
steady state with zero full pattern builds and bit-identical solutions,
while every corruption mode — truncation, checksum damage, version
drift, stale fingerprints — degrades to a counted cold build, never an
exception to the caller.
"""

from __future__ import annotations

import json
import struct
import threading

import numpy as np
import pytest

from conftest import random_lower
from repro.obs import Observability
from repro.serve import PlanStore, ServiceConfig, SolveService
from repro.serve.cache import PlanCache
from repro.serve.store import (
    FORMAT_VERSION,
    MAGIC,
    StoreCorruptError,
    StoreMismatchError,
    decode_entry,
    encode_entry,
    read_header,
)


def _solve_all(svc, mats):
    return [svc.solve(A, np.ones(A.n_rows)).x for A in mats]


def _warm_store(path, mats, **cfg):
    """Populate a store by running every matrix through a service."""
    with SolveService(ServiceConfig(store_path=str(path), **cfg)) as svc:
        xs = _solve_all(svc, mats)
    return xs


class TestEntryFormat:
    def test_round_trip(self):
        header = {"kind": "pattern", "structure_fp": "abc"}
        payload = {"x": np.arange(5), "y": "data"}
        blob = encode_entry(header, payload)
        got_header, got_payload = decode_entry(blob)
        assert got_header["structure_fp"] == "abc"
        assert got_header["format_version"] == FORMAT_VERSION
        assert np.array_equal(got_payload["x"], np.arange(5))

    def test_expect_mismatch(self):
        blob = encode_entry({"structure_fp": "abc"}, {})
        with pytest.raises(StoreMismatchError):
            decode_entry(blob, expect={"structure_fp": "other"})

    def test_truncation_detected(self):
        blob = encode_entry({"k": 1}, {"v": list(range(100))})
        for cut in (2, len(MAGIC) + 2, len(blob) // 2, len(blob) - 1):
            with pytest.raises(StoreCorruptError):
                read_header(blob[:cut])

    def test_checksum_damage_detected(self):
        blob = bytearray(encode_entry({"k": 1}, {"v": list(range(100))}))
        blob[-1] ^= 0xFF  # flip a payload byte; header still parses
        read_header(bytes(blob))
        with pytest.raises(StoreCorruptError):
            decode_entry(bytes(blob))

    def test_bad_magic_detected(self):
        blob = b"XXXX" + encode_entry({}, {})[4:]
        with pytest.raises(StoreCorruptError):
            read_header(blob)


def _rewrite_header(blob: bytes, **patch) -> bytes:
    """Patch header fields and re-frame (checksum left valid)."""
    hlen = struct.unpack_from("<I", blob, len(MAGIC))[0]
    start = len(MAGIC) + 4
    header = json.loads(blob[start : start + hlen].decode())
    header.update(patch)
    hj = json.dumps(header, sort_keys=True).encode()
    return MAGIC + struct.pack("<I", len(hj)) + hj + blob[start + hlen :]


class TestCorruptionDegradesToMiss:
    """Every damaged/stale entry is a counted miss, never an exception."""

    @pytest.fixture
    def warm(self, tmp_path):
        mats = [random_lower(120, density=0.06, seed=7)]
        xs = _warm_store(tmp_path, mats)
        store = PlanStore(tmp_path)
        (entry,) = [p for p in store.path.glob("*.plan")]
        store.close()
        return tmp_path, mats, xs, entry

    def _assert_cold_rebuild(self, path, mats, xs, *, corrupt=0, mismatched=0):
        with SolveService(ServiceConfig(store_path=str(path))) as svc:
            got = _solve_all(svc, mats)
            stats = svc.stats()
        assert stats.completed == len(mats)
        assert stats.failed == 0
        assert stats.pattern_builds == len(mats)  # degraded to cold build
        assert stats.store_hits == 0
        assert stats.store.hits == 0
        assert stats.store.corrupt == corrupt
        assert stats.store.mismatched == mismatched
        for a, b in zip(xs, got):
            assert np.array_equal(a, b)

    def test_truncated_payload(self, warm):
        path, mats, xs, entry = warm
        entry.write_bytes(entry.read_bytes()[:-20])
        self._assert_cold_rebuild(path, mats, xs, corrupt=1)

    def test_bad_checksum(self, warm):
        path, mats, xs, entry = warm
        blob = bytearray(entry.read_bytes())
        blob[-5] ^= 0x55
        entry.write_bytes(bytes(blob))
        self._assert_cold_rebuild(path, mats, xs, corrupt=1)

    def test_format_version_mismatch(self, warm):
        path, mats, xs, entry = warm
        entry.write_bytes(
            _rewrite_header(entry.read_bytes(), format_version=FORMAT_VERSION + 1)
        )
        self._assert_cold_rebuild(path, mats, xs, mismatched=1)

    def test_library_version_mismatch(self, warm):
        path, mats, xs, entry = warm
        entry.write_bytes(
            _rewrite_header(entry.read_bytes(), library_version="0.0.0")
        )
        self._assert_cold_rebuild(path, mats, xs, mismatched=1)

    def test_stale_structure_fingerprint(self, warm):
        path, mats, xs, entry = warm
        entry.write_bytes(
            _rewrite_header(entry.read_bytes(), structure_fp="0" * 32)
        )
        self._assert_cold_rebuild(path, mats, xs, mismatched=1)

    def test_corrupt_entry_quarantined(self, warm):
        path, mats, _, entry = warm
        entry.write_bytes(b"garbage")
        store = PlanStore(path)
        assert store.get(("any",)) is None
        with SolveService(ServiceConfig(store=store)) as svc:
            _solve_all(svc, mats)
        # the damaged file was removed; the rebuild wrote a clean one
        store.flush()
        rows = store.ls()
        assert all("corrupt" not in r for r in rows)
        store.close()


class TestWarmRestart:
    def test_zero_pattern_builds_and_bit_identity(self, tmp_path):
        mats = [
            random_lower(150, density=0.05, seed=s) for s in (1, 2, 3)
        ]
        xs1 = _warm_store(tmp_path, mats)
        with SolveService(ServiceConfig(store_path=str(tmp_path))) as svc:
            xs2 = _solve_all(svc, mats)
            stats = svc.stats()
        assert stats.pattern_builds == 0
        assert stats.store_hits == len(mats)
        assert stats.store.hits == len(mats)
        assert stats.store.misses == 0
        for a, b in zip(xs1, xs2):
            assert np.array_equal(a, b)

    def test_upper_triangular_round_trip(self, tmp_path):
        L = random_lower(90, density=0.08, seed=11)
        U = L.transpose().sort_indices()
        b = np.linspace(0.5, 1.5, U.n_rows)
        with SolveService(ServiceConfig(store_path=str(tmp_path))) as svc:
            x1 = svc.solve(U, b).x
        with SolveService(ServiceConfig(store_path=str(tmp_path))) as svc:
            r = svc.submit(U, b).result()[0]
            stats = svc.stats()
        assert stats.pattern_builds == 0
        assert np.array_equal(x1, r.x)
        assert np.abs(U.matvec(r.x) - b).max() < 1e-8

    def test_dist_schedule_persists(self, tmp_path):
        mats = [random_lower(200, density=0.04, seed=21)]
        xs1 = _warm_store(tmp_path, mats, n_devices=3)
        with SolveService(
            ServiceConfig(store_path=str(tmp_path), n_devices=3)
        ) as svc:
            xs2 = _solve_all(svc, mats)
            stats = svc.stats()
        assert stats.pattern_builds == 0
        assert np.array_equal(xs1[0], xs2[0])

    def test_values_rebind_on_load(self, tmp_path):
        """A warm start rebinds *new* values onto the loaded pattern."""
        L = random_lower(130, density=0.06, seed=5)
        _warm_store(tmp_path, [L])
        L2 = L.copy()
        L2.data *= 1.5
        b = np.ones(L.n_rows)
        with SolveService(ServiceConfig(store_path=str(tmp_path))) as svc:
            x = svc.solve(L2, b).x
            stats = svc.stats()
        assert stats.pattern_builds == 0  # same structure: loaded, rebound
        assert np.abs(L2.matvec(x) - b).max() < 1e-8

    def test_shared_store_instance_and_obs_metrics(self, tmp_path):
        obs = Observability()
        store = PlanStore(tmp_path)
        L = random_lower(100, density=0.06, seed=8)
        b = np.ones(L.n_rows)
        with SolveService(ServiceConfig(store=store, obs=obs)) as svc:
            svc.solve(L, b)
        with SolveService(ServiceConfig(store=store, obs=obs)) as svc:
            svc.solve(L, b)
        m = obs.serve_metrics
        assert m.store_lookups.value(result="miss") == 1
        assert m.store_lookups.value(result="hit") == 1
        assert m.store_writes.total() == 1
        store.close()
        assert store.stats().writes == 1


    def test_request_values_error_keeps_the_entry(self, tmp_path):
        """A request whose own values are singular gets its error, and
        the good stored pattern survives for the next process."""
        from dataclasses import replace

        from repro.errors import SingularMatrixError

        L = random_lower(120, density=0.06, seed=13)
        _warm_store(tmp_path, [L])
        row = 40
        lo, hi = L.indptr[row], L.indptr[row + 1]
        data = L.data.copy()
        data[lo + int(np.nonzero(L.indices[lo:hi] == row)[0][0])] = 0.0
        bad = replace(L, data=data, _validated=True)
        with SolveService(ServiceConfig(store_path=str(tmp_path))) as svc:
            with pytest.raises(SingularMatrixError) as info:
                svc.solve(bad, np.ones(L.n_rows))
            stats = svc.stats()
        assert info.value.row == row
        assert stats.store.corrupt == 0
        assert stats.store.hits == 1
        with SolveService(ServiceConfig(store_path=str(tmp_path))) as svc:
            x = svc.solve(L, np.ones(L.n_rows)).x
            stats = svc.stats()
        assert stats.store_hits == 1
        assert stats.pattern_builds == 0
        assert np.abs(L.matvec(x) - 1.0).max() < 1e-8


class TestStoreMaintenance:
    def test_ls_and_gc(self, tmp_path):
        mats = [random_lower(80, density=0.08, seed=s) for s in (31, 32)]
        _warm_store(tmp_path, mats)
        store = PlanStore(tmp_path)
        rows = store.ls()
        assert len(rows) == 2
        assert all(r["header"]["kind"] == "pattern" for r in rows)
        # damage one entry; gc removes exactly it
        files = sorted(store.path.glob("*.plan"))
        files[0].write_bytes(b"not a store entry")
        summary = store.gc()
        assert summary["removed"] == 1
        assert summary["reasons"] == {"corrupt": 1}
        assert len(store) == 1
        # size pruning drops the remaining (oldest) entry
        summary = store.gc(max_bytes=0)
        assert summary["removed"] == 1
        assert len(store) == 0
        store.close()

    def test_gc_drops_stale_versions(self, tmp_path):
        _warm_store(tmp_path, [random_lower(80, density=0.08, seed=41)])
        store = PlanStore(tmp_path)
        (entry,) = store.path.glob("*.plan")
        entry.write_bytes(
            _rewrite_header(entry.read_bytes(), library_version="0.0.1")
        )
        assert store.gc(drop_stale_versions=False)["removed"] == 0
        assert store.gc()["reasons"] == {"version": 1}
        store.close()

    def test_overlay_evictions_counted(self, tmp_path):
        obs = Observability()
        L = random_lower(110, density=0.06, seed=51)
        cfg = ServiceConfig(overlay_capacity=1, obs=obs)
        with SolveService(cfg) as svc:
            b = np.ones(L.n_rows)
            for k in range(4):  # 4 distinct values vectors, capacity 1
                Lk = type(L)(
                    L.n_rows, L.n_cols, L.indptr.copy(), L.indices.copy(),
                    L.data * (1.0 + k),
                )
                svc.solve(Lk, b)
            stats = svc.stats()
        assert stats.overlay_evictions == 3
        assert obs.serve_metrics.overlay_evictions.total() == 3


class TestPlanCacheSingleFlight:
    def test_failing_then_succeeding_builder_builds_once(self):
        """Regression: after a failing builder released the key lock, the
        old code dropped the per-key lock entry while waiters were still
        queued on it, letting several threads rebuild concurrently."""
        cache = PlanCache(capacity=4)
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        build_calls = []
        in_flight = []
        max_in_flight = []
        lock = threading.Lock()

        def builder():
            with lock:
                in_flight.append(1)
                max_in_flight.append(len(in_flight))
                build_calls.append(1)
                first = len(build_calls) == 1
            try:
                import time

                time.sleep(0.02)  # widen the race window
                if first:
                    raise RuntimeError("transient planner failure")
                return "plan"
            finally:
                with lock:
                    in_flight.pop()

        results = []
        errors = []

        def worker():
            barrier.wait()
            try:
                results.append(cache.get_or_build("k", builder))
            except RuntimeError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # exactly one failure surfaced, exactly one successful rebuild,
        # and no two builders ever ran concurrently for the same key
        assert len(errors) == 1
        assert len(build_calls) == 2
        assert max(max_in_flight) == 1
        assert all(v == "plan" for v, _ in results)
        assert len(results) == n_threads - 1
        # the refcounted lock entry is reclaimed once everyone is done
        assert cache._key_locks == {}
