"""Telemetry never changes what the service answers.

The same service run with and without an :class:`Observability` bundle
must return bit-identical solutions and the same request records on
every request path (hit/miss solve, fused batch, queue-expired shed,
planner fallback, failing request); only the trace id — and the host
wall clock — may differ.  A bundle attached live and then detached
must stop seeing traffic completely.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

from repro import Observability
from repro.core.executor import CompiledPlan
from repro.errors import NotTriangularError
from repro.obs import runtime
from repro.serve import ServiceConfig, ServiceTimeoutError, SolveRequest, SolveService
from repro.validate import FaultInjector

from conftest import random_lower, random_square


def _revalue(A, seed):
    rng = np.random.default_rng(seed)
    return replace(A, data=A.data * rng.uniform(0.5, 1.5, A.nnz),
                   _validated=True)


def _solve_path(svc):
    L = random_lower(90, 0.08, seed=1)
    U = random_lower(70, 0.1, seed=2).transpose()
    rng = np.random.default_rng(3)
    out = [svc.solve(L, rng.standard_normal(90)),   # miss
           svc.solve(L, rng.standard_normal(90)),   # hit
           svc.solve(U, rng.standard_normal(70))]   # upper mirror
    return [r.x for r in out]


def _fused_batch_path(svc):
    L = random_lower(80, 0.08, seed=4)
    M = random_lower(60, 0.1, seed=5)
    rng = np.random.default_rng(6)
    reqs = [SolveRequest(A=V, b=rng.standard_normal(V.n_rows))
            for V in (L, _revalue(L, 7), _revalue(L, 8), M, M)]
    out = svc.solve_batch(reqs)
    assert out.fused_requests == 3
    return [r.x for r in out]


def _shed_path(svc):
    L = random_lower(50, 0.1, seed=9)
    b = np.ones(50)
    svc.solve(L, b)  # warm: the pinned request below is a hit
    svc.install_fault_injector(FaultInjector(solve_delay_s=0.05,
                                             max_faults=1))
    pinned = svc.submit(L, b)
    # One worker, held 50 ms by the pinned solve: this deadline dies in
    # the queue and the request is shed before its lookup.
    shed: Future = svc.submit(L, 2 * b, timeout_s=0.005)
    with pytest.raises(ServiceTimeoutError, match="while queued"):
        shed.result()
    return [pinned.result()[0].x]


def _fallback_and_failure_path(svc):
    L = random_lower(60, 0.1, seed=10)
    svc.install_fault_injector(FaultInjector(build_error=True,
                                             methods={"recursive-block"}))
    res = svc.solve(L, np.ones(60))
    assert res.fallback and res.method == "levelset"
    with pytest.raises(NotTriangularError):
        svc.solve(random_square(40, 0.2, seed=11), np.ones(40))
    return [res.x]


PATHS = {
    "solve": _solve_path,
    "fused_batch": _fused_batch_path,
    "shed_expired": _shed_path,
    "fallback_and_failure": _fallback_and_failure_path,
}


def _run(path, obs):
    with SolveService(ServiceConfig(max_workers=1, obs=obs)) as svc:
        xs = PATHS[path](svc)
        records = svc.records()
    return xs, records


def _comparable(records):
    return [replace(r, trace_id=None, wall_time_s=0.0) for r in records]


@pytest.mark.parametrize("path", sorted(PATHS))
def test_obs_on_and_off_answer_alike(path):
    xs_off, recs_off = _run(path, None)
    obs = Observability()
    xs_on, recs_on = _run(path, obs)
    assert len(xs_on) == len(xs_off)
    for x_on, x_off in zip(xs_on, xs_off):
        assert np.array_equal(x_on, x_off)
    assert _comparable(recs_on) == _comparable(recs_off)
    # the observed run really was observed (a request shed in the queue
    # is recorded before its trace is tagged)
    assert all(r.trace_id is None for r in recs_off)
    assert all(r.trace_id is not None for r in recs_on if not r.shed_expired)
    names = {s.name for s in obs.tracer.spans()}
    assert "serve.request" in names


def test_shed_expired_counts_under_obs():
    obs = Observability()
    _, records = _run("shed_expired", obs)
    assert [r.shed_expired for r in records] == [False, False, True]
    sheds = obs.serve_metrics.ingress_sheds
    assert sheds.value(reason="expired", tenant="default") == 1


def test_attach_then_detach(monkeypatch):
    L = random_lower(70, 0.1, seed=12)
    b = np.ones(70)
    seen = []
    original = CompiledPlan.solve

    def spy(self, *args, **kwargs):
        seen.append(runtime.active())
        return original(self, *args, **kwargs)

    monkeypatch.setattr(CompiledPlan, "solve", spy)
    with SolveService(max_workers=1) as svc:
        x0 = svc.solve(L, b).x  # unobserved
        obs = Observability()
        svc.set_observability(obs)
        x1 = svc.solve(L, b).x
        assert seen == [None, obs]
        assert obs.serve_metrics.requests_total.value(
            status="ok", tenant="default") == 1
        n_spans = len(obs.tracer.spans())
        exported = obs.to_prometheus()
        svc.set_observability(None)
        seen.clear()
        x2 = svc.solve(L, b).x
        svc.solve_batch([(L, b), (_revalue(L, 13), b)])
    assert n_spans > 0
    assert seen == [None, None, None]
    assert len(obs.tracer.spans()) == n_spans
    assert obs.to_prometheus() == exported
    assert np.array_equal(x0, x1) and np.array_equal(x1, x2)
