"""Tests for the deadline-aware asyncio ingress (repro.serve.ingress)."""

import asyncio
import threading

import numpy as np
import pytest

from repro.errors import IngressShedError, ServiceClosedError
from repro.obs import Observability
from repro.serve import (
    DEFAULT_CLASSES,
    AsyncSolveService,
    IngressConfig,
    PriorityClass,
    ServiceConfig,
    ServiceTimeoutError,
    SolveService,
)
from repro.validate import FaultInjector

from conftest import random_lower


@pytest.fixture
def system():
    L = random_lower(50, 0.15, seed=5)
    return L, np.ones(L.n_rows)


def run(coro):
    return asyncio.run(coro)


def slow_service(delay_s: float, workers: int = 1, **cfg) -> SolveService:
    return SolveService(
        ServiceConfig(max_workers=workers, **cfg),
        fault_injector=FaultInjector(solve_delay_s=delay_s),
    )


class _HeldSolves:
    """Fault-injector hook that holds every solve until ``gate`` opens."""

    def __init__(self, gate: threading.Event) -> None:
        self.gate = gate

    def before_build(self, method: str) -> None:
        pass

    def before_solve(self, method: str) -> None:
        self.gate.wait(10.0)


def one_class(limit: int, deadline_s=5.0, **over) -> IngressConfig:
    return IngressConfig(
        classes=(
            PriorityClass("only", rank=0, queue_limit=limit,
                          deadline_s=deadline_s),
        ),
        default_class="only",
        **over,
    )


class TestConfig:
    def test_default_classes_are_ranked_and_named(self):
        names = {c.name for c in DEFAULT_CLASSES}
        assert names == {"interactive", "standard", "batch"}
        ranks = [c.rank for c in DEFAULT_CLASSES]
        assert len(set(ranks)) == len(ranks)

    def test_rejects_bad_class(self):
        with pytest.raises(ValueError):
            PriorityClass("", rank=0)
        with pytest.raises(ValueError):
            PriorityClass("x", queue_limit=0)
        with pytest.raises(ValueError):
            PriorityClass("x", deadline_s=0.0)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            IngressConfig(classes=())
        with pytest.raises(ValueError):
            IngressConfig(classes=(
                PriorityClass("a", rank=0), PriorityClass("a", rank=1),
            ))
        with pytest.raises(ValueError):
            IngressConfig(classes=(
                PriorityClass("a", rank=0), PriorityClass("b", rank=0),
            ))
        with pytest.raises(ValueError):
            IngressConfig(default_class="nope")
        with pytest.raises(ValueError):
            IngressConfig(backpressure_s=-1.0)
        with pytest.raises(ValueError):
            IngressConfig(max_inflight=0)

    def test_resolve_unknown_class(self, system):
        L, b = system

        async def main():
            async with AsyncSolveService() as ing:
                with pytest.raises(ValueError, match="unknown priority class"):
                    await ing.submit(L, b, priority="platinum")

        run(main())

    def test_config_or_overrides_not_both(self):
        with pytest.raises(ValueError):
            AsyncSolveService(
                config=IngressConfig(), backpressure_s=1.0
            )


class TestHappyPath:
    def test_solves_match_service(self, system):
        L, b = system
        svc = SolveService(max_workers=2)
        expected = np.asarray(svc.solve(L, b).x)

        async def main():
            async with AsyncSolveService(svc) as ing:
                results = await asyncio.gather(*[
                    ing.submit(L, b, priority=c)
                    for c in ("interactive", "standard", "batch")
                ])
                return results

        results = run(main())
        for r in results:
            assert np.array_equal(np.asarray(r.x), expected)
        svc.close()

    def test_owned_service_closed_with_ingress(self, system):
        L, b = system

        async def main():
            ing = AsyncSolveService()
            async with ing:
                await ing.submit(L, b)
            return ing

        ing = run(main())
        with pytest.raises(ServiceClosedError):
            ing.service.submit(L, b)

    def test_stats_counters_settle(self, system):
        L, b = system

        async def main():
            async with AsyncSolveService() as ing:
                await asyncio.gather(*[
                    ing.submit(L, b, tenant=f"t{i % 2}") for i in range(6)
                ])
                st = ing.stats()
                assert ing.total_depth() == 0
                assert ing.inflight == 0
                return st

        st = run(main())
        assert st.submitted == st.admitted == st.dispatched == 6
        assert st.completed == 6 and st.failed == 0
        assert st.shed_total == 0
        assert st.per_tenant["t0"]["completed"] == 3
        assert "ingress stats" in st.render()
        assert st.as_dict()["completed"] == 6

    def test_submit_after_close_raises(self, system):
        L, b = system

        async def main():
            ing = AsyncSolveService()
            async with ing:
                await ing.submit(L, b)
            with pytest.raises(ServiceClosedError):
                await ing.submit(L, b)

        run(main())


class TestPriorityAndEDF:
    def test_higher_class_dispatches_first(self, system):
        """With the worker pinned, queued interactive requests must all
        dispatch before any queued batch request."""
        L, b = system
        svc = slow_service(0.03)
        order = []

        async def tracked(ing, klass, tag):
            await ing.submit(L, b, priority=klass)
            order.append(tag)

        async def main():
            cfg = IngressConfig(backpressure_s=0.0)
            async with AsyncSolveService(svc, config=cfg) as ing:
                pin = asyncio.create_task(ing.submit(L, b, priority="batch"))
                await asyncio.sleep(0.01)
                tasks = [
                    asyncio.create_task(tracked(ing, "batch", f"b{i}"))
                    for i in range(3)
                ]
                await asyncio.sleep(0)
                tasks += [
                    asyncio.create_task(
                        tracked(ing, "interactive", f"i{i}")
                    )
                    for i in range(3)
                ]
                await asyncio.gather(pin, *tasks)

        run(main())
        svc.close()
        assert len(order) == 6
        interactive_pos = [order.index(f"i{i}") for i in range(3)]
        batch_pos = [order.index(f"b{i}") for i in range(3)]
        assert max(interactive_pos) < min(batch_pos), order

    def test_edf_within_class(self, system):
        """Within one class, the tightest deadline runs first even when
        it arrived last."""
        L, b = system
        gate = threading.Event()
        svc = SolveService(
            ServiceConfig(max_workers=1), fault_injector=_HeldSolves(gate)
        )
        order = []

        async def tracked(ing, deadline_s, tag):
            await ing.submit(L, b, deadline_s=deadline_s)
            order.append(tag)

        async def until(cond):
            async def poll():
                while not cond():
                    await asyncio.sleep(0.001)

            await asyncio.wait_for(poll(), 10.0)

        async def main():
            cfg = one_class(limit=16, backpressure_s=0.0)
            async with AsyncSolveService(svc, config=cfg) as ing:
                # The pinned solve holds the only worker until all three
                # submissions are queued, so dispatch order is EDF order.
                pin = asyncio.create_task(ing.submit(L, b))
                await until(lambda: ing.inflight == 1)
                tasks = [
                    asyncio.create_task(tracked(ing, 9.0, "loose")),
                    asyncio.create_task(tracked(ing, 6.0, "mid")),
                ]
                await asyncio.sleep(0)
                tasks.append(
                    asyncio.create_task(tracked(ing, 3.0, "tight"))
                )
                await until(lambda: ing.total_depth() == 3)
                gate.set()
                await asyncio.gather(pin, *tasks)

        run(main())
        svc.close()
        assert order == ["tight", "mid", "loose"]

    def test_no_deadline_sorts_last(self, system):
        L, b = system
        svc = slow_service(0.03)
        order = []

        async def tracked(ing, deadline_s, tag):
            await ing.submit(L, b, deadline_s=deadline_s)
            order.append(tag)

        async def main():
            cfg = one_class(limit=16, deadline_s=None, backpressure_s=0.0)
            async with AsyncSolveService(svc, config=cfg) as ing:
                pin = asyncio.create_task(ing.submit(L, b))
                await asyncio.sleep(0.01)
                tasks = [
                    asyncio.create_task(tracked(ing, None, "free")),
                ]
                await asyncio.sleep(0)
                tasks.append(
                    asyncio.create_task(tracked(ing, 5.0, "dated"))
                )
                await asyncio.gather(pin, *tasks)

        run(main())
        svc.close()
        assert order == ["dated", "free"]


class TestShedding:
    def test_admission_shed_when_full(self, system):
        L, b = system
        svc = slow_service(0.05)

        async def main():
            cfg = one_class(limit=2, backpressure_s=0.0, max_inflight=1)
            async with AsyncSolveService(svc, config=cfg) as ing:
                tasks = [
                    asyncio.create_task(ing.submit(L, b, tenant="t"))
                    for _ in range(8)
                ]
                done = await asyncio.gather(*tasks, return_exceptions=True)
                st = ing.stats()
                return done, st

        done, st = run(main())
        svc.close()
        sheds = [e for e in done if isinstance(e, IngressShedError)]
        assert sheds and all(e.reason == "admission" for e in sheds)
        assert all(e.tenant == "t" for e in sheds)
        assert st.shed.get("admission", 0) == len(sheds)
        # one tenant competing with itself must never trigger eviction
        assert st.shed.get("evicted", 0) == 0

    def test_fairness_eviction_protects_light_tenant(self, system):
        L, b = system
        svc = slow_service(0.08)

        async def main():
            cfg = one_class(limit=3, backpressure_s=0.0, max_inflight=1)
            async with AsyncSolveService(svc, config=cfg) as ing:
                warm = asyncio.create_task(ing.submit(L, b, tenant="warm"))
                await asyncio.sleep(0.02)  # occupy the only slot
                hogs = [
                    asyncio.create_task(ing.submit(L, b, tenant="hog"))
                    for _ in range(3)
                ]
                await asyncio.sleep(0)  # queue now full of hog
                light = asyncio.create_task(
                    ing.submit(L, b, tenant="light")
                )
                done = await asyncio.gather(
                    warm, *hogs, light, return_exceptions=True
                )
                return done, ing.stats()

        done, st = run(main())
        svc.close()
        sheds = [e for e in done if isinstance(e, IngressShedError)]
        assert len(sheds) == 1
        assert sheds[0].reason == "evicted" and sheds[0].tenant == "hog"
        assert st.per_tenant["light"]["shed"] == 0
        assert st.per_tenant["hog"]["shed"] == 1

    def test_expired_in_queue_is_shed_not_solved(self, system):
        """The queue-expiry bugfix at the ingress layer: a request whose
        deadline died in queue is shed without ever reaching the
        backend."""
        L, b = system
        svc = slow_service(0.08)
        svc.solve(L, b)  # build the plan outside the measured window
        before = svc.stats().requests

        async def main():
            cfg = one_class(limit=16, deadline_s=0.04, backpressure_s=0.0,
                            max_inflight=1)
            async with AsyncSolveService(svc, config=cfg) as ing:
                tasks = [
                    asyncio.create_task(ing.submit(L, b))
                    for _ in range(5)
                ]
                done = await asyncio.gather(*tasks, return_exceptions=True)
                return done, ing.stats()

        done, st = run(main())
        backend_requests = svc.stats().requests - before
        svc.close()
        expired = [
            e for e in done
            if isinstance(e, IngressShedError) and e.reason == "expired"
        ]
        assert expired, done
        assert st.shed.get("expired", 0) == len(expired)
        # expired-in-queue requests never reached the backend service
        assert backend_requests == 5 - len(expired)

    def test_mid_solve_timeout_still_propagates(self, system):
        L, b = system
        svc = slow_service(0.1)
        svc.solve(L, b)

        async def main():
            cfg = one_class(limit=4, deadline_s=0.05, backpressure_s=0.0)
            async with AsyncSolveService(svc, config=cfg) as ing:
                with pytest.raises(ServiceTimeoutError):
                    await ing.submit(L, b)
                return ing.stats()

        st = run(main())
        svc.close()
        assert st.timeouts == 1
        assert st.shed.get("expired", 0) == 0

    def test_backpressure_waits_instead_of_shedding(self, system):
        """With a backpressure budget longer than the drain time, a
        submit to a full queue waits and then gets admitted."""
        L, b = system
        svc = slow_service(0.02)

        async def main():
            cfg = one_class(limit=1, backpressure_s=2.0, max_inflight=1)
            async with AsyncSolveService(svc, config=cfg) as ing:
                tasks = [
                    asyncio.create_task(ing.submit(L, b))
                    for _ in range(4)
                ]
                done = await asyncio.gather(*tasks, return_exceptions=True)
                return done, ing.stats()

        done, st = run(main())
        svc.close()
        assert not any(isinstance(d, BaseException) for d in done)
        assert st.completed == 4
        assert st.backpressure_waits >= 1

    def test_close_without_drain_sheds_queue(self, system):
        L, b = system
        svc = slow_service(0.1)

        async def main():
            cfg = one_class(limit=8, backpressure_s=0.0, max_inflight=1)
            ing = AsyncSolveService(svc, config=cfg)
            tasks = []
            async with ing:
                tasks = [
                    asyncio.create_task(ing.submit(L, b))
                    for _ in range(4)
                ]
                await asyncio.sleep(0.02)
                await ing.close(drain=False)
            done = await asyncio.gather(*tasks, return_exceptions=True)
            return done, ing.stats()

        done, st = run(main())
        svc.close()
        shutdown = [
            e for e in done
            if isinstance(e, IngressShedError) and e.reason == "shutdown"
        ]
        assert shutdown
        assert st.shed.get("shutdown", 0) == len(shutdown)

    def test_drain_close_completes_everything(self, system):
        L, b = system
        svc = slow_service(0.02)

        async def main():
            cfg = one_class(limit=16, backpressure_s=0.0, max_inflight=2)
            ing = AsyncSolveService(svc, config=cfg)
            async with ing:
                tasks = [
                    asyncio.create_task(ing.submit(L, b))
                    for _ in range(6)
                ]
                await asyncio.sleep(0.01)
            # context exit drains: every future already terminal
            done = await asyncio.gather(*tasks, return_exceptions=True)
            return done, ing.stats()

        done, st = run(main())
        assert not any(isinstance(d, BaseException) for d in done)
        assert st.completed == 6
        # nothing leaked an admission permit in the backend
        assert svc.admission_available == svc.config.queue_limit
        svc.close()


class TestObservabilityWiring:
    def _metric(self, obs, name):
        return obs.metrics_dict().get(name, {}).get("samples", [])

    def test_ingress_metric_families_populate(self, system):
        L, b = system
        obs = Observability()
        svc = SolveService(ServiceConfig(max_workers=2, obs=obs))

        async def main():
            async with AsyncSolveService(svc) as ing:
                await asyncio.gather(*[
                    ing.submit(L, b, priority="interactive", tenant="t")
                    for _ in range(3)
                ])

        run(main())
        svc.close()
        admitted = self._metric(obs, "repro_ingress_admitted_total")
        assert any(
            s["labels"] == {"class": "interactive", "tenant": "t"}
            and s["value"] == 3
            for s in admitted
        )
        dispatched = self._metric(obs, "repro_ingress_dispatched_total")
        assert any(
            s["labels"] == {"class": "interactive"} and s["value"] == 3
            for s in dispatched
        )
        delay = obs.metrics_dict()["repro_ingress_queue_delay_seconds"]
        assert any(
            s["labels"] == {"class": "interactive"} and s["count"] == 3
            for s in delay["series"]
        )
        depth = self._metric(obs, "repro_ingress_queue_depth")
        assert any(
            s["labels"] == {"class": "interactive"} and s["value"] == 0
            for s in depth
        )

    def test_sheds_reach_metrics_and_slo(self, system):
        L, b = system
        obs = Observability()
        svc = SolveService(
            ServiceConfig(max_workers=1, obs=obs),
            fault_injector=FaultInjector(solve_delay_s=0.05),
        )

        async def main():
            cfg = one_class(limit=1, backpressure_s=0.0, max_inflight=1)
            async with AsyncSolveService(svc, config=cfg) as ing:
                tasks = [
                    asyncio.create_task(ing.submit(L, b, tenant="t"))
                    for _ in range(6)
                ]
                await asyncio.gather(*tasks, return_exceptions=True)

        run(main())
        svc.close()
        sheds = self._metric(obs, "repro_ingress_sheds_total")
        assert any(
            s["labels"]["reason"] == "admission" and s["value"] >= 1
            for s in sheds
        )
        # sheds land in the flight recorder as non-ok outcomes
        frames = [
            f for f in obs.recorder.frames()
            if str(f.get("outcome", "")).startswith("shed:")
        ]
        assert frames
