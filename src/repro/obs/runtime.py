"""Ambient observability context: one bundle of tracer + metrics.

An :class:`Observability` owns a :class:`~repro.obs.trace.Tracer` and a
:class:`~repro.obs.metrics.MetricsRegistry`.  Activating it installs it
in a *thread-local* slot; instrumentation points deep inside the planner
and the execution plan look the slot up with :func:`active` and do
nothing when it is empty — the default.  The serve layer activates its
configured bundle inside each worker-thread request, so planner phases
and kernel segments nest under the request span without any signature
threading.

The disabled path is deliberately cheap: one thread-local ``getattr``
and a ``None`` check per instrumentation point (the acceptance bar is
< 3 % overhead on ``bench_serve_throughput`` with observability off).

The metric families (``ServeMetrics``) include the live §3.2 traffic
counters: every plan execution adds its per-segment ``b`` writes and
``x`` loads to ``repro_b_writes_total`` / ``repro_x_loads_total``, and
the sums are cross-checked against
:func:`repro.analysis.traffic.measured_traffic` — a disagreement bumps
``repro_traffic_model_mismatch_total``, making model drift visible per
solve.  Where a closed-form Tables 1–2 prediction exists (power-of-two
part counts), it is exported alongside as a gauge.
"""

from __future__ import annotations

import threading

from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    MICRO_TIME_BUCKETS,
    MetricsRegistry,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import Tracer

__all__ = ["Observability", "ServeMetrics", "active", "span"]

_tls = threading.local()


def active() -> "Observability | None":
    """The :class:`Observability` activated on this thread, if any."""
    return getattr(_tls, "obs", None)


class _NullSpan:
    __slots__ = ()

    #: a no-op span belongs to no trace
    trace_id = None

    def set(self, **attrs) -> "_NullSpan":
        return self


class _NullSpanCM:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()
_NULL_CM = _NullSpanCM()


def span(name: str, **attrs):
    """A span on the active tracer, or a shared no-op context manager.

    The ambient instrumentation hook for code without an explicit
    tracer reference (planner phases, kernel preprocessing)."""
    obs = getattr(_tls, "obs", None)
    if obs is None:
        return _NULL_CM
    return obs.tracer.span(name, **attrs)


class _Activation:
    __slots__ = ("_obs", "_prev")

    def __init__(self, obs: "Observability") -> None:
        self._obs = obs
        self._prev = None

    def __enter__(self) -> "Observability":
        self._prev = getattr(_tls, "obs", None)
        _tls.obs = self._obs
        return self._obs

    def __exit__(self, *exc) -> None:
        _tls.obs = self._prev


class ServeMetrics:
    """The metric families of the solve path, built once per registry.

    Family names are the contract the Prometheus endpoint, the CLI, and
    the CI smoke job grep for — change them deliberately.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.requests_total = registry.counter(
            "repro_requests_total",
            "requests finished by the serve layer, by terminal status "
            "and tenant",
            labelnames=("status", "tenant"),
        )
        self.rejected_total = registry.counter(
            "repro_rejected_total",
            "requests refused at the admission gate (queue full), by "
            "submitting tenant",
            labelnames=("tenant",),
        )
        self.cache_lookups = registry.counter(
            "repro_cache_lookups_total",
            "plan-cache lookups by result",
            labelnames=("result",),
        )
        self.fallbacks_total = registry.counter(
            "repro_fallbacks_total",
            "requests degraded to the fallback method after planner failure",
        )
        # Disk warm-tier families (repro.serve.store).
        self.store_lookups = registry.counter(
            "repro_store_lookups_total",
            "disk plan-store lookups by result "
            "(hit/miss/corrupt/mismatch; non-hits degrade to cold builds)",
            labelnames=("result",),
        )
        self.store_writes = registry.counter(
            "repro_store_writes_total",
            "pattern entries written back to the disk plan store",
        )
        self.overlay_evictions = registry.counter(
            "repro_overlay_evictions_total",
            "values overlays evicted from cached patterns under "
            "overlay_capacity pressure",
        )
        # Async-ingress families (repro.serve.ingress).  The sheds
        # counter is shared with the sync service, which increments it
        # with reason="expired" when a queued request's deadline has
        # already passed at worker pickup.
        self.ingress_queue_depth = registry.gauge(
            "repro_ingress_queue_depth",
            "requests currently queued in the async ingress, per "
            "priority class",
            labelnames=("class",),
        )
        self.ingress_sheds = registry.counter(
            "repro_ingress_sheds_total",
            "requests shed instead of solved, by reason "
            "(admission/evicted/expired/shutdown) and tenant",
            labelnames=("reason", "tenant"),
        )
        self.ingress_admitted = registry.counter(
            "repro_ingress_admitted_total",
            "requests admitted into an ingress queue, by priority class "
            "and tenant",
            labelnames=("class", "tenant"),
        )
        self.ingress_dispatched = registry.counter(
            "repro_ingress_dispatched_total",
            "requests handed to the backend service by the EDF "
            "dispatcher, per priority class",
            labelnames=("class",),
        )
        self.ingress_admission_latency = registry.histogram(
            "repro_ingress_admission_latency_seconds",
            "wall-clock an admitted submit() spent awaiting queue space "
            "(cooperative backpressure), per priority class",
            labelnames=("class",),
            buckets=DEFAULT_TIME_BUCKETS,
        )
        self.ingress_queue_delay = registry.histogram(
            "repro_ingress_queue_delay_seconds",
            "wall-clock between ingress enqueue and dispatch, per "
            "priority class",
            labelnames=("class",),
            buckets=DEFAULT_TIME_BUCKETS,
        )
        self.kernel_launches = registry.counter(
            "repro_kernel_launches_total",
            "simulated kernel launches by kernel name and executing device",
            labelnames=("kernel", "device"),
        )
        self.request_latency = registry.histogram(
            "repro_request_latency_seconds",
            "host wall-clock per request (queueing + numerics), per tenant",
            labelnames=("tenant",),
            buckets=DEFAULT_TIME_BUCKETS,
        )
        # Simulated latencies live in the µs-to-ms range; the wall-clock
        # preset has only two bounds per decade there.
        self.sim_latency = registry.histogram(
            "repro_sim_latency_seconds",
            "simulated end-to-end latency per request (prep if paid + "
            "solve), per tenant",
            labelnames=("tenant",),
            buckets=MICRO_TIME_BUCKETS,
        )
        self.queue_wait = registry.histogram(
            "repro_queue_wait_seconds",
            "wall-clock between submission and worker pickup, per tenant",
            labelnames=("tenant",),
            buckets=DEFAULT_TIME_BUCKETS,
        )
        self.solves_total = registry.counter(
            "repro_solves_total",
            "plan executions by method (a fused multi-RHS solve counts once)",
            labelnames=("method",),
        )
        self.batch_fused_total = registry.counter(
            "repro_batch_fused_total",
            "structural buckets that fused 2+ same-pattern values-groups "
            "over one shared pattern plan",
        )
        self.batch_bucket_occupancy = registry.histogram(
            "repro_batch_bucket_occupancy",
            "requests per structural bucket at execution time",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
        )
        # The live traffic counters are device-tagged so multi-device
        # runs don't conflate queues; single-device solves always use
        # the stable label device="0".
        self.b_writes = registry.counter(
            "repro_b_writes_total",
            "live Table 1 counter: items written to b, summed per segment",
            labelnames=("method", "device"),
        )
        self.x_loads = registry.counter(
            "repro_x_loads_total",
            "live Table 2 counter: x items loaded by SpMV segments",
            labelnames=("method", "device"),
        )
        self.traffic_measured = registry.gauge(
            "repro_traffic_measured_items",
            "plan-level measured traffic of the most recent solve",
            labelnames=("method", "table"),
        )
        self.traffic_predicted = registry.gauge(
            "repro_traffic_predicted_items",
            "closed-form Tables 1-2 prediction for the most recent solve",
            labelnames=("method", "table"),
        )
        self.traffic_mismatch = registry.counter(
            "repro_traffic_model_mismatch_total",
            "solves whose live per-segment traffic disagreed with "
            "analysis.traffic.measured_traffic(plan)",
            labelnames=("method",),
        )
        # Sharded-execution families (repro.dist).
        self.dist_solves = registry.counter(
            "repro_dist_solves_total",
            "sharded plan executions by method, device count, and "
            "placement policy",
            labelnames=("method", "n_devices", "scheduler"),
        )
        self.dist_occupancy = registry.gauge(
            "repro_dist_occupancy_ratio",
            "per-device busy fraction of the most recent sharded solve",
            labelnames=("device",),
        )
        self.dist_critical_path = registry.gauge(
            "repro_dist_critical_path_seconds",
            "DAG critical path of the most recent sharded solve",
            labelnames=("method",),
        )
        self.dist_transfer_items = registry.counter(
            "repro_dist_transfer_items_total",
            "vector items moved between devices, by fragment kind",
            labelnames=("method", "kind"),
        )
        self.dist_sync_solves = registry.counter(
            "repro_dist_sync_solves_total",
            "sharded plan executions by dependency-sync mode and "
            "placement policy",
            labelnames=("sync", "scheduler"),
        )
        self.dist_sync_idle = registry.gauge(
            "repro_dist_sync_idle_seconds",
            "summed simulated device idle time of the most recent "
            "sharded solve (what the sync mode cost on top of the work)",
            labelnames=("sync",),
        )


class Observability:
    """Tracer + metrics, activated per thread around instrumented work.

    >>> obs = Observability()
    >>> with obs.activate():
    ...     result = solve_triangular(L, b)        # doctest: +SKIP
    >>> print(obs.tracer.render_tree())            # doctest: +SKIP

    Pass one instance per service (``ServiceConfig(obs=...)``) or per
    direct call (``solve_triangular(..., trace=obs)``).  Sharing an
    instance across services aggregates their counters; sharing its
    ``metrics`` registry with a *new* instance raises
    :class:`repro.errors.DuplicateMetricError` on first use instead of
    silently double-registering families.
    """

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        *,
        max_spans: int = 100_000,
        slo=None,
        recorder: FlightRecorder | None = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer(max_spans=max_spans)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._serve_lock = threading.Lock()
        self._serve: ServeMetrics | None = None
        #: always-on ring of per-request frames (see repro.obs.recorder)
        self.recorder = recorder if recorder is not None else FlightRecorder()
        #: optional repro.obs.slo.SLOEngine; binding registers its
        #: repro_slo_* families on this bundle's registry
        self.slo = slo
        if slo is not None:
            slo.bind(self.metrics)

    @property
    def serve_metrics(self) -> ServeMetrics:
        """The standard solve-path families, registered on first use."""
        if self._serve is None:
            with self._serve_lock:
                if self._serve is None:
                    self._serve = ServeMetrics(self.metrics)
        return self._serve

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)

    def activate(self) -> _Activation:
        """Install this bundle on the current thread (re-entrant)."""
        return _Activation(self)

    def note_request(
        self,
        *,
        tenant: str = "default",
        fingerprint: str | None = None,
        method: str | None = None,
        queue_wait_s: float | None = None,
        wall_s: float = 0.0,
        sim_s: float = 0.0,
        digest: str | None = None,
        outcome: str = "ok",
        trace_id: int | None = None,
    ) -> list:
        """One completed request: record a recorder frame, evaluate SLO
        policies, and dump the recorder once per fired alert.

        The serve layer calls this for every terminal request outcome;
        the returned list holds the :class:`~repro.obs.alerts.SLOAlert`
        objects that fired (usually empty).
        """
        self.recorder.record(
            tenant=tenant,
            fingerprint=fingerprint,
            method=method,
            queue_wait_s=queue_wait_s,
            wall_s=wall_s,
            sim_s=sim_s,
            digest=digest,
            outcome=outcome,
            trace_id=trace_id,
        )
        if self.slo is None:
            return []
        alerts = self.slo.observe(
            tenant=tenant,
            wall_s=wall_s,
            sim_s=sim_s,
            trace_id=trace_id,
            ok=outcome == "ok",
        )
        for alert in alerts:
            self.recorder.dump(
                f"slo:{alert.policy}",
                trace_id=alert.trace_id,
                detail=alert.as_dict(),
            )
        return alerts

    def note_incident(
        self, reason: str, trace_id: int | None = None, detail=None
    ):
        """Dump the flight recorder for a non-SLO incident (timeout,
        fault-injector trip, planner error)."""
        return self.recorder.dump(reason, trace_id=trace_id, detail=detail)

    # Convenience exports ------------------------------------------------ #
    def to_prometheus(self) -> str:
        from repro.obs.export import to_prometheus

        return to_prometheus(self.metrics)

    def metrics_dict(self) -> dict:
        from repro.obs.export import metrics_to_dict

        return metrics_to_dict(self.metrics)


def record_solve_traffic(
    obs: Observability, plan, live_b: int, live_x: int, device: str = "0"
) -> None:
    """Publish one plan execution's live traffic and cross-check it.

    ``live_b`` / ``live_x`` are accumulated segment by segment during
    execution; they must equal the plan-level Tables 1-2 accounting of
    :func:`repro.analysis.traffic.measured_traffic` — any disagreement
    means the execution loop and the model have drifted apart.
    ``device`` tags the executing queue; single-device solves keep the
    stable label ``"0"``.
    """
    m = obs.serve_metrics
    method = plan.method
    m.solves_total.inc(method=method)
    m.b_writes.inc(live_b, method=method, device=device)
    m.x_loads.inc(live_x, method=method, device=device)
    # Both accountings are pure functions of the plan layout, which is
    # frozen after build — compute them once per (cached, reused) plan
    # instead of re-walking every segment on every warm solve.  The live
    # counters accumulated by the execution loop still cross-check
    # against them each solve.
    cached = getattr(plan, "_traffic_cache", None)
    if cached is None:
        from repro.analysis.traffic import measured_traffic, predicted_traffic

        cached = (measured_traffic(plan), predicted_traffic(plan))
        try:
            plan._traffic_cache = cached
        except AttributeError:
            pass  # slots/frozen plan stand-ins: recompute per solve
    (measured_b, measured_x), predicted = cached
    m.traffic_measured.set(measured_b, method=method, table="b_writes")
    m.traffic_measured.set(measured_x, method=method, table="x_loads")
    if (live_b, live_x) != (measured_b, measured_x):
        m.traffic_mismatch.inc(method=method)
    if predicted is not None:
        m.traffic_predicted.set(predicted[0], method=method, table="b_writes")
        m.traffic_predicted.set(predicted[1], method=method, table="x_loads")


def record_dist_solve(
    obs: Observability, plan, schedule, live_b_per_device, live_x_per_device
) -> None:
    """Publish one *sharded* plan execution (see :mod:`repro.dist`).

    The live traffic counters are incremented per executing device, the
    summed totals are cross-checked against the plan-level model exactly
    like the single-device path, and the schedule's occupancy, critical
    path, and transfer volume are exported.
    """
    from repro.analysis.traffic import measured_traffic

    m = obs.serve_metrics
    method = plan.method
    scheduler = getattr(schedule, "scheduler", "eft")
    sync = getattr(schedule, "sync", "p2p")
    m.solves_total.inc(method=method)
    m.dist_solves.inc(
        method=method,
        n_devices=str(schedule.n_devices),
        scheduler=scheduler,
    )
    m.dist_sync_solves.inc(sync=sync, scheduler=scheduler)
    m.dist_sync_idle.set(
        schedule.n_devices * schedule.makespan_s - sum(schedule.device_busy_s),
        sync=sync,
    )
    for dev, (live_b, live_x) in enumerate(
        zip(live_b_per_device, live_x_per_device)
    ):
        m.b_writes.inc(live_b, method=method, device=str(dev))
        m.x_loads.inc(live_x, method=method, device=str(dev))
    measured_b, measured_x = measured_traffic(plan)
    m.traffic_measured.set(measured_b, method=method, table="b_writes")
    m.traffic_measured.set(measured_x, method=method, table="x_loads")
    if (sum(live_b_per_device), sum(live_x_per_device)) != (
        measured_b, measured_x,
    ):
        m.traffic_mismatch.inc(method=method)
    # No predicted-traffic gauge here: the closed forms of Tables 1-2
    # describe the aggregated §3.1 layouts, not the tiled sharded one.
    for dev, occ in enumerate(schedule.occupancy()):
        m.dist_occupancy.set(occ, device=str(dev))
    m.dist_critical_path.set(schedule.critical_path_s, method=method)
    m.dist_transfer_items.inc(
        schedule.x_transfer_items, method=method, kind="x"
    )
    m.dist_transfer_items.inc(
        schedule.b_transfer_items, method=method, kind="b"
    )
