"""`DistributedPlan`: execute one plan's schedule across N devices.

Numerics and timing are deliberately decoupled:

* **Numerics** run the schedule's topological segment order through the
  single-device executor, :meth:`CompiledPlan.solve_ordered`.  Each
  floating-point operation sees the same operands in the same
  per-interval order as the single-device compiled path, so the
  solution is *bit-identical* for every device count.
* **Timing** comes from the schedule's simulated per-device queues and
  communication events, priced from the compiled plan's frozen
  per-segment reports; per-RHS-width timelines are scheduled once and
  cached.

With an active :class:`repro.obs.Observability` the executor keeps the
compiled numerics and instruments the ordered step loop via its
``step_cb`` hook: per-segment spans carry the executing device, the live
traffic counters are accumulated *per device* (the device-tagged metric
families), and the schedule's occupancy / critical path / transfer
volume are exported as gauges.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.dag import build_segment_dag
from repro.core.executor import CompiledPlan, compile_plan
from repro.core.plan import ExecutionPlan, TriSegment
from repro.dist.partition import tile_plan
from repro.dist.schedule import (
    SYNC_MODES,
    DistSchedule,
    Interconnect,
    get_scheduler,
    schedule_dag,
)
from repro.errors import ShapeMismatchError
from repro.gpu.device import DeviceModel
from repro.gpu.report import SolveReport, merge_reports
from repro.obs import runtime as obs_runtime
from repro.obs.trace import Span

__all__ = ["DistributedPlan"]


class DistributedPlan:
    """A sharded executor over an :class:`ExecutionPlan`.

    >>> dp = DistributedPlan.from_prepared(prepared, n_devices=4)  # doctest: +SKIP
    >>> x, report = dp.solve(b)                                    # doctest: +SKIP

    ``report.time_s`` is the schedule makespan; ``report.detail``
    carries the occupancy/transfer/critical-path accounting.
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        device: DeviceModel,
        n_devices: int,
        *,
        interconnect: Interconnect | None = None,
        compiled: CompiledPlan | None = None,
        template: "DistributedPlan | None" = None,
        schedule: DistSchedule | None = None,
        scheduler: str = "eft",
        sync: str = "p2p",
    ) -> None:
        if n_devices < 1:
            raise ValueError(f"n_devices must be >= 1, got {n_devices}")
        if sync not in SYNC_MODES:
            raise ValueError(
                f"unknown sync mode {sync!r}; choose from {SYNC_MODES}"
            )
        get_scheduler(scheduler)  # fail fast on unknown policy names
        self.source_plan = plan
        self.device = device
        self.n_devices = int(n_devices)
        self.scheduler = scheduler
        self.sync = sync
        self.interconnect = interconnect or Interconnect.for_device(device)
        #: the executed plan: the source with every multi-part SpMV split
        #: at triangular boundaries (bitwise-equal refinement) so the
        #: DAG has width to shard
        self.plan = tile_plan(plan)
        if template is not None and not (
            template.n_devices == self.n_devices
            and template.plan.method == self.plan.method
            and len(template.plan.segments) == len(self.plan.segments)
        ):
            template = None
        self.compiled = self._compile_tiled(plan, compiled, template)
        if template is not None:
            # the DAG, probe reports, and schedule read only segment
            # structure and simulated per-segment costs — both are pinned
            # by the pattern key, so values-only overlays share them.
            # Schedules are policy products: shared only when the
            # template was scheduled under the same scheduler and sync
            # mode, else recomputed from the shared probe costs.
            self.dag = template.dag
            self._reports = template._reports
            if (
                getattr(template, "scheduler", "eft") == scheduler
                and getattr(template, "sync", "p2p") == sync
            ):
                self.schedule = template.schedule
                self._multi = template._multi
                self._multi_lock = template._multi_lock
            else:
                self.schedule = schedule_dag(
                    self.dag,
                    [r.time_s for r in self._reports],
                    self.n_devices,
                    self.interconnect,
                    method=plan.method,
                    scheduler=scheduler,
                    sync=sync,
                )
                self._multi = {}
                self._multi_lock = threading.Lock()
        else:
            self.dag = build_segment_dag(self.plan)
            self._reports = self.compiled._frozen_for(0)[0]
            # A persisted schedule (repro.serve.store) is injected only
            # when it provably describes this very DAG shape; anything
            # else silently falls back to recomputing — a wrong schedule
            # would break the dependency order, not just the timings.
            if schedule is not None and (
                schedule.n_devices == self.n_devices
                and schedule.method == self.plan.method
                and len(schedule.order) == len(self.plan.segments)
                and getattr(schedule, "scheduler", "eft") == scheduler
                and getattr(schedule, "sync", "p2p") == sync
            ):
                self.schedule = schedule
            else:
                self.schedule = schedule_dag(
                    self.dag,
                    [r.time_s for r in self._reports],
                    self.n_devices,
                    self.interconnect,
                    method=plan.method,
                    scheduler=scheduler,
                    sync=sync,
                )
            #: RHS width -> (schedule, per-segment reports); width 0 = 1-D
            self._multi: dict[int, tuple[DistSchedule, list]] = {}
            self._multi_lock = threading.Lock()

    @classmethod
    def from_prepared(
        cls,
        prepared,
        n_devices: int,
        *,
        interconnect: Interconnect | None = None,
        template: "DistributedPlan | None" = None,
        schedule: DistSchedule | None = None,
        scheduler: str = "eft",
        sync: str = "p2p",
    ) -> "DistributedPlan":
        """Build from a :class:`repro.PreparedSolve`, reusing (or
        building) its compiled executor for the numerics.

        With ``template`` (a DistributedPlan over the same segment
        structure — the serve layer's pattern-level instance) the DAG,
        probe reports, and schedules are shared instead of recomputed,
        so a values-only overlay pays gather cost rather than a full
        schedule rebuild.  ``schedule`` injects a persisted
        :class:`DistSchedule` (the plan store's warm-start path); it is
        used only if it matches this plan's method, device count,
        tiled segment count, scheduler, and sync mode, else recomputed.
        ``scheduler`` names a registered placement policy and ``sync``
        the dependency-resolution mode (see :mod:`repro.dist.schedule`).
        """
        return cls(
            prepared.plan,
            prepared.device,
            n_devices,
            interconnect=interconnect,
            compiled=prepared.compile(),
            template=template,
            schedule=schedule,
            scheduler=scheduler,
            sync=sync,
        )

    def _compile_tiled(
        self,
        source: ExecutionPlan,
        base: CompiledPlan | None,
        template: "DistributedPlan | None" = None,
    ) -> CompiledPlan:
        """Compile the tiled plan, *sharing* the source's compiled
        triangular steps.

        Sharing matters for the bit-identity guarantee: a compiled
        triangular step may carry a probe-selected SuperLU engine, and
        that selection is timed — two independent compilations could
        choose differently and diverge at the engine-verification
        tolerance.  Reusing the base plan's step objects (the tiled plan
        shares its TriSegment instances) makes the sharded numerics run
        literally the same triangular code paths as the single-device
        compiled plan; the SpMV row slices are bitwise equal by
        row-locality.
        """
        if base is None:
            base = compile_plan(source, self.device)
        if self.plan is source:  # nothing was split
            return base
        if template is not None:
            tiled_compiled = CompiledPlan(
                self.plan, self.device, share_from=template.compiled
            )
        else:
            tiled_compiled = compile_plan(self.plan, self.device)
        tri_steps = {
            id(seg): step
            for seg, step in zip(source.segments, base._steps)
            if isinstance(seg, TriSegment)
        }
        for i, seg in enumerate(self.plan.segments):
            step = tri_steps.get(id(seg))
            if step is not None:
                tiled_compiled._steps[i] = step
        return tiled_compiled

    def _schedule_for(self, k: int) -> tuple[DistSchedule, list]:
        """The (cached) schedule and segment reports for RHS width ``k``."""
        if k == 0:
            return self.schedule, self._reports
        with self._multi_lock:
            cached = self._multi.get(k)
        if cached is not None:
            return cached
        reports = self.compiled._frozen_for(k)[0]
        sched = schedule_dag(
            self.dag,
            [r.time_s for r in reports],
            self.n_devices,
            self.interconnect,
            method=self.plan.method,
            scheduler=self.scheduler,
            sync=self.sync,
        )
        with self._multi_lock:
            return self._multi.setdefault(k, (sched, reports))

    # -- reporting ------------------------------------------------------ #
    def _report(self, sched: DistSchedule, reports: list, **detail) -> SolveReport:
        merged = merge_reports(
            self.plan.method,
            reports,
            n_tri=self.plan.n_tri_segments,
            n_spmv=self.plan.n_spmv_segments,
        )
        occ = sched.occupancy()
        return SolveReport(
            method=self.plan.method,
            time_s=sched.makespan_s,
            flops=merged.flops,
            launches=merged.launches,
            bytes_moved=merged.bytes_moved
            + sched.transfer_items * self.interconnect.item_bytes,
            kernels=list(merged.kernels),
            detail={
                "n_devices": sched.n_devices,
                "scheduler": sched.scheduler,
                "sync": sched.sync,
                "makespan_s": sched.makespan_s,
                "single_device_s": sched.total_cost_s,
                "speedup": sched.speedup(),
                "critical_path_s": sched.critical_path_s,
                "occupancy": occ,
                "device_busy_s": list(sched.device_busy_s),
                "transfers": len(sched.transfers),
                "transfer_x_items": sched.x_transfer_items,
                "transfer_b_items": sched.b_transfer_items,
                "transfer_time_s": sched.transfer_time_s,
                **detail,
            },
        )

    # -- execution ------------------------------------------------------ #
    def solve(self, b: np.ndarray) -> tuple[np.ndarray, SolveReport]:
        """One sharded SpTRSV; drop-in for ``plan.solve(b, device)``
        with the schedule makespan as the simulated time."""
        b = np.asarray(b)
        if b.shape != (self.plan.n,):
            raise ShapeMismatchError(f"b must have shape ({self.plan.n},)")
        sched, reports = self._schedule_for(0)
        x = self._run(self.compiled.solve_ordered, b, sched, reports)
        return x, self._report(sched, reports)

    def solve_multi(self, B: np.ndarray) -> tuple[np.ndarray, SolveReport]:
        """Fused multi-RHS sharded solve."""
        B = np.asarray(B)
        if B.ndim != 2 or B.shape[0] != self.plan.n:
            raise ShapeMismatchError(f"B must have shape ({self.plan.n}, k)")
        k = B.shape[1]
        sched, reports = self._schedule_for(k)
        X = self._run(self.compiled.solve_multi_ordered, B, sched, reports)
        return X, self._report(sched, reports, n_rhs=k, fused=True)

    def _run(self, solve_ordered, b, sched: DistSchedule, reports: list):
        """Schedule-ordered compiled execution, observed when a bundle
        is active.

        Observation keeps the floating-point operations of the obs-off
        path — the solution stays bit-identical to the single-device
        compiled solve — and adds the per-segment telemetry: leaf spans
        tagged with the executing device, device-tagged kernel launch
        and live traffic counters, and the schedule gauges.  The
        simulated per-segment reports are the schedule's frozen ones."""
        obs = obs_runtime.active()
        if obs is None:
            return solve_ordered(b, sched.order)
        plan = self.plan
        segments = plan.segments
        assignment = sched.assignment
        tracer = obs.tracer
        tid, pid, thread = tracer.leaf_context()
        next_id = tracer.next_span_id
        leaves: list[Span] = []
        launch_totals: dict[tuple, int] = {}
        live_b = [0] * sched.n_devices
        live_x = [0] * sched.n_devices

        def step_cb(idx: int, t0: float, t1: float) -> None:
            seg = segments[idx]
            dev = assignment[idx]
            tri = isinstance(seg, TriSegment)
            rep = reports[idx]
            leaves.append(Span(
                "segment.tri" if tri else "segment.spmv",
                tid, next_id(), pid, t0, t1, thread,
                {"index": idx, "kernel": seg.kernel.name, "device": dev,
                 "nnz": seg.nnz, "sim_time_s": rep.time_s,
                 "wall_time_s": t1 - t0},
            ))
            key = (seg.kernel.name, dev)
            launch_totals[key] = launch_totals.get(key, 0) + rep.launches
            live_b[dev] += seg.n_rows
            if not tri:
                live_x[dev] += seg.n_cols

        x = solve_ordered(b, sched.order, step_cb)
        tracer.record_leaves(leaves)
        inc = obs.serve_metrics.kernel_launches.inc
        for (kname, dev), n in launch_totals.items():
            inc(n, kernel=kname, device=str(dev))
        obs_runtime.record_dist_solve(obs, plan, sched, live_b, live_x)
        return x
