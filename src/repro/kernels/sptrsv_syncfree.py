"""Algorithm 3 — the CSC synchronization-free SpTRSV (Liu et al.).

One kernel launch total.  Each solution component gets a 32-thread warp
that (1) busy-waits on its in-degree counter, (2) solves its component,
and (3) walks its CSC column notifying dependents through
``atomicAdd``/``atomicSub`` pairs.

The simulation reproduces the method's real execution economics:

* a warp *occupies a resident-warp slot while spinning* — on deep or
  power-law matrices the slot pool fills with waiters and ready work
  cannot dispatch (the collapse on ``vas_stokes_4M`` / ``FullChip`` in
  Table 4, 61x/11x slower than the recursive block algorithm);
* each dependency edge costs an atomic round trip plus the polling
  interval before the waiter observes the update;
* components with many incoming updates serialize on their ``left_sum``
  address (atomic contention);
* preprocessing is almost free — one atomic-increment pass over the
  nonzeros (Table 5: 2.34 ms).

Numerically the solve is emulated with the shared level sweep (the
floating-point result of Algorithm 3 up to the non-associativity of
atomic accumulation order); the level structure is used *only* by the
host-side emulation and its cost is charged to nobody.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gpu.cost import CostModel
from repro.gpu.device import DeviceModel
from repro.gpu.report import KernelReport
from repro.gpu.scheduler import simulate_dependent_warps
from repro.kernels.base import (
    INDEX_BYTES,
    PTR_BYTES,
    PreparedLower,
    SpTRSVKernel,
    solve_flops,
    width_detail,
)
from repro.kernels.sweep import LevelSchedule, build_level_schedule, sweep_solve

__all__ = ["SyncFreeKernel"]

#: latency from an atomic update to the spinning waiter observing it:
#: global-memory visibility plus the busy-wait polling interval (seconds)
PROPAGATE_S = 1.2e-6
#: fixed per-warp work: read pointers, b, left_sum, diagonal; divide
WARP_BASE_S = 0.30e-6
#: per 32-entry wave of the column walk: gather row indices + values
WAVE_S = 0.10e-6
#: atomics per notified dependent (atomicAdd to left_sum + atomicSub of
#: the in-degree counter — lines 13-14 of Algorithm 3)
ATOMICS_PER_EDGE = 2.0
#: serialized round-trip of one dependent notification: the atomicAdd/
#: atomicSub pair must complete at L2/DRAM before the warp's next lane
#: group proceeds, and nothing hides the latency when the frontier is
#: narrow.  This is the cost Table 4 blames for Sync-free's collapse on
#: 'vas_stokes_4M' and 'FullChip' ("Sync-free uses atomic addition for
#: accumulating intermediate products"); the constant is calibrated to
#: those anchors.  Applied only to warps that actually busy-waited: a
#: warp whose dependencies finished long before its dispatch streams its
#: atomics at pipeline throughput instead, so wide shallow matrices
#: (nlpkkt200, where dependencies are far behind in dispatch order) are
#: unaffected while dependency-chain-bound matrices (vas_stokes,
#: FullChip, tmt_sym) pay per edge on the critical path.
ATOMIC_CHAIN_S = 0.50e-6
#: throughput cost per notification for never-stalled warps
ATOMIC_PIPELINED_S = 3.0e-9


@dataclass
class _SyncFreeAux:
    sched: LevelSchedule  # numeric emulation only
    out_counts: np.ndarray  # strict entries per column (dependents)
    in_counts: np.ndarray  # strict entries per row (in-degree)
    _cost_cache: dict = field(default_factory=dict)


class SyncFreeKernel(SpTRSVKernel):
    """SPTRSV-SYNC-FREE of Algorithm 7; baseline (2) of Table 3."""

    name = "syncfree"
    pure_report = True

    def solve_numeric(
        self, aux: _SyncFreeAux, b: np.ndarray, device: DeviceModel
    ) -> np.ndarray:
        return sweep_solve(aux.sched, b)

    def preprocess(
        self, prep: PreparedLower, device: DeviceModel
    ) -> tuple[_SyncFreeAux, KernelReport]:
        sched = build_level_schedule(prep)
        strict = prep.strict
        out_counts = np.bincount(strict.indices, minlength=prep.n).astype(np.int64)
        in_counts = strict.row_counts().astype(np.int64)
        cost = CostModel(device)
        # PREPROCESS-SYNCFREE (Algorithm 3 lines 1-5): one atomic
        # increment per nonzero, streaming the row-index array once.
        time = (
            cost.launch_time()
            + cost.atomic_time(prep.nnz)
            + cost.stream_time(prep.nnz * INDEX_BYTES)
        )
        aux = _SyncFreeAux(sched=sched, out_counts=out_counts, in_counts=in_counts)
        return aux, KernelReport("syncfree-preprocess", time, launches=1)

    def _simulate(
        self, aux: _SyncFreeAux, device: DeviceModel, n_rhs: int = 1
    ) -> tuple[float, float]:
        prep = aux.sched.prep
        cost = CostModel(device)
        vb = prep.value_bytes
        waves = np.ceil(aux.out_counts / device.warp_size)
        # The fused multi-RHS variant of [50]: each warp carries all RHS
        # of its component, multiplying the arithmetic/atomic payload but
        # not the dependency-propagation latency.
        warp_costs = (
            WARP_BASE_S
            + (waves * WAVE_S + aux.out_counts * ATOMIC_PIPELINED_S) * n_rhs
        )
        ready_extra = aux.in_counts * device.atomic_contention_s * n_rhs
        stall_costs = (
            aux.out_counts * (ATOMIC_CHAIN_S - ATOMIC_PIPELINED_S) * n_rhs
        )
        strict = prep.strict
        makespan, _ = simulate_dependent_warps(
            strict.indptr,
            strict.indices,
            warp_costs,
            ready_extra,
            n_slots=device.max_resident_warps,
            propagate_s=PROPAGATE_S,
            waited_cost_s=stall_costs,
        )
        # Bandwidth roofline: the single kernel still has to move the
        # matrix and vectors through DRAM/L2 once.
        nbytes = (
            prep.nnz * (INDEX_BYTES + vb)
            + (prep.n + 1) * PTR_BYTES
            + prep.n * vb * 3 * n_rhs  # b, x, left_sum
        )
        ws = 2.0 * prep.n * vb * n_rhs
        roofline = (
            cost.stream_time(nbytes)
            + cost.gather_time(prep.nnz, vb * n_rhs, ws)
            + cost.atomic_time(ATOMICS_PER_EDGE * prep.strict.nnz * n_rhs)
        )
        time = cost.launch_time() + max(makespan, roofline, cost.kernel_floor())
        return time, float(nbytes)

    def report(
        self, aux: _SyncFreeAux, device: DeviceModel, k: int
    ) -> KernelReport:
        """One launch; a block of ``k`` columns is the fused multi-RHS
        Sync-free algorithm of [50]."""
        n_rhs = max(k, 1)
        key = (device.name, aux.sched.prep.value_bytes, n_rhs)
        cached = aux._cost_cache.get(key)
        if cached is None:
            cached = self._simulate(aux, device, n_rhs=n_rhs)
            aux._cost_cache[key] = cached
        time, nbytes = cached
        return KernelReport(
            "sptrsv-syncfree",
            time,
            launches=1,
            flops=solve_flops(aux.sched.prep.nnz) * n_rhs,
            bytes_moved=nbytes,
            detail=width_detail({"nlevels": aux.sched.nlevels}, k),
        )
