"""Compiled execution plans: the one executor every production solve runs.

An :class:`ExecutionPlan` is built once and then solved thousands of
times (the Table 5 economics — ILU factors inside Krylov loops, repeated
right-hand-side streams).  :func:`compile_plan` turns it into a
:class:`CompiledPlan`, and every solve the library serves — single- or
multi-RHS, in plan order or in a sharded schedule's order, observed or
not — runs through that object's single step loop,
:meth:`CompiledPlan._execute`.  The four public entry points
(``solve``, ``solve_multi``, ``solve_ordered``, ``solve_multi_ordered``)
are thin wrappers over it.  ``ExecutionPlan.solve``/``solve_multi``
remain only as the uninstrumented reference loop that tests and
benchmarks compare against.

Compilation hoists everything value-independent out of the loop:

* each segment becomes a prebound step object — kernel, aux, slice
  bounds and numeric engine resolved once, no type tests on the hot path;
* simulated reports are frozen per RHS width by one probe routine
  (:meth:`CompiledPlan._probe`) that runs the kernels' reporting path on
  throwaway buffers *before* the steps touch the caller's data, so the
  first solve at a width is bit-identical to every later one.  Freezing
  is guarded by the kernels' ``pure_report`` contract; a segment whose
  kernel lacks it compiles to a step that rebuilds its report on every
  call;
* work/scratch buffers come from a per-plan :class:`_ArenaPool`, keyed
  by ``(dtype, n_rhs)`` and safe under the serve thread pool, so warm
  solves allocate nothing but the result array they hand back;
* the dtype-promotion decision (`solve_dtype`) is memoized per input
  dtype;
* per triangular segment, a *numeric engine* is chosen at compile time:
  when SciPy's SuperLU bindings are importable, the segment's factor is
  converted to CSC once and repeated solves call ``gstrs`` directly
  (everything ``scipy.sparse.linalg.spsolve_triangular`` re-derives per
  call — the CSC conversion, diagonal scaling, index casts — is hoisted
  here).  The engine must *beat the kernel's own sweep on a timed probe
  and reproduce its result* to be selected; otherwise the kernel's
  ``solve_numeric`` runs unchanged.  With SciPy absent everything still
  works on the kernel path.

Observability rides on the loop's ``step_cb`` hook: with an active
:class:`repro.obs.Observability` each step is timed, and the
per-segment spans, profile rows, kernel-launch counters and live
Tables 1-2 traffic are emitted from rows precomputed once per RHS width
(:meth:`CompiledPlan._obs_static`).  The sharded executor uses the same
hook with device-tagged telemetry.  The disabled-obs check remains a
single thread-local lookup.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.errors import ShapeMismatchError
from repro.gpu.device import DeviceModel
from repro.gpu.report import KernelReport, SolveReport
from repro.kernels.base import PreparedLower, rhs_width, solve_dtype
from repro.core.plan import ExecutionPlan, TriSegment, run_segment
from repro.obs import runtime as obs_runtime
from repro.obs.clock import monotonic
from repro.obs.trace import Span

__all__ = ["CompiledPlan", "compile_plan"]

try:  # pragma: no cover - exercised only where SciPy is installed
    from scipy.sparse import csr_array, diags_array
    from scipy.sparse.linalg._dsolve import _superlu

    _HAVE_SUPERLU = True
except Exception:  # pragma: no cover - SciPy absent or layout changed
    _HAVE_SUPERLU = False

#: engines must reproduce the kernel's probe solution to this relative
#: tolerance or the segment stays on the kernel path
ENGINE_VERIFY_RTOL = 1e-9
#: segments smaller than this never get a SuperLU engine (the per-call
#: library overhead exceeds any win on a handful of rows)
ENGINE_MIN_ROWS = 16
#: arenas retained per (dtype, n_rhs) key when idle
_POOL_KEEP = 8


# --------------------------------------------------------------------- #
# Numeric engines
# --------------------------------------------------------------------- #
class _GstrsEngine:
    """A hoisted SuperLU forward-substitution for one triangular segment.

    Precomputes what ``scipy.sparse.linalg.spsolve_triangular`` rebuilds
    on every call: the CSC form of the unit-scaled factor ``L D^{-1}``,
    the ``intc`` index arrays SuperLU wants, the empty upper factor, and
    the inverse diagonal applied to the returned solution.
    """

    __slots__ = (
        "n", "dtype", "l_nnz", "l_data", "l_indices", "l_indptr",
        "u_nnz", "u_data", "u_indices", "u_indptr", "invdiag",
    )

    def __init__(self, prep: PreparedLower, dtype: np.dtype) -> None:
        L = prep.L
        n = L.n_rows
        A = csr_array(
            (L.data.astype(dtype, copy=False), L.indices, L.indptr),
            shape=(n, n),
        ).tocsc()
        invdiag = (1.0 / prep.diag).astype(dtype, copy=False)
        A = (A @ diags_array(invdiag)).astype(dtype, copy=False)
        A.sum_duplicates()
        self.n = n
        self.dtype = dtype
        self.l_nnz = int(A.nnz)
        self.l_data = A.data
        self.l_indices = A.indices.astype(np.intc, copy=False)
        self.l_indptr = A.indptr.astype(np.intc, copy=False)
        # SuperLU's gstrs interface also takes the (here empty) U factor.
        self.u_nnz = 0
        self.u_data = np.zeros(0, dtype=dtype)
        self.u_indices = np.zeros(0, dtype=np.intc)
        self.u_indptr = np.zeros(n + 1, dtype=np.intc)
        self.invdiag = invdiag

    def solve_into(self, bseg: np.ndarray, outseg: np.ndarray,
                   scratch: np.ndarray) -> None:
        """``outseg = L^{-1} bseg`` using ``scratch`` as the mutable RHS."""
        scratch[...] = bseg
        x, info = _superlu.gstrs(
            "N",
            self.n, self.l_nnz, self.l_data, self.l_indices, self.l_indptr,
            self.n, self.u_nnz, self.u_data, self.u_indices, self.u_indptr,
            scratch,
        )
        if info:
            raise RuntimeError(f"SuperLU gstrs failed (info={info})")
        x = x.reshape(scratch.shape)
        invdiag = self.invdiag if x.ndim == 1 else self.invdiag[:, None]
        np.multiply(x, invdiag, out=outseg, casting="unsafe")


# --------------------------------------------------------------------- #
# Compiled steps
# --------------------------------------------------------------------- #
class _SeededKeep:
    """Truthy engine-verdict marker for loaded pattern templates.

    Installed by :meth:`_TriStep._seed_engine`; overlays only test it
    for None-ness when inheriting the keep/drop decision.  Templates
    hold tracer values and are never solved, so actually solving
    through the marker is a logic error worth failing loudly on.
    """

    __slots__ = ()

    def solve_into(self, *args, **kwargs):
        raise RuntimeError(
            "seeded engine verdict marker cannot solve; pattern "
            "templates are not solved directly"
        )


_SEEDED_KEEP = _SeededKeep()


class _TriStep:
    """One prebound triangular sub-solve."""

    __slots__ = ("lo", "hi", "kernel", "aux", "device", "prep",
                 "try_engine", "_engines", "_template")

    def __init__(self, seg: TriSegment, device: DeviceModel,
                 try_engine: bool, template: "_TriStep | None" = None) -> None:
        self.lo = int(seg.lo)
        self.hi = int(seg.hi)
        self.kernel = seg.kernel
        self.aux = seg.aux
        self.device = device
        self.prep = _segment_prep(seg)
        self.try_engine = bool(
            try_engine
            and _HAVE_SUPERLU
            and self.prep is not None
            and self.hi - self.lo >= ENGINE_MIN_ROWS
            and seg.kernel.name != "diagonal"
        )
        #: work dtype -> verified engine, or None after a failed attempt
        self._engines: dict = {}
        #: same step of a pattern-template plan: its engine-vs-kernel
        #: timing decision is structural, so values overlays inherit it
        #: instead of re-probing (verification still runs per overlay)
        self._template = template

    # -- engine management ------------------------------------------- #
    def _seed_engine(self, work_dtype, keep: bool) -> None:
        """Replay a persisted engine verdict (repro.serve.store).

        The keep-or-drop decision involves a *timed* probe; a loading
        process re-running that race could flip the winner and diverge
        (within the verification tolerance) from the process that wrote
        the entry.  Seeding pins the decision: ``keep=False`` forces the
        kernel path, ``keep=True`` installs a verdict marker.

        Seeded steps belong to a *pattern template* (tracer values,
        never solved directly): values overlays consult them only as a
        None-or-not oracle in :meth:`_build_engine` before building and
        accuracy-verifying their own engine against the real values, so
        the marker never needs to solve — and factorizing + probing the
        tracer values here would re-derive what the writing process
        already verified, at the cost that dominates a warm start.
        """
        dt = np.dtype(work_dtype)
        self._engines[dt] = _SEEDED_KEEP if keep and self.try_engine else None

    def _trust_engine(self, work_dtype) -> None:
        """Adopt a persisted keep verdict for *identical value bytes*.

        Called on a values overlay loaded from the plan store when the
        incoming values fingerprint equals the one recorded at write
        time: the writing process already ran the accuracy probe on
        exactly these bytes, so re-running it here would recompute a
        deterministic check that passed.  Builds the engine (it does the
        actual solving) but skips the probe; any build failure falls
        back to the kernel path via the normal lazy route.
        """
        dt = np.dtype(work_dtype)
        tmpl = self._template
        if (
            dt in self._engines
            or not self.try_engine
            or tmpl is None
            or tmpl._engine_for(dt) is None
        ):
            return
        try:
            compute = solve_dtype(self.prep.L.data.dtype, dt)
            self._engines[dt] = _GstrsEngine(self.prep, compute)
        except Exception:
            self._engines[dt] = None

    def _build_engine(self, work_dtype: np.dtype):
        """Build + verify an engine for this work dtype; None on failure."""
        tmpl = self._template
        if tmpl is not None and tmpl._engine_for(work_dtype) is None:
            # the template already probed this dtype and kept the kernel
            # path — the decision depends only on structure, not values
            return None
        try:
            compute = solve_dtype(self.prep.L.data.dtype, work_dtype)
            engine = _GstrsEngine(self.prep, compute)
            n = self.hi - self.lo
            probe = np.linspace(0.5, 1.5, n).astype(work_dtype, copy=False)
            ref = np.asarray(
                self.kernel.solve_numeric(self.aux, probe, self.device)
            )
            got = np.empty(n, dtype=work_dtype)
            engine.solve_into(probe, got, np.empty(n, dtype=compute))
            scale = max(1.0, float(np.max(np.abs(ref))) if n else 0.0)
            err = float(np.max(np.abs(got - ref))) if n else 0.0
            if not np.isfinite(err) or err > ENGINE_VERIFY_RTOL * scale:
                return None
            if tmpl is not None:
                # inherit the template's (or a persisted) timing
                # decision — it kept an engine for this dtype; the
                # accuracy check above already ran against *these* values
                return engine
            # Keep the engine only when it actually beats the kernel's
            # own numerics on a timed probe (min of 2 reps each).
            scratch = np.empty(n, dtype=compute)
            t_eng = _best_of(
                lambda: engine.solve_into(probe, got, scratch)
            )
            t_ker = _best_of(
                lambda: self.kernel.solve_numeric(self.aux, probe, self.device)
            )
            return engine if t_eng < t_ker else None
        except Exception:
            return None

    def _engine_for(self, work_dtype):
        key = work_dtype
        if key not in self._engines:
            self._engines[key] = self._build_engine(np.dtype(work_dtype))
        return self._engines[key]

    # -- hot path ----------------------------------------------------- #
    def run(self, work: np.ndarray, out: np.ndarray,
            scratch: np.ndarray | None) -> None:
        """Solve this segment of ``work`` (1-D, or 2-D for multi-RHS)
        into ``out``; returns None (the report is frozen)."""
        lo, hi = self.lo, self.hi
        if self.try_engine and scratch is not None:
            engine = self._engine_for(out.dtype)
            if engine is not None:
                engine.solve_into(work[lo:hi], out[lo:hi], scratch[lo:hi])
                return
        out[lo:hi] = self.kernel.solve_numeric(self.aux, work[lo:hi], self.device)


class _SpMVStep:
    """One prebound rectangular update ``b[rows] -= A @ x[cols]``."""

    __slots__ = ("row_lo", "row_hi", "col_lo", "col_hi", "matrix", "kernel")

    def __init__(self, seg) -> None:
        self.row_lo = int(seg.row_lo)
        self.row_hi = int(seg.row_hi)
        self.col_lo = int(seg.col_lo)
        self.col_hi = int(seg.col_hi)
        self.matrix = seg.matrix
        self.kernel = seg.kernel

    def run(self, work, out, scratch) -> None:
        self.kernel.run_numeric(
            self.matrix,
            out[self.col_lo:self.col_hi],
            work[self.row_lo:self.row_hi],
        )


class _ReportingStep:
    """A segment whose kernel does not declare ``pure_report``.

    Its simulated report may depend on the right-hand-side values, so
    nothing is frozen: every call runs the kernel's reporting entry
    point and returns the report it builds.
    """

    __slots__ = ("seg", "device")

    def __init__(self, seg, device: DeviceModel) -> None:
        self.seg = seg
        self.device = device

    def run(self, work, out, scratch) -> KernelReport:
        return run_segment(self.seg, work, out, self.device)


def _segment_prep(seg: TriSegment) -> PreparedLower | None:
    """The segment's :class:`PreparedLower`, however the kernel stores it."""
    aux = seg.aux
    if isinstance(aux, PreparedLower):
        return aux
    sched = getattr(aux, "sched", None)
    prep = getattr(sched, "prep", None)
    if isinstance(prep, PreparedLower):
        return prep
    return None


def _best_of(fn, reps: int = 2) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# --------------------------------------------------------------------- #
# Scratch arenas
# --------------------------------------------------------------------- #
class _Arena:
    """Work + permuted-output + engine-scratch buffers for one solve."""

    __slots__ = ("work", "out", "scratch", "key")

    def __init__(self, n: int, k: int, work_dtype, scratch_dtype,
                 with_out: bool) -> None:
        # k == 0 encodes the 1-D single-RHS shape; (n, 1) stays 2-D.
        shape = (n,) if k == 0 else (n, k)
        self.work = np.empty(shape, dtype=work_dtype)
        self.out = np.empty(shape, dtype=work_dtype) if with_out else None
        self.scratch = (
            np.empty(shape, dtype=scratch_dtype)
            if scratch_dtype is not None else None
        )
        #: the free-list this arena belongs to — derived from its actual
        #: buffers, so a release can never file it under the wrong shape
        self.key = (self.work.dtype, k)


class _ArenaPool:
    """Bounded free-lists of arenas keyed by ``(dtype, n_rhs)``.

    Thread-safe: concurrent solves on the serve pool each check out
    their own arena, so buffer reuse can never mix two requests' data.
    """

    def __init__(self, n: int, scratch_dtype_for, with_out: bool) -> None:
        self._n = n
        self._scratch_dtype_for = scratch_dtype_for
        self._with_out = with_out
        self._lock = threading.Lock()
        self._free: dict[tuple, list[_Arena]] = {}

    def acquire(self, dtype: np.dtype, k: int) -> _Arena:
        key = (dtype, k)
        with self._lock:
            stack = self._free.get(key)
            if stack:
                return stack.pop()
        return _Arena(
            self._n, k, dtype, self._scratch_dtype_for(dtype), self._with_out
        )

    def release(self, arena: _Arena) -> None:
        # Key derived from the arena itself (not caller-supplied): a
        # mismatched release could otherwise poison a free-list with
        # wrong-shaped buffers that a later acquire hands out as-is.
        with self._lock:
            stack = self._free.setdefault(arena.key, [])
            if len(stack) < _POOL_KEEP:
                stack.append(arena)


# --------------------------------------------------------------------- #
# The compiled plan
# --------------------------------------------------------------------- #
class CompiledPlan:
    """A reusable, allocation-free executor over an :class:`ExecutionPlan`.

    Built via :func:`compile_plan` (or lazily by
    :meth:`repro.PreparedSolve.compile`).  ``solve``/``solve_multi``
    return what the plan's reference methods return — same solution to
    roundoff, same dtype promotion, same simulated :class:`SolveReport` —
    but the warm path does no per-segment dispatch, no report
    construction for ``pure_report`` kernels and no work-buffer
    allocation.  ``pure`` is True when every segment's report is frozen.
    """

    def __init__(self, plan: ExecutionPlan, device: DeviceModel, *,
                 share_from: "CompiledPlan | None" = None,
                 frozen: tuple | None = None) -> None:
        self.plan = plan
        self.device = device
        self.n = plan.n
        self.method = plan.method
        self.perm = plan.perm
        self.pure = all(
            getattr(seg.kernel, "pure_report", False) for seg in plan.segments
        )
        self._order = tuple(range(len(plan.segments)))
        if share_from is not None:
            self._init_shared(share_from)
            return
        self._steps = [self._step(seg) for seg in plan.segments]
        # Triangular segments tiling [0, n) exactly means every output
        # element is written before it is read — no zero-fill needed.
        spans = sorted((s.lo, s.hi) for s in plan.tri_segments)
        tiled, edge = True, 0
        for lo, hi in spans:
            if lo != edge:
                tiled = False
                break
            edge = hi
        self._needs_zero = not (tiled and edge == self.n)
        mat_dtypes = [
            s.prep.L.data.dtype for s in self._steps
            if isinstance(s, _TriStep) and s.try_engine
        ]
        self._mat_dtype = np.result_type(*mat_dtypes) if mat_dtypes else None
        self._pool = _ArenaPool(
            self.n, self._scratch_dtype, with_out=self.perm is not None
        )
        self._dtype_cache: dict = {}
        #: RHS width (0 = 1-D) -> (per-segment reports, merged report)
        self._frozen: dict[int, tuple[list[KernelReport], SolveReport]] = {}
        self._frozen_lock = threading.Lock()
        #: instrumentation constants per RHS width (see _obs_static)
        self._obs_cache: dict = {}
        # Frozen reports are pure functions of segment structure +
        # device, so a caller that already holds the 1-D ones (the plan
        # store's load path) can inject them and skip that probe — the
        # same sharing `_init_shared` does between values overlays.
        if frozen is not None and len(frozen) == 2 \
                and len(frozen[0]) == len(plan.segments):
            self._frozen[0] = tuple(frozen)
        else:
            self._frozen_for(0)

    def _step(self, seg, template=None):
        if not getattr(seg.kernel, "pure_report", False):
            return _ReportingStep(seg, self.device)
        if isinstance(seg, TriSegment):
            return _TriStep(seg, self.device, try_engine=True, template=template)
        return _SpMVStep(seg)

    def _init_shared(self, tmpl: "CompiledPlan") -> None:
        """Compile as a values overlay of a pattern template.

        Everything value-independent is shared outright: the frozen
        reports per width (pure functions of segment structure +
        device), the instrumentation rows, the dtype-promotion memo,
        and — the big one — the arena pool, so all overlays of one
        pattern draw scratch buffers from a single bounded free-list.
        Only the step objects are rebuilt, each aimed at this plan's
        value arrays and inheriting its template step's engine decision.
        """
        if (
            tmpl.n != self.n
            or len(tmpl._steps) != len(self.plan.segments)
            or tmpl.method != self.method
        ):
            raise ValueError("template plan structure does not match")
        steps = []
        for seg, tstep in zip(self.plan.segments, tmpl._steps):
            step = self._step(
                seg, tstep if isinstance(tstep, _TriStep) else None
            )
            if type(step) is not type(tstep):
                raise ValueError("template segment kinds do not match")
            steps.append(step)
        self._steps = steps
        self._needs_zero = tmpl._needs_zero
        self._mat_dtype = tmpl._mat_dtype
        self._pool = tmpl._pool
        self._dtype_cache = tmpl._dtype_cache
        self._frozen = tmpl._frozen
        self._frozen_lock = tmpl._frozen_lock
        self._obs_cache = tmpl._obs_cache

    def _scratch_dtype(self, work_dtype):
        if self._mat_dtype is None:
            return None
        return solve_dtype(self._mat_dtype, work_dtype)

    def _work_dtype(self, b_dtype) -> np.dtype:
        dt = self._dtype_cache.get(b_dtype)
        if dt is None:
            dt = solve_dtype(b_dtype)
            self._dtype_cache[b_dtype] = dt
        return dt

    # -- frozen reports ------------------------------------------------ #
    def _probe(self, k: int) -> tuple[list[KernelReport], SolveReport]:
        """Run the kernels' reporting path once at RHS width ``k`` (0 =
        1-D) on throwaway buffers and return the per-segment and merged
        reports.  Deterministic probe data; only the reports are kept."""
        n = self.n
        shape = (n,) if k == 0 else (n, k)
        work = np.linspace(0.5, 1.5, n * max(k, 1)).reshape(shape)
        out = np.zeros(shape)
        plan = self.plan
        reports = [
            run_segment(seg, work, out, self.device) for seg in plan.segments
        ]
        return reports, plan._merge_reports(reports, k)

    def _frozen_for(self, k: int) -> tuple[list[KernelReport], SolveReport]:
        """The frozen reports for RHS width ``k``, probing on first use."""
        frozen = self._frozen.get(k)
        if frozen is None:
            frozen = self._probe(k)
            with self._frozen_lock:
                frozen = self._frozen.setdefault(k, frozen)
        return frozen

    # -- the step loop ------------------------------------------------- #
    def _execute(self, B: np.ndarray, order=None, step_cb=None):
        """The one step loop behind every entry point.

        ``B`` is a validated 1-D vector or ``(n, k)`` block; ``order`` a
        validated permutation of segment indices (default: plan order);
        ``step_cb(idx, t0_s, t1_s)``, when given, is called after each
        step with its wall-clock bounds.  Returns the solution in the
        caller's row order and ``(reports, merged)`` for this width —
        the frozen pair, or for plans with non-pure steps a fresh pair
        with their live reports spliced in.
        """
        k = rhs_width(B)
        # Before the steps touch the caller's data: a new width probes
        # on throwaway buffers, never on this solve's.
        frozen = self._frozen_for(k)
        dtype = self._work_dtype(B.dtype)
        arena = self._pool.acquire(dtype, k)
        steps = self._steps
        live = [None] * len(steps)
        try:
            work = arena.work
            perm = self.perm
            if perm is None:
                np.copyto(work, B, casting="unsafe")
            elif B.dtype == dtype:
                np.take(B, perm, axis=0, out=work)
            else:
                work[...] = B[perm]
            result = np.empty(work.shape, dtype=dtype)
            out = result if perm is None else arena.out
            if self._needs_zero:
                out.fill(0)
            scratch = arena.scratch
            if order is None:
                order = self._order
            if step_cb is None:
                for idx in order:
                    live[idx] = steps[idx].run(work, out, scratch)
            else:
                for idx in order:
                    t0 = monotonic()
                    live[idx] = steps[idx].run(work, out, scratch)
                    step_cb(idx, t0, monotonic())
            if perm is not None:
                result[perm] = out
        finally:
            self._pool.release(arena)
        if not self.pure:
            reports = [
                rep if rep is not None else f
                for rep, f in zip(live, frozen[0])
            ]
            frozen = reports, self.plan._merge_reports(reports, k)
        return result, frozen

    # -- instrumentation ----------------------------------------------- #
    def _obs_static(self, k: int, reports: list) -> tuple:
        """Instrumentation constants for one solve at RHS width ``k``.

        Everything a traced solve emits except the wall times — span
        attributes, profile-row templates, per-kernel launch totals, and
        the live Tables 1-2 traffic sums — is a pure function of
        (segment layout, reports), so with frozen reports it is computed
        once per width and replayed on every warm observed solve.
        """
        cached = self._obs_cache.get(k) if self.pure else None
        if cached is not None:
            return cached
        rows: list[tuple] = []
        launch_totals: dict[str, int] = {}
        live_b = 0
        live_x = 0
        for idx, (seg, rep) in enumerate(zip(self.plan.segments, reports)):
            kname = seg.kernel.name
            if isinstance(seg, TriSegment):
                kind = "tri"
                seg_rows = cols = f"{seg.lo}:{seg.hi}"
            else:
                kind = "spmv"
                seg_rows = f"{seg.row_lo}:{seg.row_hi}"
                cols = f"{seg.col_lo}:{seg.col_hi}"
                live_x += seg.n_cols
            live_b += seg.n_rows
            attrs = {"index": idx, "kernel": kname, "rows": seg_rows,
                     "nnz": seg.nnz, "sim_time_s": rep.time_s}
            tmpl = {"index": idx, "kind": kind, "kernel": kname,
                    "rows": seg_rows, "cols": cols, "nnz": seg.nnz,
                    "sim_time_s": rep.time_s, "wall_time_s": 0.0,
                    "launches": rep.launches}
            rows.append((f"segment.{kind}", attrs, tmpl))
            launch_totals[kname] = launch_totals.get(kname, 0) + rep.launches
        cached = (rows, launch_totals, live_b, live_x)
        if self.pure:
            self._obs_cache[k] = cached
        return cached

    def _solve_reported(self, B: np.ndarray) -> tuple[np.ndarray, SolveReport]:
        """Plan-order solve with a fresh report, observed when a bundle
        is active: one ``segment.*`` leaf span per step, kernel-launch
        counters, the per-segment profile rows and the live Tables 1-2
        traffic accounting."""
        obs = obs_runtime.active()
        if obs is None:
            X, (_, merged) = self._execute(B)
            return X, merged.scaled(1.0)
        times: list[tuple[float, float]] = []
        X, (reports, merged) = self._execute(
            B, step_cb=lambda idx, t0, t1: times.append((t0, t1))
        )
        k = rhs_width(B)
        rows, launch_totals, live_b, live_x = self._obs_static(k, reports)
        # Segment spans are leaves: parent/trace resolved once per solve
        # and handed to the tracer in one batched append.
        tracer = obs.tracer
        tid, pid, thread = tracer.leaf_context()
        next_id = tracer.next_span_id
        leaves: list[Span] = []
        profile: list[dict] = []
        for (span_name, attrs, tmpl), (t0, t1) in zip(rows, times):
            leaves.append(
                Span(span_name, tid, next_id(), pid, t0, t1, thread, attrs)
            )
            row = dict(tmpl)
            row["wall_time_s"] = t1 - t0
            profile.append(row)
        tracer.record_leaves(leaves)
        inc = obs.serve_metrics.kernel_launches.inc
        for kname, n in launch_totals.items():
            inc(n, kernel=kname, device="0")
        obs_runtime.record_solve_traffic(obs, self.plan, live_b, live_x)
        report = merged.scaled(1.0)
        report.profile = profile
        return X, report

    # -- entry points -------------------------------------------------- #
    def _vector(self, b) -> np.ndarray:
        b = np.asarray(b)
        if b.shape != (self.n,):
            raise ShapeMismatchError(f"b must have shape ({self.n},)")
        return b

    def _block(self, B) -> np.ndarray:
        B = np.asarray(B)
        if B.ndim != 2 or B.shape[0] != self.n:
            raise ShapeMismatchError(f"B must have shape ({self.n}, k)")
        return B

    def _check_order(self, order):
        if sorted(order) != list(self._order):
            raise ValueError(
                f"order must be a permutation of range({len(self._order)})"
            )
        return order

    def solve(self, b: np.ndarray) -> tuple[np.ndarray, SolveReport]:
        """One SpTRSV; drop-in for ``plan.solve(b, device)``."""
        return self._solve_reported(self._vector(b))

    def solve_multi(self, B: np.ndarray) -> tuple[np.ndarray, SolveReport]:
        """Fused multi-RHS solve; drop-in for ``plan.solve_multi``."""
        return self._solve_reported(self._block(B))

    def solve_ordered(self, b: np.ndarray, order, step_cb=None) -> np.ndarray:
        """Run the compiled steps in ``order`` (a permutation of segment
        indices) and return the solution.

        The entry point of :class:`repro.dist.DistributedPlan`: for any
        topological order of the plan's segment DAG this performs the
        same floating-point operations on the same operands as
        :meth:`solve`, so the result is bit-identical to the
        single-device compiled path.  No report is built — a sharded
        schedule times itself.  ``step_cb`` is the loop's per-step hook
        (see :meth:`_execute`), how the sharded executor emits
        per-segment spans without giving up the compiled numerics.
        """
        B = self._vector(b)
        return self._execute(B, self._check_order(order), step_cb)[0]

    def solve_multi_ordered(self, B: np.ndarray, order, step_cb=None) -> np.ndarray:
        """Multi-RHS :meth:`solve_ordered`; bit-identical to
        :meth:`solve_multi` for topological orders."""
        B = self._block(B)
        return self._execute(B, self._check_order(order), step_cb)[0]


def compile_plan(plan: ExecutionPlan, device: DeviceModel, *,
                 frozen: tuple | None = None) -> CompiledPlan:
    """Compile ``plan`` for repeated solves on ``device``.

    Compilation itself costs roughly one probe solve per plan (plus one
    CSC conversion per engine-eligible triangular segment) and is paid
    once — the serve layer compiles at cache-insert time, so every
    cache hit lands on the compiled hot path.  ``frozen`` injects
    previously captured 1-D ``(reports, merged)`` state (e.g.
    deserialized by :class:`repro.serve.store.PlanStore`), skipping that
    probe.
    """
    return CompiledPlan(plan, device, frozen=frozen)
