"""Per-layer tracing for the traced benchmark run.

Nothing here is imported by the program.  Each layer is timed from
outside: :class:`SpanLog` swaps the public functions the request path
calls (module attributes and class methods of ``repro``) for wrappers
that record a span, and swaps the originals back afterwards.  The
untraced runs never install the wrappers, so end-to-end numbers carry
no tracing cost.

A span is ``(id, parent, request, name, start, end, attrs)``.  Spans are
kept in memory and written out as JSON lines when the run ends.  A
span's parent is the innermost open span on its thread; work that a
client call hands to a worker thread has no open span there, so it
hangs under the client call's root span.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import types
import weakref
from time import perf_counter

import numpy as np

#: client-call root span names, one per workload kind
ROOTS = ("service.solve", "service.solve_batch", "pcg.solve")
SETUP = "setup"


class SpanLog:
    """In-memory span store plus the patch set that feeds it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.request = 0
        self.root = 0
        self._patches: list[tuple] = []
        self._installed: list[tuple] = []
        self._plan_nnz: dict[int, tuple] = {}

    # -- recording ------------------------------------------------------ #
    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def timed(self, name: str, attrs, fn, *args, **kwargs):
        """Call ``fn`` and record it as one span; ``attrs(args, kwargs,
        result)`` may attach a tuple of numbers."""
        st = self._stack()
        parent = st[-1] if st else self.root
        sid = next(self._ids)
        st.append(sid)
        t0 = perf_counter()
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            t1 = perf_counter()
            st.pop()
            extra = None
            if attrs is not None and out is not None:
                extra = attrs(args, kwargs, out)
            self.spans.append((sid, parent, self.request, name, t0, t1, extra))

    def wrap(self, fn, name: str, attrs=None):
        """``fn`` recording one span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.timed(name, attrs, fn, *args, **kwargs)

        return traced

    def call(self, name: str, request: int, fn, *args):
        """Run a client call as the root span of ``request``."""
        self.request = request
        sid = next(self._ids)
        self.root = sid
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self.spans.append((sid, 0, request, name, t0, t1, None))
            self.root = 0

    # -- patching ------------------------------------------------------- #
    def add(self, owner, attr: str, wrapper) -> None:
        """Register ``owner.attr = wrapper(original)`` for :meth:`install`."""
        self._patches.append((owner, attr, wrapper))

    def add_span(self, owner, attr: str, name: str, attrs=None) -> None:
        self.add(owner, attr, lambda fn: self.wrap(fn, name, attrs))

    def install(self) -> None:
        for owner, attr, wrapper in self._patches:
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, wrapper(original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            if isinstance(owner, (type, types.ModuleType)):
                setattr(owner, attr, original)
            else:  # an instance patch shadows the class attribute
                delattr(owner, attr)

    # -- the program's layers ------------------------------------------- #
    def add_program_layers(self) -> None:
        """The public calls of every measured ``repro`` layer."""
        import repro.obs.runtime as obs_runtime
        import repro.precond as precond
        import repro.serve.service as service
        from repro.core.executor import CompiledPlan
        from repro.core.rebind import PlanRebinder
        from repro.core.solver import TriangularSolver
        from repro.kernels.spmv import SpMVKernel
        from repro.obs.runtime import Observability
        from repro.precond.triangular import TriangularPreconditioner
        from repro.serve.cache import PlanCache

        # service.py imports these two by name, so patch its namespace
        self.add_span(service, "triangle_orientation", "triangular.orientation")
        self.add_span(service, "fingerprints", "fingerprint",
                      lambda a, k, out: (a[0].nnz,))
        self.add(PlanCache, "get_or_build", self._wrap_get_or_build)
        self.add_span(PlanRebinder, "bind", "rebind.bind",
                      lambda a, k, out: (np.asarray(a[1]).size,))
        self.add_span(TriangularSolver, "prepare", "solver.prepare")
        self.add_span(CompiledPlan, "__init__", "executor.compile")
        self.add_span(CompiledPlan, "solve", "executor.solve", self._exec_attrs)
        self.add_span(CompiledPlan, "solve_multi", "executor.solve",
                      self._exec_attrs)
        self.add_span(SpMVKernel, "run_numeric", "spmv.run_numeric")
        self.add_span(SpMVKernel, "run_numeric_multi", "spmv.run_numeric")
        self.add(Observability, "span", self._wrap_obs_span)
        self.add_span(Observability, "note_request", "obs")
        self.add_span(obs_runtime, "record_solve_traffic", "obs")
        self.add_span(TriangularPreconditioner, "apply", "precond.apply")
        self.add_span(precond, "ilu0", "precond.ilu0")

    def _wrap_get_or_build(self, fn):
        """Cache lookups, with the builder callback as a child span so
        the lookup's self time excludes builds."""

        def get_or_build(cache, key, builder):
            return traced(cache, key, self.wrap(builder, "cache.build"))

        traced = self.wrap(fn, "cache.get_or_build",
                           lambda a, k, out: (float(out[1]),))
        return get_or_build

    def _wrap_obs_span(self, fn):
        log = self

        class _TimedSpan:
            """Times the telemetry span's enter and exit, not its body."""

            def __init__(self, cm) -> None:
                self._cm = cm

            def __enter__(self):
                return log.timed("obs", None, self._cm.__enter__)

            def __exit__(self, *exc):
                return log.timed("obs", None, self._cm.__exit__, *exc)

        def span(obs, name, **attrs):
            return _TimedSpan(fn(obs, name, **attrs))

        return span

    def _exec_attrs(self, args, kwargs, out):
        """(columns, plan nnz, plan rows, simulated seconds)."""
        compiled, b = args[0], np.asarray(args[1])
        plan = compiled.plan
        # ids of collected plans get reused, so check the weak reference
        ref, nnz = self._plan_nnz.get(id(plan), (None, 0))
        if ref is None or ref() is not plan:
            nnz = sum(int(seg.nnz) for seg in plan.segments)
            self._plan_nnz[id(plan)] = (weakref.ref(plan), nnz)
        cols = 1 if b.ndim == 1 else b.shape[1]
        return (cols, nnz, compiled.n, out[1].time_s)

    # -- output --------------------------------------------------------- #
    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, rid, name, t0, t1, extra in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "request": rid,
                    "name": name, "start": t0, "end": t1,
                    "attrs": list(extra) if extra else None,
                }) + "\n")


def _covered(lo: float, hi: float, intervals: list[tuple]) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, edge = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, edge), min(b, hi)
        if b > a:
            total += b - a
            edge = b
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[int, list[tuple]] = {}
    for sid, parent, rid, name, t0, t1, extra in spans:
        children.setdefault(parent, []).append((t0, t1))
    return {
        sid: (t1 - t0) - _covered(t0, t1, children.get(sid, []))
        for sid, parent, rid, name, t0, t1, extra in spans
    }


#: per-layer metric -> unit; every traced run reports all of them, and a
#: layer the workload does not reach reads 0
PER_LAYER_UNITS = {
    "service.self_us": "us",
    "service.hop_us": "us",
    "service.requests": "count",
    "service.failed": "count",
    "orient.us": "us",
    "orient.calls_per_req": "count",
    "fingerprint.us": "us",
    "fingerprint.ns_per_nnz": "ns/nnz",
    "fingerprint.share": "ratio",
    "cache.lookup_us": "us",
    "cache.pattern_hit_ratio": "ratio",
    "cache.values_hit_ratio": "ratio",
    "rebind.calls": "count",
    "rebind.us": "us",
    "rebind.ns_per_nnz": "ns/nnz",
    "plan.builds": "count",
    "plan.build_ms": "ms",
    "plan.setup_share": "ratio",
    "plan.sim_solve_us": "us",
    "compile.ms": "ms",
    "exec.calls": "count",
    "exec.solve_us": "us",
    "exec.cols_per_call": "count",
    "exec.share": "ratio",
    "exec.flops": "flop",
    "exec.bytes": "B",
    "exec.mflops": "MFLOP/s",
    "spmv.us_per_solve": "us",
    "spmv.share_of_exec": "ratio",
    "tri.us_per_solve": "us",
    "obs.us_per_req": "us",
    "precond.apply_us": "us",
    "pcg.spmv_us": "us",
    "pcg.self_us": "us",
    "pcg.iters": "count",
    "ilu.ms": "ms",
    "trace.overhead": "ratio",
}


def _mean(xs) -> float:
    return float(np.mean(xs)) if len(xs) else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(log: SpanLog, ctx: dict) -> dict[str, float]:
    """Per-layer numbers from the spans of one traced run.

    ``ctx`` carries what the spans cannot: ``setup_s`` (wall of the
    traced set-up), ``requests`` / ``failed`` (requests attempted and
    failed in traced chunks), ``hops_s`` (caller latency minus the
    service's own record wall, per traced call), ``values_hits``
    (requests whose values overlay was cached), ``iterations`` (PCG
    iterations in traced chunks), ``sim_solve_s`` (simulated solve time
    per warm plan) and ``overhead`` (traced over untraced wall).
    Steady-state figures come from request spans only (request > 0);
    set-up spans carry request 0.
    """
    spans = log.spans
    own = self_times(spans)
    by: dict[str, list[tuple]] = {}
    for s in spans:
        by.setdefault(s[3], []).append(s)

    def steady(name):
        return [s for s in by.get(name, []) if s[2] > 0]

    def dur(ss):
        return sum(s[5] - s[4] for s in ss)

    roots = [s for name in ROOTS for s in steady(name)]
    root_s = dur(roots)
    n_req = ctx["requests"]
    serve = [s for s in roots if s[3] != "pcg.solve"]
    pcg_roots = steady("pcg.solve")

    orient = steady("triangular.orientation")
    fp = steady("fingerprint")
    lookups = steady("cache.get_or_build")
    binds = steady("rebind.bind")
    prepares = by.get("solver.prepare", [])
    setup_prep = [s for s in prepares if s[2] == 0]
    compiles = by.get("executor.compile", [])
    execs = steady("executor.solve")
    exec_s = dur(execs)
    spmv_s = dur(steady("spmv.run_numeric"))
    flops = [2.0 * s[6][0] * s[6][1] for s in execs]
    # matrix values + column indices + row pointers read once per call,
    # plus one read of b and one write of x per right-hand side
    bytes_ = [
        12.0 * s[6][1] + 8.0 * (s[6][2] + 1) + 16.0 * s[6][2] * s[6][0]
        for s in execs
    ]
    applies = steady("precond.apply")
    matvecs = steady("pcg.matvec")
    iters = sum(ctx["iterations"])
    m = {
        "service.self_us": 1e6 * _mean([own[s[0]] for s in serve]),
        "service.hop_us": 1e6 * _mean(ctx["hops_s"]),
        "service.requests": float(n_req if serve else 0),
        "service.failed": float(ctx["failed"] if serve else 0),
        "orient.us": 1e6 * _mean([s[5] - s[4] for s in orient]),
        "orient.calls_per_req": _ratio(len(orient), n_req),
        "fingerprint.us": 1e6 * _mean([s[5] - s[4] for s in fp]),
        "fingerprint.ns_per_nnz": 1e9 * _ratio(
            dur(fp), sum(s[6][0] for s in fp)),
        "fingerprint.share": _ratio(dur(fp), root_s),
        "cache.lookup_us": 1e6 * _mean([own[s[0]] for s in lookups]),
        "cache.pattern_hit_ratio": _mean([s[6][0] for s in lookups]),
        "cache.values_hit_ratio": _ratio(ctx["values_hits"], n_req)
        if serve else 0.0,
        "rebind.calls": float(len(binds)),
        "rebind.us": 1e6 * _mean([s[5] - s[4] for s in binds]),
        "rebind.ns_per_nnz": 1e9 * _ratio(
            dur(binds), sum(s[6][0] for s in binds)),
        "plan.builds": float(len(prepares)),
        "plan.build_ms": 1e3 * _mean([s[5] - s[4] for s in prepares]),
        "plan.setup_share": _ratio(dur(setup_prep), ctx["setup_s"]),
        "plan.sim_solve_us": 1e6 * _mean(ctx["sim_solve_s"]),
        "compile.ms": 1e3 * _mean([s[5] - s[4] for s in compiles]),
        "exec.calls": float(len(execs)),
        "exec.solve_us": 1e6 * _ratio(exec_s, len(execs)),
        "exec.cols_per_call": _mean([s[6][0] for s in execs]),
        "exec.share": _ratio(exec_s, root_s),
        "exec.flops": _mean(flops),
        "exec.bytes": _mean(bytes_),
        "exec.mflops": 1e-6 * _ratio(sum(flops), exec_s),
        "spmv.us_per_solve": 1e6 * _ratio(spmv_s, len(execs)),
        "spmv.share_of_exec": _ratio(spmv_s, exec_s),
        "tri.us_per_solve": 1e6 * _ratio(exec_s - spmv_s, len(execs)),
        "obs.us_per_req": 1e6 * _ratio(dur(steady("obs")), n_req),
        "precond.apply_us": 1e6 * _mean([s[5] - s[4] for s in applies]),
        "pcg.spmv_us": 1e6 * _mean([s[5] - s[4] for s in matvecs]),
        "pcg.self_us": 1e6 * _ratio(
            sum(own[s[0]] for s in pcg_roots), iters),
        "pcg.iters": _ratio(iters, len(ctx["iterations"])),
        "ilu.ms": 1e3 * _mean([s[5] - s[4] for s in by.get("precond.ilu0", [])]),
        "trace.overhead": ctx["overhead"],
    }
    return m
