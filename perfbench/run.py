#!/usr/bin/env python3
"""The repository benchmark: host wall-clock, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_hot --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

``--trace 0`` reports the end-to-end metrics: client calls run in
chunks for ``--seconds`` of timed wall, and set-up is repeated between
chunks (see ``SETUP_SHARE``).  Chunk pairs take turns on the CPUs the
process may use (see ``pin_all_threads``).  ``--trace 1`` sets up once and
alternates untraced and traced chunks of calls; the traced chunks run
with the layer wrappers of ``layers.py`` installed and give the
per-layer metrics, and the two kinds of chunk give ``trace.overhead``.
The spans are written to ``perfbench/results/``.

Every output is checked outside the timed intervals; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--selftest`` corrupts answers on purpose
and exits non-zero unless the checks catch them.

The program is imported from ``src/`` of the same checkout; without it
the benchmark exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: Set-up runs once before the timed phase and again between chunks,
#: whenever the repetitions have taken less than this share of the timed
#: wall so far, so they meet the same host load as the chunks.  There
#: are at least ``SETUP_REPS`` of them; ``setup_s`` is the median of the
#: fastest ``QUIET_SHARE`` of them, like the quiet calls.  Their plain
#: median followed the host's load: it rose 27% on ``pcg_ilu`` between
#: two ten-seed rounds of the same code, while the quiet calls rose 13%.
SETUP_SHARE = 0.25
SETUP_REPS = 5
#: ``peak_rss_mb`` is read after this many chunks, before any repeated
#: set-up, so a program that completes more calls in a run does not read
#: as a bigger one
RSS_CHUNKS = 20
#: ``lat_p50_us`` and ``throughput_rps`` come from the quiet calls: the
#: fastest ``QUIET_SHARE`` of each kind's calls (a kind does the same
#: work every call), so the mix of kinds stays that of the run.
#: ``lat_tail_us`` is taken over every call, so it sees every stall.  On
#: a shared 2-vCPU virtual machine, outside load slowed a process by
#: 20-50% most of the time, switching within a second and with no steal
#: time reported.  In twenty runs of ``serve_hot`` the quiet-call median
#: spread 4.4% (IQR / median), the median over all calls 9.9%, and the
#: median of the tenth of 0.25 s chunks with the lowest median 9.1%.
QUIET_SHARE = 0.1
#: a run with fewer calls than this beyond the tail percentile warns
#: that it was too short
MIN_BEYOND = 10

END_TO_END_UNITS = {
    "lat_p50_us": "us",
    "lat_tail_us": "us",
    "throughput_rps": "req/s",
    "ok_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import ``repro`` from this checkout's ``src/`` or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {src}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: repro was imported from {repro.__file__}, "
                 f"not from {src}")
    return repro


def environment(cpus: list[int]) -> dict:
    import repro.core.executor as executor

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus": cpus,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        # decides which code runs the compiled triangular segments
        "superlu_engine": bool(getattr(executor, "_HAVE_SUPERLU", False)),
    }


def percentile_beyond(lats: list[float], pct: float) -> tuple[float, int]:
    """``(value, samples strictly beyond it)``."""
    value = float(np.percentile(lats, pct))
    return value, int(np.count_nonzero(np.asarray(lats) > value))


@dataclass
class Chunk:
    """One timed chunk of client calls."""

    lats: list[float]
    kinds: list
    wall: float
    completed: int
    traced: bool


@dataclass
class Measurement:
    """Timed chunks of one run plus what the checks found."""

    chunks: list[Chunk] = field(default_factory=list)
    #: seconds of each set-up repetition, or None when not repeating
    setups: list[float] | None = None
    rss_mb: float | None = None
    attempted: int = 0
    failed: int = 0
    iterations: list[int] = field(default_factory=list)
    traced_iterations: list[int] = field(default_factory=list)
    traced_requests: int = 0
    traced_failed: int = 0
    hops_s: list[float] = field(default_factory=list)
    values_hits: int = 0
    errors: list[str] = field(default_factory=list)

    def untraced(self) -> list[Chunk]:
        return [c for c in self.chunks if not c.traced]

    def wall(self) -> float:
        return sum(c.wall for c in self.chunks)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_setup(wl) -> tuple[object, float]:
    gc.collect()
    t0 = perf_counter()
    state = wl.setup()
    return state, perf_counter() - t0


def repeat_setup(wl, m: Measurement) -> None:
    """One more set-up repetition, timed and thrown away."""
    state, seconds = timed_setup(wl)
    wl.close(state)
    m.setups.append(seconds)
    del state
    gc.collect()


def pooled(chunks: list[Chunk]) -> list[float]:
    return [lat for c in chunks for lat in c.lats]


def lats_by_kind(chunks: list[Chunk]) -> dict:
    by_kind: dict = {}
    for c in chunks:
        for kind, lat in zip(c.kinds, c.lats):
            by_kind.setdefault(kind, []).append(lat)
    return by_kind


def fastest(values: list[float]) -> list[float]:
    """The fastest ``QUIET_SHARE`` of ``values``, at least one."""
    return sorted(values)[:math.ceil(QUIET_SHARE * len(values))]


def quiet_calls(chunks: list[Chunk]) -> list[float]:
    """Latencies of the fastest ``QUIET_SHARE`` of each kind's calls."""
    return [lat for v in lats_by_kind(chunks).values() for lat in fastest(v)]


def measure(wl, state, seconds: float, cpus: list[int], log=None,
            corrupt: str | None = None,
            setups: list[float] | None = None) -> Measurement:
    """Closed-loop client calls, chunk by chunk, until ``seconds`` of
    timed wall are reached.  Pairs of chunks take turns on ``cpus``.
    With ``log``, the second chunk of every pair runs traced.  With
    ``setups`` (the seconds of set-ups so far), set-up is repeated
    between chunks, see ``SETUP_SHARE``."""
    m = Measurement(setups=setups)
    rid = 1
    while m.wall() < seconds:
        inputs = wl.next_inputs()
        k = len(m.chunks)
        pin_all_threads(cpus[(k // 2) % len(cpus)])
        traced = log is not None and k % 2 == 1
        outs, lats = [], []
        if traced:
            log.install()
        try:
            t_chunk = perf_counter()
            for inp in inputs:
                t0 = perf_counter()
                try:
                    if traced:
                        out = log.call(wl.root, rid, wl.call, state, inp)
                    else:
                        out = wl.call(state, inp)
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    out = exc
                lats.append(perf_counter() - t0)
                outs.append(out)
                rid += 1
            wall = perf_counter() - t_chunk
        finally:
            if traced:
                log.uninstall()
        n_req = n_failed = 0
        for j, (inp, out) in enumerate(zip(inputs, outs)):
            if isinstance(out, Exception):
                if len(m.errors) < 5:
                    m.errors.append(f"{type(out).__name__}: {out}")
                n = wl.requests_in(inp)
                n_req += n
                n_failed += n
                continue
            if corrupt is not None and j % 4 == 0:
                wl.corrupt(out, corrupt)
            o = wl.check(state, inp, out, j == 0)
            n_req += o.requests
            n_failed += o.failed
            if o.iterations:
                (m.traced_iterations if traced else m.iterations).append(
                    o.iterations)
        m.attempted += n_req
        m.failed += n_failed
        m.chunks.append(Chunk(lats, [wl.kind(inp) for inp in inputs], wall,
                              n_req - n_failed, traced))
        if traced:
            m.traced_requests += n_req
            m.traced_failed += n_failed
            recs = wl.records(state, len(lats), lats)
            m.hops_s += recs["hops_s"]
            m.values_hits += recs["values_hits"]
        wl.after_chunk(state)
        if len(m.chunks) == RSS_CHUNKS:
            m.rss_mb = peak_rss_mb()
        if (m.setups is not None and len(m.chunks) >= RSS_CHUNKS
                and sum(m.setups) < SETUP_SHARE * m.wall()):
            repeat_setup(wl, m)
    if m.rss_mb is None:
        m.rss_mb = peak_rss_mb()
    while m.setups is not None and len(m.setups) < SETUP_REPS:
        repeat_setup(wl, m)
    return m


def trace_overhead(m: Measurement) -> float:
    """Traced over untraced wall, each traced call compared with the
    median untraced call of its kind, minus one."""
    base = {kind: statistics.median(v)
            for kind, v in lats_by_kind(m.untraced()).items()}
    pairs = [(lat, base[kind])
             for c in m.chunks if c.traced
             for kind, lat in zip(c.kinds, c.lats) if kind in base]
    return sum(p[0] for p in pairs) / sum(p[1] for p in pairs) - 1.0


def run_untraced(wl, seconds: float, cpus: list[int]) -> dict:
    state, first = timed_setup(wl)
    wl.prepare_checks(state)
    try:
        m = measure(wl, state, seconds, cpus, setups=[first])
    finally:
        wl.close(state)
    chunks = m.untraced()
    lats = pooled(chunks)
    tail, beyond = percentile_beyond(lats, wl.tail_pct)
    if beyond < MIN_BEYOND:
        print(f"{wl.name}: only {beyond} calls beyond p{wl.tail_pct}; "
              f"run longer than {seconds} s", file=sys.stderr)
    quiet = quiet_calls(chunks)
    # every call of a workload carries the same number of requests
    per_call = sum(c.completed for c in chunks) / len(lats)
    ok_rate = 1.0 - m.failed / m.attempted
    metrics = {
        "lat_p50_us": 1e6 * statistics.median(quiet),
        "lat_tail_us": 1e6 * tail,
        "throughput_rps": per_call * len(quiet) / sum(quiet),
        "ok_rate": ok_rate,
        "setup_s": statistics.median(fastest(m.setups)),
        "peak_rss_mb": m.rss_mb,
    }
    n_calls = sum(len(c.lats) for c in chunks)
    print(f"{wl.name}: {n_calls} calls ({m.attempted} requests) in "
          f"{len(chunks)} chunks, {m.wall():.2f} s timed; {len(quiet)} "
          f"quiet calls; over all calls median "
          f"{1e6 * statistics.median(lats):.1f} us and "
          f"{sum(c.completed for c in chunks) / m.wall():.1f} req/s; tail is "
          f"p{wl.tail_pct} with {beyond} samples beyond it; error_rate "
          f"{1.0 - ok_rate:.6f}; {len(m.setups)} set-ups from "
          f"{min(m.setups):.4f} to {max(m.setups):.4f} s, median "
          f"{statistics.median(m.setups):.4f} s")
    if m.iterations:
        # the same figures under the names time-to-solution readers use
        print(f"{wl.name}: tts_p50_ms {metrics['lat_p50_us'] / 1e3:.3f} ms; "
              f"tts_p{wl.tail_pct}_ms {metrics['lat_tail_us'] / 1e3:.3f} ms; "
              f"pcg_iters {statistics.mean(m.iterations):.2f} count")
    return {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                    for k, v in metrics.items()},
        "errors": m.errors,
    }


def run_traced(wl, seconds: float, seed: int, cpus: list[int]) -> dict:
    import layers

    log = layers.SpanLog()
    log.add_program_layers()
    log.install()
    try:
        t0 = perf_counter()
        state = log.call(layers.SETUP, 0, wl.setup)
        setup_s = perf_counter() - t0
        wl.trace_points(state, log)
    finally:
        log.uninstall()
    wl.prepare_checks(state)
    try:
        m = measure(wl, state, seconds, cpus, log=log)
    finally:
        wl.close(state)
    ctx = {
        "setup_s": setup_s,
        "requests": m.traced_requests,
        "failed": m.traced_failed,
        "hops_s": m.hops_s,
        "values_hits": m.values_hits,
        "iterations": m.traced_iterations,
        "sim_solve_s": state.sim_solve_s,
        "overhead": trace_overhead(m),
    }
    metrics = layers.layer_metrics(log, ctx)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"spans-{wl.name}-{seed}.jsonl"
    log.write(path)
    print(f"{wl.name}: {len(log.spans)} spans written to {path}")
    return {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": layers.PER_LAYER_UNITS[k]}
                    for k, v in metrics.items()},
        "errors": m.errors,
    }


def selftest(cpus: list[int], seconds: float = 0.5) -> int:
    """Every workload's checks must pass clean answers and fail corrupted
    ones; ``serve_revalue`` must also catch a one-ulp change."""
    from workloads import WORKLOADS

    ok = True
    for name, cls in WORKLOADS.items():
        wl = cls(seed=0)
        state = wl.setup()
        wl.prepare_checks(state)
        modes = [None, "residual"] + (["ulp"] if name == "serve_revalue" else [])
        try:
            for mode in modes:
                m = measure(wl, state, seconds, cpus, corrupt=mode)
                good = (m.failed > 0) == (mode is not None)
                ok &= good
                print(f"selftest {name} corrupt={mode}: failed {m.failed} "
                      f"of {m.attempted} ({'ok' if good else 'WRONG'})")
        finally:
            wl.close(state)
    return 0 if ok else 1


def pin_all_threads(cpu: int) -> None:
    """Move every thread of this process onto ``cpu``.

    All threads share one CPU at a time: on a virtual machine, waking a
    thread parked on another vCPU costs anywhere from about 15 to 90 us
    depending on where the scheduler put it, and a served request makes
    two such hand-offs (client to worker and back).  On ``serve_revalue``,
    whose two buckets could run on two CPUs, ten interleaved pairs of
    runs read both faster and half as spread on one.  Threads started
    later inherit the CPU of the thread that starts them."""
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:  # the thread has exited
            pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    cpus = sorted(os.sched_getaffinity(0))
    pin_all_threads(cpus[0])
    import_program()
    if args.selftest:
        return selftest(cpus)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    print("env " + json.dumps(environment(cpus)))
    if args.trace:
        result = run_traced(wl, args.seconds, args.seed, cpus)
    else:
        result = run_untraced(wl, args.seconds, cpus)
    for err in result.pop("errors"):
        print(f"{wl.name}: failed call: {err}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
