"""The benchmark's three workloads.

Each workload makes its inputs from the seed before any timing, builds
the program state in a timed set-up, then serves chunks of client calls.
A chunk's inputs are generated before the chunk is timed and its outputs
are checked after; neither is inside a timed interval.

* ``serve_hot`` - one closed-loop client calling ``SolveService.solve``
  with a fresh right-hand side on matrices whose plans are all cached.
* ``serve_revalue`` - one closed-loop client calling
  ``SolveService.solve_batch`` with fresh values on cached patterns,
  under the full telemetry bundle.
* ``pcg_ilu`` - ILU(0)-preconditioned CG, the library path with no
  service.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, replace

import numpy as np

from repro import SolveRequest, SolveService, TITAN_RTX_SCALED
from repro.formats import CSRMatrix
from repro.matrices.suite import scaled_suite
from repro.obs import FlightRecorder, Observability, SLOEngine, SLOPolicy
import repro.precond as precond
from repro.precond import TriangularPreconditioner, preconditioned_cg

#: normwise backward error ``|Ax-b| / (|A| |x| + |b|)`` (inf-norms) a
#: served triangular solve must reach
SERVE_BACKWARD_TOL = 1e-12
#: PCG stops at this relative residual (recurrence residual)
PCG_TOL = 1e-8
#: ...and its answer must reach this true relative residual
#: ``|b - Ax|_2 / |b|_2``; the recurrence drifts from the true residual
PCG_CHECK_RTOL = 1e-7
PCG_MAX_ITER = 1000

#: worker threads of the measured services: two, so serve_revalue keeps
#: two buckets in flight, and never more than the machine has CPUs
WORKERS = min(2, os.cpu_count() or 1)


def backward_error(A: CSRMatrix, norm_a: float, x: np.ndarray, b: np.ndarray) -> float:
    r = A.matvec(x) - b
    denom = norm_a * float(np.max(np.abs(x))) + float(np.max(np.abs(b)))
    err = float(np.max(np.abs(r))) / denom if denom else float(np.max(np.abs(r)))
    return err if np.isfinite(err) else float("inf")


def inf_norm(A: CSRMatrix) -> float:
    return float(np.max(np.add.reduceat(np.abs(A.data), A.indptr[:-1])))


def _suite(scale: float, names) -> dict[str, CSRMatrix]:
    specs = {s.name: s for s in scaled_suite(scale)}
    return {name: specs[name].build() for name in names}


def _corrupt(x: np.ndarray, mode: str) -> None:
    """A wrong answer the checks must catch: a visible error, or one ulp."""
    if mode == "ulp":
        x[0] = np.nextafter(x[0], np.inf)
    else:
        x[0] += 1.0 + abs(x[0])


@dataclass
class Outcome:
    """What one checked client call contributes to the result line."""

    requests: int
    failed: int
    #: PCG iterations spent on the call
    iterations: int = 0


class Workload:
    """Protocol of a workload; see the module docstring."""

    name = ""
    root = ""
    #: tail percentile reported as ``lat_tail_us``, over all calls of a
    #: run; at the benchmark's run length well over ten lie beyond it
    tail_pct = 99
    chunk = 1

    def setup(self):
        """Build the program state; the timed part of ``setup_s``.  The
        state carries ``sim_solve_s``, the simulated solve time of each
        warm plan."""
        raise NotImplementedError

    def prepare_checks(self, state) -> None:
        """Untimed extra state the output checks need."""

    def close(self, state) -> None:
        pass

    def next_inputs(self) -> list:
        raise NotImplementedError

    def requests_in(self, inp) -> int:
        """Requests one call carries."""
        return 1

    def kind(self, inp):
        """Calls of one kind do the same work (for ``trace.overhead``)."""
        return 0

    def call(self, state, inp):
        raise NotImplementedError

    def check(self, state, inp, out, first_in_chunk: bool) -> Outcome:
        raise NotImplementedError

    def corrupt(self, out, mode: str) -> None:
        raise NotImplementedError

    def trace_points(self, state, log) -> None:
        """Workload-specific patches for the traced run."""

    def after_chunk(self, state) -> None:
        """Bookkeeping between chunks, outside any timed interval."""

    def records(self, state, n_calls: int, lats: list[float]) -> dict:
        """Service-side facts about the last ``n_calls`` calls."""
        return {"hops_s": [], "values_hits": 0}


# --------------------------------------------------------------------- #
# serve_hot
# --------------------------------------------------------------------- #
#: BENCH_core's six matrices in Zipf rank order (most requested first)
HOT_SMALL = ["grid2d_160x120", "kkt_mid_a", "ilu_factor_200x150",
             "chain_tridiag", "banded_256_1", "stokes_deep_a"]
HOT_SMALL_SCALE = 0.05
HOT_LARGE = ["kkt_wide_b", "stokes_deep_b"]
HOT_LARGE_SCALE = 0.5
#: share of requests going to the two large matrices
HOT_LARGE_SHARE = 0.10
#: submitted as its transpose, so the upper-triangular mirror runs
HOT_UPPER = "kkt_mid_a"


@dataclass
class HotState:
    svc: SolveService
    sim_solve_s: list


class ServeHot(Workload):
    name = "serve_hot"
    root = "service.solve"
    tail_pct = 99
    chunk = 100

    def __init__(self, seed: int) -> None:
        mats = _suite(HOT_SMALL_SCALE, HOT_SMALL)
        mats.update(_suite(HOT_LARGE_SCALE, HOT_LARGE))
        mats[HOT_UPPER] = mats[HOT_UPPER].transpose()
        self.names = HOT_SMALL + HOT_LARGE
        self.mats = [mats[n] for n in self.names]
        self.norms = [inf_norm(A) for A in self.mats]
        zipf = 1.0 / np.arange(1, len(HOT_SMALL) + 1)
        p = np.concatenate([
            (1.0 - HOT_LARGE_SHARE) * zipf / zipf.sum(),
            np.full(len(HOT_LARGE), HOT_LARGE_SHARE / len(HOT_LARGE)),
        ])
        # Every chunk holds the Zipf shares exactly (largest remainder)
        # in a seeded order, so the mix does not vary between runs.
        counts = np.floor(p * self.chunk).astype(int)
        short = self.chunk - counts.sum()
        counts[np.argsort(counts - p * self.chunk)[:short]] += 1
        self.deck = np.repeat(np.arange(len(self.mats)), counts)
        self.rng = np.random.default_rng([seed, 0])

    def setup(self):
        svc = SolveService(max_workers=WORKERS,
                           cache_capacity=4 * len(self.mats))
        sim = [svc.solve(A, np.ones(A.n_rows)).report.time_s
               for A in self.mats]
        return HotState(svc, sim)

    def close(self, state) -> None:
        state.svc.close()

    def next_inputs(self) -> list:
        picks = self.rng.permutation(self.deck)
        return [(int(i), self.rng.standard_normal(self.mats[i].n_rows))
                for i in picks]

    def kind(self, inp):
        return inp[0]

    def call(self, state, inp):
        i, b = inp
        return state.svc.solve(self.mats[i], b).x

    def check(self, state, inp, x, first_in_chunk) -> Outcome:
        i, b = inp
        err = backward_error(self.mats[i], self.norms[i], x, b)
        return Outcome(1, int(not err <= SERVE_BACKWARD_TOL))

    def corrupt(self, x, mode) -> None:
        _corrupt(x, mode)

    def records(self, state, n_calls, lats) -> dict:
        recs = state.svc.records()[-n_calls:]
        return {
            "hops_s": [lat - r.wall_time_s for lat, r in zip(lats, recs)],
            "values_hits": sum(r.cache_hit for r in recs),
        }


# --------------------------------------------------------------------- #
# serve_revalue
# --------------------------------------------------------------------- #
REVALUE_PATTERNS = ["kkt_mid_b", "grid2d_220x160", "circuit_powerlaw_1",
                    "ilu_factor_200x150"]
REVALUE_SCALE = 0.1
REVALUE_PATTERNS_PER_BATCH = 2
REVALUE_VARIANTS = 2
REVALUE_RHS = 2
#: values variants scale every entry by a factor in [1-d, 1+d]
REVALUE_SPREAD = 0.1
REVALUE_BATCH = REVALUE_PATTERNS_PER_BATCH * REVALUE_VARIANTS * REVALUE_RHS


def full_bundle() -> Observability:
    """Tracer, metrics, an SLO engine and a flight recorder.  The SLO
    objective is far above any batch so no incident dumps fire."""
    engine = SLOEngine([
        SLOPolicy("bench", objective_s=5.0, target=0.95,
                  window=64, fast_window=8),
    ])
    return Observability(slo=engine, recorder=FlightRecorder(capacity=256))


@dataclass
class Batch:
    """One ``solve_batch`` call: its pattern pair and its requests."""

    kind: tuple
    requests: list[SolveRequest]
    norms: list[float]


@dataclass
class RevalueState:
    svc: SolveService
    obs: Observability
    #: obs-off service for the per-request bit-identity reference
    ref: SolveService
    sim_solve_s: list


class ServeRevalue(Workload):
    name = "serve_revalue"
    root = "service.solve_batch"
    #: p99 would have about 11 of the ~1100 batches of a run beyond it
    #: and spread over 15% between runs
    tail_pct = 95
    #: every pair of patterns twice per chunk, in a seeded order
    chunk = 12

    def __init__(self, seed: int) -> None:
        mats = _suite(REVALUE_SCALE, REVALUE_PATTERNS)
        self.mats = [mats[n] for n in REVALUE_PATTERNS]
        self.rng = np.random.default_rng([seed, 0])
        # set-up warms every pattern with one batch of the measured
        # shape, the same batches in every set-up repetition
        setup_rng = np.random.default_rng([seed, 1])
        pairs = np.arange(len(self.mats)).reshape(-1, REVALUE_PATTERNS_PER_BATCH)
        self.setup_batches = [self._batch(setup_rng, p) for p in pairs]

    def _batch(self, rng, patterns) -> Batch:
        """Per pattern, fresh values variants of its structure, each with
        fresh right-hand sides."""
        reqs, norms = [], []
        for p in patterns:
            A = self.mats[p]
            for _ in range(REVALUE_VARIANTS):
                f = 1.0 + REVALUE_SPREAD * (2.0 * rng.random(A.nnz) - 1.0)
                Av = replace(A, data=A.data * f)
                norm = inf_norm(Av)
                for _ in range(REVALUE_RHS):
                    reqs.append(SolveRequest(A=Av, b=rng.standard_normal(A.n_rows)))
                    norms.append(norm)
        return Batch(tuple(sorted(int(p) for p in patterns)), reqs, norms)

    def setup(self):
        obs = full_bundle()
        svc = SolveService(max_workers=WORKERS, cache_capacity=64, obs=obs)
        sim = []
        for batch in self.setup_batches:
            sim += [r.report.time_s for r in svc.solve_batch(batch.requests)]
        return RevalueState(svc, obs, None, sim)

    def prepare_checks(self, state) -> None:
        ref = SolveService(max_workers=1, cache_capacity=64)
        for A in self.mats:
            ref.solve(A, np.ones(A.n_rows))
        state.ref = ref

    def close(self, state) -> None:
        state.svc.close()
        if state.ref is not None:
            state.ref.close()

    def next_inputs(self) -> list:
        pairs = list(itertools.combinations(range(len(self.mats)),
                                            REVALUE_PATTERNS_PER_BATCH))
        deck = pairs * (self.chunk // len(pairs))
        return [self._batch(self.rng, deck[i])
                for i in self.rng.permutation(len(deck))]

    def requests_in(self, batch) -> int:
        return len(batch.requests)

    def kind(self, batch):
        return batch.kind

    def call(self, state, batch):
        return [r.x for r in state.svc.solve_batch(batch.requests)]

    def check(self, state, batch, xs, first_in_chunk) -> Outcome:
        reqs = batch.requests
        failed = sum(
            not backward_error(r.A, norm, x, r.b) <= SERVE_BACKWARD_TOL
            for r, norm, x in zip(reqs, batch.norms, xs)
        )
        if first_in_chunk:
            # sampled: the fused answer must equal a per-request solve
            # bit for bit
            r = reqs[0]
            if not np.array_equal(state.ref.solve(r.A, r.b).x, xs[0]):
                failed = max(failed, 1)
        return Outcome(len(reqs), failed)

    def corrupt(self, xs, mode) -> None:
        _corrupt(xs[0], mode)

    def after_chunk(self, state) -> None:
        # the span exporter's job: keep the tracer below its span cap
        state.obs.tracer.clear()

    def records(self, state, n_calls, lats) -> dict:
        per = REVALUE_BATCH
        recs = state.svc.records()[-n_calls * per:]
        hops = [
            lat - max(r.wall_time_s for r in recs[k * per:(k + 1) * per])
            for k, lat in enumerate(lats)
        ]
        return {
            "hops_s": hops,
            "values_hits": sum(r.cache_hit for r in recs),
        }


# --------------------------------------------------------------------- #
# pcg_ilu
# --------------------------------------------------------------------- #
PCG_GRID = 64
#: x-couplings are 1, y-couplings this much weaker (anisotropy)
PCG_ANISOTROPY = 0.05
#: seeded perturbation of every coupling, as a share of it
PCG_SPREAD = 0.2
PCG_SHIFT = 1e-3


def anisotropic_grid(nx: int, ny: int, rng) -> CSRMatrix:
    """SPD 5-point operator of anisotropic diffusion, assembled from COO."""
    idx = np.arange(nx * ny).reshape(ny, nx)
    cx = 1.0 + PCG_SPREAD * rng.random((ny, nx - 1))
    cy = PCG_ANISOTROPY * (1.0 + PCG_SPREAD * rng.random((ny - 1, nx)))
    diag = np.full((ny, nx), PCG_SHIFT)
    diag[:, :-1] += cx
    diag[:, 1:] += cx
    diag[:-1, :] += cy
    diag[1:, :] += cy
    left, right = idx[:, :-1].ravel(), idx[:, 1:].ravel()
    up, down = idx[:-1, :].ravel(), idx[1:, :].ravel()
    rows = np.concatenate([left, right, up, down, idx.ravel()])
    cols = np.concatenate([right, left, down, up, idx.ravel()])
    vals = np.concatenate([-cx.ravel(), -cx.ravel(), -cy.ravel(),
                           -cy.ravel(), diag.ravel()])
    n = nx * ny
    return CSRMatrix.from_coo(rows, cols, vals, (n, n))


@dataclass
class PcgState:
    A: CSRMatrix
    M: TriangularPreconditioner
    sim_solve_s: list


class PcgIlu(Workload):
    name = "pcg_ilu"
    root = "pcg.solve"
    tail_pct = 90
    chunk = 5

    def __init__(self, seed: int) -> None:
        self.A = anisotropic_grid(PCG_GRID, PCG_GRID,
                                  np.random.default_rng([seed, 1]))
        self.rng = np.random.default_rng([seed, 0])

    def setup(self):
        A = self.A
        # module attribute, so the traced run's wrapper is the one called
        L, U = precond.ilu0(A)
        M = TriangularPreconditioner.build(L, U, device=TITAN_RTX_SCALED)
        _, sim_s = M.apply(np.ones(A.n_rows))
        return PcgState(A, M, [sim_s])

    def next_inputs(self) -> list:
        return [self.rng.standard_normal(self.A.n_rows)
                for _ in range(self.chunk)]

    def call(self, state, b):
        return preconditioned_cg(state.A, b, state.M, tol=PCG_TOL,
                                 max_iter=PCG_MAX_ITER)

    def check(self, state, b, res, first_in_chunk) -> Outcome:
        rel = float(np.linalg.norm(b - state.A.matvec(res.x))
                    / np.linalg.norm(b))
        ok = res.converged and rel <= PCG_CHECK_RTOL
        return Outcome(1, int(not ok), res.iterations)

    def corrupt(self, res, mode) -> None:
        _corrupt(res.x, mode)

    def trace_points(self, state, log) -> None:
        # only the matvecs PCG itself makes, not those inside the solves
        log.add_span(state.A, "matvec", "pcg.matvec")


WORKLOADS = {w.name: w for w in (ServeHot, ServeRevalue, PcgIlu)}
