"""Value rebinding: re-aim a pattern-compiled plan at new matrix values.

The planners (§3.1-3.4) decide everything — segment boundaries, kernel
selection, level schedules, block layouts — from the sparsity structure;
the numeric values only ever flow through *gathers* (``data[order]``,
``strict.data[flat]``, diagonal extraction).  That makes the whole
pipeline traceable: build the plan once on a *tracer* matrix whose data
array is ``[1, 2, ..., nnz]``, then read the value arrays embedded in
the finished plan back as position maps into the original data array.
Rebinding a new values vector is then a handful of ``data[posmap]``
gathers — no re-planning, no level discovery, no block re-layout.

This is the mechanism behind the serve layer's structural batching: the
same-pattern/different-values workloads of factorization-driven solvers
(ICCG re-solves, repeated Li-style amortization) skip the 5-10x
preprocessing cost entirely after the first values variant.

Anything the tracer cannot represent exactly (non-float dtypes, nnz
beyond the dtype's exact-integer range, external kernels with opaque
auxiliary state) raises :class:`RebindError`; callers fall back to a
full per-values build.
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace

import numpy as np

from repro.core.plan import ExecutionPlan, SpMVSegment, TriSegment
from repro.errors import caller_rows
from repro.formats.triangular import check_solvable_diagonal
from repro.kernels.base import PreparedLower
from repro.kernels.sweep import LevelSchedule

__all__ = ["RebindError", "tracer_matrix", "PlanRebinder"]

#: largest integer each float itemsize represents exactly — a tracer
#: position beyond this would round and corrupt the position map
_MAX_EXACT_INT = {2: 2048, 4: 1 << 24, 8: 1 << 53}


class RebindError(Exception):
    """The plan's value flow cannot be traced back to data positions."""


def tracer_matrix(A):
    """``A`` with its data replaced by the positions ``1..nnz``.

    The values are 1-based so every diagonal entry is nonzero — the
    tracer must survive the same singularity validation the real build
    runs.  Raises :class:`RebindError` when the dtype cannot hold every
    position exactly (non-float data, or nnz beyond the exact-integer
    range of the dtype).
    """
    dt = A.data.dtype
    if not np.issubdtype(dt, np.floating):
        raise RebindError(f"tracer requires float data, got {dt}")
    limit = _MAX_EXACT_INT.get(dt.itemsize)
    if limit is None or A.nnz + 1 > limit:
        raise RebindError(
            f"nnz={A.nnz} exceeds exact-integer range of {dt}"
        )
    data = np.arange(1, A.nnz + 1, dtype=dt)
    return replace(A, data=data, _validated=True)


class PlanRebinder:
    """Extract position maps from a tracer-built plan; bind new values.

    Construct with the :class:`ExecutionPlan` produced by preparing a
    :func:`tracer_matrix`; every value array found in the plan is
    decoded into an ``int64`` map of positions into the original data
    array.  :meth:`bind` then produces a new plan whose segments share
    all structural state (schedules' index arrays, cost caches, perm,
    preprocess report) with the template and carry freshly gathered
    values.  Construction raises :class:`RebindError` on any value
    array that is not an exact gather of tracer positions — e.g. an
    external kernel whose preprocessing does arithmetic on the values.
    """

    def __init__(self, plan: ExecutionPlan, nnz: int, dtype) -> None:
        self.plan = plan
        self.nnz = int(nnz)
        self.dtype = np.dtype(dtype)
        self._seg_binders = [self._segment_binder(s) for s in plan.segments]

    # ------------------------------------------------------------------ #
    # Position-map extraction
    # ------------------------------------------------------------------ #
    def _pos_map(self, arr: np.ndarray) -> np.ndarray:
        """Decode a tracer value array back into data positions."""
        arr = np.asarray(arr)
        if arr.dtype != self.dtype:
            raise RebindError(
                f"value array dtype {arr.dtype} != matrix dtype {self.dtype}"
            )
        if arr.size and not np.all(np.isfinite(arr)):
            raise RebindError("non-finite tracer value (arithmetic on values)")
        pos = np.rint(arr).astype(np.int64) - 1
        if arr.size and (
            not np.array_equal((pos + 1).astype(arr.dtype), arr)
            or pos.min() < 0
            or pos.max() >= self.nnz
        ):
            raise RebindError("value array is not a pure gather of the data")
        return pos

    def matrix_binder(self, m):
        """Binder for a CSR/DCSR-like dataclass carrying a ``data`` array."""
        if not dataclasses.is_dataclass(m) or not hasattr(m, "data"):
            raise RebindError(f"unrecognized matrix type {type(m).__qualname__}")
        pmap = self._pos_map(m.data)
        fields = {f.name for f in dataclasses.fields(m)}
        if "_validated" in fields:
            return lambda data: replace(m, data=data[pmap], _validated=True)
        return lambda data: replace(m, data=data[pmap])

    def _prep_binder(self, prep: PreparedLower):
        bind_L = self.matrix_binder(prep.L)
        bind_strict = self.matrix_binder(prep.strict)
        dmap = self._pos_map(prep.diag)

        def bind(data):
            diag = data[dmap]
            # the tracer build validated *its* diagonal; every rebind must
            # re-check the real values or a zero pivot slips through
            check_solvable_diagonal(diag)
            return PreparedLower(bind_L(data), bind_strict(data), diag)

        return bind

    def _sched_binder(self, sched: LevelSchedule):
        bind_prep = self._prep_binder(sched.prep)
        emap = self._pos_map(sched.entry_vals)
        # replace() passes the existing _cost_cache through, so all
        # overlays share one cache — its keys are value-independent
        # (device, value_bytes, mode), which the pattern key pins.
        return lambda data: replace(
            sched, prep=bind_prep(data), entry_vals=data[emap]
        )

    def _aux_binder(self, aux):
        if isinstance(aux, PreparedLower):
            return self._prep_binder(aux)
        if dataclasses.is_dataclass(aux) and isinstance(
            getattr(aux, "sched", None), LevelSchedule
        ):
            bind_sched = self._sched_binder(aux.sched)
            return lambda data: replace(aux, sched=bind_sched(data))
        raise RebindError(
            f"unrecognized auxiliary type {type(aux).__qualname__}"
        )

    def _segment_binder(self, seg):
        if isinstance(seg, TriSegment):
            bind_aux = self._aux_binder(seg.aux)
            rows = range(seg.lo, seg.hi)

            def bind_tri(data):
                with caller_rows(rows):
                    aux = bind_aux(data)
                return TriSegment(seg.lo, seg.hi, seg.kernel, aux, seg.nnz)

            return bind_tri
        if isinstance(seg, SpMVSegment):
            bind_m = self.matrix_binder(seg.matrix)
            return lambda data: SpMVSegment(
                seg.row_lo,
                seg.row_hi,
                seg.col_lo,
                seg.col_hi,
                bind_m(data),
                seg.kernel,
            )
        raise RebindError(f"unrecognized segment type {type(seg).__qualname__}")

    # ------------------------------------------------------------------ #
    # Binding
    # ------------------------------------------------------------------ #
    def bind(self, data: np.ndarray) -> ExecutionPlan:
        """A plan over ``data`` sharing all structure with the template."""
        data = np.asarray(data)
        if data.shape != (self.nnz,) or data.dtype != self.dtype:
            raise RebindError(
                f"data must have shape ({self.nnz},) dtype {self.dtype}, "
                f"got {data.shape} {data.dtype}"
            )
        with caller_rows(self.plan.perm):
            segments = [b(data) for b in self._seg_binders]
        return ExecutionPlan(
            method=self.plan.method,
            n=self.plan.n,
            segments=segments,
            perm=self.plan.perm,
            preprocess_report=self.plan.preprocess_report,
        )
