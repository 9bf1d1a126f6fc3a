"""Batch solve results: per-request outcomes plus bucket/fusion info.

``SolveService.solve_batch`` used to return a bare ``list[SolveResult]``;
with structural batching the service also knows *how* the batch executed
— which requests were fused into one pattern bucket, how many distinct
values-groups each bucket held, and the host wall time of the whole
batch.  :class:`BatchResult` carries all of that while iterating,
indexing, and comparing exactly like the old list, so existing callers
(``for r in service.solve_batch(...)``, ``results[0].x``,
``assert results == expected``) keep working unchanged.

.. deprecated:: 1.2
    Relying on the return value being a ``list`` instance (e.g.
    ``type(results) is list`` or calling ``.append``) — it is now a
    :class:`BatchResult`.  Sequence-style access is stable.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

__all__ = ["BatchResult", "BucketInfo"]


@dataclass(frozen=True)
class BucketInfo:
    """How one structural bucket of a batch executed.

    Attributes
    ----------
    structure:
        The bucket's structure fingerprint.
    method:
        The requested method for the bucket.
    n_requests:
        Requests that landed in this bucket.
    n_groups:
        Distinct (full-fingerprint) matrix groups inside the bucket —
        fused buckets have ``n_groups >= 2``.
    n_rhs:
        Total right-hand sides across the bucket.
    fused:
        True when the bucket fused multiple values-groups over one
        shared pattern plan.
    pattern_hit:
        True when the pattern-level plan was already cached.
    wall_time_s:
        Host wall time the bucket spent in its worker.
    """

    structure: str | None
    method: str
    n_requests: int
    n_groups: int
    n_rhs: int
    fused: bool
    pattern_hit: bool
    wall_time_s: float
    #: submitting tenant (buckets are tenant-homogeneous by keying)
    tenant: str = "default"


class BatchResult(Sequence):
    """Sequence of :class:`repro.SolveResult` plus batch-level accounting.

    Compares equal to a plain list/tuple of the same results, so golden
    assertions written against the old return type still pass.
    """

    __slots__ = ("results", "buckets", "wall_time_s")

    def __init__(self, results, buckets=(), wall_time_s: float = 0.0) -> None:
        self.results = list(results)
        self.buckets: tuple[BucketInfo, ...] = tuple(buckets)
        self.wall_time_s = float(wall_time_s)

    # -- list compatibility -------------------------------------------- #
    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.results[i]
        return self.results[i]

    def __iter__(self):
        return iter(self.results)

    def __eq__(self, other) -> bool:
        if isinstance(other, BatchResult):
            return self.results == other.results
        if isinstance(other, (list, tuple)):
            return self.results == list(other)
        return NotImplemented

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __repr__(self) -> str:
        return (
            f"BatchResult(n={len(self.results)}, "
            f"buckets={len(self.buckets)}, "
            f"fused_requests={self.fused_requests}, "
            f"wall_time_s={self.wall_time_s:.6f})"
        )

    # -- aggregates ----------------------------------------------------- #
    @property
    def fused_requests(self) -> int:
        """Requests that executed inside a fused (multi-group) bucket."""
        return sum(b.n_requests for b in self.buckets if b.fused)

    @property
    def sim_time_s(self) -> float:
        """Total simulated solve time across all results' reports."""
        return sum(r.report.time_s for r in self.results)
