"""Serving layer: plan caching, request batching, and observability.

See :class:`SolveService` for the front door.  The layer exists because
the paper's preprocessing-amortization argument (Table 5) *is* a serving
argument: pay the block analysis once per matrix, then answer a stream
of solve requests at kernel speed.
"""

from repro.serve.batch import BatchResult, BucketInfo
from repro.serve.cache import CacheStats, PlanCache
from repro.serve.ingress import (
    DEFAULT_CLASSES,
    AsyncSolveService,
    IngressConfig,
    IngressStats,
    PriorityClass,
)
from repro.serve.fingerprint import (
    fingerprints,
    matrix_fingerprint,
    structure_fingerprint,
    structure_key,
    values_fingerprint,
)
from repro.serve.service import (
    ServiceConfig,
    ServiceTimeoutError,
    SolveRequest,
    SolveService,
)
from repro.serve.stats import RequestRecord, ServiceStats
from repro.serve.store import PlanStore, StoreStats
from repro.serve.traffic import (
    Arrival,
    ReplayReport,
    TrafficSpec,
    generate_traffic,
    make_rhs,
    replay_async,
    replay_fifo,
)
from repro.serve.workload import (
    Workload,
    mixed_workload,
    replay,
    revalued_workload,
)

__all__ = [
    "Workload",
    "mixed_workload",
    "revalued_workload",
    "replay",
    "BatchResult",
    "BucketInfo",
    "CacheStats",
    "PlanCache",
    "PlanStore",
    "StoreStats",
    "matrix_fingerprint",
    "structure_fingerprint",
    "values_fingerprint",
    "fingerprints",
    "structure_key",
    "ServiceConfig",
    "ServiceTimeoutError",
    "SolveRequest",
    "SolveService",
    "RequestRecord",
    "ServiceStats",
    "AsyncSolveService",
    "IngressConfig",
    "IngressStats",
    "PriorityClass",
    "DEFAULT_CLASSES",
    "Arrival",
    "ReplayReport",
    "TrafficSpec",
    "generate_traffic",
    "make_rhs",
    "replay_async",
    "replay_fifo",
]
