"""Exception types shared across the :mod:`repro` package."""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SparseFormatError",
    "NotTriangularError",
    "SingularMatrixError",
    "ShapeMismatchError",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceClosedError",
    "IngressShedError",
    "ValidationError",
    "ObservabilityError",
    "DuplicateMetricError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class SparseFormatError(ReproError):
    """A sparse container's arrays violate its structural invariants."""


class NotTriangularError(ReproError):
    """An operation required a (lower/upper) triangular matrix."""


class SingularMatrixError(ReproError):
    """A triangular solve encountered a zero or missing diagonal entry.

    ``rows`` (sorted) and ``row`` (the first) name the offending rows in
    the caller's coordinates when the raising check knows them, else
    they are ``None``.
    """

    def __init__(self, message: str | None = None, *, rows=None) -> None:
        self.rows = None if rows is None else sorted(int(r) for r in rows)
        self.row = self.rows[0] if self.rows else None
        super().__init__(
            message
            or f"zero diagonal at {len(self.rows)} rows (first: row {self.row})"
        )


class caller_rows:
    """Rename the rows of a :class:`SingularMatrixError` raised inside
    from an inner index space to the enclosing one: row ``r`` becomes
    ``index[r]`` (``range(lo, hi)`` for a diagonal block, a reorder's or
    the upper mirror's ``perm``; ``None`` renames nothing)."""

    __slots__ = ("index",)

    def __init__(self, index) -> None:
        self.index = index

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        if (
            isinstance(exc, SingularMatrixError)
            and exc.rows is not None
            and self.index is not None
        ):
            index = self.index
            raise SingularMatrixError(rows=[index[r] for r in exc.rows]) from None


class ShapeMismatchError(ReproError):
    """Operand shapes are incompatible for the requested operation."""


class ServiceError(ReproError):
    """Base class for errors raised by the :mod:`repro.serve` layer."""


class ServiceOverloadedError(ServiceError):
    """The service's bounded admission queue is full; retry later."""


class ServiceClosedError(ServiceError):
    """A request was submitted to a service that has been shut down."""


class IngressShedError(ServiceOverloadedError):
    """The async ingress shed a request instead of running it.

    Attributes
    ----------
    reason:
        Machine-readable shed category: ``"admission"`` (the class
        queue stayed full past the backpressure budget), ``"evicted"``
        (a queued request was dropped to admit a tenant with fewer
        queued requests — the per-tenant fairness rule), ``"expired"``
        (the deadline passed while the request sat in queue), or
        ``"shutdown"`` (the ingress closed without draining).
    tenant:
        Submitting tenant, for attribution in logs and retries.
    """

    def __init__(
        self, message: str, *, reason: str = "admission", tenant: str = "default"
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.tenant = tenant


class ObservabilityError(ReproError):
    """Base class for errors raised by the :mod:`repro.obs` layer."""


class DuplicateMetricError(ObservabilityError):
    """A metric name was registered twice in one registry."""


class ValidationError(ReproError):
    """A runtime correctness check failed (see :mod:`repro.validate`).

    Structured so callers can dispatch on what went wrong:

    Attributes
    ----------
    kind:
        Machine-readable category, e.g. ``"plan-structure"``,
        ``"plan-nnz"``, ``"plan-perm"``, ``"residual"``.
    detail:
        Dict of the numbers behind the failure (offending segment
        bounds, measured residual, tolerance, ...).
    """

    def __init__(self, message: str, *, kind: str = "validation", detail: dict | None = None) -> None:
        super().__init__(message)
        self.kind = kind
        self.detail = dict(detail or {})
