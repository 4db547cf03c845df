"""Exception taxonomy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without also catching programming
errors such as :class:`TypeError`.  Subpackages raise the most specific
subclass that applies; the class docstrings describe when each is used.

Every class carries a stable, machine-readable ``code`` string — the
identifier a wire client branches on (``cursor_invalid``,
``tenant_quota_exceeded``, ...).  Codes are part of the API contract:
renaming one is a breaking change, while exception *classes* may move
or gain parents freely.  The single exception→HTTP-status mapping
lives here too (:data:`HTTP_STATUS_BY_CODE`, :func:`http_status_for`),
so the HTTP server never grows an isinstance ladder and every adapter
(present or future) agrees on what each failure means at the wire:

* 4xx — the request was wrong (malformed, unknown object, invalid
  tenant, bad cursor) and retrying it unchanged cannot succeed;
* 429 — admission refused it (rate, quota); retry after backing off;
* 5xx — the service could not serve it (overload, crashed worker,
  poisoned shard); the request may be fine and a retry may succeed.

Anything without an explicit status entry maps to 500 — unknown
failures must read as server faults, never as client mistakes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""

    #: Stable machine-readable identifier; subclasses override.
    code: str = "internal"


class ConfigurationError(ReproError):
    """A component was constructed or configured with invalid parameters."""

    code = "config_invalid"


class InvalidTenantError(ConfigurationError):
    """An operation named a tenant id that is empty, ``None``, or
    ill-formed.

    Raised once, at the API boundary (facade or HTTP adapter) by
    :func:`repro.service.events.validate_user_id` — inner layers may
    assume every tenant id they see is well-formed.  Subclasses
    :class:`ConfigurationError` so pre-taxonomy callers catching that
    still work.
    """

    code = "invalid_tenant"


# --------------------------------------------------------------------------
# Web substrate errors
# --------------------------------------------------------------------------


class WebError(ReproError):
    """Base class for errors in the synthetic web substrate."""

    code = "web_error"


class InvalidUrlError(WebError, ValueError):
    """A string could not be parsed as a URL."""

    code = "url_invalid"


class PageNotFoundError(WebError, KeyError):
    """A fetch referenced a URL that does not exist in the web graph."""

    code = "page_not_found"


class RedirectLoopError(WebError):
    """A redirect chain exceeded the maximum number of hops."""

    code = "redirect_loop"


# --------------------------------------------------------------------------
# Browser substrate errors
# --------------------------------------------------------------------------


class BrowserError(ReproError):
    """Base class for errors in the browser simulator."""

    code = "browser_error"


class NoSuchTabError(BrowserError, KeyError):
    """An operation referenced a tab id that is not open."""

    code = "tab_not_found"


class NoSuchBookmarkError(BrowserError, KeyError):
    """An operation referenced a bookmark id that does not exist."""

    code = "bookmark_not_found"


class NoSuchDownloadError(BrowserError, KeyError):
    """An operation referenced a download id that does not exist."""

    code = "download_not_found"


class NavigationError(BrowserError):
    """A navigation could not be completed (e.g. bad URL, closed tab)."""

    code = "navigation_failed"


# --------------------------------------------------------------------------
# Provenance core errors
# --------------------------------------------------------------------------


class ProvenanceError(ReproError):
    """Base class for errors in the provenance core."""

    code = "provenance_error"


class CycleError(ProvenanceError):
    """An edge insertion would create a cycle in the provenance DAG.

    The paper (section 3.1) requires provenance to be acyclic; the
    versioning policies exist precisely to prevent this error from ever
    surfacing during normal capture.  It is raised only when a caller
    bypasses the policies and inserts a cyclic edge directly.
    """

    code = "edge_cycle"

    def __init__(self, source: str, target: str) -> None:
        super().__init__(
            f"edge {source!r} -> {target!r} would create a cycle in the provenance graph"
        )
        self.source = source
        self.target = target


class UnknownNodeError(ProvenanceError, KeyError):
    """A graph or store operation referenced a node id that does not exist."""

    code = "node_not_found"

    def __init__(self, node_id: str) -> None:
        super().__init__(f"unknown provenance node: {node_id!r}")
        self.node_id = node_id


class UnknownEdgeError(ProvenanceError, KeyError):
    """A graph or store operation referenced an edge id that does not exist."""

    code = "edge_not_found"

    def __init__(self, edge_id: str) -> None:
        super().__init__(f"unknown provenance edge: {edge_id!r}")
        self.edge_id = edge_id


class DuplicateNodeError(ProvenanceError):
    """A node with the same id was inserted twice with different content."""

    code = "node_duplicate"

    def __init__(self, node_id: str) -> None:
        super().__init__(f"duplicate provenance node: {node_id!r}")
        self.node_id = node_id


class StoreError(ProvenanceError):
    """A storage-layer failure (schema mismatch, closed connection, ...)."""

    code = "store_error"


class StoreClosedError(StoreError):
    """An operation was attempted on a store that has been closed."""

    code = "store_closed"


class StoreAffinityError(StoreError):
    """A store bound to one thread was touched from another.

    While a flush worker holds a store exclusively (see
    :meth:`repro.core.store.ProvenanceStore.exclusive`), writes from any
    other thread must fail loudly instead of interleaving statements
    into the worker's open transaction.
    """

    code = "store_affinity"


class SchemaVersionError(StoreError):
    """An on-disk store has a schema version this library cannot read."""

    code = "schema_version"

    def __init__(self, found: int, expected: int) -> None:
        super().__init__(
            f"store schema version {found} is not supported (expected {expected})"
        )
        self.found = found
        self.expected = expected


class ShardPoisonedError(StoreError):
    """A shard cannot serve while an undrained apply failure is parked.

    A poisoned shard's buffered events cannot drain until the next
    barrier requeues (or quarantines) the failing batch; operations
    that would require that drain report this instead of blocking.
    """

    code = "shard_poisoned"

    def __init__(self, shard: int) -> None:
        super().__init__(
            f"shard {shard} is poisoned by an undrained apply failure"
        )
        self.shard = shard


class IntegrityError(ProvenanceError):
    """The provenance record itself failed an integrity check.

    Raised when a hash-chained journal record, a segment seal, or the
    signed-root manifest cannot be authenticated: a malformed or
    tampered chained line, a digest that does not recompute, a
    signature that does not verify.  This is the one error class that
    means *the stored history may have been altered* — it is a server
    fault (the record is the service's to protect), never a client
    mistake, so it maps to 500 explicitly rather than by fallback.

    :meth:`repro.service.service.ProvenanceService.verify_integrity`
    reports corruption as data (an
    :class:`~repro.service.integrity.IntegrityReport` pinpointing the
    first bad record) rather than raising; this class is raised by the
    lower-level parsers and by callers that demand a verified chain.
    """

    code = "integrity_violation"


class QueryError(ProvenanceError):
    """A provenance query was malformed or referenced missing objects."""

    code = "query_invalid"


class CursorError(QueryError):
    """A paged-search continuation token could not be honored.

    Raised when a cursor fails its integrity check (truncated, not
    base64, checksum mismatch — i.e. tampered or corrupted in transit)
    or was minted for a *different* query or scope than the one it is
    being replayed against.  A cursor from an older cache epoch is NOT
    an error: it transparently falls back to re-scoring (see
    :meth:`repro.service.service.ProvenanceService.ranked_search`).
    """

    code = "cursor_invalid"


class QueryTimeoutError(QueryError):
    """A time-bounded query exceeded its deadline and was not recoverable.

    Most bounded queries degrade gracefully by returning partial results
    (see :mod:`repro.core.query.timebound`); this error is reserved for
    queries that cannot produce any meaningful partial result.
    """

    code = "query_timeout"

    def __init__(self, deadline_ms: float) -> None:
        super().__init__(f"query exceeded its {deadline_ms:.0f} ms deadline")
        self.deadline_ms = deadline_ms


# --------------------------------------------------------------------------
# Admission-control errors (the serving layer's shed decisions)
# --------------------------------------------------------------------------


class AdmissionError(ReproError):
    """Base class for requests refused *at admission* — before any
    journal append or store write.

    Admission rejections are by construction side-effect free: nothing
    was journaled, nothing applied, no sequence allocated.  A client
    may always retry the identical request later.
    """

    code = "admission_rejected"


class RateLimitedError(AdmissionError):
    """A tenant's token bucket could not cover the request's cost.

    ``retry_after_s`` says when the bucket will have refilled enough;
    the HTTP adapter surfaces it as a ``Retry-After`` header.
    """

    code = "rate_limited"

    def __init__(self, user_id: str, retry_after_s: float) -> None:
        super().__init__(
            f"tenant {user_id!r} is over its rate limit; retry in"
            f" {retry_after_s:.2f}s"
        )
        self.user_id = user_id
        self.retry_after_s = retry_after_s


class TenantQuotaError(AdmissionError):
    """A write would push a tenant past its event quota."""

    code = "tenant_quota_exceeded"

    def __init__(self, user_id: str, quota: int) -> None:
        super().__init__(
            f"tenant {user_id!r} exhausted its quota of {quota} events"
        )
        self.user_id = user_id
        self.quota = quota


class ConnectionLimitError(AdmissionError):
    """The server is at its concurrent-connection cap."""

    code = "connection_limit"

    def __init__(self, limit: int) -> None:
        super().__init__(f"connection limit of {limit} reached")
        self.limit = limit


class OverloadedError(AdmissionError):
    """The service shed the request to protect itself.

    Raised when the ingest backlog exceeds the configured ceiling
    (load must shed *before* the journal, not queue into SQLite) or
    when every facade-executor slot is busy.
    """

    code = "overloaded"


# --------------------------------------------------------------------------
# Wire-protocol errors (HTTP framing and request decoding)
# --------------------------------------------------------------------------


class ProtocolError(ReproError):
    """A request could not be parsed as HTTP/JSON this server speaks."""

    code = "bad_request"


class EndpointNotFoundError(ProtocolError):
    """The request named a method+path no route serves."""

    code = "not_found"

    def __init__(self, method: str, path: str) -> None:
        super().__init__(f"no route for {method} {path}")
        self.method = method
        self.path = path


class PayloadTooLargeError(ProtocolError):
    """A request body exceeded the configured size limit."""

    code = "payload_too_large"

    def __init__(self, size: int, limit: int) -> None:
        super().__init__(f"request body of {size} bytes exceeds {limit}")
        self.size = size
        self.limit = limit


class HeadersTooLargeError(ProtocolError):
    """A request line or header block exceeded the configured limit."""

    code = "headers_too_large"


# --------------------------------------------------------------------------
# The exception→HTTP-status mapping (one table, no isinstance ladders)
# --------------------------------------------------------------------------

#: ``code -> HTTP status``.  Codes absent here serve as 500: an error
#: the table does not know is a server fault until proven otherwise.
HTTP_STATUS_BY_CODE: dict[str, int] = {
    # The request itself was wrong; retrying unchanged cannot succeed.
    "config_invalid": 400,
    "invalid_tenant": 400,
    "bad_request": 400,
    "query_invalid": 400,
    "cursor_invalid": 400,
    "url_invalid": 400,
    # The request named something that does not exist.
    "not_found": 404,
    "node_not_found": 404,
    "edge_not_found": 404,
    "page_not_found": 404,
    # Framing limits.
    "payload_too_large": 413,
    "headers_too_large": 431,
    # Admission refused it; back off and retry.
    "admission_rejected": 429,
    "rate_limited": 429,
    "tenant_quota_exceeded": 429,
    # The service cannot serve right now; a retry may succeed.
    "connection_limit": 503,
    "overloaded": 503,
    "shard_poisoned": 503,
    "store_closed": 503,
    "query_timeout": 504,
    # The stored record failed authentication: a server fault by
    # definition (explicit, though the fallback would agree).
    "integrity_violation": 500,
}


def error_code(exc: BaseException) -> str:
    """The stable machine-readable code for *exc*.

    Non-:class:`ReproError` exceptions are ``"internal"`` — unknown
    failures must never masquerade as a known client mistake.
    """
    if isinstance(exc, ReproError):
        return exc.code
    return "internal"


def http_status_for(exc: BaseException) -> int:
    """The HTTP status *exc* serves as; 500 for anything unmapped."""
    return HTTP_STATUS_BY_CODE.get(error_code(exc), 500)
