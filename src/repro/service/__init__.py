"""Multi-tenant provenance service.

The serving layer above capture/store/query: a sharded store pool
(:mod:`~repro.service.pool`), a group-commit journaled ingest pipeline
with per-shard flush threads (``workers=N``, or the serial drain with
``workers=0``) and crash replay (:mod:`~repro.service.ingest`), the
concurrency primitives under both hot paths
(:mod:`~repro.service.parallel`), the shared event-to-rows apply
transformation that keeps the serial and threaded drains
state-equivalent
(:mod:`~repro.service.apply`), an invalidating per-user and
service-scoped query cache with epoch-batched cross-shard admission
(:mod:`~repro.service.cache`), a relevance-search subsystem — per-shard
incremental inverted indexes (:mod:`~repro.service.indexer`) under an
IR-ranked scatter-gather (:mod:`~repro.service.search`) — the façade
tying them together — including ``ranked_search``, per-tenant
retention (``expire_before`` / ``forget_site``), and dead-letter
operations ``deadlettered()`` / ``redrive()``
(:mod:`~repro.service.service`) — a tamper-evident journal record
(hash-chained records, sealed segments, a signed-root manifest) with
``verify_integrity()`` and auditable case reports
(:mod:`~repro.service.integrity`, :mod:`~repro.service.audit`) — and a
multi-user synthetic workload driver (:mod:`~repro.service.workload`).

Quickstart::

    from repro.service import ProvenanceService, run_multiuser_workload

    with ProvenanceService("/tmp/prov", shards=4) as service:
        report = run_multiuser_workload(service)
        for user in report.users:
            print(user, service.stats(user))
"""

from repro.service.admission import (
    AdmissionController,
    AdmissionParams,
    TokenBucket,
)
from repro.service.apply import apply_event_batch
from repro.service.audit import (
    build_case_report,
    render_case_report,
    report_digest_ok,
)
from repro.service.cache import GLOBAL_SCOPE, CacheStats, QueryCache
from repro.service.indexer import (
    compact_index,
    ensure_index,
    node_tokens,
    rebuild_index,
)
from repro.service.events import (
    EdgeEvent,
    IntervalEvent,
    NodeEvent,
    ProvEvent,
    decode_event,
    encode_event,
    qualify,
    unqualify,
    validate_user_id,
)
from repro.service.ingest import IngestJournal, IngestPipeline, IngestStats
from repro.service.integrity import (
    IntegrityReport,
    chain_hash,
    chained_line,
    parse_chained_line,
    verify_journal,
)
from repro.service.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
)
from repro.service.parallel import (
    ShardFailure,
    ShardWorkerPool,
    ranked_merge,
    scatter_gather,
)
from repro.service.pool import PoolStats, StorePool, shard_for
from repro.service.search import (
    RankingParams,
    SearchHit,
    SearchPage,
    SnippetParams,
    SqlIndexView,
    attach_snippets,
    decode_cursor,
    encode_cursor,
    extract_snippet,
    query_fingerprint,
    query_terms,
    shard_ranked_scan,
    shard_ranked_search,
    slice_after,
)
from repro.service.service import (
    AggregateStats,
    DeadLetter,
    ProvenanceService,
    ServiceHealth,
    ServiceStats,
    ShardHealth,
    TenantHealth,
    UserStats,
    parse_workers,
)
from repro.service.server import ProvenanceServer, ServerParams
from repro.service.tracing import NULL_TRACER, Span, Tracer
from repro.service.wire import (
    WireLimits,
    WireRequest,
    canonical_json,
    encode_response,
    error_payload,
    read_request,
)
from repro.service.workload import (
    MultiUserParams,
    MultiUserReport,
    replay_streams,
    run_multiuser_workload,
    synthesize_streams,
    synthesize_user_events,
)

__all__ = [
    "AdmissionController",
    "AdmissionParams",
    "AggregateStats",
    "CacheStats",
    "Counter",
    "DeadLetter",
    "EdgeEvent",
    "GLOBAL_SCOPE",
    "Gauge",
    "Histogram",
    "IngestJournal",
    "IngestPipeline",
    "IngestStats",
    "IntegrityReport",
    "IntervalEvent",
    "MetricsRegistry",
    "MultiUserParams",
    "MultiUserReport",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NodeEvent",
    "PoolStats",
    "ProvEvent",
    "ProvenanceServer",
    "ProvenanceService",
    "QueryCache",
    "RankingParams",
    "SearchHit",
    "SearchPage",
    "ServerParams",
    "ServiceHealth",
    "ServiceStats",
    "ShardFailure",
    "ShardHealth",
    "ShardWorkerPool",
    "SnippetParams",
    "Span",
    "SqlIndexView",
    "StorePool",
    "TenantHealth",
    "TokenBucket",
    "Tracer",
    "UserStats",
    "WireLimits",
    "WireRequest",
    "apply_event_batch",
    "attach_snippets",
    "build_case_report",
    "canonical_json",
    "chain_hash",
    "chained_line",
    "compact_index",
    "decode_cursor",
    "decode_event",
    "encode_cursor",
    "encode_event",
    "encode_response",
    "ensure_index",
    "error_payload",
    "extract_snippet",
    "node_tokens",
    "parse_chained_line",
    "parse_workers",
    "qualify",
    "query_fingerprint",
    "query_terms",
    "ranked_merge",
    "read_request",
    "rebuild_index",
    "render_case_report",
    "replay_streams",
    "report_digest_ok",
    "run_multiuser_workload",
    "scatter_gather",
    "shard_for",
    "shard_ranked_scan",
    "shard_ranked_search",
    "slice_after",
    "synthesize_streams",
    "synthesize_user_events",
    "unqualify",
    "validate_user_id",
    "verify_journal",
]
