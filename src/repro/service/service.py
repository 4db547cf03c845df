"""The multi-tenant provenance service facade.

One object owns the whole serving stack the ROADMAP's "millions of
users" north star needs above a single browser's capture layer:

* a :class:`~repro.service.pool.StorePool` hash-sharding users across
  N SQLite stores (lazily opened, LRU-bounded connections);
* a :class:`~repro.service.ingest.IngestPipeline` journaling every
  event (group-commit) before batching it into shard transactions —
  in parallel across per-shard flush workers — with crash-replay on
  startup;
* a :class:`~repro.service.cache.QueryCache` memoizing per-user query
  results (invalidated by that user's writes) and service-scoped
  cross-shard results (invalidated by *any* write).

Reads are read-your-writes: a query first drains any buffered events
for the user's shard, so a caller never sees the cache or store lag its
own acknowledged writes.  Cross-shard reads (:meth:`global_search`,
:meth:`aggregate_stats`) barrier the whole pipeline, then scatter-gather
across every populated shard on a query thread pool.  All ids in and
out of the facade are the user's own raw node ids; tenant prefixes
never escape (global results carry ``(user_id, node_id)`` pairs).
"""

from __future__ import annotations

import fcntl
import json
import os
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

from repro.core.capture import NodeInterval
from repro.core.graph import ProvenanceGraph
from repro.core.model import AttrValue, ProvNode
from repro.core.retention import (
    RedactionReport,
    RetentionReport,
    expire_before as graph_expire_before,
    forget_site as graph_forget_site,
)
from repro.core.taxonomy import EdgeKind
from repro.errors import (
    ConfigurationError,
    ReproError,
    UnknownNodeError,
)
from repro.service.cache import GLOBAL_SCOPE, CacheStats, QueryCache
from repro.service.events import (
    USER_SEP,
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
from repro.service.audit import build_case_report
from repro.service.indexer import ensure_index
from repro.service.ingest import IngestJournal, IngestPipeline
from repro.service.integrity import IntegrityReport
from repro.service.metrics import COUNT_BUCKETS, MetricsRegistry, NULL_REGISTRY
from repro.service.parallel import ranked_merge, scatter_gather
from repro.service.pool import PoolStats, StorePool
from repro.service.tracing import NULL_TRACER, Tracer
from repro.service.search import (
    RankingParams,
    SearchHit,
    SearchPage,
    SnippetParams,
    attach_snippets,
    decode_cursor,
    encode_cursor,
    query_fingerprint,
    query_terms,
    shard_ranked_scan,
    slice_after,
)


@dataclass(frozen=True)
class UserStats:
    """Per-tenant footprint inside the service."""

    user_id: str
    shard: int
    nodes: int
    edges: int
    intervals: int

    def to_dict(self) -> dict:
        """The canonical JSON-safe form; inverse of :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "UserStats":
        return cls(**payload)


@dataclass(frozen=True)
class AggregateStats:
    """Cross-shard totals, gathered by the scatter-gather read path."""

    shards: int
    populated_shards: int
    nodes: int
    edges: int
    intervals: int
    pages: int

    def to_dict(self) -> dict:
        """The canonical JSON-safe form; inverse of :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "AggregateStats":
        return cls(**payload)


@dataclass(frozen=True)
class DeadLetter:
    """One quarantined event, decoded for inspection and repair."""

    seq: int
    error: str
    event: ProvEvent

    def to_dict(self) -> dict:
        """The canonical JSON-safe form; inverse of :meth:`from_dict`.

        The event rides in the journal codec
        (:func:`repro.service.events.encode_event`), so a dead letter
        inspected over the wire carries exactly what the journal
        quarantined and a repaired replacement posts back in the same
        shape.
        """
        return {
            "seq": self.seq,
            "error": self.error,
            "event": encode_event(self.event),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DeadLetter":
        return cls(
            seq=payload["seq"],
            error=payload["error"],
            event=decode_event(payload["event"]),
        )


def parse_workers(workers: int | str | None, shards: int) -> int:
    """Resolve the service's ``workers=`` spec to a flush-thread count.

    Accepted specs::

        None / 0   serial drain in the calling thread
        N          N flush threads
        "auto"     min(shards, cpu_count) flush threads (the default)

    Flush threads overlap shard I/O (fsync, WAL writes); a shard maps
    to exactly one thread, so a count past ``shards`` buys nothing.
    """
    if workers is None:
        return 0
    if workers == "auto":
        return min(shards, os.cpu_count() or 1)
    if isinstance(workers, int) and not isinstance(workers, bool) and workers >= 0:
        return workers
    raise ConfigurationError(
        f"workers must be None, an int >= 0, or 'auto', not {workers!r}"
    )


@dataclass(frozen=True)
class ServiceStats:
    """Whole-service accounting snapshot."""

    users: int
    events_submitted: int
    events_applied: int
    flushes: int
    replayed: int
    quarantined: int
    cache: CacheStats
    pool: PoolStats


@dataclass(frozen=True)
class ShardHealth:
    """One shard's ingest liveness."""

    shard: int
    #: Events accepted for this shard but not yet applied.
    queue_depth: int
    #: Seconds since this shard last settled a batch; ``None`` when the
    #: shard has never flushed in this process.
    last_flush_age_s: float | None
    #: True while the shard has an undrained apply failure parked — its
    #: buffered events cannot drain until the next barrier requeues.
    poisoned: bool

    def to_dict(self) -> dict:
        """The canonical JSON-safe form; inverse of :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardHealth":
        return cls(**payload)


@dataclass(frozen=True)
class TenantHealth:
    """One tenant's recent write activity (this process's lifetime)."""

    user_id: str
    shard: int
    events_submitted: int
    last_write_age_s: float

    def to_dict(self) -> dict:
        """The canonical JSON-safe form; inverse of :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "TenantHealth":
        return cls(**payload)


@dataclass(frozen=True)
class ServiceHealth:
    """Operator rollup: where ingest stands, per shard and per tenant.

    ``status`` is ``"ok"`` unless something needs attention:
    ``"degraded"`` when events sit quarantined in the dead-letter file
    or a shard is poisoned by an undrained apply failure.
    """

    status: str
    #: Events accepted but not yet applied, service-wide.
    pending: int
    #: Quarantined events awaiting redrive.
    deadletters: int
    #: Journal sequences not yet covered by the checkpoint.
    journal_lag: int
    cache_hit_rate: float
    cache_epoch: int
    shards: tuple[ShardHealth, ...]
    #: Most recently active tenants first, capped by ``max_tenants``.
    tenants: tuple[TenantHealth, ...]

    def to_dict(self) -> dict:
        """The canonical JSON-safe form; inverse of :meth:`from_dict`."""
        return {
            "status": self.status,
            "pending": self.pending,
            "deadletters": self.deadletters,
            "journal_lag": self.journal_lag,
            "cache_hit_rate": self.cache_hit_rate,
            "cache_epoch": self.cache_epoch,
            "shards": [shard.to_dict() for shard in self.shards],
            "tenants": [tenant.to_dict() for tenant in self.tenants],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ServiceHealth":
        return cls(
            status=payload["status"],
            pending=payload["pending"],
            deadletters=payload["deadletters"],
            journal_lag=payload["journal_lag"],
            cache_hit_rate=payload["cache_hit_rate"],
            cache_epoch=payload["cache_epoch"],
            shards=tuple(
                ShardHealth.from_dict(shard) for shard in payload["shards"]
            ),
            tenants=tuple(
                TenantHealth.from_dict(tenant)
                for tenant in payload["tenants"]
            ),
        )


class ProvenanceService:
    """Record and query provenance for many users concurrently."""

    def __init__(
        self,
        root: str | None = None,
        *,
        shards: int = 4,
        max_open_stores: int | None = None,
        batch_size: int = 256,
        cache_capacity: int = 512,
        cache_epoch_writes: int | None = 256,
        fsync: bool = False,
        workers: int | str | None = "auto",
        journal_rotate_bytes: int | None = 32 * 1024 * 1024,
        index: bool = True,
        ranking: RankingParams | None = None,
        snippets: SnippetParams | None = None,
        scan_cache_rows: int = 100_000,
        metrics: bool = True,
        slow_op_ms: float | None = None,
        slow_op_log: int = 256,
        integrity: bool = True,
    ) -> None:
        """See the class docstring; the search/caching knobs:

        * ``index`` — maintain the per-shard relevance index from the
          apply path (the default).  ``False`` trades ranked-search
          freshness for raw ingest throughput; affected shards are
          marked stale and rebuild lazily on the first ranked query.
        * ``ranking`` — :class:`~repro.service.search.RankingParams`
          for the BM25/recency/frecency blend.
        * ``snippets`` — :class:`~repro.service.search.SnippetParams`
          for ranked-search match highlighting (window width, marker).
        * ``scan_cache_rows`` — the largest per-shard blended scan the
          paged-search continuation cache will hold (the cache counts
          entries, not bytes; this bounds the bytes).  Queries whose
          scans exceed it stay correct but re-score on every page.
        * ``cache_epoch_writes`` — how many writes one ingest epoch
          spans.  Cross-shard cached results (``global_search``,
          ``ranked_search``, ``aggregate_stats``) survive writes within
          an epoch and drop in one batch when it rolls, so a hot global
          query under sustained ingest stays a cache hit at a bounded
          staleness (at most this many events).  ``None`` restores
          strict drop-on-every-write freshness.  Per-user reads are
          unaffected: read-your-own-writes always holds.

        Observability knobs:

        * ``metrics`` — maintain the service-wide metrics registry
          (the default; see :meth:`metrics_snapshot`).  ``False``
          swaps in no-op instruments — the hot paths keep their call
          sites but pay only an empty method call each.
        * ``slow_op_ms`` — ops slower than this threshold append a
          structured record (span breakdown included) to a bounded
          in-memory log read via :meth:`slow_ops`.  ``None`` (default)
          disables the slow-op log; metrics histograms still record.
        * ``slow_op_log`` — how many slow-op records the log retains
          (a ring: oldest records drop first).

        Integrity knob:

        * ``integrity`` — hash-chain every journal record, seal
          segments at rotation, and maintain the signed-root manifest
          (the default; see :meth:`verify_integrity`).  The chain
          rides the existing group commit, so the ingest cost is one
          SHA-256 per event.  ``False`` disables the tamper-evident
          record entirely — :meth:`verify_integrity` then raises
          :class:`~repro.errors.ConfigurationError`.
        """
        worker_count = parse_workers(workers, shards)
        self._tmp: tempfile.TemporaryDirectory | None = None
        if root is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="prov-service-")
            root = self._tmp.name
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._lock_fd: int | None = None
        self._fanout: ThreadPoolExecutor | None = None
        self._fanout_lock = threading.Lock()
        self._acquire_lock()
        try:
            self._check_layout(shards)
            self.metrics = MetricsRegistry() if metrics else NULL_REGISTRY
            self.tracer = (
                Tracer(
                    self.metrics,
                    slow_op_ms=slow_op_ms,
                    slow_log_capacity=slow_op_log,
                )
                if metrics
                else NULL_TRACER
            )
            self._metric_ranked_pages = self.metrics.counter("search.pages")
            self._metric_scans = self.metrics.counter("search.scans")
            self._metric_continuations = self.metrics.counter(
                "search.continuations"
            )
            self._metric_shards_merged = self.metrics.histogram(
                "search.shards_merged", bounds=COUNT_BUCKETS
            )
            self.pool = StorePool(
                root,
                shards=shards,
                max_open=(
                    max_open_stores if max_open_stores is not None else shards
                ),
                metrics=self.metrics,
            )
            self.cache = QueryCache(
                cache_capacity,
                epoch_writes=cache_epoch_writes,
                metrics=self.metrics,
            )
            self.ranking = ranking if ranking is not None else RankingParams()
            self.snippets = (
                snippets if snippets is not None else SnippetParams()
            )
            if scan_cache_rows < 1:
                raise ConfigurationError("scan_cache_rows must be >= 1")
            self.scan_cache_rows = scan_cache_rows
            self.journal = IngestJournal(
                os.path.join(root, "ingest.journal"),
                fsync=fsync,
                rotate_bytes=journal_rotate_bytes,
                metrics=self.metrics,
                integrity=integrity,
            )
            self.ingest = IngestPipeline(
                self.pool, self.journal, batch_size=batch_size,
                cache=self.cache, workers=worker_count, index=index,
                metrics=self.metrics, tracer=self.tracer,
            )
            self._users: set[str] = set()
            #: Events recovered from the journal at startup (crash replay).
            self.replayed = self.ingest.replay()
        except BaseException:
            self._release_lock()
            raise

    # -- writes -----------------------------------------------------------------

    def record_event(self, event: ProvEvent) -> int:
        """Accept one pre-built event; returns its journal sequence.

        Edge events have their id remapped to the journal sequence —
        caller-supplied edge ids (e.g. capture-local counters) collide
        across tenants sharing a shard, and ``INSERT OR REPLACE`` would
        let one user overwrite another's edges.
        """
        if event.user_id not in self._users:  # regex only on first sight
            validate_user_id(event.user_id)
            self._users.add(event.user_id)
        if isinstance(event, EdgeEvent):
            edge = event.edge
            return self.ingest.submit_edge(
                event.user_id,
                edge.kind,
                edge.src,
                edge.dst,
                timestamp_us=edge.timestamp_us,
                attrs=dict(edge.attrs) or None,
            ).id
        return self.ingest.submit(event)

    def record_node(self, user_id: str, node: ProvNode) -> int:
        return self.record_event(NodeEvent(user_id=user_id, node=node))

    def record_edge(
        self,
        user_id: str,
        kind: EdgeKind,
        src: str,
        dst: str,
        *,
        timestamp_us: int,
        attrs: dict[str, AttrValue] | None = None,
    ) -> int:
        """Record an edge between *user_id*'s nodes; returns the edge id.

        Edge ids are allocated from the journal sequence, so they are
        unique across every tenant sharing a shard.
        """
        if user_id not in self._users:  # regex only on first sight
            validate_user_id(user_id)
            self._users.add(user_id)
        edge = self.ingest.submit_edge(
            user_id, kind, src, dst, timestamp_us=timestamp_us, attrs=attrs
        )
        return edge.id

    def record_interval(self, user_id: str, interval: NodeInterval) -> int:
        return self.record_event(
            IntervalEvent(user_id=user_id, interval=interval)
        )

    def ingest_graph(
        self,
        user_id: str,
        graph: ProvenanceGraph,
        *,
        intervals: tuple[NodeInterval, ...] | list[NodeInterval] = (),
    ) -> int:
        """Stream a captured provenance graph through the pipeline.

        The bridge from the single-user capture layer: nodes land first,
        then edges (ids remapped to journal sequences), then intervals.
        Returns the number of events submitted.
        """
        validate_user_id(user_id)
        events = 0
        for node in graph.nodes():
            self.record_node(user_id, node)
            events += 1
        for edge in graph.edges():
            self.record_edge(
                user_id,
                edge.kind,
                edge.src,
                edge.dst,
                timestamp_us=edge.timestamp_us,
                attrs=dict(edge.attrs) or None,
            )
            events += 1
        for interval in intervals:
            self.record_interval(user_id, interval)
            events += 1
        return events

    def flush(self) -> int:
        """Drain all buffered events to the shard stores."""
        return self.ingest.flush()

    # -- dead-letter operations -------------------------------------------------

    def deadlettered(self) -> list[DeadLetter]:
        """Quarantined events, oldest first, decoded for inspection.

        An event lands here when crash replay (or a redrive) proved the
        stores can never accept it — e.g. an edge whose endpoints were
        never recorded.  Each entry keeps the original journal sequence
        and the error that condemned it; repair and resubmit with
        :meth:`redrive`.
        """
        return [
            DeadLetter(
                seq=entry["seq"],
                error=entry["error"],
                event=decode_event(entry["ev"]),
            )
            for entry in self.journal.deadlettered()
        ]

    def redrive(self, seq: int, *, event: ProvEvent | None = None) -> int:
        """Repair and resubmit the quarantined entry *seq*.

        *event* is the repaired replacement (same tenant); ``None``
        retries the original — useful when the missing context has
        since been recorded (e.g. the edge's endpoints exist now).  The
        entry leaves the dead-letter file, the event re-enters the
        pipeline under a fresh journal sequence (returned), and the
        tenant's shard is drained so the caller immediately sees
        whether the repair took.  If the event is *still* poison it is
        re-quarantined under its new sequence — a failed redrive never
        wedges the pipeline — and the original error re-raises.

        Ordering: the replacement is journaled *before* the entry
        leaves the dead-letter file, so a crash in between can at worst
        leave the entry redrivable a second time (rows are idempotent)
        — never lost from both places.
        """
        entries = {entry["seq"]: entry for entry in self.journal.deadlettered()}
        entry = entries.get(seq)
        if entry is None:
            raise ConfigurationError(
                f"no dead-lettered entry with sequence {seq}"
            )
        original = decode_event(entry["ev"])
        replacement = original if event is None else event
        if replacement.user_id != original.user_id:
            raise ConfigurationError(
                f"redrive cannot move an event between tenants"
                f" ({original.user_id!r} -> {replacement.user_id!r})"
            )
        new_seq = self.record_event(replacement)
        self.journal.pop_deadletter(seq)
        try:
            self.ingest.flush(self.pool.shard_of(replacement.user_id))
        except ReproError:
            self.ingest.quarantine_pending()
            raise
        return new_seq

    # -- retention --------------------------------------------------------------

    def expire_before(
        self,
        user_id: str,
        cutoff_us: int,
        *,
        bridge: bool = True,
        compact: bool = False,
    ) -> RetentionReport:
        """Expire *user_id*'s provenance older than *cutoff_us*.

        Runs :func:`repro.core.retention.expire_before` per-tenant
        through the shard pool: the tenant's subgraph is loaded, the
        expiration (with lineage bridging, unless ``bridge=False``)
        computed, and the doomed nodes surgically removed from the
        shard — rows, attrs, intervals, and relevance-index postings
        alike; no other tenant's rows are touched.  Bridge edges
        re-enter through the normal journaled write path, so their ids
        come from the journal sequence and can never collide with
        another tenant's edges.

        A full pipeline barrier runs first: every journaled event is
        applied and checkpointed before the surgery, so a crash replay
        can never resurrect expired rows.  Bridges are journaled and
        flushed *before* the deletion — a crash in between leaves the
        bridges persisted and the expired nodes still present, and
        re-running the expiration finishes the job (already-persisted
        bridges are recognized and never re-submitted, so repeated runs
        add nothing twice).  The tenant's cached queries drop and the
        ingest epoch rolls (deleted data must not serve from the
        cross-shard cache, staleness budget or not) — which also kills
        every outstanding paged-search cursor's continuation state, so
        a cursor minted before the surgery re-scores and can never
        resurface expired hits.  ``compact=True`` additionally sweeps
        ghost vocabulary rows from the shard's relevance index in the
        same transaction as the surgery (see
        :func:`repro.service.indexer.compact_index` for the tid
        stability invariants).  Run it quiesced for the tenant — events
        submitted concurrently with the surgery may land before or
        after the cutoff computation.
        """
        validate_user_id(user_id)
        shard = self.pool.shard_of(user_id)
        self.ingest.flush()  # journal barrier: checkpoint covers everything
        prefix = qualify(user_id, "")
        with self.pool.checkout(shard) as store:
            graph = store.load_subgraph(prefix)
        new_graph, report = graph_expire_before(
            graph, cutoff_us, bridge=bridge
        )
        doomed = set(graph.node_ids()) - set(new_graph.node_ids())
        # Journal only the *new* bridges: a surviving bridge from an
        # earlier run is already a row, and re-submitting it would
        # insert a duplicate edge under a fresh journal id.
        persisted = {
            (edge.src, edge.dst)
            for edge in graph.edges()
            if edge.attrs.get("bridged") == 1
        }
        bridges = [
            edge
            for edge in new_graph.edges()
            if edge.attrs.get("bridged") == 1
            and (edge.src, edge.dst) not in persisted
        ]
        for edge in bridges:
            self.record_edge(
                user_id,
                edge.kind,
                unqualify(user_id, edge.src),
                unqualify(user_id, edge.dst),
                timestamp_us=edge.timestamp_us,
                attrs=dict(edge.attrs),
            )
        if bridges:
            self.ingest.flush(shard)
        with self.pool.checkout(shard) as store, store.exclusive():
            store.delete_nodes_by_id(sorted(doomed))
            store.prune_orphan_pages()
            if compact:
                store.compact_terms()
            store.commit()
        self.cache.invalidate_user(user_id)
        self.cache.roll_epoch()
        # The deletion itself becomes part of the auditable record: a
        # signed tombstone says *what* retention removed and re-seals
        # the manifest, so verification stays green afterwards.
        self.journal.record_tombstone(
            "expire_before",
            user=user_id,
            cutoff_us=cutoff_us,
            nodes_removed=report.nodes_removed,
            edges_removed=report.edges_removed,
            bridges_added=report.bridge_edges_added,
        )
        return report

    def forget_site(
        self, user_id: str, site: str, *, compact: bool = False
    ) -> RedactionReport:
        """Redact every trace of *site* from *user_id*'s provenance.

        Runs :func:`repro.core.retention.forget_site` per-tenant: the
        site's nodes (and search terms that only led there) disappear
        with no bridging — the point of redaction is that the
        connection itself becomes unanswerable.  Page rows no tenant
        references anymore are pruned, so the forgotten URLs do not
        survive in ``prov_pages``; the relevance index drops the
        documents in the same transaction, so ranked search cannot
        resurface them.  ``compact=True`` additionally sweeps ghost
        vocabulary rows in the same transaction — redaction is exactly
        the path that strands terms whose only documents vanished, and
        a redacted term lingering in ``prov_terms`` is itself a trace.
        Same barrier, cache, and quiescence contract as
        :meth:`expire_before`.
        """
        validate_user_id(user_id)
        shard = self.pool.shard_of(user_id)
        self.ingest.flush()  # journal barrier: checkpoint covers everything
        prefix = qualify(user_id, "")
        with self.pool.checkout(shard) as store, store.exclusive():
            graph = store.load_subgraph(prefix)
            new_graph, report = graph_forget_site(graph, site)
            doomed = set(graph.node_ids()) - set(new_graph.node_ids())
            store.delete_nodes_by_id(sorted(doomed))
            store.prune_orphan_pages()
            if compact:
                store.compact_terms()
            store.commit()
        self.cache.invalidate_user(user_id)
        self.cache.roll_epoch()
        # Redaction hides *what* was forgotten but not *that* a
        # redaction ran: the tombstone names the site (the redaction
        # request is itself an auditable act), not the removed rows.
        self.journal.record_tombstone(
            "forget_site",
            user=user_id,
            site=site,
            nodes_removed=report.nodes_removed,
            edges_removed=report.edges_removed,
        )
        return report

    # -- reads ------------------------------------------------------------------

    def ancestors(
        self, user_id: str, node_id: str, *, max_depth: int = 100
    ) -> list[tuple[str, int]]:
        """[(node_id, depth)] of *node_id*'s ancestors, nearest first."""
        return self._walk(user_id, "ancestors", node_id, max_depth)

    def descendants(
        self, user_id: str, node_id: str, *, max_depth: int = 100
    ) -> list[tuple[str, int]]:
        """[(node_id, depth)] of *node_id*'s descendants, nearest first."""
        return self._walk(user_id, "descendants", node_id, max_depth)

    def search(
        self, user_id: str, term: str, *, limit: int = 50
    ) -> list[str]:
        """*user_id*'s node ids matching *term*, newest first."""
        with self.tracer.trace("query.read", kind="search"):
            shard = self._drained_shard(user_id)

            def compute() -> list[str]:
                with self.pool.checkout(shard) as store:
                    hits = store.sql_text_search(
                        term, limit=limit, id_prefix=qualify(user_id, "")
                    )
                return [unqualify(user_id, hit) for hit in hits]

            # Copy out: cached lists must not be mutable by callers.
            return list(
                self.cache.get_or_compute(
                    user_id, "search", (term, limit), compute
                )
            )

    def stats(self, user_id: str) -> UserStats:
        """Per-user node/edge/interval counts."""
        shard = self._drained_shard(user_id)

        def compute() -> UserStats:
            with self.pool.checkout(shard) as store:
                nodes, edges, intervals = store.counts_for_id_prefix(
                    qualify(user_id, "")
                )
            return UserStats(
                user_id=user_id,
                shard=shard,
                nodes=nodes,
                edges=edges,
                intervals=intervals,
            )

        return self.cache.get_or_compute(user_id, "stats", (), compute)

    # -- cross-shard reads ------------------------------------------------------

    def global_search(
        self, term: str, *, limit: int = 50
    ) -> list[tuple[str, str]]:
        """``[(user_id, node_id)]`` matching *term* across every tenant.

        Scatter-gather: after a full pipeline barrier (global
        read-your-writes), every populated shard is searched
        concurrently on the query pool and the per-shard newest-first
        result lists are heap-merged by recency.  Results are cached
        service-scoped under the epoch admission policy: a hit may lag
        the corpus by at most ``cache_epoch_writes`` events and is
        dropped in a batch when the ingest epoch rolls
        (``cache_epoch_writes=None`` restores strict per-write
        freshness).  The barrier lives inside the compute — a cache hit
        must not pay a pipeline join.
        """

        def compute() -> list[tuple[str, str]]:
            self.ingest.flush()
            def search(shard: int):
                def task():
                    with self.pool.checkout(shard) as store:
                        return store.sql_text_search_scored(term, limit=limit)

                return task

            per_shard = scatter_gather(
                [search(shard) for shard in self.pool.populated_shards()],
                executor=self._query_pool(),
            )
            # Shard lists are each (ts DESC, id ASC); merging on the
            # same key gives a deterministic global recency order.
            merged, _consumed = ranked_merge(
                per_shard, limit, key=lambda row: (-row[1], row[0])
            )
            results: list[tuple[str, str]] = []
            for stored_id, _ts in merged:
                user_id, _sep, raw_id = stored_id.partition(USER_SEP)
                results.append((user_id, raw_id))
            return results

        with self.tracer.trace("search.global"):
            return list(
                self.cache.get_or_compute_global(
                    "global_search", (term, limit), compute
                )
            )

    def ranked_search(
        self,
        term: str,
        *,
        user_id: str | None = None,
        limit: int = 50,
        cursor: str | None = None,
    ) -> SearchPage:
        """Relevance-ranked, pageable search over the provenance corpus.

        The paper's recognition workload: query text is tokenized with
        the shared :mod:`repro.ir` analyzer, each shard orders its
        candidates from the incremental inverted index (BM25 blended
        with recency and per-tenant frecency — knobs in ``ranking=``),
        and pages merge across shards by blended score, best first.
        Every hit carries a snippet with the matched query terms
        highlighted (knobs in ``snippets=``) — users page until they
        *recognize* the right candidate, so the evidence of why each
        hit matched is part of the result, not a UI afterthought.

        With ``user_id`` the search is tenant-scoped (the user's shard,
        after a read-your-own-writes drain, cached per-user); without
        it the search is cross-tenant, scatter-gathered over every
        populated shard behind a full pipeline barrier and cached
        service-scoped under the epoch admission policy (see
        ``cache_epoch_writes``).  Either way the result is a
        :class:`~repro.service.search.SearchPage`: up to *limit*
        :class:`~repro.service.search.SearchHit` entries plus an opaque
        ``cursor`` token (``None`` once exhausted) to pass back for the
        next page.

        Cursor semantics: the token encodes a ``(score, node)``
        watermark per shard plus the cache epoch that minted it, and is
        integrity-checked — a tampered or wrong-query token raises
        :class:`~repro.errors.CursorError`, never a garbage page.
        Serving a page below a watermark reuses the shard's cached
        blended scan (a *continuation* — one snippet fetch per page,
        no re-ranking), so pages are disjoint and stable while the
        continuation state lives: until the ingest epoch rolls, or —
        tenant-scoped — until the tenant's own writes invalidate it.
        After either event the cursor transparently falls back to
        re-scoring: the resume re-anchors on the watermark hit's
        *current* rank (absolute scores shift with every idf/avgdl
        change, so the recorded score is only the fallback for an
        anchor that retention deleted), which means ordinary corpus
        growth neither repeats already-returned hits nor drops the
        tail — deeper pages may simply reflect newer data, and a
        stale page can never be served.  Cursors survive process
        restarts (they carry no in-memory references) and tolerate a
        changed ``limit`` between pages.

        Shards whose index is stale (migrated from a pre-index schema,
        or ingested with ``index=False``) rebuild transparently on
        first use.
        """
        if limit < 1:
            raise ConfigurationError("ranked_search limit must be >= 1")
        terms = tuple(query_terms(term))
        if not terms:
            # Stopword-only or empty query: nothing can match, and the
            # full pipeline barrier + shard fan-out (plus any lazy
            # index rebuild) must not be paid to learn that.  The page
            # is exhausted from birth — cursor=None — whatever token
            # the caller offered.
            return SearchPage(hits=(), cursor=None)
        fingerprint = query_fingerprint(terms, user_id)
        marks: dict[int, tuple[float, str] | None] = {}
        universe: list[int] | None = None
        if cursor is not None:
            # The minted epoch needs no explicit comparison here: all
            # continuation state is cached epoch-bound, so a cursor
            # from a rolled epoch misses the cache and re-scores below
            # its watermarks — a stale page is structurally unservable.
            _minted_epoch, marks, universe = decode_cursor(
                cursor, fingerprint
            )

        def exhausted(shard: int) -> bool:
            return shard in marks and marks[shard] is None

        if user_id is not None:
            shard = self._drained_shard(user_id)

            def compute() -> SearchPage:
                if exhausted(shard):
                    return SearchPage(hits=(), cursor=None)
                with self.pool.checkout(shard) as store:
                    window, remaining = self._shard_window(
                        store,
                        shard,
                        scope=user_id,
                        terms=terms,
                        limit=limit,
                        mark=marks.get(shard),
                        id_prefix=qualify(user_id, ""),
                    )
                    rows = attach_snippets(
                        store, window, list(terms), self.snippets
                    )
                new_marks = dict(marks)
                if rows:
                    last = rows[-1]
                    new_marks[shard] = (last[1], last[0])
                if remaining == 0:
                    new_marks[shard] = None
                hits = tuple(
                    SearchHit(
                        user_id=user_id,
                        nid=unqualify(user_id, stored_id),
                        score=score,
                        snippet=snippet,
                        matched_terms=matched,
                    )
                    for stored_id, score, snippet, matched in rows
                )
                return SearchPage(
                    hits=hits,
                    cursor=self._mint_cursor(
                        fingerprint, new_marks, [shard]
                    ),
                )

            with self.tracer.trace("search.ranked", scope="user"):
                page = self.cache.get_or_compute(
                    user_id,
                    "ranked_page",
                    (terms, limit, tuple(sorted(marks.items()))),
                    compute,
                    epoch_bound=True,
                )
            self._metric_ranked_pages.inc()
            return page

        page_key = (
            terms,
            limit,
            tuple(sorted(marks.items())),
            tuple(universe) if universe is not None else None,
        )

        def compute() -> SearchPage:
            self.ingest.flush()
            # A cursor pins the shard set its pagination began over:
            # a shard populated mid-pagination (a new tenant's first
            # write) joins fresh searches, never an in-flight cursor
            # chain — pages stay a snapshot, not a moving target.
            shards = (
                universe
                if universe is not None
                else self.pool.populated_shards()
            )
            active = [s for s in shards if not exhausted(s)]
            self._metric_shards_merged.observe(len(active))

            def page_of(shard: int):
                def task():
                    with self.pool.checkout(shard) as store:
                        return self._shard_window(
                            store,
                            shard,
                            scope=GLOBAL_SCOPE,
                            terms=terms,
                            limit=limit,
                            mark=marks.get(shard),
                            id_prefix=None,
                        )

                return task

            shard_pages = scatter_gather(
                [page_of(shard) for shard in active],
                executor=self._query_pool(),
            )
            # Each shard's rows are (score DESC, id ASC); merging on
            # the same key gives a deterministic global relevance
            # order, and the consumed counts advance each shard's
            # watermark to its last *emitted* hit only.
            merged, consumed = ranked_merge(
                [rows for rows, _remaining in shard_pages],
                limit,
                key=lambda row: (-row[1], row[0]),
            )
            new_marks = dict(marks)
            # Snippets only for the hits this page actually emits —
            # each shard's consumed prefix — never the full fetched
            # windows (shards x limit candidates for limit hits).
            decorated: dict[str, tuple[str, tuple[str, ...]]] = {}
            for shard, (rows, remaining), took in zip(
                active, shard_pages, consumed
            ):
                if took:
                    last = rows[took - 1]
                    new_marks[shard] = (last[1], last[0])
                    with self.pool.checkout(shard) as store:
                        for stored_id, _score, snippet, matched in (
                            attach_snippets(
                                store, rows[:took], list(terms),
                                self.snippets,
                            )
                        ):
                            decorated[stored_id] = (snippet, matched)
                if took == len(rows) and remaining == 0:
                    new_marks[shard] = None
            hits = []
            for stored_id, score in merged:
                user, _sep, raw_id = stored_id.partition(USER_SEP)
                snippet, matched = decorated[stored_id]
                hits.append(
                    SearchHit(
                        user_id=user,
                        nid=raw_id,
                        score=score,
                        snippet=snippet,
                        matched_terms=matched,
                    )
                )
            return SearchPage(
                hits=tuple(hits),
                cursor=self._mint_cursor(fingerprint, new_marks, shards),
            )

        with self.tracer.trace("search.ranked", scope="global"):
            page = self.cache.get_or_compute_global(
                "ranked_page", page_key, compute
            )
        self._metric_ranked_pages.inc()
        return page

    def _shard_window(
        self,
        store,
        shard: int,
        *,
        scope: str,
        terms: tuple[str, ...],
        limit: int,
        mark: tuple[float, str] | None,
        id_prefix: str | None,
    ) -> tuple[list[tuple[str, float]], int]:
        """One shard's continuation window: ``([(stored_id, score)],
        remaining)``.

        *Rows* are best-first — at most *limit*, strictly below *mark*
        — and *remaining* counts the hits still beyond the window (0 =
        this window drains the shard).  The shard's full blended scan
        is computed once and cached epoch-bound in *scope*, so serving
        a later page costs one watermark search plus the caller's
        snippet fetch: a continuation, never a re-rank.  Scans larger
        than ``scan_cache_rows`` are *not* cached — the query cache's
        capacity counts entries, not bytes, and a handful of
        broad-term scans must not pin unbounded memory; such queries
        stay correct (watermarks still apply) but re-score per page.
        """

        scanned = False

        def compute_scan() -> list[tuple[str, float]]:
            nonlocal scanned
            scanned = True
            ensure_index(store)
            with self.tracer.trace("search.scan", shard=shard):
                return shard_ranked_scan(
                    store,
                    list(terms),
                    params=self.ranking,
                    id_prefix=id_prefix,
                )

        scan = self.cache.get_or_compute(
            scope, "ranked_scan", (terms, shard), compute_scan,
            epoch_bound=True,
            cache_when=lambda rows: len(rows) <= self.scan_cache_rows,
        )
        # Scan vs. continuation is *the* paged-search health signal: a
        # later page served off the cached scan is a continuation; a
        # re-run of the scoring scan (cold cache, epoch roll, tenant
        # write) is not.
        if scanned:
            self._metric_scans.inc()
        else:
            self._metric_continuations.inc()
        return slice_after(scan, mark, limit)

    def _mint_cursor(
        self,
        fingerprint: str,
        marks: dict[int, tuple[float, str] | None],
        shards: list[int],
    ) -> str | None:
        """The continuation token after a page, or ``None`` if every
        shard of the pagination's universe is drained (last page)."""
        if all(shard in marks and marks[shard] is None for shard in shards):
            return None
        return encode_cursor(self.cache.epoch, fingerprint, marks, shards)

    def aggregate_stats(self) -> AggregateStats:
        """Whole-corpus totals, one concurrent counting pass per shard.

        The pipeline barrier runs inside the compute; a cache hit
        skips the flush entirely and follows the service-scope epoch
        admission policy (bounded staleness, see ``cache_epoch_writes``).
        """

        def compute() -> AggregateStats:
            self.ingest.flush()
            def count(shard: int):
                def task():
                    with self.pool.checkout(shard) as store:
                        return store.sql_counts()

                return task

            populated = self.pool.populated_shards()
            counts = scatter_gather(
                [count(shard) for shard in populated],
                executor=self._query_pool(),
            )
            return AggregateStats(
                shards=self.pool.shards,
                populated_shards=len(populated),
                nodes=sum(row[0] for row in counts),
                edges=sum(row[1] for row in counts),
                intervals=sum(row[2] for row in counts),
                pages=sum(row[3] for row in counts),
            )

        return self.cache.get_or_compute_global("aggregate_stats", (), compute)

    def users(self) -> list[str]:
        """User ids seen by this service instance, sorted."""
        return sorted(self._users)

    def service_stats(self) -> ServiceStats:
        return ServiceStats(
            users=len(self._users),
            events_submitted=self.ingest.stats.submitted,
            events_applied=self.ingest.stats.applied,
            flushes=self.ingest.stats.flushes,
            replayed=self.ingest.stats.replayed,
            quarantined=self.ingest.stats.quarantined,
            cache=self.cache.stats(),
            pool=self.pool.stats(),
        )

    # -- observability ----------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """A JSON-serialisable snapshot of every service metric.

        ``{"counters": {...}, "gauges": {...}, "histograms": {...}}`` —
        histograms summarize as count/sum/min/max plus estimated
        p50/p95/p99 (fixed-bucket linear interpolation); labeled
        counters render per-label series as ``name{label=value}`` keys
        next to the grand total.  Deliberately transport-agnostic — a future HTTP
        adapter can serve this dict per endpoint unchanged.

        Point-in-time gauges (queue depth, open stores, cache size) are
        refreshed at snapshot time; with ``metrics=False`` the snapshot
        is empty.
        """
        if self.metrics.enabled:
            self.journal.flush_metric_tallies()
            self.metrics.gauge("ingest.pending").set(self.ingest.pending())
            self.metrics.gauge("pool.open_stores").set(self.pool.open_count)
            self.metrics.gauge("cache.size").set(len(self.cache))
            self.metrics.gauge("cache.epoch").set(self.cache.epoch)
        return self.metrics.snapshot()

    def health(self, *, max_tenants: int = 100) -> ServiceHealth:
        """Per-shard / per-tenant ingest liveness rollup.

        Cheap by construction — reads the pipeline's existing
        bookkeeping (queue depths, last-flush stamps, tenant activity)
        plus the dead-letter sidecar; it never drains, flushes, or
        touches shard stores, so probing it cannot perturb what it
        measures.  ``status`` goes ``"degraded"`` when quarantined
        events await redrive or a shard is poisoned by an undrained
        apply failure.  *max_tenants* caps the tenant rollup, most
        recently active first.
        """
        shard_ages, tenant_activity = self.ingest.activity_snapshot()
        poisoned = set(self.ingest.poisoned_shards())
        shards = []
        for shard in sorted(set(shard_ages) | poisoned | {
            shard
            for shard in range(self.pool.shards)
            if self.ingest.pending(shard)
        }):
            shards.append(
                ShardHealth(
                    shard=shard,
                    queue_depth=self.ingest.pending(shard),
                    last_flush_age_s=shard_ages.get(shard),
                    poisoned=shard in poisoned,
                )
            )
        recent = sorted(
            tenant_activity.items(), key=lambda item: item[1][1]
        )[:max_tenants]
        tenants = tuple(
            TenantHealth(
                user_id=user,
                shard=self.pool.shard_of(user),
                events_submitted=submitted,
                last_write_age_s=age,
            )
            for user, (submitted, age) in recent
        )
        deadletters = len(self.journal.deadlettered())
        cache_stats = self.cache.stats()
        return ServiceHealth(
            status="degraded" if deadletters or poisoned else "ok",
            pending=self.ingest.pending(),
            deadletters=deadletters,
            journal_lag=max(
                0, self.journal.last_seq - self.journal.flushed_seq
            ),
            cache_hit_rate=cache_stats.hit_rate,
            cache_epoch=cache_stats.epoch,
            shards=tuple(shards),
            tenants=tenants,
        )

    def slow_ops(self) -> list[dict]:
        """Recorded slow-op breakdowns, oldest first.

        Populated only when the service was built with ``slow_op_ms``:
        each record is ``{"op", "ms", "tags", "spans"}`` with nested
        child spans showing where the time went.  The log is a bounded
        ring (``slow_op_log`` records); reading does not clear it.
        """
        return self.tracer.slow_ops()

    # -- integrity & audit ------------------------------------------------------

    def verify_integrity(self) -> IntegrityReport:
        """Walk the whole journal and verify its tamper-evident record.

        Flushes staged records and re-attests the manifest first (so
        the walk always ends on signed ground), then recomputes every
        record's chain hash, checks each sealed segment's digest, the
        tombstone chain, and the manifest's per-tenant roots.  Returns
        an :class:`~repro.service.integrity.IntegrityReport`; on
        corruption ``first_error`` pinpoints the first bad byte as
        ``(segment, offset, reason)``.  Read-only apart from the
        re-attestation — verification never "repairs" anything.

        Raises :class:`~repro.errors.ConfigurationError` when the
        service was built with ``integrity=False``.
        """
        with self.tracer.trace("integrity.verify"):
            return self.journal.verify_integrity()

    def audit_report(self, user_id: str) -> dict:
        """Auditable case report for *user_id*.

        Timeline plus per-artifact chain of custody, every node hashed,
        the subgraph digested through the canonical export form, the
        journal verification result embedded, and the report closed
        with its own digest — see :mod:`repro.service.audit`.  The
        report is byte-stable: the same history always produces the
        same canonical JSON.
        """
        with self.tracer.trace("integrity.audit", user=user_id):
            return build_case_report(self, user_id)

    # -- lifecycle --------------------------------------------------------------

    def close(self, *, flush: bool = True) -> None:
        """Shut down; ``flush=False`` abandons buffers (crash simulation —
        the journal still holds everything unflushed for replay).

        Handles are released even when the final flush raises; the
        journal keeps the unflushed events for the next open's replay.
        """
        try:
            if flush:
                self.ingest.flush()
        finally:
            if self._fanout is not None:
                self._fanout.shutdown(wait=True)
                self._fanout = None
            self.ingest.close()
            self.pool.close()
            self._release_lock()
            if self._tmp is not None:
                self._tmp.cleanup()
                self._tmp = None

    def __enter__(self) -> "ProvenanceService":
        return self

    def __exit__(self, exc_type, *exc_info: object) -> None:
        # Don't let a failing final flush mask the in-block exception;
        # the journal preserves whatever the skipped flush would have
        # written.
        self.close(flush=exc_type is None)

    # -- internals --------------------------------------------------------------

    def _acquire_lock(self) -> None:
        """Exclusive per-root lock: ``flock`` on ``<root>/service.lock``.

        Two live services on one root would allocate the same journal
        sequences and overwrite each other's edges across tenants, so
        the second open must fail loudly.  The lock is held on an open
        descriptor for the service's lifetime and the kernel drops it
        when the holder closes or dies, so a crashed service leaves
        nothing to steal.  The file is never unlinked: a later opener
        would lock a fresh inode while the holder still held the old
        one.  The pid written into it only names the holder in the
        refusal message.
        """
        lock_path = os.path.join(self.root, "service.lock")
        fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                holder = os.read(fd, 32).decode("ascii", "replace").strip()
                raise ConfigurationError(
                    f"service root {self.root!r} is already open in process"
                    f" {holder or '(still starting)'}; concurrent services"
                    f" on one root would corrupt shared shards"
                ) from None
            os.ftruncate(fd, 0)
            os.write(fd, str(os.getpid()).encode("ascii"))
        except BaseException:
            os.close(fd)
            raise
        self._lock_fd = fd

    def _release_lock(self) -> None:
        if self._lock_fd is not None:
            os.close(self._lock_fd)  # closing the descriptor drops the flock
            self._lock_fd = None

    def _check_layout(self, shards: int) -> None:
        """Pin the shard count to the service root.

        Hash routing is a function of the shard count; reopening an
        existing root with a different count would silently strand any
        tenant whose shard moved.  Refuse instead.
        """
        layout_path = os.path.join(self.root, "service.json")
        if os.path.exists(layout_path):
            with open(layout_path, "r", encoding="utf-8") as handle:
                layout = json.load(handle)
            if layout.get("shards") != shards:
                raise ConfigurationError(
                    f"service root {self.root!r} was created with"
                    f" {layout.get('shards')} shards; reopening with"
                    f" {shards} would orphan re-routed tenants"
                )
        else:
            with open(layout_path, "w", encoding="utf-8") as handle:
                json.dump({"shards": shards}, handle)

    def _query_pool(self) -> ThreadPoolExecutor:
        """The lazily started scatter-gather executor for cross-shard reads."""
        with self._fanout_lock:
            if self._fanout is None:
                self._fanout = ThreadPoolExecutor(
                    max_workers=min(self.pool.shards, 16),
                    thread_name_prefix="prov-query",
                )
            return self._fanout

    def _drained_shard(self, user_id: str) -> int:
        """The user's shard, with read-your-writes freshness.

        Drains the caller's shard synchronously (the query must see the
        caller's own acknowledged writes); other shards' buffers are
        handed to the background flush workers without waiting, which
        keeps the journal checkpoint moving — a shard whose buffer
        never drained would otherwise pin the checkpoint and block
        journal compaction indefinitely.  In serial mode (no workers)
        this degrades to a full drain, as before.

        Returns the shard index, not a store: readers must take the
        store through :meth:`StorePool.checkout` for the duration of
        their SQL so LRU eviction cannot close it under them.
        """
        validate_user_id(user_id)
        shard = self.pool.shard_of(user_id)
        if self.ingest.pending():
            self.ingest.drain_for_read(shard)
        return shard

    def _walk(
        self, user_id: str, direction: str, node_id: str, max_depth: int
    ) -> list[tuple[str, int]]:
        with self.tracer.trace("query.read", kind=direction):
            return self._walk_traced(user_id, direction, node_id, max_depth)

    def _walk_traced(
        self, user_id: str, direction: str, node_id: str, max_depth: int
    ) -> list[tuple[str, int]]:
        shard = self._drained_shard(user_id)

        def compute() -> list[tuple[str, int]]:
            with self.pool.checkout(shard) as store:
                walk = (
                    store.sql_ancestors
                    if direction == "ancestors"
                    else store.sql_descendants
                )
                try:
                    found = walk(
                        qualify(user_id, node_id), max_depth=max_depth
                    )
                except UnknownNodeError:
                    raise UnknownNodeError(node_id) from None
            return [
                (unqualify(user_id, found_id), depth)
                for found_id, depth in found
            ]

        return list(
            self.cache.get_or_compute(
                user_id, direction, (node_id, max_depth), compute
            )
        )
