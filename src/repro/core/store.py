"""The SQLite-backed homogeneous provenance store.

Persists a :class:`~repro.core.graph.ProvenanceGraph` (plus display
intervals) in the Places-derived schema of :mod:`repro.core.schema`,
and answers the paper's queries *in SQL* — ancestors and descendants
run as recursive CTEs inside SQLite, exactly the kind of local
computation whose feasibility the paper set out to demonstrate.  The
latency experiment (E4) times these SQL paths; the in-memory query
engine (:mod:`repro.core.query`) is the optimized alternative measured
alongside.

The store normalizes like Places: URLs and titles live once in
``prov_pages``; visit-instance nodes reference them.  Node string ids
remain the public interface — integer rowids are internal.

Supports bulk persistence (:meth:`save_graph`), write-through capture
(:meth:`append_node` / :meth:`append_edge`), and lossless round-trips
(:meth:`load_graph`).
"""

from __future__ import annotations

import math
import os
import sqlite3
import threading
from collections import Counter
from collections.abc import Iterable, Sequence
from contextlib import contextmanager

from repro.browser.transitions import TransitionType
from repro.core.capture import NodeInterval
from repro.core.graph import ProvenanceGraph
from repro.core.model import AttrValue, ProvEdge, ProvNode
from repro.core.retention import EdgeRow, NodeFacts
from repro.core.schema import (
    ANCESTOR_QUERY,
    DESCENDANT_QUERY,
    EDGE_KIND_IDS,
    EDGE_KINDS_BY_ID,
    NODE_KIND_IDS,
    NODE_KINDS_BY_ID,
    PROVENANCE_SCHEMA,
    SCHEMA_VERSION,
)
from repro.core.taxonomy import EdgeKind, NodeKind
from repro.errors import (
    SchemaVersionError,
    StoreAffinityError,
    StoreClosedError,
    UnknownNodeError,
)

_TRANSITION_NAMES = {t.name.lower(): t.value for t in TransitionType}
_TRANSITION_BY_VALUE = {t.value: t.name.lower() for t in TransitionType}

#: Keep ``IN (...)`` parameter lists under SQLite's default 999 limit.
_SQL_CHUNK = 400


def _chunked(items: list, size: int = _SQL_CHUNK):
    for start in range(0, len(items), size):
        yield items[start:start + size]


def _like_escape(text: str) -> str:
    r"""Escape LIKE metacharacters so *text* matches itself literally.

    Pairs with ``ESCAPE '\'`` in the query; without it a ``%`` or ``_``
    in a user-supplied value acts as a wildcard.
    """
    return text.replace("\\", "\\\\").replace("%", "\\%").replace("_", "\\_")


def _prefix_successor(prefix: str) -> str | None:
    """The least string greater than every string starting with *prefix*.

    ``None`` when no such string exists (an empty prefix, or one made
    only of U+10FFFF).  Trailing U+10FFFF code points cannot be bumped,
    so they drop and the one before them is bumped instead; U+D7FF
    bumps to U+E000 because the surrogates between them cannot be
    stored as UTF-8 text.
    """
    stem = prefix.rstrip("\U0010ffff")
    if not stem:
        return None
    last = ord(stem[-1])
    return stem[:-1] + chr(0xE000 if last == 0xD7FF else last + 1)


def _id_range(column: str, prefix: str) -> tuple[str, tuple[str, ...]]:
    """``(predicate, params)`` selecting the *column* values that start
    with *prefix*: ``column >= prefix AND column < successor(prefix)``.

    Every tenant-scoped statement scopes through this.  SQLite compares
    TEXT under BINARY collation byte by byte, and UTF-8 bytes order as
    code points do, so the range holds exactly the ids
    ``str.startswith(prefix)`` accepts.  Unlike ``LIKE 'prefix%'``
    (which the default case-insensitive LIKE keeps off the index), a
    range seeks the ``id`` index: a tenant-scoped read costs
    O(tenant rows), not O(shard rows).
    """
    upper = _prefix_successor(prefix)
    if upper is None:
        return f"{column} >= ?", (prefix,)
    return f"{column} >= ? AND {column} < ?", (prefix, upper)


def _like_substring(term: str) -> str:
    """A LIKE pattern matching *term* as a literal substring."""
    return "%" + _like_escape(term) + "%"


def _register_functions(conn: sqlite3.Connection) -> sqlite3.Connection:
    """Register the SQL functions the store's statements call.

    ``math_log`` and ``math_log1p`` are Python's own :func:`math.log`
    and :func:`math.log1p`, so a score computed in SQL is bit-identical
    to the same formula in Python, and no SQLite build needs its
    optional math functions (where present, ``ln(1 + v)`` differs from
    ``log1p(v)`` in the last bit for about 1% of integers).
    ``str_lower`` is :meth:`str.lower`, the fold the LIKE search applies
    to both the term and the text: SQLite's own ``lower()`` folds ASCII
    only, so "Über" could never match a term Python had folded to
    "über".  Run on every connection as it is opened: registration is
    per connection.
    """
    conn.create_function("math_log", 1, math.log, deterministic=True)
    conn.create_function("math_log1p", 1, math.log1p, deterministic=True)
    conn.create_function("str_lower", 1, str.lower, deterministic=True)
    return conn


#: Node upsert that KEEPS the existing rowid on id collisions.  ``INSERT
#: OR REPLACE`` would delete + re-insert under a fresh nid, silently
#: severing every committed edge and interval referencing the old one —
#: re-recording a node (idempotent capture, service replay) must never
#: do that.
_NODE_UPSERT = (
    "INSERT INTO prov_nodes"
    " (id, kind, timestamp_us, page_id, label, hidden, transition)"
    " VALUES (?, ?, ?, ?, ?, ?, ?)"
    " ON CONFLICT(id) DO UPDATE SET"
    " kind=excluded.kind, timestamp_us=excluded.timestamp_us,"
    " page_id=excluded.page_id, label=excluded.label,"
    " hidden=excluded.hidden, transition=excluded.transition"
)


class ProvenanceStore:
    """SQLite persistence and SQL query layer for provenance graphs."""

    def __init__(self, path: str = ":memory:", *, metrics: object = None) -> None:
        self.path = path
        # check_same_thread=False: a store may be opened by one thread
        # (lazily, via the service's StorePool) and then owned by a
        # per-shard flush worker.  Cross-thread discipline is enforced
        # by this class instead — see :meth:`exclusive` and ``conn``.
        self._conn: sqlite3.Connection | None = _register_functions(
            sqlite3.connect(path, check_same_thread=False)
        )
        self._lock = threading.RLock()
        #: The process that opened this store owns its connections.  A
        #: SQLite handle carried across ``fork`` shares file locks and
        #: statement state with the parent — using it from the child is
        #: undefined behavior, so it must fail loudly instead.  Any
        #: application that forks with a store open would otherwise
        #: silently corrupt the shard.
        self._pid = os.getpid()
        #: Thread ident currently holding the store via :meth:`exclusive`.
        self._owner: int | None = None
        #: Per-thread read-only connections for disk stores (WAL reads).
        #: Guarded by its own lock: readers must be able to register
        #: while a writer holds the main lock via :meth:`exclusive` —
        #: not blocking on the writer is their entire point.
        self._read_conns: dict[int, sqlite3.Connection] = {}
        self._read_lock = threading.Lock()
        self._nids: dict[str, int] = {}
        self._node_ts: dict[str, int] = {}
        self._pages: dict[str, tuple[int, str]] = {}  # url -> (page_id, title)
        self._tids: dict[str, int] = {}  # interned term -> tid
        #: Per-call counts of the ranked-search reads, booked into the
        #: optional service-layer metrics sink (duck-typed: anything
        #: with ``.counter(name, label_name=...)`` — the core layer
        #: must not import the service package) as
        #: ``store.read_ops{op=...}``.  The paged-search tests and bench
        #: read them to prove that serving page N+1 issues a per-shard
        #: *continuation* — snippet fetches only — rather than
        #: re-running the scoring statement of a full re-rank.
        self._read_ops_metric = (
            metrics.counter("store.read_ops", label_name="op")  # type: ignore[attr-defined]
            if metrics is not None
            else None
        )
        found = None  # a new database: no version yet
        if self._conn.execute(
            "SELECT 1 FROM sqlite_master WHERE type='table' AND name='prov_meta'"
        ).fetchone():
            (value,) = self._conn.execute(
                "SELECT value FROM prov_meta WHERE key = 'schema_version'"
            ).fetchone()
            found = int(value)
        if found is not None and found != SCHEMA_VERSION:
            # Refused before the pragmas below write anything (switching
            # a file to WAL rewrites its header): a store this code
            # cannot read is left byte for byte as it was found.
            self._conn.close()
            self._conn = None
            raise SchemaVersionError(found, SCHEMA_VERSION)
        if path != ":memory:":
            # Pragmatic durability/throughput trade for on-disk stores:
            # WAL lets readers overlap the writer, NORMAL fsyncs only at
            # checkpoints.  :memory: databases ignore both, so they are
            # set only for real files to keep test behavior identical.
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        if found is None:
            self._conn.executescript(PROVENANCE_SCHEMA)
            self._conn.execute(
                "INSERT INTO prov_meta (key, value) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
            self._conn.commit()

    # -- lifecycle --------------------------------------------------------------

    @property
    def conn(self) -> sqlite3.Connection:
        if self._conn is None:
            raise StoreClosedError("provenance store is closed")
        if os.getpid() != self._pid:
            raise StoreAffinityError(
                f"store {self.path!r} was opened in process {self._pid}"
                f" and used from process {os.getpid()}; SQLite handles"
                f" do not survive fork — open a fresh store on the path"
            )
        owner = self._owner
        if owner is not None and owner != threading.get_ident():
            raise StoreAffinityError(
                f"store {self.path!r} is exclusively owned by thread"
                f" {owner}; statements from other threads would"
                f" interleave into its open transaction"
            )
        return self._conn

    @contextmanager
    def exclusive(self):
        """Hold the store for the calling thread (flush-worker affinity).

        While held, every other thread's access through ``conn`` raises
        :class:`~repro.errors.StoreAffinityError` instead of silently
        racing the owner's transaction; read-only query paths sidestep
        the guard through per-thread WAL connections
        (:meth:`read_connection`).  Reentrant within a thread.
        """
        with self._lock:
            previous = self._owner
            self._owner = threading.get_ident()
            try:
                yield self
            finally:
                self._owner = previous

    def read_connection(self) -> sqlite3.Connection:
        """A per-thread connection for read-only SQL on disk stores.

        WAL mode lets these readers run concurrently with the writer
        connection (they see the last committed snapshot).  ``:memory:``
        databases are private to their connection, so they fall back to
        the main connection — callers serialize via :meth:`exclusive`.
        """
        if self._conn is None:
            raise StoreClosedError("provenance store is closed")
        if os.getpid() != self._pid:
            raise StoreAffinityError(
                f"store {self.path!r} was opened in process {self._pid};"
                f" a forked child must open its own store on the path"
            )
        if self.path == ":memory:":
            return self.conn
        ident = threading.get_ident()
        with self._read_lock:
            cached = self._read_conns.get(ident)
        if cached is None:
            cached = _register_functions(
                sqlite3.connect(self.path, check_same_thread=False)
            )
            cached.execute("PRAGMA query_only=ON")
            with self._read_lock:
                if self._conn is None:  # closed while we were connecting
                    cached.close()
                    raise StoreClosedError("provenance store is closed")
                self._read_conns[ident] = cached
        return cached

    @contextmanager
    def _read_context(self):
        """Yield a connection suitable for read-only SQL from any thread.

        Unowned (or owner-thread) access reads the main connection under
        the store lock; access from a non-owner thread while a writer
        holds the store takes a per-thread WAL read connection instead
        of blocking on (or racing) the writer.  Either way the block is
        one snapshot: under the lock no other statement can commit, and
        on the reader the block runs in one read transaction (an inner
        block joins the transaction its outer block opened), so a
        commit landing between two of its statements is seen by
        neither.
        """
        owner = self._owner
        if (
            self.path != ":memory:"
            and owner is not None
            and owner != threading.get_ident()
        ):
            reader = self.read_connection()
            if reader.in_transaction:
                yield reader
                return
            reader.execute("BEGIN")
            try:
                yield reader
            finally:
                reader.rollback()  # read-only: ends the snapshot
            return
        with self.exclusive():  # takes the store lock
            yield self.conn

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.commit()
                self._conn.close()
                self._conn = None
        with self._read_lock:
            for reader in self._read_conns.values():
                reader.close()
            self._read_conns.clear()

    def commit(self) -> None:
        self.conn.commit()

    def rollback(self) -> None:
        """Abandon the open transaction and drop in-memory caches.

        The page/rowid/timestamp caches may reference rows the rollback
        just erased; clearing them (they repopulate lazily) keeps a
        retried batch from writing dangling foreign keys.
        """
        self.conn.rollback()
        self.drop_row_caches()

    def drop_row_caches(self) -> None:
        """Forget the interned-row caches; they repopulate lazily.

        Needed whenever rows may have vanished underneath this
        instance: after a rollback (which erases rows the caches point
        at) and after retention surgery deletes rows.  A stale
        ``id -> nid`` or ``url -> page_id`` entry would let the next
        batch write edges or nodes against deleted rowids.
        """
        self.drop_node_caches()
        self._pages.clear()
        self._tids.clear()

    def drop_node_caches(self) -> None:
        """Forget the per-node ``id -> nid`` and timestamp caches.

        They hold one entry per node written or probed, so a long-lived
        writer that never drops them grows with its lifetime ingest.
        The service's apply path drops them after every committed
        batch, bounding them to one batch's nodes and endpoints; the
        page and term caches grow only with distinct URLs and terms
        and stay.
        """
        self._nids.clear()
        self._node_ts.clear()

    def __enter__(self) -> "ProvenanceStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- writing ------------------------------------------------------------------

    def append_node(self, node: ProvNode) -> None:
        self.append_nodes((node,))

    def append_nodes(self, nodes: Iterable[ProvNode]) -> int:
        """Insert nodes; returns rows written.

        The one node writer: :meth:`append_node` (capture write-through),
        :meth:`save_graph` and the service's apply path all land here.
        Pages are interned first-sight (label inheritance: a label equal
        to its page's title stores NULL), ``hidden``/``transition`` attrs
        become columns, and an id collision replaces the row in place,
        keeping its rowid, with the last write for an id owning its
        attrs outright.  Node and attr rows land via ``executemany``.
        """
        nodes = list(nodes)
        if not nodes:
            return 0
        first_titles: dict[str, str] = {}
        for node in nodes:
            if node.url is not None and node.url not in first_titles:
                first_titles[node.url] = node.label
        pages = self._intern_urls(first_titles)
        # The last write for an id owns the whole row, attrs included:
        # dedupe last-wins so a batch does not merge a superseded node's
        # attrs into its replacement.  (Pages were interned first-sight
        # above, as writing the nodes one by one would have.)
        if len({node.id for node in nodes}) != len(nodes):
            nodes = list({node.id: node for node in nodes}.values())
        # Warm the caches for rows that already exist, then pin down
        # edges that inherit (NULL-store) a timestamp we are about to
        # change — otherwise re-recording a node with a corrected
        # timestamp would retroactively shift its inbound edges' times.
        self._prefetch_nids(
            [node.id for node in nodes if node.id not in self._nids]
        )
        self._materialize_inherited_ts(
            [
                (self._node_ts[node.id], self._nids[node.id])
                for node in nodes
                if node.id in self._nids
                and self._node_ts[node.id] != node.timestamp_us
            ]
        )

        rows: list[tuple] = []
        pending_attrs: list[tuple[str, dict[str, AttrValue]]] = []
        for node in nodes:
            page_id = None
            stored_label: str | None = node.label
            if node.url is not None:
                page_id, page_title = pages[node.url]
                if node.label == page_title:
                    stored_label = None  # inherit from the page row

            attrs = dict(node.attrs)
            hidden = 1 if attrs.pop("hidden", 0) == 1 else 0
            transition = attrs.pop("transition", None)
            transition_id = None
            if isinstance(transition, str) and transition in _TRANSITION_NAMES:
                transition_id = _TRANSITION_NAMES[transition]
            elif transition is not None:
                attrs["transition"] = transition  # unknown value: keep generic

            rows.append(
                (
                    node.id,
                    NODE_KIND_IDS[node.kind],
                    node.timestamp_us,
                    page_id,
                    stored_label,
                    hidden,
                    transition_id,
                )
            )
            self._node_ts[node.id] = node.timestamp_us
            if attrs:
                pending_attrs.append((node.id, attrs))

        self.conn.executemany(_NODE_UPSERT, rows)
        self._prefetch_nids(
            [node.id for node in nodes if node.id not in self._nids]
        )  # only genuinely-new rows left to fetch
        # Last write owns each row outright: clear any previous attrs
        # (no-op for fresh nodes) before inserting the new set.
        self.conn.executemany(
            "DELETE FROM prov_node_attrs WHERE nid = ?",
            [(self._nids[node.id],) for node in nodes],
        )
        if pending_attrs:
            self.conn.executemany(
                "INSERT OR REPLACE INTO prov_node_attrs (nid, name, value)"
                " VALUES (?, ?, ?)",
                [
                    (self._nids[node_id], name, value)
                    for node_id, attrs in pending_attrs
                    for name, value in attrs.items()
                ],
            )
        return len(rows)

    def append_edge(self, edge: ProvEdge) -> None:
        self.append_edges((edge,))

    def append_edges(self, edges: Iterable[ProvEdge]) -> int:
        """Bulk-insert edges with ``executemany``; returns rows written."""
        edges = list(edges)
        if not edges:
            return 0
        # Same re-insert discipline as nodes: the last write for an
        # edge id owns the row and its attrs outright.
        if len({edge.id for edge in edges}) != len(edges):
            edges = list({edge.id: edge for edge in edges}.values())
        endpoints = {edge.src for edge in edges} | {edge.dst for edge in edges}
        self._prefetch_nids([i for i in endpoints if i not in self._nids])

        rows: list[tuple] = []
        attr_rows: list[tuple] = []
        for edge in edges:
            stored_ts: int | None = edge.timestamp_us
            if self._dst_timestamp(edge.dst) == edge.timestamp_us:
                stored_ts = None  # inherit from the destination node
            rows.append(
                (
                    edge.id,
                    EDGE_KIND_IDS[edge.kind],
                    self._nid(edge.src),
                    self._nid(edge.dst),
                    stored_ts,
                )
            )
            attr_rows.extend(
                (edge.id, name, value) for name, value in edge.attrs.items()
            )
        self.conn.executemany(
            "INSERT OR REPLACE INTO prov_edges (id, kind, src, dst, timestamp_us)"
            " VALUES (?, ?, ?, ?, ?)",
            rows,
        )
        self.conn.executemany(
            "DELETE FROM prov_edge_attrs WHERE edge_id = ?",
            [(edge.id,) for edge in edges],
        )
        if attr_rows:
            self.conn.executemany(
                "INSERT OR REPLACE INTO prov_edge_attrs (edge_id, name, value)"
                " VALUES (?, ?, ?)",
                attr_rows,
            )
        return len(rows)

    def append_interval(self, interval: NodeInterval) -> None:
        self.append_intervals((interval,))

    def append_intervals(self, intervals: Iterable[NodeInterval]) -> int:
        """Bulk-insert display intervals; returns rows written.

        Upserts on ``(nid, opened_us)``: capture emits each interval at
        most once, so a duplicate key is a re-delivery (journal crash
        replay between a shard commit and the checkpoint write) and
        must update the existing row instead of duplicating it —
        exactly-once interval replay.
        """
        intervals = list(intervals)
        if not intervals:
            return 0
        self._prefetch_nids(
            [i.node_id for i in intervals if i.node_id not in self._nids]
        )
        self.conn.executemany(
            "INSERT INTO prov_intervals (nid, tab_id, opened_us, closed_us)"
            " VALUES (?, ?, ?, ?)"
            " ON CONFLICT(nid, opened_us) DO UPDATE SET"
            " tab_id=excluded.tab_id, closed_us=excluded.closed_us",
            [
                (
                    self._nid(interval.node_id),
                    interval.tab_id,
                    interval.opened_us,
                    interval.closed_us,
                )
                for interval in intervals
            ],
        )
        return len(intervals)

    def save_graph(
        self,
        graph: ProvenanceGraph,
        intervals: Iterable[NodeInterval] = (),
    ) -> None:
        """Bulk-persist *graph* (and optional intervals), then commit.

        All rows land in one transaction via the batched append paths.
        """
        self.append_nodes(graph.nodes())
        self.append_edges(graph.edges())
        self.append_intervals(intervals)
        self.commit()

    # -- loading --------------------------------------------------------------------

    def load_graph(self, *, enforce_dag: bool = True) -> ProvenanceGraph:
        return self.load_subgraph("", enforce_dag=enforce_dag)

    def load_intervals(self) -> list[NodeInterval]:
        rows = self.conn.execute(
            "SELECT n.id, i.tab_id, i.opened_us, i.closed_us"
            " FROM prov_intervals AS i JOIN prov_nodes AS n ON n.nid = i.nid"
            " ORDER BY i.opened_us"
        )
        return [
            NodeInterval(node_id=row[0], tab_id=row[1], opened_us=row[2],
                         closed_us=row[3])
            for row in rows
        ]

    # -- SQL queries (the paper's implementation path) ----------------------------------

    def sql_ancestors(
        self,
        node_id: str,
        *,
        max_depth: int = 100,
        kinds: Iterable[EdgeKind] | None = None,
    ) -> list[tuple[str, int]]:
        """Ancestors via recursive CTE; [(node_id, depth)] nearest-first."""
        with self._read_context() as conn:
            return self._walk(conn, ANCESTOR_QUERY, node_id, max_depth, kinds)

    def sql_descendants(
        self,
        node_id: str,
        *,
        max_depth: int = 100,
        kinds: Iterable[EdgeKind] | None = None,
    ) -> list[tuple[str, int]]:
        """Descendants via recursive CTE; [(node_id, depth)] nearest-first."""
        with self._read_context() as conn:
            return self._walk(conn, DESCENDANT_QUERY, node_id, max_depth,
                              kinds)

    def sql_nodes_in_window(
        self, start_us: int, end_us: int, *, kind: NodeKind | None = None
    ) -> list[str]:
        """Node ids with timestamps in [start_us, end_us)."""
        with self._read_context() as conn:
            if kind is None:
                rows = conn.execute(
                    "SELECT id FROM prov_nodes"
                    " WHERE timestamp_us >= ? AND timestamp_us < ?"
                    " ORDER BY timestamp_us, id",
                    (start_us, end_us),
                )
            else:
                rows = conn.execute(
                    "SELECT id FROM prov_nodes"
                    " WHERE timestamp_us >= ? AND timestamp_us < ? AND kind = ?"
                    " ORDER BY timestamp_us, id",
                    (start_us, end_us, NODE_KIND_IDS[kind]),
                )
            return [row[0] for row in rows]

    def sql_text_search(
        self, term: str, *, limit: int = 50, id_prefix: str | None = None
    ) -> list[str]:
        """Substring search over labels, page titles, and URLs.

        ``id_prefix`` restricts hits to nodes whose string id starts
        with the prefix — the multi-tenant service namespaces each
        user's nodes with an id prefix and uses this to keep one user's
        search from surfacing another's history.
        """
        return [
            node_id
            for node_id, _ts in self.sql_text_search_scored(
                term, limit=limit, id_prefix=id_prefix
            )
        ]

    def sql_text_search_scored(
        self, term: str, *, limit: int = 50, id_prefix: str | None = None
    ) -> list[tuple[str, int]]:
        """:meth:`sql_text_search` with timestamps: [(id, timestamp_us)].

        The timestamp is the merge key for cross-shard scatter-gather —
        per-shard result lists are each newest-first, so a global
        search can heap-merge them without re-sorting.  The search term
        is matched literally: ``%`` and ``_`` are escaped, so a user
        searching for ``100%_done`` cannot wildcard into unrelated (or,
        through a future scoping bug, other tenants') history.  Case is
        folded on both sides by :meth:`str.lower` (the registered
        ``str_lower``), so "über" finds "Über" and "CAFÉ" finds "Café".
        """
        pattern = _like_substring(term.lower())
        scope = ""
        params: list = [pattern, pattern]
        if id_prefix is not None:
            predicate, bounds = _id_range("n.id", id_prefix)
            scope = " AND " + predicate
            params.extend(bounds)
        params.append(limit)
        with self._read_context() as conn:
            rows = conn.execute(
                "SELECT n.id, n.timestamp_us FROM prov_nodes AS n"
                " LEFT JOIN prov_pages AS p ON p.id = n.page_id"
                " WHERE (str_lower(coalesce(n.label, p.title, ''))"
                "     LIKE ? ESCAPE '\\'"
                "    OR str_lower(coalesce(p.url, '')) LIKE ? ESCAPE '\\')"
                + scope
                + " ORDER BY n.timestamp_us DESC, n.id LIMIT ?",
                params,
            )
            return [(row[0], row[1]) for row in rows]

    def sql_nodes_of_kind(self, kind: NodeKind) -> list[str]:
        with self._read_context() as conn:
            rows = conn.execute(
                "SELECT id FROM prov_nodes WHERE kind = ?"
                " ORDER BY timestamp_us, id",
                (NODE_KIND_IDS[kind],),
            )
            return [row[0] for row in rows]

    def sql_visits_for_url(self, url: str) -> list[str]:
        """All node ids recorded for *url* (the version-chain query)."""
        with self._read_context() as conn:
            rows = conn.execute(
                "SELECT n.id FROM prov_nodes AS n"
                " JOIN prov_pages AS p ON p.id = n.page_id"
                " WHERE p.url = ? ORDER BY n.timestamp_us, n.id",
                (url,),
            )
            return [row[0] for row in rows]

    # -- relevance index (the ranked-search sidecar) ------------------------------------

    def index_documents(self, docs: Iterable[tuple[str, list[str]]]) -> int:
        """Replace the index entries for *docs* (``[(node_id, tokens)]``).

        Runs on the writer connection inside the caller's transaction —
        the service's apply path calls it right after a batch's rows
        land, so a shard's index can never be observed ahead of or
        behind its rows.  Re-indexing a document replaces its postings
        wholesale, and the corpus aggregates (document count, total
        length) are maintained as deltas computed against the rows
        already present in the same transaction — re-applying a
        committed batch (journal crash replay) therefore changes
        nothing, the same exactly-once property the other row kinds
        get from their upserts.

        A node id appearing twice is applied in order, each occurrence
        replacing the previous: the interned-term order — and so the
        index bytes — is a function of the event stream alone, not of
        how the stream was cut into batches.
        """
        docs = list(docs)
        if not docs:
            return 0
        wave: dict[str, list[str]] = {}
        for doc_id, tokens in docs:
            if doc_id in wave:
                self._index_wave(wave)
                wave = {}
            wave[doc_id] = tokens
        self._index_wave(wave)
        return len(docs)

    def _index_wave(self, wave: dict[str, list[str]]) -> None:
        """Index one duplicate-free run of documents in bulk."""
        if not wave:
            return
        self._prefetch_nids([d for d in wave if d not in self._nids])
        nids = {doc_id: self._nid(doc_id) for doc_id in wave}
        old_lengths: dict[int, int] = {}
        for chunk in _chunked(list(nids.values())):
            placeholders = ",".join("?" * len(chunk))
            for nid, length in self.conn.execute(
                f"SELECT nid, length FROM prov_index_docs"
                f" WHERE nid IN ({placeholders})",
                chunk,
            ):
                old_lengths[nid] = length
        term_order: dict[str, None] = {}
        doc_rows: list[tuple[int, int]] = []
        posting_rows: list[tuple[str, int, int]] = []  # (term, nid, tf)
        docs_delta = 0
        length_delta = 0
        for doc_id, tokens in wave.items():
            nid = nids[doc_id]
            counts = Counter(tokens)
            length = sum(counts.values())
            old = old_lengths.get(nid)
            if old is None:
                docs_delta += 1
            length_delta += length - (old or 0)
            doc_rows.append((nid, length))
            for term, tf in counts.items():
                term_order.setdefault(term)
                posting_rows.append((term, nid, tf))
        if old_lengths:
            self.conn.executemany(
                "DELETE FROM prov_postings WHERE nid = ?",
                [(nid,) for nid in old_lengths],
            )
        missing = [term for term in term_order if term not in self._tids]
        if missing:
            # Interned in first-occurrence order: tid allocation is a
            # function of the per-shard event stream, which is what
            # keeps serial and threaded flushes byte-identical.
            self.conn.executemany(
                "INSERT OR IGNORE INTO prov_terms (term) VALUES (?)",
                [(term,) for term in missing],
            )
            for chunk in _chunked(missing):
                placeholders = ",".join("?" * len(chunk))
                for tid, term in self.conn.execute(
                    f"SELECT tid, term FROM prov_terms"
                    f" WHERE term IN ({placeholders})",
                    chunk,
                ):
                    self._tids[term] = tid
        if posting_rows:
            self.conn.executemany(
                "INSERT OR REPLACE INTO prov_postings (tid, nid, tf)"
                " VALUES (?, ?, ?)",
                [
                    (self._tids[term], nid, tf)
                    for term, nid, tf in posting_rows
                ],
            )
        self.conn.executemany(
            "INSERT INTO prov_index_docs (nid, length) VALUES (?, ?)"
            " ON CONFLICT(nid) DO UPDATE SET length=excluded.length",
            doc_rows,
        )
        if docs_delta or length_delta:
            count, total = self._index_counters()
            self._write_index_counters(
                count + docs_delta, total + length_delta
            )

    def _index_counters(
        self, conn: sqlite3.Connection | None = None
    ) -> tuple[int, int]:
        rows = dict(
            (conn or self.conn).execute(
                "SELECT key, value FROM prov_meta"
                " WHERE key IN ('index_docs', 'index_len')"
            )
        )
        return int(rows.get("index_docs", 0)), int(rows.get("index_len", 0))

    def _write_index_counters(self, docs: int, length: int) -> None:
        self.conn.executemany(
            "INSERT OR REPLACE INTO prov_meta (key, value) VALUES (?, ?)",
            [("index_docs", str(docs)), ("index_len", str(length))],
        )

    def index_stats(self) -> tuple[int, int, str]:
        """(documents, total token length, state) of the relevance index.

        State ``"ready"`` means the index is maintained; ``"stale"``
        means node text changed without index maintenance (ingest ran
        with indexing disabled, ``index=False``) and the index must be
        rebuilt before ranked results can be trusted.
        """
        with self._read_context() as conn:
            rows = dict(
                conn.execute(
                    "SELECT key, value FROM prov_meta WHERE key IN"
                    " ('index_docs', 'index_len', 'index_state')"
                )
            )
        return (
            int(rows.get("index_docs", 0)),
            int(rows.get("index_len", 0)),
            rows.get("index_state", "ready"),
        )

    def mark_index_stale(self) -> None:
        """Record that node text changed without index maintenance.

        Written on every disabled-indexing batch, never memoized: the
        lazy rebuild (:func:`repro.service.indexer.ensure_index`, run
        from a query thread) — or any other connection to the shard
        file — can set the state back to ready at any time.  An
        instance-local "already marked" flag would have to be reset by
        every such writer; one that missed it would skip the re-mark
        and leave everything ingested after the rebuild permanently
        invisible to ranked search.  One meta upsert per batch is
        noise next to the batch itself.
        """
        self.conn.execute(
            "INSERT OR REPLACE INTO prov_meta (key, value)"
            " VALUES ('index_state', 'stale')"
        )

    def set_index_state(self, state: str) -> None:
        self.conn.execute(
            "INSERT OR REPLACE INTO prov_meta (key, value)"
            " VALUES ('index_state', ?)",
            (state,),
        )

    def clear_index(self) -> None:
        """Wipe the index postings and documents (rebuild preamble).

        ``prov_terms`` survives deliberately: tids must be append-only
        stable, because store instances cache term -> tid mappings
        (this one's survive the wipe, and so do those of any other
        instance open on the shard file) and a rebuild that
        reallocated tids would make them silently write postings under
        the wrong terms.  Orphaned vocabulary
        rows (terms whose postings all vanished) are harmless — df is
        derived from posting lists, never from the terms table.
        """
        self.conn.execute("DELETE FROM prov_postings")
        self.conn.execute("DELETE FROM prov_index_docs")
        self._write_index_counters(0, 0)

    def _count_read(self, op: str) -> None:
        if self._read_ops_metric is not None:
            self._read_ops_metric.inc(1, label=op)

    def node_texts(
        self, node_ids: Iterable[str]
    ) -> dict[str, tuple[str | None, str | None]]:
        """``{id: (effective_label, url)}`` — the snippet source text.

        The *effective* label is what the user actually saw: the stored
        label, or the page title it inherits when the label is NULL —
        byte-for-byte the text the indexer tokenized, so every term the
        index matched can be located (and highlighted) in this text.
        Positions are recovered downstream by re-running the shared
        analyzer over it (:func:`repro.service.search.extract_snippet`);
        storing offsets in the index would buy nothing, since the text
        must be fetched for display anyway.
        """
        self._count_read("node_texts")
        out: dict[str, tuple[str | None, str | None]] = {}
        with self._read_context() as conn:
            for chunk in _chunked(list(node_ids)):
                placeholders = ",".join("?" * len(chunk))
                for node_id, label, url in conn.execute(
                    f"SELECT n.id, coalesce(n.label, p.title), p.url"
                    f" FROM prov_nodes AS n"
                    f" LEFT JOIN prov_pages AS p ON p.id = n.page_id"
                    f" WHERE n.id IN ({placeholders})",
                    chunk,
                ):
                    out[node_id] = (label, url)
        return out

    def compact_terms(self) -> int:
        """Drop vocabulary rows whose posting lists are empty.

        Ghost terms accumulate when every document containing a term is
        re-indexed (or retention-deleted) away; they cost vocabulary
        scans, never correctness (df derives from posting lists).  Two
        invariants make this sweep safe against the tid caches other
        store instances on the same shard file keep:

        * **Live tids never shift** — SQLite deletes do not renumber
          surviving rows, so every term that still has postings keeps
          its tid.
        * **Dead tids are never reused** — the row holding ``MAX(tid)``
          is retained even when empty, so the rowid allocator can never
          hand a freed tid to a *new* term (which would make a stale
          cached mapping silently file postings under the wrong term).

        This instance's own term cache is cleared (it may hold dropped
        terms).  Runs on the writer connection inside the caller's
        transaction; returns the number of vocabulary rows dropped.
        """
        cursor = self.conn.execute(
            "DELETE FROM prov_terms"
            " WHERE tid NOT IN (SELECT DISTINCT tid FROM prov_postings)"
            " AND tid < (SELECT MAX(tid) FROM prov_terms)"
        )
        self._tids.clear()
        return cursor.rowcount

    def ranking_aggregates(
        self, id_prefix: str | None = None
    ) -> tuple[int, int, int]:
        """``(documents, total indexed length, newest timestamp_us)`` —
        the three corpus aggregates a ranked scan blends against.

        With *id_prefix*, one tenant's: scoped ranked search normalizes
        BM25 against the tenant's own documents and anchors recency at
        the tenant's own newest node, so a co-tenant's ingest on the
        same shard cannot reorder a user's results.  Each costs one
        ``id`` index range over the tenant's rows.  Without, the
        shard's: the index counters in ``prov_meta`` and the newest
        node.  None of them depends on the query, so the service reads
        a tenant's once per cache lifetime; the ``ranking_aggregates``
        read-op count shows how often it had to.
        """
        self._count_read("ranking_aggregates")
        with self._read_context() as conn:
            if id_prefix is None:
                docs, length = self._index_counters(conn)
                newest = conn.execute(
                    "SELECT MAX(timestamp_us) FROM prov_nodes"
                ).fetchone()[0]
            else:
                predicate, bounds = _id_range("n.id", id_prefix)
                docs, length = conn.execute(
                    "SELECT COUNT(*), COALESCE(SUM(d.length), 0)"
                    " FROM prov_index_docs AS d"
                    " JOIN prov_nodes AS n ON n.nid = d.nid"
                    " WHERE " + predicate,
                    bounds,
                ).fetchone()
                predicate, bounds = _id_range("id", id_prefix)
                newest = conn.execute(
                    "SELECT MAX(timestamp_us) FROM prov_nodes"
                    " WHERE " + predicate,
                    bounds,
                ).fetchone()[0]
        return docs, length, newest or 0

    def read_rows(
        self, op: str, sql: str, params: Sequence = ()
    ) -> list[tuple]:
        """Every row of one read-only statement built above the store,
        booked as ``store.read_ops{op=op}``.

        Runs where the store's own reads run (see :meth:`_read_context`),
        so the ranked scan of :mod:`repro.service.search` may overlap a
        flush worker's transaction.
        """
        self._count_read(op)
        with self._read_context() as conn:
            return conn.execute(sql, params).fetchall()

    # -- retention surgery (per-tenant delete paths) ------------------------------------

    def tenant_rows(self, id_prefix: str) -> "TenantRows":
        """The rows under *id_prefix*, read as a retention plan reads
        them (:class:`repro.core.retention.RetentionRows`)."""
        return TenantRows(self, id_prefix)

    def load_subgraph(
        self, id_prefix: str, *, enforce_dag: bool = False
    ) -> ProvenanceGraph:
        """Reconstruct only the nodes and edges whose ids start with
        *id_prefix*.

        The store's one graph loader: :meth:`load_graph` is the empty
        prefix (``id >= ''`` holds every row), and the service loads
        one tenant's subgraph with it.  A NULL label inherits its
        page's title.  Edges are matched through their source node;
        tenant edges never cross tenants, so this is exact.  Intervals
        are not loaded (:meth:`load_intervals`).  Reads run where the
        store's reads run (:meth:`_read_context`).
        """
        predicate, bounds = _id_range("n.id", id_prefix)
        graph = ProvenanceGraph(enforce_dag=enforce_dag)
        with self._read_context() as conn:
            node_attrs: dict[int, dict[str, AttrValue]] = {}
            for nid, name, value in conn.execute(
                "SELECT a.nid, a.name, a.value FROM prov_node_attrs AS a"
                " JOIN prov_nodes AS n ON n.nid = a.nid"
                " WHERE " + predicate,
                bounds,
            ):
                node_attrs.setdefault(nid, {})[name] = value
            id_by_nid: dict[int, str] = {}
            ts_by_nid: dict[int, int] = {}  # a NULL edge time inherits it
            for (
                nid, node_id, kind, when, label, hidden, transition, url, title
            ) in conn.execute(
                "SELECT n.nid, n.id, n.kind, n.timestamp_us, n.label,"
                " n.hidden, n.transition, p.url, p.title"
                " FROM prov_nodes AS n"
                " LEFT JOIN prov_pages AS p ON p.id = n.page_id"
                " WHERE " + predicate
                + " ORDER BY n.timestamp_us, n.nid",
                bounds,
            ):
                if url is not None and label is None:
                    label = title
                attrs = node_attrs.get(nid, {})
                if hidden:
                    attrs["hidden"] = 1
                if transition is not None:
                    attrs["transition"] = _TRANSITION_BY_VALUE[transition]
                graph.add_node(
                    ProvNode(
                        id=node_id,
                        kind=NODE_KINDS_BY_ID[kind],
                        timestamp_us=when,
                        label=label or "",
                        url=url,
                        attrs=attrs,
                    )
                )
                id_by_nid[nid] = node_id
                ts_by_nid[nid] = when
            edge_attrs: dict[int, dict[str, AttrValue]] = {}
            for edge_id, name, value in conn.execute(
                "SELECT a.edge_id, a.name, a.value FROM prov_edge_attrs AS a"
                " JOIN prov_edges AS e ON e.id = a.edge_id"
                " JOIN prov_nodes AS n ON n.nid = e.src"
                " WHERE " + predicate,
                bounds,
            ):
                edge_attrs.setdefault(edge_id, {})[name] = value
            for edge_id, kind, src, dst, when in conn.execute(
                "SELECT e.id, e.kind, e.src, e.dst, e.timestamp_us"
                " FROM prov_edges AS e"
                " JOIN prov_nodes AS n ON n.nid = e.src"
                " WHERE " + predicate + " ORDER BY e.id",
                bounds,
            ):
                src_id = id_by_nid.get(src)
                dst_id = id_by_nid.get(dst)
                if src_id is None or dst_id is None:
                    continue  # foreign endpoint: not this tenant's edge
                if when is None:
                    when = ts_by_nid[dst]
                graph.add_edge(
                    EDGE_KINDS_BY_ID[kind],
                    src_id,
                    dst_id,
                    timestamp_us=when,
                    attrs=edge_attrs.get(edge_id, {}),
                )
        return graph

    def delete_nodes_by_id(
        self, node_ids: Iterable[str]
    ) -> tuple[int, int, int]:
        """Remove *node_ids* with full cascade; (nodes, edges, intervals).

        Writer-connection surgery for retention: the nodes, every edge
        touching them (attrs included), their intervals, their attr
        rows, and their relevance-index entries all go, with the index
        corpus counters adjusted.  Rows belonging to other tenants are
        untouched — edges are matched by endpoint.  The caller owns the
        transaction (commit or rollback).
        """
        ids = list(dict.fromkeys(node_ids))
        if not ids:
            return (0, 0, 0)
        nids: list[int] = []
        for chunk in _chunked(ids):
            placeholders = ",".join("?" * len(chunk))
            nids.extend(
                row[0]
                for row in self.conn.execute(
                    f"SELECT nid FROM prov_nodes WHERE id IN ({placeholders})",
                    chunk,
                )
            )
        if not nids:
            return (0, 0, 0)
        edge_ids: set[int] = set()
        for chunk in _chunked(nids):
            placeholders = ",".join("?" * len(chunk))
            for row in self.conn.execute(
                f"SELECT id FROM prov_edges WHERE src IN ({placeholders})"
                f" OR dst IN ({placeholders})",
                chunk + chunk,
            ):
                edge_ids.add(row[0])
        intervals = 0
        index_docs = 0
        index_length = 0
        for chunk in _chunked(nids):
            placeholders = ",".join("?" * len(chunk))
            intervals += self.conn.execute(
                f"DELETE FROM prov_intervals WHERE nid IN ({placeholders})",
                chunk,
            ).rowcount
            row = self.conn.execute(
                f"SELECT COUNT(*), COALESCE(SUM(length), 0)"
                f" FROM prov_index_docs WHERE nid IN ({placeholders})",
                chunk,
            ).fetchone()
            index_docs += row[0]
            index_length += row[1]
            self.conn.execute(
                f"DELETE FROM prov_index_docs WHERE nid IN ({placeholders})",
                chunk,
            )
            self.conn.execute(
                f"DELETE FROM prov_postings WHERE nid IN ({placeholders})",
                chunk,
            )
            self.conn.execute(
                f"DELETE FROM prov_node_attrs WHERE nid IN ({placeholders})",
                chunk,
            )
        for chunk in _chunked(sorted(edge_ids)):
            placeholders = ",".join("?" * len(chunk))
            self.conn.execute(
                f"DELETE FROM prov_edge_attrs"
                f" WHERE edge_id IN ({placeholders})",
                chunk,
            )
            self.conn.execute(
                f"DELETE FROM prov_edges WHERE id IN ({placeholders})",
                chunk,
            )
        nodes = 0
        for chunk in _chunked(nids):
            placeholders = ",".join("?" * len(chunk))
            nodes += self.conn.execute(
                f"DELETE FROM prov_nodes WHERE nid IN ({placeholders})",
                chunk,
            ).rowcount
        if index_docs or index_length:
            count, total = self._index_counters()
            self._write_index_counters(
                count - index_docs, total - index_length
            )
        # The row caches may reference rows this surgery erased; drop
        # them wholesale (they repopulate lazily), as rollback() does.
        # This covers THIS instance only; the service applies every
        # batch through the pool's one instance per shard.
        self.drop_row_caches()
        return (nodes, len(edge_ids), intervals)

    def prune_orphan_pages(self) -> int:
        """Delete page rows no node references (post-redaction privacy).

        ``forget_site`` must not leave the forgotten URLs sitting in
        ``prov_pages``; pages any tenant still references survive.
        """
        cursor = self.conn.execute(
            "DELETE FROM prov_pages WHERE id NOT IN"
            " (SELECT DISTINCT page_id FROM prov_nodes"
            "  WHERE page_id IS NOT NULL)"
        )
        self._pages.clear()
        return cursor.rowcount

    # -- accounting -----------------------------------------------------------------------

    def node_count(self) -> int:
        with self._read_context() as conn:
            return conn.execute(
                "SELECT COUNT(*) FROM prov_nodes"
            ).fetchone()[0]

    def edge_count(self) -> int:
        with self._read_context() as conn:
            return conn.execute(
                "SELECT COUNT(*) FROM prov_edges"
            ).fetchone()[0]

    def page_count(self) -> int:
        with self._read_context() as conn:
            return conn.execute(
                "SELECT COUNT(*) FROM prov_pages"
            ).fetchone()[0]

    def interval_count(self) -> int:
        with self._read_context() as conn:
            return conn.execute(
                "SELECT COUNT(*) FROM prov_intervals"
            ).fetchone()[0]

    def counts_for_id_prefix(self, id_prefix: str) -> tuple[int, int, int]:
        """(nodes, edges, intervals) whose node ids start with *id_prefix*.

        Edges and intervals are attributed through their source /
        subject node; in the multi-tenant layout every edge stays within
        one user's namespace, so this is an exact per-tenant count.
        """
        predicate, bounds = _id_range("n.id", id_prefix)
        with self._read_context() as conn:
            nodes = conn.execute(
                "SELECT COUNT(*) FROM prov_nodes AS n WHERE " + predicate,
                bounds,
            ).fetchone()[0]
            edges = conn.execute(
                "SELECT COUNT(*) FROM prov_edges AS e"
                " JOIN prov_nodes AS n ON n.nid = e.src"
                " WHERE " + predicate,
                bounds,
            ).fetchone()[0]
            intervals = conn.execute(
                "SELECT COUNT(*) FROM prov_intervals AS i"
                " JOIN prov_nodes AS n ON n.nid = i.nid"
                " WHERE " + predicate,
                bounds,
            ).fetchone()[0]
        return nodes, edges, intervals

    def sql_counts(self) -> tuple[int, int, int, int]:
        """(nodes, edges, intervals, pages) in one read snapshot.

        The scatter-gather aggregate-stats path calls this once per
        shard from fan-out threads; bundling the four counts keeps each
        shard's contribution a single consistent snapshot.
        """
        with self._read_context() as conn:
            return (
                conn.execute("SELECT COUNT(*) FROM prov_nodes").fetchone()[0],
                conn.execute("SELECT COUNT(*) FROM prov_edges").fetchone()[0],
                conn.execute(
                    "SELECT COUNT(*) FROM prov_intervals"
                ).fetchone()[0],
                conn.execute("SELECT COUNT(*) FROM prov_pages").fetchone()[0],
            )

    def size_bytes(self) -> int:
        page_count = self.conn.execute("PRAGMA page_count").fetchone()[0]
        page_size = self.conn.execute("PRAGMA page_size").fetchone()[0]
        return page_count * page_size

    # -- internals ----------------------------------------------------------------------------

    def _intern_urls(
        self, first_titles: dict[str, str]
    ) -> dict[str, tuple[int, str]]:
        """Intern URLs in bulk; returns {url: (page_id, stored_title)}.

        The stored title is whatever the page row already carried (first
        sight wins), which callers need for label inheritance.
        """
        out: dict[str, tuple[int, str]] = {}
        missing: list[tuple[str, str]] = []
        for url, title in first_titles.items():
            cached = self._pages.get(url)
            if cached is not None:
                out[url] = cached
            else:
                missing.append((url, title))
        if missing:
            self.conn.executemany(
                "INSERT OR IGNORE INTO prov_pages (url, title) VALUES (?, ?)",
                missing,
            )
            for chunk in _chunked([url for url, _ in missing]):
                placeholders = ",".join("?" * len(chunk))
                for pid, url, title in self.conn.execute(
                    f"SELECT id, url, title FROM prov_pages"
                    f" WHERE url IN ({placeholders})",
                    chunk,
                ):
                    self._pages[url] = out[url] = (pid, title)
        return out

    def _materialize_inherited_ts(
        self, stale: list[tuple[int, int]]
    ) -> None:
        """Write inherited edge timestamps out before they change.

        *stale* holds ``(old_timestamp_us, nid)`` for nodes about to be
        re-recorded with a different timestamp.  Edges storing NULL
        inherit the destination node's time; pinning the old value
        keeps recorded provenance times from mutating retroactively.
        """
        if stale:
            self.conn.executemany(
                "UPDATE prov_edges SET timestamp_us = ?"
                " WHERE dst = ? AND timestamp_us IS NULL",
                stale,
            )

    def _prefetch_nids(self, node_ids: list[str]) -> None:
        """Warm the rowid/timestamp caches for *node_ids* in bulk."""
        if not node_ids:
            return
        for chunk in _chunked(node_ids):
            placeholders = ",".join("?" * len(chunk))
            for node_id, nid, when in self.conn.execute(
                f"SELECT id, nid, timestamp_us FROM prov_nodes"
                f" WHERE id IN ({placeholders})",
                chunk,
            ):
                self._nids[node_id] = nid
                self._node_ts[node_id] = when

    def _dst_timestamp(self, node_id: str) -> int | None:
        cached = self._node_ts.get(node_id)
        if cached is not None:
            return cached
        row = self.conn.execute(
            "SELECT timestamp_us FROM prov_nodes WHERE id = ?", (node_id,)
        ).fetchone()
        if row is None:
            return None
        self._node_ts[node_id] = row[0]
        return row[0]

    def _nid(self, node_id: str) -> int:
        nid = self._nids.get(node_id)
        if nid is not None:
            return nid
        row = self.conn.execute(
            "SELECT nid FROM prov_nodes WHERE id = ?", (node_id,)
        ).fetchone()
        if row is None:
            raise UnknownNodeError(node_id)
        self._nids[node_id] = row[0]
        return row[0]

    def _walk(
        self,
        conn: sqlite3.Connection,
        template: str,
        node_id: str,
        max_depth: int,
        kinds: Iterable[EdgeKind] | None,
    ) -> list[tuple[str, int]]:
        kinds_csv = ""
        if kinds is not None:
            kinds_csv = (
                "," + ",".join(str(EDGE_KIND_IDS[kind]) for kind in kinds) + ","
            )
        rows = conn.execute(
            template,
            {"start": node_id, "max_depth": max_depth, "kinds_csv": kinds_csv},
        ).fetchall()
        if not rows:
            raise UnknownNodeError(node_id)
        return [(row[0], row[1]) for row in rows[1:]]  # rows[0]: the start


class TenantRows:
    """:class:`repro.core.retention.RetentionRows` for one tenant of a
    shard, in SQL.

    A retention plan reads its doomed rows, their edges and their
    neighbours, never the tenant's whole subgraph: ids select through
    the tenant's ``id`` range or the ``id`` index, URLs through the
    page index, and edges through ``prov_edges_src`` /
    ``prov_edges_dst``.  Edges count only when both endpoints are the
    tenant's, as in :meth:`ProvenanceStore.load_subgraph`.  Each read
    takes the store's read context, so it runs on the writer
    connection inside a caller's :meth:`ProvenanceStore.exclusive`
    hold and beside a flush thread otherwise.
    """

    def __init__(self, store: ProvenanceStore, id_prefix: str) -> None:
        self._store = store
        self._prefix = id_prefix

    def node_count(self) -> int:
        predicate, bounds = _id_range("id", self._prefix)
        with self._store._read_context() as conn:
            return conn.execute(
                "SELECT COUNT(*) FROM prov_nodes WHERE " + predicate, bounds
            ).fetchone()[0]

    def ids_before(self, cutoff_us: int) -> list[str]:
        predicate, bounds = _id_range("id", self._prefix)
        with self._store._read_context() as conn:
            return [
                row[0]
                for row in conn.execute(
                    "SELECT id FROM prov_nodes WHERE " + predicate
                    + " AND timestamp_us < ?",
                    (*bounds, cutoff_us),
                )
            ]

    def urls(self) -> list[str]:
        predicate, bounds = _id_range("id", self._prefix)
        with self._store._read_context() as conn:
            return [
                row[0]
                for row in conn.execute(
                    "SELECT url FROM prov_pages WHERE id IN"
                    " (SELECT page_id FROM prov_nodes WHERE " + predicate + ")",
                    bounds,
                )
            ]

    def ids_with_urls(self, urls: list[str]) -> list[str]:
        predicate, bounds = _id_range("n.id", self._prefix)
        out: list[str] = []
        with self._store._read_context() as conn:
            for chunk in _chunked(list(urls)):
                placeholders = ",".join("?" * len(chunk))
                out.extend(
                    row[0]
                    for row in conn.execute(
                        f"SELECT n.id FROM prov_pages AS p"
                        f" JOIN prov_nodes AS n ON n.page_id = p.id"
                        f" WHERE p.url IN ({placeholders}) AND {predicate}",
                        (*chunk, *bounds),
                    )
                )
        return out

    def edges_into(self, ids: list[str]) -> list[EdgeRow]:
        return self._edges(ids, "dst")

    def edges_out_of(self, ids: list[str]) -> list[EdgeRow]:
        return self._edges(ids, "src")

    def _edges(self, ids: list[str], end: str) -> list[EdgeRow]:
        """The tenant's edges whose *end* (``src``/``dst``) is in *ids*."""
        prefix = self._prefix
        out: list[EdgeRow] = []
        with self._store._read_context() as conn:
            for chunk in _chunked(list(ids)):
                placeholders = ",".join("?" * len(chunk))
                for edge_id, kind, src, dst, bridged in conn.execute(
                    f"SELECT e.id, e.kind, s.id, d.id, a.value"
                    f" FROM prov_nodes AS k"
                    f" JOIN prov_edges AS e ON e.{end} = k.nid"
                    f" JOIN prov_nodes AS s ON s.nid = e.src"
                    f" JOIN prov_nodes AS d ON d.nid = e.dst"
                    f" LEFT JOIN prov_edge_attrs AS a"
                    f"  ON a.edge_id = e.id AND a.name = 'bridged'"
                    f" WHERE k.id IN ({placeholders})",
                    chunk,
                ):
                    if src.startswith(prefix) and dst.startswith(prefix):
                        out.append(EdgeRow(
                            edge_id, EDGE_KINDS_BY_ID[kind], src, dst,
                            bridged == 1,
                        ))
        return out

    def facts(self, ids: list[str]) -> dict[str, NodeFacts]:
        out: dict[str, NodeFacts] = {}
        with self._store._read_context() as conn:
            for chunk in _chunked(list(ids)):
                placeholders = ",".join("?" * len(chunk))
                for node_id, kind, when, nid in conn.execute(
                    f"SELECT id, kind, timestamp_us, nid FROM prov_nodes"
                    f" WHERE id IN ({placeholders})",
                    chunk,
                ):
                    # load_subgraph's node order: (timestamp_us, nid).
                    out[node_id] = NodeFacts(
                        NODE_KINDS_BY_ID[kind], when, (when, nid)
                    )
        return out
