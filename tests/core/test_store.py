"""Tests for the SQLite homogeneous provenance store."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import ProvenanceGraph
from repro.core.model import ProvEdge, ProvNode
from repro.core.schema import SCHEMA_VERSION
from repro.core.store import ProvenanceStore
from repro.core.taxonomy import EdgeKind, NodeKind
from repro.errors import (
    SchemaVersionError,
    StoreAffinityError,
    StoreClosedError,
    UnknownNodeError,
)


def visit(node_id, ts, url=None, label="", **attrs):
    return ProvNode(
        id=node_id, kind=NodeKind.PAGE_VISIT, timestamp_us=ts,
        label=label, url=url, attrs=attrs,
    )


@pytest.fixture()
def graph():
    graph = ProvenanceGraph()
    graph.add_node(visit("a", 1, "http://a.com/", "page a", transition="typed"))
    graph.add_node(visit("b", 2, "http://b.com/", "page b"))
    graph.add_node(visit("c", 3, "http://a.com/", "page a"))  # revisit
    graph.add_node(
        ProvNode(id="t", kind=NodeKind.SEARCH_TERM, timestamp_us=1,
                 label="rosebud", attrs={"engine": "www.findit.com"})
    )
    graph.add_node(
        ProvNode(id="h", kind=NodeKind.PAGE_VISIT, timestamp_us=2,
                 url="http://sho.ly/x", attrs={"hidden": 1})
    )
    graph.add_edge(EdgeKind.LINK, "a", "b", timestamp_us=2)
    graph.add_edge(EdgeKind.TYPED_FROM, "b", "c", timestamp_us=3,
                   attrs={"unified": 1})
    graph.add_edge(EdgeKind.SEARCHED, "t", "b", timestamp_us=2)
    return graph


@pytest.fixture()
def store(graph):
    with ProvenanceStore() as store:
        store.save_graph(graph)
        yield store


class TestRoundTrip:
    def test_nodes_and_edges_counted(self, store, graph):
        assert store.node_count() == graph.node_count
        assert store.edge_count() == graph.edge_count

    def test_pages_normalized(self, store):
        # Three URL-bearing visit rows but only three distinct URLs
        # (a.com shared by two instances).
        assert store.page_count() == 3

    def test_graph_roundtrip_exact(self, store, graph):
        loaded = store.load_graph()
        original = {node.id: node for node in graph.nodes()}
        restored = {node.id: node for node in loaded.nodes()}
        assert original == restored
        original_edges = sorted(
            (e.id, e.kind, e.src, e.dst, e.timestamp_us, dict(e.attrs))
            for e in graph.edges()
        )
        restored_edges = sorted(
            (e.id, e.kind, e.src, e.dst, e.timestamp_us, dict(e.attrs))
            for e in loaded.edges()
        )
        assert original_edges == restored_edges

    def test_intervals_roundtrip(self, graph):
        from repro.core.capture import NodeInterval

        store = ProvenanceStore()
        intervals = [
            NodeInterval(node_id="a", tab_id=1, opened_us=1, closed_us=5),
            NodeInterval(node_id="b", tab_id=2, opened_us=2, closed_us=9),
        ]
        store.save_graph(graph, intervals)
        assert store.interval_count() == 2
        assert store.load_intervals() == intervals
        store.close()


class TestSqlQueries:
    def test_sql_ancestors(self, store):
        assert store.sql_ancestors("c") == [("b", 1), ("a", 2), ("t", 2)]

    def test_sql_ancestors_kind_filter(self, store):
        links = store.sql_ancestors("c", kinds=[EdgeKind.TYPED_FROM,
                                                EdgeKind.LINK])
        assert links == [("b", 1), ("a", 2)]

    def test_sql_ancestors_depth_bound(self, store):
        assert store.sql_ancestors("c", max_depth=1) == [("b", 1)]

    def test_sql_descendants(self, store):
        assert store.sql_descendants("a") == [("b", 1), ("c", 2)]

    def test_sql_unknown_node(self, store):
        with pytest.raises(UnknownNodeError):
            store.sql_ancestors("missing")

    def test_sql_nodes_in_window(self, store):
        assert store.sql_nodes_in_window(2, 3) == ["b", "h"]
        assert store.sql_nodes_in_window(2, 3, kind=NodeKind.PAGE_VISIT) == [
            "b", "h"
        ]
        assert store.sql_nodes_in_window(0, 2, kind=NodeKind.SEARCH_TERM) == [
            "t"
        ]

    def test_sql_text_search_label(self, store):
        assert "t" in store.sql_text_search("rosebud")

    def test_sql_text_search_url(self, store):
        hits = store.sql_text_search("a.com")
        assert set(hits) >= {"a", "c"}

    def test_sql_text_search_escapes_like_wildcards(self):
        """``%`` / ``_`` in a search term must match literally, not act
        as LIKE wildcards that over-match unrelated history."""
        store = ProvenanceStore()
        store.append_node(visit("plain", 1, label="fully done"))
        store.append_node(visit("pct", 2, label="100% done"))
        store.append_node(visit("under", 3, label="is_done"))
        store.commit()
        # A bare "%" used to match every row; literally it matches one.
        assert store.sql_text_search("%") == ["pct"]
        assert store.sql_text_search("100%") == ["pct"]
        # "_" used to match any single character ("is_done"≈"isXdone").
        assert store.sql_text_search("s_d") == ["under"]
        assert store.sql_text_search("100%_done") == []
        store.close()

    def test_sql_text_search_scored_orders_by_recency(self, store):
        scored = store.sql_text_search_scored("a.com")
        assert scored == [("c", 3), ("a", 1)]


class TestSchemaMigration:
    def test_v2_store_upgrades_in_place_and_dedupes_intervals(self, tmp_path):
        """A v2 store (no interval identity index, possibly carrying
        crash-replay duplicates) must open, collapse the duplicates,
        and come out as v3 — not raise SchemaVersionError."""
        from repro.core.capture import NodeInterval

        path = str(tmp_path / "old.sqlite")
        store = ProvenanceStore(path)
        store.append_node(visit("a", 1))
        store.append_interval(
            NodeInterval(node_id="a", tab_id=1, opened_us=5, closed_us=9)
        )
        store.commit()
        # Downgrade to the v2 on-disk shape: drop the identity index,
        # restore the version, and re-create a replay duplicate.
        store.conn.execute("DROP INDEX prov_intervals_identity")
        store.conn.execute(
            "INSERT INTO prov_intervals (nid, tab_id, opened_us, closed_us)"
            " SELECT nid, tab_id, opened_us, closed_us FROM prov_intervals"
        )
        store.conn.execute(
            "UPDATE prov_meta SET value = '2' WHERE key = 'schema_version'"
        )
        store.commit()
        assert store.interval_count() == 2  # the v2 duplicate bug
        store.close()

        upgraded = ProvenanceStore(path)
        assert upgraded.interval_count() == 1  # deduped by migration
        version = upgraded.conn.execute(
            "SELECT value FROM prov_meta WHERE key = 'schema_version'"
        ).fetchone()[0]
        assert version == str(SCHEMA_VERSION)
        # The identity index is live: re-appending upserts.
        upgraded._prefetch_nids(["a"])
        upgraded.append_interval(
            NodeInterval(node_id="a", tab_id=2, opened_us=5, closed_us=11)
        )
        upgraded.commit()
        assert upgraded.interval_count() == 1
        upgraded.close()

    def test_sql_nodes_of_kind(self, store):
        assert store.sql_nodes_of_kind(NodeKind.SEARCH_TERM) == ["t"]

    def test_sql_visits_for_url(self, store):
        assert store.sql_visits_for_url("http://a.com/") == ["a", "c"]


class TestLifecycle:
    def test_schema_version_check(self, tmp_path):
        path = str(tmp_path / "prov.sqlite")
        store = ProvenanceStore(path)
        store.conn.execute(
            "UPDATE prov_meta SET value = '99' WHERE key = 'schema_version'"
        )
        store.close()
        with pytest.raises(SchemaVersionError):
            ProvenanceStore(path)

    def test_reopen_existing(self, tmp_path, graph):
        path = str(tmp_path / "prov.sqlite")
        store = ProvenanceStore(path)
        store.save_graph(graph)
        store.close()
        reopened = ProvenanceStore(path)
        assert reopened.node_count() == graph.node_count
        assert reopened.sql_ancestors("c")
        reopened.close()

    def test_closed_raises(self):
        store = ProvenanceStore()
        store.close()
        with pytest.raises(StoreClosedError):
            store.node_count()

    def test_size_bytes(self, store):
        assert store.size_bytes() > 0

    def test_schema_version_constant(self):
        assert SCHEMA_VERSION == 4

    def test_incremental_append(self, graph):
        """Write-through capture style: append as we go."""
        store = ProvenanceStore()
        for node in graph.nodes():
            store.append_node(node)
        for edge in graph.edges():
            store.append_edge(edge)
        assert store.node_count() == graph.node_count
        loaded = store.load_graph()
        assert loaded.node_count == graph.node_count
        store.close()

    def test_forked_handle_is_refused(self, tmp_path):
        """A store handle that crossed a fork must fail loudly, not
        corrupt the shard: the child shares the parent's SQLite file
        locks and statement state."""
        store = ProvenanceStore(str(tmp_path / "s.sqlite"))
        store.append_node(visit("a", 1))
        store.commit()
        pid = os.fork()
        if pid == 0:
            # Child: any use of the inherited handle must raise.
            code = 1
            try:
                store.node_count()
            except StoreAffinityError:
                code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert store.node_count() == 1  # parent handle still fine
        store.close()


class TestBulkAppend:
    def test_bulk_matches_incremental(self, graph):
        """append_nodes/append_edges write exactly what row-at-a-time did."""
        bulk = ProvenanceStore()
        bulk.append_nodes(graph.nodes())
        bulk.append_edges(graph.edges())
        loaded = bulk.load_graph()
        assert {n.id: n for n in loaded.nodes()} == {
            n.id: n for n in graph.nodes()
        }
        assert sorted(
            (e.id, e.kind, e.src, e.dst, e.timestamp_us, dict(e.attrs))
            for e in loaded.edges()
        ) == sorted(
            (e.id, e.kind, e.src, e.dst, e.timestamp_us, dict(e.attrs))
            for e in graph.edges()
        )
        bulk.close()

    def test_bulk_empty_iterables(self):
        store = ProvenanceStore()
        assert store.append_nodes([]) == 0
        assert store.append_edges([]) == 0
        assert store.append_intervals([]) == 0
        store.close()

    def test_bulk_replaces_on_id_collision(self):
        store = ProvenanceStore()
        store.append_nodes([visit("a", 1, label="old")])
        store.append_nodes([visit("a", 2, label="new")])
        assert store.node_count() == 1
        assert store.load_graph().node("a").label == "new"
        store.close()

    def test_bulk_duplicate_id_in_one_batch_last_wins(self):
        """Same semantics as two sequential append_node calls: the last
        write owns the row outright — attrs from the superseded version
        must not leak into the survivor."""
        store = ProvenanceStore()
        store.append_nodes([
            visit("a", 1, label="old", extra=1),
            visit("a", 2, label="new"),
        ])
        sequential = ProvenanceStore()
        sequential.append_node(visit("a", 1, label="old", extra=1))
        sequential.append_node(visit("a", 2, label="new"))
        assert store.node_count() == 1
        loaded = store.load_graph().node("a")
        assert loaded == sequential.load_graph().node("a")
        assert dict(loaded.attrs) == {}
        store.close()
        sequential.close()

    def test_reinsert_preserves_edges_and_intervals(self):
        """Re-recording a node must keep its rowid: committed edges and
        intervals reference the nid, and a REPLACE-style fresh rowid
        would silently sever them."""
        from repro.core.capture import NodeInterval

        store = ProvenanceStore()
        store.append_nodes([visit("x", 1), visit("y", 2)])
        store.append_edges([
            ProvEdge(id=0, kind=EdgeKind.LINK, src="x", dst="y", timestamp_us=2)
        ])
        store.append_intervals(
            [NodeInterval(node_id="x", tab_id=1, opened_us=1, closed_us=5)]
        )
        store.commit()
        # Re-record both nodes (idempotent ingest / journal replay).
        store.append_nodes([visit("x", 1), visit("y", 2)])
        store.append_node(visit("x", 1))
        store.commit()
        assert store.sql_ancestors("y") == [("x", 1)]
        assert store.edge_count() == 1
        assert store.load_intervals() == [
            NodeInterval(node_id="x", tab_id=1, opened_us=1, closed_us=5)
        ]

    def test_reinsert_drops_previous_attrs(self):
        """Single-row path: the last write owns the attrs outright."""
        store = ProvenanceStore()
        store.append_node(visit("a", 1, extra=1))
        store.append_node(visit("a", 2))
        assert dict(store.load_graph().node("a").attrs) == {}
        store.close()

    def test_edge_reinsert_drops_previous_attrs(self):
        """Edges get the same last-wins attr semantics as nodes."""
        store = ProvenanceStore()
        store.append_nodes([visit("a", 1), visit("b", 2)])
        store.append_edges([
            ProvEdge(id=1, kind=EdgeKind.LINK, src="a", dst="b",
                     timestamp_us=2, attrs={"old": 1})
        ])
        store.append_edges([
            ProvEdge(id=1, kind=EdgeKind.LINK, src="a", dst="b",
                     timestamp_us=2)
        ])
        (edge,) = store.load_graph().edges()
        assert dict(edge.attrs) == {}
        store.close()

    def test_append_node_without_returning_support(self, monkeypatch):
        """The pre-3.35 SQLite path (no RETURNING) behaves identically."""
        from repro.core import store as store_module

        monkeypatch.setattr(store_module, "_HAS_RETURNING", False)
        store = ProvenanceStore()
        store.append_node(visit("a", 1, "http://x.com/", "t", extra=1))
        store.append_node(visit("a", 2, "http://x.com/", "t"))
        store.append_node(visit("b", 3))
        store.append_edge(
            ProvEdge(id=0, kind=EdgeKind.LINK, src="a", dst="b",
                     timestamp_us=3)
        )
        assert store.sql_ancestors("b") == [("a", 1)]
        loaded = store.load_graph().node("a")
        assert loaded.timestamp_us == 2 and dict(loaded.attrs) == {}
        store.close()

    def test_ts_change_does_not_shift_inherited_edge_times(self):
        """Edges storing NULL inherit the dst node's timestamp; a node
        re-recorded with a corrected time must not retroactively move
        the time its inbound edges were recorded at."""
        for rerecord in ("bulk", "single", "cold"):
            store = ProvenanceStore()
            store.append_nodes([visit("a", 1), visit("b", 5)])
            store.append_edges([
                ProvEdge(id=0, kind=EdgeKind.LINK, src="a", dst="b",
                         timestamp_us=5)  # == dst ts -> stored NULL
            ])
            if rerecord == "cold":
                store._nids.clear()
                store._node_ts.clear()
            if rerecord == "bulk":
                store.append_nodes([visit("b", 9)])
            else:
                store.append_node(visit("b", 9))
            (edge,) = store.load_graph(enforce_dag=False).edges()
            assert edge.timestamp_us == 5, rerecord
            store.close()

    def test_rollback_clears_caches(self):
        """After rollback, retried writes must re-intern pages rather
        than reference rolled-back rows (dangling page_id)."""
        store = ProvenanceStore()
        store.append_nodes([visit("a", 1, "http://x.com/", "t")])
        store.rollback()
        store.append_nodes([visit("a", 1, "http://x.com/", "t")])
        store.commit()
        assert store.page_count() == 1
        assert store.load_graph().node("a").url == "http://x.com/"
        store.close()

    def test_bulk_edge_unknown_endpoint(self):
        from repro.core.model import ProvEdge

        store = ProvenanceStore()
        store.append_nodes([visit("a", 1)])
        with pytest.raises(UnknownNodeError):
            store.append_edges(
                [ProvEdge(id=0, kind=EdgeKind.LINK, src="a", dst="ghost",
                          timestamp_us=1)]
            )
        store.close()


class TestPragmas:
    def test_disk_store_uses_wal(self, tmp_path):
        store = ProvenanceStore(str(tmp_path / "prov.sqlite"))
        assert store.conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert store.conn.execute("PRAGMA synchronous").fetchone()[0] == 1
        store.close()

    def test_memory_store_unchanged(self):
        store = ProvenanceStore()
        assert store.conn.execute("PRAGMA journal_mode").fetchone()[0] == "memory"
        store.close()


class TestPrefixScoping:
    @pytest.fixture()
    def tenant_store(self):
        store = ProvenanceStore()
        store.append_nodes([
            visit("alice::a", 1, "http://x.com/", "wine list"),
            visit("alice::b", 2, label="wine cellar"),
            visit("bob::a", 3, label="wine shop"),
            visit("al%::a", 4, label="wine wildcard"),
        ])
        store.append_edges([])
        store.commit()
        yield store
        store.close()

    def test_search_scoped_by_prefix(self, tenant_store):
        assert tenant_store.sql_text_search("wine", id_prefix="alice::") == [
            "alice::b", "alice::a"
        ]
        assert tenant_store.sql_text_search("wine", id_prefix="bob::") == [
            "bob::a"
        ]

    def test_search_unscoped_sees_all(self, tenant_store):
        assert len(tenant_store.sql_text_search("wine")) == 4

    def test_prefix_wildcards_are_literal(self, tenant_store):
        # 'al%::' must not LIKE-match 'alice::' rows.
        assert tenant_store.sql_text_search("wine", id_prefix="al%::") == [
            "al%::a"
        ]

    def test_counts_for_prefix(self, tenant_store):
        assert tenant_store.counts_for_id_prefix("alice::") == (2, 0, 0)
        assert tenant_store.counts_for_id_prefix("carol::") == (0, 0, 0)


_node_strategy = st.lists(
    st.tuples(
        st.integers(0, 30),                      # ordinal -> id & timestamp
        st.sampled_from([None, "http://x.com/", "http://y.com/"]),
        st.sampled_from(["", "title one", "title two"]),
    ),
    min_size=1,
    max_size=20,
    unique_by=lambda item: item[0],
)


@given(nodes=_node_strategy)
@settings(max_examples=40)
def test_roundtrip_property(nodes):
    """Arbitrary node sets (shared URLs, shared titles, hidden flags)
    survive a store round-trip exactly."""
    graph = ProvenanceGraph()
    created = []
    for ordinal, url, title in nodes:
        node = visit(f"n{ordinal:02d}", ordinal, url, title)
        graph.add_node(node)
        created.append(node)
    created.sort(key=lambda node: node.id)
    store = ProvenanceStore()
    store.save_graph(graph)
    loaded = sorted(store.load_graph().nodes(), key=lambda node: node.id)
    assert loaded == created
    store.close()
