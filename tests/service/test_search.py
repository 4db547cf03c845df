"""The relevance-search subsystem: incremental per-shard inverted
indexes, IR-ranked scatter-gather, epoch-based cache admission, and the
per-tenant retention facade.

The acceptance story: ranked results must reflect text relevance (not
just recency), stay tenant-isolated, come out identical however the
index was built (incrementally from any worker substrate, or rebuilt
from the rows), survive crash replay exactly-once, and stay served
from the cross-shard cache across sustained ingest without ever
serving a stale result past an epoch roll.
"""

import threading

import pytest

from repro.core.model import ProvNode
from repro.core.store import ProvenanceStore
from repro.core.taxonomy import EdgeKind, NodeKind
from repro.errors import ConfigurationError
from repro.service import ProvenanceService, RankingParams
from repro.service.apply import apply_event_batch
from repro.service.events import NodeEvent
from repro.service.indexer import (
    batch_index_docs,
    ensure_index,
    node_tokens,
    rebuild_index,
)
from repro.service.search import query_terms, shard_ranked_scan, slice_after
from tests.service.ranking_reference import index_totals, term_postings

DAY_US = 24 * 3600 * 1_000_000


def visit(node_id, ts=1, label="", url=None):
    return ProvNode(id=node_id, kind=NodeKind.PAGE_VISIT, timestamp_us=ts,
                    label=label, url=url)


def node_event(user, node_id, ts=1, label="", url=None):
    return NodeEvent(user_id=user, node=visit(node_id, ts, label, url))


def top(store, terms, limit, **scan):
    """The first *limit* hits of a shard's ranked scan."""
    return slice_after(shard_ranked_scan(store, terms, **scan), None, limit)[0]


def store_dump(store):
    return "\n".join(store.conn.iterdump())


class TestIndexerTokens:
    def test_label_and_url_both_contribute(self):
        tokens = node_tokens("Wine cellar tour", "http://wine-site0.com/cellar")
        assert "wine" in tokens and "tour" in tokens
        assert "site0" in tokens and "cellar" in tokens

    def test_stopwords_dropped_and_none_tolerated(self):
        assert "the" not in node_tokens("the cellar", None)
        assert node_tokens(None, None) == []

    def test_batch_delta_keeps_only_node_events_in_order(self):
        batch = [
            (1, node_event("u", "a", 1, "first")),
            (2, node_event("u", "b", 2, "second")),
            (3, node_event("u", "a", 3, "first revised")),
        ]
        docs = batch_index_docs(batch)
        assert [doc_id for doc_id, _ in docs] == ["u::a", "u::b", "u::a"]


class TestIncrementalIndex:
    def test_apply_maintains_postings_in_same_transaction(self):
        store = ProvenanceStore()
        apply_event_batch(store, [
            (1, node_event("u", "a", 1, "wine cellar")),
            (2, node_event("u", "b", 2, "garden shed")),
        ])
        docs, length, state = store.index_stats()
        assert (docs, state) == (2, "ready")
        assert length == 4
        postings = term_postings(store, ["wine", "garden"])
        assert postings["wine"] == [("u::a", 1)]
        assert postings["garden"] == [("u::b", 1)]
        store.close()

    def test_reapplying_a_committed_batch_changes_nothing(self):
        """Crash replay re-delivers whole batches; index rows and the
        corpus counters must come out exactly-once like the row kinds."""
        store = ProvenanceStore()
        batch = [
            (1, node_event("u", "a", 1, "wine cellar", "http://w.com/c")),
            (2, node_event("u", "b", 2, "garden shed")),
        ]
        apply_event_batch(store, batch)
        before = store_dump(store)
        apply_event_batch(store, batch)  # re-delivery
        assert store_dump(store) == before

    def test_rerecorded_node_replaces_its_postings(self):
        store = ProvenanceStore()
        apply_event_batch(store, [(1, node_event("u", "a", 1, "wine"))])
        apply_event_batch(store, [(2, node_event("u", "a", 2, "garden"))])
        assert term_postings(store, ["wine"])["wine"] == []
        assert term_postings(store, ["garden"])["garden"] == [("u::a", 1)]
        docs, length, _state = store.index_stats()
        assert (docs, length) == (1, 1)

    def test_index_bytes_independent_of_batch_boundaries(self):
        """One batch of N events and N batches of one event must leave
        identical index bytes — term interning follows the stream."""
        events = [
            (i + 1, node_event("u", f"n{i}", i + 1, f"page {i} wine"))
            for i in range(10)
        ]
        one = ProvenanceStore()
        apply_event_batch(one, events)
        many = ProvenanceStore()
        for entry in events:
            apply_event_batch(many, [entry])
        assert store_dump(one) == store_dump(many)

    def test_rebuild_matches_incremental(self):
        store = ProvenanceStore()
        apply_event_batch(store, [
            (1, node_event("u", "a", 1, "wine cellar", "http://w.com/c")),
            (2, node_event("v", "b", 2, "cellar door", "http://w.com/d")),
        ])
        incremental = top(store, query_terms("cellar"), 10)
        rebuild_index(store)
        assert top(store, query_terms("cellar"), 10) == incremental

    def test_tenant_scoped_corpus_stats_and_recency_anchor(self):
        """Per-user BM25 normalizes against the tenant's own corpus
        and anchors recency at the tenant's own newest node: a
        co-tenant's bulk ingest — long documents, much newer
        timestamps — must not shift a user's scores at all."""
        store = ProvenanceStore()
        apply_event_batch(store, [
            (1, node_event("u", "a", 1, "wine cellar")),
            (2, node_event("v", "b", 2, "a very long unrelated document"
                                        " full of many many words")),
        ])
        assert index_totals(store, "u::") == (1, 2)
        scoped = top(store, ["wine"], 5, id_prefix="u::")
        before = scoped[0][1]
        # Another tenant floods the shard with long, far-newer docs
        # (which would both shift avgdl and age u's hits into older
        # frecency buckets if the stats were shard-global).
        apply_event_batch(store, [
            (i + 10, node_event("v", f"n{i}", 100 * DAY_US + i,
                                "more words " * 20))
            for i in range(5)
        ])
        scoped = top(store, ["wine"], 5, id_prefix="u::")
        assert scoped[0][1] == before

    def test_disabled_indexing_marks_stale_and_ensure_rebuilds(self):
        store = ProvenanceStore()
        apply_event_batch(
            store, [(1, node_event("u", "a", 1, "wine"))], index=False
        )
        docs, _length, state = store.index_stats()
        assert (docs, state) == (0, "stale")
        assert ensure_index(store) is True  # rebuilt
        assert store.index_stats()[2] == "ready"
        assert top(store, ["wine"], 5)
        assert ensure_index(store) is False  # second call is a no-op


class TestRankedSearchService:
    @pytest.fixture()
    def service(self, tmp_path):
        svc = ProvenanceService(str(tmp_path / "svc"), shards=4,
                                batch_size=8)
        yield svc
        svc.close()

    def test_relevance_beats_recency(self, service):
        """The node that actually matches the query must outrank a
        newer node that merely mentions a query term — exactly what the
        recency-only global_search cannot do."""
        service.record_node("alice", visit(
            "old-hit", 1_000, "wine cellar tasting wine notes wine",
        ))
        service.record_node("alice", visit(
            "new-noise", 90 * DAY_US,
            "shopping list including one wine mention plus many other"
            " unrelated errand words filling the document",
        ))
        ranked = service.ranked_search("wine", user_id="alice", limit=2)
        assert [hit.nid for hit in ranked] == ["old-hit", "new-noise"]
        # Every hit explains itself: the query term is highlighted.
        assert all("**wine**" in hit.snippet for hit in ranked)
        assert all(hit.matched_terms == ("wine",) for hit in ranked)
        # The LIKE-scan path would put the newer node first.
        assert service.search("alice", "wine")[0] == "new-noise"

    def test_global_ranked_search_is_tenant_tagged_and_merged(self, service):
        service.record_node("alice", visit("a", 10, "wine cellar"))
        service.record_node("bob", visit("b", 20, "wine wine cellar wine"))
        results = service.ranked_search("wine cellar")
        assert [(hit.user_id, hit.nid) for hit in results] == [
            ("bob", "b"), ("alice", "a"),
        ]
        scores = [hit.score for hit in results]
        assert scores == sorted(scores, reverse=True)
        assert results.cursor is None  # both shards drained in one page

    def test_per_user_scope_never_leaks(self, service):
        service.record_node("alice", visit("a", 10, "secret wine"))
        service.record_node("bob", visit("b", 20, "public wine"))
        assert [hit.nid for hit in service.ranked_search(
            "wine", user_id="alice"
        )] == ["a"]
        assert [hit.nid for hit in service.ranked_search(
            "wine", user_id="bob"
        )] == ["b"]

    def test_frecency_boost_promotes_the_tenants_frequent_page(self, service):
        """Equal text, equal age: the page the tenant visits repeatedly
        must score above the one-off."""
        for i in range(8):
            service.record_node("alice", visit(
                f"rev{i}", 100 + i, "wine review", "http://daily.com/wine",
            ))
        service.record_node("alice", visit(
            "oneoff", 200, "wine review", "http://obscure.com/wine",
        ))
        ranked = service.ranked_search("review", user_id="alice", limit=20)
        assert ranked[0].nid.startswith("rev")
        assert "oneoff" in [hit.nid for hit in ranked]

    def test_stopword_only_and_unknown_queries_are_empty(self, service):
        service.record_node("alice", visit("a", 10, "wine cellar"))
        stopword_page = service.ranked_search("the and of")
        assert not stopword_page and stopword_page.cursor is None
        unseen = service.ranked_search("zzzunseen")
        assert not unseen and unseen.cursor is None

    def test_limit_and_read_your_writes(self, service):
        for i in range(10):
            service.record_node("alice", visit(f"n{i}", i + 1, "wine"))
        assert len(service.ranked_search("wine", user_id="alice",
                                         limit=3)) == 3
        # Unflushed write visible immediately (per-user drain).
        service.record_node("alice", visit("fresh", 99, "freshwine wine"))
        hits = [hit.nid for hit in service.ranked_search("freshwine",
                                                         user_id="alice")]
        assert hits == ["fresh"]

    def test_ranking_params_knobs_change_the_blend(self, tmp_path):
        """Zeroed behavioral weights reduce the blend to pure BM25."""
        svc = ProvenanceService(
            str(tmp_path / "flat"), shards=2,
            ranking=RankingParams(recency_weight=0.0, frecency_weight=0.0),
        )
        try:
            svc.record_node("u", visit("a", 1, "wine cellar"))
            svc.record_node("u", visit("b", 2 * DAY_US, "wine cellar"))
            ranked = svc.ranked_search("cellar", user_id="u")
            assert ranked[0].score == ranked[1].score  # no recency tiebreak
        finally:
            svc.close()

    def test_bad_ranking_params_rejected(self):
        with pytest.raises(ValueError):
            RankingParams(recency_weight=-1.0)

    def test_stale_shard_rebuilds_lazily_on_first_ranked_query(self, tmp_path):
        root = str(tmp_path / "svc")
        svc = ProvenanceService(root, shards=2, index=False)
        svc.record_node("alice", visit("a", 10, "wine cellar"))
        svc.flush()
        # Disabled indexing left the shard stale, yet ranked search
        # self-heals by rebuilding from the rows.
        assert [hit.nid for hit in svc.ranked_search(
            "wine", user_id="alice"
        )] == ["a"]
        svc.close()


class TestEpochAdmission:
    def test_hot_global_query_survives_ingest_within_an_epoch(self, tmp_path):
        svc = ProvenanceService(str(tmp_path / "svc"), shards=2,
                                cache_epoch_writes=100, workers=None)
        try:
            svc.record_node("alice", visit("m1", 10, "epochmarker"))
            first = svc.ranked_search("epochmarker")
            assert [(h.user_id, h.nid) for h in first] == [("alice", "m1")]
            hits_before = svc.cache.stats().hits
            # Writes land (other tenants AND the same tenant)…
            svc.record_node("bob", visit("noise", 20, "unrelated"))
            svc.record_node("alice", visit("m2", 30, "epochmarker"))
            # …but the hot cross-shard entry still serves from cache —
            # bounded staleness, not thrash.
            assert svc.ranked_search("epochmarker") == first
            assert svc.cache.stats().hits == hits_before + 1
        finally:
            svc.close()

    def test_epoch_roll_makes_stale_reads_impossible(self, tmp_path):
        svc = ProvenanceService(str(tmp_path / "svc"), shards=2,
                                cache_epoch_writes=10, workers=None)
        try:
            svc.record_node("alice", visit("m1", 10, "epochmarker"))
            assert len(svc.ranked_search("epochmarker")) == 1  # cached
            svc.record_node("alice", visit("m2", 20, "epochmarker"))
            epoch = svc.cache.stats().epoch
            i = 0
            while svc.cache.stats().epoch == epoch:  # drive a roll
                svc.record_node("carol", visit(f"f{i}", i + 1, "filler"))
                i += 1
                assert i < 50, "epoch never rolled"
            fresh = svc.ranked_search("epochmarker")
            assert {h.nid for h in fresh} == {"m1", "m2"}
        finally:
            svc.close()

    def test_hot_query_hits_while_concurrent_ingest_lands(self, tmp_path):
        """The satellite acceptance: a hot global query keeps hitting
        the cache across at least one whole epoch of sustained
        concurrent ingest, and the post-roll recompute is fresh."""
        svc = ProvenanceService(str(tmp_path / "svc"), shards=4,
                                batch_size=16, workers=2,
                                cache_epoch_writes=200)
        try:
            svc.record_node("alice", visit("hot", 10, "hotquery"))
            svc.ranked_search("hotquery")  # warm the entry
            stop = threading.Event()
            written = [0]

            def writer(user):
                i = 0
                while not stop.is_set():
                    svc.record_node(user, visit(f"w{i}", i + 1, "filler"))
                    written[0] += 1
                    i += 1

            threads = [
                threading.Thread(target=writer, args=(f"writer{t}",))
                for t in range(2)
            ]
            hits_before = svc.cache.stats().hits
            for thread in threads:
                thread.start()
            try:
                hits_seen = 0
                for _ in range(200):
                    svc.ranked_search("hotquery")
                    hits_seen = svc.cache.stats().hits - hits_before
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
            assert hits_seen > 0, "global entry never survived a write"
            assert written[0] > 0
            # Force a roll past the concurrent traffic, then the
            # recompute must see a marker written *during* the storm.
            svc.record_node("alice", visit("late", 999, "hotquery"))
            epoch = svc.cache.stats().epoch
            i = 0
            while svc.cache.stats().epoch == epoch:
                svc.record_node("carol", visit(f"r{i}", i + 1, "filler"))
                i += 1
            assert ("alice", "late") in [
                (h.user_id, h.nid) for h in svc.ranked_search("hotquery")
            ]
        finally:
            svc.close()


class TestRetentionFacade:
    @pytest.fixture()
    def service(self, tmp_path):
        svc = ProvenanceService(str(tmp_path / "svc"), shards=4,
                                batch_size=8)
        yield svc
        svc.close()

    def test_expire_before_bridges_lineage(self, service):
        """a -> b -> c with b expired: c must keep a as a (bridged)
        ancestor — truthful, less detailed ancestry."""
        service.record_node("alice", visit("a", 1 * DAY_US, "origin"))
        service.record_node("alice", visit("b", 2 * DAY_US, "middle"))
        service.record_node("alice", visit("c", 80 * DAY_US, "recent"))
        service.record_edge("alice", EdgeKind.LINK, "a", "b",
                            timestamp_us=2 * DAY_US)
        service.record_edge("alice", EdgeKind.LINK, "b", "c",
                            timestamp_us=80 * DAY_US)
        # Keep "a" alive but expire "b": bridge must connect a -> c.
        service.record_node("alice", visit("a", 79 * DAY_US, "origin"))
        report = service.expire_before("alice", 70 * DAY_US)
        assert report.nodes_removed == 1
        assert report.bridge_edges_added == 1
        ancestors = service.ancestors("alice", "c")
        assert ("a", 1) in ancestors
        assert service.stats("alice").nodes == 2

    def test_repeated_expiration_never_duplicates_bridges(self, service):
        """A surviving bridge from an earlier run is already a row;
        running the same expiration again must not re-submit it under
        a fresh edge id."""
        service.record_node("alice", visit("a", 1 * DAY_US, "origin"))
        service.record_node("alice", visit("b", 2 * DAY_US, "middle"))
        service.record_node("alice", visit("c", 80 * DAY_US, "recent"))
        service.record_edge("alice", EdgeKind.LINK, "a", "b",
                            timestamp_us=2 * DAY_US)
        service.record_edge("alice", EdgeKind.LINK, "b", "c",
                            timestamp_us=80 * DAY_US)
        service.record_node("alice", visit("a", 79 * DAY_US, "origin"))
        first = service.expire_before("alice", 70 * DAY_US)
        assert first.bridge_edges_added == 1
        edges_after_first = service.stats("alice").edges
        second = service.expire_before("alice", 70 * DAY_US)
        assert second.nodes_removed == 0
        assert service.stats("alice").edges == edges_after_first
        # Even a lower cutoff re-run (nothing left to expire) is safe.
        service.expire_before("alice", 75 * DAY_US)
        assert service.stats("alice").edges == edges_after_first

    def test_expire_before_scrubs_index_and_cache(self, service):
        service.record_node("alice", visit("old", 1, "ancientwine"))
        service.record_node("alice", visit("new", 99 * DAY_US, "newwine"))
        assert service.ranked_search("ancientwine")  # caches globally
        report = service.expire_before("alice", 50 * DAY_US)
        assert report.nodes_removed == 1
        # Both the index rows and the cached cross-shard entry are gone.
        assert not service.ranked_search("ancientwine")
        assert service.search("alice", "ancientwine") == []
        assert [hit.nid for hit in service.ranked_search(
            "newwine", user_id="alice"
        )] == ["new"]

    def test_expire_only_touches_the_named_tenant(self, service):
        service.record_node("alice", visit("a", 1, "sharedword"))
        service.record_node("bob", visit("b", 1, "sharedword"))
        service.expire_before("alice", 100)
        assert service.stats("alice").nodes == 0
        assert service.stats("bob").nodes == 1
        assert [
            (h.user_id, h.nid) for h in service.ranked_search("sharedword")
        ] == [("bob", "b")]

    def test_forget_site_redacts_without_bridging(self, service):
        service.record_node("alice", visit(
            "s", 1, "embarrassing search", "http://socialsite.com/q"))
        service.record_node("alice", visit(
            "d", 2, "downstream page", "http://elsewhere.com/p"))
        service.record_edge("alice", EdgeKind.LINK, "s", "d", timestamp_us=2)
        report = service.forget_site("alice", "socialsite.com")
        assert report.nodes_removed == 1
        assert report.edges_removed == 1
        assert report.orphaned_descendants == 1
        # No bridge: the connection is genuinely unanswerable now.
        assert service.ancestors("alice", "d") == []
        assert not service.ranked_search("embarrassing")

    def test_forget_site_prunes_orphaned_page_rows(self, service):
        service.record_node("alice", visit(
            "a", 1, "only visitor", "http://secret.com/page"))
        service.record_node("bob", visit(
            "b", 1, "other tenant", "http://shared.com/page"))
        service.record_node("alice", visit(
            "c", 2, "also shared", "http://shared.com/page"))
        service.forget_site("alice", "secret.com")
        shard = service.pool.shard_of("alice")
        with service.pool.checkout(shard) as store:
            urls = [row[0] for row in store.conn.execute(
                "SELECT url FROM prov_pages"
            )]
        assert all("secret.com" not in url for url in urls)
        # shared.com survives: bob (possibly on another shard) and the
        # deletion never crosses tenants anyway.
        assert service.search("bob", "tenant") == ["b"]

    def test_retention_survives_crash_replay(self, tmp_path):
        """The journal barrier means replay can never resurrect what
        retention deleted."""
        root = str(tmp_path / "svc")
        svc = ProvenanceService(root, shards=2, batch_size=4)
        svc.record_node("alice", visit("old", 1, "doomed"))
        svc.record_node("alice", visit("new", 99 * DAY_US, "keeper"))
        svc.expire_before("alice", 50 * DAY_US)
        svc.close(flush=False)  # crash right after the surgery
        recovered = ProvenanceService(root, shards=2)
        try:
            assert recovered.search("alice", "doomed") == []
            assert not recovered.ranked_search("doomed")
            assert recovered.stats("alice").nodes == 1
        finally:
            recovered.close()

    def test_retention_rejects_bad_user_id(self, service):
        with pytest.raises(ConfigurationError):
            service.expire_before("::bad::", 1)
        with pytest.raises(ConfigurationError):
            service.forget_site("::bad::", "x.com")


class TestWorkerCoherence:
    """Query-side rebuilds and retention surgery run off the flush
    thread; the flush thread's later batches must stay coherent with
    them."""

    def test_ingest_after_rebuild_is_not_lost_with_thread_workers(
        self, tmp_path
    ):
        """index=False + a flush thread: every disabled batch must
        re-mark the shard stale, even though the lazy rebuild of a
        ranked query set it ready in between — otherwise everything
        ingested after the first ranked query is silently unsearchable
        forever."""
        svc = ProvenanceService(str(tmp_path / "svc"), shards=1,
                                batch_size=2, workers=1, index=False)
        try:
            svc.record_node("alice", visit("n1", 1, "findable one"))
            svc.flush()
            assert [hit.nid for hit in svc.ranked_search(
                "findable", user_id="alice"
            )] == ["n1"]  # the query rebuilt the stale shard
            svc.record_node("alice", visit("n2", 2, "findable two"))
            svc.flush()
            assert {hit.nid for hit in svc.ranked_search(
                "findable", user_id="alice"
            )} == {"n1", "n2"}
        finally:
            svc.close()

    def test_ingest_after_retention_with_thread_workers(self, tmp_path):
        """Retention surgery deletes rows under the shard's store; its
        row caches must drop with them, or re-recording an expired node
        id would write edges against the deleted rowid."""
        svc = ProvenanceService(str(tmp_path / "svc"), shards=1,
                                batch_size=2, workers=1)
        try:
            svc.record_node("alice", visit("a", 1, "old a"))
            svc.record_node("alice", visit("b", 2, "old b"))
            svc.flush()
            report = svc.expire_before("alice", 10 * DAY_US)
            assert report.nodes_removed == 2
            # Re-record the same ids and connect them: the flush thread
            # must resolve fresh rowids, not a pre-surgery cache.
            svc.record_node("alice", visit("a", 20 * DAY_US, "new a"))
            svc.record_node("alice", visit("b", 21 * DAY_US, "new b"))
            svc.record_edge("alice", EdgeKind.LINK, "a", "b",
                            timestamp_us=21 * DAY_US)
            svc.flush()
            stats = svc.stats("alice")
            assert (stats.nodes, stats.edges) == (2, 1)
            assert svc.ancestors("alice", "b") == [("a", 1)]
        finally:
            svc.close()
