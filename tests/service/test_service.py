"""Tests for the service facade: isolation, caching, recovery."""

import os
import threading

import pytest

from repro.core.capture import NodeInterval
from repro.core.model import ProvNode
from repro.core.taxonomy import EdgeKind, NodeKind
from repro.errors import ConfigurationError, UnknownNodeError
from repro.service import ProvenanceService, parse_workers


def visit(node_id, ts, label="", url=None):
    return ProvNode(id=node_id, kind=NodeKind.PAGE_VISIT, timestamp_us=ts,
                    label=label, url=url)


def seed_user(service, user, tag):
    """A tiny three-node chain a -> b -> c with a distinctive label."""
    service.record_node(user, visit("a", 1, f"{tag} start",
                                    f"http://{tag}.example.com/"))
    service.record_node(user, visit("b", 2, f"{tag} middle"))
    service.record_node(user, visit("c", 3, f"{tag} end"))
    service.record_edge(user, EdgeKind.LINK, "a", "b", timestamp_us=2)
    service.record_edge(user, EdgeKind.LINK, "b", "c", timestamp_us=3)


@pytest.fixture()
def service(tmp_path):
    service = ProvenanceService(str(tmp_path / "svc"), shards=1, batch_size=4)
    yield service
    service.close()


class TestDeadLetterOperations:
    def quarantine_poison_edge(self, tmp_path):
        """Crash with a poison edge journaled; reopen quarantines it."""
        root = str(tmp_path / "svc")
        service = ProvenanceService(root, shards=2, batch_size=10_000)
        service.record_node("alice", visit("a", 1, "start"))
        service.record_edge("alice", EdgeKind.LINK, "ghost", "a",
                            timestamp_us=1)  # src never recorded
        service.close(flush=False)
        return ProvenanceService(root, shards=2)

    def test_deadlettered_decodes_entries(self, tmp_path):
        service = self.quarantine_poison_edge(tmp_path)
        dead = service.deadlettered()
        assert len(dead) == 1
        entry = dead[0]
        assert "ghost" in entry.error
        assert entry.event.user_id == "alice"
        assert entry.event.edge.src == "ghost"
        service.close()

    def test_redrive_repaired_event_applies(self, tmp_path):
        service = self.quarantine_poison_edge(tmp_path)
        seq = service.deadlettered()[0].seq
        # Repair: record the missing endpoint, then retry the original.
        service.record_node("alice", visit("ghost", 1, "recovered"))
        new_seq = service.redrive(seq)
        assert new_seq > seq
        assert service.deadlettered() == []
        assert service.stats("alice").edges == 1
        assert ("a", 1) in service.descendants("alice", "ghost")
        # The quarantine is empty for good: a reopen replays nothing
        # and resurrects nothing.
        service.close()
        reopened = ProvenanceService(str(tmp_path / "svc"), shards=2)
        assert reopened.replayed == 0
        assert reopened.deadlettered() == []
        assert reopened.stats("alice").edges == 1
        reopened.close()

    def test_redrive_with_replacement_event(self, tmp_path):
        service = self.quarantine_poison_edge(tmp_path)
        entry = service.deadlettered()[0]
        # Repair by *editing* the event: point the edge at a real node.
        service.record_node("alice", visit("b", 2, "landing"))
        from repro.core.model import ProvEdge
        from repro.service import EdgeEvent
        repaired = EdgeEvent(
            user_id="alice",
            edge=ProvEdge(id=entry.event.edge.id, kind=EdgeKind.LINK,
                          src="b", dst="a", timestamp_us=2),
        )
        service.redrive(entry.seq, event=repaired)
        assert service.deadlettered() == []
        assert ("b", 1) in service.ancestors("alice", "a")
        service.close()

    def test_redrive_still_poison_requarantines(self, tmp_path):
        service = self.quarantine_poison_edge(tmp_path)
        seq = service.deadlettered()[0].seq
        # No repair: the endpoint is still missing, so the redrive must
        # fail loudly — and re-quarantine rather than wedge ingest.
        with pytest.raises(UnknownNodeError):
            service.redrive(seq)
        dead = service.deadlettered()
        assert len(dead) == 1
        assert dead[0].seq > seq  # requarantined under its new sequence
        # The pipeline is healthy: ordinary writes and reads still flow.
        service.record_node("alice", visit("d", 4, "after"))
        assert service.stats("alice").nodes >= 2
        service.close()

    def test_torn_deadletter_tail_loses_no_entries(self, tmp_path):
        """A crash mid-append to the dead-letter file must not hide —
        or let a later pop discard — the entries around the tear."""
        service = self.quarantine_poison_edge(tmp_path)
        path = service.journal.deadletter_path
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 999, "er')  # torn tail, no newline
        # The reader skips the fragment but still sees the good entry.
        dead = service.deadlettered()
        assert [d.seq for d in dead] == [dead[0].seq]
        # A second quarantine appends cleanly past the tear...
        service.record_edge("alice", EdgeKind.LINK, "phantom", "a",
                            timestamp_us=2)
        service.close(flush=False)
        service = ProvenanceService(str(tmp_path / "svc"), shards=2)
        seqs = [d.seq for d in service.deadlettered()]
        assert len(seqs) == 2  # both quarantined entries visible
        # ...and popping one preserves the other AND the raw fragment.
        service.record_node("alice", visit("phantom", 2, "repaired"))
        service.redrive(seqs[1])
        assert [d.seq for d in service.deadlettered()] == [seqs[0]]
        with open(path, "r", encoding="utf-8") as handle:
            assert '{"seq": 999, "er' in handle.read()
        service.close()

    def test_redrive_unknown_seq_rejected(self, tmp_path):
        service = self.quarantine_poison_edge(tmp_path)
        with pytest.raises(ConfigurationError):
            service.redrive(10_000)
        service.close()

    def test_redrive_cannot_switch_tenants(self, tmp_path):
        service = self.quarantine_poison_edge(tmp_path)
        entry = service.deadlettered()[0]
        from repro.core.model import ProvEdge
        from repro.service import EdgeEvent
        hijack = EdgeEvent(
            user_id="mallory",
            edge=ProvEdge(id=1, kind=EdgeKind.LINK, src="x", dst="y",
                          timestamp_us=1),
        )
        with pytest.raises(ConfigurationError):
            service.redrive(entry.seq, event=hijack)
        assert len(service.deadlettered()) == 1  # entry untouched
        service.close()


class TestIsolation:
    """User A's writes must never appear in user B's queries — even when
    both users share the single shard this fixture forces."""

    def test_search_is_scoped(self, service):
        seed_user(service, "alice", "garden")
        seed_user(service, "bob", "cinema")
        assert service.search("alice", "garden") == ["c", "b", "a"]
        assert service.search("alice", "garden start") == ["a"]
        assert service.search("alice", "cinema") == []
        assert service.search("bob", "cinema") == ["c", "b", "a"]

    def test_walks_are_scoped(self, service):
        seed_user(service, "alice", "garden")
        seed_user(service, "bob", "cinema")
        assert service.ancestors("alice", "c") == [("b", 1), ("a", 2)]
        assert service.descendants("bob", "a") == [("b", 1), ("c", 2)]
        # Identical raw node ids never bleed across users.
        for found_id, _depth in service.ancestors("alice", "c"):
            assert "::" not in found_id

    def test_stats_are_scoped(self, service):
        seed_user(service, "alice", "garden")
        service.record_node("bob", visit("solo", 1))
        assert service.stats("alice").nodes == 3
        assert service.stats("alice").edges == 2
        assert service.stats("bob").nodes == 1
        assert service.stats("bob").edges == 0

    def test_tenants_differing_only_in_case_stay_apart(self, service):
        """Tenant scoping is case-sensitive: ``alice`` and ``Alice``
        share the shard but never each other's rows — not in counts,
        searches, ranked pages, or retention surgery."""
        seed_user(service, "alice", "garden")
        seed_user(service, "Alice", "garden")
        service.record_node("Alice", visit("d", 4, "garden extra"))
        assert service.stats("alice").nodes == 3
        assert service.stats("Alice").nodes == 4
        assert service.search("alice", "garden") == ["c", "b", "a"]
        page = service.ranked_search("garden", user_id="alice")
        assert {hit.user_id for hit in page.hits} == {"alice"}
        assert len(page.hits) == 3
        report = service.expire_before("alice", 10)
        assert report.nodes_removed == 3
        assert service.stats("alice").nodes == 0
        assert service.stats("Alice").nodes == 4
        assert service.stats("Alice").edges == 2

    def test_same_urls_shared_but_results_scoped(self, service):
        url = "http://common.example.com/"
        service.record_node("alice", visit("a", 1, "shared page", url))
        service.record_node("bob", visit("a", 1, "shared page", url))
        assert service.search("alice", "common.example") == ["a"]
        assert service.stats("alice").nodes == 1

    def test_record_event_remaps_hostile_edge_ids(self, service):
        """A pre-built EdgeEvent reusing another tenant's edge id must
        not overwrite that tenant's lineage (shared prov_edges PK)."""
        from repro.core.model import ProvEdge
        from repro.service.events import EdgeEvent

        seed_user(service, "alice", "garden")
        service.record_node("bob", visit("b1", 1))
        service.record_node("bob", visit("b2", 2))
        alice_lineage = service.ancestors("alice", "c")
        # Collide with every id alice's edges could hold.
        for hostile_id in range(1, service.journal.next_seq):
            service.record_event(
                EdgeEvent(
                    user_id="bob",
                    edge=ProvEdge(id=hostile_id, kind=EdgeKind.LINK,
                                  src="b1", dst="b2", timestamp_us=2),
                )
            )
        service.flush()
        assert service.ancestors("alice", "c") == alice_lineage

    def test_unknown_node_raises_with_raw_id(self, service):
        service.record_node("alice", visit("a", 1))
        with pytest.raises(UnknownNodeError) as err:
            service.ancestors("alice", "ghost")
        assert err.value.node_id == "ghost"


class TestReadYourWrites:
    def test_query_sees_buffered_writes(self, tmp_path):
        # Batch size large enough that nothing auto-flushes.
        service = ProvenanceService(str(tmp_path), shards=2, batch_size=10_000)
        seed_user(service, "alice", "garden")
        assert service.ancestors("alice", "c") == [("b", 1), ("a", 2)]
        service.close()

    def test_reads_dispatch_all_shards_and_drain_the_callers(self, tmp_path):
        """A read drains the *caller's* shard synchronously (its answer
        must include the caller's acknowledged writes) and hands every
        other shard's buffer to the background workers — so another
        shard's oldest buffered event cannot pin the journal checkpoint
        indefinitely.  A full flush barrier then compacts the journal."""
        import os

        service = ProvenanceService(str(tmp_path), shards=4,
                                    batch_size=10_000)
        service.record_node("alice", visit("a", 1))  # shard 1
        service.record_node("bob", visit("a", 1))    # shard 2
        alice_shard = service.pool.shard_of("alice")
        service.stats("alice")
        assert service.ingest.pending(alice_shard) == 0
        service.flush()  # barrier: every shard drained
        assert service.ingest.pending() == 0
        assert service.journal.flushed_seq == service.journal.last_seq
        assert os.path.getsize(service.journal.path) == 0  # compacted
        service.close()

    def test_interval_events_flow_through(self, service):
        service.record_node("alice", visit("a", 1))
        service.record_interval(
            "alice",
            NodeInterval(node_id="a", tab_id=1, opened_us=1, closed_us=9),
        )
        assert service.stats("alice").intervals == 1


class TestCaching:
    def test_repeat_query_hits_cache(self, service):
        seed_user(service, "alice", "garden")
        first = service.ancestors("alice", "c")
        before = service.cache.stats().hits
        assert service.ancestors("alice", "c") == first
        assert service.cache.stats().hits == before + 1

    def test_write_invalidates_only_that_user(self, service):
        seed_user(service, "alice", "garden")
        seed_user(service, "bob", "cinema")
        service.search("alice", "garden")
        service.search("bob", "cinema")
        invalidations_before = service.cache.stats().invalidations
        service.record_node("alice", visit("d", 4, "garden redux"))
        assert service.cache.stats().invalidations > invalidations_before
        # Bob's entry survived: next lookup is a hit.
        hits_before = service.cache.stats().hits
        service.search("bob", "cinema")
        assert service.cache.stats().hits == hits_before + 1

    def test_invalidated_query_sees_new_data(self, service):
        seed_user(service, "alice", "garden")
        assert service.search("alice", "redux") == []
        service.record_node("alice", visit("d", 4, "garden redux"))
        assert service.search("alice", "redux") == ["d"]


class TestRecovery:
    def test_crash_and_replay_loses_nothing(self, tmp_path):
        root = str(tmp_path / "svc")
        service = ProvenanceService(root, shards=4, batch_size=10_000)
        seed_user(service, "alice", "garden")
        seed_user(service, "bob", "cinema")
        submitted = service.service_stats().events_submitted
        service.close(flush=False)  # crash before any batch drained

        recovered = ProvenanceService(root, shards=4)
        assert recovered.replayed == submitted
        assert recovered.stats("alice").nodes == 3
        assert recovered.stats("alice").edges == 2
        assert recovered.stats("bob").nodes == 3
        assert recovered.ancestors("alice", "c") == [("b", 1), ("a", 2)]
        recovered.close()

    def test_reopen_with_different_shard_count_refused(self, tmp_path):
        root = str(tmp_path / "svc")
        service = ProvenanceService(root, shards=4)
        service.record_node("bob", visit("a", 1))
        service.close()
        # bob routes to a different shard under 8; silently reopening
        # would strand his data, so the layout guard must refuse.
        with pytest.raises(ConfigurationError):
            ProvenanceService(root, shards=8)
        same = ProvenanceService(root, shards=4)
        assert same.stats("bob").nodes == 1
        same.close()

    def test_clean_restart_replays_nothing(self, tmp_path):
        root = str(tmp_path / "svc")
        service = ProvenanceService(root, shards=2)
        seed_user(service, "alice", "garden")
        service.close()  # flushes

        reopened = ProvenanceService(root, shards=2)
        assert reopened.replayed == 0
        assert reopened.stats("alice").nodes == 3
        reopened.close()


class TestWorkersSpec:
    def test_count_specs_parse(self):
        cpus = min(4, os.cpu_count() or 1)
        assert parse_workers(None, 4) == 0
        assert parse_workers(0, 4) == 0
        assert parse_workers(3, 4) == 3
        assert parse_workers("auto", 4) == cpus

    @pytest.mark.parametrize(
        "spec", ["thread:2", "thread:-1", "process", "process:0",
                 "process:zero", "prcess", -1, 2.5, True]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            parse_workers(spec, 4)

    def test_service_rejects_a_mode_prefix(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ProvenanceService(str(tmp_path / "svc"), workers="thread:2")


class TestFacade:
    def test_edge_ids_unique_across_users(self, service):
        service.record_node("alice", visit("a", 1))
        service.record_node("alice", visit("b", 2))
        service.record_node("bob", visit("a", 1))
        service.record_node("bob", visit("b", 2))
        alice_edge = service.record_edge("alice", EdgeKind.LINK, "a", "b",
                                         timestamp_us=2)
        bob_edge = service.record_edge("bob", EdgeKind.LINK, "a", "b",
                                       timestamp_us=2)
        assert alice_edge != bob_edge

    def test_invalid_user_ids_rejected(self, service):
        for bad in ("", "a::b", "white space", None, "::"):
            with pytest.raises(ConfigurationError):
                service.record_node(bad, visit("a", 1))

    def test_users_listing(self, service):
        seed_user(service, "bob", "x")
        seed_user(service, "alice", "y")
        assert service.users() == ["alice", "bob"]

    def test_service_stats_snapshot(self, service):
        seed_user(service, "alice", "garden")
        service.flush()
        stats = service.service_stats()
        assert stats.users == 1
        assert stats.events_submitted == 5
        assert stats.events_applied == 5
        assert stats.pool.shards == 1

    def test_context_manager_and_tempdir_mode(self):
        with ProvenanceService(shards=2) as service:
            service.record_node("alice", visit("a", 1))
            assert service.stats("alice").nodes == 1

    def test_failed_final_flush_still_releases_handles(self, tmp_path):
        service = ProvenanceService(str(tmp_path / "leak"), shards=1,
                                    batch_size=10_000)
        service.record_node("alice", visit("a", 1))
        service.record_edge("alice", EdgeKind.LINK, "a", "ghost",
                            timestamp_us=1)
        with pytest.raises(UnknownNodeError):
            service.close()
        assert service.pool.open_count == 0
        assert service.journal._handle.closed

    def test_concurrent_open_of_same_root_refused(self, tmp_path):
        """Two live services on one root would hand out colliding
        journal sequences (cross-tenant edge overwrites) — refuse."""
        root = str(tmp_path / "locked")
        first = ProvenanceService(root, shards=2)
        with pytest.raises(ConfigurationError, match="already open"):
            ProvenanceService(root, shards=2)
        first.close()
        # Clean close releases the lock.
        second = ProvenanceService(root, shards=2)
        second.close()

    def test_open_racing_an_unwritten_lock_is_refused(
        self, tmp_path, monkeypatch
    ):
        """The first opener is paused in its first ``os.write`` (the
        lock's pid) while a second opens the same root.  An empty lock
        file must not read as a stale one: exactly one open wins."""
        root = str(tmp_path / "race")
        real_write = os.write
        paused = threading.Event()
        release = threading.Event()
        first_ident = []

        def pausing_write(fd, data):
            if first_ident == [threading.get_ident()] and not paused.is_set():
                paused.set()
                release.wait(10)
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", pausing_write)
        opened = []
        refused = []

        def try_open():
            try:
                opened.append(ProvenanceService(root, shards=2))
            except ConfigurationError as exc:
                refused.append(exc)

        def first_open():
            first_ident.append(threading.get_ident())
            try_open()

        first = threading.Thread(target=first_open)
        first.start()
        try:
            assert paused.wait(10), "first opener never wrote its lock"
            try_open()
        finally:
            release.set()
            first.join(10)
            for service in opened:
                service.close()
        assert not first.is_alive()
        assert (len(opened), len(refused)) == (1, 1)
        assert "already open" in str(refused[0])

    def test_stale_lock_from_dead_process_is_stolen(self, tmp_path):
        import os

        root = str(tmp_path / "stale")
        service = ProvenanceService(root, shards=2)
        service.record_node("alice", visit("a", 1))
        service.close()
        # Fake a crash artifact: a lock owned by a long-gone pid.
        with open(os.path.join(root, "service.lock"), "w") as handle:
            handle.write("999999999")
        reopened = ProvenanceService(root, shards=2)
        assert reopened.stats("alice").nodes == 1
        reopened.close()

    def test_exit_preserves_in_block_exception(self, tmp_path):
        """__exit__ must not let a failing final flush mask the error
        that aborted the with-block; the journal keeps the events."""
        with pytest.raises(KeyError, match="boom"):
            with ProvenanceService(str(tmp_path / "mask"), shards=1,
                                   batch_size=10_000) as service:
                service.record_node("alice", visit("a", 1))
                service.record_edge("alice", EdgeKind.LINK, "a", "ghost",
                                    timestamp_us=1)
                raise KeyError("boom")
