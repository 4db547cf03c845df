"""Tests for the journal and the batched ingest pipeline.

The crash tests are the acceptance story: events journaled but never
flushed (the process "dies" before the batch drains) must be fully
recovered by replay on the next startup, with no events lost.
"""

import json
import os
import sys
import threading
import time

import pytest

from repro.core.capture import NodeInterval
from repro.core.model import ProvEdge, ProvNode
from repro.core.taxonomy import EdgeKind, NodeKind
from repro.errors import ConfigurationError
from repro.service.events import (
    EdgeEvent,
    IntervalEvent,
    NodeEvent,
    decode_event,
    encode_event,
)
from repro.service import ingest as ingest_module
from repro.service.ingest import (
    COMPACT_MIN_BYTES,
    IngestJournal,
    IngestPipeline,
)
from repro.service.pool import StorePool


def visit(node_id, ts=1, **kwargs):
    return ProvNode(id=node_id, kind=NodeKind.PAGE_VISIT, timestamp_us=ts,
                    **kwargs)


def node_event(user, node_id, ts=1, **kwargs):
    return NodeEvent(user_id=user, node=visit(node_id, ts, **kwargs))


class TestEventCodec:
    def test_node_roundtrip(self):
        event = node_event("alice", "v1", 7, label="page", url="http://x.com/",
                           attrs={"transition": "typed", "hidden": 1})
        assert decode_event(encode_event(event)) == event

    def test_edge_roundtrip(self):
        event = EdgeEvent(
            user_id="bob",
            edge=ProvEdge(id=9, kind=EdgeKind.LINK, src="a", dst="b",
                          timestamp_us=3, attrs={"unified": 1}),
        )
        assert decode_event(encode_event(event)) == event

    def test_interval_roundtrip(self):
        event = IntervalEvent(
            user_id="carol",
            interval=NodeInterval(node_id="v1", tab_id=2, opened_us=1,
                                  closed_us=9),
        )
        assert decode_event(encode_event(event)) == event

    def test_codec_is_json_safe(self):
        event = node_event("alice", "v1")
        assert decode_event(json.loads(json.dumps(encode_event(event)))) == event

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            decode_event({"t": "blob"})

    def test_fast_json_encoder_matches_dict_codec(self):
        """The hot-path encoder must produce JSON the dict codec would."""
        from repro.service.events import encode_event_json

        events = [
            node_event("alice", "v1", 7, label='page "quoted" 100%',
                       url="http://x.com/a%b_c",
                       attrs={"transition": "typed", "hidden": 1}),
            node_event("bob", "v2", 1, label="", url=None),
            EdgeEvent(
                user_id="carol",
                edge=ProvEdge(id=9, kind=EdgeKind.LINK, src='a"{}%',
                              dst="b", timestamp_us=3, attrs={"w": 2}),
            ),
            IntervalEvent(
                user_id="dave",
                interval=NodeInterval(node_id="v1", tab_id=2, opened_us=1,
                                      closed_us=9),
            ),
            # The pipeline is public API: an unvalidated user id with a
            # quote must not corrupt the journal line (a bad line
            # truncates replay at it, dropping every later event).
            node_event('evil"user\\', "v3", 2),
        ]
        for event in events:
            assert json.loads(encode_event_json(event)) == encode_event(event)

    def test_edge_json_parts_splice_matches_full_encoder(self):
        """head + id + tail must equal the one-shot edge encoding, even
        when src/dst/attrs contain %, braces, or quotes."""
        from repro.service.events import (
            encode_edge_json_parts,
            encode_event_json,
        )

        edge = ProvEdge(id=42, kind=EdgeKind.REDIRECT, src='s%"{}_',
                        dst="d%s", timestamp_us=5, attrs={"p": "100%"})
        event = EdgeEvent(user_id="erin", edge=edge)
        head, tail = encode_edge_json_parts(
            "erin", edge.kind, edge.src, edge.dst, edge.timestamp_us,
            dict(edge.attrs),
        )
        assert f"{head}{edge.id}{tail}" == encode_event_json(event)


class TestJournal:
    def test_sequences_are_monotonic(self, tmp_path):
        journal = IngestJournal(str(tmp_path / "j.log"))
        seqs = [journal.append(node_event("u", f"n{i}")) for i in range(5)]
        assert seqs == [1, 2, 3, 4, 5]
        journal.close()

    def test_sequences_survive_reopen(self, tmp_path):
        path = str(tmp_path / "j.log")
        journal = IngestJournal(path)
        journal.append(node_event("u", "n1"))
        journal.append(node_event("u", "n2"))
        journal.close()
        reopened = IngestJournal(path)
        assert reopened.append(node_event("u", "n3")) == 3
        reopened.close()

    def test_unflushed_respects_checkpoint(self, tmp_path):
        journal = IngestJournal(str(tmp_path / "j.log"))
        for i in range(4):
            journal.append(node_event("u", f"n{i}"))
        journal.checkpoint(2)
        assert [seq for seq, _ in journal.unflushed()] == [3, 4]
        journal.close()

    def test_checkpoint_is_monotonic(self, tmp_path):
        journal = IngestJournal(str(tmp_path / "j.log"))
        journal.append(node_event("u", "n"))
        journal.checkpoint(1)
        journal.checkpoint(0)  # ignored
        assert journal.flushed_seq == 1
        journal.close()

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = str(tmp_path / "j.log")
        journal = IngestJournal(path)
        journal.append(node_event("u", "n1"))
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "ev": {"t": "nod')  # crash mid-write
        reopened = IngestJournal(path)
        assert [seq for seq, _ in reopened.unflushed()] == [1]
        assert reopened.next_seq == 2
        reopened.close()

    def test_torn_tail_truncated_so_appends_stay_durable(self, tmp_path):
        """A fragment must not swallow the record appended after it."""
        path = str(tmp_path / "j.log")
        journal = IngestJournal(path)
        journal.append(node_event("u", "n1"))
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "ev": {"t": "nod')  # crash mid-write
        reopened = IngestJournal(path)
        seq = reopened.append(node_event("u", "n2"))  # reuses torn seq 2
        reopened.close()
        final = IngestJournal(path)
        assert [s for s, _ in final.unflushed()] == [1, seq]
        final.close()

    def test_unterminated_but_parseable_tail_is_torn(self, tmp_path):
        """A line missing its newline is torn even if it parses."""
        path = str(tmp_path / "j.log")
        journal = IngestJournal(path)
        journal.append(node_event("u", "n1"))
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "ev": {"t": "bad"}}')  # no newline
        reopened = IngestJournal(path)
        assert reopened.next_seq == 2
        assert [s for s, _ in reopened.unflushed()] == [1]
        reopened.close()

    def test_compact_truncates_but_keeps_sequence(self, tmp_path):
        path = str(tmp_path / "j.log")
        journal = IngestJournal(path)
        for i in range(3):
            journal.append(node_event("u", f"n{i}"))
        journal.checkpoint(3)
        journal.compact()
        assert os.path.getsize(path) == 0
        journal.close()
        reopened = IngestJournal(path)
        assert reopened.next_seq == 4
        reopened.close()


@pytest.fixture()
def rig(tmp_path):
    """A disk-backed pool + journal + pipeline, with a rebuild helper."""

    class Rig:
        def __init__(self):
            self.root = str(tmp_path)
            self.build(batch_size=1000)

        def build(self, *, batch_size):
            self.pool = StorePool(os.path.join(self.root, "shards"), shards=2)
            self.journal = IngestJournal(os.path.join(self.root, "j.log"))
            self.pipeline = IngestPipeline(
                self.pool, self.journal, batch_size=batch_size
            )

        def crash(self):
            """Abandon buffers: close stores and journal without flushing."""
            self.pool.close()
            self.journal.close()

    return Rig()


class TestPipeline:
    def test_batch_size_triggers_flush(self, rig):
        rig.build(batch_size=3)
        rig.pipeline.submit(node_event("alice", "n1", 1))
        rig.pipeline.submit(node_event("alice", "n2", 2))
        assert rig.pool.store_for("alice").node_count() == 0
        rig.pipeline.submit(node_event("alice", "n3", 3))  # batch full
        assert rig.pool.store_for("alice").node_count() == 3
        assert rig.pipeline.pending() == 0

    def test_flush_applies_nodes_before_edges(self, rig):
        rig.pipeline.submit(node_event("alice", "a", 1))
        rig.pipeline.submit(node_event("alice", "b", 2))
        rig.pipeline.submit_edge("alice", EdgeKind.LINK, "a", "b",
                                 timestamp_us=2)
        rig.pipeline.flush()
        store = rig.pool.store_for("alice")
        assert store.node_count() == 2
        assert store.edge_count() == 1
        assert store.sql_ancestors("alice::b") == [("alice::a", 1)]

    def test_edge_ids_unique_across_users(self, rig):
        for user in ("alice", "bob", "carol"):
            rig.pipeline.submit(node_event(user, "a", 1))
            rig.pipeline.submit(node_event(user, "b", 2))
        edges = [
            rig.pipeline.submit_edge(user, EdgeKind.LINK, "a", "b",
                                     timestamp_us=2)
            for user in ("alice", "bob", "carol")
        ]
        assert len({edge.id for edge in edges}) == 3
        rig.pipeline.flush()
        total = sum(
            rig.pool.store(shard).edge_count() for shard in range(2)
        )
        assert total == 3

    def test_flush_checkpoints_and_compacts(self, rig):
        rig.pipeline.submit(node_event("alice", "n1"))
        rig.pipeline.flush()
        assert rig.journal.flushed_seq == 1
        # An explicit flush barrier always leaves a compacted journal.
        assert os.path.getsize(rig.journal.path) == 0

    def test_background_compaction_amortizes_over_min_bytes(self, tmp_path):
        """The settle-path housekeeping gates truncation behind
        COMPACT_MIN_BYTES of reclaimable space (each truncation
        re-attests the manifest when integrity is on); explicit
        compacts — and the flush barrier — reclaim immediately."""
        journal = IngestJournal(str(tmp_path / "j.log"))
        journal.append(node_event("u", "n1"))
        journal.checkpoint(1)
        assert journal.compact(min_bytes=COMPACT_MIN_BYTES) == 0
        assert os.path.getsize(journal.path) > 0  # tiny record stays put
        assert journal.compact() > 0
        assert os.path.getsize(journal.path) == 0
        journal.close()

    def test_partial_shard_flush_holds_checkpoint_back(self, rig):
        alice_shard = rig.pool.shard_of("alice")
        other = next(
            user for user in (f"u{i}" for i in range(100))
            if rig.pool.shard_of(user) != alice_shard
        )
        rig.pipeline.submit(node_event(other, "n1"))   # seq 1, other shard
        rig.pipeline.submit(node_event("alice", "n2"))  # seq 2
        rig.pipeline.flush(alice_shard)
        # seq 1 is still pending, so nothing may be checkpointed yet.
        assert rig.journal.flushed_seq == 0
        rig.pipeline.flush()
        assert rig.journal.flushed_seq == 2

    def test_stats_survive_partial_flush_failure(self, rig):
        """Shards committed before a later shard fails still count in
        IngestStats (and still advance the checkpoint)."""
        from repro.errors import UnknownNodeError

        by_shard = {}
        for user in (f"u{i}" for i in range(100)):
            by_shard.setdefault(rig.pool.shard_of(user), user)
            if len(by_shard) == 2:
                break
        good, bad = by_shard[0], by_shard[1]
        rig.pipeline.submit(node_event(good, "a", 1))       # seq 1
        rig.pipeline.submit(node_event(bad, "x", 1))        # seq 2
        rig.pipeline.submit_edge(bad, EdgeKind.LINK, "x", "ghost",
                                 timestamp_us=1)            # seq 3
        with pytest.raises(UnknownNodeError):
            rig.pipeline.flush()  # shard 0 commits, shard 1 raises
        assert rig.pipeline.stats.applied == 1
        assert rig.pipeline.pending() == 2
        assert rig.pipeline.stats.pending == 2
        assert rig.journal.flushed_seq == 1

    def test_cache_invalidated_on_submit(self, rig, tmp_path):
        from repro.service.cache import QueryCache

        cache = QueryCache()
        rig.pipeline.cache = cache
        cache.put("alice", "search", ("x",), ["stale"])
        cache.put("bob", "search", ("x",), ["fresh"])
        rig.pipeline.submit(node_event("alice", "n1"))
        assert not cache.lookup("alice", "search", ("x",))[0]
        assert cache.lookup("bob", "search", ("x",))[0]

    def test_bad_batch_size(self, rig):
        with pytest.raises(ConfigurationError):
            IngestPipeline(rig.pool, rig.journal, batch_size=0)

    def test_failed_flush_requeues_and_rolls_back(self, rig):
        from repro.errors import UnknownNodeError

        rig.pipeline.submit(
            node_event("alice", "a", 1, url="http://x.com/", label="t")
        )
        rig.pipeline.submit_edge("alice", EdgeKind.LINK, "a", "ghost",
                                 timestamp_us=1)
        with pytest.raises(UnknownNodeError):
            rig.pipeline.flush()
        # The batch stays pending and the shard saw a clean rollback.
        assert rig.pipeline.pending() == 2
        assert rig.pool.store_for("alice").node_count() == 0
        # Repairing the stream lets the same events drain — including
        # re-interning the page row the rollback erased.
        rig.pipeline.submit(node_event("alice", "ghost", 1))
        rig.pipeline.flush()
        store = rig.pool.store_for("alice")
        assert rig.pipeline.pending() == 0
        assert store.node_count() == 2
        assert store.edge_count() == 1
        assert store.page_count() == 1
        assert store.load_graph().node("alice::a").url == "http://x.com/"


class TestCrashReplay:
    def test_replay_recovers_unflushed_events(self, rig):
        """Kill before flush; reopen; replay; verify counts."""
        rig.pipeline.submit(node_event("alice", "a", 1))
        rig.pipeline.submit(node_event("alice", "b", 2))
        rig.pipeline.submit_edge("alice", EdgeKind.LINK, "a", "b",
                                 timestamp_us=2)
        rig.pipeline.submit(
            IntervalEvent(
                user_id="alice",
                interval=NodeInterval(node_id="a", tab_id=1, opened_us=1,
                                      closed_us=4),
            )
        )
        assert rig.pool.store_for("alice").node_count() == 0  # nothing flushed
        rig.crash()

        rig.build(batch_size=1000)
        assert rig.pipeline.replay() == 4
        store = rig.pool.store_for("alice")
        assert store.node_count() == 2
        assert store.edge_count() == 1
        assert store.interval_count() == 1
        assert rig.pipeline.stats.replayed == 4

    def test_replay_is_idempotent_after_full_flush(self, rig):
        rig.pipeline.submit(node_event("alice", "a", 1))
        rig.pipeline.flush()
        rig.crash()
        rig.build(batch_size=1000)
        assert rig.pipeline.replay() == 0
        assert rig.pool.store_for("alice").node_count() == 1

    def test_replay_preserves_multiuser_partitioning(self, rig):
        for user in ("alice", "bob"):
            for i in range(3):
                rig.pipeline.submit(node_event(user, f"n{i}", i + 1))
        rig.crash()
        rig.build(batch_size=1000)
        assert rig.pipeline.replay() == 6
        alice_store = rig.pool.store_for("alice")
        assert alice_store.counts_for_id_prefix("alice::")[0] == 3
        assert rig.pool.store_for("bob").counts_for_id_prefix("bob::")[0] == 3


class TestDurableHandoff:
    """Only journal-synced events may reach the stores.

    A submitter stages its event into the shard buffer before its
    ``journal.sync`` returns.  A drain from another thread in that
    window must leave the event buffered: applying it would let readers
    see an event a crash could still erase from the journal.
    """

    @pytest.mark.parametrize("workers", [None, 2], ids=["serial", "threads"])
    def test_drain_skips_staged_but_unsynced_events(
        self, tmp_path, monkeypatch, workers
    ):
        self.held_fsync_drain(tmp_path, monkeypatch, workers, "event")

    @pytest.mark.parametrize("workers", [None, 2], ids=["serial", "threads"])
    def test_drain_skips_a_staged_but_unsynced_request(
        self, tmp_path, monkeypatch, workers
    ):
        """On the request path the staged events wait for the commit
        scope's end, so the unsynced window spans the whole request."""
        self.held_fsync_drain(tmp_path, monkeypatch, workers, "request")

    def held_fsync_drain(self, tmp_path, monkeypatch, workers, path):
        pool = StorePool(str(tmp_path / "shards"), shards=1)
        journal = IngestJournal(str(tmp_path / "j.log"), fsync=True)
        pipeline = IngestPipeline(
            pool, journal, batch_size=1000, workers=workers
        )
        store = pool.store_for("alice")
        pipeline.submit(node_event("alice", "a", 1))
        late = [node_event("alice", "b", 2)]
        if path == "request":
            late.append(node_event("alice", "c", 3))

        # Hold the next fsync: the group-commit leader for event "b"
        # has written its line but not yet made it durable.
        held, release = threading.Event(), threading.Event()
        armed = [True]
        real_fsync = os.fsync

        def held_fsync(fd):
            if armed and armed.pop():
                held.set()
                release.wait(10)
            real_fsync(fd)

        def write():
            if path == "event":
                pipeline.submit(late[0])
                return
            with pipeline._commit_scope():
                for event in late:
                    pipeline.submit(event)

        monkeypatch.setattr(os, "fsync", held_fsync)
        writer = threading.Thread(target=write)
        drainer = threading.Thread(target=pipeline.drain_for_read, args=(0,))
        writer.start()
        try:
            assert held.wait(10)
            assert (journal.durable_seq, journal.last_seq) == (
                1, 1 + len(late)
            )
            drainer.start()
            deadline = time.monotonic() + 10
            while store.counts_for_id_prefix("alice::")[0] == 0:
                assert time.monotonic() < deadline, "drain never applied"
                time.sleep(0.005)
            # The drain applied "a" and left "b" buffered.  (Only the
            # store is read here: the drain itself now waits on the
            # journal lock that the held fsync keeps.)
            assert store.counts_for_id_prefix("alice::")[0] == 1
        finally:
            release.set()
            writer.join(10)
            drainer.join(10)
        assert journal.durable_seq == 1 + len(late)
        pipeline.drain_for_read(0)
        assert store.counts_for_id_prefix("alice::")[0] == 1 + len(late)
        assert pipeline.pending() == 0
        pipeline.close()
        pool.close()

    @pytest.mark.parametrize("workers", [None, 2], ids=["serial", "threads"])
    def test_concurrent_drains_never_apply_past_the_durable_head(
        self, tmp_path, monkeypatch, workers
    ):
        """Stress: writers on every shard and a reader draining in a
        loop; every applied batch must lie within the journal's durable
        head at apply time, and nothing may be lost or left behind."""
        self.concurrent_drains(tmp_path, monkeypatch, workers, "event")

    @pytest.mark.parametrize("workers", [None, 2], ids=["serial", "threads"])
    def test_concurrent_request_drains_never_apply_past_the_durable_head(
        self, tmp_path, monkeypatch, workers
    ):
        """The same stress with request writers, which commit once per
        12 events as ``record_events`` does."""
        self.concurrent_drains(tmp_path, monkeypatch, workers, "request")

    def concurrent_drains(self, tmp_path, monkeypatch, workers, path):
        pool = StorePool(str(tmp_path / "shards"), shards=2)
        journal = IngestJournal(str(tmp_path / "j.log"), fsync=True)
        pipeline = IngestPipeline(pool, journal, batch_size=8, workers=workers)
        real_fsync, real_apply = os.fsync, ingest_module.apply_event_batch
        ahead: list[tuple[int, int]] = []

        def slow_fsync(fd):
            time.sleep(0.0005)  # widen the staged-but-unsynced window
            real_fsync(fd)

        def checked_apply(store, batch, **kwargs):
            durable = journal.durable_seq
            ahead.extend((seq, durable) for seq, _ in batch if seq > durable)
            return real_apply(store, batch, **kwargs)

        monkeypatch.setattr(os, "fsync", slow_fsync)
        monkeypatch.setattr(ingest_module, "apply_event_batch", checked_apply)
        users = ["alice", "bob", "carol", "dave"]
        stop = threading.Event()

        def write(user):
            if path == "event":
                for i in range(60):
                    pipeline.submit(node_event(user, f"n{i}", i + 1))
                return
            for start in range(0, 60, 12):
                with pipeline._commit_scope():
                    for i in range(start, start + 12):
                        pipeline.submit(node_event(user, f"n{i}", i + 1))

        def drain():
            while not stop.is_set():
                for user in users:
                    pipeline.drain_for_read(pool.shard_of(user))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            writers = [threading.Thread(target=write, args=(u,)) for u in users]
            reader = threading.Thread(target=drain)
            reader.start()
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(60)
            stop.set()
            reader.join(60)
        finally:
            sys.setswitchinterval(switch)
        assert not reader.is_alive()
        assert not any(thread.is_alive() for thread in writers)
        pipeline.flush()
        assert ahead == []
        assert pipeline.pending() == 0
        for user in users:
            assert pool.store_for(user).counts_for_id_prefix(user + "::")[0] == 60
        pipeline.close()
        pool.close()


class TestFlowControl:
    """A request writer that outruns the flush threads waits for them
    after its commit, and never for work that can no longer settle."""

    def test_waiter_returns_when_the_backlog_is_parked_behind_a_poison(
        self, tmp_path, monkeypatch
    ):
        pool = StorePool(str(tmp_path / "shards"), shards=2)
        journal = IngestJournal(str(tmp_path / "j.log"))
        pipeline = IngestPipeline(pool, journal, batch_size=4, workers=2)
        mark = 2 * 4 * 2

        def failing_apply(store, batch, **kwargs):
            time.sleep(0.05)  # the writer is parked in its wait by now
            raise RuntimeError("disk gone")

        monkeypatch.setattr(ingest_module, "apply_event_batch", failing_apply)
        done = threading.Event()

        def write():
            for request in range(4):
                with pipeline._commit_scope():
                    for i in range(40):
                        user = ("alice", "bob")[i % 2]
                        pipeline.submit(node_event(user, f"r{request}n{i}"))
            done.set()

        threading.Thread(target=write, daemon=True).start()
        assert done.wait(10), "a backlog wait outlived every settle"
        assert pipeline.pending() == 160 > mark
        assert pipeline.poisoned_shards()
        with pytest.raises(RuntimeError):
            pipeline.flush()
        assert pipeline.pending() == 160  # requeued, still pending
        pipeline.close()
        pool.close()

    def test_slowed_apply_holds_the_backlog_at_the_mark(
        self, tmp_path, monkeypatch
    ):
        """Apply at a fraction of the writer's pace: the backlog stays
        within one request of the mark, so a shed ceiling just above
        it never fires, and every wait is booked."""
        from repro.service import (
            AdmissionController,
            AdmissionParams,
            ProvenanceService,
        )

        real_apply = ingest_module.apply_event_batch

        def slow_apply(store, batch, **kwargs):
            time.sleep(0.002)
            return real_apply(store, batch, **kwargs)

        monkeypatch.setattr(ingest_module, "apply_event_batch", slow_apply)
        batch_size, shards, request = 8, 2, 16
        mark = 2 * batch_size * shards
        gate = AdmissionController(
            AdmissionParams(max_pending_events=mark + request)
        )
        users = ["alice", "bob", "carol", "dave"]
        with ProvenanceService(
            str(tmp_path / "svc"), shards=shards, batch_size=batch_size,
            workers=2,
        ) as service:
            peak, stop = [0], threading.Event()

            def monitor():
                while not stop.is_set():
                    peak[0] = max(peak[0], service.ingest.pending())

            watcher = threading.Thread(target=monitor)
            watcher.start()
            try:
                for start in range(0, 640, request):
                    events = [
                        node_event(users[i % 4], f"n{i}", i + 1)
                        for i in range(start, start + request)
                    ]
                    gate.admit_write(
                        {user: request // 4 for user in users},
                        service.ingest.pending(),
                    )
                    service.record_events(events)
                    assert service.ingest.pending() <= mark
            finally:
                stop.set()
                watcher.join(10)
            assert not watcher.is_alive()
            assert peak[0] <= mark + request
            waits = service.metrics_snapshot()["histograms"][
                "ingest.backpressure_wait"
            ]
            assert waits["count"] >= 1
            service.flush()
            assert service.stats("dave").nodes == 160

    def test_single_event_writers_are_held_at_the_mark(
        self, tmp_path, monkeypatch
    ):
        """``submit`` outside a request waits out the backlog too: each
        writer can overshoot the mark by its own one event, no more."""
        real_apply = ingest_module.apply_event_batch

        def slow_apply(store, batch, **kwargs):
            time.sleep(0.002)
            return real_apply(store, batch, **kwargs)

        monkeypatch.setattr(ingest_module, "apply_event_batch", slow_apply)
        pool = StorePool(str(tmp_path / "shards"), shards=2)
        journal = IngestJournal(str(tmp_path / "j.log"))
        pipeline = IngestPipeline(pool, journal, batch_size=8, workers=2)
        mark = 2 * 8 * 2
        users = ["alice", "bob"]
        peak = [0]

        def write(user):
            for i in range(300):
                pipeline.submit(node_event(user, f"n{i}", i + 1))
                peak[0] = max(peak[0], pipeline.pending())

        writers = [threading.Thread(target=write, args=(u,)) for u in users]
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join(60)
        assert not any(thread.is_alive() for thread in writers)
        assert peak[0] <= mark + len(users)
        pipeline.flush()
        for user in users:
            assert pool.store_for(user).counts_for_id_prefix(user + "::")[0] == 300
        pipeline.close()
        pool.close()

    @pytest.mark.parametrize("drain", ["flush", "drain_for_read"])
    def test_barrier_ends_while_writers_outpace_apply(
        self, tmp_path, monkeypatch, drain
    ):
        """A barrier waits for the batches in flight when it began, not
        for a shard that writers never let settle: while it waits, their
        full batches stay buffered."""
        real_apply = ingest_module.apply_event_batch

        def slow_apply(store, batch, **kwargs):
            time.sleep(0.002)
            return real_apply(store, batch, **kwargs)

        monkeypatch.setattr(ingest_module, "apply_event_batch", slow_apply)
        pool = StorePool(str(tmp_path / "shards"), shards=2)
        journal = IngestJournal(str(tmp_path / "j.log"))
        pipeline = IngestPipeline(pool, journal, batch_size=8, workers=2)
        users = ["alice", "bob"]
        stop, drained = threading.Event(), threading.Event()
        written = {user: 0 for user in users}

        def write(user):
            while not stop.is_set():
                written[user] += 1
                pipeline.submit(node_event(user, f"n{written[user]}"))

        def barrier():
            for _ in range(5):
                if drain == "flush":
                    pipeline.flush()
                else:
                    pipeline.drain_for_read(pool.shard_of("alice"))
            drained.set()

        writers = [threading.Thread(target=write, args=(u,)) for u in users]
        for thread in writers:
            thread.start()
        try:
            while sum(written.values()) < 200:  # writers well under way
                time.sleep(0.005)
            threading.Thread(target=barrier, daemon=True).start()
            assert drained.wait(20), "the barrier waited on the writers"
        finally:
            stop.set()
            for thread in writers:
                thread.join(60)
        assert not any(thread.is_alive() for thread in writers)
        assert drained.wait(60)
        pipeline.flush()
        assert pipeline.pending() == 0
        for user in users:
            stored = pool.store_for(user).counts_for_id_prefix(user + "::")[0]
            assert stored == written[user]
        pipeline.close()
        pool.close()
