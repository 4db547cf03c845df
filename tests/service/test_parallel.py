"""Concurrency tests: parallel ingest, group commit, scatter-gather.

The acceptance story for the shard-parallel write path: parallel flush
must be *indistinguishable* from serial flush in every per-shard store
(same logical state), crash recovery must hold under partially drained
parallel state, and the group-commit journal must hand out gapless
monotone sequences no matter how many threads submit at once.
"""

import os
import threading

import pytest

from repro.core.capture import NodeInterval
from repro.core.export import to_json
from repro.core.model import ProvEdge, ProvNode
from repro.core.store import ProvenanceStore
from repro.core.taxonomy import EdgeKind, NodeKind
from repro.errors import (
    ConfigurationError,
    StoreAffinityError,
    UnknownNodeError,
)
from repro.service import ProvenanceService
from repro.service.events import EdgeEvent, IntervalEvent, NodeEvent
from repro.service.ingest import IngestJournal, IngestPipeline
from repro.service.integrity import journal_segments
from repro.service.parallel import ShardWorkerPool, scatter_gather
from repro.service.pool import StorePool


def visit(node_id, ts=1, **kwargs):
    return ProvNode(id=node_id, kind=NodeKind.PAGE_VISIT, timestamp_us=ts,
                    **kwargs)


def node_event(user, node_id, ts=1, **kwargs):
    return NodeEvent(user_id=user, node=visit(node_id, ts, **kwargs))


def store_dump(store: ProvenanceStore) -> str:
    """The store's full logical content, deterministic row order."""
    return "\n".join(store.conn.iterdump())


class TestShardWorkerPool:
    def test_batches_apply_in_dispatch_order_per_shard(self):
        applied = {0: [], 1: []}
        lock = threading.Lock()

        def apply(shard, batch):
            with lock:
                applied[shard].append(batch)

        pool = ShardWorkerPool(apply, workers=2)
        for round_no in range(20):
            pool.dispatch(0, f"s0-{round_no}")
            pool.dispatch(1, f"s1-{round_no}")
        pool.barrier()
        pool.close()
        assert applied[0] == [f"s0-{i}" for i in range(20)]
        assert applied[1] == [f"s1-{i}" for i in range(20)]

    def test_failure_poisons_shard_and_parks_later_batches(self):
        seen = []

        def apply(shard, batch):
            if batch == "bad":
                raise ValueError("boom")
            seen.append((shard, batch))

        pool = ShardWorkerPool(apply, workers=1)
        pool.dispatch(0, "ok")
        pool.dispatch(0, "bad")
        pool.dispatch(0, "after")  # must not apply past the hole
        pool.dispatch(1, "other-shard")  # unaffected
        pool.barrier()
        failures = pool.drain_failures()
        pool.close()
        assert seen == [(0, "ok"), (1, "other-shard")]
        assert len(failures) == 1
        assert failures[0].shard == 0
        assert failures[0].batches == ["bad", "after"]
        assert isinstance(failures[0].error, ValueError)

    def test_shard_barrier_waits_only_that_shard(self):
        release = threading.Event()
        applied = []

        def apply(shard, batch):
            if shard == 1:
                release.wait(timeout=5)
            applied.append((shard, batch))

        pool = ShardWorkerPool(apply, workers=2)
        pool.dispatch(1, "slow")
        pool.dispatch(0, "fast")
        pool.barrier(0)  # returns while shard 1 is still blocked
        assert (0, "fast") in applied
        release.set()
        pool.barrier()
        pool.close()
        assert (1, "slow") in applied

    def test_bad_worker_count(self):
        with pytest.raises(ConfigurationError):
            ShardWorkerPool(lambda s, b: None, workers=0)


class TestScatterGather:
    def test_results_in_task_order(self):
        tasks = [lambda i=i: i * i for i in range(10)]
        assert scatter_gather(tasks) == [i * i for i in range(10)]

    def test_first_exception_propagates_after_all_finish(self):
        finished = []

        def ok(i):
            def run():
                finished.append(i)
                return i

            return run

        def bad():
            raise KeyError("fan-out failure")

        with pytest.raises(KeyError):
            scatter_gather([ok(0), bad, ok(2), bad])
        assert sorted(finished) == [0, 2]

    def test_empty_and_single(self):
        assert scatter_gather([]) == []
        assert scatter_gather([lambda: "only"]) == ["only"]


class TestGroupCommit:
    def test_concurrent_appends_are_gapless_and_monotone(self, tmp_path):
        journal = IngestJournal(str(tmp_path / "j.log"))
        per_thread: dict[int, list[int]] = {}

        def submitter(index):
            seqs = per_thread.setdefault(index, [])
            for i in range(50):
                seqs.append(journal.append(node_event(f"u{index}", f"n{i}")))

        threads = [
            threading.Thread(target=submitter, args=(index,))
            for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        journal.close()

        all_seqs = sorted(seq for seqs in per_thread.values() for seq in seqs)
        assert all_seqs == list(range(1, 8 * 50 + 1))  # gapless, no dupes
        for seqs in per_thread.values():
            assert seqs == sorted(seqs)  # monotone per submitter

        # Every acknowledged append is durable and replayable.
        reopened = IngestJournal(str(tmp_path / "j.log"))
        assert [seq for seq, _ in reopened.unflushed()] == all_seqs
        reopened.close()

    def test_append_remains_durable_line_by_line(self, tmp_path):
        """Single-threaded appends still hit the file before returning."""
        journal = IngestJournal(str(tmp_path / "j.log"))
        journal.append(node_event("u", "n1"))
        assert os.path.getsize(journal.path) > 0
        journal.close()


class TestJournalRotation:
    def test_active_file_rotates_into_segments(self, tmp_path):
        path = str(tmp_path / "j.log")
        journal = IngestJournal(path, rotate_bytes=256)
        for i in range(50):
            journal.append(node_event("u", f"node-{i:04d}"))
        segments = journal_segments(journal.path)
        assert len(segments) >= 2
        assert [last for _p, last in segments] == sorted(
            last for _p, last in segments
        )
        # Nothing is lost across the segment boundaries.
        assert [seq for seq, _ in journal.unflushed()] == list(range(1, 51))
        journal.close()

    def test_compact_frees_flushed_segments_while_tail_is_pending(
        self, tmp_path
    ):
        path = str(tmp_path / "j.log")
        journal = IngestJournal(path, rotate_bytes=256)
        for i in range(50):
            journal.append(node_event("u", f"node-{i:04d}"))
        segments = journal_segments(journal.path)
        flushed_through = segments[0][1]  # first segment fully flushed
        journal.checkpoint(flushed_through)
        freed = journal.compact()
        assert freed > 0
        assert len(journal_segments(journal.path)) == len(segments) - 1
        # The active file keeps its unflushed tail.
        assert [seq for seq, _ in journal.unflushed()] == list(
            range(flushed_through + 1, 51)
        )
        journal.close()

    def test_sequences_survive_reopen_across_segments(self, tmp_path):
        path = str(tmp_path / "j.log")
        journal = IngestJournal(path, rotate_bytes=128)
        for i in range(30):
            journal.append(node_event("u", f"node-{i:04d}"))
        journal.close()
        reopened = IngestJournal(path, rotate_bytes=128)
        assert reopened.next_seq == 31
        assert [seq for seq, _ in reopened.unflushed()] == list(range(1, 31))
        reopened.close()


def submit_stream(pipeline, users=6, nodes_per_user=40):
    """A deterministic multi-tenant stream: nodes, edges, intervals."""
    count = 0
    for i in range(nodes_per_user):
        for u in range(users):
            user = f"user{u:02d}"
            pipeline.submit(
                node_event(user, f"n{i:03d}", i + 1,
                           label=f"page {i} of {user}",
                           url=f"http://site{u}.example.com/p{i}")
            )
            count += 1
            if i > 0:
                pipeline.submit_edge(user, EdgeKind.LINK, f"n{i-1:03d}",
                                     f"n{i:03d}", timestamp_us=i + 1)
                count += 1
            if i % 7 == 0:
                pipeline.submit(IntervalEvent(
                    user_id=user,
                    interval=NodeInterval(node_id=f"n{i:03d}", tab_id=1,
                                          opened_us=i + 1, closed_us=i + 2),
                ))
                count += 1
    return count


class TestParallelEqualsSerial:
    def test_parallel_flush_state_identical_to_serial(self, tmp_path):
        """Same stream, same order → per-shard stores dump identically."""
        dumps = {}
        for mode, workers in (("serial", None), ("parallel", 4)):
            root = tmp_path / mode
            pool = StorePool(str(root / "shards"), shards=4)
            journal = IngestJournal(str(root / "j.log"))
            pipeline = IngestPipeline(pool, journal, batch_size=32,
                                      workers=workers)
            submit_stream(pipeline)
            pipeline.flush()
            dumps[mode] = {
                shard: store_dump(pool.store(shard)) for shard in range(4)
            }
            pipeline.close()
            pool.close()
        assert dumps["parallel"] == dumps["serial"]

    def test_ranked_search_identical_across_drains(self, tmp_path):
        """The relevance index is maintained from the apply path, so
        serial and threaded flushes must leave byte-identical index
        tables — and therefore identical ranked results, scores
        included.  Per-event ingest (one journal commit per event) and
        batched ``record_events`` (one per request) of the same stream
        must agree too: batching moves commits, not content."""
        stream = []
        for i in range(25):
            for u in range(3):
                user = f"user{u:02d}"
                stream.append(node_event(
                    user, f"n{i:03d}", i + 1,
                    label=f"page {i} about wine topic {i % 5}",
                    url=f"http://site{u}.example.com/p{i}",
                ))
                if i:
                    stream.append(EdgeEvent(user_id=user, edge=ProvEdge(
                        id=0, kind=EdgeKind.LINK, src=f"n{i - 1:03d}",
                        dst=f"n{i:03d}", timestamp_us=i + 1,
                    )))
        dumps = {}
        ranked = {}
        for drain, workers in (("serial", None), ("thread", 2)):
            for ingest in ("event", "request"):
                mode = f"{drain}-{ingest}"
                service = ProvenanceService(
                    str(tmp_path / mode), shards=4, batch_size=16,
                    workers=workers,
                )
                if ingest == "event":
                    for event in stream:
                        service.record_event(event)
                else:
                    for start in range(0, len(stream), 20):
                        service.record_events(stream[start:start + 20])
                service.flush()
                dumps[mode] = {
                    shard: store_dump(service.pool.store(shard))
                    for shard in range(4)
                }
                ranked[mode] = (
                    service.ranked_search("wine topic", limit=20),
                    service.ranked_search("wine", user_id="user01", limit=10),
                )
                service.close()
        for mode in ("thread-event", "serial-request", "thread-request"):
            assert dumps[mode] == dumps["serial-event"], mode
            assert ranked[mode] == ranked["serial-event"], mode
        assert ranked["serial-event"][0], "ranked search found nothing"

    def test_parallel_flush_applies_everything(self, tmp_path):
        pool = StorePool(str(tmp_path / "shards"), shards=4)
        journal = IngestJournal(str(tmp_path / "j.log"))
        pipeline = IngestPipeline(pool, journal, batch_size=16, workers=4)
        count = submit_stream(pipeline)
        pipeline.flush()
        assert pipeline.stats.applied == count
        assert pipeline.pending() == 0
        assert journal.flushed_seq == journal.last_seq
        pipeline.close()
        pool.close()

    def test_parallel_flush_failure_requeues_and_raises(self, tmp_path):
        pool = StorePool(str(tmp_path / "shards"), shards=2)
        journal = IngestJournal(str(tmp_path / "j.log"))
        pipeline = IngestPipeline(pool, journal, batch_size=1000, workers=2)
        pipeline.submit(node_event("alice", "a", 1))
        pipeline.submit_edge("alice", EdgeKind.LINK, "a", "ghost",
                             timestamp_us=1)
        with pytest.raises(UnknownNodeError):
            pipeline.flush()
        assert pipeline.pending() == 2  # requeued, still pending
        # Repair and drain: the same worker path retries cleanly.
        pipeline.submit(node_event("alice", "ghost", 1))
        pipeline.flush()
        assert pipeline.pending() == 0
        store = pool.store_for("alice")
        assert store.node_count() == 2
        assert store.edge_count() == 1
        pipeline.close()
        pool.close()


class TestCrashMidParallelFlush:
    def test_partially_drained_parallel_state_replays_consistent(
        self, tmp_path
    ):
        """Crash with some shards flushed, others buffered: replay must
        land every event exactly once (nodes/edges idempotent,
        intervals upserted)."""
        root = str(tmp_path)
        pool = StorePool(os.path.join(root, "shards"), shards=4)
        journal = IngestJournal(os.path.join(root, "j.log"))
        pipeline = IngestPipeline(pool, journal, batch_size=32, workers=4)
        count = submit_stream(pipeline, users=6, nodes_per_user=20)
        # Partial drain: one user's shard is fully applied (and possibly
        # checkpoint-covered), the rest stay buffered — the widest
        # window crash replay has to cope with.
        pipeline.drain_for_read(pool.shard_of("user00"))
        # Crash: abandon buffers; stores and journal close as-is.
        pool.close()
        journal.close()

        pool = StorePool(os.path.join(root, "shards"), shards=4)
        journal = IngestJournal(os.path.join(root, "j.log"))
        pipeline = IngestPipeline(pool, journal, batch_size=32, workers=4)
        pipeline.replay()
        totals = [0, 0, 0]
        for u in range(6):
            user = f"user{u:02d}"
            counts = pool.store_for(user).counts_for_id_prefix(f"{user}::")
            totals = [a + b for a, b in zip(totals, counts)]
        nodes, edges, intervals = totals
        assert nodes == 6 * 20
        assert edges == 6 * 19
        assert intervals == 6 * 3  # i in {0, 7, 14}: no duplicates
        assert nodes + edges + intervals == count
        pipeline.close()
        pool.close()


class TestExactlyOnceIntervals:
    def test_replay_in_checkpoint_window_does_not_duplicate(self, tmp_path):
        """Events committed to a shard but not yet checkpointed (the
        held-back-checkpoint window) re-apply on replay; the interval
        uniqueness guard keeps the rows exactly-once."""
        pool = StorePool(os.path.join(str(tmp_path), "shards"), shards=2)
        journal = IngestJournal(os.path.join(str(tmp_path), "j.log"))
        pipeline = IngestPipeline(pool, journal, batch_size=1000)
        alice_shard = pool.shard_of("alice")
        other = next(
            user for user in (f"u{i}" for i in range(100))
            if pool.shard_of(user) != alice_shard
        )
        pipeline.submit(node_event(other, "n1"))  # seq 1 pins the checkpoint
        pipeline.submit(node_event("alice", "a", 1))
        pipeline.submit(IntervalEvent(
            user_id="alice",
            interval=NodeInterval(node_id="a", tab_id=1, opened_us=5,
                                  closed_us=9),
        ))
        pipeline.flush(alice_shard)  # committed, checkpoint still 0
        assert journal.flushed_seq == 0
        assert pool.store_for("alice").interval_count() == 1
        pool.close()
        journal.close()  # crash: alice's events will replay

        pool = StorePool(os.path.join(str(tmp_path), "shards"), shards=2)
        journal = IngestJournal(os.path.join(str(tmp_path), "j.log"))
        pipeline = IngestPipeline(pool, journal, batch_size=1000)
        assert pipeline.replay() == 3
        assert pool.store_for("alice").interval_count() == 1  # not 2
        pipeline.close()
        pool.close()


class TestCompactionVsBarrier:
    def test_compaction_racing_active_flush_barrier(self, tmp_path):
        """Segment compaction fired concurrently with live flush
        barriers must never reclaim an unflushed entry.

        Tiny segments + tiny batches maximize rotation and checkpoint
        churn while a submitter thread keeps the pipeline hot, flush
        barriers run on the main thread, and a third thread hammers
        ``compact()`` the whole time — the exact interleaving PR 2's
        suite left uncovered.
        """
        root = str(tmp_path)
        pool = StorePool(os.path.join(root, "shards"), shards=4)
        journal = IngestJournal(os.path.join(root, "j.log"),
                                rotate_bytes=256)
        pipeline = IngestPipeline(pool, journal, batch_size=4, workers=2)
        stop = threading.Event()
        compactions = []

        def compact_loop():
            while not stop.is_set():
                compactions.append(journal.compact())

        compactor = threading.Thread(target=compact_loop)
        submitted = [0]

        def submit_loop():
            for i in range(120):
                user = f"user{i % 5:02d}"
                pipeline.submit(node_event(user, f"n{i:04d}", i + 1))
                submitted[0] += 1

        submitter = threading.Thread(target=submit_loop)
        compactor.start()
        submitter.start()
        try:
            for _ in range(20):
                pipeline.flush()  # barriers overlapping live compaction
        finally:
            submitter.join()
            stop.set()
            compactor.join()
        pipeline.flush()
        # Nothing lost: every submitted event is applied, the journal
        # has no unflushed tail, and a fresh open replays nothing.
        assert pipeline.stats.applied == submitted[0]
        total_nodes = sum(
            pool.store(shard).node_count() for shard in range(4)
        )
        assert total_nodes == submitted[0]
        assert journal.unflushed() == []
        pipeline.close()
        pool.close()

        pool = StorePool(os.path.join(root, "shards"), shards=4)
        journal = IngestJournal(os.path.join(root, "j.log"),
                                rotate_bytes=256)
        pipeline = IngestPipeline(pool, journal, batch_size=4, workers=2)
        assert pipeline.replay() == 0
        assert sum(
            pool.store(shard).node_count() for shard in range(4)
        ) == submitted[0]
        pipeline.close()
        pool.close()


class TestPoisonQuarantine:
    def test_poison_event_deadletters_and_replay_continues(self, tmp_path):
        root = str(tmp_path)
        pool = StorePool(os.path.join(root, "shards"), shards=2)
        journal = IngestJournal(os.path.join(root, "j.log"))
        pipeline = IngestPipeline(pool, journal, batch_size=1000)
        pipeline.submit(node_event("alice", "a", 1))
        pipeline.submit_edge("alice", EdgeKind.LINK, "a", "ghost",
                             timestamp_us=1)  # endpoint never recorded
        pipeline.submit(node_event("alice", "b", 2))
        pool.close()
        journal.close()  # crash before any flush

        pool = StorePool(os.path.join(root, "shards"), shards=2)
        journal = IngestJournal(os.path.join(root, "j.log"))
        pipeline = IngestPipeline(pool, journal, batch_size=1000)
        assert pipeline.replay() == 3
        # The healthy events applied; the poison edge is quarantined.
        store = pool.store_for("alice")
        assert store.node_count() == 2
        assert store.edge_count() == 0
        assert pipeline.stats.quarantined == 1
        dead = journal.deadlettered()
        assert len(dead) == 1
        assert dead[0]["ev"]["t"] == "edge"
        assert "ghost" in dead[0]["error"]
        # The checkpoint moved past the poison seq: the next reopen has
        # nothing left to replay — no failure-on-every-startup.
        assert journal.flushed_seq == journal.last_seq
        pipeline.close()
        pool.close()

        pool = StorePool(os.path.join(root, "shards"), shards=2)
        journal = IngestJournal(os.path.join(root, "j.log"))
        pipeline = IngestPipeline(pool, journal, batch_size=1000)
        assert pipeline.replay() == 0
        pipeline.close()
        pool.close()

    def test_service_reopens_cleanly_after_poison_crash(self, tmp_path):
        root = str(tmp_path / "svc")
        service = ProvenanceService(root, shards=2, batch_size=10_000)
        service.record_node("alice", visit("a", 1))
        service.record_edge("alice", EdgeKind.LINK, "a", "ghost",
                            timestamp_us=1)
        service.close(flush=False)  # crash with the poison edge journaled

        recovered = ProvenanceService(root, shards=2)
        assert recovered.stats("alice").nodes == 1
        assert recovered.service_stats().quarantined == 1
        assert len(recovered.journal.deadlettered()) == 1
        recovered.close()


class TestStoreThreading:
    def test_exclusive_blocks_other_threads_writes(self, tmp_path):
        store = ProvenanceStore(str(tmp_path / "s.sqlite"))
        store.append_node(visit("a", 1))
        store.commit()
        errors = []

        def intruder():
            try:
                store.append_node(visit("b", 2))
            except StoreAffinityError as exc:
                errors.append(exc)

        with store.exclusive():
            thread = threading.Thread(target=intruder)
            thread.start()
            thread.join()
        assert len(errors) == 1
        store.close()

    def test_read_connection_sees_committed_data_during_exclusive(
        self, tmp_path
    ):
        """Scatter-gather readers use per-thread WAL connections and are
        not blocked (or corrupted) by a thread holding the writer."""
        store = ProvenanceStore(str(tmp_path / "s.sqlite"))
        store.append_node(visit("a", 1, label="committed page"))
        store.commit()
        results = []

        def reader():
            results.append(store.sql_text_search("committed"))

        with store.exclusive():
            thread = threading.Thread(target=reader)
            thread.start()
            thread.join()
        assert results == [["a"]]
        store.close()

    def test_walks_and_counts_survive_concurrent_exclusive(self, tmp_path):
        """Every read-only query path must work from a non-owner thread
        while a flush worker holds the store — a same-shard tenant's
        query racing another tenant's background flush is routine."""
        store = ProvenanceStore(str(tmp_path / "s.sqlite"))
        store.append_nodes([visit("a", 1), visit("b", 2)])
        store.append_edge(ProvEdge(id=1, kind=EdgeKind.LINK, src="a",
                                   dst="b", timestamp_us=2))
        store.commit()
        results, errors = {}, []

        def reader():
            try:
                results["ancestors"] = store.sql_ancestors("b")
                results["descendants"] = store.sql_descendants("a")
                results["counts"] = (store.node_count(), store.edge_count())
            except Exception as exc:  # noqa: BLE001 — asserted below
                errors.append(exc)

        with store.exclusive():
            thread = threading.Thread(target=reader)
            thread.start()
            thread.join()
        assert not errors, errors[0]
        assert results["ancestors"] == [("a", 1)]
        assert results["descendants"] == [("b", 1)]
        assert results["counts"] == (2, 1)
        store.close()

    @pytest.mark.parametrize("read", ["load_subgraph", "ranking_aggregates"])
    def test_a_read_from_a_reader_is_one_snapshot(self, tmp_path, read):
        """A commit landing between two statements of one read on a
        non-owner thread's WAL connection is seen by all of them or by
        none: a tenant's graph never holds a node without its attrs,
        and its ranking aggregates never mix two states."""
        store = ProvenanceStore(str(tmp_path / "s.sqlite"))
        store.append_node(visit("u::a", 1, url="http://a.com/"))
        store.index_documents([("u::a", ["alpha"])])
        store.commit()
        reads = {
            "load_subgraph": lambda: to_json(store.load_subgraph("u::")),
            "ranking_aggregates": lambda: store.ranking_aggregates("u::"),
        }
        before = reads[read]()
        reached, committed = threading.Event(), threading.Event()
        results, errors = [], []

        def reader():
            selects = []

            def between_statements(sql):
                if sql.lstrip().upper().startswith("SELECT"):
                    selects.append(sql)
                    if len(selects) == 2:  # the second statement starts
                        reached.set()
                        committed.wait(10)

            conn = store.read_connection()
            conn.set_trace_callback(between_statements)
            try:
                results.append(reads[read]())
            except Exception as exc:  # noqa: BLE001 — asserted below
                errors.append(exc)
            finally:
                conn.set_trace_callback(None)
                reached.set()

        with store.exclusive():
            thread = threading.Thread(target=reader)
            thread.start()
            assert reached.wait(10)
            store.append_node(visit(
                "u::b", 2, url="http://b.com/", attrs={"origin": "late"}
            ))
            store.index_documents([("u::b", ["alpha", "beta"])])
            store.commit()
            committed.set()
            thread.join(10)
        after = reads[read]()
        store.close()
        assert not errors, errors[0]
        assert before != after
        assert results[0] in (before, after)


class TestServiceCrossShard:
    @pytest.fixture()
    def populated(self, tmp_path):
        # cache_epoch_writes=None: these tests pin the strict
        # drop-on-every-write freshness contract for cross-shard
        # entries; epoch-batched admission has its own tests in
        # tests/service/test_search.py.
        service = ProvenanceService(str(tmp_path / "svc"), shards=4,
                                    batch_size=8, cache_epoch_writes=None)
        for index, user in enumerate(
            ("alice", "bob", "carol", "dave", "erin")
        ):
            for i in range(4):
                service.record_node(user, visit(
                    f"n{i}", ts=index * 10 + i + 1,
                    label=f"{user} common page {i}",
                    url=f"http://{user}.example.com/{i}",
                ))
        yield service
        service.close()

    def test_global_search_equals_merged_per_user_search(self, populated):
        service = populated
        expected = set()
        for user in service.users():
            for raw_id in service.search(user, "common", limit=100):
                expected.add((user, raw_id))
        got = service.global_search("common", limit=100)
        assert set(got) == expected
        # Newest first, globally: timestamps strictly decrease.
        stamps = []
        for user, raw_id in got:
            store = service.pool.store_for(user)
            rows = store.sql_text_search_scored(
                "common", limit=100, id_prefix=f"{user}::"
            )
            stamps.append(dict(rows)[f"{user}::{raw_id}"])
        assert stamps == sorted(stamps, reverse=True)

    def test_global_search_respects_limit_and_recency(self, populated):
        top = populated.global_search("common", limit=3)
        assert len(top) == 3
        # erin (index 4) has the newest timestamps 41..44.
        assert [user for user, _ in top] == ["erin", "erin", "erin"]

    def test_global_search_read_your_writes(self, populated):
        assert populated.global_search("freshly minted") == []
        populated.record_node("zoe", visit("z", 999,
                                           label="freshly minted page"))
        assert populated.global_search("freshly minted") == [("zoe", "z")]

    def test_global_search_is_cached_and_invalidated_cross_user(
        self, populated
    ):
        service = populated
        service.global_search("common")
        hits_before = service.cache.stats().hits
        service.global_search("common")
        assert service.cache.stats().hits == hits_before + 1
        # ANY user's write stales the service-scoped entry.
        service.record_node("bob", visit("new", 500, label="common page"))
        result = service.global_search("common", limit=100)
        assert ("bob", "new") in result

    def test_aggregate_stats_equals_per_user_sums(self, populated):
        service = populated
        per_user = [service.stats(user) for user in service.users()]
        aggregate = service.aggregate_stats()
        assert aggregate.nodes == sum(stats.nodes for stats in per_user)
        assert aggregate.edges == sum(stats.edges for stats in per_user)
        assert aggregate.intervals == sum(
            stats.intervals for stats in per_user
        )
        assert aggregate.shards == 4
        assert 1 <= aggregate.populated_shards <= 4
        assert aggregate.pages > 0

    def test_escaped_wildcards_stay_scoped_in_service_search(self, populated):
        """A tenant searching '%' must not sweep in every row."""
        populated.record_node("mallory", visit("pct", 777,
                                               label="100% legit"))
        assert populated.search("mallory", "%") == ["pct"]
        assert populated.global_search("100%") == [("mallory", "pct")]

    def test_search_folds_non_ascii_case(self, populated):
        """The literal substring match is case-insensitive beyond ASCII:
        term and text fold alike, as :meth:`str.lower` folds."""
        populated.record_node("alice", visit("uber", 777, label="Über uns"))
        populated.record_node("bob", visit("ecole", 778,
                                           label="École Polytechnique"))
        assert populated.search("alice", "Über") == ["uber"]
        assert populated.search("alice", "über") == ["uber"]
        assert populated.search("bob", "école") == ["ecole"]
        assert populated.global_search("École") == [("bob", "ecole")]
        assert populated.global_search("ÜBER") == [("alice", "uber")]


class TestReadYourWritesUnderConcurrentIngest:
    def test_every_submitter_always_sees_its_own_writes(self, tmp_path):
        service = ProvenanceService(str(tmp_path / "svc"), shards=4,
                                    batch_size=4, workers=4)
        failures = []

        def run_user(index):
            user = f"user{index:02d}"
            try:
                for i in range(40):
                    service.record_node(user, visit(
                        f"n{i:03d}", ts=i + 1, label=f"page {i} of {user}"
                    ))
                    if i % 5 == 0:
                        stats = service.stats(user)
                        assert stats.nodes == i + 1, (
                            f"{user} saw {stats.nodes} nodes after"
                            f" acknowledged write {i + 1}"
                        )
                        hits = service.search(user, f"page {i} of", limit=5)
                        assert f"n{i:03d}" in hits
            except Exception as exc:  # noqa: BLE001 — surfaced below
                failures.append(exc)

        threads = [
            threading.Thread(target=run_user, args=(index,))
            for index in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures[0]
        service.flush()
        assert service.service_stats().events_applied == 6 * 40
        # The journal handed out gapless sequences across all threads.
        assert service.journal.last_seq == 6 * 40
        service.close()
