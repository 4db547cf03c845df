"""Observability: metrics registry, tracing, health, and mode parity.

The acceptance story: the registry's primitives are exact where they
must be (counters) and accurate where estimation suffices (histogram
quantiles); the same ingest stream books identical metric totals under
the serial drain and thread workers; and ``health()`` tracks the
dead-letter lifecycle through quarantine and redrive.
"""

import os

import pytest

from repro.core.model import ProvNode
from repro.core.store import ProvenanceStore
from repro.core.taxonomy import EdgeKind, NodeKind
from repro.service import (
    NULL_REGISTRY,
    NULL_TRACER,
    MetricsRegistry,
    ProvenanceService,
    QueryCache,
)
from repro.service.events import NodeEvent
from repro.service.ingest import IngestJournal, IngestPipeline
from repro.service.metrics import COUNT_BUCKETS, Histogram
from repro.service.pool import StorePool
from repro.service.tracing import Tracer


def visit(node_id, ts=1, label="", url=None):
    return ProvNode(id=node_id, kind=NodeKind.PAGE_VISIT, timestamp_us=ts,
                    label=label, url=url)


def node_event(user, node_id, ts=1, **kwargs):
    return NodeEvent(user_id=user, node=visit(node_id, ts, **kwargs))


class TestCounter:
    def test_unlabeled_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        assert counter.labeled() == {}

    def test_labeled_tracks_total_and_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", label_name="shard")
        counter.inc(2, label=0)
        counter.inc(3, label=1)
        counter.inc(1, label=0)
        assert counter.value == 6
        assert counter.labeled() == {0: 3, 1: 3}

    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_label_name_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("c", label_name="shard")
        with pytest.raises(ValueError):
            registry.counter("c", label_name="op")


class TestHistogram:
    def test_bounds_must_ascend(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=())

    def test_exact_count_sum_min_max(self):
        hist = Histogram("h", bounds=COUNT_BUCKETS)
        for value in (1, 3, 7, 100):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["sum"] == 111
        assert summary["min"] == 1
        assert summary["max"] == 100

    def test_quantiles_on_uniform_data_are_bucket_accurate(self):
        """1..1000 uniformly: interpolated quantiles land within one
        bucket width of the true order statistics."""
        hist = Histogram("h", bounds=COUNT_BUCKETS)
        for value in range(1, 1001):
            hist.observe(value)

        def bucket_width(value):
            for lower, upper in zip((0,) + COUNT_BUCKETS, COUNT_BUCKETS):
                if value <= upper:
                    return upper - lower
            return float("inf")

        for q, true_value in ((0.50, 500), (0.95, 950), (0.99, 990)):
            estimate = hist.quantile(q)
            assert abs(estimate - true_value) <= bucket_width(true_value)

    def test_overflow_bucket_interpolates_toward_max(self):
        hist = Histogram("h", bounds=(1.0, 2.0))
        for value in (10.0, 20.0, 30.0):
            hist.observe(value)
        p99 = hist.quantile(0.99)
        assert 2.0 < p99 <= 30.0

    def test_empty_summary_is_minimal(self):
        hist = Histogram("h")
        assert hist.summary() == {"count": 0, "sum": 0.0}
        assert hist.quantile(0.5) == 0.0

    def test_single_observation_quantiles_collapse(self):
        hist = Histogram("h")
        hist.observe(0.003)
        summary = hist.summary()
        assert summary["p50"] == summary["p99"] == pytest.approx(0.003)


class TestRegistrySnapshot:
    def test_snapshot_flattens_labeled_counters(self):
        registry = MetricsRegistry()
        registry.counter("reads", label_name="op").inc(2, label="scan")
        registry.counter("reads").inc(1)
        registry.gauge("depth").set(7)
        registry.histogram("lat").observe(0.01)
        snap = registry.snapshot()
        assert snap["counters"]["reads"] == 3
        assert snap["counters"]["reads{op=scan}"] == 2
        assert snap["gauges"]["depth"] == 7
        assert snap["histograms"]["lat"]["count"] == 1


class TestNullRegistry:
    def test_disabled_and_inert(self):
        assert NULL_REGISTRY.enabled is False
        NULL_REGISTRY.counter("c").inc(5)
        NULL_REGISTRY.gauge("g").set(1)
        NULL_REGISTRY.histogram("h").observe(1.0)
        assert NULL_REGISTRY.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }


class TestTracer:
    def test_spans_record_into_matching_histograms(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry)
        with tracer.trace("outer"):
            with tracer.trace("inner"):
                pass
        snap = registry.snapshot()
        assert snap["histograms"]["outer"]["count"] == 1
        assert snap["histograms"]["inner"]["count"] == 1

    def test_slow_log_captures_root_spans_with_breakdown(self):
        tracer = Tracer(MetricsRegistry(), slow_op_ms=0.0)
        with tracer.trace("flush", shard=3):
            with tracer.trace("sync"):
                pass
        records = tracer.slow_ops()
        # Only the root lands in the log; the child rides inside it.
        assert [r["op"] for r in records] == ["flush"]
        record = records[0]
        assert record["tags"] == {"shard": 3}
        assert [s["op"] for s in record["spans"]] == ["sync"]
        tracer.clear_slow_ops()
        assert tracer.slow_ops() == []

    def test_slow_log_threshold_filters(self):
        tracer = Tracer(MetricsRegistry(), slow_op_ms=60_000.0)
        with tracer.trace("fast"):
            pass
        assert tracer.slow_ops() == []

    def test_slow_log_is_a_bounded_ring(self):
        tracer = Tracer(MetricsRegistry(), slow_op_ms=0.0,
                        slow_log_capacity=2)
        for index in range(5):
            with tracer.trace(f"op{index}"):
                pass
        assert [r["op"] for r in tracer.slow_ops()] == ["op3", "op4"]

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.trace("anything", shard=1):
            pass
        assert NULL_TRACER.slow_ops() == []


class TestStoreReadOps:
    def test_read_ops_land_in_the_registry(self, tmp_path):
        registry = MetricsRegistry()
        store = ProvenanceStore(str(tmp_path / "s.db"), metrics=registry)
        store.append_nodes([visit("a", 1, "hello")])
        store.commit()
        store.ranking_aggregates()
        counters = registry.snapshot()["counters"]
        assert counters["store.read_ops"] == 1
        assert counters["store.read_ops{op=ranking_aggregates}"] == 1
        store.close()


def make_pipeline(root, registry, *, shards=4, batch_size=16, workers=None):
    pool = StorePool(os.path.join(root, "shards"), shards=shards,
                     metrics=registry)
    journal = IngestJournal(os.path.join(root, "j.log"), metrics=registry)
    pipeline = IngestPipeline(pool, journal, batch_size=batch_size,
                              workers=workers, metrics=registry)
    return pool, pipeline


def submit_stream(pipeline, users=4, nodes_per_user=25):
    count = 0
    for i in range(nodes_per_user):
        for u in range(users):
            user = f"user{u:02d}"
            pipeline.submit(node_event(user, f"n{i:03d}", i + 1,
                                       label=f"page {i} of {user}"))
            count += 1
            if i > 0:
                pipeline.submit_edge(user, EdgeKind.LINK, f"n{i-1:03d}",
                                     f"n{i:03d}", timestamp_us=i + 1)
                count += 1
    return count


class TestWorkerModeParity:
    """The same stream books the same totals in every worker mode."""

    @pytest.mark.parametrize("workers", [0, 2], ids=["serial", "thread"])
    def test_event_totals_match_submitted(self, tmp_path, workers):
        registry = MetricsRegistry()
        pool, pipeline = make_pipeline(str(tmp_path), registry,
                                       workers=workers)
        count = submit_stream(pipeline)
        pipeline.flush()
        counters = registry.snapshot()["counters"]
        assert counters["ingest.events"] == count
        assert counters["apply.events"] == count
        assert counters["apply.batches"] >= 1
        # Per-shard series sum to the total (users hash onto shards, so
        # not every shard necessarily receives traffic).
        per_shard = [counters.get(f"ingest.events{{shard={s}}}", 0)
                     for s in range(4)]
        assert sum(per_shard) == count
        hist = registry.snapshot()["histograms"]
        assert hist["apply.batch"]["count"] == counters["apply.batches"]
        pipeline.close()
        pool.close()


class TestCacheMetrics:
    def test_epoch_rolled_entry_counts_admission_rejected_not_miss(self):
        """The PR-6 bug fix: an ``epoch_bound`` value whose epoch rolls
        mid-compute is rejected at admission (and counted as such), not
        silently stored dead and booked as a later miss."""
        registry = MetricsRegistry()
        cache = QueryCache(epoch_writes=1, metrics=registry)

        def compute():
            cache.roll_epoch()  # the epoch turns while we compute
            return ["stale"]

        value = cache.get_or_compute("alice", "q", (), compute,
                                     epoch_bound=True)
        assert value == ["stale"]
        stats = cache.stats()
        assert stats.admission_rejected == 1
        assert stats.misses == 1  # the initial lookup only
        hit, _ = cache.lookup("alice", "q", ())
        assert not hit, "the dead-on-arrival value must not be cached"
        counters = registry.snapshot()["counters"]
        assert counters["cache.admission_rejected"] == 1
        assert counters["cache.epoch_rolls"] == 1

    def test_hits_and_misses_book_metrics(self):
        registry = MetricsRegistry()
        cache = QueryCache(metrics=registry)
        cache.get_or_compute("alice", "q", (), lambda: 1)
        cache.get_or_compute("alice", "q", (), lambda: 1)
        counters = registry.snapshot()["counters"]
        assert counters["cache.hits"] == 1
        assert counters["cache.misses"] == 1


class TestServiceFacade:
    def test_metrics_snapshot_covers_the_pipeline(self, tmp_path):
        with ProvenanceService(str(tmp_path / "svc"), shards=2) as service:
            for i in range(40):
                service.record_node("alice", visit(f"n{i}", i + 1,
                                                   f"hello {i}"))
            service.flush()
            service.ranked_search("hello", user_id="alice")
            service.ranked_search("hello")
            snap = service.metrics_snapshot()
        counters = snap["counters"]
        assert counters["ingest.events"] == 40
        assert counters["journal.group_commits"] >= 1
        assert counters["search.pages"] == 2
        assert counters["search.scans"] >= 1
        histograms = snap["histograms"]
        for name in ("ingest.flush", "search.ranked", "apply.batch"):
            summary = histograms[name]
            assert summary["count"] >= 1
            assert summary["p50"] <= summary["p95"] <= summary["p99"]
        assert "ingest.pending" in snap["gauges"]

    def test_metrics_disabled_mode_is_dark(self, tmp_path):
        with ProvenanceService(str(tmp_path / "svc"), shards=2,
                               metrics=False) as service:
            service.record_node("alice", visit("a", 1, "hello"))
            service.flush()
            assert service.ranked_search("hello", user_id="alice").hits
            snap = service.metrics_snapshot()
            assert snap == {"counters": {}, "gauges": {}, "histograms": {}}
            assert service.slow_ops() == []

    def test_slow_op_log_records_span_breakdown(self, tmp_path):
        with ProvenanceService(str(tmp_path / "svc"), shards=2,
                               slow_op_ms=0.0) as service:
            service.record_node("alice", visit("a", 1, "hello"))
            service.flush()
            ops = {record["op"] for record in service.slow_ops()}
        assert "ingest.flush" in ops

    def test_health_reports_tenants_and_shards(self, tmp_path):
        with ProvenanceService(str(tmp_path / "svc"), shards=2) as service:
            for i in range(10):
                service.record_node("alice", visit(f"a{i}", i + 1))
                service.record_node("bob", visit(f"b{i}", i + 1))
            service.flush()
            health = service.health()
        assert health.status == "ok"
        assert health.pending == 0
        assert health.deadletters == 0
        tenants = {t.user_id: t for t in health.tenants}
        assert tenants["alice"].events_submitted == 10
        assert tenants["bob"].events_submitted == 10
        assert all(s.queue_depth == 0 for s in health.shards)
        assert any(s.last_flush_age_s is not None for s in health.shards)

    def test_health_max_tenants_caps_most_recent_first(self, tmp_path):
        with ProvenanceService(str(tmp_path / "svc"), shards=2) as service:
            for u in range(5):
                service.record_node(f"user{u}", visit("a", 1))
            health = service.health(max_tenants=2)
        assert len(health.tenants) == 2


class TestHealthDeadLetterLifecycle:
    def quarantine_poison_edge(self, tmp_path):
        root = str(tmp_path / "svc")
        service = ProvenanceService(root, shards=2, batch_size=10_000)
        service.record_node("alice", visit("a", 1, "start"))
        service.record_edge("alice", EdgeKind.LINK, "ghost", "a",
                            timestamp_us=1)  # src never recorded
        service.close(flush=False)
        return ProvenanceService(root, shards=2)

    def test_quarantine_degrades_then_redrive_restores(self, tmp_path):
        service = self.quarantine_poison_edge(tmp_path)
        try:
            health = service.health()
            assert health.status == "degraded"
            assert health.deadletters == 1
            counters = service.metrics_snapshot()["counters"]
            assert counters["ingest.quarantined"] == 1
            assert counters["journal.deadletters"] == 1

            seq = service.deadlettered()[0].seq
            service.record_node("alice", visit("ghost", 1, "recovered"))
            service.redrive(seq)
            health = service.health()
            assert health.status == "ok"
            assert health.deadletters == 0
        finally:
            service.close()
