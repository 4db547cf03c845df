"""The per-layer ledger of a traced run.

Built on the client from three sources, all confined to the timed
window: the spans the server child recorded around each layer's entry
points (:mod:`bench.spans`), the program's own ``/v1/metrics`` counter
deltas, and the client's request samples.  A span's *self time* is its
duration minus the time its child spans cover (children run on the
same thread, nested, so their durations add).  Cross-thread waits pair
by identity: a batch's hand-off wait runs from ``ShardWorkerPool.
dispatch`` to the start of ``apply_event_batch`` on the same list
object; a request's front-end time is its client latency minus the
facade span(s) it caused, paired by arguments.

Every metric is reported on every workload.  A time (ms, us) of a
layer the workload leaves idle has no span in the window; it is taken
from the run's coverage pass instead (one request of every kind, after
the window; see :meth:`bench.workloads.Context.cover`) and listed in
the details as ``from_coverage``, so every time is measured on every
workload.  A count or ratio of an idle layer reads 0.  In a closed
loop, ``client.lateness_p99_ms`` is the client's own gap between a
response and the next request on that connection; in the open loop it
is how late the generator sent each request past the later of its due
time and the previous response on its connection.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict, deque

from bench.spans import WRAPPERS, event_ident
from bench.stats import mean, percentile

#: metric -> unit, in print order.
PER_LAYER = {
    "wire.read_request_ms": "ms",
    "wire.encode_response_ms": "ms",
    "admission.admit_us": "us",
    "events.decode_us_per_event": "us",
    "server.front_p50_ms": "ms",
    "server.front_p99_ms": "ms",
    "http.request_bytes_per_event": "B",
    "http.response_kb": "KB",
    "service.record_event_us": "us",
    "service.ranked_search_self_ms": "ms",
    "service.walk_ms": "ms",
    "service.retention_ms": "ms",
    "service.audit_report_ms": "ms",
    "service.self_share": "ratio",
    "ingest.submit_us": "us",
    "ingest.journal_sync_p50_us": "us",
    "ingest.journal_sync_p99_us": "us",
    "ingest.journal_busy_share": "ratio",
    "ingest.events_per_fsync": "count",
    "ingest.group_size_p50": "count",
    "ingest.flush_ms": "ms",
    "ingest.drain_for_read_p50_ms": "ms",
    "ingest.drain_for_read_p99_ms": "ms",
    "ingest.compact_ms": "ms",
    "ingest.compactions": "count",
    "ingest.tombstone_ms": "ms",
    "ingest.journal_bytes_per_event": "B",
    "parallel.handoff_wait_p50_ms": "ms",
    "parallel.handoff_wait_p99_ms": "ms",
    "parallel.worker_busy_share": "ratio",
    "apply.batch_ms": "ms",
    "apply.us_per_event": "us",
    "apply.events_per_batch": "count",
    "indexer.index_us_per_event": "us",
    "indexer.ensure_index_ms": "ms",
    "search.scan_p50_ms": "ms",
    "search.scan_p99_ms": "ms",
    "search.scan_rows_per_hit": "count",
    "search.snippets_ms": "ms",
    "search.slice_after_us": "us",
    "search.cursor_us": "us",
    "search.continuation_share": "ratio",
    "cache.hit_ratio": "ratio",
    "cache.page1_hit_ratio": "ratio",
    "cache.epoch_rolls_per_kevent": "count",
    "cache.lookup_us": "us",
    "pool.checkout_wait_p99_ms": "ms",
    "store.read_ops_per_page1.term_postings": "count",
    "store.read_ops_per_page1.index_doc_lengths": "count",
    "store.read_ops_per_page1.nodes_brief": "count",
    "store.read_ops_per_page1.tenant_page_visits": "count",
    "store.node_texts_per_page": "count",
    "store.load_subgraph_ms": "ms",
    "store.delete_nodes_ms": "ms",
    "store.db_bytes_per_event": "B",
    "audit.build_case_report_ms": "ms",
    "client.lateness_p99_ms": "ms",
    "trace.spans_per_s": "1/s",
    "trace.unfired_wrappers": "count",
}

NOTES = (
    "journal_sync includes the SHA-256 chain: the commit leader hashes"
    " inside sync, so chaining is not separable from outside.",
    "events_per_fsync is also the mean group-commit size (fsync=True"
    " syncs once per group commit); group_size_p50 is the program's"
    " 1-in-16 sampled histogram over the child's lifetime.",
    "front = client latency minus the paired facade span: event loop,"
    " executor queue and socket.",
    "read_request is timed from the arrival of the request line;"
    " cache.lookup_us averages lookups that computed nothing.",
)


class Span:
    __slots__ = ("sid", "name", "start", "end", "thread", "parent", "tag")

    def __init__(self, row: list) -> None:
        (self.sid, self.name, self.start, self.end, self.thread,
         self.parent, self.tag) = row

    @property
    def duration(self) -> float:
        return self.end - self.start


def load_spans(path) -> tuple[dict, list[Span]]:
    with open(path, encoding="utf-8") as handle:
        meta = json.loads(handle.readline())
        spans = [Span(json.loads(line)) for line in handle if line.strip()]
    return meta, spans


def counter_delta(ctx, name: str) -> int:
    before = (ctx.counters_before or {}).get("counters", {})
    after = (ctx.counters_after or {}).get("counters", {})
    return after.get(name, 0) - before.get(name, 0)


def union_length(intervals: list[tuple[float, float]]) -> float:
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def event_key(user: str, event) -> tuple:
    """:func:`bench.spans._event_key` of *event* re-owned by *user*."""
    return (user, type(event).__name__, event_ident(event))


#: Units of the per-layer times.  A time with no span in the window (a
#: layer the workload leaves idle) is taken from the coverage pass.
TIME_UNITS = ("ms", "us")


class SpanTree:
    """Every span of a run by id, with the time its child spans cover."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.by_id = {span.sid: span for span in spans}
        self.child_time: dict[int, float] = defaultdict(float)
        self.children: Counter = Counter()
        for span in spans:
            if span.parent:
                self.child_time[span.parent] += span.duration
                self.children[span.parent] += 1

    def self_time(self, span: Span) -> float:
        return span.duration - self.child_time[span.sid]


def within(span: Span, interval: tuple[float, float]) -> bool:
    return interval[0] <= span.start and span.end <= interval[1]


def build(ctx) -> tuple[dict[str, float], dict]:
    """``(per-layer metrics, details)`` for a finished traced run."""
    meta, spans = load_spans(ctx.spans_path)
    tree = SpanTree(spans)
    m, details = measure(ctx, tree, ctx.samples, ctx.window, ctx.lateness)
    cover = ctx.cover_window
    idle = [
        name for name, unit in PER_LAYER.items()
        if unit in TIME_UNITS and m[name] == 0.0
    ] if cover is not None else []
    if idle:
        covered, _details = measure(ctx, tree, ctx.cover_samples, cover, [])
        for name in idle:
            m[name] = covered[name]
    # Which wrappers the workload itself fired: the coverage pass fires
    # every one of them, so its spans do not count.
    fired = Counter(
        span.name for span in spans
        if cover is None or not within(span, cover)
    )
    expected = {name for name, _m, _a, loads, _t in WRAPPERS
                if ctx.workload in loads}
    unfired = sorted(name for name in expected if not fired[name])
    m["trace.unfired_wrappers"] = len(unfired) + len(meta["missing"])
    details.update(
        fired=dict(sorted(fired.items())),
        unfired=unfired,
        missing=meta["missing"],
        from_coverage=idle,
    )
    return m, details


def measure(ctx, tree: SpanTree, all_samples, interval, lateness):
    """``(metrics, details)`` over the spans and samples inside *interval*.

    Counter deltas and bytes on disk are the timed window's whatever the
    interval: only times are ever taken from the coverage pass.
    """
    start, end = interval
    window = end - start
    inside = [s for s in tree.spans if within(s, interval)]
    named: dict[str, list[Span]] = defaultdict(list)
    for span in inside:
        named[span.name].append(span)

    def durations(*names: str) -> list[float]:
        return [s.duration for n in names for s in named[n]]

    def mean_ms(*names: str) -> float:
        return mean(durations(*names)) * 1e3

    def mean_us(*names: str) -> float:
        return mean(durations(*names)) * 1e6

    samples = [s for s in all_samples if start <= s.sent and s.done <= end]
    writes = [s for s in samples if s.kind == "write"]
    events_written = sum(s.key[3] for s in writes)
    m: dict[str, float] = {}

    m["wire.read_request_ms"] = mean_ms("wire.read_request")
    m["wire.encode_response_ms"] = mean_ms("wire.encode_response")
    m["admission.admit_us"] = mean_us(
        "admission.admit_write", "admission.admit_read"
    )
    m["events.decode_us_per_event"] = mean_us("events.decode_event")
    front = front_times(ctx, samples, named)
    m["server.front_p50_ms"] = percentile(front, 50) * 1e3
    m["server.front_p99_ms"] = percentile(front, 99) * 1e3
    m["http.request_bytes_per_event"] = ratio(
        sum(s.request_bytes for s in writes), events_written
    )
    m["http.response_kb"] = mean([s.response_bytes for s in samples]) / 1024

    facade = [s for s in inside if s.name.startswith("service.")]
    m["service.record_event_us"] = mean(
        [tree.self_time(s) for s in named["service.record_event"]]
    ) * 1e6
    m["service.ranked_search_self_ms"] = mean(
        [tree.self_time(s) for s in named["service.ranked_search"]]
    ) * 1e3
    m["service.walk_ms"] = mean_ms("service.ancestors", "service.descendants")
    m["service.retention_ms"] = mean_ms(
        "service.forget_site", "service.expire_before"
    )
    m["service.audit_report_ms"] = mean_ms("service.audit_report")
    outermost = [
        s for s in facade
        if s.parent not in tree.by_id
        or not tree.by_id[s.parent].name.startswith("service.")
    ]
    m["service.self_share"] = ratio(
        sum(tree.self_time(s) for s in facade),
        sum(s.duration for s in outermost),
    )

    syncs = named["journal.sync"]
    m["ingest.submit_us"] = mean_us("ingest.submit", "ingest.submit_edge")
    m["ingest.journal_sync_p50_us"] = percentile(durations("journal.sync"), 50) * 1e6
    m["ingest.journal_sync_p99_us"] = percentile(durations("journal.sync"), 99) * 1e6
    m["ingest.journal_busy_share"] = ratio(
        union_length([(s.start, s.end) for s in syncs]), window
    )
    applied = counter_delta(ctx, "ingest.events")
    m["ingest.events_per_fsync"] = ratio(
        applied, counter_delta(ctx, "journal.fsyncs")
    )
    # A histogram cannot be differenced from two summaries: this is the
    # child's lifetime p50, which in ingest (empty start) is the run's.
    group_size = (ctx.counters_after or {}).get("histograms", {}).get(
        "journal.group_size", {}
    )
    m["ingest.group_size_p50"] = group_size.get("p50", 0.0)
    m["ingest.flush_ms"] = mean_ms("ingest.flush")
    drains = durations("ingest.drain_for_read")
    m["ingest.drain_for_read_p50_ms"] = percentile(drains, 50) * 1e3
    m["ingest.drain_for_read_p99_ms"] = percentile(drains, 99) * 1e3
    m["ingest.compact_ms"] = mean(
        [s.duration for s in named["journal.compact"] if s.tag]
    ) * 1e3
    m["ingest.compactions"] = counter_delta(ctx, "journal.compactions")
    m["ingest.tombstone_ms"] = mean_ms("journal.record_tombstone")
    m["ingest.journal_bytes_per_event"] = ratio(
        counter_delta(ctx, "journal.compacted_bytes")
        + ctx.journal_bytes[1] - ctx.journal_bytes[0],
        events_written,
    )

    waits = handoff_waits(named["parallel.dispatch"],
                          named["apply.apply_event_batch"])
    m["parallel.handoff_wait_p50_ms"] = percentile(waits, 50) * 1e3
    m["parallel.handoff_wait_p99_ms"] = percentile(waits, 99) * 1e3
    batches = named["apply.apply_event_batch"]
    batch_events = sum(s.tag[1] for s in batches if s.tag)
    m["parallel.worker_busy_share"] = ratio(
        sum(s.duration for s in batches), window * max(1, ctx.workers)
    )
    m["apply.batch_ms"] = mean_ms("apply.apply_event_batch")
    m["apply.us_per_event"] = ratio(
        sum(s.duration for s in batches) * 1e6, batch_events
    )
    m["apply.events_per_batch"] = ratio(batch_events, len(batches))
    indexed = named["indexer.batch_index_docs"]
    m["indexer.index_us_per_event"] = ratio(
        sum(s.duration for s in indexed) * 1e6,
        sum(s.tag for s in indexed if s.tag),
    )
    m["indexer.ensure_index_ms"] = mean_ms("indexer.ensure_index")

    scans = named["search.shard_ranked_scan"]
    m["search.scan_p50_ms"] = percentile(durations("search.shard_ranked_scan"), 50) * 1e3
    m["search.scan_p99_ms"] = percentile(durations("search.shard_ranked_scan"), 99) * 1e3
    pages = named["service.ranked_search"]
    first_pages = [s for s in pages if s.tag and not s.tag[2]]
    m["search.scan_rows_per_hit"] = ratio(
        sum(s.tag for s in scans if s.tag is not None),
        sum(s.tag[3] for s in pages if s.tag),
    )
    m["search.snippets_ms"] = mean_ms("search.attach_snippets")
    m["search.slice_after_us"] = mean_us("search.slice_after")
    m["search.cursor_us"] = mean_us("search.encode_cursor", "search.decode_cursor")
    scanned = counter_delta(ctx, "search.scans")
    continued = counter_delta(ctx, "search.continuations")
    m["search.continuation_share"] = ratio(continued, scanned + continued)

    hits = counter_delta(ctx, "cache.hits")
    m["cache.hit_ratio"] = ratio(hits, hits + counter_delta(ctx, "cache.misses"))
    scanned_pages = set()
    for scan in scans:
        node = scan.parent
        while node and tree.by_id[node].name != "service.ranked_search":
            node = tree.by_id[node].parent
        if node:
            scanned_pages.add(node)
    m["cache.page1_hit_ratio"] = ratio(
        sum(s.sid not in scanned_pages for s in first_pages), len(first_pages)
    )
    m["cache.epoch_rolls_per_kevent"] = ratio(
        counter_delta(ctx, "cache.epoch_rolls") * 1000, applied
    )
    m["cache.lookup_us"] = mean(
        [s.duration for s in named["cache.get_or_compute"]
         if not tree.children[s.sid]]
    ) * 1e6
    m["pool.checkout_wait_p99_ms"] = percentile(durations("pool.checkout"), 99) * 1e3

    for op in ("term_postings", "index_doc_lengths", "nodes_brief",
               "tenant_page_visits"):
        m[f"store.read_ops_per_page1.{op}"] = ratio(
            counter_delta(ctx, f"store.read_ops{{op={op}}}"), len(first_pages)
        )
    m["store.node_texts_per_page"] = ratio(
        counter_delta(ctx, "store.read_ops{op=node_texts}"), len(pages)
    )
    m["store.load_subgraph_ms"] = mean_ms("store.load_subgraph")
    m["store.delete_nodes_ms"] = mean_ms("store.delete_nodes_by_id")
    m["store.db_bytes_per_event"] = ratio(ctx.db_bytes, ctx.events)
    m["audit.build_case_report_ms"] = mean_ms("audit.build_case_report")
    late = lateness or closed_loop_lateness(samples)
    m["client.lateness_p99_ms"] = percentile(late, 99) * 1e3
    m["trace.spans_per_s"] = ratio(len(inside), window)
    details = {
        "front_samples": len(front),
        "handoff_samples": len(waits),
        "first_pages": len(first_pages),
    }
    return m, details


def closed_loop_lateness(samples) -> list[float]:
    """How late each request went out, in a closed loop.

    A request is due the moment the previous one on its connection
    completed: the gap is the client's own time between the two.
    """
    last_done: dict[int, float] = {}
    gaps = []
    for sample in sorted(samples, key=lambda s: s.sent):
        if sample.lane in last_done:
            gaps.append(sample.sent - last_done[sample.lane])
        last_done[sample.lane] = sample.done
    return gaps


def handoff_waits(dispatches: list[Span], applies: list[Span]) -> list[float]:
    """Dispatch end to apply start, paired by batch identity.

    ``id()`` values are reused once a batch is freed, so each apply
    pairs with the latest dispatch of that id that preceded it.
    """
    pending: dict[int, deque] = defaultdict(deque)
    for span in sorted(dispatches, key=lambda s: s.start):
        pending[span.tag].append(span.end)
    waits = []
    for span in sorted(applies, key=lambda s: s.start):
        if not span.tag:
            continue
        queue = pending.get(span.tag[0])
        while queue and len(queue) > 1 and queue[1] <= span.start:
            queue.popleft()
        if queue and queue[0] <= span.start:
            waits.append(span.start - queue.popleft())
    return waits


def front_times(ctx, samples, named) -> list[float]:
    """Client latency minus the paired facade span, per request."""
    spans_by_key: dict[tuple, deque] = defaultdict(deque)
    for name, spans in named.items():
        if not name.startswith("service."):
            continue
        for span in sorted(spans, key=lambda s: s.start):
            if span.tag is None:
                continue
            if name == "service.record_event":
                spans_by_key[tuple(span.tag)].append(span)
            elif name == "service.ranked_search":
                spans_by_key[(name, *span.tag[:3])].append(span)
            else:
                spans_by_key[(name, *span.tag)].append(span)
    fronts = []
    for sample in samples:
        if sample.kind == "write":
            index, user, position, count = sample.key
            events = ctx.corpus.tenants[index].events[position:position + count]
            first = take(spans_by_key, event_key(user, events[0]), sample)
            last = (
                take(spans_by_key, event_key(user, events[-1]), sample)
                if count > 1 else first
            )
            if first is None or last is None:
                continue
            facade = last.end - first.start
        elif sample.key is not None:
            span = take(spans_by_key, tuple(sample.key), sample)
            if span is None:
                continue
            facade = span.duration
        else:
            continue
        fronts.append((sample.done - sample.sent) - facade)
    return fronts


def take(spans_by_key, key, sample):
    """The first span under *key* that ran inside *sample*'s request."""
    queue = spans_by_key.get(key)
    while queue:
        span = queue[0]
        if span.end < sample.sent:
            queue.popleft()
            continue
        if span.start <= sample.done:
            return queue.popleft()
        return None
    return None


def render(metrics: dict[str, float], details: dict) -> list[str]:
    lines = ["# per-layer ledger (traced run; * = from the coverage pass)"]
    covered = set(details["from_coverage"])
    for name, unit in PER_LAYER.items():
        mark = " *" if name in covered else ""
        lines.append(f"layer {name:<46} {metrics[name]:>14.4f} {unit}{mark}")
    for note in NOTES:
        lines.append(f"# note: {note}")
    if details["unfired"] or details["missing"]:
        lines.append(
            f"# WARNING: wrappers that never fired: {details['unfired']};"
            f" not installed: {details['missing']}"
        )
    return lines
