"""The four workloads, their output checks and their end-to-end metrics.

Every workload sets the server child up :data:`SETUPS` times, each on
an empty root or on a fresh copy of one of the corpus cache's
preloaded roots (``setup_s`` is their median).  It drives the last
child over HTTP from this process with at most two threads and two
connections, checks the outputs, stops the child cleanly and measures
what it left on disk.  A failed check raises
:class:`~bench.client.CheckFailed`.

========== ====== ===================================================
workload   loop   what does the work
========== ====== ===================================================
ingest     closed the durable write path: wire decode, admission,
                  journal stage/sync/fsync + chain, hand-off, apply,
                  index deltas; search and cache sit idle
recall     closed ranked first pages that miss the query cache (scan,
                  blend, snippets) and cursor continuations that hit it
mixed      open   writes beside reads on the same tenants: every read
                  pays the read-your-writes drain and a re-scan
forensics  closed ancestor/descendant walks, case reports, retention
                  surgery (load_subgraph, delete, tombstone re-sign)
========== ====== ===================================================
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import threading
import time
from collections import Counter, deque
from pathlib import Path
from urllib.parse import urlencode

from repro.service import report_digest_ok
from repro.service.events import NodeEvent

from bench.client import (
    CHECKOUT,
    Child,
    Connection,
    Sample,
    check,
    check_ok,
    disk_bytes,
)
from bench.corpus import (
    Corpus,
    Tenant,
    forget_order,
    interleaved,
    probe_term,
    recall_keys,
    renamed_lines,
    site_of,
    stream_totals,
    terms_of,
    walk_candidates,
)
from bench.stats import percentile

WORKLOADS = ("ingest", "recall", "mixed", "forensics")

#: End-to-end metrics, every one reported by every workload.  What the
#: throughput counts, which operation the latencies time and what the
#: secondary figure is differ per workload; see :data:`OPERATIONS`.
END_TO_END = {
    "setup_s": "s",
    "rss_mb": "MB",
    "bytes_per_event": "B",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "secondary_ms": "ms",
}

#: workload -> (throughput counts, primary operation, secondary figure).
#: ``p50_ms`` and ``tail_ms`` are the primary operation's median and
#: 95th percentile; on ``ingest``, ``recall`` and ``forensics``, which
#: time over 1,000 of them a run, their 99th percentile is a
#: per-workload metric too.
OPERATIONS = {
    "ingest": ("acked events per second", "POST /v1/events (64 events)",
               "server CPU time per 1,000 acked events"),
    "recall": ("ranked pages per second", "ranked first page",
               "p50 of a cursor continuation page"),
    "mixed": ("requests per second of server CPU",
              "ranked first page beside writes",
              "p50 of POST /v1/events (20 events)"),
    "forensics": ("operations per second", "ancestors/descendants walk",
                  "retention pass (forget_site + expire_before): median"
                  " over the cases of each case's median"),
}
TAIL = 95

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
THREADS = 2
PAGE = 20
INGEST_BATCH = 64
MIXED_BATCH = 20
#: About half of what one server process handles on a 2-CPU host: at
#: 100 writes and 40 reads a second the server ran near saturation and
#: a slow spell of the host set off queueing (write p99 15-340 ms over
#: seven seeds).  Reads divide writes, so each read is due halfway
#: between two writes.
MIXED_WRITES_PER_S = 50
MIXED_READS_PER_S = 25
PROBE_EVERY = 5
READ_EVERY = MIXED_WRITES_PER_S // MIXED_READS_PER_S
PROBE_RETRY_S = 0.002
PROBE_TIMEOUT_S = 5.0
DRAIN_TIMEOUT_S = 30.0
WALKS_PER_CYCLE = 40
EXPIRY_SLICES = 400
#: ``forensics`` visits every this-many-th tenant from the largest down.
FORENSIC_STRIDE = 3
#: A ``mixed`` run whose generator ran later than this at p99 did not
#: offer the load it claims.
MAX_LATENESS_MS = 5.0
#: Sample keys of ranked pages start with the facade span they pair with.
RANKED = "service.ranked_search"
#: Events the coverage pass of a traced run writes (five batches).
COVER_EVENTS = 5 * INGEST_BATCH


class Context:
    """One workload run: its corpus, work directory, children, samples."""

    def __init__(
        self, workload: str, seed: int, seconds: float, trace: bool,
        corpus: Corpus,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.corpus = corpus
        self.rng = random.Random(seed)
        self.work = CHECKOUT / ".bench_work" / f"{workload}-{seed}-{id(self)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.root = self.work / "root"
        self.spans_path = self.work / "spans.jsonl" if trace else None
        self.samples: list[Sample] = []
        self.setups: list[float] = []
        self.children: list[Child] = []
        self.window = (0.0, 0.0)
        #: The coverage pass of a traced run (see :meth:`cover`): its
        #: requests, time span, events written and what they left.
        self.cover_samples: list[Sample] = []
        self.cover_window: tuple[float, float] | None = None
        self.cover_events = 0
        self.cover_totals = {"nodes": 0, "edges": 0, "intervals": 0}
        #: The program's counters and the journal's bytes on disk at
        #: the window's start and end (traced runs only).
        self.counters_before: dict | None = None
        self.counters_after: dict | None = None
        self.journal_bytes = (0, 0)
        self.lateness: list[float] = []
        self.workers = 0
        self.db_bytes = 0
        self.events = 0
        self.e2e: dict[str, float] = {}
        #: Per-workload metrics: name -> (value, unit, samples, gate).
        #: *gate* names the end-to-end metric whose bound and direction
        #: ``compare`` applies, or is None where the value is already
        #: an end-to-end metric (or only describes the run).
        self.named: dict[str, tuple[float, str, int | None, str | None]] = {}

    # -- children ---------------------------------------------------------------

    def spawn(self, spans: bool = False) -> Child:
        child = Child(
            self.root,
            spans=self.spans_path if spans else None,
            log=self.work / "server.log",
        )
        self.children.append(child)
        return child

    def setup(self, template: Path | None = None) -> Child:
        """Start :data:`SETUPS` children on fresh roots; keep the last.

        Each root starts empty or as a copy of *template*; the copy is
        not timed, the child's start on it is.
        """
        def start(spans: bool) -> Child:
            shutil.rmtree(self.root, ignore_errors=True)
            if template is not None:
                shutil.copytree(template, self.root)
            child = self.spawn(spans)
            self.setups.append(child.setup_s)
            return child

        for _ in range(SETUPS - 1):
            start(spans=False).kill()
        child = start(spans=self.trace)
        self.workers = child.workers
        return child

    def mark_start(self, connection: Connection, lead: float = 0.0) -> float:
        """Open the timed window *lead* seconds from now; returns its start."""
        self.counters_before = self._counters(connection)
        self.journal_bytes = (self._journal_size(), 0)
        start = time.perf_counter() + lead
        self.window = (start, start)
        return start

    def mark_end(self, connection: Connection) -> float:
        """Close the timed window now; returns its end."""
        end = time.perf_counter()
        self.window = (self.window[0], end)
        self.counters_after = self._counters(connection)
        self.journal_bytes = (self.journal_bytes[0], self._journal_size())
        return end

    def _counters(self, connection: Connection) -> dict | None:
        if not self.trace:
            return None
        status, snapshot = connection.json("check", "GET", "/v1/metrics")
        check_ok(status, snapshot, "/v1/metrics")
        return snapshot

    def _journal_size(self) -> int:
        total = 0
        for path in self.root.glob("ingest.journal*"):
            try:
                total += path.stat().st_size
            except FileNotFoundError:  # compacted away meanwhile
                pass
        return total

    def finish(self, child: Child, events: int) -> None:
        """Coverage pass, clean stop, then the root's bytes on disk per event."""
        self.cover(child)
        self.e2e["rss_mb"] = child.peak_rss_mb()
        child.stop()
        self.measure_disk(events)

    def measure_disk(self, events: int) -> None:
        total = disk_bytes(self.root)
        self.db_bytes = sum(
            path.stat().st_size for path in self.root.glob("shard-*")
        )
        self.events = events + self.cover_events
        self.e2e["bytes_per_event"] = total / self.events

    def cover(self, child: Child) -> None:
        """A traced run's coverage pass, after the window and its checks.

        One request of every kind the benchmark sends, on a tenant of
        its own (the smallest tenant's first :data:`COVER_EVENTS`
        events, renamed): writes, a ranked page and its continuation
        (read-your-writes drain, scan, snippets, cursor), both walks, a
        case report, a retention pass and a flush (compaction).  A
        layer the workload leaves idle has no span in the window; the
        ledger takes that layer's times from this pass instead and
        lists them, so every per-layer time is measured on every
        workload.  Untraced runs skip it.
        """
        if not self.trace:
            return
        tenant = self.corpus.tenants[0]
        user = f"{tenant.user_id}-cover"
        lines = renamed_lines(tenant, user)[:COVER_EVENTS]
        nodes = [
            event.node for event in tenant.events[:len(lines)]
            if isinstance(event, NodeEvent)
        ]
        tally = Counter(
            term for node in nodes for term in terms_of(node.label, node.url)
            if term.isalpha() and len(term) >= 3
        )
        term, matches = max(tally.items(), key=lambda item: (item[1], item[0]))
        sites = Counter(filter(None, (site_of(node.url) for node in nodes)))
        site = min(sites, key=lambda s: (sites[s], s))
        connection = Connection(child.port, self.cover_samples)
        start = time.perf_counter()

        def call(kind, method, path, body=None, key=None):
            status, reply = connection.json(kind, method, path, body, key=key)
            check_ok(status, reply, f"coverage {method} {path}")
            return reply

        try:
            for position in range(0, len(lines), INGEST_BATCH):
                chunk = lines[position:position + INGEST_BATCH]
                call("write", "POST", "/v1/events", events_body(chunk),
                     key=(0, user, position, len(chunk)))
            # Half the matches per page, so the first page has a cursor.
            limit = max(1, matches // 2)
            page = call("page1", "GET", ranked_path(user, term, limit),
                        key=(RANKED, user, term, ""))
            cursor = page["cursor"]
            check(cursor is not None, "coverage page has no cursor")
            call("next", "GET", ranked_path(user, term, limit, cursor),
                 key=(RANKED, user, term, cursor))
            for direction, node in (("ancestors", nodes[-1]),
                                    ("descendants", nodes[0])):
                call("walk", "GET", f"/v1/{direction}?"
                     + urlencode({"user": user, "node": node.id}),
                     key=(f"service.{direction}", user, node.id))
            call("audit", "GET", "/v1/audit/report?"
                 + urlencode({"user": user}),
                 key=("service.audit_report", user))
            call("forget", "POST", "/v1/retention/forget_site",
                 json.dumps({"user_id": user, "site": site}).encode(),
                 key=("service.forget_site", user, site))
            cutoff = nodes[0].timestamp_us + 1
            call("expire", "POST", "/v1/retention/expire_before",
                 json.dumps({"user_id": user, "cutoff_us": cutoff}).encode(),
                 key=("service.expire_before", user, cutoff))
            call("flush", "POST", "/v1/flush", b"{}")
            self.cover_window = (start, time.perf_counter())
            stats = call("check", "GET", "/v1/stats?"
                         + urlencode({"user": user}))
        finally:
            connection.close()
        self.cover_events = len(lines)
        self.cover_totals = {key: stats[key] for key in self.cover_totals}

    def incidents(self) -> list[dict]:
        """The running child's incident records (opaque 500s), if any.

        The server logs the exception behind each 500 to its slow-op
        ring under the incident id it returned.
        """
        child = self.children[-1] if self.children else None
        if child is None or child.proc.poll() is not None:
            return []
        connection = Connection(child.port, [])
        try:
            status, body = connection.json("check", "GET", "/v1/slow_ops")
        finally:
            connection.close()
        if status != 200:
            return []
        return [op for op in body["slow_ops"] if op.get("op") == "http.incident"]

    def close(self) -> None:
        for child in self.children:
            child.kill()
        shutil.rmtree(self.work, ignore_errors=True)

    # -- metrics ----------------------------------------------------------------

    def of(self, *kinds: str) -> list[Sample]:
        return [sample for sample in self.samples if sample.kind in kinds]

    def alias(self, name: str, metric: str, unit: str,
              samples: int | None) -> None:
        """Print end-to-end *metric* under its per-workload *name* too."""
        self.named[name] = (self.e2e[metric], unit, samples, None)

    def extra(self, name: str, values: list[float], q: float,
              gate: str) -> None:
        """A per-workload percentile in ms that no end-to-end metric holds."""
        self.extra_value(name, percentile(values, q), len(values), gate)

    def extra_value(self, name: str, value: float, samples: int,
                    gate: str) -> None:
        self.named[name] = (value, "ms", samples, gate)

    def latencies(self, name: str, samples: list[Sample],
                  p99: bool = True) -> None:
        """``p50_ms`` and ``tail_ms`` of the workload's primary operation,
        and its 99th percentile as ``<name>_p99_ms`` if *p99*."""
        values = [sample.ms for sample in samples]
        check(bool(values), "no primary operation completed")
        self.e2e["p50_ms"] = percentile(values, 50)
        self.e2e["tail_ms"] = percentile(values, TAIL)
        self.alias(f"{name}_p50_ms", "p50_ms", "ms", len(values))
        self.alias(f"{name}_p{TAIL}_ms", "tail_ms", "ms", len(values))
        if p99:
            self.extra(f"{name}_p99_ms", values, 99, "tail_ms")

    def conclude(self) -> None:
        self.e2e["setup_s"] = statistics.median(self.setups)
        self.alias("setup_s", "setup_s", "s", len(self.setups))
        self.alias("rss_mb", "rss_mb", "MB", None)
        failed = sum(not sample.ok for sample in self.samples)
        self.named["error_rate"] = (failed / len(self.samples), "ratio",
                                    len(self.samples), None)


def both(first, second, halt: threading.Event) -> None:
    """Run *first* here and *second* on one more thread; re-raise errors."""
    errors: list[BaseException] = []

    def guarded() -> None:
        try:
            second()
        except BaseException as exc:  # re-raised below, on this thread
            halt.set()
            errors.append(exc)

    thread = threading.Thread(target=guarded, name="bench-lane")
    thread.start()
    try:
        first()
    except BaseException:
        halt.set()
        raise
    finally:
        thread.join()
    if errors:
        raise errors[0]


def ranked_path(user: str, term: str, limit: int = PAGE,
                cursor: str | None = None) -> str:
    query = {"user": user, "term": term, "limit": limit}
    if cursor:
        query["cursor"] = cursor
    return "/v1/search/ranked?" + urlencode(query)


def events_body(lines: list[str]) -> bytes:
    return ('{"events":[' + ",".join(lines) + "]}").encode("utf-8")


def check_totals(connection: Connection, expected: dict[str, int]) -> None:
    status, stats = connection.json("check", "GET", "/v1/stats/aggregate")
    check_ok(status, stats, "/v1/stats/aggregate")
    found = {key: stats[key] for key in expected}
    check(found == expected, f"store totals {found} != stream {expected}")


def check_integrity(connection: Connection) -> None:
    status, report = connection.json("check", "GET", "/v1/integrity")
    check(status == 200 and report["ok"], f"integrity not ok: {report}")


def check_page(page: dict, seen: set[str]) -> None:
    for hit in page["hits"]:
        check(hit["nid"] not in seen, f"hit {hit['nid']} repeated in a chain")
        seen.add(hit["nid"])
        check("**" in hit["snippet"] and bool(hit["matched_terms"]),
              f"hit {hit['nid']} has no highlighted snippet")


def top_term(tenant: Tenant, count: int) -> str:
    """The word indexing most nodes among the tenant's first *count* events."""
    tally: Counter = Counter()
    for event in tenant.events[:count]:
        node = getattr(event, "node", None)
        if node is not None:
            tally.update(
                token for token in terms_of(node.label, node.url)
                if token.isalpha() and len(token) >= 3
            )
    return max(tally, key=lambda term: (tally[term], term))


# -- ingest --------------------------------------------------------------------


def run_ingest(ctx: Context) -> None:
    """The corpus (then renamed replays of it) in 64-event batches.

    The tenants are dealt, in seeded order, to the two connections;
    each connection round-robins over its own, so a tenant never has
    two batches in flight and its causal order holds.  When a lane
    runs out of corpus it replays it under fresh tenant ids until the
    time is up.  The run ends with ``POST /v1/flush``:
    ``throughput_per_s`` counts until every event is applied.
    """
    corpus = ctx.corpus
    child = ctx.setup()
    order = list(range(len(corpus.tenants)))
    ctx.rng.shuffle(order)
    lanes = [order[0::2], order[1::2]]
    connections = [Connection(child.port, ctx.samples) for _ in range(THREADS)]
    parts: list[tuple[Tenant, int]] = []
    halt = threading.Event()
    cpu_before = child.cpu_s()
    start = ctx.mark_start(connections[0])
    deadline = start + ctx.seconds

    def lane(index: int) -> None:
        connection = connections[index]
        tenants = [corpus.tenants[i] for i in lanes[index]]
        replay = 0
        while True:
            users = [
                t.user_id if replay == 0 else f"{t.user_id}-{replay}"
                for t in tenants
            ]
            streams = [renamed_lines(t, u) for t, u in zip(tenants, users)]
            sent = [0] * len(tenants)
            try:
                while any(n < len(s) for n, s in zip(sent, streams)):
                    for i, stream in enumerate(streams):
                        if sent[i] >= len(stream):
                            continue
                        if halt.is_set() or time.perf_counter() >= deadline:
                            return
                        chunk = stream[sent[i]:sent[i] + INGEST_BATCH]
                        status, reply = connection.json(
                            "write", "POST", "/v1/events", events_body(chunk),
                            key=(lanes[index][i], users[i], sent[i], len(chunk)),
                        )
                        check(
                            status == 200 and reply["accepted"] == len(chunk),
                            f"batch refused: {status} {reply}",
                        )
                        sent[i] += len(chunk)
            finally:
                parts.extend(
                    (tenant, count) for tenant, count in zip(tenants, sent)
                    if count
                )
            replay += 1

    both(lambda: lane(0), lambda: lane(1), halt)
    status, body = connections[0].json("flush", "POST", "/v1/flush", b"{}")
    check_ok(status, body, "/v1/flush")
    cpu_s = child.cpu_s() - cpu_before
    end = ctx.mark_end(connections[0])
    events = sum(count for _tenant, count in parts)
    expected = stream_totals(parts)

    probe_tenant, probed = parts[0]
    probe = ranked_path(probe_tenant.user_id, top_term(probe_tenant, probed))
    check_totals(connections[0], expected)
    check_integrity(connections[0])
    status, before = connections[0].json("check", "GET", probe)
    check(status == 200 and before["hits"], "probe page is empty")
    for connection in connections:
        connection.close()
    ctx.cover(child)
    ctx.e2e["rss_mb"] = child.peak_rss_mb()
    child.stop()

    # Crash: a restarted child acknowledges one more batch (a fresh
    # tenant) and is SIGKILLed before anything flushes it; after the
    # next restart every acknowledged event must be there, and nothing
    # else may have moved.
    child = ctx.spawn()
    connection = Connection(child.port, ctx.samples)
    late = corpus.tenants[lanes[1][-1]]
    lines = renamed_lines(late, f"{late.user_id}-crash")[:INGEST_BATCH]
    status, reply = connection.json(
        "check", "POST", "/v1/events", events_body(lines)
    )
    check(status == 200 and reply["accepted"] == len(lines),
          f"batch refused: {status} {reply}")
    connection.close()
    child.kill()
    expected = stream_totals(parts + [(late, len(lines))])
    for key, count in ctx.cover_totals.items():
        expected[key] += count
    child = ctx.spawn()
    connection = Connection(child.port, ctx.samples)
    check_totals(connection, expected)
    check_integrity(connection)
    status, after = connection.json("check", "GET", probe)
    check(
        status == 200
        and json.dumps(after["hits"], sort_keys=True)
        == json.dumps(before["hits"], sort_keys=True),
        "probe page changed across SIGKILL and restart",
    )
    connection.close()
    child.stop()
    ctx.measure_disk(events + len(lines))

    ctx.e2e["throughput_per_s"] = events / (end - start)
    ctx.latencies("write", ctx.of("write"))
    ctx.e2e["secondary_ms"] = cpu_s * 1e6 / events
    ctx.alias("events_per_s", "throughput_per_s", "events/s", events)
    ctx.alias("cpu_ms_per_kevent", "secondary_ms", "ms", events)
    ctx.alias("bytes_per_event", "bytes_per_event", "B", events)


# -- recall --------------------------------------------------------------------


def run_recall(ctx: Context) -> None:
    """Read-only ranked sessions over the preloaded corpus.

    Sessions walk a seeded permutation of every ``(tenant, term)``
    key, so a first page repeats only after every key was used — far
    beyond what the 512-entry query cache holds — and first pages sit
    on the scan, not between the scan and a cache hit.  Each session
    follows its cursor 0–3 times; continuations reuse the cached scan.
    """
    corpus = ctx.corpus
    child = ctx.setup(corpus.roots["full"])
    keys = recall_keys(corpus)
    ctx.rng.shuffle(keys)
    follow = [ctx.rng.randrange(4) for _ in keys]
    connections = [Connection(child.port, ctx.samples) for _ in range(THREADS)]
    halt = threading.Event()
    start = ctx.mark_start(connections[0])
    deadline = start + ctx.seconds

    def lane(index: int) -> None:
        connection = connections[index]
        session = index
        while not halt.is_set() and time.perf_counter() < deadline:
            user, term = keys[session % len(keys)]
            continuations = follow[session % len(keys)]
            session += THREADS
            seen: set[str] = set()
            status, page = connection.json(
                "page1", "GET", ranked_path(user, term),
                key=(RANKED, user, term, ""),
            )
            check_ok(status, page, "first page")
            check_page(page, seen)
            for _ in range(continuations):
                cursor = page["cursor"]
                if cursor is None:
                    break
                status, page = connection.json(
                    "next", "GET", ranked_path(user, term, cursor=cursor),
                    key=(RANKED, user, term, cursor),
                )
                check_ok(status, page, "continuation")
                check_page(page, seen)

    both(lambda: lane(0), lambda: lane(1), halt)
    end = ctx.mark_end(connections[0])
    for connection in connections:
        connection.close()
    ctx.finish(child, corpus.events)

    first, later = ctx.of("page1"), ctx.of("next")
    ctx.e2e["throughput_per_s"] = (len(first) + len(later)) / (end - start)
    ctx.latencies("page1", first)
    check(bool(later), "no continuation page completed")
    ctx.e2e["secondary_ms"] = percentile([s.ms for s in later], 50)
    ctx.alias("reads_per_s", "throughput_per_s", "requests/s",
              len(first) + len(later))
    ctx.alias("next_page_p50_ms", "secondary_ms", "ms", len(later))


# -- mixed ---------------------------------------------------------------------


def run_mixed(ctx: Context) -> None:
    """Open loop: each tenant's newer history streams in while it reads.

    The child starts from every tenant's older 60% (the cache's
    ``heads`` root).  Connection 1 writes the rest as 20-event batches
    at a fixed rate, tenants round-robin in seeded order; connection 2
    sends first pages at a fixed rate for the tenant being written,
    each due halfway between two writes so that which one reaches the
    server first is no race, plus a freshness probe after every 5th
    batch: a term that puts a node of that batch on the first page,
    re-asked until the page shows it.  Every latency runs from the
    request's due time, so a stall charges every request it delays;
    how late the generator itself ran is recorded too: from the later
    of the due time and the previous response on the connection (each
    has one request in flight) to the send.  The offered
    rate is fixed, so the throughput reported is the server's:
    requests completed per second of its CPU time.
    """
    corpus = ctx.corpus
    child = ctx.setup(corpus.roots["heads"])
    order = list(range(len(corpus.tenants)))
    ctx.rng.shuffle(order)
    batches: list[tuple[int, int, int]] = []
    offsets = {index: corpus.tenants[index].head for index in order}
    while True:
        before = len(batches)
        for index in order:
            tenant = corpus.tenants[index]
            position = offsets[index]
            if position < len(tenant.lines):
                count = min(MIXED_BATCH, len(tenant.lines) - position)
                batches.append((index, position, count))
                offsets[index] += count
        if len(batches) == before:
            break
    keys_of: dict[str, list[str]] = {}
    for user, term in recall_keys(corpus):
        keys_of.setdefault(user, []).append(term)
    span = min(ctx.seconds, len(batches) / MIXED_WRITES_PER_S)
    read_plan = []
    for index in range(int(span * MIXED_READS_PER_S)):
        batch = batches[index * READ_EVERY]
        user = corpus.tenants[batch[0]].user_id
        read_plan.append((user, ctx.rng.choice(keys_of[user])))
    writer = Connection(child.port, ctx.samples)
    reader = Connection(child.port, ctx.samples)
    halt = threading.Event()
    probes: deque = deque()
    wake = threading.Event()
    writing = threading.Event()
    writing.set()
    lateness = ctx.lateness
    fresh: list[float] = []
    cpu_before = child.cpu_s()
    start = ctx.mark_start(writer, lead=0.05)
    end = start + span

    def sleep_until(moment: float) -> None:
        delay = moment - time.perf_counter()
        if delay > 0:
            time.sleep(delay)

    def write_lane() -> None:
        try:
            write_batches()
        finally:
            writing.clear()
            wake.set()

    def write_batches() -> None:
        owed = 0
        for index, (owner, position, count) in enumerate(batches):
            tenant = corpus.tenants[owner]
            due = start + index / MIXED_WRITES_PER_S
            if halt.is_set() or due >= end:
                return
            sleep_until(due)
            lateness.append(time.perf_counter() - max(due, writer.last_done))
            status, reply = writer.json(
                "write", "POST", "/v1/events",
                events_body(tenant.lines[position:position + count]),
                due=due,
                key=(owner, tenant.user_id, position, count),
            )
            check(status == 200 and reply["accepted"] == count,
                  f"batch refused: {status} {reply}")
            owed += index % PROBE_EVERY == PROBE_EVERY - 1
            if owed:
                for event in tenant.events[position:position + count]:
                    node = getattr(event, "node", None)
                    term = node and probe_term(tenant, node.id, PAGE)
                    if term:
                        probes.append([tenant.user_id, term, node.id, due, 0.0])
                        owed -= 1
                        wake.set()
                        break

    def read_lane() -> None:
        index = 0
        while not halt.is_set():
            now = time.perf_counter()
            if probes and probes[0][4] <= now:
                user, term, node_id, due, _retry = probe = probes.popleft()
                status, page = reader.json(
                    "probe", "GET", ranked_path(user, term),
                    key=(RANKED, user, term, ""),
                )
                check_ok(status, page, "probe")
                if any(hit["nid"] == node_id for hit in page["hits"]):
                    fresh.append(time.perf_counter() - due)
                else:
                    check(time.perf_counter() - due < PROBE_TIMEOUT_S,
                          f"probe {node_id} never became visible")
                    probe[4] = time.perf_counter() + PROBE_RETRY_S
                    probes.appendleft(probe)
                continue
            if index >= len(read_plan):
                if not probes and not writing.is_set():
                    return
                wake.wait(0.001)
                wake.clear()
                continue
            due = start + (index * READ_EVERY + 0.5) / MIXED_WRITES_PER_S
            if now < due:
                wake.wait(due - now)
                wake.clear()
                continue
            lateness.append(now - max(due, reader.last_done))
            user, term = read_plan[index]
            index += 1
            status, page = reader.json(
                "page1", "GET", ranked_path(user, term), due=due,
                key=(RANKED, user, term, ""),
            )
            check_ok(status, page, "first page")
            check_page(page, set())

    both(write_lane, read_lane, halt)
    cpu_s = child.cpu_s() - cpu_before
    finished = ctx.mark_end(writer)
    # A read dispatches every shard's buffered events to the workers;
    # after the last one the backlog must drain to nothing on its own.
    user, term = read_plan[-1]
    status, body = writer.json("check", "GET", ranked_path(user, term))
    check_ok(status, body, "final read")
    drained = False
    give_up = time.perf_counter() + DRAIN_TIMEOUT_S
    while time.perf_counter() < give_up:
        status, health = writer.json("check", "GET", "/v1/health")
        check_ok(status, health, "/v1/health")
        if health["pending"] == 0:
            drained = True
            break
        time.sleep(0.05)
    check(drained, "ingest backlog did not drain")
    written = ctx.of("write")
    check(not probes, "probes still pending at the end")
    writer.close()
    reader.close()
    events = (sum(t.head for t in corpus.tenants)
              + sum(count for _t, _p, count in batches[:len(written)]))
    ctx.finish(child, events)

    reads_done = ctx.of("page1")
    served = len(written) + len(reads_done) + len(ctx.of("probe"))
    ctx.e2e["throughput_per_s"] = served / cpu_s
    ctx.latencies("page1", reads_done, p99=False)
    write_ms = [s.ms for s in written]
    ctx.e2e["secondary_ms"] = percentile(write_ms, 50)
    ctx.alias("requests_per_cpu_s", "throughput_per_s", "1/s", served)
    ctx.alias("write_p50_ms", "secondary_ms", "ms", len(write_ms))
    # 1,000 writes hold only ten beyond their p99, and where the host's
    # slow spells fall decides it (ten-seed spread 0.4-1.5): p95.
    ctx.extra(f"write_p{TAIL}_ms", write_ms, TAIL, "tail_ms")
    ctx.extra("fresh_p95_ms", [f * 1000.0 for f in fresh], 95, "tail_ms")
    late_ms = percentile(lateness, 99) * 1000.0
    ctx.named["lateness_p99_ms"] = (late_ms, "ms", len(lateness), None)
    ctx.named["offered_per_s"] = (served / (finished - start), "requests/s",
                                  served, None)


# -- forensics -----------------------------------------------------------------


def run_forensics(ctx: Context) -> None:
    """Operator cycles over eight of the preloaded tenants, one connection.

    The eight cases are every third tenant from the largest down, so
    they span the corpus's sizes.  A cycle takes the next case in
    size-interleaved order (every prefix of cycles spans small and
    large cases alike): 40 lineage walks from nodes no retention pass
    so far has touched, spread evenly over the tenant's history from a
    seeded offset, one case report, and one retention pass —
    ``forget_site`` on one of the tenant's small sites (at most 1% of
    its nodes), then ``expire_before`` a further 1/:data:`EXPIRY_SLICES`
    of its history.  Passes trim so little that a tenant's size, and so
    the cost of each operation on it, stays put however many cycles the
    run completes.  Case reports and retention passes cost what their
    tenant's size makes them cost (16x apart across the corpus); a run
    completes about four rounds of the eight cases, so every case's
    share of them is equal to within one visit in four, and their
    figures weigh every case alike.  Reports and redactions are checked after
    the timed window.
    """
    corpus = ctx.corpus
    child = ctx.setup(corpus.roots["full"])
    connection = Connection(child.port, ctx.samples)
    cases = corpus.tenants[::-FORENSIC_STRIDE]
    order = [cases[i] for i in interleaved(len(cases))]
    forgotten: dict[str, list[str]] = {t.user_id: [] for t in corpus.tenants}
    cutoffs = {t.user_id: 0 for t in corpus.tenants}
    sites = {t.user_id: forget_order(t, ctx.rng) for t in corpus.tenants}
    reports: list[bytes] = []
    retention_ms: dict[str, list[float]] = {}
    start = ctx.mark_start(connection)
    deadline = start + ctx.seconds
    cycle = 0
    while time.perf_counter() < deadline:
        tenant = order[cycle % len(order)]
        visit = cycle // len(order)
        cycle += 1
        user = tenant.user_id
        candidates = walk_candidates(
            tenant, set(forgotten[user]), cutoffs[user]
        )
        check(bool(candidates), f"{user} has no node left to walk from")
        offset = ctx.rng.random()
        for walk in range(WALKS_PER_CYCLE):
            node_id = candidates[
                int((walk + offset) * len(candidates) / WALKS_PER_CYCLE)
            ]
            direction = "ancestors" if walk % 2 == 0 else "descendants"
            status, body = connection.call(
                "walk", "GET",
                f"/v1/{direction}?" + urlencode({"user": user, "node": node_id}),
                key=(f"service.{direction}", user, node_id),
            )
            check_ok(status, body, f"{direction} walk")
        status, report = connection.call(
            "audit", "GET", "/v1/audit/report?" + urlencode({"user": user}),
            key=("service.audit_report", user),
        )
        check_ok(status, report, "audit report")
        reports.append(report)
        site = sites[user][visit % len(sites[user])]
        status, body = connection.call(
            "forget", "POST", "/v1/retention/forget_site",
            json.dumps({"user_id": user, "site": site}).encode(),
            key=("service.forget_site", user, site),
        )
        check_ok(status, body, "forget_site")
        forgotten[user].append(site)
        cutoff = tenant.first_us + (
            (tenant.last_us - tenant.first_us) * (visit + 1) // EXPIRY_SLICES
        )
        status, body = connection.call(
            "expire", "POST", "/v1/retention/expire_before",
            json.dumps({"user_id": user, "cutoff_us": cutoff}).encode(),
            key=("service.expire_before", user, cutoff),
        )
        check_ok(status, body, "expire_before")
        cutoffs[user] = max(cutoffs[user], cutoff)
        retention_ms.setdefault(user, []).append(
            ctx.samples[-1].ms + ctx.samples[-2].ms
        )
    end = ctx.mark_end(connection)

    for body in reports:
        check(report_digest_ok(json.loads(body)), "case report digest mismatch")
    for tenant in corpus.tenants:
        for site in forgotten[tenant.user_id]:
            term = max(site.replace("-", ".").split("."), key=len)
            status, page = connection.json(
                "check", "GET",
                ranked_path(tenant.user_id, term, limit=50),
            )
            check_ok(status, page, "redaction check")
            leaked = {hit["nid"] for hit in page["hits"]} & set(
                tenant.sites[site]
            )
            check(not leaked, f"{site} still answers for {tenant.user_id}")
    check_integrity(connection)
    connection.close()
    ctx.finish(child, corpus.events)

    walks, audits = ctx.of("walk"), ctx.of("audit")
    operations = len(walks) + len(audits) + len(ctx.of("forget", "expire"))
    ctx.e2e["throughput_per_s"] = operations / (end - start)
    ctx.latencies("walk", walks)
    audit_ms: dict[str, list[float]] = {}
    for sample in audits:
        audit_ms.setdefault(sample.key[1], []).append(sample.ms)
    ctx.e2e["secondary_ms"] = mean_of_medians(retention_ms)
    ctx.alias("operations_per_s", "throughput_per_s", "1/s", operations)
    ctx.alias("retention_p50_ms", "secondary_ms", "ms", len(audits))
    ctx.extra_value("audit_p50_ms", mean_of_medians(audit_ms), len(audits),
                    "p50_ms")


def mean_of_medians(by_case: dict[str, list[float]]) -> float:
    """The geometric mean over the cases of each case's median.

    Every case weighs the same however many visits the run made to it,
    and all eight contribute, where a median over the cases would rest
    on the one or two in the middle.
    """
    return statistics.geometric_mean(
        statistics.median(values) for values in by_case.values()
    )


RUNNERS = {
    "ingest": run_ingest,
    "recall": run_recall,
    "mixed": run_mixed,
    "forensics": run_forensics,
}
