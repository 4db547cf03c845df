"""Span recorders around each layer's public entry points (traced runs).

The server child installs these only under ``--trace 1``.  Every
wrapper is installed *at the module where the caller looks the name
up* — ``repro.service.ingest.apply_event_batch`` rather than
``repro.service.apply.apply_event_batch``, class attributes for
methods — so the program's own code is untouched and its 1-in-16
sampled metrics stay exactly as they are.

A span is ``(id, name, start, end, thread, parent, tag)``: *parent*
is the innermost open span on the same thread (0 at the top), and
*tag* is a small value taken from the call (a batch identity, a row
count, a pairing key) that the ledger needs.  Spans are kept in memory
and written as JSONL when the child stops.  Times are
``time.perf_counter()``, which on Linux is the system-wide monotonic
clock, so the client can line spans up with its own request times.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from importlib import import_module
from typing import Any, Callable

ALL = frozenset({"ingest", "recall", "mixed", "forensics"})
WRITES = frozenset({"ingest", "mixed"})
SEARCH = frozenset({"recall", "mixed"})
FORENSICS = frozenset({"forensics"})


def _event_key(event) -> list:
    """Pairs a write request with the facade spans of its events."""
    return [event.user_id, type(event).__name__, event_ident(event)]


def event_ident(event) -> str:
    """An event's identity within its tenant's stream."""
    if hasattr(event, "node"):
        return event.node.id
    if hasattr(event, "edge"):
        edge = event.edge
        return f"{edge.src}>{edge.dst}@{edge.timestamp_us}"
    interval = event.interval
    return f"{interval.node_id}@{interval.opened_us}"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


#: (span name, module, attribute, workloads that must fire it, tag).
#: A tag function receives ``(args, kwargs, result)``.
WRAPPERS: tuple[tuple[str, str, str, frozenset, Callable | None], ...] = (
    ("wire.read_request", "repro.service.server", "read_request",
     ALL, None),
    ("wire.encode_response", "repro.service.server", "encode_response",
     ALL, lambda a, k, r: len(r)),
    ("admission.admit_write", "repro.service.admission",
     "AdmissionController.admit_write", WRITES, None),
    ("admission.admit_read", "repro.service.admission",
     "AdmissionController.admit_read", ALL - {"ingest"}, None),
    ("events.decode_event", "repro.service.server", "decode_event",
     WRITES, None),
    ("service.record_event", "repro.service.service",
     "ProvenanceService.record_event", WRITES,
     lambda a, k, r: _event_key(_arg(a, k, 1, "event"))),
    ("service.ranked_search", "repro.service.service",
     "ProvenanceService.ranked_search", ALL - {"ingest"},
     lambda a, k, r: [k.get("user_id"), _arg(a, k, 1, "term"),
                      k.get("cursor") or "", len(r.hits)]),
    ("service.ancestors", "repro.service.service",
     "ProvenanceService.ancestors", FORENSICS,
     lambda a, k, r: [a[1], a[2]]),
    ("service.descendants", "repro.service.service",
     "ProvenanceService.descendants", FORENSICS,
     lambda a, k, r: [a[1], a[2]]),
    ("service.audit_report", "repro.service.service",
     "ProvenanceService.audit_report", FORENSICS,
     lambda a, k, r: [a[1]]),
    ("service.forget_site", "repro.service.service",
     "ProvenanceService.forget_site", FORENSICS,
     lambda a, k, r: [a[1], a[2]]),
    ("service.expire_before", "repro.service.service",
     "ProvenanceService.expire_before", FORENSICS,
     lambda a, k, r: [a[1], a[2]]),
    ("service.flush", "repro.service.service",
     "ProvenanceService.flush", frozenset({"ingest"}), None),
    ("service.aggregate_stats", "repro.service.service",
     "ProvenanceService.aggregate_stats", frozenset({"ingest"}), None),
    ("service.verify_integrity", "repro.service.service",
     "ProvenanceService.verify_integrity", frozenset({"ingest", "forensics"}),
     None),
    ("service.health", "repro.service.service",
     "ProvenanceService.health", frozenset({"mixed"}), None),
    ("ingest.submit", "repro.service.ingest", "IngestPipeline.submit",
     WRITES, None),
    ("ingest.submit_edge", "repro.service.ingest",
     "IngestPipeline.submit_edge", WRITES, None),
    ("ingest.flush", "repro.service.ingest", "IngestPipeline.flush",
     frozenset({"ingest", "forensics"}), None),
    ("ingest.drain_for_read", "repro.service.ingest",
     "IngestPipeline.drain_for_read", frozenset({"mixed"}), None),
    ("journal.sync", "repro.service.ingest", "IngestJournal.sync",
     WRITES, None),
    ("journal.compact", "repro.service.ingest", "IngestJournal.compact",
     WRITES | FORENSICS, lambda a, k, r: r),
    ("journal.record_tombstone", "repro.service.ingest",
     "IngestJournal.record_tombstone", FORENSICS, None),
    ("parallel.dispatch", "repro.service.parallel",
     "ShardWorkerPool.dispatch", WRITES,
     lambda a, k, r: id(_arg(a, k, 2, "batch"))),
    ("apply.apply_event_batch", "repro.service.ingest", "apply_event_batch",
     WRITES,
     lambda a, k, r: [id(_arg(a, k, 1, "batch")),
                      len(_arg(a, k, 1, "batch"))]),
    ("indexer.batch_index_docs", "repro.service.apply", "batch_index_docs",
     WRITES, lambda a, k, r: len(_arg(a, k, 0, "batch"))),
    ("indexer.ensure_index", "repro.service.service", "ensure_index",
     SEARCH, None),
    ("search.shard_ranked_scan", "repro.service.service",
     "shard_ranked_scan", SEARCH, lambda a, k, r: len(r)),
    ("search.attach_snippets", "repro.service.service", "attach_snippets",
     SEARCH, lambda a, k, r: len(r)),
    ("search.slice_after", "repro.service.service", "slice_after",
     SEARCH, None),
    ("search.encode_cursor", "repro.service.service", "encode_cursor",
     frozenset({"recall"}), None),
    ("search.decode_cursor", "repro.service.service", "decode_cursor",
     frozenset({"recall"}), None),
    ("cache.get_or_compute", "repro.service.cache",
     "QueryCache.get_or_compute", ALL - {"ingest"}, None),
    ("pool.checkout", "repro.service.pool", "StorePool.checkout",
     ALL, None),
    ("store.load_subgraph", "repro.core.store",
     "ProvenanceStore.load_subgraph", FORENSICS, None),
    ("store.delete_nodes_by_id", "repro.core.store",
     "ProvenanceStore.delete_nodes_by_id", FORENSICS, None),
    ("audit.build_case_report", "repro.service.service",
     "build_case_report", FORENSICS, None),
)


class SpanRecorder:
    """In-memory span log plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, tag: Callable | None) -> Callable:
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter
        ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, ident(), parent, None))
                raise
            end = clock()
            stack.pop()
            label = tag(args, kwargs, result) if tag is not None else None
            spans.append((sid, name, start, end, ident(), parent, label))
            return result

        return wrapper

    def wrap_reader(self, name: str, fn: Callable) -> Callable:
        """``read_request`` timed from the arrival of the request line.

        A keep-alive connection parks in ``read_request`` until the
        client's next request; timing from the call would book the
        client's think time (or an open loop's schedule gap) as wire
        time.  The wrapper hands ``read_request`` a reader proxy that
        stamps the moment the request line is in.
        """
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        ident = threading.get_ident

        @functools.wraps(fn)
        async def wrapper(reader, *args, **kwargs):
            proxy = _StampingReader(reader, clock)
            result = await fn(proxy, *args, **kwargs)
            if result is not None and proxy.stamp is not None:
                spans.append(
                    (next(ids), name, proxy.stamp, clock(), ident(), 0, None)
                )
            return result

        return wrapper

    def wrap_enter(self, name: str, fn: Callable) -> Callable:
        """A context-manager factory whose ``__enter__`` is the span."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedEnter(recorder, name, fn(*args, **kwargs))

        return wrapper

    def record(self, name: str, start: float, end: float) -> None:
        stack = self._stack()
        parent = stack[-1] if stack else 0
        self.spans.append(
            (next(self._ids), name, start, end, threading.get_ident(), parent,
             None)
        )

    def install(self) -> None:
        """Patch every entry point in :data:`WRAPPERS`.

        A name that no longer exists (a refactor moved it) is recorded
        in :attr:`missing` instead of failing the run; the ledger lists
        it and the smoke test fails on it.
        """
        for name, module_name, attribute, _workloads, tag in WRAPPERS:
            owner = import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            if name == "wire.read_request":
                wrapped = self.wrap_reader(name, original)
            elif name == "pool.checkout":
                wrapped = self.wrap_enter(name, original)
            else:
                wrapped = self.wrap(name, original, tag)
            setattr(owner, leaf, wrapped)

    def dump(self, path: str) -> None:
        """Write a meta line, then one JSON array per span."""
        threads = {
            str(thread.ident): thread.name for thread in threading.enumerate()
        }
        spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"threads": threads, "missing": self.missing})
                + "\n"
            )
            handle.write("\n".join(json.dumps(span) for span in spans))
            handle.write("\n")


class _StampingReader:
    """The two stream calls ``read_request`` makes, first line stamped."""

    __slots__ = ("_reader", "_clock", "stamp")

    def __init__(self, reader: Any, clock: Callable[[], float]) -> None:
        self._reader = reader
        self._clock = clock
        self.stamp: float | None = None

    async def readline(self) -> bytes:
        line = await self._reader.readline()
        if self.stamp is None:
            self.stamp = self._clock()
        return line

    async def readexactly(self, count: int) -> bytes:
        return await self._reader.readexactly(count)


class _TimedEnter:
    __slots__ = ("_recorder", "_name", "_cm")

    def __init__(self, recorder: SpanRecorder, name: str, cm: Any) -> None:
        self._recorder = recorder
        self._name = name
        self._cm = cm

    def __enter__(self):
        start = time.perf_counter()
        value = self._cm.__enter__()
        self._recorder.record(self._name, start, time.perf_counter())
        return value

    def __exit__(self, *exc_info):
        return self._cm.__exit__(*exc_info)
