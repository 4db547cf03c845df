"""Concurrency primitives for the service's two hot paths.

**Write path** — :class:`ShardWorkerPool` runs N flush *threads*;
every shard maps to exactly one worker (``shard % workers``), so
batches for one shard apply strictly in dispatch order while different
shards drain concurrently.  SQLite's one-writer-at-a-time limit
therefore applies *per shard file*, not globally — the single largest
ingest speedup available once users are hash-sharded across stores.
Threads overlap shard I/O (fsync, WAL writes) but the GIL serializes
the CPU side.  It is the only parallel write substrate: shard worker
processes measured 1.09x (fsync off) and 1.12x (fsync on) of these
threads at 2 CPUs, too little to carry a second dispatch protocol (the
decision is recorded in ``BENCH_service.json``).

Failure discipline: a batch that raises poisons its shard — later
batches for that shard are diverted, unapplied, into the failure list
(applying them would reorder writes past the hole).  :meth:`barrier`
callers collect the failures (batches in dispatch order, with the
original exception) and decide: the ingest pipeline requeues them into
its buffers and re-raises, keeping every event pending in-process while
the journal still holds them for crash replay.

**Read path** — :func:`scatter_gather` fans one task per shard across a
thread pool and returns results in task order, the primitive under
cross-shard ``global_search`` / ``aggregate_stats`` /
``ranked_search``; :func:`ranked_merge` heap-merges the per-shard
best-first result lists — whole search hits, not bare ids — into one
global page and reports how much of each shard's list the page
consumed, which is what score-bounded pagination needs to advance each
shard's continuation watermark.

Concurrency contract: the worker pool is driven by one pipeline thread
at a time (the ingest pipeline serializes dispatch/barrier under its
own lock), while any number of writers may park in
:meth:`ShardWorkerPool.wait_while` (the pipeline's apply-backlog flow
control) outside that lock; :func:`scatter_gather` tasks run on
arbitrary pool threads concurrently with flush workers, so they must
only touch stores through checkout + read connections.
:func:`ranked_merge` is pure computation — no locks, safe anywhere.
"""

from __future__ import annotations

import heapq
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from queue import SimpleQueue
from typing import Any, Callable, Sequence

from repro.errors import ConfigurationError

_STOP = object()


@dataclass
class ShardFailure:
    """What a poisoned shard has accumulated by barrier time."""

    shard: int
    error: BaseException
    #: Batches in dispatch order: the one that raised, then every batch
    #: diverted (unapplied) behind it.
    batches: list[Any] = field(default_factory=list)


class ShardWorkerPool:
    """N flush workers with shard-affine, order-preserving dispatch."""

    def __init__(
        self,
        apply: Callable[[int, Any], None],
        *,
        workers: int,
        name: str = "shard-flush",
    ) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self._apply = apply
        self._queues: list[SimpleQueue] = [SimpleQueue() for _ in range(workers)]
        self._threads: list[threading.Thread | None] = [None] * workers
        self._name = name
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)
        self._outstanding = 0
        self._outstanding_by_shard: dict[int, int] = {}
        self._failures: dict[int, ShardFailure] = {}
        self._holds: dict[int | None, int] = {}  # waiting barriers
        self._closed = False

    @property
    def workers(self) -> int:
        return len(self._queues)

    def worker_of(self, shard: int) -> int:
        """The worker index owning *shard* (stable, order-preserving)."""
        return shard % len(self._queues)

    # -- dispatch ---------------------------------------------------------------

    def dispatch(self, shard: int, batch: Any) -> None:
        """Queue *batch* for *shard*'s worker; returns immediately."""
        index = self.worker_of(shard)
        with self._lock:
            if self._closed:
                raise ConfigurationError("worker pool is closed")
            self._outstanding += 1
            self._outstanding_by_shard[shard] = (
                self._outstanding_by_shard.get(shard, 0) + 1
            )
            self._ensure_worker(index)
        self._queues[index].put((shard, batch))

    def _ensure_worker(self, index: int) -> None:
        thread = self._threads[index]
        if thread is None or not thread.is_alive():
            thread = threading.Thread(
                target=self._loop,
                args=(self._queues[index],),
                name=f"{self._name}-{index}",
                daemon=True,
            )
            self._threads[index] = thread
            thread.start()

    def _loop(self, queue: SimpleQueue) -> None:
        while True:
            job = queue.get()
            if job is _STOP:
                return
            shard, batch = job
            try:
                # The poison check and the diversion must share the lock
                # with drain_failures: an unlocked append could land on a
                # ShardFailure a barrier just drained, orphaning the
                # batch (never applied, never requeued) and pinning the
                # checkpoint at its first sequence forever.
                with self._lock:
                    failure = self._failures.get(shard)
                    if failure is not None:
                        # Order past the hole is unrecoverable mid-
                        # flight; park the batch for the barrier.
                        failure.batches.append(batch)
                        diverted = True
                    else:
                        diverted = False
                if not diverted:
                    try:
                        self._apply(shard, batch)
                    except BaseException as exc:  # noqa: BLE001 — reported at barrier
                        with self._lock:
                            self._failures[shard] = ShardFailure(
                                shard=shard, error=exc, batches=[batch]
                            )
            finally:
                with self._done:
                    self._outstanding -= 1
                    left = self._outstanding_by_shard[shard] - 1
                    if left:
                        self._outstanding_by_shard[shard] = left
                    else:
                        del self._outstanding_by_shard[shard]
                    self._done.notify_all()

    # -- synchronization --------------------------------------------------------

    def barrier(self, shard: int | None = None) -> None:
        """Block until every dispatched batch (or *shard*'s) is settled.

        Settled means applied or parked in a failure; inspect
        :meth:`drain_failures` afterwards.  It holds its target while
        it waits (see :meth:`holding`).
        """
        with self._done:
            self._holds[shard] = self._holds.get(shard, 0) + 1
            try:
                self._done.wait_for(lambda: not (
                    self._outstanding if shard is None
                    else self._outstanding_by_shard.get(shard, 0)
                ))
            finally:
                self._holds[shard] -= 1

    def holding(self, shard: int) -> bool:
        """True while a barrier on *shard* (or on every shard) waits;
        a batch nobody waits on should stay buffered meanwhile."""
        with self._lock:
            return bool(self._holds.get(None) or self._holds.get(shard))

    def wait_while(self, busy: Callable[[], bool]) -> bool:
        """Block while *busy()* holds and some dispatched batch is
        unsettled; returns whether it blocked at all.

        Every settle (applied or parked) wakes the waiters, so *busy*
        is re-checked after each.  It runs under the pool lock and must
        not take a lock a dispatcher holds.
        """
        waited = False
        with self._done:
            while self._outstanding and busy():
                self._done.wait()
                waited = True
        return waited

    def drain_failures(
        self, shard: int | None = None
    ) -> list[ShardFailure]:
        """Remove and return failures (all, or one shard's), unpoisoning
        the affected shards so requeued batches can be retried."""
        with self._lock:
            if shard is None:
                failures = [self._failures[key] for key in sorted(self._failures)]
                self._failures.clear()
            else:
                found = self._failures.pop(shard, None)
                failures = [found] if found is not None else []
        return failures

    def poisoned(self, shard: int) -> bool:
        """True while *shard* has an undrained failure parked."""
        with self._lock:
            return shard in self._failures

    def close(self) -> None:
        """Stop the workers after their queues drain."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for queue in self._queues:
            queue.put(_STOP)
        for thread in self._threads:
            if thread is not None and thread.is_alive():
                thread.join()


def scatter_gather(
    tasks: Sequence[Callable[[], Any]],
    *,
    executor: ThreadPoolExecutor | None = None,
    max_workers: int | None = None,
) -> list[Any]:
    """Run *tasks* concurrently; results in task order.

    Waits for every task even when one fails (a half-finished fan-out
    would leave workers racing the caller's next step), then re-raises
    the first exception in task order.  Pass a long-lived *executor* on
    hot paths to skip per-call thread spawning.
    """
    if not tasks:
        return []
    if len(tasks) == 1:  # no threads for the degenerate fan-out
        return [tasks[0]()]
    if executor is not None:
        futures = [executor.submit(task) for task in tasks]
    else:
        own = ThreadPoolExecutor(
            max_workers=max_workers or min(len(tasks), 16),
            thread_name_prefix="scatter",
        )
        try:
            futures = [own.submit(task) for task in tasks]
        finally:
            own.shutdown(wait=False)
    results: list[Any] = []
    first_error: BaseException | None = None
    for future in futures:
        try:
            results.append(future.result())
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            if first_error is None:
                first_error = exc
            results.append(None)
    if first_error is not None:
        raise first_error
    return results


def ranked_merge(
    lists: Sequence[Sequence[Any]],
    limit: int,
    *,
    key: Callable[[Any], Any],
) -> tuple[list[Any], list[int]]:
    """Heap-merge per-shard best-first lists into one global page.

    Each input list must already be sorted ascending by *key* (the
    shards' ``(-score, id)`` total order); the merge consumes lazily,
    stopping after *limit* items — a shard whose hits all rank below
    the page boundary contributes nothing and is never walked.

    Returns ``(merged, consumed)`` where ``consumed[i]`` counts how
    many items of ``lists[i]`` made it into the page.  The counts are
    what paged search needs to advance each shard's continuation
    watermark: a shard resumes below its *last consumed* hit, not below
    the last hit it happened to fetch.  Since PR 5 the rows carry whole
    hits (id, score, snippet, matched terms), not bare ids — the merge
    is agnostic, ordering purely by *key*.
    """
    heap: list[tuple[Any, int, int]] = []
    for index, rows in enumerate(lists):
        if rows:
            heap.append((key(rows[0]), index, 0))
    heapq.heapify(heap)
    consumed = [0] * len(lists)
    merged: list[Any] = []
    while heap and len(merged) < limit:
        _key, index, position = heapq.heappop(heap)
        merged.append(lists[index][position])
        consumed[index] = position + 1
        position += 1
        if position < len(lists[index]):
            heapq.heappush(
                heap, (key(lists[index][position]), index, position)
            )
    return merged, consumed
