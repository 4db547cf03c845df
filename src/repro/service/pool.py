"""The sharded store pool.

Hash-shards user ids across N :class:`~repro.core.store.ProvenanceStore`
backends.  Shard assignment uses a *stable* hash (SHA-1 of the user id)
so a user's data lands in the same shard file across processes and
Python invocations — the builtin ``hash`` is salted per process and
would scatter tenants on every restart.

Shard stores open lazily on first touch and sit in an LRU of open
connections: a deployment with hundreds of shard files keeps only
``max_open`` SQLite handles live, evicting (commit + close) the
least-recently-used.  In-memory pools (``root=None``) never evict,
because closing a ``:memory:`` database discards it.

The pool is thread-safe: per-shard flush workers and scatter-gather
query threads all route through it concurrently.  A thread that will
*use* a store (not just route) takes it through :meth:`checkout`, which
pins the shard against LRU eviction for the duration — otherwise a
cache-cold thread opening its shard could evict (close!) a store
another thread is mid-transaction on.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass

from repro.core.store import ProvenanceStore
from repro.errors import ConfigurationError
from repro.service.metrics import NULL_REGISTRY


def shard_for(user_id: str, shards: int) -> int:
    """Stable shard index for *user_id* (SHA-1 based, process-independent)."""
    digest = hashlib.sha1(user_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


@dataclass(frozen=True)
class PoolStats:
    """Connection-pool accounting."""

    shards: int
    opens: int
    hits: int
    evictions: int
    open_now: int


class StorePool:
    """Lazily opened, LRU-bounded pool of sharded provenance stores."""

    def __init__(
        self,
        root: str | None,
        *,
        shards: int = 4,
        max_open: int = 8,
        metrics: object = NULL_REGISTRY,
    ) -> None:
        if shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if max_open < 1:
            raise ConfigurationError("max_open must be >= 1")
        self.root = root
        self.shards = shards
        self.max_open = max_open
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._metric_opens = self.metrics.counter("pool.opens")
        self._metric_evictions = self.metrics.counter("pool.evictions")
        self._metric_checkouts = self.metrics.counter(
            "pool.checkouts", label_name="shard"
        )
        self._metric_checkout_wait = self.metrics.histogram("pool.checkout_wait")
        if root is not None:
            os.makedirs(root, exist_ok=True)
        self._lock = threading.RLock()
        self._open: OrderedDict[int, ProvenanceStore] = OrderedDict()
        self._pins: dict[int, int] = {}
        #: user id -> shard memo: SHA-1 per routed event is measurable
        #: on the ingest hot path.  Bounded; cleared on overflow.
        self._shard_cache: dict[str, int] = {}
        self._opens = 0
        self._hits = 0
        self._evictions = 0

    # -- routing ----------------------------------------------------------------

    def shard_of(self, user_id: str) -> int:
        shard = self._shard_cache.get(user_id)
        if shard is None:
            if len(self._shard_cache) >= 1 << 20:
                self._shard_cache.clear()
            shard = self._shard_cache[user_id] = shard_for(
                user_id, self.shards
            )
        return shard

    def shard_path(self, shard: int) -> str:
        if self.root is None:
            return ":memory:"
        return os.path.join(self.root, f"shard-{shard:04d}.sqlite")

    def populated_shards(self) -> list[int]:
        """Shards that can hold data: open now, or present on disk.

        The scatter-gather fan-out iterates these instead of all
        ``shards`` indices so a mostly-empty deployment does not open
        (and thereby create) hundreds of empty shard files per query.
        """
        with self._lock:
            found = set(self._open)
        if self.root is not None:
            for shard in range(self.shards):
                if shard not in found and os.path.exists(self.shard_path(shard)):
                    found.add(shard)
        return sorted(found)

    # -- access -----------------------------------------------------------------

    def store(self, shard: int) -> ProvenanceStore:
        """The open store for *shard*, opening or reviving it as needed."""
        if not 0 <= shard < self.shards:
            raise ConfigurationError(
                f"shard {shard} out of range for {self.shards} shards"
            )
        with self._lock:
            cached = self._open.get(shard)
            if cached is not None:
                self._open.move_to_end(shard)
                self._hits += 1
                return cached
            # In-memory shards must never be evicted (close == data
            # loss), so the LRU bound applies only to disk-backed
            # pools.  Pinned shards (checked out by a live thread) are
            # skipped: closing one under its user would be a use-after-
            # close; the bound is temporarily exceeded instead.
            if self.root is not None:
                while len(self._open) >= self.max_open:
                    victim = next(
                        (
                            candidate
                            for candidate in self._open
                            if not self._pins.get(candidate)
                        ),
                        None,
                    )
                    if victim is None:
                        break
                    evicted = self._open.pop(victim)
                    evicted.close()
                    self._evictions += 1
                    self._metric_evictions.inc()
            store = ProvenanceStore(self.shard_path(shard), metrics=self.metrics)
            self._open[shard] = store
            self._opens += 1
            self._metric_opens.inc()
            return store

    def store_for(self, user_id: str) -> ProvenanceStore:
        return self.store(self.shard_of(user_id))

    @contextmanager
    def checkout(self, shard: int):
        """Yield *shard*'s store, pinned against LRU eviction.

        Every cross-thread use (flush workers, scatter-gather readers)
        goes through here; plain :meth:`store` remains for
        single-threaded callers and routing checks.
        """
        started = time.perf_counter()
        with self._lock:
            store = self.store(shard)
            self._pins[shard] = self._pins.get(shard, 0) + 1
        self._metric_checkouts.inc(1, label=shard)
        self._metric_checkout_wait.observe(time.perf_counter() - started)
        try:
            yield store
        finally:
            with self._lock:
                left = self._pins.get(shard, 1) - 1
                if left:
                    self._pins[shard] = left
                else:
                    self._pins.pop(shard, None)

    # -- lifecycle --------------------------------------------------------------

    @property
    def open_count(self) -> int:
        with self._lock:
            return len(self._open)

    def stats(self) -> PoolStats:
        with self._lock:
            return PoolStats(
                shards=self.shards,
                opens=self._opens,
                hits=self._hits,
                evictions=self._evictions,
                open_now=len(self._open),
            )

    def close(self) -> None:
        with self._lock:
            for store in self._open.values():
                store.close()
            self._open.clear()

    def __enter__(self) -> "StorePool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
