"""Journaled, batched, shard-parallel ingest for the multi-tenant service.

Writes take two hops:

1. **Journal** — every accepted event is appended to a replayable
   JSON-lines journal *before* it is acknowledged.  The journal is the
   durability boundary: once :meth:`IngestJournal.append` returns, a
   *process* crash cannot lose the event.  Appends group-commit:
   concurrent submitters stage lines under a tiny sequence lock, and
   whichever thread reaches the writer lock first drains every staged
   line in one ``write`` (+ optional ``fsync``), so N concurrent
   submitters share one durability round-trip instead of paying one
   each.  The default ``fsync=False`` leaves the bytes in the OS page
   cache; construct with ``fsync=True`` to extend the guarantee to
   power loss — group commit is what makes that affordable.
2. **Flush** — buffered events drain into the sharded SQLite stores in
   batched transactions.  With ``workers=N`` the pipeline dispatches
   each shard's batches to a
   :class:`~repro.service.parallel.ShardWorkerPool` of N flush
   threads: every shard maps to one worker, so SQLite's one-writer
   limit applies per shard file and the shards commit concurrently
   (I/O overlaps; CPU stays GIL-bound).  A batch is dispatched only
   after its events are journal-synced, and the checkpoint advances
   only past settled batches.

   ``workers=None`` keeps the original serial drain (the benchmark
   baseline).  :meth:`IngestPipeline.flush` is a barrier — it joins the
   workers — and :meth:`IngestPipeline.drain_for_read` gives queries
   read-your-own-writes by draining the caller's shard synchronously
   while other shards keep flushing in the background.

The journal is segmented: when the active file exceeds
``rotate_bytes`` it is rotated to a ``<path>.seg-<lastseq>`` sidecar,
and compaction deletes any segment whose entries are all checkpointed —
so a long-lived service reclaims journal space even while new events
are always in flight (previously the whole single file could only be
truncated when *everything* was flushed).

Crash recovery is :meth:`IngestPipeline.replay`: entries past the
checkpoint are re-applied.  Node and edge rows are idempotent and
interval rows upsert on ``(nid, opened_us)``, so delivery is
exactly-once for all three.  An entry that can never apply (e.g. an
edge with a never-recorded endpoint) is quarantined to the journal's
``.deadletter`` sidecar instead of failing replay on every reopen.

Tenant namespacing (id prefixes) happens at flush time, so the journal
holds the user's own raw ids and the codec stays symmetric with the
public API.
"""

from __future__ import annotations

import json
import os
import threading
import time
from bisect import bisect_right
from hashlib import sha256 as _sha256
from collections import deque
from dataclasses import dataclass

from repro.core.model import AttrValue, ProvEdge
from repro.core.taxonomy import EdgeKind
from repro.errors import ConfigurationError, ReproError
from repro.service.apply import apply_event_batch
from repro.service.cache import QueryCache
from repro.service.events import (
    EdgeEvent,
    ProvEvent,
    decode_event,
    encode_edge_json_parts,
    encode_event,
    encode_event_json,
)
from repro.service.integrity import (
    GENESIS,
    INTEGRITY_VERSION,
    IntegrityReport,
    TOMBSTONE_CAP,
    chain_hash,
    load_or_create_key,
    load_signed,
    parse_chained_line,
    tombstone_core,
    verify_journal,
    write_signed,
)
from repro.service.metrics import COUNT_BUCKETS, NULL_REGISTRY
from repro.service.parallel import ShardWorkerPool
from repro.service.pool import StorePool
from repro.service.tracing import NULL_TRACER

#: Hot-path latency histograms record one in ``2**_SAMPLE_SHIFT``
#: events.  Per-event timing of a 20k events/s stream would spend a
#: measurable share of the 3% instrumentation budget on clock reads
#: alone; uniform sampling keeps the quantile estimates honest at a
#: fraction of the cost.  Counters are never sampled — they stay exact.
_SAMPLE_SHIFT = 4
_SAMPLE_MASK = (1 << _SAMPLE_SHIFT) - 1

#: Reclaimable bytes before the pipeline's per-flush compaction pass
#: bothers.  Routine truncation is cheap with integrity off, but with
#: it on every truncation re-attests the manifest (a signed write);
#: amortizing that over a real chunk of space keeps the integrity tax
#: inside its 3% bench budget while bounding journal overhang to ~1 MiB
#: past the checkpoint.  Explicit :meth:`IngestJournal.compact` calls
#: still compact immediately.
COMPACT_MIN_BYTES = 1 << 20


class IngestJournal:
    """Segmented, group-committing JSON-lines journal with a checkpoint.

    Each line is ``{"seq": n, "ev": {...}}`` — plus, with
    ``integrity=True``, a trailing ``"h"`` field carrying the record's
    rolling SHA-256 chain value (see :mod:`repro.service.integrity`):
    staging records only the sequence, tenant and payload; the
    group-commit leader chains the drained batch in sequence order
    (the allocation order *is* the chain order) just before writing
    it, rotation seals each finished segment with a signed digest
    sidecar, and a signed-root manifest attests the durable head,
    per-tenant attestations, and a tombstone log of deliberate
    deletions.  :meth:`verify_integrity` re-attests and walks the whole
    thing.

    The checkpoint sidecar records the highest sequence number known to
    be flushed to the stores; everything after it is replayed on
    recovery.  A torn final line in the active file (crash mid-write)
    is tolerated: replay stops at the first undecodable line.  Rotated
    segments are always complete — rotation happens on record
    boundaries.
    """

    def __init__(
        self,
        path: str,
        *,
        fsync: bool = False,
        rotate_bytes: int | None = None,
        integrity: bool = False,
        metrics: object = NULL_REGISTRY,
    ) -> None:
        if rotate_bytes is not None and rotate_bytes < 1:
            raise ConfigurationError("rotate_bytes must be >= 1 (or None)")
        self.path = path
        self.fsync = fsync
        self.rotate_bytes = rotate_bytes
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._metric_group_commits = registry.counter("journal.group_commits")
        self._metric_fsyncs = registry.counter("journal.fsyncs")
        self._metric_rotations = registry.counter("journal.rotations")
        self._metric_compactions = registry.counter("journal.compactions")
        self._metric_compacted_bytes = registry.counter("journal.compacted_bytes")
        self._metric_deadletters = registry.counter("journal.deadletters")
        self._metric_sync = registry.histogram("journal.sync")
        self._metric_group_size = registry.histogram(
            "journal.group_size", bounds=COUNT_BUCKETS
        )
        self._sample_tick = 0
        # Group commits happen per event in serial mode, so the
        # counter increments are tallied locally (single-writer: the
        # io lock serializes every commit) and flushed to the registry
        # on the sampling tick — a locked Counter.inc per event is the
        # single biggest instrumentation cost on the serial hot path.
        self._pending_commits = 0
        self._pending_fsyncs = 0
        self._ckpt_path = path + ".ckpt"
        self._deadletter_path = path + ".deadletter"
        #: Guards sequence allocation and the staged-lines buffer.
        self._seq_lock = threading.Lock()
        #: Serializes file writes; the group-commit leader holds it.
        self._io_lock = threading.Lock()
        #: Broadcast after every durable advance: followers wait here
        #: (with a bounded timeout) instead of queueing on the writer
        #: lock, so a group's worth of them wakes concurrently rather
        #: than in a serialized lock handoff.
        self._sync_cond = threading.Condition(threading.Lock())
        #: Followers currently parked on the condition; leaders skip
        #: the notify entirely when nobody waits (the single-submitter
        #: hot path must not pay a lock round-trip per append).
        self._sync_waiters = 0
        #: Staged-but-unwritten entries: finished lines (plain
        #: strings) with integrity off, ``(seq, user_id, payload)``
        #: tuples with it on — the commit leader chains and renders
        #: the whole batch in one pass (see
        #: :meth:`_write_staged_locked`).
        self._staged: list = []
        self._flushed = self._read_checkpoint()
        last_segment = max(
            (last for _path, last in self._segments()), default=0
        )
        last_active = self._recover_tail()
        #: Highest sequence whose line has reached the file.
        self._durable = max(last_segment, last_active)
        self._next_seq = max(self._durable, self._flushed) + 1
        #: Integrity state (see :mod:`repro.service.integrity`): the
        #: chain head, durable head, and per-tenant heads all advance
        #: at durable-write time — the group-commit leader hashes the
        #: drained batch — and the manifest attests the durable state
        #: at rotation/compaction/close.
        self._integrity = bool(integrity)
        self._manifest_path = path + ".manifest"
        self._key: bytes | None = None
        self._chain_head = GENESIS
        self._durable_head = GENESIS
        self._anchor_seq = 0
        self._anchor = GENESIS
        #: user -> [chain, events, last_seq]
        self._tenants: dict[str, list] = {}
        self._tombstones: list[dict] = []
        self._tombstone_anchor = GENESIS
        self._tombstone_head = GENESIS
        #: First sequence currently in the active file (seal metadata).
        self._seg_first: int | None = None
        if self._integrity:
            self._key = load_or_create_key(path)
            self._recover_integrity_state()
        self._handle = open(path, "a", encoding="utf-8")

    # -- writing ----------------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """The sequence number the next :meth:`append` will assign."""
        return self._next_seq

    @property
    def last_seq(self) -> int:
        return self._next_seq - 1

    @property
    def flushed_seq(self) -> int:
        return self._flushed

    @property
    def durable_seq(self) -> int:
        """Highest sequence whose line has reached the file.

        Every line up to it is written (and fsynced with
        ``fsync=True``); a staged line above it may still be lost.
        """
        return self._durable

    @property
    def deadletter_path(self) -> str:
        return self._deadletter_path

    def append(self, event: ProvEvent) -> int:
        """Durably journal one event; returns its sequence number."""
        return self.sync(self.stage(event))

    def stage(self, event: ProvEvent, payload: str | None = None) -> int:
        """Assign a sequence and stage the line, without touching disk.

        The ingest pipeline stages under its own lock so an allocated
        sequence is never invisible to checkpoint accounting, then
        calls :meth:`sync` outside that lock to pay the I/O.  Callers
        holding a contended lock can pass *payload* (a precomputed
        :func:`encode_event_json`) so the encode happens outside it.
        """
        if payload is None:
            payload = encode_event_json(event)
        if self._integrity:
            # The chain rides the group commit: staging only records
            # what the commit leader needs, and the leader hashes the
            # whole drained batch back-to-back in one tight loop (see
            # :meth:`_write_staged_locked`).  Batching the SHA-256
            # work keeps its code and data cache-hot instead of
            # paying a cold hash between every event's index work —
            # the bench holds the whole tax under 3% of ingest.
            with self._seq_lock:
                seq = self._next_seq
                self._next_seq = seq + 1
                self._staged.append((seq, event.user_id, payload))
            return seq
        with self._seq_lock:
            seq = self._next_seq
            self._next_seq = seq + 1
            self._staged.append(f'{{"seq":{seq},"ev":{payload}}}\n')
        return seq

    def sync(self, seq: int) -> int:
        """Ensure the staged line for *seq* has reached the file.

        The group commit: whichever thread wins the writer lock is the
        leader and writes (+fsyncs) every staged line in one shot;
        concurrent submitters' lines ride along.  Followers never queue
        on the writer lock — a serialized lock handoff would cost one
        context switch *per follower per round* — they wait on a
        broadcast condition (bounded, so no wakeup can be lost) and
        return as soon as ``_durable`` covers them.  ``_durable`` only
        ever grows, so the lock-free pre-check is safe: a stale read
        just takes the slow path.
        """
        if self._durable >= seq:
            return seq
        misses = 0
        while True:
            if misses < 4:
                acquired = self._io_lock.acquire(blocking=False)
            else:
                # Starvation guard: when another io-lock user loops
                # tightly (compaction under memory pressure, say), the
                # opportunistic non-blocking acquire can lose every
                # race on a busy host — livelocking the submitter.  A
                # blocking acquire queues on the lock and guarantees
                # progress; it only costs the handoff context switch
                # in the rare contended case.
                self._io_lock.acquire()
                acquired = True
            if acquired:
                try:
                    if self._durable < seq:
                        self._write_staged_locked()
                finally:
                    self._io_lock.release()
                if self._sync_waiters:
                    with self._sync_cond:
                        self._sync_cond.notify_all()
                if self._durable >= seq:
                    return seq
            else:
                with self._sync_cond:
                    if self._durable >= seq:
                        return seq
                    # Timeout bounds the lost-wakeup race (durable
                    # advancing between the check and the wait).
                    self._sync_waiters += 1
                    self._sync_cond.wait(0.002)
                    self._sync_waiters -= 1
                if self._durable >= seq:
                    return seq
                misses += 1

    def _write_staged_locked(self) -> None:
        """Drain the staged lines into the active file (io lock held)."""
        with self._seq_lock:
            batch = self._staged
            self._staged = []
            top = self._next_seq - 1
        if not batch:
            return
        # Sampled group-commit timing; the counters stay exact.  The
        # tick is unlocked on purpose — a lost increment merely shifts
        # which commit gets sampled.
        self._sample_tick += 1
        sampled = not (self._sample_tick & _SAMPLE_MASK)
        started = time.perf_counter() if sampled else 0.0
        if self._integrity:
            # Chain and render the batch in commit order.  The chain
            # head only advances after the write succeeds, so a failed
            # write just re-stages the raw tuples and a retrying
            # leader recomputes from the same head — the derived lines
            # and digests are discarded, never half-applied.  A lone
            # staged record (every commit of an uncontended writer)
            # skips the batch scaffolding: this branch is the entire
            # per-event integrity tax, and the bench holds it under 3%
            # of ingest.
            prev = self._chain_head
            if len(batch) == 1:
                seq, _user, payload = batch[0]
                prev = _sha256(
                    f'{prev}{{"seq":{seq},"ev":{payload}}}'
                    .encode("utf-8")
                ).hexdigest()
                digests = None
                text = f'{{"seq":{seq},"ev":{payload},"h":"{prev}"}}\n'
            else:
                digests = []
                keep = digests.append
                lines = []
                add = lines.append
                for seq, _user, payload in batch:
                    prev = _sha256(
                        f'{prev}{{"seq":{seq},"ev":{payload}}}'
                        .encode("utf-8")
                    ).hexdigest()
                    keep(prev)
                    add(f'{{"seq":{seq},"ev":{payload},"h":"{prev}"}}\n')
                text = "".join(lines)
        else:
            text = "".join(batch)
        try:
            self._handle.write(text)
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())
        except BaseException:
            # The lines were only acknowledged once durable; put them
            # back so a retrying (or follower) leader writes them —
            # dropping them here would break the journal's core
            # promise for every follower riding this group.
            with self._seq_lock:
                self._staged = batch + self._staged
            raise
        self._durable = top
        if self._integrity:
            # Durable-write bookkeeping: the attested heads and the
            # per-tenant attestations only ever cover records that
            # reached the file (a failed write re-stages its batch
            # above).  A tenant's attestation is (count, last_seq, the
            # global chain digest at its last record): that digest
            # commits to the entire journal prefix — every record the
            # tenant ever wrote included — so no per-tenant hashing is
            # needed anywhere.
            self._chain_head = prev
            self._durable_head = prev
            if self._seg_first is None:
                self._seg_first = batch[0][0]
            tenants = self._tenants
            if digests is None:
                seq, user, _payload = batch[0]
                state = tenants.get(user)
                if state is None:
                    tenants[user] = [prev, 1, seq]
                else:
                    state[0] = prev
                    state[1] += 1
                    state[2] = seq
            else:
                for (seq, user, _payload), digest in zip(batch, digests):
                    state = tenants.get(user)
                    if state is None:
                        tenants[user] = [digest, 1, seq]
                    else:
                        state[0] = digest
                        state[1] += 1
                        state[2] = seq
        self._pending_commits += 1
        if self.fsync:
            self._pending_fsyncs += 1
        if sampled:
            self._metric_sync.observe(time.perf_counter() - started)
            self._metric_group_size.observe(len(batch))
            self._flush_tallies_locked()
        self._maybe_rotate_locked()

    def _flush_tallies_locked(self) -> None:
        """Publish locally tallied commit counts to the registry."""
        if self._pending_commits:
            self._metric_group_commits.inc(self._pending_commits)
            self._pending_commits = 0
        if self._pending_fsyncs:
            self._metric_fsyncs.inc(self._pending_fsyncs)
            self._pending_fsyncs = 0

    def flush_metric_tallies(self) -> None:
        """Make the commit counters exact (snapshot/health call this)."""
        with self._io_lock:
            self._flush_tallies_locked()

    def _maybe_rotate_locked(self) -> None:
        """Rotate the active file to a segment once it is big enough."""
        if self.rotate_bytes is None:
            return
        if self._handle.tell() < self.rotate_bytes:
            return
        self._handle.close()
        seg_path = f"{self.path}.seg-{self._durable:012d}"
        os.replace(self.path, seg_path)
        if self._integrity:
            # Seal the frozen segment, then re-attest: the seal binds
            # the segment's span and closing chain value, the manifest
            # signs the new durable head.
            first = (
                self._seg_first if self._seg_first is not None
                else self._durable
            )
            write_signed(
                seg_path + ".seal",
                {
                    "version": INTEGRITY_VERSION,
                    "first": first,
                    "last": self._durable,
                    "count": self._durable - first + 1,
                    "chain": self._durable_head,
                },
                self._key,
                fsync=self.fsync,
            )
            self._seg_first = None
            self._write_manifest_locked()
        self._handle = open(self.path, "a", encoding="utf-8")
        self._metric_rotations.inc()

    def checkpoint(self, seq: int) -> None:
        """Durably record that every entry with seq <= *seq* is flushed."""
        if seq <= self._flushed:
            return
        tmp = self._ckpt_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(str(seq))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self._ckpt_path)
        self._flushed = seq

    def compact(self, min_bytes: int = 0) -> int:
        """Reclaim fully-checkpointed journal space; returns bytes freed.

        Deletes every segment whose last entry is checkpointed — safe at
        any time, even mid-ingest — and additionally truncates the
        active file when *everything* (staged lines included) is
        checkpointed.  *min_bytes* skips the pass unless at least that
        much is reclaimable: the pipeline's per-flush housekeeping
        passes a floor so that, with integrity on, the signed
        re-attestation each truncation costs amortizes over real space
        instead of being paid per flush (explicit calls keep the
        compact-now default of 0).

        With integrity on, every deletion is re-sealed *before* the
        bytes disappear: segment removals append signed tombstones and
        advance the manifest's chain anchor to the deleted span's
        closing chain value (so the surviving chain still verifies),
        and the active-file truncation advances the anchor to the
        durable head.  The manifest write precedes the unlink — a crash
        in between leaves a logically deleted (anchored-past) file,
        which verification tolerates; the reverse order would leave an
        untombstoned hole.
        """
        freed = 0
        with self._io_lock:
            doomed = [
                (seg_path, seg_last)
                for seg_path, seg_last in self._segments()
                if seg_last <= self._flushed
            ]
            if min_bytes > 0:
                with self._seq_lock:
                    fully = (
                        not self._staged
                        and self._flushed >= self._next_seq - 1
                    )
                reclaimable = sum(
                    os.path.getsize(seg_path) for seg_path, _ in doomed
                )
                if fully:
                    reclaimable += self._handle.tell()
                if reclaimable < min_bytes:
                    return 0
            if doomed and self._integrity:
                anchor_chain = self._segment_chain(doomed[-1][0])
                for seg_path, seg_last in doomed:
                    self._append_tombstone_locked(
                        "compact_segment",
                        {
                            "segment": os.path.basename(seg_path),
                            "last_seq": seg_last,
                        },
                    )
                if anchor_chain is not None:
                    self._anchor_seq = doomed[-1][1]
                    self._anchor = anchor_chain
                self._write_manifest_locked()
            for seg_path, _seg_last in doomed:
                freed += os.path.getsize(seg_path)
                os.unlink(seg_path)
                try:
                    os.unlink(seg_path + ".seal")
                except FileNotFoundError:
                    pass
            with self._seq_lock:
                fully = not self._staged and self._flushed >= self._next_seq - 1
            if fully and self._handle.tell() > 0:
                if self._integrity:
                    # Routine truncation of fully-applied records: the
                    # signed anchor advance *is* the audit record (the
                    # tombstone log is reserved for history-changing
                    # ops — retention surgery, segment removal).
                    self._anchor_seq = self._durable
                    self._anchor = self._durable_head
                    self._write_manifest_locked()
                freed += self._handle.tell()
                self._handle.close()
                self._handle = open(self.path, "w", encoding="utf-8")
                self._seg_first = None
        if freed:
            self._metric_compactions.inc()
            self._metric_compacted_bytes.inc(freed)
        return freed

    # -- quarantine -------------------------------------------------------------

    def deadletter(self, seq: int, event: ProvEvent, error: BaseException) -> None:
        """Divert a permanently unapplyable entry to the dead-letter file.

        Quarantined entries are out of the replay path for good: the
        checkpoint advances past them, so a poison event costs one
        failed apply ever, not one per reopen.
        """
        line = json.dumps(
            {"seq": seq, "error": str(error), "ev": encode_event(event)},
            separators=(",", ":"),
        )
        with self._io_lock:
            # A crash mid-append can leave a torn final line; writing a
            # separator first turns the fragment into one bad line of
            # its own instead of merging the new record into it (which
            # would make *both* unreadable).
            torn = False
            try:
                with open(self._deadletter_path, "rb") as check:
                    check.seek(-1, os.SEEK_END)
                    torn = check.read(1) != b"\n"
            except (FileNotFoundError, OSError):
                torn = False
            with open(self._deadletter_path, "a", encoding="utf-8") as handle:
                handle.write(("\n" if torn else "") + line + "\n")
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
        self._metric_deadletters.inc()

    def deadlettered(self) -> list[dict]:
        """Quarantined entries (``{"seq", "error", "ev"}``), oldest first.

        A torn or corrupt line (crash mid-append) is skipped, not a
        stop signal: entries behind it must stay visible — and
        recoverable by :meth:`pop_deadletter`, which preserves the bad
        line itself byte-for-byte.
        """
        entries: list[dict] = []
        if not os.path.exists(self._deadletter_path):
            return entries
        with open(self._deadletter_path, "r", encoding="utf-8") as handle:
            for line in handle:
                if not line.endswith("\n"):
                    continue
                try:
                    entries.append(json.loads(line))
                except json.JSONDecodeError:
                    continue
        return entries

    def pop_deadletter(self, seq: int) -> dict:
        """Remove and return the quarantined entry for *seq*.

        The redrive half of dead-letter operations: the service pops
        the entry, repairs it, and resubmits it through the normal
        pipeline (fresh sequence, full journal durability).  The file
        is rewritten atomically so a crash mid-pop leaves either the
        old file or the new one, never a torn mix.  Raises
        :class:`~repro.errors.ConfigurationError` when *seq* is not
        quarantined.
        """
        with self._io_lock:
            kept: list[str] = []
            found: dict | None = None
            if os.path.exists(self._deadletter_path):
                with open(
                    self._deadletter_path, "r", encoding="utf-8"
                ) as handle:
                    for line in handle:
                        entry = None
                        if line.endswith("\n"):
                            try:
                                entry = json.loads(line)
                            except json.JSONDecodeError:
                                entry = None
                        if (
                            entry is not None
                            and found is None
                            and entry.get("seq") == seq
                        ):
                            found = entry
                        else:
                            # Unparseable lines are kept verbatim: the
                            # rewrite must never silently discard an
                            # entry it merely failed to read.
                            kept.append(line)
            if found is None:
                raise ConfigurationError(
                    f"no dead-lettered entry with sequence {seq}"
                )
            tmp = self._deadletter_path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.writelines(kept)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            if kept:
                os.replace(tmp, self._deadletter_path)
            else:
                os.unlink(tmp)
                os.unlink(self._deadletter_path)
        return found

    # -- recovery ---------------------------------------------------------------

    def unflushed(self) -> list[tuple[int, ProvEvent]]:
        """Journal entries past the checkpoint, in append order."""
        entries: list[tuple[int, ProvEvent]] = []
        for seg_path, _last in self._segments():
            for seq, payload in self._iter_file(seg_path):
                if seq > self._flushed:
                    entries.append((seq, decode_event(payload)))
        for seq, payload in self._iter_file(self.path):
            if seq > self._flushed:
                entries.append((seq, decode_event(payload)))
        return entries

    def _segments(self) -> list[tuple[str, int]]:
        """Rotated segment files as (path, last_seq), oldest first."""
        directory = os.path.dirname(self.path) or "."
        prefix = os.path.basename(self.path) + ".seg-"
        found: list[tuple[str, int]] = []
        if not os.path.isdir(directory):
            return found
        for name in os.listdir(directory):
            if not name.startswith(prefix):
                continue
            try:
                last = int(name[len(prefix):])
            except ValueError:
                continue
            found.append((os.path.join(directory, name), last))
        found.sort(key=lambda pair: pair[1])
        return found

    def _iter_file(self, path: str):
        if not os.path.exists(path):
            return
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                if not line.endswith("\n"):
                    break  # torn tail from a crash mid-append
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    break
                yield record["seq"], record["ev"]

    def _read_checkpoint(self) -> int:
        try:
            with open(self._ckpt_path, "r", encoding="utf-8") as handle:
                return int(handle.read().strip() or 0)
        except (FileNotFoundError, ValueError):
            return 0

    def _recover_tail(self) -> int:
        """Drop any torn final line; returns the last valid sequence.

        Appending after a crash mid-write would otherwise concatenate
        the new record onto the fragment, making *both* undecodable and
        silently ending replay early — a durability hole for every
        acknowledged event after the tear.
        """
        if not os.path.exists(self.path):
            return 0
        last = 0
        valid_bytes = 0
        with open(self.path, "rb") as handle:
            for line in handle:
                if not line.endswith(b"\n"):
                    break
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    break
                last = max(last, record["seq"])
                valid_bytes += len(line)
        if valid_bytes < os.path.getsize(self.path):
            with open(self.path, "rb+") as handle:
                handle.truncate(valid_bytes)
        return last

    def _recover_integrity_state(self) -> None:
        """Rebuild chain heads from the manifest plus the on-disk tail.

        The manifest attests everything through its ``seq``; records
        past it (the unflushed tail a crash left behind) are folded in
        by walking their embedded hashes — verification, not recovery,
        is where hashes are *recomputed*.  A forged manifest read here
        only shifts the recovered heads; the next
        :meth:`verify_integrity` still fails its signature check.
        """
        try:
            manifest = load_signed(self._manifest_path)
        except ReproError:
            manifest = None  # verify_integrity will report it
        attested = 0
        if manifest is not None:
            self._anchor_seq = int(manifest.get("anchor_seq", 0))
            self._anchor = str(manifest.get("anchor", GENESIS))
            attested = int(manifest.get("seq", 0))
            tenants = manifest.get("tenants", {})
            if isinstance(tenants, dict):
                self._tenants = {
                    user: [
                        str(state.get("chain", GENESIS)),
                        int(state.get("events", 0)),
                        int(state.get("last_seq", 0)),
                    ]
                    for user, state in tenants.items()
                    if isinstance(state, dict)
                }
            self._tombstone_anchor = str(
                manifest.get("tombstone_anchor", GENESIS)
            )
            tombstones = manifest.get("tombstones", [])
            if isinstance(tombstones, list):
                self._tombstones = [
                    entry for entry in tombstones if isinstance(entry, dict)
                ]
            self._tombstone_head = (
                str(self._tombstones[-1].get("h", GENESIS))
                if self._tombstones
                else self._tombstone_anchor
            )
        head = str(manifest.get("chain", GENESIS)) if manifest else GENESIS
        if manifest is None or attested <= self._anchor_seq:
            head = self._anchor
        paths = [seg_path for seg_path, _last in self._segments()]
        paths.append(self.path)
        for file_path in paths:
            active = file_path == self.path
            try:
                handle = open(file_path, "rb")
            except FileNotFoundError:
                continue
            with handle:
                for raw in handle:
                    if not raw.endswith(b"\n"):
                        break
                    try:
                        seq, _core, digest = parse_chained_line(
                            raw.decode("utf-8")
                        )
                    except (ReproError, UnicodeDecodeError):
                        break  # torn/legacy tail; verify flags tampering
                    if seq <= self._anchor_seq:
                        continue
                    head = digest
                    if active and self._seg_first is None:
                        self._seg_first = seq
                    if seq > attested:
                        user = None
                        try:
                            user = json.loads(raw)["ev"]["u"]
                        except (json.JSONDecodeError, KeyError, TypeError):
                            pass
                        if user is not None:
                            state = self._tenants.get(user)
                            if state is None:
                                self._tenants[user] = [digest, 1, seq]
                            else:
                                state[0] = digest
                                state[1] += 1
                                state[2] = seq
        self._chain_head = head
        self._durable_head = head

    def _segment_chain(self, seg_path: str) -> str | None:
        """The chain value at the end of *seg_path* (for anchor moves).

        The seal already attests it; a segment sealed before integrity
        was enabled (no sidecar) falls back to the last embedded hash.
        """
        try:
            seal = load_signed(seg_path + ".seal")
        except ReproError:
            seal = None
        if seal is not None and "chain" in seal:
            return str(seal["chain"])
        last: str | None = None
        try:
            handle = open(seg_path, "rb")
        except FileNotFoundError:
            return None
        with handle:
            for raw in handle:
                if not raw.endswith(b"\n"):
                    break
                try:
                    _seq, _core, digest = parse_chained_line(
                        raw.decode("utf-8")
                    )
                except (ReproError, UnicodeDecodeError):
                    break
                last = digest
        return last

    def _write_manifest_locked(self) -> None:
        """Attest the durable state (io lock held; integrity on)."""
        write_signed(
            self._manifest_path,
            {
                "version": INTEGRITY_VERSION,
                "anchor_seq": self._anchor_seq,
                "anchor": self._anchor,
                "seq": self._durable,
                "chain": self._durable_head,
                "tenants": {
                    user: {
                        "chain": state[0],
                        "events": state[1],
                        "last_seq": state[2],
                    }
                    for user, state in self._tenants.items()
                },
                "tombstone_anchor": self._tombstone_anchor,
                "tombstones": self._tombstones,
            },
            self._key,
            fsync=self.fsync,
        )

    def _append_tombstone_locked(self, op: str, details: dict) -> None:
        """Chain one deletion record into the manifest's tombstone log."""
        entry = {"op": op, "seq": self._durable}
        entry.update(details)
        digest = chain_hash(self._tombstone_head, tombstone_core(entry))
        entry["h"] = digest
        self._tombstones.append(entry)
        self._tombstone_head = digest
        while len(self._tombstones) > TOMBSTONE_CAP:
            dropped = self._tombstones.pop(0)
            self._tombstone_anchor = str(dropped.get("h", GENESIS))

    @property
    def integrity_enabled(self) -> bool:
        return self._integrity

    def record_tombstone(self, op: str, **details) -> None:
        """Append a signed deletion record and re-attest the manifest.

        The retention surgeries call this after their row deletions
        commit, so ``expire_before`` / ``forget_site`` leave an
        auditable, hash-chained trace instead of silently shrinking
        history.  A no-op with integrity off.
        """
        if not self._integrity:
            return
        with self._io_lock:
            self._append_tombstone_locked(op, details)
            self._write_manifest_locked()

    def tenant_attestation(self, user_id: str) -> dict | None:
        """The signed per-tenant state the manifest attests.

        ``{"chain", "events", "last_seq"}`` over the tenant's durable
        records, or ``None`` for a tenant the journal has never seen.
        ``chain`` is the global rolling hash at the tenant's last
        record — it commits to the whole journal prefix up to
        ``last_seq``, so tampering with *any* of the tenant's records
        changes it (and is independently caught by the chain walk).
        """
        with self._io_lock:
            state = self._tenants.get(user_id)
            if state is None:
                return None
            return {
                "chain": state[0],
                "events": state[1],
                "last_seq": state[2],
            }

    def verify_integrity(self) -> IntegrityReport:
        """Re-attest, then walk the whole journal for corruption.

        Flushes any staged lines and rewrites the manifest first (so
        the walk covers everything durable and the unattested-tail
        window is closed), then runs
        :func:`repro.service.integrity.verify_journal` under the writer
        lock — the files cannot move underneath the walk.  Raises
        :class:`~repro.errors.ConfigurationError` when the journal was
        opened with ``integrity=False``; there is no chain to verify.
        """
        if not self._integrity:
            raise ConfigurationError(
                "journal integrity is disabled; open with integrity=True"
                " to maintain a verifiable chain"
            )
        with self._io_lock:
            if not self._handle.closed:
                self._write_staged_locked()
            self._write_manifest_locked()
            return verify_journal(self.path, key=self._key)

    def close(self) -> None:
        with self._io_lock:
            if not self._handle.closed:
                self._write_staged_locked()
                if self._integrity:
                    self._write_manifest_locked()
                self._handle.close()
            self._flush_tallies_locked()


@dataclass
class IngestStats:
    """Pipeline accounting."""

    submitted: int = 0
    applied: int = 0
    flushes: int = 0
    replayed: int = 0
    quarantined: int = 0

    @property
    def pending(self) -> int:
        return self.submitted + self.replayed - self.applied - self.quarantined


class IngestPipeline:
    """Journal-then-batch ingest across the sharded store pool.

    ``workers=N`` enables the parallel write path: shard batches are
    dispatched to N flush workers (shard → worker ``shard % N``, so
    per-shard order is preserved) and :meth:`flush` becomes a barrier.
    ``workers=None`` (or 0) drains serially in the calling thread —
    byte-for-byte the same per-shard store state as the threads, and
    the reference the equivalence tests and the ``thread_vs_serial``
    leg of ``benchmarks/bench_service_throughput.py`` measure against.
    """

    def __init__(
        self,
        pool: StorePool,
        journal: IngestJournal,
        *,
        batch_size: int = 256,
        cache: QueryCache | None = None,
        workers: int | None = None,
        index: bool = True,
        metrics: object = NULL_REGISTRY,
        tracer: object = NULL_TRACER,
    ) -> None:
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if workers is not None and workers < 0:
            raise ConfigurationError("workers must be >= 0 (or None)")
        self.pool = pool
        self.journal = journal
        self.batch_size = batch_size
        self.cache = cache
        self.stats = IngestStats()
        self.workers = workers or 0
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._metric_events = self.metrics.counter(
            "ingest.events", label_name="shard"
        )
        self._metric_batches = self.metrics.counter("ingest.batches")
        self._metric_replayed = self.metrics.counter("ingest.replayed")
        self._metric_quarantined = self.metrics.counter("ingest.quarantined")
        self._metric_submit = self.metrics.histogram("ingest.submit")
        self._submit_tick = 0
        #: Health bookkeeping (always on — it is a handful of dict
        #: stores per event/batch, far below the metrics budget).
        #: Per-shard monotonic time of the last settled batch, and
        #: per-tenant ``[events_submitted, last_write_monotonic]``,
        #: bounded like the pool's shard memo: cleared on overflow
        #: rather than tracked forever for millions of tenants.
        self._shard_last_flush: dict[int, float] = {}
        self._tenant_activity: dict[str, list] = {}
        #: Maintain the per-shard relevance index from the apply path.
        #: False trades ranked-search freshness for ingest throughput;
        #: affected shards are marked stale and rebuild on first ranked
        #: query.
        self.index_enabled = index
        self._lock = threading.RLock()
        self._buffers: dict[int, list[tuple[int, ProvEvent]]] = {}
        #: Dispatched-but-unsettled batches per shard, in dispatch order
        #: (checkpoint accounting: their events are not yet applied).
        self._inflight: dict[int, deque] = {}
        self._pending = 0
        self._pool_workers: ShardWorkerPool | None = None
        #: Batches settled since the checkpoint last advanced; lets a
        #: write-only workload (no reads, no explicit flushes) still
        #: move the checkpoint and compact the journal periodically.
        self._settled_since_checkpoint = 0

    # -- accepting events -------------------------------------------------------

    def submit(self, event: ProvEvent) -> int:
        """Journal one event, buffer it, flush/dispatch when batch fills.

        Thread-safe: sequence allocation and buffering happen under the
        pipeline lock (so checkpoint accounting can never skip an
        allocated sequence), while journal durability is paid outside
        it via the group commit.
        """
        # Sampled submit latency: exact per-event timing would spend
        # the instrumentation budget on clock reads at 20k events/s.
        self._submit_tick += 1
        sampled = not (self._submit_tick & _SAMPLE_MASK)
        started = time.perf_counter() if sampled else 0.0
        payload = encode_event_json(event)  # off the contended lock
        with self._lock:
            seq = self.journal.stage(event, payload)
            dispatch_shard, serial_flush = self._accept_locked(seq, event)
        self._settle_submit(seq, dispatch_shard, serial_flush)
        if sampled:
            self._metric_submit.observe(time.perf_counter() - started)
        return seq

    def submit_edge(
        self,
        user_id: str,
        kind: EdgeKind,
        src: str,
        dst: str,
        *,
        timestamp_us: int,
        attrs: dict[str, AttrValue] | None = None,
    ) -> ProvEdge:
        """Build and submit an edge whose id is its journal sequence.

        Sequence numbers are unique across users and shards, which is
        what keeps tenants sharing a shard from colliding in the
        ``prov_edges`` primary key; replay reuses the journaled id, so
        recovery is idempotent.  The id is the sequence :meth:`submit`
        will assign — both happen under the pipeline lock, so
        concurrent submitters cannot interleave between the two.
        """
        # Everything but the id encodes off the contended lock; the id
        # is the journal sequence, spliced in once it is known.
        head, tail = encode_edge_json_parts(
            user_id, kind, src, dst, timestamp_us, attrs
        )
        with self._lock:
            edge = ProvEdge(
                id=self.journal.next_seq,
                kind=kind,
                src=src,
                dst=dst,
                timestamp_us=timestamp_us,
                attrs=attrs or {},
            )
            event = EdgeEvent(user_id=user_id, edge=edge)
            payload = f"{head}{edge.id}{tail}"
            seq = self.journal.stage(event, payload)
            dispatch_shard, serial_flush = self._accept_locked(seq, event)
        self._settle_submit(seq, dispatch_shard, serial_flush)
        return edge

    def _accept_locked(
        self, seq: int, event: ProvEvent
    ) -> tuple[int | None, bool]:
        """Account and buffer a staged event; decide how it drains.

        Returns ``(dispatch_shard, serial_flush)`` for
        :meth:`_settle_submit` — decided under the lock, acted on
        outside it.
        """
        self.stats.submitted += 1
        shard = self._enqueue(seq, event)
        if self.workers:
            if len(self._buffers.get(shard, ())) >= self.batch_size:
                return shard, False
        elif self._pending >= self.batch_size:
            return None, True
        return None, False

    def _settle_submit(
        self, seq: int, dispatch_shard: int | None, serial_flush: bool
    ) -> None:
        """Pay the journal I/O and trigger the decided drain."""
        self.journal.sync(seq)
        if dispatch_shard is not None:
            with self._lock:
                self._dispatch_locked(dispatch_shard)
        if serial_flush:
            self.flush()

    def _enqueue(self, seq: int, event: ProvEvent) -> int:
        shard = self.pool.shard_of(event.user_id)
        self._buffers.setdefault(shard, []).append((seq, event))
        self._pending += 1
        activity = self._tenant_activity.get(event.user_id)
        if activity is None:
            if len(self._tenant_activity) >= 100_000:
                self._tenant_activity.clear()
            self._tenant_activity[event.user_id] = [1, time.monotonic()]
        else:
            activity[0] += 1
            activity[1] = time.monotonic()
        if self.cache is not None:
            # Epoch-aware: the writer's own scope drops now, the
            # service scope drops in epoch batches (cache admission).
            self.cache.note_write(event.user_id)
        return shard

    def activity_snapshot(self) -> tuple[dict[int, float], dict[str, tuple[int, float]]]:
        """Health bookkeeping: per-shard and per-tenant recency.

        Returns ``(shard_flush_ages, tenants)`` where shard ages are
        seconds since that shard last settled a batch and each tenant
        maps to ``(events_submitted, seconds_since_last_write)``.
        """
        now = time.monotonic()
        with self._lock:
            shard_ages = {
                shard: now - stamp
                for shard, stamp in self._shard_last_flush.items()
            }
            tenants = {
                user: (activity[0], now - activity[1])
                for user, activity in self._tenant_activity.items()
            }
        return shard_ages, tenants

    def poisoned_shards(self) -> list[int]:
        """Shards with an undrained apply failure parked in the workers."""
        with self._lock:
            workers = self._pool_workers
        if workers is None:
            return []
        return [
            shard
            for shard in range(self.pool.shards)
            if workers.poisoned(shard)
        ]

    def pending(self, shard: int | None = None) -> int:
        """Events accepted but not yet applied (buffered or in flight)."""
        with self._lock:
            if shard is None:
                return self._pending
            buffered = len(self._buffers.get(shard, ()))
            inflight = sum(
                len(batch) for batch in self._inflight.get(shard, ())
            )
            return buffered + inflight

    # -- draining ---------------------------------------------------------------

    def _ensure_workers_locked(self):
        if self._pool_workers is None:
            self._pool_workers = ShardWorkerPool(
                self._apply_job, workers=self.workers
            )
        return self._pool_workers

    def _dispatch_locked(self, shard: int) -> None:
        workers = self._ensure_workers_locked()
        if workers.poisoned(shard):
            # Batches sent to a poisoned shard would only be diverted
            # into its failure list unapplied; leaving them buffered
            # costs the same memory and keeps them visible.  The next
            # barrier on this shard drains the failure, requeues, and
            # surfaces the error; flush() then force-dispatches.
            return
        batch = self._take_durable_locked(shard)
        if not batch:
            return
        self._inflight.setdefault(shard, deque()).append(batch)
        workers.dispatch(shard, batch)

    def _take_durable_locked(self, shard: int) -> list[tuple[int, ProvEvent]]:
        """Pop the journal-synced prefix of *shard*'s buffer (lock held).

        A concurrent submitter stages its event into the buffer before
        its ``journal.sync`` returns; applying that event early would
        let readers see it, and a crash before the write would leave a
        store row with no journal record.  Buffers are seq-ordered, so
        everything up to the journal's durable head is a prefix; the
        rest stays buffered for the submitter's own dispatch or the
        next drain.
        """
        batch = self._buffers.get(shard)
        if not batch:
            return []
        cut = bisect_right(
            batch, self.journal.durable_seq, key=lambda entry: entry[0]
        )
        if cut == len(batch):
            del self._buffers[shard]
            return batch
        self._buffers[shard] = batch[cut:]
        return batch[:cut]

    def _apply_job(self, shard: int, batch: list[tuple[int, ProvEvent]]) -> None:
        """Thread-worker apply: on success, settle the batch's accounting.

        On failure the batch stays in ``_inflight`` (its events are
        still pending) until the barrier requeues it into the buffers.
        Settling after the apply, not at dispatch, is what lets the
        checkpoint advance past the batch's sequences.
        """
        self._apply(shard, batch)
        with self._lock:
            self._settle_inflight_locked(shard, batch)
            self._pending -= len(batch)
            self.stats.applied += len(batch)
            self.stats.flushes += 1
            self._metric_events.inc(len(batch), label=shard)
            self._metric_batches.inc()
            self._shard_last_flush[shard] = time.monotonic()
            # Amortized checkpoint upkeep: without it a pure-write
            # workload would apply millions of events while the
            # checkpoint (and journal compaction) waited for a read or
            # an explicit flush that never comes.
            self._settled_since_checkpoint += 1
            if self._settled_since_checkpoint >= 16:
                self._advance_checkpoint_locked()

    def _settle_inflight_locked(self, shard: int, batch) -> None:
        """Remove exactly *batch* from the shard's in-flight tracking.

        Removal is by value, not position: while a failed shard's
        batches sit parked in the deque, a batch dispatched after the
        barrier unpoisoned the shard can settle first, and popping the
        head would charge the wrong entry — skewing the checkpoint's
        oldest-pending computation in both directions.
        """
        queue = self._inflight.get(shard)
        if queue is None:
            return
        try:
            queue.remove(batch)
        except ValueError:
            pass
        if not queue:
            del self._inflight[shard]

    def flush(self, shard: int | None = None) -> int:
        """Drain buffered events (one shard, or all) into the stores.

        A barrier in parallel mode: dispatches the targeted buffers and
        joins the workers before returning.  Failed batches are
        requeued into the buffers (the journal still holds them for
        replay either way) and the first failure re-raises.  The
        checkpoint advances to the highest contiguous flushed sequence.
        """
        with self.tracer.trace("ingest.flush", shard=shard):
            return self._flush(shard)

    def _flush(self, shard: int | None = None) -> int:
        if not self.workers:
            return self._flush_serial(shard)
        with self._lock:
            applied_before = self.stats.applied
            targets = [shard] if shard is not None else sorted(self._buffers)
            for target in targets:
                self._dispatch_locked(target)
            workers = self._pool_workers
        if workers is None:
            with self._lock:
                self._advance_checkpoint_locked(min_bytes=0)
            return 0
        workers.barrier(shard)
        with self._lock:
            # Drain and requeue under one pipeline lock: draining
            # unpoisons the shard, and if a concurrent submitter's
            # freshly filled buffer could dispatch in between, *newer*
            # events would apply ahead of the failed older batches the
            # requeue is about to restore — a per-shard order
            # violation.  (Pipeline -> pool lock order matches
            # dispatch; the flush threads never hold the pool lock
            # while settling into the pipeline.)
            failures = workers.drain_failures(shard)
            self._requeue_locked(failures)
            self._advance_checkpoint_locked(min_bytes=0)
            applied = self.stats.applied - applied_before
        if failures:
            raise failures[0].error
        return applied

    def drain_for_read(self, shard: int) -> None:
        """Read-your-own-writes barrier for one shard.

        Drains the caller's shard synchronously; other shards' buffers
        are dispatched to the background workers (so their work — and
        the journal checkpoint — keeps moving) but not waited on.
        """
        if not self.workers:
            if self._pending:
                self.flush()
            return
        with self._lock:
            for target in sorted(self._buffers):
                self._dispatch_locked(target)
            workers = self._pool_workers
        if workers is None:
            return
        workers.barrier(shard)
        with self._lock:
            # Atomic drain + requeue, same reasoning as flush().
            failures = workers.drain_failures(shard)
            self._requeue_locked(failures)
            self._advance_checkpoint_locked()
        if failures:
            raise failures[0].error

    def _requeue_locked(self, failures) -> None:
        """Return failed/diverted batches to the buffers, oldest first.

        Only the failure's own batches leave the in-flight tracking: a
        batch dispatched to this shard after the barrier (and now being
        applied by a worker) must stay tracked, or the checkpoint could
        advance past its still-unapplied sequences.
        """
        for failure in failures:
            requeued: list[tuple[int, ProvEvent]] = []
            for batch in failure.batches:
                self._settle_inflight_locked(failure.shard, batch)
                requeued.extend(batch)
            requeued.extend(self._buffers.get(failure.shard, ()))
            self._buffers[failure.shard] = requeued

    def _flush_serial(self, shard: int | None = None) -> int:
        """The single-threaded drain (workers disabled)."""
        with self._lock:
            shards = [shard] if shard is not None else sorted(self._buffers)
            applied = 0
            try:
                for target in shards:
                    batch = self._take_durable_locked(target)
                    if not batch:
                        continue
                    try:
                        self._apply(target, batch)
                    except Exception:
                        # Requeue so the events stay pending in-process;
                        # the journal still holds them for replay.
                        batch.extend(self._buffers.get(target, ()))
                        self._buffers[target] = batch
                        raise
                    applied += len(batch)
                    self._pending -= len(batch)
                    self._metric_events.inc(len(batch), label=target)
                    self._metric_batches.inc()
                    self._shard_last_flush[target] = time.monotonic()
            finally:
                # Shards committed before a later shard failed still
                # count (and still move the checkpoint forward).
                if applied:
                    self.stats.applied += applied
                    self.stats.flushes += 1
                self._advance_checkpoint_locked(min_bytes=0)
            return applied

    def _apply(self, shard: int, batch: list[tuple[int, ProvEvent]]) -> None:
        """Apply one batch (serial drain, thread workers, salvage)."""
        with self.pool.checkout(shard) as store, store.exclusive():
            apply_event_batch(
                store, batch, index=self.index_enabled, metrics=self.metrics
            )

    def _advance_checkpoint_locked(
        self, min_bytes: int = COMPACT_MIN_BYTES
    ) -> None:
        """Checkpoint up to the oldest still-pending sequence (lock held).

        Pending means buffered *or* dispatched-but-unsettled; because
        sequence allocation happens under the same lock (see
        :meth:`submit`), no allocated-but-unbuffered sequence can be
        skipped over.  Background settles gate compaction behind
        :data:`COMPACT_MIN_BYTES`; an explicit :meth:`flush` barrier
        passes ``min_bytes=0`` so a drained pipeline always leaves a
        compacted journal.
        """
        self._settled_since_checkpoint = 0
        candidates = [batch[0][0] for batch in self._buffers.values() if batch]
        candidates.extend(
            queue[0][0][0] for queue in self._inflight.values() if queue
        )
        if candidates:
            self.journal.checkpoint(min(candidates) - 1)
        else:
            self.journal.checkpoint(self.journal.last_seq)
        self.journal.compact(min_bytes=min_bytes)

    # -- recovery ---------------------------------------------------------------

    def replay(self) -> int:
        """Re-apply journal entries past the checkpoint (crash recovery).

        An entry the stores can never accept — a poison event — is
        quarantined to the journal's dead-letter file and replay
        continues, so one bad entry cannot wedge every subsequent
        startup.  Infrastructure failures (anything that is not a
        :class:`~repro.errors.ReproError`) still raise: those are
        retryable, and quarantining them would throw good events away.
        """
        entries = self.journal.unflushed()
        if not entries:
            return 0
        with self._lock:
            for seq, event in entries:
                self._enqueue(seq, event)
            self.stats.replayed += len(entries)
            self._metric_replayed.inc(len(entries))
        try:
            self.flush()
        except ReproError:
            self.quarantine_pending()
        return len(entries)

    def quarantine_pending(self) -> None:
        """Apply buffered events one at a time, dead-lettering the bad.

        The salvage path behind :meth:`replay` (and the service's
        ``redrive``): after a batched flush fails, per-event
        application in journal order isolates exactly which entries are
        poison.  Events are applied in their original
        submission order, which is causal per user, so a healthy event
        can never fail here because of a quarantined *earlier* one —
        unless it genuinely depended on it, in which case it is poison
        too and joins it in the dead-letter file.
        """
        # Settle everything in flight first.  A caller may arrive here
        # off a single-shard flush (redrive does); salvaging buffered
        # events while a worker still applies an *older* batch for
        # another shard would apply newer events out of order — and
        # could falsely dead-letter a healthy event whose context is
        # sitting in that in-flight batch.  After a full flush() (the
        # replay path) this barrier is a no-op.
        if self.workers and self._pool_workers is not None:
            self._pool_workers.barrier()
            with self._lock:
                failures = self._pool_workers.drain_failures()
                self._requeue_locked(failures)
        with self._lock:
            buffers = {
                shard: batch
                for shard in sorted(self._buffers)
                if (batch := self._take_durable_locked(shard))
            }
        shards = sorted(buffers)
        for position, shard in enumerate(shards):
            for index, (seq, event) in enumerate(buffers[shard]):
                try:
                    self._apply(shard, [(seq, event)])
                except ReproError as exc:
                    self.journal.deadletter(seq, event, exc)
                    with self._lock:
                        self.stats.quarantined += 1
                        self._metric_quarantined.inc()
                        self._pending -= 1
                except Exception:
                    # Not a data problem: re-buffer this event, the
                    # rest of this shard, AND every shard not yet
                    # salvaged — all of them left the buffers in the
                    # take above, and any one forgotten here would be
                    # invisible to checkpoint accounting (the journal
                    # would compact it away).  Then surface the error.
                    with self._lock:
                        rest = buffers[shard][index:]
                        rest.extend(self._buffers.get(shard, ()))
                        self._buffers[shard] = rest
                        for later in shards[position + 1:]:
                            remaining = list(buffers[later])
                            remaining.extend(self._buffers.get(later, ()))
                            self._buffers[later] = remaining
                    raise
                else:
                    with self._lock:
                        self.stats.applied += 1
                        self.stats.flushes += 1
                        self._pending -= 1
                        self._metric_events.inc(1, label=shard)
                        self._shard_last_flush[shard] = time.monotonic()
        with self._lock:
            self._advance_checkpoint_locked()

    def close(self) -> None:
        if self._pool_workers is not None:
            self._pool_workers.close()
        self.journal.close()
