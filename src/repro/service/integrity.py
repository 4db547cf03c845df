"""Tamper-evidence for the ingest journal: hash chain, seals, manifest.

The journal (:class:`repro.service.ingest.IngestJournal`) is the
service's record of record — the paper's case for browser provenance
collapses if that record can be silently rewritten.  This module is the
*verification* half of the integrity design; the journal's write path
embeds the chain, and everything here re-derives and checks it offline,
so a tamper test (or an auditor) can verify files no live journal has
open.

Three layers, cheapest first:

1. **Record chain.**  Every journal line carries a rolling SHA-256:
   ``h_n = sha256(h_{n-1} + core_n)`` where ``core_n`` is the line
   without its trailing ``"h"`` field and ``h_0`` is either
   :data:`GENESIS` or the manifest's compaction anchor.  Computed at
   stage time under the sequence lock (the allocation order *is* the
   chain order), it rides the existing group commit — no extra I/O.
2. **Segment seals.**  Rotation freezes a segment forever, so rotation
   writes a ``<segment>.seal`` sidecar attesting the segment's first
   and last sequence, record count, and chain value — an HMAC-signed
   digest that makes truncating or swapping a sealed file detectable
   without walking anything else.
3. **Signed-root manifest.**  ``<journal>.manifest`` holds the
   service's durable head (sequence + chain value), the compaction
   anchor the chain restarts from, per-tenant attestations (event
   count, last sequence, and the chain digest at that record — which
   commits to the full prefix, hence to every record the tenant ever
   wrote), and
   a hash-chained **tombstone log** recording every deliberate
   deletion (retention surgery, compaction) — signed with HMAC-SHA256
   so deletions stay auditable and the attested head cannot be forged
   without the key.  The key lives in ``<journal>.key``; an attacker
   who can read *that* can re-sign, so production deployments hold the
   key off-box — the design gives a place to put the trust, the tests
   exercise the detection.

:func:`verify_journal` walks all of it and reports the **first**
corruption as ``(segment, offset, reason)`` — segment is a file
basename, offset the byte offset of the offending line (or a tombstone
index for manifest entries), reason one of :data:`REASONS`.  Records
newer than the last attestation are chained but not yet signed;
:meth:`IngestJournal.verify_integrity` closes that window by
re-attesting under the writer lock before walking.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
from dataclasses import dataclass
from typing import Any, Iterator

from repro.canon import canonical_json
from repro.errors import IntegrityError

#: The chain value before the first record of a fresh journal.
GENESIS = "0" * 64

#: Current manifest / seal format version.
INTEGRITY_VERSION = 1

#: The manifest keeps at most this many tombstones; older entries are
#: dropped and the tombstone chain's anchor advances over them, so the
#: log is bounded but still tamper-evident end to end.
TOMBSTONE_CAP = 512

#: Every ``reason`` a verification can report, grouped by layer.
REASONS = frozenset({
    # Manifest (the signed root).
    "manifest_missing", "manifest_malformed", "manifest_signature",
    "tombstone_chain",
    # Record-level (a journal line).
    "torn_record", "malformed_record", "missing_hash",
    "sequence_gap", "chain_mismatch",
    # Coverage (attested records absent or rewritten).
    "truncated", "attestation_mismatch",
    # Segment seals.
    "seal_missing", "seal_malformed", "seal_signature", "seal_mismatch",
})

_MANIFEST_SUFFIX = ".manifest"
_SEAL_SUFFIX = ".seal"
_KEY_SUFFIX = ".key"
_HASH_MARKER = ',"h":"'


# -- primitives ---------------------------------------------------------------


def chain_hash(prev: str, core: str) -> str:
    """The rolling chain step: ``sha256(prev_hex + core)`` as hex."""
    return hashlib.sha256((prev + core).encode("utf-8")).hexdigest()


def chained_line(seq: int, payload: str, prev: str) -> tuple[str, str]:
    """Build one chained journal line; returns ``(line, hash)``.

    *payload* is the event's journal JSON (:func:`repro.service.events.
    encode_event_json`); the hash covers the line exactly as it would
    be written without the ``"h"`` field, so verification can strip and
    recompute byte-for-byte.
    """
    core = f'{{"seq":{seq},"ev":{payload}}}'
    digest = chain_hash(prev, core)
    return f'{core[:-1]},"h":"{digest}"}}\n', digest


def _fail(message: str, reason: str) -> None:
    exc = IntegrityError(message)
    exc.reason = reason
    raise exc


def parse_chained_line(line: str) -> tuple[int, str, str]:
    """Parse one chained journal line into ``(seq, core, hash)``.

    Raises :class:`~repro.errors.IntegrityError` (with a ``reason``
    attribute from :data:`REASONS`) for anything that is not a
    well-formed chained record: invalid JSON, a missing or malformed
    ``"h"`` field, or a hash that is not the line's trailing field —
    the fuzz tests feed this arbitrary mutations and expect exactly
    that error class, never a crash or a silent success.
    """
    text = line[:-1] if line.endswith("\n") else line
    try:
        record = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError):
        _fail(f"journal line is not valid JSON: {text[:80]!r}",
              "malformed_record")
    if not isinstance(record, dict) or "seq" not in record or "ev" not in record:
        _fail(f"journal line is not a record object: {text[:80]!r}",
              "malformed_record")
    seq = record["seq"]
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
        _fail(f"journal line has an invalid sequence: {seq!r}",
              "malformed_record")
    digest = record.get("h")
    if digest is None:
        _fail(f"journal record {seq} carries no chain hash", "missing_hash")
    if (
        not isinstance(digest, str)
        or len(digest) != 64
        or any(ch not in "0123456789abcdef" for ch in digest)
    ):
        _fail(f"journal record {seq} has a malformed chain hash",
              "malformed_record")
    cut = text.rfind(_HASH_MARKER)
    if cut == -1 or text[cut:] != f'{_HASH_MARKER}{digest}"}}':
        _fail(f"journal record {seq}'s chain hash is not the trailing field",
              "malformed_record")
    return seq, text[:cut] + "}", digest


# -- key management -----------------------------------------------------------


def key_path_for(journal_path: str) -> str:
    """Where the journal's HMAC key lives (``<journal>.key``)."""
    return journal_path + _KEY_SUFFIX


def load_key(journal_path: str) -> bytes:
    """The journal's HMAC key; raises when absent (nothing to verify with)."""
    try:
        with open(key_path_for(journal_path), "r", encoding="ascii") as handle:
            return bytes.fromhex(handle.read().strip())
    except (FileNotFoundError, ValueError):
        raise IntegrityError(
            f"no integrity key at {key_path_for(journal_path)!r}; the"
            f" journal was never opened with integrity enabled (or the"
            f" key was removed)"
        ) from None


def load_or_create_key(journal_path: str) -> bytes:
    """Load the journal's HMAC key, minting one on first open."""
    path = key_path_for(journal_path)
    try:
        with open(path, "r", encoding="ascii") as handle:
            return bytes.fromhex(handle.read().strip())
    except (FileNotFoundError, ValueError):
        pass
    key = os.urandom(32)
    tmp = path + ".tmp"
    fd = os.open(tmp, os.O_CREAT | os.O_WRONLY | os.O_TRUNC, 0o600)
    try:
        os.write(fd, key.hex().encode("ascii"))
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    return key


def sign_payload(key: bytes, payload: dict) -> str:
    """HMAC-SHA256 over the payload's canonical bytes, as hex."""
    return hmac.new(key, canonical_json(payload), hashlib.sha256).hexdigest()


# -- manifest and seals -------------------------------------------------------


def write_signed(
    path: str, payload: dict, key: bytes, *, fsync: bool = True
) -> None:
    """Atomically write *payload* + its signature as canonical JSON.

    ``fsync=False`` matches a journal running without fsync: a crash
    keeps either the old sidecar or the new one (the replace is
    atomic), but a power loss may lose the update — the same durability
    contract the journal itself offers in that mode.
    """
    signed = dict(payload)
    signed.pop("sig", None)
    signed["sig"] = sign_payload(key, signed)
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(canonical_json(signed))
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(tmp, path)


def load_signed(path: str) -> dict | None:
    """Read a signed sidecar leniently; ``None`` when absent.

    Signature verification is the *caller's* job (:func:`verify_journal`
    reports a bad signature as a finding; the journal's open path uses
    the values to recover state and lets the next verify flag forgery).
    Raises :class:`~repro.errors.IntegrityError` when the file exists
    but cannot be parsed at all.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        return None
    try:
        payload = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError):
        _fail(f"signed sidecar {path!r} is not valid JSON",
              "manifest_malformed")
    if not isinstance(payload, dict):
        _fail(f"signed sidecar {path!r} is not an object",
              "manifest_malformed")
    return payload


def check_signature(payload: dict, key: bytes) -> bool:
    """Whether *payload*'s ``sig`` matches its canonical bytes."""
    body = {k: v for k, v in payload.items() if k != "sig"}
    expected = sign_payload(key, body)
    return hmac.compare_digest(expected, str(payload.get("sig", "")))


def tombstone_core(entry: dict) -> str:
    """The chained portion of a tombstone (everything but ``h``)."""
    return canonical_json(
        {k: v for k, v in entry.items() if k != "h"}
    ).decode("utf-8")


# -- the verification walk ----------------------------------------------------


@dataclass(frozen=True)
class IntegrityReport:
    """What :func:`verify_journal` found.

    ``first_error`` is ``None`` on a clean walk, else
    ``(segment, offset, reason)``: the basename of the offending file,
    the byte offset of the offending line within it (a tombstone index
    for manifest findings), and a reason from :data:`REASONS`.
    ``detail`` narrates that first finding for humans.
    """

    ok: bool
    checked_records: int
    checked_segments: int
    attested_seq: int
    first_error: tuple[str, int, str] | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        """The canonical JSON-safe form (the HTTP route's body)."""
        error: dict | None = None
        if self.first_error is not None:
            segment, offset, reason = self.first_error
            error = {"segment": segment, "offset": offset, "reason": reason}
        return {
            "ok": self.ok,
            "checked_records": self.checked_records,
            "checked_segments": self.checked_segments,
            "attested_seq": self.attested_seq,
            "first_error": error,
            "detail": self.detail,
        }


def journal_segments(path: str) -> list[tuple[str, int]]:
    """Rotated segments ``(path, last_seq)`` of the journal at *path*,
    oldest first.

    The one segment lister: :class:`~repro.service.ingest.IngestJournal`
    discovers its own segments here, and verification needs no live
    journal.
    """
    directory = os.path.dirname(path) or "."
    prefix = os.path.basename(path) + ".seg-"
    found: list[tuple[str, int]] = []
    if not os.path.isdir(directory):
        return found
    for name in os.listdir(directory):
        if not name.startswith(prefix) or name.endswith(_SEAL_SUFFIX):
            continue
        try:
            last = int(name[len(prefix):])
        except ValueError:
            continue
        found.append((os.path.join(directory, name), last))
    found.sort(key=lambda pair: pair[1])
    return found


def _iter_raw_lines(data: bytes) -> Iterator[tuple[int, bytes, bool]]:
    """``(byte_offset, raw_line, complete)`` for every line in *data*."""
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline == -1:
            yield offset, data[offset:], False
            return
        yield offset, data[offset:newline + 1], True
        offset = newline + 1


class _Corrupt(Exception):
    """Internal: carries the first finding out of the walk."""

    def __init__(self, segment: str, offset: int, reason: str, detail: str):
        super().__init__(detail)
        self.finding = (segment, offset, reason)
        self.detail = detail


def verify_journal(path: str, *, key: bytes | None = None) -> IntegrityReport:
    """Walk the journal at *path* and pinpoint the first corruption.

    Purely offline: reads the segment files, active file, seals, and
    manifest as they sit on disk — no journal instance, no recovery
    side effects — so tests can corrupt bytes and verify without a
    reopen truncating the evidence.  *key* defaults to the journal's
    own ``<journal>.key``.

    The walk checks, in order: manifest presence + signature, the
    tombstone chain, then every record of every segment and the active
    file (sequence contiguity from the compaction anchor, per-record
    chain recomputation), each segment's seal, and finally coverage —
    every attested sequence must still be present and the walked chain
    must match the signed head.  A torn *final* line in the active file
    is a tolerated crash artifact (recovery truncates it); the same
    tear in a sealed segment is corruption.
    """
    if key is None:
        key = load_key(path)
    manifest_name = os.path.basename(path) + _MANIFEST_SUFFIX
    segments = journal_segments(path)
    active_name = os.path.basename(path)
    checked_records = 0
    checked_segments = 0
    attested_seq = 0
    try:
        manifest = _load_manifest(path, manifest_name)
        has_data = bool(segments) or (
            os.path.exists(path) and os.path.getsize(path) > 0
        )
        if manifest is None:
            if has_data:
                raise _Corrupt(
                    manifest_name, 0, "manifest_missing",
                    "journal has records but no signed manifest",
                )
            return IntegrityReport(
                ok=True, checked_records=0, checked_segments=0,
                attested_seq=0, detail="empty journal",
            )
        if not check_signature(manifest, key):
            raise _Corrupt(
                manifest_name, 0, "manifest_signature",
                "manifest signature does not verify",
            )
        attested_seq = int(manifest.get("seq", 0))
        _verify_tombstones(manifest, manifest_name)

        anchor_seq = int(manifest.get("anchor_seq", 0))
        prev = str(manifest.get("anchor", GENESIS))
        expected = anchor_seq + 1
        last_seen = anchor_seq
        attested_at: tuple[str, str, int] | None = None
        if attested_seq <= anchor_seq:
            attested_at = (str(manifest.get("anchor", GENESIS)), manifest_name, 0)

        files = [(seg_path, True) for seg_path, _last in segments]
        files.append((path, False))
        for file_path, sealed in files:
            name = os.path.basename(file_path)
            try:
                with open(file_path, "rb") as handle:
                    data = handle.read()
            except FileNotFoundError:
                data = b""
            first_in_file: int | None = None
            last_in_file: int | None = None
            count_in_file = 0
            for offset, raw, complete in _iter_raw_lines(data):
                if not complete:
                    if sealed:
                        raise _Corrupt(
                            name, offset, "torn_record",
                            "sealed segment ends mid-record",
                        )
                    break  # active-file crash artifact; recovery truncates
                try:
                    text = raw.decode("utf-8")
                except UnicodeDecodeError:
                    raise _Corrupt(
                        name, offset, "malformed_record",
                        "journal line is not valid UTF-8",
                    ) from None
                try:
                    seq, core, digest = parse_chained_line(text)
                except IntegrityError as exc:
                    raise _Corrupt(
                        name, offset, getattr(exc, "reason", "malformed_record"),
                        str(exc),
                    ) from None
                if seq <= anchor_seq:
                    # Pre-anchor leftovers from an interrupted
                    # compaction: logically deleted, not part of the
                    # chain the anchor restarts.
                    continue
                if seq != expected:
                    raise _Corrupt(
                        name, offset, "sequence_gap",
                        f"expected sequence {expected}, found {seq}",
                    )
                if chain_hash(prev, core) != digest:
                    raise _Corrupt(
                        name, offset, "chain_mismatch",
                        f"record {seq}'s chain hash does not recompute",
                    )
                prev = digest
                last_seen = seq
                expected = seq + 1
                checked_records += 1
                count_in_file += 1
                if first_in_file is None:
                    first_in_file = seq
                last_in_file = seq
                if seq == attested_seq:
                    attested_at = (digest, name, offset)
            if sealed:
                checked_segments += 1
                _verify_seal(
                    file_path, name, len(data), key, anchor_seq,
                    first_in_file, last_in_file, count_in_file, prev,
                )

        if attested_seq > last_seen:
            size = os.path.getsize(path) if os.path.exists(path) else 0
            raise _Corrupt(
                active_name, size, "truncated",
                f"manifest attests sequence {attested_seq} but the walk"
                f" ends at {last_seen}",
            )
        if attested_at is not None:
            digest, name, offset = attested_at
            if digest != str(manifest.get("chain", GENESIS)):
                raise _Corrupt(
                    name, offset, "attestation_mismatch",
                    f"walked chain at attested sequence {attested_seq}"
                    f" does not match the signed head",
                )
    except _Corrupt as exc:
        return IntegrityReport(
            ok=False,
            checked_records=checked_records,
            checked_segments=checked_segments,
            attested_seq=attested_seq,
            first_error=exc.finding,
            detail=exc.detail,
        )
    return IntegrityReport(
        ok=True,
        checked_records=checked_records,
        checked_segments=checked_segments,
        attested_seq=attested_seq,
        detail=f"verified {checked_records} records"
               f" across {checked_segments + 1} files",
    )


def _load_manifest(path: str, manifest_name: str) -> dict | None:
    try:
        return load_signed(path + _MANIFEST_SUFFIX)
    except IntegrityError as exc:
        raise _Corrupt(
            manifest_name, 0, getattr(exc, "reason", "manifest_malformed"),
            str(exc),
        ) from None


def _verify_tombstones(manifest: dict, manifest_name: str) -> None:
    prev = str(manifest.get("tombstone_anchor", GENESIS))
    entries = manifest.get("tombstones", [])
    if not isinstance(entries, list):
        raise _Corrupt(
            manifest_name, 0, "manifest_malformed",
            "manifest tombstones are not a list",
        )
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict) or "h" not in entry:
            raise _Corrupt(
                manifest_name, index, "tombstone_chain",
                f"tombstone {index} carries no chain hash",
            )
        if chain_hash(prev, tombstone_core(entry)) != entry["h"]:
            raise _Corrupt(
                manifest_name, index, "tombstone_chain",
                f"tombstone {index}'s chain hash does not recompute",
            )
        prev = entry["h"]


def _verify_seal(
    seg_path: str,
    name: str,
    size: int,
    key: bytes,
    anchor_seq: int,
    first: int | None,
    last: int | None,
    count: int,
    chain: str,
) -> None:
    try:
        seal = load_signed(seg_path + _SEAL_SUFFIX)
    except IntegrityError as exc:
        raise _Corrupt(name, 0, "seal_malformed", str(exc)) from None
    if seal is None:
        raise _Corrupt(
            name, size, "seal_missing",
            f"sealed segment {name} has no seal sidecar",
        )
    if not check_signature(seal, key):
        raise _Corrupt(
            name, 0, "seal_signature",
            f"segment {name}'s seal signature does not verify",
        )
    sealed_last = int(seal.get("last", 0))
    if sealed_last <= anchor_seq:
        # The whole segment sits below the compaction anchor: a crash
        # between the manifest's anchor advance and the unlink left a
        # logically deleted file behind.  Not corruption.
        return
    if last is None or last < sealed_last:
        raise _Corrupt(
            name, size, "truncated",
            f"segment {name} is sealed through sequence {sealed_last}"
            f" but ends at {last if last is not None else 'nothing'}",
        )
    if (
        last > sealed_last
        or int(seal.get("first", 0)) != (first if first is not None else 0)
        or int(seal.get("count", -1)) != count
        or str(seal.get("chain", "")) != chain
    ):
        raise _Corrupt(
            name, 0, "seal_mismatch",
            f"segment {name}'s contents do not match its seal",
        )
