"""The persona corpus every workload draws from, and its cache.

The corpus is 24 tenants built with the public
:func:`repro.service.workload.synthesize_user_events`, their history
lengths log-spread from 8 to 128 days (3 sessions a day, 15 actions a
session): about 270k events, the largest tenant about 10k nodes — the
ROADMAP's 10k-document first-page case.  Each tenant's stream is
re-ordered into causal time order — a node before the edges and
intervals that name it — so any prefix of it is a valid history: the
``mixed`` workload preloads each tenant's older part and streams the
rest.

Building the corpus takes about 45 s on a 2-CPU host and preloading it
into a ``fsync=True`` service about 50 s, while one benchmark run may
spend about 37 s in all (92 runs in under an hour).  So the corpus is
built once per checkout from the fixed :data:`CORPUS_SEED`, together
with two preloaded roots (every tenant's first :data:`MIXED_HEAD`
share, and the whole corpus), under ``.bench_work/cache/``; a run
copies a root and times only the child's start on it.  The cache key
hashes the program's sources and this benchmark's corpus and server
code, so an edit to either rebuilds it.  ``--seed`` chooses each
workload's request schedule over the corpus.

The server child receives only the generated events, as JSONL files of
:func:`repro.service.events.encode_event_json` lines.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import shutil
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.taxonomy import NodeKind
from repro.errors import InvalidUrlError
from repro.service import decode_event
from repro.service.events import (
    EdgeEvent,
    IntervalEvent,
    NodeEvent,
    ProvEvent,
    encode_event_json,
)
from repro.service.indexer import node_tokens
from repro.service.workload import MultiUserParams, synthesize_user_events
from repro.web.url import Url

from bench.client import CHECKOUT, SRC, Child

CORPUS_SEED = 1
SESSIONS_PER_DAY = 3
ACTIONS_PER_SESSION = 15
#: Share of each tenant's stream in the ``heads`` root: ``mixed``
#: preloads it and streams the newer 40%.
MIXED_HEAD = 0.6
CACHE = CHECKOUT / ".bench_work" / "cache"
#: What the cached corpus and roots are built from.
CACHE_SOURCES = (SRC, Path(__file__), Path(__file__).with_name("server.py"))


@dataclass(frozen=True)
class Shape:
    """How big the corpus is: tenant count and history-length spread."""

    name: str
    tenants: int
    min_days: int
    max_days: int

    def days(self) -> list[int]:
        """History length of each tenant, log-spread, smallest first."""
        if self.tenants == 1:
            return [self.max_days]
        ratio = self.max_days / self.min_days
        return [
            round(self.min_days * ratio ** (i / (self.tenants - 1)))
            for i in range(self.tenants)
        ]


FULL = Shape("full", tenants=24, min_days=8, max_days=128)
SMOKE = Shape("smoke", tenants=4, min_days=1, max_days=2)


@dataclass
class Tenant:
    """One tenant's stream plus what the client derives from it."""

    user_id: str
    days: int
    events: list[ProvEvent]
    lines: list[str]
    nodes: dict[str, object] = field(default_factory=dict)
    #: token -> number of the tenant's nodes indexed under it.
    df: Counter = field(default_factory=Counter)
    #: registrable site -> node ids whose URL is on it.
    sites: dict[str, list[str]] = field(default_factory=dict)
    #: node id -> registrable site of its URL.
    node_site: dict[str, str] = field(default_factory=dict)
    first_us: int = 0
    last_us: int = 0

    @property
    def head(self) -> int:
        """Events of this tenant in the ``heads`` root."""
        return int(len(self.lines) * MIXED_HEAD)


@dataclass
class Corpus:
    shape: Shape
    tenants: list[Tenant]
    #: Input generation and preload times, measured when the cache was
    #: built (not metrics).
    gen_s: float
    preload_s: dict[str, float]
    #: Preloaded roots to copy: ``heads`` and ``full``.
    roots: dict[str, Path]

    @property
    def events(self) -> int:
        return sum(len(tenant.events) for tenant in self.tenants)


def stream_totals(parts) -> dict[str, int]:
    """Store-level counts after ingesting ``(tenant, prefix length)`` parts.

    Each part is a distinct tenant (a renamed replay counts as its
    own).  Intervals upsert on ``(node, opened_us)`` and edges take
    fresh ids from the journal, so these are the distinct keys the
    stores must hold once the parts are applied.
    """
    nodes = edges = intervals = 0
    for tenant, count in parts:
        opened: set[tuple[str, int]] = set()
        for event in tenant.events[:count]:
            if isinstance(event, NodeEvent):
                nodes += 1
            elif isinstance(event, EdgeEvent):
                edges += 1
            else:
                opened.add((event.interval.node_id, event.interval.opened_us))
        intervals += len(opened)
    return {"nodes": nodes, "edges": edges, "intervals": intervals}


def causal_order(events: list[ProvEvent]) -> list[ProvEvent]:
    """*events* by timestamp, each after every node it references."""

    def timestamp(event: ProvEvent) -> int:
        if isinstance(event, NodeEvent):
            return event.node.timestamp_us
        if isinstance(event, EdgeEvent):
            return event.edge.timestamp_us
        return event.interval.opened_us

    def needs(event: ProvEvent) -> tuple[str, ...]:
        if isinstance(event, EdgeEvent):
            return (event.edge.src, event.edge.dst)
        if isinstance(event, IntervalEvent):
            return (event.interval.node_id,)
        return ()

    rank = {NodeEvent: 0, EdgeEvent: 1, IntervalEvent: 2}
    ordered = sorted(
        range(len(events)),
        key=lambda i: (timestamp(events[i]), rank[type(events[i])], i),
    )
    emitted: set[str] = set()
    waiting: dict[str, list[ProvEvent]] = defaultdict(list)
    out: list[ProvEvent] = []

    def emit(event: ProvEvent) -> None:
        missing = next((n for n in needs(event) if n not in emitted), None)
        if missing is not None:
            waiting[missing].append(event)
            return
        out.append(event)
        if isinstance(event, NodeEvent):
            emitted.add(event.node.id)
            for parked in waiting.pop(event.node.id, ()):
                emit(parked)

    for index in ordered:
        emit(events[index])
    if waiting:
        raise ValueError("corpus stream references nodes it never records")
    return out


@functools.cache
def site_of(url: str | None) -> str | None:
    """The registrable site of *url* (memoized: nodes share few URLs)."""
    if not url:
        return None
    try:
        return Url.parse(url).site
    except InvalidUrlError:
        return None


@functools.cache
def terms_of(label: str, url: str | None) -> frozenset[str]:
    """The distinct index tokens of a node (memoized like :func:`site_of`)."""
    return frozenset(node_tokens(label, url))


def generate(shape: Shape) -> list[list[str]]:
    """Every tenant's JSONL lines: same shape, same lines, byte for byte."""
    streams = []
    for index, days in enumerate(shape.days()):
        params = MultiUserParams(
            users=1,
            days=days,
            sessions_per_day=SESSIONS_PER_DAY,
            actions_per_session=ACTIONS_PER_SESSION,
            seed=CORPUS_SEED * 100,
        )
        events = causal_order(
            synthesize_user_events(f"t{index:02d}", index=index, params=params)
        )
        streams.append([encode_event_json(event) for event in events])
    return streams


def tenant_of(user_id: str, days: int, lines: list[str]) -> Tenant:
    events = [decode_event(json.loads(line)) for line in lines]
    tenant = Tenant(user_id=user_id, days=days, events=events, lines=lines)
    for event in events:
        if isinstance(event, NodeEvent):
            node = event.node
            tenant.nodes[node.id] = node
            tenant.df.update(terms_of(node.label, node.url))
            site = site_of(node.url)
            if site is not None:
                tenant.sites.setdefault(site, []).append(node.id)
                tenant.node_site[node.id] = site
    stamps = [node.timestamp_us for node in tenant.nodes.values()]
    tenant.first_us, tenant.last_us = min(stamps), max(stamps)
    return tenant


def cache_key(shape: Shape) -> str:
    digest = hashlib.sha256(repr(shape).encode())
    for source in CACHE_SOURCES:
        paths = sorted(source.rglob("*.py")) if source.is_dir() else [source]
        for path in paths:
            digest.update(str(path.relative_to(CHECKOUT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def write_jsonl(path: Path, streams) -> Path:
    with open(path, "w", encoding="utf-8") as handle:
        for lines in streams:
            handle.writelines(line + "\n" for line in lines)
    return path


def preload_root(root: Path, events: Path, log: Path) -> float:
    """Preload *events* into *root* in a server child; returns seconds."""
    started = time.perf_counter()
    child = Child(root, preload=events, log=log)
    child.stop()
    return time.perf_counter() - started


def build(shape: Shape, target: Path) -> None:
    """Generate the corpus and its two preloaded roots into *target*."""
    work = target.with_name(target.name + ".tmp")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.perf_counter()
    streams = generate(shape)
    gen_s = time.perf_counter() - started
    write_jsonl(work / "corpus.jsonl", streams)
    heads = [lines[:int(len(lines) * MIXED_HEAD)] for lines in streams]
    tails = [lines[len(head):] for lines, head in zip(streams, heads)]
    log = work / "build.log"
    preload_s = {
        "heads": preload_root(
            work / "heads", write_jsonl(work / "heads.jsonl", heads), log
        )
    }
    # The whole corpus is the heads plus the tails: preload only those.
    shutil.copytree(work / "heads", work / "full")
    preload_s["full"] = preload_s["heads"] + preload_root(
        work / "full", write_jsonl(work / "tails.jsonl", tails), log
    )
    (work / "heads.jsonl").unlink()
    (work / "tails.jsonl").unlink()
    meta = {"days": shape.days(), "counts": [len(s) for s in streams],
            "gen_s": gen_s, "preload_s": preload_s}
    (work / "meta.json").write_text(json.dumps(meta))
    work.rename(target)


def load_corpus(shape: Shape) -> Corpus:
    """The corpus of *shape*, built into the cache first if missing."""
    key = cache_key(shape)
    target = CACHE / f"{shape.name}-{key}"
    if not (target / "meta.json").is_file():
        CACHE.mkdir(parents=True, exist_ok=True)
        for stale in CACHE.glob(f"{shape.name}-*"):
            shutil.rmtree(stale)
        build(shape, target)
    meta = json.loads((target / "meta.json").read_text())
    lines = (target / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    tenants = []
    offset = 0
    for index, (days, count) in enumerate(zip(meta["days"], meta["counts"])):
        tenants.append(
            tenant_of(f"t{index:02d}", days, lines[offset:offset + count])
        )
        offset += count
    return Corpus(
        shape=shape,
        tenants=tenants,
        gen_s=meta["gen_s"],
        preload_s=meta["preload_s"],
        roots={name: target / name for name in ("heads", "full")},
    )


def renamed_lines(tenant: Tenant, user_id: str) -> list[str]:
    """*tenant*'s JSONL lines re-owned by *user_id* (a fresh tenant)."""
    if user_id == tenant.user_id:
        return tenant.lines
    old = f'"u":"{tenant.user_id}"'
    new = f'"u":"{user_id}"'
    return [line.replace(old, new, 1) for line in tenant.lines]


def recall_keys(corpus: Corpus) -> list[tuple[str, str]]:
    """Every ``(tenant, term)`` a user could plausibly recall a page by.

    Words, not numbers: alphabetic tokens of at least three letters
    that index at least one of the tenant's nodes.
    """
    keys = []
    for tenant in corpus.tenants:
        for term in sorted(tenant.df):
            if term.isalpha() and len(term) >= 3:
                keys.append((tenant.user_id, term))
    return keys


def probe_term(tenant: Tenant, node_id: str, limit: int) -> str | None:
    """A token that ranks *node_id* on the tenant's first page.

    A term indexing at most *limit* of the tenant's nodes puts every
    one of them — this node included — on the first page of *limit*.
    """
    node = tenant.nodes[node_id]
    candidates = [
        token
        for token in terms_of(node.label, node.url)
        if tenant.df[token] <= limit
    ]
    if not candidates:
        return None
    return min(candidates, key=lambda token: (tenant.df[token], token))


def interleaved(count: int) -> list[int]:
    """0..count-1 in bit-reversed order: every prefix spans the range."""
    bits = max(1, (count - 1).bit_length())
    return sorted(
        range(count),
        key=lambda i: int(format(i, f"0{bits}b")[::-1], 2),
    )


def walk_candidates(
    tenant: Tenant, forgotten: set[str], cutoff_us: int
) -> list[str]:
    """Nodes no retention pass so far can have removed.

    Pages and downloads (search-term nodes vanish with the pages they
    led to) newer than the expiry cutoff and off every forgotten site.
    """
    return [
        node.id
        for node in tenant.nodes.values()
        if node.kind in (NodeKind.PAGE_VISIT, NodeKind.DOWNLOAD)
        and node.timestamp_us > cutoff_us
        and tenant.node_site.get(node.id) not in forgotten
    ]


def forget_order(tenant: Tenant, rng: random.Random) -> list[str]:
    """Sites to redact, seeded: those holding at most 1% of the tenant.

    A pass costs what loading the tenant's subgraph costs, whatever the
    site holds; forgetting only small sites keeps the tenant, and so
    the cost of every later operation on it, the same size however
    many passes a run makes.  (Forgetting its 4th-largest site would
    take a tenant down by up to a tenth, so a run that got through
    more passes would also have cheaper ones.)  The order cycles when
    a run outlasts it: forgetting a site again removes nothing but
    costs the same pass.
    """
    small = sorted(
        site for site, nodes in tenant.sites.items()
        if len(nodes) <= len(tenant.nodes) / 100
    )
    if not small:
        small = [min(tenant.sites, key=lambda s: (len(tenant.sites[s]), s))]
    rng.shuffle(small)
    return small
