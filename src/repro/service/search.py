"""Relevance-ranked, pageable search over the sharded provenance corpus.

``global_search`` answers "what matched, newest first"; this module
answers the paper's harder question — *"where did this come from / what
was I looking at when…"* — as a ranked-retrieval problem.  The paper's
core query is a **recognition task**: users page through ranked
candidates until they recognize the right one, so deep, stable result
pages with highlighted match context are part of the workload, not a
UI nicety.  Each shard keeps an incremental SQLite inverted index
(:mod:`repro.service.indexer`); a ranked query:

1. tokenizes with the shared :mod:`repro.ir.tokenize` analyzer,
2. ranks every candidate on the shard in one SQLite statement
   (:func:`shard_ranked_scan`): BM25 over the query terms' postings,
   blended with a recency weight (the Firefox frecency buckets of
   :mod:`repro.browser.frecency`) and a per-tenant frecency signal
   (how often *that tenant* visited the hit's page) into one total
   order per shard,
3. slices the shard's next window strictly *below* a ``(score, nid)``
   watermark (:func:`slice_after`) — the score-bounded continuation
   that lets a cursor resume where the previous page stopped instead
   of re-ranking from the top, and
4. decorates each emitted hit with a matched-term snippet
   (:func:`extract_snippet` over the store's positions-aware
   :meth:`~repro.core.store.ProvenanceStore.node_texts` fetch), so the
   caller sees *why* the hit matched.

The service heap-merges per-shard windows by blended score and mints
an opaque continuation token (:func:`encode_cursor`) carrying every
shard's watermark plus the cache epoch the page was computed in.

Every input to the blend is a deterministic function of shard state,
so ranked results — scores, page boundaries, and cursors alike — are
identical across the serial and threaded ingest drains:
the same state-equivalence contract the row tables already carry.

Concurrency contract: everything in this module is pure computation
over a store handed in by the caller.  Functions taking a
:class:`~repro.core.store.ProvenanceStore` issue read-only SQL through
the store's per-thread WAL read connections, so they may run
concurrently with flush workers and with each other; they hold no
locks and keep no mutable module state.  Callers needing a fresh index
must run :func:`repro.service.indexer.ensure_index` first.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import re
import struct
import zlib
from bisect import bisect_right
from dataclasses import dataclass

from repro.browser.frecency import DEFAULT_BUCKET_WEIGHT, RECENCY_BUCKETS
from repro.clock import MICROSECONDS_PER_DAY
from repro.core.store import ProvenanceStore, _id_range
from repro.errors import CursorError
from repro.ir.scoring import Bm25Params
from repro.ir.tokenize import tokenize_filtered
from repro.service.events import USER_SEP


@dataclass(frozen=True)
class RankingParams:
    """Knobs for the blended relevance score.

    ``blended = bm25 * (1 + recency_weight * recency
                          + frecency_weight * log1p(tenant_visits))``

    where ``recency`` is the Firefox frecency bucket weight of the
    node's age (1.0 within four days, decaying to 0.1 past 90) and
    ``tenant_visits`` counts the owning tenant's nodes on the hit's
    page.  Multiplicative, so text relevance stays the primary signal
    and the behavioral terms break ties among comparable matches —
    zero either weight to ablate its signal.
    """

    bm25: Bm25Params = Bm25Params()
    #: Strength of the recency term (0 disables it).
    recency_weight: float = 0.5
    #: Strength of the per-tenant page-popularity term (0 disables it).
    frecency_weight: float = 0.25

    def __post_init__(self) -> None:
        if self.recency_weight < 0 or self.frecency_weight < 0:
            raise ValueError("blend weights must be non-negative")


#: The service default; construct your own to retune.
DEFAULT_RANKING = RankingParams()


@dataclass(frozen=True)
class SnippetParams:
    """Knobs for matched-term snippet extraction.

    Snippets are the paged-search cost that scales with the *page*, not
    the corpus: one :meth:`~repro.core.store.ProvenanceStore.node_texts`
    fetch plus one analyzer pass per emitted hit.  Shrink ``width`` to
    cut per-page bytes; the highlight marker is configurable so callers
    rendering HTML (or ANSI) need not re-parse the default Markdown.
    """

    #: Target snippet length in characters (matches outside the window
    #: are dropped; the window is trimmed to word boundaries).
    width: int = 100
    #: Wrapped around each matched term occurrence (Markdown ``**``).
    mark: str = "**"
    #: Appended/prepended where the window cut the source text.
    ellipsis: str = "…"

    def __post_init__(self) -> None:
        if self.width < 16:
            raise ValueError("snippet width must be >= 16 characters")


#: The service default; construct your own to retune.
DEFAULT_SNIPPETS = SnippetParams()


@dataclass(frozen=True)
class SearchHit:
    """One ranked result with the evidence of *why* it matched."""

    #: Owning tenant (always set, also on tenant-scoped searches).
    user_id: str
    #: The tenant's own (unqualified) node id.
    nid: str
    #: Blended relevance score (BM25 × recency × tenant frecency).
    score: float
    #: Display text around the match, matched terms wrapped in
    #: :attr:`SnippetParams.mark`; never empty (falls back to the URL,
    #: then the node id, when the node carries no label text).
    snippet: str
    #: Distinct query terms found in the hit's text, in query order.
    matched_terms: tuple[str, ...]

    def to_dict(self) -> dict:
        """The canonical JSON-safe form; inverse of :meth:`from_dict`.

        ``score`` survives the round trip exactly: JSON floats are
        serialized via ``repr``, which Python guarantees round-trips
        every finite double — so a hit re-built from the wire compares
        equal to the in-process original, byte for byte.
        """
        return {
            "user_id": self.user_id,
            "nid": self.nid,
            "score": self.score,
            "snippet": self.snippet,
            "matched_terms": list(self.matched_terms),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SearchHit":
        return cls(
            user_id=payload["user_id"],
            nid=payload["nid"],
            score=payload["score"],
            snippet=payload["snippet"],
            matched_terms=tuple(payload["matched_terms"]),
        )


@dataclass(frozen=True)
class SearchPage:
    """One page of ranked hits plus the continuation token.

    ``cursor`` is ``None`` when the result set is exhausted; otherwise
    pass it back to ``ranked_search(..., cursor=...)`` for the next
    page.  Iterates, indexes, and sizes like the hit list it carries.
    """

    hits: tuple[SearchHit, ...] = ()
    cursor: str | None = None

    def __iter__(self):
        return iter(self.hits)

    def __len__(self) -> int:
        return len(self.hits)

    def __bool__(self) -> bool:
        return bool(self.hits)

    def __getitem__(self, index):
        return self.hits[index]

    def to_dict(self) -> dict:
        """The canonical JSON-safe form; inverse of :meth:`from_dict`.

        The cursor is already an opaque string (or ``None`` when
        exhausted), so the page serializes without any transformation
        a client would need to undo.
        """
        return {
            "hits": [hit.to_dict() for hit in self.hits],
            "cursor": self.cursor,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SearchPage":
        return cls(
            hits=tuple(
                SearchHit.from_dict(hit) for hit in payload["hits"]
            ),
            cursor=payload["cursor"],
        )


def query_terms(text: str) -> list[str]:
    """Tokenize a user query with the corpus analyzer (stopwords dropped)."""
    return tokenize_filtered(text)


def shard_ranked_scan(
    store: ProvenanceStore,
    terms: list[str],
    *,
    params: RankingParams = DEFAULT_RANKING,
    id_prefix: str | None = None,
    now_us: int | None = None,
    aggregates: tuple[int, int, int] | None = None,
) -> list[tuple[str, float]]:
    """One shard's *complete* blended ranking: ``[(stored_id, score)]``
    best-first, every candidate included.

    This is the unit of work a cursor amortizes: computed once per
    query (and cached by the service under epoch admission), then every
    page is a :func:`slice_after` window of it — the per-shard
    continuation never re-runs the scoring statement.

    BM25 normalizes against *aggregates*: ``(documents, total indexed
    length, newest timestamp_us)`` in scope, as
    :meth:`~repro.core.store.ProvenanceStore.ranking_aggregates`
    returns them (read here when ``None``).  With *id_prefix* they are
    the tenant's own, so a co-tenant's ingest can never reorder a
    user's results, and a page's visits count the scope's nodes;
    without, each hit's visits count its own tenant's.  *now_us*
    anchors the recency buckets; ``None`` anchors at the newest node
    in scope, which keeps the computation a pure function of shard
    state (the cross-mode determinism contract).  Ties break on stored
    id, so the cross-shard heap-merge is total-ordered and page
    boundaries are stable.

    One SQLite statement computes the order, as CTEs: the distinct
    terms' postings in scope; df and idf per term; each posting's BM25
    contribution; a per-document sum with one column per distinct
    term, added in query order (the additions
    :func:`repro.ir.scoring.bm25_scores` makes, a repeated term once
    per occurrence); the node facts; the page visits, driven from
    ``prov_nodes_page``; then the blend.  Its logarithms are the
    store's registered ``math_log``/``math_log1p``, called once per
    distinct term and once per distinct candidate page, so every score
    is bit-identical to the same arithmetic in Python.
    """
    if not terms:
        return []
    if aggregates is None:
        aggregates = store.ranking_aggregates(id_prefix)
    doc_count, total_length, newest_us = aggregates
    average_length = (total_length / doc_count if doc_count else 0.0) or 1.0
    distinct = list(dict.fromkeys(terms))
    slot = {term: index for index, term in enumerate(distinct)}
    if id_prefix is None:
        postings_scope, postings_bounds = "", ()
        # Each hit's tenant prefix, as ``partition(USER_SEP)`` cuts it.
        prefix, prefix_args = (
            f"CASE WHEN instr(n.id, '{USER_SEP}') > 0"
            f" THEN substr(n.id, 1, instr(n.id, '{USER_SEP}')"
            f" + {len(USER_SEP) - 1}) ELSE n.id || '{USER_SEP}' END"
        ), ()
        visits_scope = "substr(m.id, 1, length(pages.prefix)) = pages.prefix"
        visits_bounds = ()
    else:
        postings_scope, postings_bounds = _id_range("n.id", id_prefix)
        postings_scope = " WHERE " + postings_scope
        prefix, prefix_args = "?", (id_prefix,)
        visits_scope, visits_bounds = _id_range("m.id", id_prefix)
    bm25 = params.bm25
    buckets = " ".join(
        f"WHEN f.age_days <= {cutoff} THEN {weight}"
        for cutoff, weight in RECENCY_BUCKETS
    )
    parts: list[tuple[str, tuple]] = [
        ("WITH query (k, term) AS (VALUES "
         + ", ".join("(?, ?)" for _ in distinct) + "),",
         tuple(value for pair in enumerate(distinct) for value in pair)),
        (" postings AS (SELECT query.k, p.nid, p.tf FROM query"
         " JOIN prov_terms AS t ON t.term = query.term"
         " JOIN prov_postings AS p ON p.tid = t.tid"
         " JOIN prov_nodes AS n ON n.nid = p.nid" + postings_scope + "),",
         postings_bounds),
        (" idf AS (SELECT k,"
         " math_log(1.0 + (? - COUNT(*) + 0.5) / (COUNT(*) + 0.5)) AS idf"
         " FROM postings GROUP BY k),",
         (doc_count,)),
        (" contributions AS (SELECT p.nid, p.k, idf.idf * (p.tf * (? + 1.0)"
         " / (p.tf + ? * (1.0 - ? + ? * (COALESCE(d.length, 0) / ?)))) AS c"
         " FROM postings AS p JOIN idf ON idf.k = p.k"
         " LEFT JOIN prov_index_docs AS d ON d.nid = p.nid),",
         (bm25.k1, bm25.k1, bm25.b, bm25.b, average_length)),
        (" documents AS (SELECT nid, "
         + ", ".join(f"MAX(CASE k WHEN {i} THEN c END) AS c{i}"
                     for i in range(len(distinct)))
         + " FROM contributions GROUP BY nid),",
         ()),
        (" facts AS (SELECT n.id, n.page_id, " + prefix + " AS prefix,",
         prefix_args),
        (" (? - n.timestamp_us) / ? AS age_days, "
         + " + ".join(f"COALESCE(c{slot[term]}, 0.0)" for term in terms)
         + " AS bm25 FROM documents"
         " JOIN prov_nodes AS n ON n.nid = documents.nid),",
         (newest_us if now_us is None else now_us,
          float(MICROSECONDS_PER_DAY))),
        (" visits AS (SELECT pages.page_id, pages.prefix,"
         " math_log1p(COUNT(*)) AS boost FROM (SELECT DISTINCT page_id,"
         " prefix FROM facts WHERE page_id IS NOT NULL) AS pages"
         " JOIN prov_nodes AS m ON m.page_id = pages.page_id"
         " WHERE " + visits_scope + " GROUP BY pages.page_id, pages.prefix)",
         visits_bounds),
        (" SELECT f.id, f.bm25 * (1.0 + ? * (CASE " + buckets
         + f" ELSE {DEFAULT_BUCKET_WEIGHT} END / 100.0)"
         " + ? * COALESCE(v.boost, 0.0)) AS score"
         " FROM facts AS f LEFT JOIN visits AS v"
         " ON v.page_id = f.page_id AND v.prefix = f.prefix"
         " ORDER BY score DESC, f.id",
         (params.recency_weight, params.frecency_weight)),
    ]
    return store.read_rows(
        "ranked_scan",
        "".join(text for text, _args in parts),
        [arg for _text, args in parts for arg in args],
    )


def slice_after(
    scan: list[tuple[str, float]],
    after: tuple[float, str] | None,
    limit: int,
) -> tuple[list[tuple[str, float]], int]:
    """The next window of *scan* strictly below the *after* watermark.

    *after* is ``(score, stored_id)`` — the last hit the previous page
    consumed from this shard; ``None`` starts at the top.  Returns
    ``(window, remaining)`` where *remaining* counts the hits still
    below the window (``0`` means this window drains the shard).

    Against the *same* scan the previous page saw (the cached-snapshot
    case), the watermark resolves by binary search on the total order
    ``(-score, stored_id)`` — O(log n), and no hit can be emitted twice
    or skipped however pages and shard merges interleave.  Against a
    **re-scored** scan (epoch rolled, tenant wrote), absolute scores
    have shifted — every idf/avgdl change moves every score — so the
    resume anchors on the watermark *hit itself*: the window starts
    after that document's current rank, wherever it moved.  A stale
    score bound alone would either re-emit the whole page (scores sank)
    or silently skip the rest of the result set (scores rose).  Only
    when the anchor document no longer exists (retention deleted it)
    does the score bound serve as the fallback resume point.
    """
    if limit < 1:
        return [], len(scan)
    if after is None:
        start = 0
    else:
        score, anchor_id = after
        start = bisect_right(
            scan,
            (-score, anchor_id),
            key=lambda row: (-row[1], row[0]),
        )
        if not (start > 0 and scan[start - 1][0] == anchor_id):
            # Not the scan this watermark was minted against: find the
            # anchor hit's current rank (scores moved, order of ids is
            # not score-sorted — a linear pass is the only resolver).
            for index, (doc_id, _score) in enumerate(scan):
                if doc_id == anchor_id:
                    start = index + 1
                    break
    window = scan[start:start + limit]
    return window, len(scan) - start - len(window)


# -- snippets ---------------------------------------------------------------

#: The analyzer's token shape, reused here so snippet offsets land on
#: exactly the spans the index matched.
_TOKEN_SPAN_RE = re.compile(r"[a-z0-9]+")


def _term_spans(text: str, terms: frozenset[str]) -> list[tuple[int, int]]:
    """Character spans of query-term occurrences in *text* (in order)."""
    return [
        (match.start(), match.end())
        for match in _TOKEN_SPAN_RE.finditer(text.lower())
        if match.group() in terms
    ]


def _highlight_window(
    text: str,
    spans: list[tuple[int, int]],
    params: SnippetParams,
) -> str:
    """*text* clipped to ``params.width`` around its first matched span,
    every span inside the window wrapped in ``params.mark``."""
    first_start = spans[0][0]
    if len(text) <= params.width:
        start, end = 0, len(text)
    else:
        # Lead with a fifth of the window as left context, then trim
        # both cuts back to word boundaries so terms never tear.
        start = max(0, min(first_start - params.width // 5,
                           len(text) - params.width))
        end = min(len(text), start + params.width)
        if start > 0:
            space = text.rfind(" ", 0, start + 1)
            boundary = text.find(" ", start)
            if 0 <= boundary < first_start:
                start = boundary + 1
            elif space > 0:
                start = space + 1
        if end < len(text):
            space = text.rfind(" ", start, end)
            if space > first_start:
                end = space
    pieces: list[str] = []
    position = start
    for span_start, span_end in spans:
        if span_end <= start or span_start >= end:
            continue
        pieces.append(text[position:span_start])
        pieces.append(params.mark + text[span_start:span_end] + params.mark)
        position = span_end
    pieces.append(text[position:end])
    snippet = "".join(pieces).strip()
    if start > 0:
        snippet = params.ellipsis + snippet
    if end < len(text):
        snippet = snippet + params.ellipsis
    return snippet


def extract_snippet(
    label: str | None,
    url: str | None,
    terms: list[str],
    params: SnippetParams = DEFAULT_SNIPPETS,
) -> tuple[str, tuple[str, ...]]:
    """``(snippet, matched_terms)`` for one hit's display text.

    The label (the title the user saw) is preferred; when only the URL
    contains a query term — URL tokens are indexed too — the snippet
    comes from the URL instead, so every index match can be shown *as a
    highlighted match*.  ``matched_terms`` lists the distinct query
    terms found in either text, in query order.  Returns an empty
    snippet only when the hit carries no text at all (the caller falls
    back to the node id).
    """
    term_set = frozenset(terms)
    label = label or ""
    url = url or ""
    label_spans = _term_spans(label, term_set)
    url_spans = _term_spans(url, term_set)
    matched = tuple(
        term
        for term in dict.fromkeys(terms)
        if any(
            source.lower()[s:e] == term
            for source, spans in ((label, label_spans), (url, url_spans))
            for s, e in spans
        )
    )
    if label_spans:
        return _highlight_window(label, label_spans, params), matched
    if url_spans:
        return _highlight_window(url, url_spans, params), matched
    source = label or url
    if not source:
        return "", ()
    if len(source) > params.width:
        source = source[: params.width].rstrip() + params.ellipsis
    return source, ()


def attach_snippets(
    store: ProvenanceStore,
    window: list[tuple[str, float]],
    terms: list[str],
    params: SnippetParams = DEFAULT_SNIPPETS,
) -> list[tuple[str, float, str, tuple[str, ...]]]:
    """Decorate one shard's page window with snippets:
    ``[(stored_id, score, snippet, matched_terms)]``.

    One :meth:`~repro.core.store.ProvenanceStore.node_texts` fetch for
    the whole window — the only per-page SQL a warm continuation pays.
    """
    if not window:
        return []
    texts = store.node_texts([doc_id for doc_id, _score in window])
    rows: list[tuple[str, float, str, tuple[str, ...]]] = []
    for doc_id, score in window:
        label, url = texts.get(doc_id, (None, None))
        snippet, matched = extract_snippet(label, url, terms, params)
        if not snippet:
            snippet = doc_id.partition(USER_SEP)[2] or doc_id
        rows.append((doc_id, score, snippet, matched))
    return rows


# -- continuation cursors ---------------------------------------------------

#: Bump when the token layout changes; decode rejects other versions.
CURSOR_VERSION = 1

#: Cursor shard-state marker for "this shard is fully consumed".
_EXHAUSTED = "d"


def query_fingerprint(
    terms: tuple[str, ...] | list[str], user_id: str | None
) -> str:
    """A short digest binding a cursor to its query and scope.

    A cursor replayed against a different query (or another tenant's
    scope) must be rejected, not silently continue the wrong result
    set — the watermarks would be meaningless there.
    """
    raw = json.dumps([list(terms), user_id or ""], separators=(",", ":"))
    return hashlib.sha1(raw.encode("utf-8")).hexdigest()[:12]


def encode_cursor(
    epoch: int,
    fingerprint: str,
    marks: dict[int, tuple[float, str] | None],
    universe: list[int],
) -> str:
    """Mint an opaque continuation token.

    *marks* maps shard -> ``(score, stored_id)`` watermark, or ``None``
    for a shard whose results are fully consumed (it must never restart
    from the top); shards in *universe* but absent from the map have
    not been read yet.  *universe* pins the shard set the pagination
    began over: a shard populated *after* page one (a brand-new tenant
    landing mid-pagination) stays outside this cursor chain, so pages
    remain a stable snapshot instead of interleaving a moving target —
    a fresh search picks the newcomer up.

    The token is canonical JSON + a CRC-32 trailer, base64url-encoded:
    the checksum makes truncation or tampering a clean
    :class:`~repro.errors.CursorError` at decode time instead of a
    garbage page, and the embedded *epoch* records which cache epoch
    minted it (a later epoch simply re-scores — see the service docs).
    """
    shards = {
        str(shard): (
            [_EXHAUSTED] if mark is None else [mark[0], mark[1]]
        )
        for shard, mark in sorted(marks.items())
    }
    raw = _canonical_payload(
        {
            "v": CURSOR_VERSION,
            "e": epoch,
            "q": fingerprint,
            "s": shards,
            "p": sorted(universe),
        }
    )
    token = raw + struct.pack("<I", zlib.crc32(raw))
    return base64.urlsafe_b64encode(token).decode("ascii")


def _canonical_payload(payload: dict) -> bytes:
    return json.dumps(
        payload, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


def decode_cursor(
    token: str, fingerprint: str
) -> tuple[int, dict[int, tuple[float, str] | None], list[int]]:
    """Validate *token*; returns ``(minted_epoch, marks, universe)``.

    Raises :class:`~repro.errors.CursorError` on any integrity failure
    (not base64, truncated, checksum mismatch, non-canonical bytes,
    unknown version, wrong shape) and on a fingerprint mismatch (a
    cursor minted for a different query or scope).  Never raises
    anything else, whatever bytes are thrown at it — that is the
    tamper-tolerance contract.  Only tokens byte-identical to what
    :func:`encode_cursor` mints are accepted: base64 quietly ignores
    trailing garbage and JSON admits infinitely many spellings, and a
    "creative" token that decodes plausibly is indistinguishable from
    a corrupted one.
    """
    try:
        blob = base64.urlsafe_b64decode(token.encode("ascii"))
    except (binascii.Error, ValueError, UnicodeEncodeError, AttributeError):
        raise CursorError("cursor is not a valid continuation token") from None
    if len(blob) < 5:
        raise CursorError("cursor is truncated")
    raw, trailer = blob[:-4], blob[-4:]
    if struct.pack("<I", zlib.crc32(raw)) != trailer:
        raise CursorError("cursor failed its integrity check")
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise CursorError("cursor payload is not decodable") from None
    if not isinstance(payload, dict) or payload.get("v") != CURSOR_VERSION:
        raise CursorError("cursor version is not supported")
    if payload.get("q") != fingerprint:
        raise CursorError(
            "cursor was minted for a different query or scope"
        )
    epoch = payload.get("e")
    shards = payload.get("s")
    universe = payload.get("p")
    if (
        not isinstance(epoch, int)
        or not isinstance(shards, dict)
        or not isinstance(universe, list)
        or not all(isinstance(shard, int) for shard in universe)
    ):
        raise CursorError("cursor payload has the wrong shape")
    marks: dict[int, tuple[float, str] | None] = {}
    try:
        for shard_text, state in shards.items():
            shard = int(shard_text)
            if state == [_EXHAUSTED]:
                marks[shard] = None
            else:
                score, stored_id = state
                if not isinstance(stored_id, str):
                    raise CursorError("cursor watermark id is not a string")
                marks[shard] = (float(score), stored_id)
    except (TypeError, ValueError):
        raise CursorError("cursor watermarks are malformed") from None
    if (
        _canonical_payload(payload) != raw
        or base64.urlsafe_b64encode(blob).decode("ascii") != token
    ):
        raise CursorError("cursor is not in canonical form")
    return epoch, marks, universe
