"""SQL schema for the homogeneous provenance store (paper, section 4).

The paper's artifact is "a model browser provenance schema based on the
Firefox Places schema as a SQLite relational database" that "stores
heterogeneous provenance objects (such as pages and bookmarks) as
homogeneous graph nodes".  This schema realizes that design with the
same normalization discipline Places uses — which is what makes the
39.5%-overhead claim (E1) achievable:

* ``prov_pages`` plays the role of ``moz_places``: every URL and its
  title stored once.  Visit-instance nodes reference a page row rather
  than repeating strings (node versioning creates one node per visit;
  without this normalization the store would carry every URL dozens of
  times).
* ``prov_nodes`` is the single homogeneous node table: every object
  kind — visits, search terms, form submissions, bookmarks, downloads
  — lives here, distinguished only by an integer ``kind``.
* ``prov_edges`` is the single relationship table, referencing nodes
  by integer rowid (``nid``) to keep edge rows and their two indexes
  compact.
* attribute tables carry the semi-structured remainder; the common
  per-visit facts (``hidden``, ``transition``) are columns because
  they occur on nearly every row.
* ``prov_intervals`` records page-display intervals (the close events
  of section 3.2).
* ``prov_terms``, ``prov_postings`` and ``prov_index_docs`` are the
  relevance-search sidecar the service's ranked search reads.

String node ids (``visit:000123``) remain the public API; ``nid`` is
internal to the store.
"""

from __future__ import annotations

from repro.core.taxonomy import EdgeKind, NodeKind

#: The one on-disk version this code reads.  There are no migrations:
#: :class:`~repro.core.store.ProvenanceStore` refuses a store at any
#: other version, before it writes a byte of it.
SCHEMA_VERSION = 4

#: Stable integer codes for node kinds (never reorder — on-disk data).
NODE_KIND_IDS: dict[NodeKind, int] = {
    NodeKind.PAGE: 1,
    NodeKind.PAGE_VISIT: 2,
    NodeKind.SEARCH_TERM: 3,
    NodeKind.FORM_SUBMISSION: 4,
    NodeKind.BOOKMARK: 5,
    NodeKind.DOWNLOAD: 6,
}
NODE_KINDS_BY_ID = {value: key for key, value in NODE_KIND_IDS.items()}

#: Stable integer codes for edge kinds.
EDGE_KIND_IDS: dict[EdgeKind, int] = {
    EdgeKind.LINK: 1,
    EdgeKind.REDIRECT: 2,
    EdgeKind.EMBED: 3,
    EdgeKind.TYPED_FROM: 4,
    EdgeKind.BOOKMARK_CLICK: 5,
    EdgeKind.BOOKMARKED: 6,
    EdgeKind.SEARCHED: 7,
    EdgeKind.FORM_FROM: 8,
    EdgeKind.FORM_GENERATED: 9,
    EdgeKind.DOWNLOADED: 10,
    EdgeKind.CO_OPEN: 11,
}
EDGE_KINDS_BY_ID = {value: key for key, value in EDGE_KIND_IDS.items()}

PROVENANCE_SCHEMA = """
CREATE TABLE prov_meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);

CREATE TABLE prov_pages (
    id INTEGER PRIMARY KEY,
    url TEXT UNIQUE NOT NULL,
    title TEXT NOT NULL DEFAULT ''
);

CREATE TABLE prov_nodes (
    nid INTEGER PRIMARY KEY,
    id TEXT UNIQUE NOT NULL,
    kind INTEGER NOT NULL,
    timestamp_us INTEGER NOT NULL,
    page_id INTEGER REFERENCES prov_pages (id),
    label TEXT,
    hidden INTEGER NOT NULL DEFAULT 0,
    transition INTEGER
);
CREATE INDEX prov_nodes_kind ON prov_nodes (kind);
CREATE INDEX prov_nodes_page ON prov_nodes (page_id) WHERE page_id IS NOT NULL;
CREATE INDEX prov_nodes_time ON prov_nodes (timestamp_us);

CREATE TABLE prov_edges (
    id INTEGER PRIMARY KEY,
    kind INTEGER NOT NULL,
    src INTEGER NOT NULL REFERENCES prov_nodes (nid),
    dst INTEGER NOT NULL REFERENCES prov_nodes (nid),
    -- NULL means "same as the destination node's timestamp", which is
    -- true of almost every captured edge (the event that created the
    -- edge created the destination).  Inheritance halves edge row
    -- width, one of Chapman et al.'s tricks applied in-schema.
    timestamp_us INTEGER
);
CREATE INDEX prov_edges_src ON prov_edges (src);
CREATE INDEX prov_edges_dst ON prov_edges (dst);

CREATE TABLE prov_node_attrs (
    nid INTEGER NOT NULL REFERENCES prov_nodes (nid),
    name TEXT NOT NULL,
    value,
    PRIMARY KEY (nid, name)
);

CREATE TABLE prov_edge_attrs (
    edge_id INTEGER NOT NULL REFERENCES prov_edges (id),
    name TEXT NOT NULL,
    value,
    PRIMARY KEY (edge_id, name)
);

CREATE TABLE prov_intervals (
    nid INTEGER NOT NULL REFERENCES prov_nodes (nid),
    tab_id INTEGER NOT NULL,
    opened_us INTEGER NOT NULL,
    closed_us INTEGER NOT NULL
);
CREATE INDEX prov_intervals_open ON prov_intervals (opened_us, closed_us);
-- A display interval is identified by what was shown and when it was
-- opened; capture emits each at most once, so a duplicate key can only
-- be a re-delivery (journal crash replay in the commit-vs-checkpoint
-- window).  The unique index turns those into upserts — exactly-once.
CREATE UNIQUE INDEX prov_intervals_identity ON prov_intervals (nid, opened_us);

-- The relevance-search sidecar: a per-shard inverted index over node
-- text (label + URL tokens), maintained incrementally inside the same
-- transaction as the rows it indexes.  prov_terms interns terms once;
-- prov_postings is the (term, document) matrix with raw term
-- frequencies; prov_index_docs keeps per-document token counts for
-- BM25 length normalization.  Document frequencies are not stored: a
-- query reads each query term's posting list anyway, so df is its
-- length, which keeps every index write idempotent under journal crash
-- replay (no counters to double-increment).  Corpus aggregates
-- (document count, total length) live in prov_meta and are maintained
-- as deltas computed against the rows in the same transaction, which
-- makes re-applying a committed batch a no-op.
CREATE TABLE prov_terms (
    tid INTEGER PRIMARY KEY,
    term TEXT UNIQUE NOT NULL
);

CREATE TABLE prov_postings (
    tid INTEGER NOT NULL REFERENCES prov_terms (tid),
    nid INTEGER NOT NULL REFERENCES prov_nodes (nid),
    tf INTEGER NOT NULL,
    PRIMARY KEY (tid, nid)
) WITHOUT ROWID;
CREATE INDEX prov_postings_doc ON prov_postings (nid);

CREATE TABLE prov_index_docs (
    nid INTEGER PRIMARY KEY REFERENCES prov_nodes (nid),
    length INTEGER NOT NULL
);
"""

#: Recursive-CTE ancestor walk over integer nids; depth-bounded so
#: cyclic inputs (edge-versioned graphs) terminate; UNION deduplicates.
#: The start node leads the rows at depth 0 (no other row has depth 0),
#: so an empty result means the start does not exist: one statement
#: both checks the node and walks from it.
ANCESTOR_QUERY = """
WITH RECURSIVE start (nid) AS (
    SELECT nid FROM prov_nodes WHERE id = :start
),
walk (nid, depth) AS (
    SELECT nid, 0 FROM start
    UNION
    SELECT e.src, walk.depth + 1
    FROM prov_edges AS e
    JOIN walk ON e.dst = walk.nid
    WHERE walk.depth < :max_depth
      AND (:kinds_csv = '' OR instr(:kinds_csv, ',' || e.kind || ',') > 0)
)
SELECT n.id, MIN(walk.depth) AS depth
FROM walk
JOIN prov_nodes AS n ON n.nid = walk.nid
GROUP BY n.id
ORDER BY depth, n.id
"""

DESCENDANT_QUERY = """
WITH RECURSIVE start (nid) AS (
    SELECT nid FROM prov_nodes WHERE id = :start
),
walk (nid, depth) AS (
    SELECT nid, 0 FROM start
    UNION
    SELECT e.dst, walk.depth + 1
    FROM prov_edges AS e
    JOIN walk ON e.src = walk.nid
    WHERE walk.depth < :max_depth
      AND (:kinds_csv = '' OR instr(:kinds_csv, ',' || e.kind || ',') > 0)
)
SELECT n.id, MIN(walk.depth) AS depth
FROM walk
JOIN prov_nodes AS n ON n.nid = walk.nid
GROUP BY n.id
ORDER BY depth, n.id
"""
