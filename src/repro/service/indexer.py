"""Incremental maintenance of the per-shard relevance index.

The service's ranked search (:mod:`repro.service.search`) reads SQLite
posting tables (``prov_terms`` / ``prov_postings`` /
``prov_index_docs``) that live *inside each shard file*, next to the
rows they index.  This module owns how those tables are fed:

* **Incrementally, from the apply path** — :func:`batch_index_docs`
  turns a batch of journaled events into the ``(node_id, tokens)``
  delta that :meth:`~repro.core.store.ProvenanceStore.index_documents`
  applies in the *same transaction* as the batch's rows.  Because the
  apply transformation is shared by the serial drain and the thread
  workers (``service/apply.py``), both keep the index byte-identical
  per shard, and journal crash
  replay is exactly-once for postings just like it is for rows.
* **By rebuild, from the store** — :func:`rebuild_index` re-derives
  every document's token bag from the node rows (label inheritance
  resolved through ``prov_pages`` exactly as the apply path saw it)
  and re-populates the tables from scratch.  This is the recovery path
  for corpora ingested with indexing disabled (``index=False``): they
  are marked ``stale`` in ``prov_meta`` and :func:`ensure_index`
  rebuilds them lazily on first ranked query.

Tokenization is the shared :mod:`repro.ir.tokenize` stack — the same
analyzer the paper's search-engine and history-search comparisons use,
so ranking differences reflect provenance, never analyzer drift.
"""

from __future__ import annotations

from repro.core.store import ProvenanceStore
from repro.ir.tokenize import tokenize_filtered, url_tokens
from repro.service.events import NodeEvent, ProvEvent, qualify

#: Documents per rebuild transaction chunk: bounds peak memory while
#: keeping the executemany batches large enough to amortize.
REBUILD_CHUNK = 1024


def node_tokens(label: str | None, url: str | None) -> list[str]:
    """The token bag indexed for one node: label text plus URL parts.

    Matches what a user could recognize the node by — the title they
    saw and the address they visited — which is exactly the text the
    LIKE-scan search already matched, so ranked search never *loses*
    a hit the scan would have found for the same token.
    """
    tokens = tokenize_filtered(label or "")
    if url:
        tokens.extend(url_tokens(url))
    return tokens


def batch_index_docs(
    batch: list[tuple[int, ProvEvent]]
) -> list[tuple[str, list[str]]]:
    """The index delta for one apply batch: ``[(stored_id, tokens)]``.

    Node events only — edges and intervals carry no searchable text.
    Occurrences are kept in stream order (duplicates included):
    :meth:`~repro.core.store.ProvenanceStore.index_documents` applies
    them sequentially, which keeps term interning — and therefore the
    index bytes — independent of where batch boundaries fell.
    """
    docs: list[tuple[str, list[str]]] = []
    for _seq, event in batch:
        if isinstance(event, NodeEvent):
            node = event.node
            docs.append(
                (
                    qualify(event.user_id, node.id),
                    node_tokens(node.label, node.url),
                )
            )
    return docs


def rebuild_index(store: ProvenanceStore) -> int:
    """Re-derive the whole relevance index from the node rows.

    Wipes the posting tables, then re-indexes every node with its
    effective label (stored label, or the page title it inherits) and
    page URL — byte-for-byte the text the apply path would have
    indexed, since a NULL stored label *means* "equal to the page
    title".  Commits when done and marks the index ready.  Returns the
    number of documents indexed.

    Needs the writer connection; callers running concurrently with
    flush workers must hold :meth:`ProvenanceStore.exclusive`.
    """
    store.clear_index()
    indexed = 0
    last_nid = 0
    while True:
        # Keyed batches, not a cursor over one big SELECT: peak memory
        # stays one chunk of rows however large the shard is, and the
        # interleaved index writes never fight an open read cursor.
        rows = store.conn.execute(
            "SELECT n.nid, n.id, coalesce(n.label, p.title), p.url"
            " FROM prov_nodes AS n"
            " LEFT JOIN prov_pages AS p ON p.id = n.page_id"
            " WHERE n.nid > ? ORDER BY n.nid LIMIT ?",
            (last_nid, REBUILD_CHUNK),
        ).fetchall()
        if not rows:
            break
        last_nid = rows[-1][0]
        indexed += store.index_documents(
            [
                (node_id, node_tokens(label, url))
                for _nid, node_id, label, url in rows
            ]
        )
    store.set_index_state("ready")
    store.commit()
    return indexed


def compact_index(store: ProvenanceStore) -> int:
    """Drop ghost vocabulary rows; returns how many were swept.

    Ghost terms — vocabulary entries whose postings all re-indexed or
    retention-deleted away — accumulate slowly and cost only space and
    vocabulary-scan time, never correctness (df is derived from posting
    lists).  The sweep preserves the two tid invariants ranked search
    relies on:

    * live tids never shift (SQLite deletes do not renumber rows), and
    * dead tids are never reused for new terms (the ``MAX(tid)`` row is
      retained even when empty, pinning the rowid allocator), so a
      ``term -> tid`` mapping cached by another store instance on the
      same shard file can never silently file postings under a
      recycled tid.

    Takes the store exclusively and commits.  The retention facade runs
    the same sweep in-transaction with its surgery via the
    ``compact=True`` flag on ``expire_before`` / ``forget_site``.
    """
    with store.exclusive():
        dropped = store.compact_terms()
        store.commit()
    return dropped


def ensure_index(store: ProvenanceStore) -> bool:
    """Rebuild *store*'s index if it is stale; True when a rebuild ran.

    The lazy-recovery hook ranked queries call per shard: a corpus
    ingested with indexing disabled self-heals on first use instead
    of failing or silently returning partial results.  The
    rebuild takes the store exclusively, so concurrent ranked readers
    serialize behind it and each re-checks before rebuilding again.
    """
    _docs, _length, state = store.index_stats()
    if state != "stale":
        return False
    with store.exclusive():
        _docs, _length, state = store.index_stats()
        if state != "stale":
            return False
        rebuild_index(store)
    return True
