"""The ranked scan computed in Python: the reference model for the
SQL statement of :func:`repro.service.search.shard_ranked_scan`.

This is the blend the service ran before the scan became one SQLite
statement: posting lists per term, an
:class:`~repro.ir.index.InvertedIndex` duck type over them so
:func:`repro.ir.scoring.bm25_scores` scores unchanged, then recency and
per-tenant page visits blended per candidate and sorted in Python.
The statement must reproduce its order and every score bit for bit.
It reads the shard with its own plain SQL on the writer connection
(:func:`term_postings`, :func:`index_totals`, :func:`newest_timestamp`
and the per-hit reads below), sharing no read with the statement it
checks, so call it from the thread that owns the store.  Tenant scopes
select through the store's ``_id_range``, looked up at call time so a
test may swap it; its bounds are pinned against ``str.startswith`` in
``tests/core/test_store_tenant_scope.py``.
"""

from __future__ import annotations

import math

from repro.browser.frecency import recency_weight
from repro.clock import MICROSECONDS_PER_DAY
from repro.core import store as store_module
from repro.core.store import ProvenanceStore
from repro.ir.index import Posting, idf_from_counts
from repro.ir.scoring import bm25_scores
from repro.service.events import USER_SEP
from repro.service.search import DEFAULT_RANKING, RankingParams


def _scope(column: str, id_prefix: str | None, joiner: str):
    """``(sql, params)``: *joiner* + the id range, or nothing unscoped."""
    if id_prefix is None:
        return "", ()
    predicate, bounds = store_module._id_range(column, id_prefix)
    return f" {joiner} {predicate}", bounds


def term_postings(
    store: ProvenanceStore, terms: list[str], id_prefix: str | None = None
) -> dict[str, list[tuple[str, int]]]:
    """``{term: [(node_id, tf)]}`` in scope, each list by node id."""
    scope, bounds = _scope("n.id", id_prefix, "AND")
    return {
        term: [
            (node_id, tf)
            for node_id, tf in store.conn.execute(
                "SELECT n.id, p.tf FROM prov_postings AS p"
                " JOIN prov_terms AS t ON t.tid = p.tid"
                " JOIN prov_nodes AS n ON n.nid = p.nid"
                " WHERE t.term = ?" + scope + " ORDER BY n.id",
                (term, *bounds),
            )
        ]
        for term in dict.fromkeys(terms)
    }


def index_totals(
    store: ProvenanceStore, id_prefix: str | None = None
) -> tuple[int, int]:
    """``(documents, total length)`` counted from the index rows in
    scope (never from the ``prov_meta`` counters)."""
    scope, bounds = _scope("n.id", id_prefix, "WHERE")
    docs, length = store.conn.execute(
        "SELECT COUNT(*), COALESCE(SUM(d.length), 0)"
        " FROM prov_index_docs AS d JOIN prov_nodes AS n ON n.nid = d.nid"
        + scope,
        bounds,
    ).fetchone()
    return docs, length


def newest_timestamp(
    store: ProvenanceStore, id_prefix: str | None = None
) -> int:
    """The newest node timestamp in scope (0 when it holds none)."""
    scope, bounds = _scope("id", id_prefix, "WHERE")
    (newest,) = store.conn.execute(
        "SELECT MAX(timestamp_us) FROM prov_nodes" + scope, bounds
    ).fetchone()
    return newest or 0


class ReferenceIndexView:
    """The query's postings and BM25 statistics, read into memory."""

    def __init__(self, store: ProvenanceStore, terms: list[str],
                 id_prefix: str | None) -> None:
        self._postings = term_postings(store, terms, id_prefix)
        self._doc_lengths = {
            doc_id: row[0]
            for doc_id in {
                doc_id for rows in self._postings.values()
                for doc_id, _tf in rows
            }
            for row in store.conn.execute(
                "SELECT d.length FROM prov_index_docs AS d"
                " JOIN prov_nodes AS n ON n.nid = d.nid WHERE n.id = ?",
                (doc_id,),
            )
        }
        self._doc_count, self._total_length = index_totals(store, id_prefix)

    def postings(self, term: str) -> list[Posting]:
        return [Posting(doc_id, tf)
                for doc_id, tf in self._postings.get(term, ())]

    def idf(self, term: str) -> float:
        return idf_from_counts(
            self._doc_count, len(self._postings.get(term, ()))
        )

    def doc_length(self, doc_id: str) -> int:
        return self._doc_lengths.get(doc_id, 0)

    @property
    def average_doc_length(self) -> float:
        if not self._doc_count:
            return 0.0
        return self._total_length / self._doc_count


def tenant_prefix(stored_id: str) -> str:
    """The owning tenant's id prefix (``user::``) of a stored node id."""
    user_id, _sep, _raw = stored_id.partition(USER_SEP)
    return user_id + USER_SEP


def reference_scan(
    store: ProvenanceStore,
    terms: list[str],
    *,
    params: RankingParams = DEFAULT_RANKING,
    id_prefix: str | None = None,
    now_us: int | None = None,
) -> list[tuple[str, float]]:
    """``[(stored_id, score)]`` best-first, as the Python blend ranks."""
    if not terms:
        return []
    view = ReferenceIndexView(store, terms, id_prefix)
    scored = bm25_scores(view, terms, params.bm25)
    if now_us is None:
        now_us = newest_timestamp(store, id_prefix)
    visits: dict[tuple[int, str], int] = {}
    blended = []
    for doc in scored:
        ts, page_id = store.conn.execute(
            "SELECT timestamp_us, page_id FROM prov_nodes WHERE id = ?",
            (doc.doc_id,),
        ).fetchone()
        age_days = max(0.0, (now_us - ts) / MICROSECONDS_PER_DAY)
        recency = recency_weight(age_days) / 100.0
        tenant_visits = 0
        if page_id is not None:
            prefix = id_prefix if id_prefix is not None else tenant_prefix(
                doc.doc_id
            )
            if (page_id, prefix) not in visits:
                visits[(page_id, prefix)] = sum(
                    1 for (node_id,) in store.conn.execute(
                        "SELECT id FROM prov_nodes WHERE page_id = ?",
                        (page_id,),
                    )
                    if node_id.startswith(prefix)
                )
            tenant_visits = visits[(page_id, prefix)]
        score = doc.score * (
            1.0
            + params.recency_weight * recency
            + params.frecency_weight * math.log1p(tenant_visits)
        )
        blended.append((doc.doc_id, score))
    blended.sort(key=lambda row: (-row[1], row[0]))
    return blended
