"""Tenant-scoped store reads select an ``id`` index range.

Every statement scoped to one tenant's id prefix goes through
``_id_range``: ``id >= prefix AND id < successor(prefix)``.  These tests
pin the three things that makes true:

* the bounds select exactly the ids ``str.startswith`` selects, under
  SQLite's real BINARY collation;
* each rewritten store method returns what the ``LIKE 'prefix%'``
  predicate it replaced returned;
* no tenant-scoped statement plans a scan of ``prov_nodes`` — a
  tenant's read costs its own rows, not its shard's.
"""

from __future__ import annotations

import re
import sqlite3

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import store as store_module
from repro.core.store import _id_range, _prefix_successor
from repro.service import ProvenanceService
from repro.service import search as search_module
from repro.service.workload import MultiUserParams, synthesize_user_events
from tests.service import ranking_reference as reference

#: Characters that stress the bounds: LIKE metacharacters, the tenant
#: separator, non-ASCII, and the code points around the surrogate block
#: and at the top of the range.
_EDGE_CHARS = ["%", "_", "\\", ":", "a", "b", "é", "世",
               "\ud7ff", "\ue000", "\U0010fffe", "\U0010ffff", "\x00"]
_TEXT = st.text(
    st.one_of(st.sampled_from(_EDGE_CHARS), st.characters(codec="utf-8")),
    max_size=6,
)


def _select(ids: list[str], prefix: str) -> set[str]:
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE prov_nodes (id TEXT UNIQUE NOT NULL)")
    conn.executemany("INSERT INTO prov_nodes VALUES (?)", [(i,) for i in ids])
    predicate, params = _id_range("id", prefix)
    rows = conn.execute("SELECT id FROM prov_nodes WHERE " + predicate, params)
    found = {row[0] for row in rows}
    conn.close()
    return found


class TestIdRange:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bounds_select_exactly_the_prefixed_ids(self, data):
        ids = data.draw(st.lists(_TEXT, unique=True, max_size=30))
        if ids and data.draw(st.booleans()):
            source = data.draw(st.sampled_from(ids))
            prefix = source[: data.draw(st.integers(0, len(source)))]
        else:
            prefix = data.draw(_TEXT)
        assert _select(ids, prefix) == {i for i in ids if i.startswith(prefix)}

    @pytest.mark.parametrize(
        ("prefix", "ids"),
        [
            ("a_b::", ["a_b::1", "axb::1", "a_b:;", "a_b::", "a_c::1"]),
            ("100%::", ["100%::x", "100x::x", "100%:", "1000::x"]),
            ("a\\b::", ["a\\b::1", "a\\\\b::1", "ab::1", "a]b::1"]),
            ("x\ud7ff", ["x\ud7ff", "x\ud7ffz", "x\ue000", "x\ud7fe\U0010ffff"]),
            ("x\U0010ffff", ["x\U0010ffff", "x\U0010ffff\U0010ffff", "y", "x\U0010fffe"]),
            ("\U0010ffff", ["\U0010ffff", "\U0010ffffa", "\U0010fffe"]),
            ("", ["", "a", "\U0010ffff"]),
        ],
    )
    def test_edge_prefixes(self, prefix, ids):
        assert _select(ids, prefix) == {i for i in ids if i.startswith(prefix)}

    @example("a")
    @given(_TEXT)
    def test_successor_is_strictly_above_every_extension(self, prefix):
        upper = _prefix_successor(prefix)
        if upper is None:
            assert set(prefix) <= {"\U0010ffff"}
            return
        assert prefix < upper
        assert not upper.startswith(prefix)
        assert prefix + "\U0010ffff" * 3 < upper

    def test_successor_values(self):
        assert _prefix_successor("alice::") == "alice:;"
        assert _prefix_successor("a\ud7ff") == "a\ue000"
        assert _prefix_successor("a\U0010ffff\U0010ffff") == "b"
        assert _prefix_successor("\U0010ffff") is None
        assert _prefix_successor("") is None


#: Tenants whose ids hold the characters a LIKE pattern must escape or
#: could mistake: ``_`` (a wildcard unescaped), ``.``, ``@`` and ``-``.
#: ``axb`` is what an unescaped ``a_b`` pattern would also match.
TENANTS = ["a_b", "axb", "a.b", "a@b", "a-b"]


@pytest.fixture(scope="module")
def shard(tmp_path_factory):
    """One shard holding every tenant, built through the service."""
    root = str(tmp_path_factory.mktemp("scope") / "svc")
    service = ProvenanceService(root, shards=1)
    params = MultiUserParams(days=2, sessions_per_day=2, actions_per_session=10)
    for index, user in enumerate(TENANTS):
        for event in synthesize_user_events(user, index=index, params=params):
            service.record_event(event)
    service.flush()
    with service.pool.checkout(0) as store:
        yield store
    service.close()


def _inputs(store, prefix: str) -> tuple[list[str], list[int]]:
    """A tenant's three most common indexed terms, and every page id."""
    predicate, bounds = _id_range("n.id", prefix)
    terms = [
        row[0]
        for row in store.conn.execute(
            "SELECT t.term FROM prov_postings AS p"
            " JOIN prov_terms AS t ON t.tid = p.tid"
            " JOIN prov_nodes AS n ON n.nid = p.nid"
            " WHERE " + predicate + " GROUP BY t.term"
            " ORDER BY COUNT(*) DESC, t.term LIMIT 3",
            bounds,
        )
    ]
    page_ids = [row[0] for row in store.conn.execute("SELECT id FROM prov_pages")]
    return terms, page_ids


def _graph_rows(graph) -> tuple[list, list]:
    return list(graph.nodes()), list(graph.edges())


#: Every rewritten tenant-scoped read: ``(store, prefix, terms, page_ids)``.
#: ``index_stats_for_prefix``, ``max_node_timestamp`` and
#: ``term_postings`` are the ranked scan's reference model's own reads
#: (the store folded the first two into ``ranking_aggregates``).
SCOPED_READS = {
    "index_stats_for_prefix": lambda s, p, t, g: reference.index_totals(s, p),
    "max_node_timestamp": lambda s, p, t, g: reference.newest_timestamp(s, p),
    "ranking_aggregates": lambda s, p, t, g: s.ranking_aggregates(p),
    "term_postings": lambda s, p, t, g: reference.term_postings(s, t, p),
    "ranked_scan": lambda s, p, t, g: search_module.shard_ranked_scan(
        s, t, id_prefix=p
    ),
    "load_subgraph": lambda s, p, t, g: _graph_rows(s.load_subgraph(p)),
    "counts_for_id_prefix": lambda s, p, t, g: s.counts_for_id_prefix(p),
    "sql_text_search_scored": lambda s, p, t, g: s.sql_text_search_scored(
        t[0], limit=10_000, id_prefix=p
    ),
}


def _like_range(column: str, prefix: str) -> tuple[str, tuple[str, ...]]:
    """The predicate the range replaced: an escaped ``LIKE 'prefix%'``."""
    escaped = (
        prefix.replace("\\", "\\\\").replace("%", "\\%").replace("_", "\\_")
    )
    return f"{column} LIKE ? ESCAPE '\\'", (escaped + "%",)


class TestRangeMatchesLike:
    @pytest.mark.parametrize("user", TENANTS)
    def test_every_scoped_read_matches_the_like_version(
        self, shard, user, monkeypatch
    ):
        prefix = user + "::"
        terms, page_ids = _inputs(shard, prefix)
        ranged = {
            name: read(shard, prefix, terms, page_ids)
            for name, read in SCOPED_READS.items()
        }
        monkeypatch.setattr(store_module, "_id_range", _like_range)
        monkeypatch.setattr(search_module, "_id_range", _like_range)
        liked = {
            name: read(shard, prefix, terms, page_ids)
            for name, read in SCOPED_READS.items()
        }
        assert ranged == liked
        nodes, edges, _intervals = ranged["counts_for_id_prefix"]
        assert nodes > 0 and edges > 0
        assert all(ranged["term_postings"].values())
        assert ranged["sql_text_search_scored"]
        assert ranged["ranked_scan"]
        assert ranged["ranking_aggregates"][0] > 0


def _plans(store, call) -> list[tuple[str, list[str]]]:
    """``[(sql, plan details)]`` for every query *call* issues."""
    statements: list[str] = []
    store.conn.set_trace_callback(statements.append)
    try:
        call()
    finally:
        store.conn.set_trace_callback(None)
    return [
        (sql, [row[3] for row in store.conn.execute("EXPLAIN QUERY PLAN " + sql)])
        for sql in statements
        if sql.lstrip().upper().startswith(("SELECT", "WITH"))
    ]


def _node_aliases(sql: str) -> set[str]:
    """Names ``prov_nodes`` goes by in *sql* (the table and its alias)."""
    return {"prov_nodes"} | set(
        re.findall(r"\bprov_nodes\s+AS\s+(\w+)", sql, flags=re.IGNORECASE)
    )


#: How a plan step may reach ``prov_nodes`` in a tenant-scoped read.
_NODE_KEYS = (
    "sqlite_autoindex_prov_nodes_1 (id>? AND id<?)",
    "INTEGER PRIMARY KEY (rowid=?)",
    "INDEX prov_nodes_page (page_id=?)",
)


class TestPlanGuard:
    PREFIX = "a_b::"

    def plans(self, store, method):
        terms, page_ids = _inputs(store, self.PREFIX)
        read = SCOPED_READS[method]
        return _plans(store, lambda: read(store, self.PREFIX, terms, page_ids))

    @pytest.mark.parametrize("method", sorted(SCOPED_READS))
    def test_no_scan_of_prov_nodes(self, shard, method):
        """Every step that reads ``prov_nodes`` is keyed: the tenant's
        ``id`` range, a rowid lookup from a driving table, or the page
        index.  A ``SCAN`` — or an index walked without a key, like the
        ``MAX(timestamp_us)`` walk down ``prov_nodes_time`` that a
        ``LIKE`` filter gets — would cost the shard, not the tenant."""
        plans = self.plans(shard, method)
        assert plans, f"{method} issued no SELECT"
        for sql, details in plans:
            aliases = _node_aliases(sql)
            unkeyed = [
                detail
                for detail in details
                if detail.split()[1] in aliases
                and not any(key in detail for key in _NODE_KEYS)
            ]
            assert not unkeyed, f"{method}: {unkeyed} in {sql}"

    def test_ranked_scan_visits_drive_from_the_page_index(self, shard):
        """The visits CTE reaches a tenant's nodes on each candidate
        page through ``prov_nodes_page``: the nodes on a page are far
        fewer than a large tenant's whole ``id`` range."""
        plans = self.plans(shard, "ranked_scan")
        (sql, details), = [plan for plan in plans if "visits AS" in plan[0]]
        assert " AS m ON m.page_id = pages.page_id" in sql
        assert "SEARCH m USING INDEX prov_nodes_page (page_id=?)" in details, details
