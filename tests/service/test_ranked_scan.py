"""The ranked scan as one SQLite statement, held to the Python blend.

:func:`repro.service.search.shard_ranked_scan` computes a shard's whole
blended order in SQL.  The Python scan it replaced lives on as the
reference model (:mod:`tests.service.ranking_reference`), and the two
must agree on hit order and on every score bit for bit — over
multi-term queries, repeated terms, both scopes, co-tenants sharing the
shard, nodes with no page, and a tenant with no nodes at all.

The service memoizes a tenant's three ranking aggregates in the
tenant's cache scope.  That is exact only because nothing but the
tenant's own writes and retention changes them; the memo tests pin
both halves: repeat reads hit, and each of those events refreshes it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import ProvNode
from repro.core.taxonomy import NodeKind
from repro.ir.scoring import Bm25Params
from repro.service import ProvenanceService
from repro.service.events import qualify
from repro.service.search import RankingParams, query_terms, shard_ranked_scan
from repro.service.workload import MultiUserParams, synthesize_user_events
from tests.service.ranking_reference import reference_scan
from tests.service.test_paging import read_ops

DAY_US = 24 * 3600 * 1_000_000

#: ``carol`` owns no node on the shard: her scope ranks nothing.
SCOPES = [None, "alice::", "bob::", "dora::", "carol::"]


def search_term(node_id, day, label):
    """A node with no page (search terms carry no URL)."""
    return ProvNode(id=node_id, kind=NodeKind.SEARCH_TERM,
                    timestamp_us=day * DAY_US, label=label)


def visit(node_id, day, label, url):
    return ProvNode(id=node_id, kind=NodeKind.PAGE_VISIT,
                    timestamp_us=day * DAY_US, label=label, url=url)


@pytest.fixture(scope="module")
def shard(tmp_path_factory):
    """One shard: two synthesized tenants, plus ``dora`` whose nodes
    are split between page-less search terms and repeat visits of the
    pages she shares with nobody."""
    root = str(tmp_path_factory.mktemp("ranked") / "svc")
    service = ProvenanceService(root, shards=1)
    params = MultiUserParams(days=3, sessions_per_day=3, actions_per_session=10)
    for index, user in enumerate(["alice", "bob"]):
        for event in synthesize_user_events(user, index=index, params=params):
            service.record_event(event)
    for day in range(1, 40, 3):
        service.record_node("dora", search_term(f"s{day}", day, "wine tasting"))
        service.record_node("dora", visit(
            f"v{day}", day, "wine cellar notes",
            f"http://cellar.example/{day % 4}",
        ))
    service.flush()
    with service.pool.checkout(0) as store:
        vocabulary = [
            row[0] for row in store.conn.execute(
                "SELECT term FROM prov_terms ORDER BY tid"
            )
        ]
        yield store, vocabulary + ["unindexedterm"]
    service.close()


rankings = st.one_of(
    st.just(RankingParams()),
    st.builds(
        RankingParams,
        bm25=st.builds(
            Bm25Params,
            k1=st.sampled_from([0.0, 0.9, 1.2, 2]),
            b=st.sampled_from([0.0, 0.75, 1]),
        ),
        recency_weight=st.sampled_from([0, 0.5, 1.3]),
        frecency_weight=st.sampled_from([0, 0.25, 2.0]),
    ),
)


class TestStatementMatchesTheBlend:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_queries(self, shard, data):
        store, vocabulary = shard
        terms = data.draw(
            st.lists(st.sampled_from(vocabulary), min_size=1, max_size=5)
        )
        if data.draw(st.booleans()):
            terms.append(data.draw(st.sampled_from(terms)))  # a repeat
        scope = data.draw(st.sampled_from(SCOPES))
        params = data.draw(rankings)
        now_us = data.draw(st.one_of(
            st.none(), st.integers(0, 200).map(lambda day: day * DAY_US)
        ))
        assert shard_ranked_scan(
            store, terms, params=params, id_prefix=scope, now_us=now_us
        ) == reference_scan(
            store, terms, params=params, id_prefix=scope, now_us=now_us
        )

    @pytest.mark.parametrize("scope", SCOPES)
    @pytest.mark.parametrize(
        "query", ["wine", "wine wine", "cellar wine tasting", "wine notes wine"]
    )
    def test_fixed_queries(self, shard, scope, query):
        store, _vocabulary = shard
        terms = query_terms(query)
        scan = shard_ranked_scan(store, terms, id_prefix=scope)
        assert scan == reference_scan(store, terms, id_prefix=scope)
        if scope == "carol::":
            assert scan == []
        if scope in (None, "dora::"):
            assert scan

    def test_repeated_term_counts_once_per_occurrence(self, shard):
        store, _vocabulary = shard
        once = dict(shard_ranked_scan(store, ["wine"], id_prefix="dora::"))
        twice = dict(
            shard_ranked_scan(store, ["wine", "wine"], id_prefix="dora::")
        )
        assert once.keys() == twice.keys()
        assert all(twice[doc] == 2 * once[doc] for doc in once)

    def test_nodes_without_a_page_rank(self, shard):
        store, _vocabulary = shard
        ranked = [doc for doc, _score in shard_ranked_scan(
            store, ["tasting"], id_prefix="dora::"
        )]
        assert ranked and all(doc.startswith("dora::s") for doc in ranked)


def assert_matches_reference(service, user, query, page):
    """*page*'s hits are the top of the reference scan of the tenant."""
    with service.pool.checkout(0) as store:  # one shard
        reference = reference_scan(
            store, query_terms(query), id_prefix=qualify(user, "")
        )
    assert [(qualify(user, hit.nid), hit.score) for hit in page] == (
        reference[:len(page)]
    )
    assert page.hits


class TestAggregateMemo:
    @pytest.fixture()
    def service(self, tmp_path):
        service = ProvenanceService(str(tmp_path / "svc"), shards=1,
                                    workers=None)
        for day in range(1, 8):
            service.record_node("alice", visit(
                f"a{day}", day, f"wine cellar day {day}",
                f"http://a.example/{day % 2}",
            ))
            service.record_node("bob", visit(
                f"b{day}", day, "wine harvest", "http://b.example/"
            ))
        yield service
        service.close()

    def test_repeat_reads_hit_the_memo(self, service):
        for query in ("wine", "cellar", "wine cellar"):
            service.ranked_search(query, user_id="alice", limit=3)
        ops = read_ops(service)
        assert ops["ranked_scan"] == 3
        assert ops["ranking_aggregates"] == 1

    def test_co_tenant_write_keeps_it(self, service):
        service.ranked_search("wine", user_id="alice")
        service.record_node("bob", visit("b9", 9, "wine", "http://b.example/"))
        page = service.ranked_search("cellar", user_id="alice")
        assert read_ops(service)["ranking_aggregates"] == 1
        assert_matches_reference(service, "alice", "cellar", page)

    def test_cross_tenant_scans_are_not_memoized(self, service):
        service.ranked_search("wine")
        service.ranked_search("cellar")
        assert read_ops(service)["ranking_aggregates"] == 2

    def test_tenant_write_refreshes_it(self, service):
        service.ranked_search("wine", user_id="alice")
        service.record_node("alice", visit(
            "a9", 30, "wine wine wine", "http://a.example/new"
        ))
        page = service.ranked_search("cellar", user_id="alice")
        assert read_ops(service)["ranking_aggregates"] == 2
        assert_matches_reference(service, "alice", "cellar", page)

    def test_retention_refreshes_it(self, service):
        service.ranked_search("wine", user_id="alice")
        service.expire_before("alice", 4 * DAY_US)
        page = service.ranked_search("cellar", user_id="alice")
        assert read_ops(service)["ranking_aggregates"] == 2
        assert_matches_reference(service, "alice", "cellar", page)
        assert {hit.nid for hit in page} <= {f"a{day}" for day in range(4, 8)}

    def test_unindexed_write_and_rebuild_refresh_it(self, tmp_path):
        service = ProvenanceService(str(tmp_path / "svc"), shards=1,
                                    workers=None, index=False)
        try:
            service.record_node("alice", visit(
                "a1", 1, "wine cellar", "http://a.example/"
            ))
            first = service.ranked_search("wine", user_id="alice")
            assert [hit.nid for hit in first] == ["a1"]
            service.record_node("alice", visit(
                "a2", 20, "wine tasting wine", "http://a.example/2"
            ))
            page = service.ranked_search("cellar wine", user_id="alice")
            assert read_ops(service)["ranking_aggregates"] == 2
            assert {hit.nid for hit in page} == {"a1", "a2"}
            assert_matches_reference(service, "alice", "cellar wine", page)
        finally:
            service.close()
