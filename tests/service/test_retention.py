"""Retention surgery planned from the doomed rows.

``expire_before`` / ``forget_site`` compute a plan through the narrow
:class:`repro.core.retention.RetentionRows` reads — from an in-memory
graph (:class:`~repro.core.retention.GraphRows`) or, in the service,
from one tenant's shard rows (``ProvenanceStore.tenant_rows``) — and
must delete exactly what a whole-graph pass deletes.  These tests pin
that three ways:

* a whole-graph reference model (every node visited, every edge
  scanned) agrees with the plans on random graphs;
* the service agrees with the core graph functions run on the
  tenant's ``load_subgraph``, over random tenant histories, including
  a re-run after a crash between the bridge flush and the delete;
* retention never loads the tenant's subgraph, and every statement it
  issues is keyed by an index.

Bridges are journaled in ``(dst, src)`` order, so their edge ids — and
the audit report's graph digest — do not depend on string hashing.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.graph import ProvenanceGraph
from repro.core.model import ProvNode
from repro.core.retention import (
    GraphRows,
    RedactionReport,
    RetentionReport,
    expire_before,
    forget_site,
    plan_expiry,
    plan_redaction,
)
from repro.core.store import ProvenanceStore
from repro.core.taxonomy import EdgeKind, NodeKind
from repro.service import ProvenanceService
from repro.service.events import qualify
from repro.web.url import Url

DAY_US = 24 * 3600 * 1_000_000
USER = "alice"
COTENANT = "bob"

#: URLs on and off the sites below, in the spellings ``Url.parse``
#: normalizes (case, default and explicit ports, userinfo) and in
#: spellings it rejects (those nodes are always kept).
URLS = [
    "http://www.secret.com/a",
    "http://WWW.Secret.COM/b",
    "https://cdn.secret.com:443/c.zip",
    "http://secret.com:8080/d",
    "http://user:pw@secret.com/e",
    "ftp://files.secret.com/f.zip",
    "http://www.other.org/x",
    "https://other.org:80/y",
    "http://secret.com.evil.net/z",
    "not a url",
    "",
    "http://secret.com:99999/bad-port",
    "http://[::1]/literal",
]
SITES = ["secret.com", "SECRET.COM", "other.org", "evil.net", "nowhere.test"]
EDGE_KINDS = [
    EdgeKind.LINK, EdgeKind.SEARCHED, EdgeKind.EMBED,
    EdgeKind.DOWNLOADED, EdgeKind.REDIRECT, EdgeKind.CO_OPEN,
]
NODE_KINDS = [
    NodeKind.PAGE_VISIT, NodeKind.PAGE_VISIT, NodeKind.SEARCH_TERM,
    NodeKind.DOWNLOAD,
]


class _Crash(Exception):
    """Stands in for the process dying at the delete."""


# -- the whole-graph reference model ------------------------------------------------


def _on_site(url: str | None, site: str) -> bool:
    if url is None:
        return False
    try:
        return Url.parse(url).site == site.lower()
    except Exception:  # noqa: BLE001 - unparseable URL: kept
        return False


def model_expire(graph, cutoff_us, bridge):
    """(doomed, {(ancestor, descendant)}, report) by whole-graph scans.

    A bridge joins two survivors that a lineage path of two or more
    edges connects through expired nodes only — searched forward from
    every survivor.
    """
    doomed = {n.id for n in graph.nodes() if n.timestamp_us < cutoff_us}
    removed = [e for e in graph.edges() if e.src in doomed or e.dst in doomed]
    pairs = set()
    if bridge:
        for ancestor in graph.node_ids():
            if ancestor in doomed:
                continue
            stack = [
                e.dst for e in graph.out_edges(ancestor)
                if e.kind.is_lineage and e.dst in doomed
            ]
            seen = set(stack)
            while stack:
                for edge in graph.out_edges(stack.pop()):
                    if not edge.kind.is_lineage:
                        continue
                    if edge.dst not in doomed:
                        if edge.dst != ancestor:  # a cycle, not lineage
                            pairs.add((ancestor, edge.dst))
                    elif edge.dst not in seen:
                        seen.add(edge.dst)
                        stack.append(edge.dst)
    report = RetentionReport(
        graph.node_count, len(doomed), len(removed), len(pairs)
    )
    return doomed, pairs, report


def model_forget(graph, site):
    """(doomed, report): every node on *site*, then one pass over the
    search terms in node order, then every surviving node's in-edges."""
    doomed = {n.id for n in graph.nodes() if _on_site(n.url, site)}
    for term in graph.by_kind(NodeKind.SEARCH_TERM):
        children = graph.children(term)
        if children and all(child in doomed for child in children):
            doomed.add(term)
    removed = [e for e in graph.edges() if e.src in doomed or e.dst in doomed]
    orphaned = 0
    for node_id in graph.node_ids():
        if node_id in doomed:
            continue
        lineage = [e for e in graph.in_edges(node_id) if e.kind.is_lineage]
        if lineage and all(e.src in doomed for e in lineage):
            orphaned += 1
    return doomed, RedactionReport(len(doomed), len(removed), orphaned)


# -- histories ----------------------------------------------------------------------


#: Edge attrs: mostly none, sometimes an earlier pass's bridge mark,
#: sometimes a ``bridged`` value that is not the mark.
EDGE_ATTRS = [None, None, {"bridged": 1}, {"bridged": 0}, {"bridged": "1"}]


@st.composite
def histories(draw):
    """Nodes with colliding day timestamps and ids that sort apart from
    their recording order, and edges in index order (so the history
    stays acyclic, though edges may run back in time — which is what
    gives expiry something to bridge)."""
    count = draw(st.integers(2, 12))
    names = draw(st.permutations(range(count)))
    nodes = []
    for index in range(count):
        kind = draw(st.sampled_from(NODE_KINDS))
        nodes.append(ProvNode(
            id=f"n{names[index]}",
            kind=kind,
            timestamp_us=draw(st.integers(0, 5)) * DAY_US,
            label=f"node {index}",
            url=None if kind is NodeKind.SEARCH_TERM else draw(st.sampled_from(URLS)),
        ))
    edges = [
        (src, dst, kind, attrs)
        for src, dst, kind, attrs in draw(st.lists(
            st.tuples(
                st.integers(0, count - 1), st.integers(0, count - 1),
                st.sampled_from(EDGE_KINDS), st.sampled_from(EDGE_ATTRS),
            ),
            max_size=3 * count,
        ))
        if src < dst
    ]
    return nodes, edges


def build_graph(nodes, edges) -> ProvenanceGraph:
    graph = ProvenanceGraph(enforce_dag=False)
    for node in nodes:
        graph.add_node(node)
    for src, dst, kind, attrs in edges:
        graph.add_edge(
            kind, nodes[src].id, nodes[dst].id,
            timestamp_us=nodes[dst].timestamp_us, attrs=attrs,
        )
    return graph


operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("expire"), st.integers(0, 6), st.booleans(), st.booleans()
        ),
        st.tuples(st.just("forget"), st.sampled_from(SITES)),
    ),
    min_size=1,
    max_size=3,
)


def edge_key(edge):
    return (
        edge.kind, edge.src, edge.dst, edge.timestamp_us,
        tuple(sorted(edge.attrs.items())),
    )


# -- the plans against the model ----------------------------------------------------


class TestPlansMatchTheModel:
    @settings(max_examples=300, deadline=None)
    @given(history=histories(), cutoff=st.integers(0, 6), bridge=st.booleans())
    def test_expiry(self, history, cutoff, bridge):
        graph = build_graph(*history)
        doomed, pairs, report = model_expire(graph, cutoff * DAY_US, bridge)
        plan = plan_expiry(GraphRows(graph), cutoff * DAY_US, bridge=bridge)
        assert plan.doomed == doomed
        assert [(b.src, b.dst) for b in plan.bridges] == sorted(
            pairs, key=lambda pair: (pair[1], pair[0])
        )
        assert all(
            b.timestamp_us == graph.node(b.dst).timestamp_us
            for b in plan.bridges
        )
        assert plan.report == report

    @settings(max_examples=300, deadline=None)
    @given(history=histories(), site=st.sampled_from(SITES))
    def test_redaction(self, history, site):
        graph = build_graph(*history)
        doomed, report = model_forget(graph, site)
        plan = plan_redaction(GraphRows(graph), site)
        assert plan.doomed == doomed
        assert plan.bridges == ()
        assert plan.report == report

    def test_search_terms_are_judged_in_node_order(self):
        """A term whose only child is a term is doomed only when that
        child was judged (and doomed) before it."""
        for first, second in (("t1", "t2"), ("t2", "t1")):
            graph = ProvenanceGraph(enforce_dag=False)
            for node_id in (first, second):
                graph.add_node(ProvNode(
                    id=node_id, kind=NodeKind.SEARCH_TERM, timestamp_us=1,
                    label=node_id,
                ))
            graph.add_node(ProvNode(
                id="page", kind=NodeKind.PAGE_VISIT, timestamp_us=2,
                url="http://www.secret.com/",
            ))
            graph.add_edge(EdgeKind.SEARCHED, "t1", "t2", timestamp_us=1)
            graph.add_edge(EdgeKind.SEARCHED, "t2", "page", timestamp_us=2)
            doomed, _ = model_forget(graph, "secret.com")
            assert plan_redaction(GraphRows(graph), "secret.com").doomed == doomed
            assert ("t1" in doomed) == (first == "t2")


# -- the service against the core functions -----------------------------------------


def open_service(root: str) -> ProvenanceService:
    return ProvenanceService(root, shards=1, workers=1, batch_size=4)


class Harness:
    """A one-shard service under test, reopened in place after a crash."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.service = open_service(root)

    def crash_and_reopen(self) -> None:
        service, self.service = self.service, None
        service.close(flush=False)
        self.service = open_service(self.root)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()

    def graph(self, user=USER) -> ProvenanceGraph:
        """The tenant's rows as ``load_subgraph`` reads them."""
        self.service.flush()
        with self.service.pool.checkout(0) as store:
            return store.load_subgraph(qualify(user, ""))


def record(service, user, nodes, edges) -> None:
    for node in nodes:
        service.record_node(user, node)
    for src, dst, kind, attrs in edges:
        service.record_edge(
            user, kind, nodes[src].id, nodes[dst].id,
            timestamp_us=nodes[dst].timestamp_us, attrs=attrs,
        )


def graph_rows(graph):
    return (
        {node.id: node for node in graph.nodes()},
        Counter(edge_key(edge) for edge in graph.edges()),
    )


def bridge_key(graph, pair):
    """The edge key of the bridge *graph*'s expiry adds for *pair*."""
    src, dst = pair
    return (
        EdgeKind.LINK, src, dst, graph.node(dst).timestamp_us,
        (("bridged", 1),),
    )


def stored_bridges(graph) -> set[tuple[str, str]]:
    return {(e.src, e.dst) for e in graph.edges() if e.attrs.get("bridged") == 1}


def check_pass(before, after, new_graph, doomed, bridges) -> None:
    """*after* (the service's rows) holds *new_graph*'s nodes and its
    edges, less one copy of each bridge *before* already stored."""
    assert set(before.node_ids()) - set(after.node_ids()) == doomed
    skipped = Counter(
        bridge_key(before, pair) for pair in bridges & stored_bridges(before)
    )
    after_nodes, after_edges = graph_rows(after)
    ref_nodes, ref_edges = graph_rows(new_graph)
    assert after_nodes == ref_nodes
    assert after_edges == ref_edges - skipped


def run_expire(harness, cutoff_us, bridge, crash):
    before = harness.graph()
    new_graph, report = expire_before(before, cutoff_us, bridge=bridge)
    doomed, pairs, model_report = model_expire(before, cutoff_us, bridge)
    assert report == model_report
    if crash:
        with mock.patch.object(
            ProvenanceStore, "delete_nodes_by_id", side_effect=_Crash
        ):
            with pytest.raises(_Crash):
                harness.service.expire_before(USER, cutoff_us, bridge=bridge)
        harness.crash_and_reopen()
        crashed = harness.graph()
        # The new bridges were flushed before the delete; nothing was
        # removed.
        crashed_nodes, crashed_edges = graph_rows(crashed)
        before_nodes, before_edges = graph_rows(before)
        assert crashed_nodes == before_nodes
        assert crashed_edges - before_edges == Counter(
            bridge_key(before, pair) for pair in pairs - stored_bridges(before)
        )
        assert not before_edges - crashed_edges
        before = crashed
        new_graph, rerun = expire_before(before, cutoff_us, bridge=bridge)
        assert rerun == report
    assert harness.service.expire_before(USER, cutoff_us, bridge=bridge) == report
    check_pass(before, harness.graph(), new_graph, doomed, pairs)


def run_forget(harness, site):
    before = harness.graph()
    new_graph, report = forget_site(before, site)
    doomed, model_report = model_forget(before, site)
    assert report == model_report
    assert harness.service.forget_site(USER, site) == report
    check_pass(before, harness.graph(), new_graph, doomed, set())
    with harness.service.pool.checkout(0) as store:
        urls = [row[0] for row in store.conn.execute("SELECT url FROM prov_pages")]
    assert not [
        url for url in urls
        if _on_site(url, site) and url not in {n.url for n in COTENANT_NODES}
    ]


#: The co-tenant shares the shard and one page on a redacted site;
#: no pass on the tenant may touch its rows.
COTENANT_NODES = [
    ProvNode(id=f"c{i}", kind=NodeKind.PAGE_VISIT, timestamp_us=i * DAY_US,
             label=f"cotenant {i}", url=url)
    for i, url in enumerate([
        "http://www.cotenant.net/0", URLS[0], "http://www.cotenant.net/2",
        "http://www.cotenant.net/3",
    ])
]
COTENANT_EDGES = [(0, 1, EdgeKind.LINK, None), (1, 3, EdgeKind.LINK, None),
                  (2, 3, EdgeKind.CO_OPEN, None)]


def _cycle_node(node_id, day):
    return ProvNode(id=node_id, kind=NodeKind.PAGE_VISIT,
                    timestamp_us=day * DAY_US, label=node_id,
                    url=f"http://www.{node_id}.example/")


#: Lineage cycles through expired nodes, recorded against time (the
#: store accepts them), with the bridges expiry at ``CYCLE_CUTOFF``
#: must add: ``(nodes, edges, bridges)``.
CYCLES = {
    "one_expired": (
        [_cycle_node("a", 1), _cycle_node("b", 9)],
        [(0, 1, EdgeKind.LINK, None), (1, 0, EdgeKind.LINK, None)],
        set(),
    ),
    "two_expired": (
        [_cycle_node("root", 8), _cycle_node("a1", 1), _cycle_node("a2", 2),
         _cycle_node("b", 9)],
        [(0, 1, EdgeKind.LINK, None), (1, 2, EdgeKind.LINK, None),
         (2, 3, EdgeKind.LINK, None), (3, 1, EdgeKind.LINK, None)],
        {("root", "b")},
    ),
}
CYCLE_CUTOFF = 5 * DAY_US


class TestLineageCycles:
    """Expiry across a lineage cycle: the walk up from a kept child
    through expired nodes can lead back to the child, and that pair
    is no bridge (``ValueError: self-loop`` otherwise)."""

    @pytest.mark.parametrize("name", sorted(CYCLES))
    def test_plan_matches_the_model(self, name):
        nodes, edges, bridges = CYCLES[name]
        graph = build_graph(nodes, edges)
        doomed, pairs, report = model_expire(graph, CYCLE_CUTOFF, True)
        plan = plan_expiry(GraphRows(graph), CYCLE_CUTOFF)
        assert pairs == bridges
        assert plan.doomed == doomed
        assert {(b.src, b.dst) for b in plan.bridges} == bridges
        assert plan.report == report

    @pytest.mark.parametrize("name", sorted(CYCLES))
    def test_service_matches_the_core(self, name, tmp_path):
        nodes, edges, bridges = CYCLES[name]
        harness = Harness(str(tmp_path / "svc"))
        try:
            record(harness.service, USER, nodes, edges)
            run_expire(harness, CYCLE_CUTOFF, True, False)
            assert stored_bridges(harness.graph()) == {
                (qualify(USER, src), qualify(USER, dst)) for src, dst in bridges
            }
            assert harness.service.verify_integrity().ok
        finally:
            harness.close()


class TestServiceMatchesTheCore:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(history=histories(), ops=operations)
    def test_random_histories(self, history, ops):
        nodes, edges = history
        with tempfile.TemporaryDirectory() as tmp:
            harness = Harness(os.path.join(tmp, "svc"))
            try:
                record(harness.service, USER, nodes, edges)
                record(harness.service, COTENANT, COTENANT_NODES, COTENANT_EDGES)
                cotenant = graph_rows(harness.graph(COTENANT))
                for op in ops:
                    if op[0] == "expire":
                        _, day, bridge, crash = op
                        run_expire(harness, day * DAY_US, bridge, crash)
                    else:
                        run_forget(harness, op[1])
                    assert harness.service.verify_integrity().ok
                assert graph_rows(harness.graph(COTENANT)) == cotenant
            finally:
                harness.close()

    def test_rerun_after_crash_adds_no_second_bridge(self, tmp_path):
        """A crash between the bridge flush and the delete leaves the
        bridge stored; the re-run reports it but does not store it
        twice."""
        harness = Harness(str(tmp_path / "svc"))
        nodes = [
            ProvNode(id="a", kind=NodeKind.PAGE_VISIT, timestamp_us=9 * DAY_US,
                     url="http://www.a.com/"),
            ProvNode(id="b", kind=NodeKind.PAGE_VISIT, timestamp_us=1 * DAY_US,
                     url="http://www.b.com/"),
            ProvNode(id="c", kind=NodeKind.PAGE_VISIT, timestamp_us=9 * DAY_US,
                     url="http://www.c.com/"),
        ]
        try:
            record(harness.service, USER, nodes, [
                (0, 1, EdgeKind.LINK, None), (1, 2, EdgeKind.LINK, None),
            ])
            run_expire(harness, 5 * DAY_US, True, True)
            edges = list(harness.graph().edges())
            assert [(e.src, e.dst, dict(e.attrs)) for e in edges] == [
                ("alice::a", "alice::c", {"bridged": 1})
            ]
            assert harness.service.verify_integrity().ok
        finally:
            harness.close()

    def test_plain_edge_is_not_a_stored_bridge(self, tmp_path):
        """A direct link between the two survivors does not stand in
        for the bridge; only an edge marked ``bridged=1`` does."""
        harness = Harness(str(tmp_path / "svc"))
        nodes = [
            ProvNode(id=node_id, kind=NodeKind.PAGE_VISIT, timestamp_us=ts,
                     url=f"http://www.{node_id}.com/")
            for node_id, ts in (("a", 9 * DAY_US), ("b", DAY_US),
                                ("c", 9 * DAY_US))
        ]
        try:
            record(harness.service, USER, nodes, [
                (0, 1, EdgeKind.LINK, None), (1, 2, EdgeKind.LINK, None),
                (0, 2, EdgeKind.LINK, {"bridged": 0}),
            ])
            run_expire(harness, 5 * DAY_US, True, False)
            assert sorted(
                dict(e.attrs)["bridged"] for e in harness.graph().edges()
            ) == [0, 1]
        finally:
            harness.close()

    @pytest.mark.parametrize("first", ["t1", "t2"])
    def test_search_terms_are_judged_in_row_order(self, tmp_path, first):
        """Terms recorded at one timestamp are judged in the order
        ``load_subgraph`` reads them — recording order — not id order."""
        harness = Harness(str(tmp_path / "svc"))
        second = "t2" if first == "t1" else "t1"
        nodes = [
            ProvNode(id=first, kind=NodeKind.SEARCH_TERM, timestamp_us=DAY_US,
                     label=first),
            ProvNode(id=second, kind=NodeKind.SEARCH_TERM, timestamp_us=DAY_US,
                     label=second),
            ProvNode(id="page", kind=NodeKind.PAGE_VISIT, timestamp_us=DAY_US,
                     url="http://www.secret.com/"),
        ]
        t1, t2 = (0, 1) if first == "t1" else (1, 0)
        try:
            record(harness.service, USER, nodes, [
                (t1, t2, EdgeKind.SEARCHED, None), (t2, 2, EdgeKind.SEARCHED, None),
            ])
            run_forget(harness, "secret.com")
            assert ("alice::t1" in harness.graph()) == (first == "t1")
        finally:
            harness.close()


class TestNoWholeTenantLoad:
    def test_retention_never_loads_the_subgraph(self, tmp_path, monkeypatch):
        """Both passes, a bridge included, run with ``load_subgraph``
        refusing: retention cannot drift back to loading the tenant."""
        harness = Harness(str(tmp_path / "svc"))
        nodes = [
            ProvNode(id=node_id, kind=NodeKind.PAGE_VISIT, timestamp_us=ts,
                     url=url)
            for node_id, ts, url in (
                ("a", 9 * DAY_US, "http://www.kept.org/a"),
                ("b", 1 * DAY_US, "http://www.kept.org/b"),
                ("c", 9 * DAY_US, "http://www.kept.org/c"),
                ("d", 9 * DAY_US, "http://www.secret.com/d"),
                ("e", 9 * DAY_US, "http://www.kept.org/e"),
            )
        ]
        try:
            record(harness.service, USER, nodes, [
                (i, i + 1, EdgeKind.LINK, None) for i in range(4)
            ])
            harness.service.flush()

            def refuse(*args, **kwargs):
                raise AssertionError("retention loaded the whole tenant")

            monkeypatch.setattr(ProvenanceStore, "load_subgraph", refuse)
            expired = harness.service.expire_before(USER, 5 * DAY_US)
            redacted = harness.service.forget_site(USER, "secret.com")
            monkeypatch.undo()
            edges = [(e.src, e.dst) for e in harness.graph().edges()]
        finally:
            harness.close()
        assert expired == RetentionReport(5, 1, 2, 1)
        assert redacted == RedactionReport(1, 2, 1)
        assert sorted(edges) == [("alice::a", "alice::c")]

    def test_forget_site_sweeps_the_page_of_a_re_recorded_node(self, tmp_path):
        """A node re-recorded under a new URL leaves its old page row
        unreferenced, out of every plan's reach; redacting the old site
        still removes it, because the page sweep is shard-wide."""
        harness = Harness(str(tmp_path / "svc"))
        try:
            for url in ("http://www.secret.com/old", "http://www.kept.org/new"):
                harness.service.record_node(USER, ProvNode(
                    id="n", kind=NodeKind.PAGE_VISIT, timestamp_us=DAY_US,
                    url=url,
                ))
                harness.service.flush()
            report = harness.service.forget_site(USER, "secret.com")
            with harness.service.pool.checkout(0) as store:
                urls = [row[0] for row in store.conn.execute(
                    "SELECT url FROM prov_pages"
                )]
        finally:
            harness.close()
        assert report.nodes_removed == 0
        assert urls == ["http://www.kept.org/new"]

    def test_every_statement_is_keyed(self, tmp_path):
        """Each plan read seeks an index: the tenant's ``id`` range or
        ids, the page index, the edge endpoint indexes, or rowids."""
        service = open_service(str(tmp_path / "svc"))
        statements: list[str] = []
        try:
            nodes = [
                ProvNode(id=f"n{i}", kind=NodeKind.PAGE_VISIT,
                         timestamp_us=i * DAY_US,
                         url=f"http://www.site{i % 2}.com/{i}")
                for i in range(6)
            ]
            record(service, USER, nodes, [
                (i, i + 1, EdgeKind.LINK, None) for i in range(5)
            ])
            service.flush()
            with service.pool.checkout(0) as store:
                rows = store.tenant_rows(qualify(USER, ""))
                store.conn.set_trace_callback(statements.append)
                try:
                    plan_redaction(rows, "site1.com")
                    plan_expiry(rows, 3 * DAY_US)
                finally:
                    store.conn.set_trace_callback(None)
                plans = {
                    sql: [
                        row[3] for row in
                        store.conn.execute("EXPLAIN QUERY PLAN " + sql)
                    ]
                    for sql in statements
                    if sql.lstrip().upper().startswith("SELECT")
                }
        finally:
            service.close()
        assert len(plans) >= 6
        for sql, details in plans.items():
            for detail in details:
                if re.match(r"(SCAN|SEARCH) ", detail):
                    assert detail.startswith("SEARCH "), (sql, detail)


# -- deterministic bridge order ------------------------------------------------------

_HUB_SCRIPT = """
import json, sys
from repro.core.model import ProvNode
from repro.core.taxonomy import EdgeKind, NodeKind
from repro.service import ProvenanceService

DAY = 24 * 3600 * 1_000_000

def visit(node_id, ts):
    return ProvNode(id=node_id, kind=NodeKind.PAGE_VISIT, timestamp_us=ts,
                    label=node_id, url="http://www." + node_id + ".com/")

service = ProvenanceService(sys.argv[1], shards=1, workers=0)
service.record_node("alice", visit("hub", 1 * DAY))
for i in range(5):
    service.record_node("alice", visit(f"parent{i}", 50 * DAY + i))
    service.record_node("alice", visit(f"child{i}", 60 * DAY + i))
    service.record_edge("alice", EdgeKind.LINK, f"parent{i}", "hub",
                        timestamp_us=1 * DAY)
    service.record_edge("alice", EdgeKind.LINK, "hub", f"child{i}",
                        timestamp_us=60 * DAY + i)
service.expire_before("alice", 10 * DAY)
with service.pool.checkout(0) as store:
    bridges = store.conn.execute(
        "SELECT e.id, s.id, d.id FROM prov_edges AS e"
        " JOIN prov_nodes AS s ON s.nid = e.src"
        " JOIN prov_nodes AS d ON d.nid = e.dst"
        " JOIN prov_edge_attrs AS a ON a.edge_id = e.id AND a.name = 'bridged'"
        " ORDER BY e.id"
    ).fetchall()
digest = service.audit_report("alice")["graph_digest"]
service.close()
print(json.dumps({"bridges": bridges, "digest": digest}))
"""


def test_bridge_order_does_not_depend_on_string_hashing(tmp_path):
    """One expired hub between 5 kept parents and 5 kept children: its
    25 bridges get the same edge ids, and the tenant the same graph
    digest, under any ``PYTHONHASHSEED``."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    outputs = []
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", _HUB_SCRIPT, str(tmp_path / seed)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.append(json.loads(result.stdout))
    assert len(outputs[0]["bridges"]) == 25
    assert [(dst, src) for _id, src, dst in outputs[0]["bridges"]] == sorted(
        (dst, src) for _id, src, dst in outputs[0]["bridges"]
    )
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
