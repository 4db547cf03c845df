"""The auditable case report: timeline, custody chains, attestations.

The report is the forensic deliverable: it must be byte-stable
(canonical JSON of the same history is the same bytes), self-attesting
(``report_digest`` detects any later edit), and bound to the journal's
verification verdict.  It is built in one pass over one tenant load,
and must stay byte-identical to the two-graph builder kept in
``audit_reference.py``, whose ``graph_digest`` is the SHA-256 of
``to_json`` over the tenant's graph re-keyed to raw ids.
"""

import hashlib
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.canon import canonical_json
from repro.core.export import to_json
from repro.core.graph import ProvenanceGraph
from repro.core.model import ProvNode
from repro.core.store import ProvenanceStore
from repro.core.taxonomy import EdgeKind, NodeKind
from repro.service import (
    ProvenanceService,
    build_case_report,
    render_case_report,
    report_digest_ok,
)
from tests.service import audit_reference


def node(node_id, kind, ts, url=None, label=""):
    return ProvNode(id=node_id, kind=kind, timestamp_us=ts, url=url,
                    label=label)


@pytest.fixture()
def service(tmp_path):
    with ProvenanceService(str(tmp_path / "svc"), shards=2,
                           workers=0) as svc:
        svc.record_node("alice", node(
            "term", NodeKind.SEARCH_TERM, 1, label="rosebud"))
        svc.record_node("alice", node(
            "visit", NodeKind.PAGE_VISIT, 2, url="http://a.com/x"))
        svc.record_node("alice", node(
            "dl", NodeKind.DOWNLOAD, 3, url="http://cdn.a.com/f.zip"))
        svc.record_edge("alice", EdgeKind.SEARCHED, "term", "visit",
                        timestamp_us=2)
        svc.record_edge("alice", EdgeKind.DOWNLOADED, "visit", "dl",
                        timestamp_us=3)
        svc.record_node("bob", node("other", NodeKind.PAGE_VISIT, 9))
        svc.flush()
        yield svc


class TestCaseReport:
    def test_timeline_is_time_ordered_and_hashed(self, service):
        report = build_case_report(service, "alice")
        assert [e["node"] for e in report["timeline"]] == [
            "term", "visit", "dl"]
        for entry in report["timeline"]:
            assert len(entry["record_sha256"]) == 64

    def test_custody_chain_walks_download_lineage(self, service):
        """The paper's Download Lineage query: the artifact's chain of
        custody is its full ancestor closure, nearest first."""
        report = build_case_report(service, "alice")
        assert report["counts"]["artifacts"] == 1
        custody = report["custody"][0]
        assert custody["artifact"] == "dl"
        assert [(link["node"], link["depth"]) for link in custody["chain"]] \
            == [("visit", 1), ("term", 2)]

    def test_report_is_tenant_scoped(self, service):
        report = build_case_report(service, "alice")
        assert all(e["node"] != "other" for e in report["timeline"])
        assert build_case_report(service, "bob")["counts"]["nodes"] == 1

    def test_report_embeds_verification_and_attestation(self, service):
        report = build_case_report(service, "alice")
        assert report["verify"]["ok"] is True
        assert report["attestation"]["events"] == 5
        assert len(report["attestation"]["chain"]) == 64

    def test_report_digest_detects_edits(self, service):
        report = build_case_report(service, "alice")
        assert report_digest_ok(report)
        report["timeline"][0]["node"] = "doctored"
        assert not report_digest_ok(report)

    def test_byte_stable_across_calls_and_reopen(self, tmp_path, service):
        report = canonical_json(build_case_report(service, "alice"))
        assert canonical_json(build_case_report(service, "alice")) == report

    def test_facade_method_matches_builder(self, service):
        assert canonical_json(service.audit_report("alice")) == \
            canonical_json(build_case_report(service, "alice"))

    def test_render_human_report(self, service):
        text = render_case_report(build_case_report(service, "alice"))
        assert "Case report — alice" in text
        assert "VERIFIED INTACT" in text
        assert "Chain of custody — dl" in text
        assert "Timeline" in text

    def test_render_carries_corruption_location(self, service):
        report = build_case_report(service, "alice")
        doctored = dict(report)
        doctored["verify"] = dict(report["verify"], **{
            "ok": False,
            "first_error": {"segment": "ingest.journal", "offset": 120,
                            "reason": "chain_mismatch"},
        })
        text = render_case_report(doctored)
        assert "INTEGRITY FAILURE" in text
        assert "ingest.journal @ byte 120 (chain_mismatch)" in text


# -- the one-pass builder against the two-graph reference ----------------------------

DAY_US = 24 * 3600 * 1_000_000
#: Ids, labels and URLs with non-ASCII text and JSON escapes.  A URL's
#: first node sets its page title, so that node's label is stored NULL
#: and loads back from the title; later nodes may share it or not.
NODE_IDS = ["n0", "n1", "n2", "n3", "n4", "n5", "é6", "ノード7", "n8", "n9"]
LABELS = ["", "rosebud", "Café «Noël»", "日本語のタイトル", 'a "quote" \\ tab\t']
URLS = [
    "http://a.com/x",
    "http://a.com/x",
    "https://bücher.de/straße?q=ü",
    "http://例え.jp/パス",
    "http://cdn.a.com/f.zip",
]
KINDS = [
    NodeKind.PAGE_VISIT, NodeKind.PAGE_VISIT, NodeKind.SEARCH_TERM,
    NodeKind.DOWNLOAD, NodeKind.BOOKMARK,
]
#: ``hidden``/``transition`` become store columns (an unknown
#: transition stays a plain attr); the rest stay attrs as recorded.
NODE_ATTRS = [
    None, None, {"hidden": 1}, {"transition": "link"},
    {"transition": "typed", "hidden": 1}, {"transition": "not-a-kind"},
    {"referrer": "http://a.com/", "weight": 2.5, "n": 7}, {"note": "ünï"},
]
EDGE_KINDS = [
    EdgeKind.LINK, EdgeKind.SEARCHED, EdgeKind.DOWNLOADED, EdgeKind.EMBED,
    EdgeKind.REDIRECT, EdgeKind.CO_OPEN,
]
EDGE_ATTRS = [None, None, {"bridged": 0}, {"why": "ünï"}]


@st.composite
def histories(draw):
    """One tenant's history: nodes on colliding days, edges between any
    two of them (against time too, so lineage may cycle), each edge's
    time either its destination's (stored NULL) or its own, re-records
    with a new day and new attrs, and an optional bridging expiry."""
    count = draw(st.integers(0, len(NODE_IDS)))
    nodes = []
    for index in range(count):
        kind = draw(st.sampled_from(KINDS))
        nodes.append(ProvNode(
            id=NODE_IDS[index],
            kind=kind,
            timestamp_us=draw(st.integers(0, 5)) * DAY_US,
            label=draw(st.sampled_from(LABELS)),
            url=None if kind is NodeKind.SEARCH_TERM else draw(st.sampled_from(URLS)),
            attrs=draw(st.sampled_from(NODE_ATTRS)) or {},
        ))
    edges = []
    if count >= 2:
        for src, dst, kind, own_day, attrs in draw(st.lists(
            st.tuples(
                st.integers(0, count - 1), st.integers(0, count - 1),
                st.sampled_from(EDGE_KINDS),
                st.none() | st.integers(0, 5),
                st.sampled_from(EDGE_ATTRS),
            ),
            max_size=2 * count,
        )):
            if src != dst:
                edges.append((src, dst, kind, own_day, attrs))
    rerecords = []
    if count:
        for index, day, attrs in draw(st.lists(
            st.tuples(
                st.integers(0, count - 1), st.integers(0, 5),
                st.sampled_from(NODE_ATTRS),
            ),
            max_size=2,
        )):
            old = nodes[index]
            rerecords.append(ProvNode(
                id=old.id, kind=old.kind, timestamp_us=day * DAY_US,
                label=old.label, url=old.url, attrs=attrs or {},
            ))
    expire = draw(st.none() | st.integers(0, 6))
    return nodes, edges, rerecords, expire


def record_history(service, user, history) -> None:
    nodes, edges, rerecords, expire = history
    for node in nodes:
        service.record_node(user, node)
    for src, dst, kind, own_day, attrs in edges:
        when = nodes[dst].timestamp_us if own_day is None else own_day * DAY_US
        service.record_edge(
            user, kind, nodes[src].id, nodes[dst].id,
            timestamp_us=when, attrs=attrs,
        )
    for node in rerecords:
        service.record_node(user, node)
    service.flush()
    if expire is not None:
        service.expire_before(user, expire * DAY_US, bridge=True)


def assert_matches_reference(service, user) -> dict:
    report = service.audit_report(user)
    expected = audit_reference.build_case_report(service, user)
    assert canonical_json(report) == canonical_json(expected)
    raw = audit_reference.raw_id_graph(service, user)
    assert report["graph_digest"] == hashlib.sha256(
        to_json(raw).encode("utf-8")
    ).hexdigest()
    return report


class TestMatchesTheReference:
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(alice=histories(), bob=histories())
    def test_random_histories(self, alice, bob):
        with tempfile.TemporaryDirectory() as tmp:
            with ProvenanceService(
                os.path.join(tmp, "svc"), shards=1, workers=0
            ) as service:
                record_history(service, "alice", alice)
                record_history(service, "bob", bob)
                # Co-tenants on the one shard; carol was never recorded.
                for user in ("alice", "bob", "carol"):
                    assert_matches_reference(service, user)

    def test_every_case_at_once(self, tmp_path):
        """Each case the random histories may miss, in one tenant: a
        title inherited by a NULL label, a re-record with a new time
        and new attrs, NULL and explicit edge times, a lineage cycle
        through a download, a download with no ancestors, non-ASCII
        text, and a bridge left by ``expire_before`` (``late`` reaches
        ``v1`` only through the expired ``old`` and ``term``)."""
        with ProvenanceService(str(tmp_path / "svc"), shards=1,
                               workers=0) as service:
            def record(node_id, kind, day, label="", url=None, **attrs):
                service.record_node("alice", ProvNode(
                    id=node_id, kind=kind, timestamp_us=day * DAY_US,
                    label=label, url=url, attrs=attrs,
                ))

            record("old", NodeKind.PAGE_VISIT, 0, "Old", "http://a.com/")
            record("term", NodeKind.SEARCH_TERM, 1, "bücher", None)
            record("v1", NodeKind.PAGE_VISIT, 2, "Straße", "http://ü.de/",
                   transition="link")
            record("v2", NodeKind.PAGE_VISIT, 3, "Straße", "http://ü.de/",
                   hidden=1)
            record("dl", NodeKind.DOWNLOAD, 4, "f.zip", "http://ü.de/f.zip")
            record("lone", NodeKind.DOWNLOAD, 5, "g.zip", "http://b.com/g")
            record("late", NodeKind.BOOKMARK, 3, "", "http://a.com/")
            edges = [
                ("late", "old", EdgeKind.LINK, 3),  # bridged to v1 below
                ("old", "term", EdgeKind.LINK, 1),
                ("term", "v1", EdgeKind.SEARCHED, 2),
                ("old", "v1", EdgeKind.LINK, 2),
                ("v1", "v2", EdgeKind.LINK, 1),  # explicit, against time
                ("v2", "dl", EdgeKind.DOWNLOADED, 4),
                ("dl", "v1", EdgeKind.LINK, 2),  # closes a cycle via dl
            ]
            for src, dst, kind, day in edges:
                service.record_edge("alice", kind, src, dst,
                                    timestamp_us=day * DAY_US)
            record("v2", NodeKind.PAGE_VISIT, 6, "Straße", "http://ü.de/",
                   transition="typed", note="re-recorded")
            service.flush()
            service.expire_before("alice", 2 * DAY_US, bridge=True)
            report = assert_matches_reference(service, "alice")
            with service.pool.checkout(0) as store:
                stored = store.load_subgraph("alice::")
                (label,) = store.conn.execute(
                    "SELECT label FROM prov_nodes WHERE id = 'alice::v2'"
                ).fetchone()
            assert label is None  # stored NULL: the page title stands in
            assert stored.node("alice::v2").label == "Straße"
            assert any(e.attrs.get("bridged") == 1 for e in stored.edges())
            custody = {e["artifact"]: e["chain"] for e in report["custody"]}
            assert custody["lone"] == []
            assert {"v1", "v2"} <= {link["node"] for link in custody["dl"]}
            assert_matches_reference(service, "nobody")


class TestOneLoadPerReport:
    def test_one_load_and_one_graph(self, service, monkeypatch):
        """A report reads its tenant once, through ``load_subgraph`` (so
        a span around that method times the report's read), and builds
        no graph beyond the one that load returns."""
        calls = {"load_subgraph": 0, "graphs": 0}
        load = ProvenanceStore.load_subgraph
        init = ProvenanceGraph.__init__

        def counting_load(self, *args, **kwargs):
            calls["load_subgraph"] += 1
            return load(self, *args, **kwargs)

        def counting_init(self, *args, **kwargs):
            calls["graphs"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(ProvenanceStore, "load_subgraph", counting_load)
        monkeypatch.setattr(ProvenanceGraph, "__init__", counting_init)
        for user in ("alice", "bob"):
            calls.update(load_subgraph=0, graphs=0)
            service.audit_report(user)
            assert calls == {"load_subgraph": 1, "graphs": 1}
