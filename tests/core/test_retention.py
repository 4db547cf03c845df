"""Tests for provenance retention and redaction."""

import pytest

from repro.core.graph import ProvenanceGraph
from repro.core.model import ProvNode
from repro.core.retention import expire_before, forget_site
from repro.core.taxonomy import EdgeKind, NodeKind


def visit(node_id, ts, url, label=""):
    return ProvNode(id=node_id, kind=NodeKind.PAGE_VISIT, timestamp_us=ts,
                    label=label, url=url)


@pytest.fixture()
def lineage_graph():
    """old1 -> old2 -> young1 -> young2, plus a CO_OPEN old1 -> young1."""
    graph = ProvenanceGraph()
    graph.add_node(visit("old1", 10, "http://www.a.com/"))
    graph.add_node(visit("old2", 20, "http://www.b.com/"))
    graph.add_node(visit("young1", 100, "http://www.c.com/"))
    graph.add_node(visit("young2", 110, "http://www.d.com/"))
    graph.add_edge(EdgeKind.LINK, "old1", "old2", timestamp_us=20)
    graph.add_edge(EdgeKind.LINK, "old2", "young1", timestamp_us=100)
    graph.add_edge(EdgeKind.LINK, "young1", "young2", timestamp_us=110)
    graph.add_edge(EdgeKind.CO_OPEN, "old1", "young1", timestamp_us=100)
    return graph


class TestExpireBefore:
    def test_old_nodes_removed(self, lineage_graph):
        new_graph, report = expire_before(lineage_graph, 50)
        assert "old1" not in new_graph
        assert "old2" not in new_graph
        assert "young1" in new_graph
        assert report.nodes_removed == 2
        assert report.nodes_after == 2

    def test_bridge_preserves_reachability(self):
        """A surviving child of an expired chain keeps ancestry to the
        surviving ancestors above the chain."""
        graph = ProvenanceGraph()
        graph.add_node(visit("ancient", 5, "http://www.root.com/"))
        graph.add_node(visit("mid", 20, "http://www.mid.com/"))
        graph.add_node(visit("young", 100, "http://www.leaf.com/"))
        graph.add_edge(EdgeKind.LINK, "ancient", "mid", timestamp_us=20)
        graph.add_edge(EdgeKind.LINK, "mid", "young", timestamp_us=100)
        # Expire only 'mid' (cutoff between 20 and 100... but 'ancient'
        # is older). Expire everything before 50: both ancient and mid
        # go; no survivors above -> no bridge.
        new_graph, report = expire_before(graph, 50)
        assert report.bridge_edges_added == 0

        # Now a shape where a surviving ancestor exists: raise
        # ancient's timestamp above the cutoff.
        graph2 = ProvenanceGraph(enforce_dag=False)
        graph2.add_node(visit("keep_root", 60, "http://www.root.com/"))
        graph2.add_node(visit("doomed", 10, "http://www.mid.com/"))
        graph2.add_node(visit("keep_leaf", 100, "http://www.leaf.com/"))
        graph2.add_edge(EdgeKind.LINK, "keep_root", "doomed", timestamp_us=60)
        graph2.add_edge(EdgeKind.LINK, "doomed", "keep_leaf",
                        timestamp_us=100)
        new_graph2, report2 = expire_before(graph2, 50)
        assert report2.bridge_edges_added == 1
        assert "keep_root" in new_graph2.ancestors("keep_leaf")
        bridge = new_graph2.in_edges("keep_leaf")[0]
        assert bridge.attrs.get("bridged") == 1

    def test_no_bridge_mode(self, lineage_graph):
        new_graph, report = expire_before(lineage_graph, 50, bridge=False)
        assert report.bridge_edges_added == 0
        assert new_graph.ancestors("young1") == {}

    def test_co_open_never_bridged(self, lineage_graph):
        new_graph, _ = expire_before(lineage_graph, 50)
        kinds = {edge.kind for edge in new_graph.edges()}
        assert EdgeKind.CO_OPEN not in kinds

    def test_noop_when_nothing_old(self, lineage_graph):
        new_graph, report = expire_before(lineage_graph, 0)
        assert report.nodes_removed == 0
        assert new_graph.node_count == lineage_graph.node_count
        assert new_graph.edge_count == lineage_graph.edge_count

    def test_result_still_acyclic(self, lineage_graph):
        new_graph, _ = expire_before(lineage_graph, 50)
        assert new_graph.is_acyclic()

    def test_lineage_cycle_through_one_expired_node(self):
        """kept -> old -> kept: walking up from the kept child through
        the expired node meets the child again, which is no bridge."""
        graph = ProvenanceGraph(enforce_dag=False)
        graph.add_node(visit("old", 10, "http://www.a.com/"))
        graph.add_node(visit("kept", 90, "http://www.b.com/"))
        graph.add_edge(EdgeKind.LINK, "old", "kept", timestamp_us=90)
        graph.add_edge(EdgeKind.LINK, "kept", "old", timestamp_us=10)
        new_graph, report = expire_before(graph, 50)
        assert list(new_graph.node_ids()) == ["kept"]
        assert new_graph.edge_count == 0
        assert report.nodes_removed == 1
        assert report.edges_removed == 2
        assert report.bridge_edges_added == 0

    def test_lineage_cycle_through_two_expired_nodes(self):
        """root -> old1 -> old2 -> kept -> old1: the kept child still
        gets its bridge from the kept root, and none from itself."""
        graph = ProvenanceGraph(enforce_dag=False)
        graph.add_node(visit("root", 80, "http://www.r.com/"))
        graph.add_node(visit("old1", 10, "http://www.a.com/"))
        graph.add_node(visit("old2", 20, "http://www.b.com/"))
        graph.add_node(visit("kept", 90, "http://www.c.com/"))
        graph.add_edge(EdgeKind.LINK, "root", "old1", timestamp_us=10)
        graph.add_edge(EdgeKind.LINK, "old1", "old2", timestamp_us=20)
        graph.add_edge(EdgeKind.LINK, "old2", "kept", timestamp_us=90)
        graph.add_edge(EdgeKind.LINK, "kept", "old1", timestamp_us=10)
        new_graph, report = expire_before(graph, 50)
        assert sorted(new_graph.node_ids()) == ["kept", "root"]
        assert [(e.src, e.dst) for e in new_graph.edges()] == [("root", "kept")]
        assert report.bridge_edges_added == 1


class TestForgetSite:
    @pytest.fixture()
    def history(self):
        graph = ProvenanceGraph()
        graph.add_node(ProvNode(id="term", kind=NodeKind.SEARCH_TERM,
                                timestamp_us=1, label="secret"))
        graph.add_node(visit("serp", 2, "http://www.findit.com/search?q=x"))
        graph.add_node(visit("s1", 3, "http://www.secret-site.com/a"))
        graph.add_node(visit("s2", 4, "http://cdn.secret-site.com/b.jpg"))
        graph.add_node(visit("other", 5, "http://www.other.com/"))
        graph.add_edge(EdgeKind.SEARCHED, "term", "serp", timestamp_us=2)
        graph.add_edge(EdgeKind.LINK, "serp", "s1", timestamp_us=3)
        graph.add_edge(EdgeKind.EMBED, "s1", "s2", timestamp_us=4)
        graph.add_edge(EdgeKind.LINK, "s1", "other", timestamp_us=5)
        return graph

    def test_all_subdomains_removed(self, history):
        new_graph, report = forget_site(history, "secret-site.com")
        assert "s1" not in new_graph
        assert "s2" not in new_graph
        assert report.nodes_removed == 2

    def test_other_sites_kept(self, history):
        new_graph, _ = forget_site(history, "secret-site.com")
        assert "serp" in new_graph
        assert "other" in new_graph

    def test_no_bridging_lineage_severed(self, history):
        new_graph, report = forget_site(history, "secret-site.com")
        assert new_graph.ancestors("other") == {}
        assert report.orphaned_descendants == 1

    def test_terms_leading_only_to_site_removed(self):
        graph = ProvenanceGraph()
        graph.add_node(ProvNode(id="term", kind=NodeKind.SEARCH_TERM,
                                timestamp_us=1, label="incriminating"))
        graph.add_node(visit("page", 2, "http://www.secret.biz/x"))
        graph.add_edge(EdgeKind.SEARCHED, "term", "page", timestamp_us=2)
        new_graph, _ = forget_site(graph, "secret.biz")
        assert "term" not in new_graph

    def test_terms_with_other_uses_kept(self, history):
        new_graph, _ = forget_site(history, "secret-site.com")
        assert "term" in new_graph  # it also led to the kept SERP

    def test_unknown_site_noop(self, history):
        new_graph, report = forget_site(history, "never-visited.org")
        assert report.nodes_removed == 0
        assert new_graph.node_count == history.node_count
