"""Tests for graph export/import."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.canon import canonical_json
from repro.core.export import (
    canonical_digest,
    edge_entry,
    from_json,
    node_entry,
    to_dot,
    to_json,
)
from repro.core.graph import ProvenanceGraph
from repro.core.model import ProvNode
from repro.core.taxonomy import EdgeKind, NodeKind


def build_graph():
    graph = ProvenanceGraph()
    graph.add_node(ProvNode(id="term", kind=NodeKind.SEARCH_TERM,
                            timestamp_us=1, label="rosebud",
                            attrs={"engine": "www.findit.com"}))
    graph.add_node(ProvNode(id="visit", kind=NodeKind.PAGE_VISIT,
                            timestamp_us=2, label='page "quoted"',
                            url="http://www.a.com/x"))
    graph.add_node(ProvNode(id="dl", kind=NodeKind.DOWNLOAD,
                            timestamp_us=3, label="f.zip",
                            url="http://cdn.a.com/f.zip"))
    graph.add_edge(EdgeKind.SEARCHED, "term", "visit", timestamp_us=2)
    graph.add_edge(EdgeKind.DOWNLOADED, "visit", "dl", timestamp_us=3,
                   attrs={"unified": 1})
    return graph


class TestJson:
    def test_roundtrip_exact(self):
        graph = build_graph()
        restored = from_json(to_json(graph))
        assert {n.id: n for n in graph.nodes()} == {
            n.id: n for n in restored.nodes()
        }
        original_edges = sorted(
            (e.id, e.kind, e.src, e.dst, e.timestamp_us, dict(e.attrs))
            for e in graph.edges()
        )
        restored_edges = sorted(
            (e.id, e.kind, e.src, e.dst, e.timestamp_us, dict(e.attrs))
            for e in restored.edges()
        )
        assert original_edges == restored_edges

    def test_output_is_valid_json(self):
        payload = json.loads(to_json(build_graph()))
        assert payload["format"] == "repro-provenance"
        assert len(payload["nodes"]) == 3
        assert len(payload["edges"]) == 2

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError):
            from_json(json.dumps({"format": "something-else"}))

    def test_wrong_version_rejected(self):
        with pytest.raises(ValueError):
            from_json(json.dumps(
                {"format": "repro-provenance", "version": 99}
            ))

    def test_enforce_dag_preserved(self):
        graph = ProvenanceGraph(enforce_dag=False)
        graph.add_node(ProvNode(id="a", kind=NodeKind.PAGE, timestamp_us=1))
        restored = from_json(to_json(graph))
        assert restored.enforce_dag is False

    def test_indent_option(self):
        assert "\n" in to_json(build_graph(), indent=2)

    def test_default_output_is_canonical(self):
        """The ``indent=None`` form must be byte-stable canonical JSON
        (sorted keys, compact separators) — audit reports hash it, so
        the legacy space-padded ``json.dumps`` default is a bug."""
        text = to_json(build_graph())
        assert ": " not in text and ", " not in text
        assert text.encode("utf-8") == canonical_json(json.loads(text))

    @pytest.mark.parametrize("enforce_dag", [True, False])
    def test_canonical_digest_is_the_digest_of_to_json(self, enforce_dag):
        """Digesting pre-encoded node entries gives the SHA-256 of the
        canonical export, whichever way the graph enforces a DAG."""
        graph = from_json(to_json(build_graph()))
        graph.enforce_dag = enforce_dag
        edges = [
            edge_entry(edge, edge.id, edge.src, edge.dst)
            for edge in graph.edges()
        ]
        records = [
            canonical_json(node_entry(node, node.id)) for node in graph.nodes()
        ]
        assert canonical_digest(
            edges, records, enforce_dag=enforce_dag
        ) == hashlib.sha256(to_json(graph).encode("utf-8")).hexdigest()

    def test_same_graph_serializes_identically(self):
        """Two exports of equal history are the same bytes — the
        property the audit report's graph digest rests on."""
        assert to_json(build_graph()) == to_json(build_graph())
        # And the canonical form round-trips through indent-land too.
        pretty = to_json(build_graph(), indent=2)
        assert to_json(from_json(pretty)) == to_json(build_graph())


class TestDot:
    def test_subgraph_rendered(self):
        graph = build_graph()
        dot = to_dot(graph, ["term", "visit"])
        assert dot.startswith("digraph")
        assert '"term"' in dot
        assert '"visit"' in dot
        assert '"dl"' not in dot
        assert "searched" in dot

    def test_edges_outside_subset_dropped(self):
        graph = build_graph()
        dot = to_dot(graph, ["term", "dl"])
        assert "->" not in dot.replace("rankdir", "")

    def test_quotes_escaped(self):
        dot = to_dot(build_graph(), ["visit"])
        assert '\\"quoted\\"' in dot

    def test_automatic_edges_dashed(self):
        graph = ProvenanceGraph()
        graph.add_node(ProvNode(id="a", kind=NodeKind.PAGE_VISIT,
                                timestamp_us=1))
        graph.add_node(ProvNode(id="b", kind=NodeKind.PAGE_VISIT,
                                timestamp_us=2))
        graph.add_edge(EdgeKind.REDIRECT, "a", "b", timestamp_us=2)
        dot = to_dot(graph, ["a", "b"])
        assert "style=dashed" in dot

    def test_long_labels_truncated(self):
        graph = ProvenanceGraph()
        graph.add_node(ProvNode(id="n", kind=NodeKind.PAGE_VISIT,
                                timestamp_us=1, label="x" * 100))
        dot = to_dot(graph, ["n"])
        assert "..." in dot


_nodes = st.lists(
    st.tuples(st.integers(0, 20),
              st.sampled_from([None, "http://x.com/", "http://y.com/a"]),
              st.text(alphabet="ab \"\\", max_size=6)),
    min_size=1, max_size=12, unique_by=lambda item: item[0],
)


@given(nodes=_nodes)
@settings(max_examples=40)
def test_json_roundtrip_property(nodes):
    graph = ProvenanceGraph()
    ids = []
    for ordinal, url, label in nodes:
        node_id = f"n{ordinal:02d}"
        graph.add_node(ProvNode(id=node_id, kind=NodeKind.PAGE_VISIT,
                                timestamp_us=ordinal, label=label, url=url))
        ids.append((ordinal, node_id))
    ids.sort()
    for (_, src), (_, dst) in zip(ids, ids[1:]):
        graph.add_edge(EdgeKind.LINK, src, dst,
                       timestamp_us=graph.node(dst).timestamp_us)
    restored = from_json(to_json(graph))
    assert {n.id: n for n in graph.nodes()} == {
        n.id: n for n in restored.nodes()
    }
    assert restored.edge_count == graph.edge_count
