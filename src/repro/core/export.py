"""Provenance graph export and import.

Interchange formats for the homogeneous graph:

* :func:`to_json` / :func:`from_json` — a complete, lossless JSON
  encoding (nodes, edges, attributes), for moving histories between
  tools or archiving a redacted copy; :func:`canonical_digest` hashes
  the canonical form from entries a caller already encoded (a case
  report's ``graph_digest``);
* :func:`to_dot` — Graphviz DOT for visual inspection of lineage
  neighborhoods (whole 25k-node graphs are not plottable; the function
  takes a node set, typically a lineage path or query neighborhood).

JSON round-trips exactly; tests enforce it property-style.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable

from repro.canon import canonical_json
from repro.core.graph import ProvenanceGraph
from repro.core.model import ProvEdge, ProvNode
from repro.core.taxonomy import EdgeKind, NodeKind

FORMAT_VERSION = 1

#: Node fill colors for DOT output, by kind value.
_DOT_COLORS = {
    "page_visit": "lightblue",
    "page": "lightblue",
    "search_term": "gold",
    "form_submission": "khaki",
    "bookmark": "palegreen",
    "download": "salmon",
}


def node_entry(node: ProvNode, node_id: str) -> dict:
    """*node*'s entry in the export, under the id *node_id*.

    Its canonical bytes are also the node's record as a case report
    hashes it (:mod:`repro.service.audit`).
    """
    return {
        "id": node_id,
        "kind": node.kind.value,
        "timestamp_us": node.timestamp_us,
        "label": node.label,
        "url": node.url,
        "attrs": dict(node.attrs),
    }


def edge_entry(edge: ProvEdge, edge_id: int, src: str, dst: str) -> dict:
    """*edge*'s entry in the export, under *edge_id* and its endpoints'
    ids *src* and *dst*."""
    return {
        "id": edge_id,
        "kind": edge.kind.value,
        "src": src,
        "dst": dst,
        "timestamp_us": edge.timestamp_us,
        "attrs": dict(edge.attrs),
    }


def to_json(graph: ProvenanceGraph, *, indent: int | None = None) -> str:
    """Serialize the whole graph to a JSON string.

    The default (``indent=None``) form is **canonical**: sorted keys,
    no whitespace — byte-stable, so the same graph always serializes
    to the same bytes and the string can be hashed or signed (audit
    reports digest it, through :func:`canonical_digest`).  ``indent``
    trades that for readability.
    """
    payload = {
        "format": "repro-provenance",
        "version": FORMAT_VERSION,
        "enforce_dag": graph.enforce_dag,
        "nodes": [node_entry(node, node.id) for node in graph.nodes()],
        "edges": [
            edge_entry(edge, edge.id, edge.src, edge.dst)
            for edge in graph.edges()
        ],
    }
    if indent is None:
        # json.dumps without explicit separators pads with spaces even
        # at indent=None; the canonical form must be compact.
        return canonical_json(payload).decode("utf-8")
    return json.dumps(payload, indent=indent, sort_keys=True)


def canonical_digest(
    edges: list[dict], node_records: list[bytes], *, enforce_dag: bool
) -> str:
    """SHA-256 of the canonical :func:`to_json` bytes of a graph, from
    its :func:`edge_entry` dicts and the canonical bytes of its
    :func:`node_entry` dicts, each in graph order.

    Canonical JSON sorts keys, so the export is the edge list, the
    ``enforce_dag`` and ``format`` fields, the node list and
    ``version``, in that order: a caller that already encoded each node
    entry digests the export without encoding the nodes again.
    """
    digest = hashlib.sha256(b'{"edges":')
    digest.update(canonical_json(edges))
    digest.update(
        b',"enforce_dag":%s,"format":"repro-provenance","nodes":['
        % (b"true" if enforce_dag else b"false")
    )
    digest.update(b",".join(node_records))
    digest.update(b'],"version":%d}' % FORMAT_VERSION)
    return digest.hexdigest()


def from_json(text: str) -> ProvenanceGraph:
    """Reconstruct a graph serialized by :func:`to_json`.

    Raises :class:`ValueError` for unknown formats or versions.
    """
    payload = json.loads(text)
    if payload.get("format") != "repro-provenance":
        raise ValueError("not a repro provenance export")
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported export version: {payload.get('version')!r}"
        )
    graph = ProvenanceGraph(enforce_dag=payload.get("enforce_dag", True))
    for entry in payload["nodes"]:
        graph.add_node(
            ProvNode(
                id=entry["id"],
                kind=NodeKind(entry["kind"]),
                timestamp_us=entry["timestamp_us"],
                label=entry.get("label", ""),
                url=entry.get("url"),
                attrs=entry.get("attrs", {}),
            )
        )
    for entry in sorted(payload["edges"], key=lambda e: e["id"]):
        graph.add_edge(
            EdgeKind(entry["kind"]),
            entry["src"],
            entry["dst"],
            timestamp_us=entry["timestamp_us"],
            attrs=entry.get("attrs", {}),
        )
    return graph


def to_dot(
    graph: ProvenanceGraph,
    node_ids: Iterable[str],
    *,
    title: str = "provenance",
) -> str:
    """Render the induced subgraph over *node_ids* as Graphviz DOT.

    Edges between included nodes are kept; labels are truncated for
    readability.  Automatic (non-user-action) edges render dashed,
    matching the paper's first-class/second-class distinction visually.
    """
    included = set(node_ids)
    lines = [f'digraph "{_escape(title)}" {{', "  rankdir=TB;",
             '  node [style=filled, shape=box, fontsize=10];']
    for node_id in included:
        node = graph.node(node_id)
        color = _DOT_COLORS.get(node.kind.value, "white")
        label = node.label or node.url or node.id
        if len(label) > 40:
            label = label[:37] + "..."
        lines.append(
            f'  "{_escape(node_id)}" [label="{_escape(label)}",'
            f' fillcolor={color}];'
        )
    for edge in graph.edges():
        if edge.src in included and edge.dst in included:
            style = "solid" if edge.is_user_action else "dashed"
            lines.append(
                f'  "{_escape(edge.src)}" -> "{_escape(edge.dst)}"'
                f' [label="{edge.kind.value}", style={style}, fontsize=8];'
            )
    lines.append("}")
    return "\n".join(lines)


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
