"""The case report built the two-graph way: the reference model for
:func:`repro.service.audit.build_case_report`.

This is the builder the service ran before the report became one pass
over one tenant load: ``load_subgraph``, then a second
:class:`~repro.core.graph.ProvenanceGraph` re-keyed to the tenant's raw
ids, one :func:`node_record_hash` per node, and ``graph_digest`` as the
SHA-256 of :func:`repro.core.export.to_json` over that second graph.
The one-pass builder must reproduce its canonical bytes exactly, so
``graph_digest`` and ``report_digest`` match too.  It takes the same
checks in the same order (validation, ``verify_integrity``, the
tenant's attestation, the drained shard), so call it where the
service's own report may be called.
"""

from __future__ import annotations

import hashlib

from repro.canon import canonical_json
from repro.core.export import to_json
from repro.core.graph import ProvenanceGraph
from repro.core.model import ProvNode
from repro.service.audit import REPORT_FORMAT, REPORT_VERSION
from repro.service.events import qualify, unqualify, validate_user_id

#: Node kinds treated as custody artifacts (things that left the
#: browser and can be picked up off a disk later).
_ARTIFACT_KINDS = frozenset({"download"})


def node_record_hash(node: ProvNode) -> str:
    """SHA-256 over the node's canonical record bytes."""
    return hashlib.sha256(
        canonical_json(
            {
                "id": node.id,
                "kind": node.kind.value,
                "timestamp_us": node.timestamp_us,
                "label": node.label,
                "url": node.url,
                "attrs": dict(node.attrs),
            }
        )
    ).hexdigest()


def raw_id_graph(service, user_id: str) -> ProvenanceGraph:
    """The tenant's stored graph re-created with its raw ids, the graph
    whose :func:`~repro.core.export.to_json` bytes ``graph_digest``
    hashes."""
    shard = service._drained_shard(user_id)
    with service.pool.checkout(shard) as store:
        stored = store.load_subgraph(qualify(user_id, ""))
    graph = ProvenanceGraph(enforce_dag=False)
    for node in stored.nodes():
        graph.add_node(
            ProvNode(
                id=unqualify(user_id, node.id),
                kind=node.kind,
                timestamp_us=node.timestamp_us,
                label=node.label,
                url=node.url,
                attrs=node.attrs,
            )
        )
    for edge in stored.edges():
        graph.add_edge(
            edge.kind,
            unqualify(user_id, edge.src),
            unqualify(user_id, edge.dst),
            timestamp_us=edge.timestamp_us,
            attrs=dict(edge.attrs),
        )
    return graph


def build_case_report(service, user_id: str) -> dict:
    """The case report for *user_id* as a canonical, digestible dict."""
    validate_user_id(user_id)
    verify = service.verify_integrity()
    attestation = service.journal.tenant_attestation(user_id)
    graph = raw_id_graph(service, user_id)
    hashes = {node.id: node_record_hash(node) for node in graph.nodes()}
    timeline = [
        {
            "node": node.id,
            "kind": node.kind.value,
            "timestamp_us": node.timestamp_us,
            "label": node.label,
            "url": node.url,
            "record_sha256": hashes[node.id],
        }
        for node in sorted(
            graph.nodes(), key=lambda n: (n.timestamp_us, n.id)
        )
    ]
    custody = []
    for node in sorted(graph.nodes(), key=lambda n: (n.timestamp_us, n.id)):
        if node.kind.value not in _ARTIFACT_KINDS:
            continue
        lineage = sorted(
            graph.ancestors(node.id).items(),
            key=lambda item: (item[1], item[0]),
        )
        custody.append(
            {
                "artifact": node.id,
                "url": node.url,
                "record_sha256": hashes[node.id],
                "chain": [
                    {
                        "node": ancestor,
                        "depth": depth,
                        "record_sha256": hashes[ancestor],
                    }
                    for ancestor, depth in lineage
                ],
            }
        )
    report = {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "user_id": user_id,
        "verify": verify.to_dict(),
        "attestation": attestation,
        "counts": {
            "nodes": graph.node_count,
            "edges": graph.edge_count,
            "artifacts": len(custody),
        },
        "graph_digest": hashlib.sha256(
            to_json(graph).encode("utf-8")
        ).hexdigest(),
        "timeline": timeline,
        "custody": custody,
    }
    report["report_digest"] = hashlib.sha256(
        canonical_json(report)
    ).hexdigest()
    return report
