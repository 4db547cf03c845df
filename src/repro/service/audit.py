"""Auditable case reports: timeline + chain-of-custody with attestations.

The forensic deliverable the paper's provenance record exists to
support: given a tenant, produce a **case report** an investigator can
hand over — the tenant's activity timeline, each downloaded artifact's
chain of custody (its lineage ancestors, the paper's "Download
Lineage" query), and the hash attestations that tie the report to the
tamper-evident journal:

* every node carries the SHA-256 of its canonical record bytes;
* the whole subgraph is digested in the canonical
  :func:`repro.core.export.to_json` form of the tenant's graph under
  its raw ids (byte-stable, so two exports of the same history digest
  identically);
* the journal's verification result and the manifest's signed
  per-tenant chain head ride along, binding the report to a record
  that was *verified intact* when the report was cut;
* the report itself closes with ``report_digest`` — the SHA-256 of its
  own canonical bytes (digest field excluded), so any later alteration
  of the report is as detectable as an alteration of the journal.

The report reads the tenant once, through ``load_subgraph``, and builds
everything in one pass over that graph: each node's canonical record
is encoded once, hashed for its ``record_sha256`` and streamed into
the export digest.  No second graph is built, and ``to_json`` never
re-serializes the graph.  ``tests/service/audit_reference.py`` keeps
the builder that did both, and the tests hold the two byte-identical.

The report is deliberately wall-clock-free: the same service state
always produces the same bytes.  :func:`render_case_report` turns the
dict into the fixed-width tables of :mod:`repro.analysis.report` for
humans; the dict itself is what the HTTP route serves.
"""

from __future__ import annotations

import hashlib

from repro.canon import canonical_json
from repro.core.export import canonical_digest, edge_entry, node_entry
from repro.core.taxonomy import NodeKind
from repro.analysis.report import format_table
from repro.service.events import qualify, validate_user_id

#: Report format marker + version (mirrors the export module's scheme).
REPORT_FORMAT = "repro-audit-report"
REPORT_VERSION = 1

#: The node kind treated as a custody artifact (a thing that left the
#: browser and can be picked up off a disk later).
_ARTIFACT_KIND = NodeKind.DOWNLOAD


def build_case_report(service, user_id: str) -> dict:
    """The case report for *user_id* as a canonical, digestible dict.

    Verifies the journal first (via
    :meth:`~repro.service.service.ProvenanceService.verify_integrity`,
    which re-attests and walks every record) — an audit over a record
    that fails verification still *produces* the report, with the
    failure embedded in ``verify``, because "the record was tampered
    with, here is where" is itself the finding an investigator needs.

    The tenant is read once, through
    :meth:`~repro.core.store.ProvenanceStore.load_subgraph`, and one
    pass over that graph yields the timeline, every node's record hash
    and the export bytes ``graph_digest`` hashes: each node's canonical
    record is encoded once and serves both.  Ids lose the tenant prefix
    as they are read; custody chains walk ``ancestors`` on the loaded
    graph.
    """
    validate_user_id(user_id)
    verify = service.verify_integrity()
    attestation = service.journal.tenant_attestation(user_id)
    shard = service._drained_shard(user_id)
    prefix = qualify(user_id, "")
    with service.pool.checkout(shard) as store:
        graph = store.load_subgraph(prefix)
    cut = len(prefix)
    hashes: dict[str, str] = {}  # stored id -> record_sha256
    records: list[bytes] = []  # canonical node records, in load order
    timeline = []
    for node in graph.nodes():
        node_id = node.id[cut:]
        record = canonical_json(node_entry(node, node_id))
        records.append(record)
        digest = hashes[node.id] = hashlib.sha256(record).hexdigest()
        timeline.append(
            {
                "node": node_id,
                "kind": node.kind.value,
                "timestamp_us": node.timestamp_us,
                "label": node.label,
                "url": node.url,
                "record_sha256": digest,
            }
        )
    timeline.sort(key=lambda entry: (entry["timestamp_us"], entry["node"]))
    custody = []
    artifacts = sorted(
        (graph.node(node_id) for node_id in graph.by_kind(_ARTIFACT_KIND)),
        key=lambda node: (node.timestamp_us, node.id),
    )
    for node in artifacts:
        lineage = sorted(
            graph.ancestors(node.id).items(),
            key=lambda item: (item[1], item[0]),
        )
        custody.append(
            {
                "artifact": node.id[cut:],
                "url": node.url,
                "record_sha256": hashes[node.id],
                "chain": [
                    {
                        "node": ancestor[cut:],
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
        # The export of the graph re-keyed to raw ids: a re-keyed graph
        # numbers its edges in insertion order, which is edges() order
        # here, so an edge's id in it is its position.
        "graph_digest": canonical_digest(
            [
                edge_entry(edge, position, edge.src[cut:], edge.dst[cut:])
                for position, edge in enumerate(graph.edges())
            ],
            records,
            enforce_dag=False,
        ),
        "timeline": timeline,
        "custody": custody,
    }
    report["report_digest"] = hashlib.sha256(
        canonical_json(report)
    ).hexdigest()
    return report


def report_digest_ok(report: dict) -> bool:
    """Whether *report*'s embedded digest matches its canonical bytes."""
    body = {k: v for k, v in report.items() if k != "report_digest"}
    expected = hashlib.sha256(canonical_json(body)).hexdigest()
    return expected == report.get("report_digest")


def render_case_report(report: dict) -> str:
    """The human-facing rendering: fixed-width tables, verdict first."""
    verify = report["verify"]
    status = "VERIFIED INTACT" if verify["ok"] else "INTEGRITY FAILURE"
    parts = [
        format_table(
            ["field", "value"],
            [
                ["tenant", report["user_id"]],
                ["record status", status],
                ["records checked", verify["checked_records"]],
                ["segments checked", verify["checked_segments"]],
                ["graph digest", report["graph_digest"][:16] + "…"],
                ["report digest", report["report_digest"][:16] + "…"],
            ],
            title=f"Case report — {report['user_id']}",
        )
    ]
    if not verify["ok"] and verify["first_error"] is not None:
        err = verify["first_error"]
        parts.append(
            f"first corruption: {err['segment']} @ byte {err['offset']}"
            f" ({err['reason']})"
        )
    parts.append(
        format_table(
            ["timestamp_us", "kind", "node", "record sha256"],
            [
                [e["timestamp_us"], e["kind"], e["node"],
                 e["record_sha256"][:16] + "…"]
                for e in report["timeline"]
            ],
            title="Timeline",
        )
    )
    for entry in report["custody"]:
        parts.append(
            format_table(
                ["depth", "node", "record sha256"],
                [[0, entry["artifact"], entry["record_sha256"][:16] + "…"]]
                + [
                    [link["depth"], link["node"],
                     link["record_sha256"][:16] + "…"]
                    for link in entry["chain"]
                ],
                title=f"Chain of custody — {entry['artifact']}",
            )
        )
    return "\n\n".join(parts)
