"""Turning journaled service events into shard-store rows.

This is the single definition of "apply a batch": the tenant-qualifying
transformation from :class:`~repro.service.events.ProvEvent` records to
``prov_nodes`` / ``prov_edges`` / ``prov_intervals`` rows, committed as
one transaction.  The flush threads, the serial drain and the
per-event salvage all call it on a store checked out of the pool, so
the drains are byte-for-byte state-equivalent: the only thing that
differs between them is *which thread* runs this function.

The batch's relevance-index delta is emitted here too (``index=True``,
the default): node events are tokenized and their postings land in the
same transaction as the rows, so every drain maintains the ranked-
search index identically and crash replay re-derives the same bytes.
With ``index=False`` the shard is marked index-stale instead, and the
first ranked query rebuilds it from the rows.
"""

from __future__ import annotations

import time

from repro.core.capture import NodeInterval
from repro.core.model import ProvEdge, ProvNode
from repro.service.events import (
    EdgeEvent,
    IntervalEvent,
    NodeEvent,
    ProvEvent,
    qualify,
)
from repro.service.indexer import batch_index_docs
from repro.service.metrics import NULL_REGISTRY


def apply_event_batch(
    store,
    batch: list[tuple[int, ProvEvent]],
    *,
    index: bool = True,
    metrics: object = NULL_REGISTRY,
) -> None:
    """Apply *batch* (``[(seq, event)]``) to *store* in one transaction.

    Tenant namespacing happens here: node ids are prefixed with their
    owner so edges can never cross users inside a shard.  On any
    failure the open transaction is rolled back (which also drops the
    store's row-id caches) and the error re-raises — the caller decides
    between requeue, quarantine, and crash replay; the journal still
    holds every event either way.  After a commit the store's per-node
    caches are dropped too, so they never hold more than one batch.

    *metrics* (a registry or the null default) books per-batch timing
    and counts; the pipeline passes the service registry.
    """
    started = time.perf_counter()
    nodes: list[ProvNode] = []
    edges: list[ProvEdge] = []
    intervals: list[NodeInterval] = []
    for _seq, event in batch:
        user = event.user_id
        if isinstance(event, NodeEvent):
            node = event.node
            nodes.append(
                ProvNode(
                    id=qualify(user, node.id),
                    kind=node.kind,
                    timestamp_us=node.timestamp_us,
                    label=node.label,
                    url=node.url,
                    attrs=node.attrs,
                )
            )
        elif isinstance(event, EdgeEvent):
            edge = event.edge
            edges.append(
                ProvEdge(
                    id=edge.id,
                    kind=edge.kind,
                    src=qualify(user, edge.src),
                    dst=qualify(user, edge.dst),
                    timestamp_us=edge.timestamp_us,
                    attrs=edge.attrs,
                )
            )
        elif isinstance(event, IntervalEvent):
            interval = event.interval
            intervals.append(
                NodeInterval(
                    node_id=qualify(user, interval.node_id),
                    tab_id=interval.tab_id,
                    opened_us=interval.opened_us,
                    closed_us=interval.closed_us,
                )
            )
    try:
        store.append_nodes(nodes)
        store.append_edges(edges)
        store.append_intervals(intervals)
        if nodes:
            if index:
                store.index_documents(batch_index_docs(batch))
            else:
                store.mark_index_stale()
    except Exception:
        # Keep the shard transactionally clean; rollback() also drops
        # the store's row-id caches, which may point at rows the
        # rollback erased.
        store.rollback()
        metrics.counter("apply.failures").inc()
        raise
    store.commit()
    # The per-node row caches are scoped to one transaction: kept, they
    # would hold every node the shard ever wrote.
    store.drop_node_caches()
    metrics.counter("apply.batches").inc()
    metrics.counter("apply.events").inc(len(batch))
    metrics.histogram("apply.batch").observe(time.perf_counter() - started)
