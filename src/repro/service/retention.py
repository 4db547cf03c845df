"""Retention surgery on one tenant's shard: expire and forget.

:meth:`ProvenanceService.expire_before
<repro.service.service.ProvenanceService.expire_before>` and
:meth:`~repro.service.service.ProvenanceService.forget_site` delegate
here.  The rules — what a pass removes, which lineage it bridges — live
once, in :mod:`repro.core.retention`; this module plans a pass from the
tenant's shard rows (:meth:`repro.core.store.ProvenanceStore.tenant_rows`)
and carries the plan out:

    barrier -> plan -> journal and flush the bridges -> delete the
    doomed nodes -> prune orphan pages -> drop caches, roll the epoch
    -> tombstone

A plan reads the doomed rows, their edges and their surviving
neighbours, plus (for redaction) the distinct URLs the tenant
references — never the tenant's whole subgraph — so a pass costs what
it removes, not the tenant's size.

Concurrency: ``forget_site`` plans and deletes under one
:meth:`~repro.core.store.ProvenanceStore.exclusive` hold.
``expire_before`` plans, then releases the store so the flush threads
can apply its bridges, then takes the store to delete.  Run either
quiesced for the tenant: events submitted concurrently with the
surgery may land before or after the plan.
"""

from __future__ import annotations

from repro.core.model import ProvEdge
from repro.core.retention import (
    RedactionReport,
    RetentionPlan,
    RetentionReport,
    plan_expiry,
    plan_redaction,
)
from repro.core.taxonomy import EdgeKind
from repro.service.events import EdgeEvent, qualify, unqualify, validate_user_id


def expire_before(
    service, user_id: str, cutoff_us: int, *, bridge: bool, compact: bool
) -> RetentionReport:
    """Expire *user_id*'s provenance older than *cutoff_us*.

    A full pipeline barrier runs first: every journaled event is
    applied and checkpointed before the surgery, so a crash replay can
    never resurrect expired rows.  Bridges re-enter through the
    journaled write path in ``(dst, src)`` order, so their ids come
    from the journal sequence (unique across the tenants of a shard,
    and the same on every run of the same history), and they are
    flushed *before* the deletion — a crash in between leaves the
    bridges persisted and the expired nodes still present, and
    re-running the expiration finishes the job (the plan recognizes
    already-persisted bridges, so repeated runs add nothing twice).
    """
    validate_user_id(user_id)
    shard = service.pool.shard_of(user_id)
    service.ingest.flush()  # journal barrier: checkpoint covers everything
    with service.pool.checkout(shard) as store:
        plan = plan_expiry(
            store.tenant_rows(qualify(user_id, "")), cutoff_us, bridge=bridge
        )
    bridges = [
        EdgeEvent(
            user_id=user_id,
            edge=ProvEdge(
                id=0,  # remapped to the journal sequence
                kind=EdgeKind.LINK,
                src=unqualify(user_id, bridge.src),
                dst=unqualify(user_id, bridge.dst),
                timestamp_us=bridge.timestamp_us,
                attrs={"bridged": 1},
            ),
        )
        for bridge in plan.new_bridges()
    ]
    if bridges:
        service.record_events(bridges)
        service.ingest.flush(shard)
    with service.pool.checkout(shard) as store, store.exclusive():
        _delete(store, plan, compact)
    _drop_cached(service, user_id)
    # The deletion itself becomes part of the auditable record: a
    # signed tombstone says *what* retention removed and re-seals the
    # manifest, so verification stays green afterwards.
    report = plan.report
    service.journal.record_tombstone(
        "expire_before",
        user=user_id,
        cutoff_us=cutoff_us,
        nodes_removed=report.nodes_removed,
        edges_removed=report.edges_removed,
        bridges_added=report.bridge_edges_added,
    )
    return report


def forget_site(
    service, user_id: str, site: str, *, compact: bool
) -> RedactionReport:
    """Redact every trace of *site* from *user_id*'s provenance.

    Same barrier as :func:`expire_before`; the plan and the deletion
    share one exclusive hold of the shard.
    """
    validate_user_id(user_id)
    shard = service.pool.shard_of(user_id)
    service.ingest.flush()  # journal barrier: checkpoint covers everything
    with service.pool.checkout(shard) as store, store.exclusive():
        plan = plan_redaction(store.tenant_rows(qualify(user_id, "")), site)
        _delete(store, plan, compact)
    _drop_cached(service, user_id)
    # Redaction hides *what* was forgotten but not *that* a redaction
    # ran: the tombstone names the site (the redaction request is
    # itself an auditable act), not the removed rows.
    report = plan.report
    service.journal.record_tombstone(
        "forget_site",
        user=user_id,
        site=site,
        nodes_removed=report.nodes_removed,
        edges_removed=report.edges_removed,
    )
    return report


def _delete(store, plan: RetentionPlan, compact: bool) -> None:
    """Remove the doomed rows and the pages left unreferenced, in one
    transaction.

    Page pruning stays shard-wide: it also sweeps pages orphaned when a
    node was re-recorded under a new URL, and redaction's promise that
    no forgotten URL survives in ``prov_pages`` rests on that sweep.
    """
    store.delete_nodes_by_id(sorted(plan.doomed))
    store.prune_orphan_pages()
    if compact:
        store.compact_terms()
    store.commit()


def _drop_cached(service, user_id: str) -> None:
    """Deleted data must not serve from any cache, staleness budget or
    not: the tenant's entries drop and the ingest epoch rolls, which
    also retires every outstanding paged-search cursor's snapshot."""
    service.cache.invalidate_user(user_id)
    service.cache.roll_epoch()
