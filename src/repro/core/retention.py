"""Provenance retention and redaction.

Section 4 of the paper flags privacy as the open problem: "browser
history potentially contains a great deal of sensitive personal data".
A browser that keeps provenance needs the operations every browser
offers for plain history — expire old entries, forget a site — but on
a *graph*, where deletion has semantics: removing a node can sever the
lineage of everything downstream of it.

Two operations are provided, mirroring the two browser affordances:

* :func:`expire_before` — age-based expiration ("keep 90 days").
  Expired interior nodes are not simply dropped: their lineage is
  *bridged* — each expired node's parents are connected to its
  children with BRIDGED-marked edges — so that descendants keep
  truthful (if less detailed) ancestry.  This mirrors how provenance
  systems compact old lineage rather than break it.
* :func:`forget_site` — redaction ("forget everything about
  example.com").  Redaction deliberately does **not** bridge: the
  user's intent is that the connection itself disappear.  Downstream
  lineage becomes genuinely unanswerable, and the function reports
  exactly how many nodes lost ancestry, making the privacy/utility
  trade-off measurable.

Both are computed as a *plan* (:func:`plan_expiry`,
:func:`plan_redaction`) read through the narrow :class:`RetentionRows`
interface: select the doomed ids, then read only the edges of the
doomed nodes and of their surviving neighbours, and the kinds and
timestamps of the few nodes a rule asks about.  :class:`GraphRows`
answers that interface from an in-memory graph, and
:meth:`repro.core.store.ProvenanceStore.tenant_rows` answers it in SQL
for one tenant of a shard, so the rules live here once whichever holds
the history.  The graph functions apply the plan to a copy of the
graph and return the new graph with the plan's report; persisting the
result is a normal :meth:`ProvenanceStore.save_graph` of the new
graph.  Bridges come out sorted by ``(dst, src)``, so a pass emits
them in the same order on every run.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple, Protocol

from repro.core.graph import ProvenanceGraph
from repro.core.model import ProvEdge
from repro.core.taxonomy import EdgeKind, NodeKind
from repro.web.url import Url


@dataclass(frozen=True)
class RetentionReport:
    """What an expiration pass did."""

    nodes_before: int
    nodes_removed: int
    edges_removed: int
    bridge_edges_added: int

    @property
    def nodes_after(self) -> int:
        return self.nodes_before - self.nodes_removed


@dataclass(frozen=True)
class RedactionReport:
    """What a forget-site pass did."""

    nodes_removed: int
    edges_removed: int
    #: Nodes that still exist but lost every lineage ancestor.
    orphaned_descendants: int


# -- the read interface ---------------------------------------------------------


class EdgeRow(NamedTuple):
    """One edge as a plan reads it."""

    id: int
    kind: EdgeKind
    src: str
    dst: str
    #: Whether the edge carries ``bridged == 1`` (an earlier pass's bridge).
    bridged: bool


class NodeFacts(NamedTuple):
    """The facts a plan reads about a node beyond its id."""

    kind: NodeKind
    timestamp_us: int
    #: Sort key of the node in the source's node order, the order a
    #: whole-graph pass visits nodes in (only compared within a source).
    order: int | tuple[int, int]


class RetentionRows(Protocol):
    """The reads a retention plan is computed from.

    Ids are the source's own node ids; every read returns only nodes
    and edges of the source (for a shard: of one tenant).
    """

    def node_count(self) -> int:
        """How many nodes the source holds."""

    def ids_before(self, cutoff_us: int) -> list[str]:
        """Ids of the nodes older than *cutoff_us*."""

    def urls(self) -> list[str]:
        """The distinct URLs the source's nodes reference."""

    def ids_with_urls(self, urls: list[str]) -> list[str]:
        """Ids of the nodes that reference one of *urls*."""

    def edges_into(self, ids: list[str]) -> list[EdgeRow]:
        """Every edge whose destination is one of *ids*."""

    def edges_out_of(self, ids: list[str]) -> list[EdgeRow]:
        """Every edge whose source is one of *ids*."""

    def facts(self, ids: list[str]) -> dict[str, NodeFacts]:
        """``{id: NodeFacts}`` for *ids*."""


class GraphRows:
    """:class:`RetentionRows` over an in-memory :class:`ProvenanceGraph`."""

    def __init__(self, graph: ProvenanceGraph) -> None:
        self.graph = graph
        self._order: dict[str, int] | None = None

    def node_count(self) -> int:
        return self.graph.node_count

    def ids_before(self, cutoff_us: int) -> list[str]:
        return [
            node.id for node in self.graph.nodes()
            if node.timestamp_us < cutoff_us
        ]

    def urls(self) -> list[str]:
        return list(dict.fromkeys(
            node.url for node in self.graph.nodes() if node.url is not None
        ))

    def ids_with_urls(self, urls: list[str]) -> list[str]:
        return [
            node_id for url in urls for node_id in self.graph.nodes_for_url(url)
        ]

    def edges_into(self, ids: list[str]) -> list[EdgeRow]:
        return [
            _edge_row(edge) for node_id in ids
            for edge in self.graph.in_edges(node_id)
        ]

    def edges_out_of(self, ids: list[str]) -> list[EdgeRow]:
        return [
            _edge_row(edge) for node_id in ids
            for edge in self.graph.out_edges(node_id)
        ]

    def facts(self, ids: list[str]) -> dict[str, NodeFacts]:
        if self._order is None:
            self._order = {
                node_id: position
                for position, node_id in enumerate(self.graph.node_ids())
            }
        out: dict[str, NodeFacts] = {}
        for node_id in ids:
            node = self.graph.node(node_id)
            out[node_id] = NodeFacts(
                node.kind, node.timestamp_us, self._order[node_id]
            )
        return out


def _edge_row(edge: ProvEdge) -> EdgeRow:
    return EdgeRow(
        edge.id, edge.kind, edge.src, edge.dst, edge.attrs.get("bridged") == 1
    )


class _Adjacency:
    """In- and out-edges per node, each node's read from the rows once."""

    def __init__(self, rows: RetentionRows) -> None:
        self.rows = rows
        self.inbound: dict[str, list[EdgeRow]] = {}
        self.outbound: dict[str, list[EdgeRow]] = {}

    def read_inbound(self, ids: Iterable[str]) -> None:
        fresh = [i for i in dict.fromkeys(ids) if i not in self.inbound]
        for node_id in fresh:
            self.inbound[node_id] = []
        for edge in self.rows.edges_into(fresh):
            self.inbound[edge.dst].append(edge)

    def read_outbound(self, ids: Iterable[str]) -> None:
        fresh = [i for i in dict.fromkeys(ids) if i not in self.outbound]
        for node_id in fresh:
            self.outbound[node_id] = []
        for edge in self.rows.edges_out_of(fresh):
            self.outbound[edge.src].append(edge)

    def touching(self, ids: Iterable[str]) -> dict[int, EdgeRow]:
        """``{edge id: edge}`` for every edge with an endpoint in *ids*."""
        ids = list(ids)
        self.read_inbound(ids)
        self.read_outbound(ids)
        return {
            edge.id: edge
            for node_id in ids
            for edge in (*self.inbound[node_id], *self.outbound[node_id])
        }


# -- plans ------------------------------------------------------------------------


class Bridge(NamedTuple):
    """A lineage edge an expiration adds across its expired region."""

    src: str
    dst: str
    timestamp_us: int


@dataclass(frozen=True)
class RetentionPlan:
    """What a retention pass removes and adds, before it is applied."""

    doomed: frozenset[str]
    #: Every bridge the pass implies, sorted by ``(dst, src)``.
    bridges: tuple[Bridge, ...]
    #: ``(src, dst)`` pairs of :attr:`bridges` already stored as bridged
    #: edges (an earlier, interrupted run of the same pass wrote them).
    persisted: frozenset[tuple[str, str]]
    report: RetentionReport | RedactionReport

    def new_bridges(self) -> list[Bridge]:
        """The bridges not stored yet — what a store must still write."""
        return [
            bridge for bridge in self.bridges
            if (bridge.src, bridge.dst) not in self.persisted
        ]


def plan_expiry(
    rows: RetentionRows, cutoff_us: int, *, bridge: bool = True
) -> RetentionPlan:
    """Plan the removal of every node older than *cutoff_us*.

    With ``bridge=True``, each surviving node whose lineage runs
    through expired nodes gets a bridge from every surviving ancestor
    that reaches it through expired nodes only (see :func:`_bridges`).
    Reads the expired rows, their edges, and the in-edges of their
    surviving lineage children.
    """
    doomed = set(rows.ids_before(cutoff_us))
    adjacency = _Adjacency(rows)
    removed = adjacency.touching(doomed)
    bridges: list[Bridge] = []
    persisted: set[tuple[str, str]] = set()
    if bridge and doomed:
        bridges = _bridges(rows, adjacency, doomed)
        pairs = {(b.src, b.dst) for b in bridges}
        persisted = {
            (edge.src, edge.dst)
            for node_id in {b.dst for b in bridges}
            for edge in adjacency.inbound[node_id]
            if edge.bridged and (edge.src, edge.dst) in pairs
        }
    report = RetentionReport(
        nodes_before=rows.node_count(),
        nodes_removed=len(doomed),
        edges_removed=len(removed),
        bridge_edges_added=len(bridges),
    )
    return RetentionPlan(
        frozenset(doomed), tuple(bridges), frozenset(persisted), report
    )


def _bridges(
    rows: RetentionRows, adjacency: _Adjacency, doomed: set[str]
) -> list[Bridge]:
    """Connect surviving parents to surviving children across expired
    regions.

    For each surviving node with an expired lineage parent, walk up
    through expired nodes to the nearest surviving ancestors and bridge
    each of them to it (CO_OPEN edges are never walked: co-presence is
    not transitive).  The walk is bounded by the expired region, each
    (ancestor, descendant) pair is bridged once, and a bridge takes its
    descendant's timestamp.  A lineage cycle through the expired region
    can lead the walk back to the child itself; that pair carries no
    lineage and is dropped (an edge cannot be its own provenance).
    """
    children = sorted({
        edge.dst
        for node_id in doomed
        for edge in adjacency.outbound[node_id]
        if edge.kind.is_lineage and edge.dst not in doomed
    })
    adjacency.read_inbound(children)
    pairs: set[tuple[str, str]] = set()
    for child in children:
        frontier = [
            edge.src for edge in adjacency.inbound[child]
            if edge.src in doomed and edge.kind.is_lineage
        ]
        visited = set(frontier)
        while frontier:
            current = frontier.pop()
            for edge in adjacency.inbound[current]:
                if not edge.kind.is_lineage:
                    continue
                if edge.src not in doomed:
                    if edge.src != child:
                        pairs.add((edge.src, child))
                elif edge.src not in visited:
                    visited.add(edge.src)
                    frontier.append(edge.src)
    stamps = rows.facts(sorted({dst for _src, dst in pairs}))
    return [
        Bridge(src, dst, stamps[dst].timestamp_us)
        for src, dst in sorted(pairs, key=lambda pair: (pair[1], pair[0]))
    ]


def plan_redaction(rows: RetentionRows, site: str) -> RetentionPlan:
    """Plan the removal of every node about *site*.

    *site* matches :attr:`repro.web.url.Url.site` (registrable domain),
    evaluated once per distinct URL; a URL that does not parse keeps
    its nodes.  Search terms whose every child is doomed are doomed
    too (see :func:`_doom_search_terms`).  No bridges.  Reads the
    doomed rows, their edges, and the in-edges of their surviving
    children, which the orphan count needs.
    """
    site = site.lower()
    doomed = set(rows.ids_with_urls(
        [url for url in rows.urls() if _on_site(url, site)]
    ))
    adjacency = _Adjacency(rows)
    _doom_search_terms(rows, adjacency, doomed)
    removed = adjacency.touching(doomed)
    survivors = sorted({
        edge.dst for edge in removed.values() if edge.dst not in doomed
    })
    adjacency.read_inbound(survivors)
    orphaned = 0
    for node_id in survivors:
        lineage = [e for e in adjacency.inbound[node_id] if e.kind.is_lineage]
        if lineage and all(edge.src in doomed for edge in lineage):
            orphaned += 1
    report = RedactionReport(
        nodes_removed=len(doomed),
        edges_removed=len(removed),
        orphaned_descendants=orphaned,
    )
    return RetentionPlan(frozenset(doomed), (), frozenset(), report)


def _on_site(url: str, site: str) -> bool:
    try:
        return Url.parse(url).site == site
    except Exception:  # noqa: BLE001 - unparseable URL: keep the node
        return False


def _doom_search_terms(
    rows: RetentionRows, adjacency: _Adjacency, doomed: set[str]
) -> None:
    """Add to *doomed* the search terms whose every child is doomed.

    Such a term is itself evidence of the visit.  Terms are judged in
    the source's node order, each once, against the terms doomed
    before it — one pass over the terms, as the rule reads — but only
    terms with a doomed child are visited: the parents of the doomed
    nodes, and of each term as it is doomed.
    """
    queue: list[tuple[int | tuple[int, int], str]] = []
    offered: set[str] = set()

    def offer(ids: list[str], after: int | tuple[int, int] | None) -> None:
        """Queue the unjudged search-term parents of *ids* that come
        after *after* in node order (any, for ``None``)."""
        adjacency.read_inbound(ids)
        parents = {
            edge.src for node_id in ids for edge in adjacency.inbound[node_id]
        } - doomed - offered
        terms = {
            term_id: facts.order
            for term_id, facts in rows.facts(sorted(parents)).items()
            if facts.kind is NodeKind.SEARCH_TERM
            and (after is None or facts.order > after)
        }
        adjacency.read_outbound(terms)
        offered.update(terms)
        for term_id, order in terms.items():
            heapq.heappush(queue, (order, term_id))

    offer(sorted(doomed), None)
    while queue:
        order, term_id = heapq.heappop(queue)
        children = [edge.dst for edge in adjacency.outbound[term_id]]
        if children and all(child in doomed for child in children):
            doomed.add(term_id)
            offer([term_id], order)


# -- the graph functions -----------------------------------------------------------


def _apply_plan(graph: ProvenanceGraph, plan: RetentionPlan) -> ProvenanceGraph:
    """A new graph: *graph* without the doomed nodes, plus the bridges."""
    new_graph = ProvenanceGraph(enforce_dag=graph.enforce_dag)
    for node in graph.nodes():
        if node.id not in plan.doomed:
            new_graph.add_node(node)
    for edge in graph.edges():
        if edge.src not in plan.doomed and edge.dst not in plan.doomed:
            new_graph.add_edge(
                edge.kind, edge.src, edge.dst,
                timestamp_us=edge.timestamp_us, attrs=dict(edge.attrs),
            )
    for bridge in plan.bridges:
        new_graph.add_edge(
            EdgeKind.LINK, bridge.src, bridge.dst,
            timestamp_us=bridge.timestamp_us, attrs={"bridged": 1},
        )
    return new_graph


def expire_before(
    graph: ProvenanceGraph,
    cutoff_us: int,
    *,
    bridge: bool = True,
) -> tuple[ProvenanceGraph, RetentionReport]:
    """Return a new graph without nodes older than *cutoff_us*.

    With ``bridge=True`` (default), for every removed node the cross
    product of its surviving lineage parents and children is connected
    with edges attributed ``bridged=1``, preserving reachability of
    ancestry across the expired region.  CO_OPEN edges are never
    bridged — co-presence is not transitive.
    """
    plan = plan_expiry(GraphRows(graph), cutoff_us, bridge=bridge)
    return _apply_plan(graph, plan), plan.report


def forget_site(
    graph: ProvenanceGraph,
    site: str,
) -> tuple[ProvenanceGraph, RedactionReport]:
    """Return a new graph with every node about *site* removed.

    *site* matches :attr:`repro.web.url.Url.site` (registrable domain):
    forgetting ``example.com`` removes ``www.example.com`` pages,
    ``cdn.example.com`` downloads, and the search terms whose only
    outgoing edges led there.  No bridging — the point of redaction is
    that the connection disappears.
    """
    plan = plan_redaction(GraphRows(graph), site)
    return _apply_plan(graph, plan), plan.report
