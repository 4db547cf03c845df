"""Node and edge value types for the provenance graph.

Nodes and edges are immutable records.  ``attrs`` carries the
semi-structured remainder (section 3.1 discusses exactly this design
tension: attributes versus instances); everything queries touch on hot
paths — kind, timestamp, URL, label — is a first-class field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping

from repro.core.taxonomy import EdgeKind, NodeKind

#: Attribute values are restricted to SQLite-storable scalars so the
#: homogeneous store can persist them losslessly.
AttrValue = str | int | float


#: The attrs of every node and edge that has none: one read-only view,
#: shared, since nothing can write through it.
_NO_ATTRS: Mapping[str, AttrValue] = MappingProxyType({})


def _frozen_attrs(attrs: Mapping[str, AttrValue] | None) -> Mapping[str, AttrValue]:
    return MappingProxyType(dict(attrs)) if attrs else _NO_ATTRS


@dataclass(frozen=True)
class ProvNode:
    """One object in the provenance graph.

    ``label`` is the human-facing text (title for visits, query text
    for search terms, filename for downloads) — it is also what textual
    seeding in contextual search indexes.  ``url`` is set for every
    node kind that has one (visits, pages, downloads, bookmarks).
    """

    id: str
    kind: NodeKind
    timestamp_us: int
    label: str = ""
    url: str | None = None
    attrs: Mapping[str, AttrValue] = field(default_factory=lambda: _frozen_attrs(None))

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("node id must be non-empty")
        if self.timestamp_us < 0:
            raise ValueError("node timestamp must be non-negative")
        object.__setattr__(self, "attrs", _frozen_attrs(self.attrs))

    @property
    def search_text(self) -> str:
        """The text a textual search sees for this node (label + URL)."""
        if self.url:
            return f"{self.label} {self.url}"
        return self.label

    def attr(self, name: str, default: AttrValue | None = None) -> AttrValue | None:
        return self.attrs.get(name, default)


@dataclass(frozen=True)
class ProvEdge:
    """One relationship: ``src`` is the ancestor, ``dst`` the descendant."""

    id: int
    kind: EdgeKind
    src: str
    dst: str
    timestamp_us: int
    attrs: Mapping[str, AttrValue] = field(default_factory=lambda: _frozen_attrs(None))

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-loop on {self.src!r} is not provenance")
        if self.timestamp_us < 0:
            raise ValueError("edge timestamp must be non-negative")
        object.__setattr__(self, "attrs", _frozen_attrs(self.attrs))

    @property
    def is_user_action(self) -> bool:
        return self.kind.is_user_action

    @property
    def is_lineage(self) -> bool:
        return self.kind.is_lineage
