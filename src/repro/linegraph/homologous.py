"""Homologous data structures and matching (Definitions 3–5, paper §III-C).

Two triples are *multi-source homologous* when a single retrieval would put
them in the same candidate set — operationally, when they make claims about
the same ``(entity, attribute)`` key.  All claims for one key form a
:class:`HomologousGroup`, whose center :class:`HomologousNode` records the
common attribute name, shared metadata, member count and (once computed)
the group confidence ``C(v)``.  Keys claimed by a single source stay
isolated (``LVs``).

``match_homologous`` is the O(n log n) matching pass of §III-C: one sorted
sweep over the key index instead of pairwise comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple


@dataclass(slots=True)
class HomologousNode:
    """The center node ``snode = {name, meta, num, C(v)}`` of Definition 4."""

    name: str
    entity: str
    meta: dict[str, str] = field(default_factory=dict)
    num: int = 0
    confidence: float | None = None


@dataclass(slots=True)
class HomologousGroup:
    """One homologous subgraph: center node + member triples.

    Definition 4's edge weight ``w_i`` of a member is its source's
    credibility, which node-level MCC reads from the
    :class:`~repro.confidence.history.HistoryStore` once per group
    (:meth:`~repro.confidence.node_level.NodeScorer.group_table`); no
    copy lives on the group.
    """

    key: tuple[str, str]
    snode: HomologousNode
    members: list[Triple] = field(default_factory=list)

    @classmethod
    def of(
        cls, key: tuple[str, str], members: Sequence[Triple]
    ) -> "HomologousGroup":
        """The group of ``members``, all claims about ``key``.

        The center node's ``meta`` takes the first member's domain, so
        every way of forming one group (matching, promotion, a query's
        candidate set) yields the same node.
        """
        first = members[0]
        snode = HomologousNode(
            name=key[1],
            entity=key[0],
            meta={"domain": first.provenance.domain if first.provenance else ""},
            num=len(members),
        )
        return cls(key=key, snode=snode, members=list(members))

    @property
    def entity(self) -> str:
        return self.key[0]

    @property
    def attribute(self) -> str:
        return self.key[1]

    def sources(self) -> set[str]:
        return {t.source_id() for t in self.members}

    def values(self) -> list[str]:
        return [t.obj for t in self.members]


@dataclass(slots=True)
class MatchResult:
    """Output of homologous matching: ``SVs`` (groups) and ``LVs`` (isolated)."""

    groups: list[HomologousGroup] = field(default_factory=list)
    isolated: list[Triple] = field(default_factory=list)

    def group_index(self) -> dict[tuple[str, str], HomologousGroup]:
        return {g.key: g for g in self.groups}


def match_homologous(
    graph: KnowledgeGraph,
    min_sources: int = 2,
) -> MatchResult:
    """Partition all claims into homologous groups and isolated nodes.

    A key becomes a group when at least ``min_sources`` distinct sources
    claim it; otherwise its triples are isolated points.  Sorting the key
    index dominates the cost: O(n log n) in the number of triples.
    """
    result = MatchResult()
    for key in sorted(graph.keys()):
        members = graph.by_key(*key)
        distinct_sources = {t.source_id() for t in members}
        if len(members) >= 2 and len(distinct_sources) >= min_sources:
            result.groups.append(HomologousGroup.of(key, members))
        else:
            result.isolated.extend(members)
    return result
