"""Multi-source line graph (MLG) — the paper's central data structure.

:class:`MultiSourceLineGraph` wraps a fused knowledge graph with:

* the line-graph view over all triples (Definition 2), built only when
  something reads :attr:`MultiSourceLineGraph.line_graph`;
* the homologous group index built by one O(n log n) matching pass
  (Definitions 3–4) — a hash lookup from ``(entity, attribute)`` straight
  to every multi-source claim about it;
* the isolated-node set (keys only one source talks about), which
  Definition 5 keeps inside the homologous triple line graph ``SG'``.

The group index is what delivers the paper's "10-100× query acceleration"
(Table III): a fusion query touches exactly its candidate group instead of
traversing the original KG.
"""

from __future__ import annotations

import time
from collections import defaultdict

from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.linegraph.homologous import (
    HomologousGroup,
    MatchResult,
    match_homologous,
)
from repro.linegraph.transform import LineGraph


class MultiSourceLineGraph:
    """Homologous triple line graph ``SG'`` over a fused knowledge graph."""

    def __init__(self, graph: KnowledgeGraph) -> None:
        start = time.perf_counter()
        self.graph = graph
        self._line_graph: LineGraph | None = None
        match: MatchResult = match_homologous(graph)
        self.groups: list[HomologousGroup] = match.groups
        self.isolated: list[Triple] = match.isolated
        self._group_by_key: dict[tuple[str, str], HomologousGroup] = match.group_index()
        self._isolated_by_key: dict[tuple[str, str], list[Triple]] = defaultdict(list)
        for triple in self.isolated:
            self._isolated_by_key[triple.key()].append(triple)
        self.build_time_s = time.perf_counter() - start

    @property
    def line_graph(self) -> LineGraph:
        """The line-graph view (Definition 2), built on first access.

        Its nodes are ``graph.triples()`` in insertion order, as of the
        first read since the MLG was made or last extended by
        :meth:`add_triples`.
        """
        if self._line_graph is None:
            self._line_graph = LineGraph(self.graph.triples())
        return self._line_graph

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def group(self, entity: str, attribute: str) -> HomologousGroup | None:
        """O(1) lookup of the homologous group for one claim key."""
        return self._group_by_key.get((entity, attribute))

    def isolated_claims(self, entity: str, attribute: str) -> list[Triple]:
        """Isolated (single-source) claims for one key."""
        return list(self._isolated_by_key.get((entity, attribute), ()))

    def candidates(self, entity: str, attribute: str) -> list[Triple]:
        """All candidate claims for a key: group members plus isolated ones."""
        group = self.group(entity, attribute)
        members = list(group.members) if group else []
        return members + self.isolated_claims(entity, attribute)

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def add_triples(self, triples: list[Triple]) -> dict[str, int]:
        """Fold freshly ingested triples into the MLG incrementally.

        New claims join their key's existing group, promote an isolated
        key to a group once a second source weighs in (Definition 3), or
        stay isolated.  Returns counts of what happened — the warehouse-
        style incremental update the KGFabric reference motivates, at a
        fraction of a full rebuild's cost.

        ``triples`` must already be in ``graph``.  The line-graph view is
        dropped, and its next reader builds it from the graph, new
        triples included.  Every key ends up with the members and
        isolated claims a fresh ``MultiSourceLineGraph(graph)`` gives it;
        only the order of :attr:`groups` differs (a promoted group is
        appended, matching sorts by key).
        """
        self._line_graph = None
        stats = {"joined": 0, "promoted": 0, "isolated": 0}
        for triple in triples:
            key = triple.key()
            group = self._group_by_key.get(key)
            if group is not None:
                if triple not in group.members:
                    group.members.append(triple)
                    group.snode.num = len(group.members)
                    stats["joined"] += 1
                continue
            pending = self._isolated_by_key[key]
            sources = {t.source_id() for t in pending} | {triple.source_id()}
            # Definition 3: claims from two distinct sources are
            # multi-source homologous (match_homologous's default)
            if len(sources) >= 2:
                group = HomologousGroup.of(key, pending + [triple])
                self.groups.append(group)
                self._group_by_key[key] = group
                self.isolated = [t for t in self.isolated if t.key() != key]
                self._isolated_by_key[key] = []
                stats["promoted"] += 1
            else:
                pending.append(triple)
                self.isolated.append(triple)
                stats["isolated"] += 1
        return stats

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, float]:
        """Group and claim counts.  ``triples`` counts the graph's live
        triples, the nodes a freshly built line-graph view has, without
        building the view."""
        sizes = [g.snode.num for g in self.groups]
        return {
            "groups": len(self.groups),
            "isolated": len(self.isolated),
            "triples": len(self.graph),
            "mean_group_size": (sum(sizes) / len(sizes)) if sizes else 0.0,
            "max_group_size": max(sizes) if sizes else 0,
            "build_time_s": round(self.build_time_s, 6),
        }
