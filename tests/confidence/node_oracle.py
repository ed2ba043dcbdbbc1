"""Per-node reference implementation of node-level confidence (test oracle).

Production (:mod:`repro.confidence.node_level`) computes the group-wide
inputs of Eqs. 8–11 once per group (``NodeScorer.group_table``) and
reads them for every node it assesses.  :class:`OracleScorer` is the
per-node original: each node re-derives everything from the group's
members and the graph.  Property tests diff production against it with
exact float equality.

``group`` is anything with the group's ``members`` list: a
``HomologousGroup``, or the ``GroupTable`` that ``mcc()`` passes to
``assess``, so an :class:`OracleScorer` can stand in for the production
scorer inside ``mcc()``.

It differs from the per-node code it was taken from in two places:
``consistency`` no longer writes each peer's credibility into the
group's weights (``mcc()`` writes them once per group), and the degree
of Eq. 10 is counted from the materialized ``by_subject``/``by_object``
lists, as ``KnowledgeGraph.degree`` did, instead of from the graph's
index entries.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any

from repro.confidence.node_level import NodeAssessment, NodeScorer
from repro.confidence.similarity import similarity
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.util import normalize_value


def degree(graph: KnowledgeGraph, node: str) -> int:
    """Live triples incident to ``node``; a self-loop counts twice."""
    return len(graph.by_subject(node)) + len(graph.by_object(node))


class OracleScorer(NodeScorer):
    """``NodeScorer`` with the per-node originals of Eqs. 8–11."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._max_degree = max(
            (degree(self.graph, e.eid) for e in self.graph.entities()),
            default=1,
        ) or 1

    def consistency(self, triple: Triple, group: Any) -> float:
        peers = [m for m in group.members if m is not triple]
        if not peers:
            return 1.0
        total = 0.0
        weight_sum = 0.0
        own_source = triple.source_id()
        for peer in peers:
            weight = self.history.credibility(peer.source_id())
            if peer.source_id() == own_source:
                sim = 1.0
            else:
                sim = similarity([triple.obj], [peer.obj])
            total += weight * sim
            weight_sum += weight
        if weight_sum == 0.0:
            return 0.0
        return total / weight_sum

    def _node_features(self, triple: Triple, group: Any) -> dict[str, float]:
        node_degree = degree(self.graph, triple.obj)
        norm_degree = math.log1p(node_degree) / math.log1p(self._max_degree)
        support: dict[str, float] = {}
        total_weight = 0.0
        for member in group.members:
            weight = self.history.credibility(member.source_id())
            support[normalize_value(member.obj)] = (
                support.get(normalize_value(member.obj), 0.0) + weight
            )
            total_weight += weight
        agreement = (
            support.get(normalize_value(triple.obj), 0.0) / total_weight
            if total_weight else 0.0
        )
        type_consistency = self.schema.check(triple.predicate, triple.obj)
        corroboration = sum(
            1 for t in self.graph.by_object(triple.obj)
            if t.subject == triple.subject and t.predicate != triple.predicate
        )
        corroboration += sum(
            1 for t in self.graph.by_subject(triple.obj)
            if t.obj == triple.subject
        )
        path_support = min(1.0, corroboration / 3.0)
        return {
            "degree": norm_degree,
            "agreement": agreement,
            "type_consistency": type_consistency,
            "path_support": path_support,
        }

    def auth_hist(self, triple: Triple, group: Any) -> float:
        source = triple.source_id()
        h = self.history.historical_entities(source)
        prior = self.history.credibility(source)
        counts = Counter(normalize_value(m.obj) for m in group.members)
        n_query = len(group.members)
        consensus_sum = sum(
            counts[normalize_value(m.obj)] / n_query
            for m in group.members
            if m.source_id() == source
        )
        return (h * prior + consensus_sum) / (h + n_query)

    def assess(self, triple: Triple, group: Any) -> NodeAssessment:
        s_n = self.consistency(triple, group)
        a_llm = self.auth_llm(triple, group)
        a_hist = self.auth_hist(triple, group)
        authority = self.alpha * a_llm + (1.0 - self.alpha) * a_hist
        metrics = self.obs.metrics
        metrics.counter("confidence.node.assessed").inc()
        metrics.histogram("confidence.node.c_v").observe(s_n + authority)
        return NodeAssessment(
            triple=triple,
            consistency=s_n,
            auth_llm=a_llm,
            auth_hist=a_hist,
            authority=authority,
            confidence=s_n + authority,
        )
