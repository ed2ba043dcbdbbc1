"""Tests for the MCC algorithm (Algorithm 1)."""

from __future__ import annotations

import json

import pytest

from repro.confidence import HistoryStore, NodeScorer, mcc
from repro.kg import KnowledgeGraph, Provenance, Triple
from repro.linegraph import match_homologous
from repro.llm import SimulatedLLM
from repro.llm.stage import Stage
from repro.obs import Observability, TickClock
from repro.util import normalize_value


def build(claims: list[tuple[str, str, str, str]]):
    graph = KnowledgeGraph()
    for source, entity, attribute, value in claims:
        graph.add_triple(
            Triple(entity, attribute, value, Provenance(source_id=source))
        )
    groups = match_homologous(graph).groups
    scorer = NodeScorer(graph, SimulatedLLM(seed=0), HistoryStore())
    return graph, groups, scorer


CONSENSUS = [
    ("s1", "E", "year", "2010"),
    ("s2", "E", "year", "2010"),
    ("s3", "E", "year", "2010"),
]

CONFLICT = [
    ("s1", "E", "year", "2010"),
    ("s2", "E", "year", "2010"),
    ("s3", "E", "year", "1999"),
    ("s4", "E", "year", "1987"),
]

# One claim per value about E; 1999 and 1987 are also claimed of other
# entities, so the three values differ in degree and so in their prompts.
DISTINCT = [
    ("s1", "E", "year", "2010"),
    ("s2", "E", "year", "1999"),
    ("s3", "E", "year", "1987"),
    ("s1", "F", "year", "1999"),
    ("s1", "G", "year", "1987"),
    ("s2", "H", "year", "1987"),
]


def authority_calls(scorer: NodeScorer) -> int:
    usage = scorer.llm.meter.by_stage.get(Stage.AUTHORITY.value)
    return usage.calls if usage else 0


def distinct_prompts(scorer: NodeScorer, decision) -> int:
    """The distinct authority prompts, as ``LLMClient.authority``
    renders them, of the nodes of ``decision`` that were prompted (all
    but the bound-rejected ones)."""
    table = scorer.group_table(decision.group)
    return len({
        json.dumps(scorer._node_features(a.triple, table), sort_keys=True)
        for a in decision.accepted + decision.rejected if not a.bound
    })


class TestFastPath:
    def test_consistent_group_takes_fast_path(self):
        _, groups, scorer = build(CONSENSUS)
        result = mcc(groups, scorer)
        assert result.decisions[0].fast_path
        # Only fast_path_nodes (2) of 3 members assessed.
        assert result.nodes_scored == 2

    def test_conflicted_group_full_scrutiny(self):
        _, groups, scorer = build(CONFLICT)
        result = mcc(groups, scorer)
        assert not result.decisions[0].fast_path
        assert result.nodes_scored == 4

    def test_fast_path_skipped_agreeing_not_rejected(self):
        _, groups, scorer = build(CONSENSUS)
        result = mcc(groups, scorer)
        assert result.lvs == []

    def test_graph_confidence_recorded(self):
        _, groups, scorer = build(CONSENSUS)
        result = mcc(groups, scorer)
        assert result.decisions[0].graph_conf == 1.0
        assert groups[0].snode.confidence == 1.0


class TestFiltering:
    def test_consensus_value_accepted(self):
        _, groups, scorer = build(CONFLICT)
        result = mcc(groups, scorer, node_threshold=1.0)
        accepted = {normalize_value(a.value)
                    for a in result.accepted_assessments()}
        assert "2010" in accepted

    def test_minority_values_rejected(self):
        _, groups, scorer = build(CONFLICT)
        result = mcc(groups, scorer, node_threshold=1.0)
        accepted = {normalize_value(a.value)
                    for a in result.accepted_assessments()}
        assert "1999" not in accepted
        assert "1987" not in accepted
        rejected_values = {normalize_value(t.obj) for t in result.lvs}
        assert {"1999", "1987"} <= rejected_values

    def test_svs_contains_groups_with_survivors(self):
        _, groups, scorer = build(CONFLICT)
        result = mcc(groups, scorer, node_threshold=1.0)
        assert result.svs == groups

    def test_accepted_values_mapping(self):
        _, groups, scorer = build(CONFLICT)
        result = mcc(groups, scorer, node_threshold=1.0)
        values = result.decisions[0].accepted_values()
        assert "2010" in values
        assert all(isinstance(v, float) for v in values.values())


class TestFallback:
    def test_total_rejection_promotes_best(self):
        # Every node fails an impossible threshold; fallback surfaces the
        # best instead of answering nothing.
        _, groups, scorer = build(CONFLICT)
        result = mcc(groups, scorer, node_threshold=1.99)
        assert result.accepted_assessments()
        best = max(
            (a for d in result.decisions for a in d.accepted + d.rejected),
            key=lambda a: a.confidence,
        )
        assert best in result.accepted_assessments()

    def test_fallback_disabled(self):
        _, groups, scorer = build(CONFLICT)
        result = mcc(groups, scorer, node_threshold=1.99, fallback_best=False)
        assert result.accepted_assessments() == []
        assert len(result.lvs) == 4

    def test_hedge_margin_promotes_near_ties(self):
        _, groups, scorer = build([
            ("s1", "E", "year", "2010"),
            ("s2", "E", "year", "2011"),
        ])
        narrow = mcc(groups, scorer, node_threshold=1.99, hedge_margin=0.0)
        _, groups2, scorer2 = build([
            ("s1", "E", "year", "2010"),
            ("s2", "E", "year", "2011"),
        ])
        wide = mcc(groups2, scorer2, node_threshold=1.99, hedge_margin=2.0)
        assert len(wide.accepted_assessments()) >= len(narrow.accepted_assessments())
        assert len(wide.accepted_assessments()) == 2


class TestPromptSkip:
    """A node whose upper bound of C(v) does not clear θ is rejected
    without its authority prompt."""

    def test_bound_rejected_nodes_are_not_prompted(self):
        _, groups, scorer = build(CONFLICT)
        result = mcc(groups, scorer)
        decision = result.decisions[0]
        bound = [a for a in decision.rejected if a.bound]
        assert bound and not any(a.bound for a in decision.accepted)
        # Only the two 2010 claims are prompted, and they share a prompt.
        assert authority_calls(scorer) == distinct_prompts(scorer, decision)
        assert authority_calls(scorer) == 1
        for assessment in bound:
            assert assessment.auth_llm == scorer.auth_llm_max
            assert assessment.confidence == scorer.upper_bound(
                assessment.consistency, assessment.auth_hist
            ) <= 0.7

    def test_counter_and_span_count_skipped_prompts(self):
        graph, groups, _ = build(CONFLICT)
        obs = Observability.enable(clock=TickClock())
        scorer = NodeScorer(graph, SimulatedLLM(seed=0), HistoryStore(),
                            obs=obs)
        result = mcc(groups, scorer, obs=obs)
        bound = sum(a.bound for d in result.decisions for a in d.rejected)
        assert bound
        counters = obs.metrics.snapshot()["counters"]
        assert counters["mcc.bound_rejected"] == bound
        assert counters["confidence.node.assessed"] == result.nodes_scored
        (span,) = [s for s in obs.tracer.walk() if s.name == "mcc.node"]
        assert span.attrs["bound_rejected"] == bound

    def test_counter_and_span_count_shared_prompts(self):
        graph, groups, _ = build(CONSENSUS)
        obs = Observability.enable(clock=TickClock())
        scorer = NodeScorer(graph, SimulatedLLM(seed=0), HistoryStore(),
                            obs=obs)
        result = mcc(groups, scorer, enable_graph_level=False, obs=obs)
        assert result.nodes_scored == 3
        counters = obs.metrics.snapshot()["counters"]
        assert counters["mcc.shared_prompts"] == 2
        assert counters["mcc.bound_rejected"] == 0
        (span,) = [s for s in obs.tracer.walk() if s.name == "mcc.node"]
        assert span.attrs["shared"] == 2
        assert authority_calls(scorer) == result.nodes_scored - 2


class TestSharedPrompts:
    """Each distinct authority prompt is sent once per group."""

    def test_members_sharing_a_value_send_one_prompt(self):
        _, groups, scorer = build(CONSENSUS)
        result = mcc(groups, scorer, enable_graph_level=False)
        (decision,) = result.decisions
        assert len(decision.accepted) == result.nodes_scored == 3
        assert authority_calls(scorer) == 1
        # Every member takes the one answer, and it is the one a prompt
        # per node gives.
        table = scorer.group_table(decision.group)
        exact = NodeScorer(scorer.graph, SimulatedLLM(seed=0),
                           HistoryStore())
        for assessment in decision.accepted:
            assert assessment == exact.assess(assessment.triple, table)

    def test_distinct_values_send_one_prompt_each(self):
        _, groups, scorer = build(DISTINCT)
        (group,) = [g for g in groups if g.key == ("E", "year")]
        result = mcc([group], scorer, enable_graph_level=False,
                     node_threshold=0.0)
        (decision,) = result.decisions
        assert result.nodes_scored == 3
        assert not any(a.bound for a in decision.rejected)
        assert authority_calls(scorer) == distinct_prompts(scorer, decision)
        assert authority_calls(scorer) == 3

    def test_prompts_are_shared_within_a_group_only(self):
        graph, _, _ = build(CONSENSUS)
        groups = match_homologous(graph).groups * 2
        scorer = NodeScorer(graph, SimulatedLLM(seed=0), HistoryStore())
        mcc(groups, scorer, enable_graph_level=False)
        assert authority_calls(scorer) == 2


class TestAblationModes:
    def test_without_node_level_consistent_group(self):
        _, groups, scorer = build(CONSENSUS)
        result = mcc(groups, scorer, enable_node_level=False)
        values = {a.value for a in result.accepted_assessments()}
        assert values == {"2010"}
        assert result.nodes_scored == 0

    def test_without_node_level_conflicted_group_unresolved(self):
        _, groups, scorer = build(CONFLICT)
        result = mcc(groups, scorer, enable_node_level=False)
        values = {a.value for a in result.accepted_assessments()}
        # Conflicts cannot be adjudicated: every claimed value surfaces.
        assert values == {"2010", "1999", "1987"}

    def test_without_graph_level_all_scored(self):
        _, groups, scorer = build(CONSENSUS)
        result = mcc(groups, scorer, enable_graph_level=False)
        assert result.decisions[0].graph_conf is None
        assert result.nodes_scored == 3

    def test_without_both_accepts_everything(self):
        _, groups, scorer = build(CONFLICT)
        result = mcc(groups, scorer, enable_graph_level=False,
                     enable_node_level=False)
        assert len(result.accepted_assessments()) == 4


class TestEmptyInput:
    def test_no_groups(self):
        graph = KnowledgeGraph()
        scorer = NodeScorer(graph, SimulatedLLM(seed=0), HistoryStore())
        result = mcc([], scorer)
        assert result.decisions == []
        assert result.lvs == []
        assert result.svs == []
