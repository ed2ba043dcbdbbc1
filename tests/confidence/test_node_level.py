"""Tests for node-level confidence (Eqs. 8–11)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.confidence import HistoryStore, NodeScorer
from repro.kg import KnowledgeGraph, Provenance, Triple
from repro.linegraph import match_homologous
from repro.llm import LLMClient, SimulatedLLM


def build_graph(claims: list[tuple[str, str, str, str]]) -> KnowledgeGraph:
    graph = KnowledgeGraph()
    for source, entity, attribute, value in claims:
        graph.add_triple(
            Triple(entity, attribute, value, Provenance(source_id=source))
        )
    return graph


@pytest.fixture()
def conflicted():
    """3 sources agree on 2010, one claims 2011; plus typed context."""
    graph = build_graph([
        ("s1", "Inception", "release_year", "2010"),
        ("s2", "Inception", "release_year", "2010"),
        ("s3", "Inception", "release_year", "2010"),
        ("s4", "Inception", "release_year", "2011"),
    ])
    group = match_homologous(graph).groups[0]
    scorer = NodeScorer(graph, SimulatedLLM(seed=0), HistoryStore())
    return graph, group, scorer


def member_with_value(group, value):
    return next(m for m in group.members if m.obj == value)


class ScriptedJudge(LLMClient):
    """Answers every prompt with one fixed text."""

    def __init__(self, answer: str) -> None:
        super().__init__()
        self.answer = answer

    def _generate(self, prompt: str) -> str:
        return self.answer


class TestConsistency:
    def test_majority_node_more_consistent(self, conflicted):
        _, group, scorer = conflicted
        table = scorer.group_table(group)
        maj = scorer.consistency(member_with_value(group, "2010"), table)
        minority = scorer.consistency(member_with_value(group, "2011"), table)
        assert maj > minority
        assert minority == pytest.approx(0.0)

    def test_no_peers_full_consistency(self):
        graph = build_graph([("s1", "E", "a", "v")])
        triple = graph.by_key("E", "a")[0]
        from repro.linegraph import HomologousGroup, HomologousNode
        group = HomologousGroup(
            key=("E", "a"),
            snode=HomologousNode(name="a", entity="E", num=1),
            members=[triple],
        )
        scorer = NodeScorer(graph, SimulatedLLM(seed=0), HistoryStore())
        assert scorer.consistency(triple, scorer.group_table(group)) == 1.0

    def test_same_source_peers_count_as_consistent(self):
        # Multi-valued attribute: one source lists both authors.
        graph = build_graph([
            ("s1", "Book", "author", "Alice Adams"),
            ("s1", "Book", "author", "Bob Brown"),
            ("s2", "Book", "author", "Alice Adams"),
        ])
        group = match_homologous(graph).groups[0]
        scorer = NodeScorer(graph, SimulatedLLM(seed=0), HistoryStore())
        bob = member_with_value(group, "Bob Brown")
        # Bob's peers: Alice@s1 (same source -> 1.0), Alice@s2 (0.0).
        table = scorer.group_table(group)
        assert scorer.consistency(bob, table) == pytest.approx(0.5, abs=0.05)

    def test_low_credibility_peers_weigh_less(self, conflicted):
        graph, group, _ = conflicted
        history = HistoryStore()
        history.seed("s1", 5, 100)   # s1 nearly always wrong
        history.seed("s2", 5, 100)
        scorer = NodeScorer(graph, SimulatedLLM(seed=0), history)
        s3_claim = next(m for m in group.members if m.source_id() == "s3")
        weighted = scorer.consistency(s3_claim, scorer.group_table(group))
        neutral_scorer = NodeScorer(graph, SimulatedLLM(seed=0), HistoryStore())
        neutral = neutral_scorer.consistency(
            s3_claim, neutral_scorer.group_table(group)
        )
        # Agreeing peers lost credibility, so weighted consistency drops.
        assert weighted < neutral


class TestAuthority:
    def test_auth_llm_in_unit_interval(self, conflicted):
        _, group, scorer = conflicted
        table = scorer.group_table(group)
        for member in group.members:
            assert 0.0 <= scorer.auth_llm(member, table) <= 1.0

    @pytest.mark.parametrize("answer, clamped", [
        ("1.7", 1.0), ("-0.3", 0.0), ("nan", 0.0), ("inf", 1.0),
        ("-inf", 0.0),
    ])
    def test_out_of_range_judge_is_clamped(self, conflicted, answer, clamped):
        graph, group, _ = conflicted
        scorer = NodeScorer(graph, ScriptedJudge(answer), HistoryStore())
        assert scorer.llm.authority({"degree": 0.5}) == clamped
        table = scorer.group_table(group)
        for member in group.members:
            assert scorer.auth_llm(member, table) <= scorer.auth_llm_max
            assessment = scorer.assess(member, table)
            assert assessment.confidence <= scorer.upper_bound(
                assessment.consistency, assessment.auth_hist
            )

    @given(st.floats(0.0, 1.0), st.floats(0.05, 4.0),
           st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_auth_llm_never_exceeds_its_maximum(self, raw, beta, alpha):
        graph = build_graph([("s1", "E", "year", "2010"),
                             ("s2", "E", "year", "2011")])
        group = match_homologous(graph).groups[0]
        scorer = NodeScorer(graph, ScriptedJudge(repr(raw)), HistoryStore(),
                            alpha=alpha, beta=beta)
        table = scorer.group_table(group)
        for member in group.members:
            assert scorer.auth_llm(member, table) <= scorer.auth_llm_max
            assessment = scorer.assess(member, table)
            assert assessment.confidence <= scorer.upper_bound(
                assessment.consistency, assessment.auth_hist
            )

    def test_auth_hist_tracks_source_history(self, conflicted):
        graph, group, _ = conflicted
        history = HistoryStore()
        history.seed("s1", 95, 100)
        history.seed("s4", 5, 100)
        scorer = NodeScorer(graph, SimulatedLLM(seed=0), history)
        good = next(m for m in group.members if m.source_id() == "s1")
        bad = next(m for m in group.members if m.source_id() == "s4")
        table = scorer.group_table(group)
        assert scorer.auth_hist(good, table) > scorer.auth_hist(bad, table)

    def test_auth_hist_bounds(self, conflicted):
        _, group, scorer = conflicted
        table = scorer.group_table(group)
        for member in group.members:
            assert 0.0 <= scorer.auth_hist(member, table) <= 1.0

    def test_alpha_blend(self, conflicted):
        graph, group, _ = conflicted
        llm = SimulatedLLM(seed=0)
        member = group.members[0]
        pure_llm, pure_hist = (
            scorer.assess(member, scorer.group_table(group))
            for scorer in (
                NodeScorer(graph, llm, HistoryStore(), alpha=1.0),
                NodeScorer(graph, llm, HistoryStore(), alpha=0.0),
            )
        )
        assert pure_llm.authority == pytest.approx(pure_llm.auth_llm)
        assert pure_hist.authority == pytest.approx(pure_hist.auth_hist)

    def test_invalid_params(self, conflicted):
        graph, _, _ = conflicted
        with pytest.raises(ValueError):
            NodeScorer(graph, SimulatedLLM(), HistoryStore(), alpha=1.5)
        with pytest.raises(ValueError):
            NodeScorer(graph, SimulatedLLM(), HistoryStore(), beta=0.0)


class TestAssess:
    def test_confidence_is_sum(self, conflicted):
        _, group, scorer = conflicted
        assessment = scorer.assess(group.members[0], scorer.group_table(group))
        assert assessment.confidence == pytest.approx(
            assessment.consistency + assessment.authority
        )

    def test_confidence_range(self, conflicted):
        _, group, scorer = conflicted
        table = scorer.group_table(group)
        for member in group.members:
            assessment = scorer.assess(member, table)
            assert 0.0 <= assessment.confidence <= 2.0

    def test_majority_beats_minority(self, conflicted):
        _, group, scorer = conflicted
        table = scorer.group_table(group)
        maj = scorer.assess(member_with_value(group, "2010"), table)
        minority = scorer.assess(member_with_value(group, "2011"), table)
        assert maj.confidence > minority.confidence

    def test_type_inconsistent_value_penalized(self):
        # A year attribute holding a person name scores lower authority.
        graph = build_graph([
            ("s1", "E", "release_year", "2010"),
            ("s2", "E", "release_year", "Michael Mann"),
        ])
        group = match_homologous(graph).groups[0]
        scorer = NodeScorer(graph, SimulatedLLM(seed=0), HistoryStore())
        year = member_with_value(group, "2010")
        person = member_with_value(group, "Michael Mann")
        table = scorer.group_table(group)
        assert scorer.auth_llm(year, table) > scorer.auth_llm(person, table)

    def test_assessment_properties(self, conflicted):
        _, group, scorer = conflicted
        assessment = scorer.assess(group.members[0], scorer.group_table(group))
        assert assessment.value == group.members[0].obj
        assert assessment.source_id == group.members[0].source_id()
