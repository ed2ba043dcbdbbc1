"""Property-based tests for hallucination checking."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval import check_answer, decompose_answer
from repro.kg import KnowledgeGraph, Provenance, Triple

values = st.sampled_from(["2010", "2011", "drama", "Alice Adams", "x1"])
claims = st.lists(
    st.tuples(st.sampled_from(["s1", "s2", "s3"]), values),
    max_size=8,
)


def graph_for(entity: str, attribute: str, claim_list) -> KnowledgeGraph:
    g = KnowledgeGraph()
    for source, value in claim_list:
        g.add_triple(
            Triple(entity, attribute, value, Provenance(source_id=source))
        )
    return g


class TestHallucheckProperties:
    @given(claims, st.lists(values, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_verdict_partition(self, claim_list, asserted):
        graph = graph_for("E", "a", claim_list)
        answer = "; ".join(asserted)
        check = check_answer(graph, "E", "a", answer)
        assert len(check.verdicts) == len(decompose_answer(answer))
        assert len(check.supported) + len(check.hallucinated) == len(check.verdicts)
        assert 0.0 <= check.intensity() <= 1.0

    @given(claims)
    @settings(max_examples=100, deadline=None)
    def test_claimed_values_always_supported(self, claim_list):
        graph = graph_for("E", "a", claim_list)
        for _, value in claim_list:
            check = check_answer(graph, "E", "a", value)
            assert check.is_grounded()

    @given(st.lists(values, min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_empty_graph_everything_fabricated(self, asserted):
        graph = KnowledgeGraph()
        check = check_answer(graph, "E", "a", "; ".join(asserted))
        assert all(v.verdict == "fabricated" for v in check.verdicts)

