"""Property-based tests for KnowledgeGraph / line-graph invariants."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kg import KnowledgeGraph, Provenance, Triple
from repro.linegraph import LineGraph, MultiSourceLineGraph, match_homologous

names = st.sampled_from(["a", "b", "c", "d", "e", "f"])
predicates = st.sampled_from(["p", "q", "r"])
sources = st.sampled_from(["s1", "s2", "s3"])

triples = st.builds(
    lambda s, p, o, src: Triple(s, p, o, Provenance(source_id=src)),
    names, predicates, names, sources,
)

triple_lists = st.lists(triples, max_size=25)


def build_graph(items: list[Triple]) -> KnowledgeGraph:
    graph = KnowledgeGraph()
    graph.add_triples(items)
    return graph


class TestGraphInvariants:
    @given(triple_lists)
    @settings(max_examples=100, deadline=None)
    def test_len_equals_distinct_claims(self, items):
        graph = build_graph(items)
        distinct = {(t.spo(), t.source_id()) for t in items}
        assert len(graph) == len(distinct)

    @given(triple_lists)
    @settings(max_examples=100, deadline=None)
    def test_indexes_consistent(self, items):
        graph = build_graph(items)
        for triple in graph.triples():
            assert triple in graph.by_subject(triple.subject)
            assert triple in graph.by_object(triple.obj)
            assert triple in graph.by_key(triple.subject, triple.predicate)
            assert triple in graph.by_source(triple.source_id())

    @given(st.lists(st.tuples(st.booleans(), triples, st.integers(0, 24)),
                    max_size=30))
    @example([
        (True, Triple("a", "p", "a", Provenance(source_id="s1")), 0),
        (True, Triple("a", "q", "b", Provenance(source_id="s1")), 0),
        (False, Triple("a", "q", "b", Provenance(source_id="s1")), 1),
    ])
    @settings(max_examples=100, deadline=None)
    def test_degree_matches_incidence(self, ops):
        """``degree`` is a literal count of live incident triples after
        any sequence of adds and removes, a self-loop counted twice."""
        graph = KnowledgeGraph()
        for add, triple, pick in ops:
            if add:
                graph.add_triple(triple)
                continue
            # Even picks remove a stored claim; odd ones try the drawn
            # triple, which may not be stored.
            stored = list(graph.triples())
            graph.remove_triple(
                stored[pick % len(stored)] if stored and pick % 2 == 0
                else triple
            )
        live = list(graph.triples())
        for node in ["a", "b", "c", "d", "e", "f", "unknown"]:
            assert graph.degree(node) == sum(
                (t.subject == node) + (t.obj == node) for t in live
            )


class TestBySubjects:
    @given(
        triple_lists,
        # repeats allowed; "z" names no subject
        st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f", "z"]),
                 max_size=8),
        st.lists(st.integers(min_value=0, max_value=24), max_size=6),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_live_triples_of_subjects_in_insertion_order(
        self, items, subjects, removals, re_add
    ):
        graph = build_graph(items)
        stored = list(graph.triples())
        dropped = [stored[i] for i in dict.fromkeys(removals)
                   if i < len(stored)]
        for triple in dropped:
            assert graph.remove_triple(triple)
        if re_add and dropped:
            # a re-added claim is live again, at the end of the order
            assert graph.add_triple(dropped[0])
        wanted = set(subjects)
        expected = [t for t in graph.triples() if t.subject in wanted]
        assert graph.by_subjects(subjects) == expected


class TestHomologousInvariants:
    @given(triple_lists)
    @settings(max_examples=100, deadline=None)
    def test_partition_complete(self, items):
        graph = build_graph(items)
        result = match_homologous(graph)
        in_groups = sum(len(g.members) for g in result.groups)
        assert in_groups + len(result.isolated) == len(graph)

    @given(triple_lists)
    @settings(max_examples=100, deadline=None)
    def test_groups_are_multi_source(self, items):
        graph = build_graph(items)
        for group in match_homologous(graph).groups:
            assert len(group.sources()) >= 2
            assert len({m.key() for m in group.members}) == 1

    @given(triple_lists)
    @settings(max_examples=60, deadline=None)
    def test_mlg_candidates_match_graph_key_index(self, items):
        graph = build_graph(items)
        mlg = MultiSourceLineGraph(graph)
        for key in graph.keys():
            assert sorted(
                t.spo() + (t.source_id(),) for t in mlg.candidates(*key)
            ) == sorted(
                t.spo() + (t.source_id(),) for t in graph.by_key(*key)
            )


class TestLineGraphInvariants:
    @given(triple_lists)
    @settings(max_examples=60, deadline=None)
    def test_neighbor_symmetry(self, items):
        graph = build_graph(items)
        lg = LineGraph(graph.triples())
        for node in lg.nodes:
            for neighbor in lg.neighbors(node):
                assert node in lg.neighbors(neighbor)

    @given(triple_lists)
    @settings(max_examples=60, deadline=None)
    def test_adjacency_iff_shared_node(self, items):
        graph = build_graph(items)
        lg = LineGraph(graph.triples())
        nodes = lg.nodes
        for i, a in enumerate(nodes):
            neighbors = set(lg.neighbors(a))
            for b in nodes[i + 1:]:
                assert (b in neighbors) == a.shares_node_with(b)
