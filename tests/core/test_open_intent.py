"""Tests for the open-intent (free-form question) fallback path.

:func:`scan_open_candidates` is the oracle for
``MultiRAG._open_candidates``: the literal scan of every claim of every
retrieved source.  The pipeline reaches the same claims through its
subject index, and must return exactly the scan's list, order included.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapters import RawSource
from repro.adapters.fusion import FusionResult
from repro.core import MultiRAG, MultiRAGConfig
from repro.core.logic_form import generate_logic_form
from repro.datasets import make_flights
from repro.exec import Query
from repro.kg import KnowledgeGraph, Provenance, Triple
from repro.retrieval.chunking import Chunk
from repro.retrieval.vector_index import SearchHit
from repro.util import normalize_value


def scan_open_candidates(rag: MultiRAG, question: str) -> list[Triple]:
    """Every claim of every hit source, kept when all of its subject's
    tokens and one of its predicate's tokens occur in the question."""
    logic_form = generate_logic_form(question)
    hits = rag.retriever.retrieve(logic_form.raw, k=rag.config.top_k)
    query_tokens = set(normalize_value(logic_form.raw).split())
    candidates: list[Triple] = []
    seen: set[tuple[tuple[str, str, str], str]] = set()
    for hit in hits:
        for triple in rag.fusion.graph.by_source(hit.item.source_id):
            subject_tokens = set(normalize_value(triple.subject).split())
            predicate_tokens = set(triple.predicate.split("_"))
            if subject_tokens <= query_tokens and (
                predicate_tokens & query_tokens
            ):
                dedup = (triple.spo(), triple.source_id())
                if dedup not in seen:
                    seen.add(dedup)
                    candidates.append(triple)
    return candidates


def open_candidates(rag: MultiRAG, question: str) -> list[Triple]:
    return rag._open_candidates(generate_logic_form(question))


class TestOpenIntent:
    def test_freeform_phrasing_answers(self, pipeline):
        result = pipeline.run(Query.text("tell me the directed by for Inception please"))
        assert result.trace[0] == "logic_form: open"
        assert {a.value for a in result.answers} == {"Christopher Nolan"}

    def test_keyword_style_query(self, pipeline):
        result = pipeline.run(Query.text("Inception release year info"))
        assert {a.value for a in result.answers} == {"2010"}

    def test_conflicts_still_filtered_on_open_path(self, pipeline):
        # The JSON source claims 2011; the open path must filter it too.
        result = pipeline.run(Query.text("Inception release year info"))
        assert "2011" not in {a.value for a in result.answers}

    def test_unrelated_question_empty(self, pipeline):
        result = pipeline.run(Query.text("what is the meaning of life"))
        assert result.answers == []
        assert result.candidates_considered == 0

    def test_open_candidates_deduplicated(self, pipeline):
        question = "Inception release year info"
        result = pipeline.run(Query.text(question))
        oracle = scan_open_candidates(pipeline, question)
        # One claim per (statement, source), in first-hit source order.
        assert [(t.obj, t.source_id()) for t in oracle] == [
            ("2011", "src-json"), ("2010", "src-kg"), ("2010", "src-text"),
            ("2010", "src-xml"), ("2010", "src-csv"),
        ]
        assert result.stage_values["before_subgraph_filtering"] == [
            t.obj for t in oracle
        ]

    def test_open_path_records_stages(self, pipeline):
        result = pipeline.run(Query.text("Heat genre drama or what"))
        assert "before_subgraph_filtering" in result.stage_values
        assert "after_node_filtering" in result.stage_values

    def test_subject_added_by_add_source_is_found(self, pipeline):
        question = "Blade Runner 2049 release year info"
        assert pipeline.run(Query.text(question)).answers == []
        pipeline.add_source(RawSource(
            "src-new", "movies", "csv", "f.csv",
            "title,directed_by,release_year\n"
            "Blade Runner 2049,Denis Villeneuve,2017\n",
        ))
        result = pipeline.run(Query.text(question))
        assert {a.value for a in result.answers} == {"2017"}
        assert open_candidates(pipeline, question) == scan_open_candidates(
            pipeline, question
        )


# ----------------------------------------------------------------------
# the index path against the oracle
# ----------------------------------------------------------------------
SOURCES = ["s1", "s2", "s3", "s4"]

#: multi-token, mixed-case, whitespace-padded and empty-normalizing
#: subjects, some normalizing to the same string.
SUBJECTS = [
    "Inception", "inception ", "the Matrix", "Matrix", "  Blade  Runner ",
    "BLADE runner", "Heat", "", "   ",
]
PREDICATES = ["release_year", "directed_by", "genre", "year", "runner_up"]
WORDS = [
    "inception", "The", "MATRIX", "blade", "Runner", "heat", "release",
    "year", "directed", "by", "genre", "up", "info", "  ",
]

claims = st.lists(
    st.tuples(
        st.sampled_from(SUBJECTS),
        st.sampled_from(PREDICATES),
        st.sampled_from(["1995", "2010", "Denis Villeneuve"]),
        st.sampled_from(SOURCES),
    ),
    max_size=30,
)
questions = st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join)
#: retrieved sources in rank order; repeats model several chunks of one
#: source, "s-none" a source with no claims.
hit_lists = st.lists(st.sampled_from(SOURCES + ["s-none"]), max_size=6)


class FixedHits:
    """Retriever stand-in returning one chunk per listed source."""

    def __init__(self, source_ids: list[str]) -> None:
        self.hits = [
            SearchHit(Chunk(f"c{i}", source, "doc", i, ""), 1.0)
            for i, source in enumerate(source_ids)
        ]

    def retrieve(self, query: str, k: int = 5) -> list[SearchHit[Chunk]]:
        return self.hits


def pipeline_over(graph: KnowledgeGraph) -> MultiRAG:
    """A pipeline ingested over ``graph`` as the fused result."""
    config = MultiRAGConfig(extraction_noise=0.0, update_history=False)
    rag = MultiRAG(config)
    chunks = [Chunk(f"{s}-0", s, "doc", 0, f"text of {s}") for s in SOURCES]
    rag.engine.fuse = lambda sources, **_: FusionResult(graph, chunks=chunks)
    rag.ingest([])
    return rag


class TestIndexMatchesScan:
    @given(claims, questions, hit_lists)
    @settings(max_examples=150, deadline=None)
    def test_random_graphs(self, items, question, hit_sources):
        graph = KnowledgeGraph()
        graph.add_triples(
            Triple(s, p, o, Provenance(source_id=src))
            for s, p, o, src in items
        )
        rag = pipeline_over(graph)
        rag.retriever = FixedHits(hit_sources)
        assert open_candidates(rag, question) == scan_open_candidates(
            rag, question
        )

    def test_flights_keyword_questions(self):
        dataset = make_flights(scale=0.5, seed=0)
        sources = dataset.raw_sources()
        questions = [
            f"{entity} {attribute.replace('_', ' ')}"
            for entity, record in dataset.truth.items()
            for attribute in record
        ]
        rag = MultiRAG(MultiRAGConfig(seed=0, update_history=False))
        rag.ingest(sources[:-1])

        def assert_matches_oracle() -> list[Triple]:
            found: list[Triple] = []
            for question in questions:
                expected = scan_open_candidates(rag, question)
                assert open_candidates(rag, question) == expected, question
                found.extend(expected)
            return found

        before = assert_matches_oracle()
        assert before
        rag.add_source(sources[-1])
        after_add = assert_matches_oracle()
        assert any(t.source_id() == sources[-1].source_id for t in after_add)
        removed = after_add[0]
        assert rag.fusion.graph.remove_triple(removed)
        assert removed not in assert_matches_oracle()
