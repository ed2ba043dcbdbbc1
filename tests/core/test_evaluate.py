"""Tests for the batch evaluation API."""

from __future__ import annotations

from repro.core import MultiRAG, MultiRAGConfig
from repro.datasets import make_books
from repro.exec import Query


class TestEvaluate:
    def test_report_fields(self, pipeline):
        from repro.datasets import QuerySpec

        queries = [
            QuerySpec("q0", "Inception", "release_year", "?",
                      frozenset({"2010"})),
            QuerySpec("q1", "Heat", "directed_by", "?",
                      frozenset({"Michael Mann"})),
        ]
        report = pipeline.evaluate(queries)
        assert len(report.per_query) == 2
        assert report.mean_f1 == 100.0
        assert report.query_time_s > 0.0
        assert report.prompt_time_s > 0.0

    def test_worst_queries(self, pipeline):
        from repro.datasets import QuerySpec

        queries = [
            QuerySpec("good", "Inception", "release_year", "?",
                      frozenset({"2010"})),
            QuerySpec("bad", "Inception", "release_year", "?",
                      frozenset({"1900"})),
        ]
        report = pipeline.evaluate(queries)
        assert report.worst(1)[0][0] == "bad"

    def test_matches_manual_loop(self):
        from repro.metrics import f1_score, mean

        dataset = make_books(seed=1, scale=0.3, n_queries=15)
        rag = MultiRAG(MultiRAGConfig())
        rag.ingest(dataset.raw_sources())
        report = rag.evaluate(dataset.queries)

        rag2 = MultiRAG(MultiRAGConfig())
        rag2.ingest(dataset.raw_sources())
        manual = 100.0 * mean(
            f1_score(
                {a.value for a in rag2.run(Query.key(q.entity, q.attribute)).answers},
                q.answers,
            )
            for q in dataset.queries
        )
        assert report.mean_f1 == manual
