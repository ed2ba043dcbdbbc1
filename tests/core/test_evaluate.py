"""Tests for the batch evaluation API."""

from __future__ import annotations

import pytest

from repro.core import MultiRAG, MultiRAGConfig
from repro.datasets import make_books, make_movies
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

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_prompt_time_is_the_exact_meter_delta(self, jobs):
        """``prompt_time_s`` is the meter's integer-nanosecond delta over
        the batch, not a float sum of the per-query seconds: on this
        batch that sum is 33.40212000000002, the delta 33.40212.  With
        history updates off, ``jobs=2`` runs on worker views."""
        dataset = make_movies(scale=0.5, seed=0, n_queries=200)
        rag = MultiRAG(MultiRAGConfig(update_history=False))
        rag.ingest(dataset.raw_sources())
        meter = rag.llm.meter
        before = meter.latency_ns
        report = rag.evaluate(dataset.queries, jobs=jobs)
        assert report.prompt_time_s == (meter.latency_ns - before) / 1e9
