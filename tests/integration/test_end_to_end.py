"""End-to-end integration: generated datasets through the full pipeline."""

from __future__ import annotations

import pytest

from repro.core import MultiRAG, MultiRAGConfig
from repro.datasets import make_books, make_hotpotqa_like, make_movies
from repro.exec import Query
from repro.metrics import f1_score, mean


class TestFusionEndToEnd:
    @pytest.fixture(scope="class")
    def books_run(self):
        dataset = make_books(seed=0, scale=0.5, n_queries=30)
        rag = MultiRAG(MultiRAGConfig())
        report = rag.ingest(dataset.raw_sources())
        scores = [
            f1_score(
                {a.value for a in rag.run(Query.key(q.entity, q.attribute)).answers},
                q.answers,
            )
            for q in dataset.queries
        ]
        return dataset, rag, report, scores

    def test_reasonable_f1(self, books_run):
        *_, scores = books_run
        assert 100 * mean(scores) > 50.0

    def test_mlg_built(self, books_run):
        _, rag, report, _ = books_run
        assert rag.mlg is not None
        assert report.mlg_stats["groups"] > 10

    def test_history_learned_source_quality(self, books_run):
        dataset, rag, *_ = books_run
        snapshot = rag.history.snapshot()
        # Credibility estimates must correlate with true reliabilities.
        pairs = [(s.reliability, snapshot[s.source_id])
                 for s in dataset.source_specs if s.source_id in snapshot]
        assert len(pairs) >= 5
        import numpy as np

        xs, ys = zip(*pairs)
        # At this reduced scale the signal is weak; full-scale correlation
        # is checked by benchmarks/test_ablation_history.py.
        assert float(np.corrcoef(xs, ys)[0, 1]) > 0.0

    def test_restricted_config_subsets_work(self):
        dataset = make_movies(seed=0, scale=0.4, n_queries=20)
        sub = dataset.restrict_formats({"json", "kg"})
        rag = MultiRAG(MultiRAGConfig())
        rag.ingest(sub.raw_sources())
        answered = sum(
            1 for q in sub.queries
            if rag.run(Query.key(q.entity, q.attribute)).answers
        )
        assert answered >= len(sub.queries) * 0.8


class TestMultiHopEndToEnd:
    def test_chain_answering(self):
        corpus = make_hotpotqa_like(n_queries=10, seed=0)
        rag = MultiRAG(MultiRAGConfig())
        rag.ingest(corpus.sources)
        bridge = next(q for q in corpus.queries if q.qtype != "comparison")
        result = rag.run(Query.chain(list(bridge.hops)))
        assert isinstance(result.answers, list)

    def test_standardization_absorbs_wiki_b_style(self):
        corpus = make_hotpotqa_like(n_queries=10, seed=0)
        rag = MultiRAG(MultiRAGConfig(extraction_noise=0.0))
        rag.ingest(corpus.sources)
        # No subject in the standardized graph should carry library-style
        # commas for person names.
        graph = rag.fusion.graph
        comma_subjects = [
            s for s in (t.subject for t in graph.triples())
            if ", " in s
        ]
        assert comma_subjects == []


class TestDeterminism:
    def test_full_run_reproducible(self):
        dataset = make_books(seed=2, scale=0.3, n_queries=10)

        def run():
            rag = MultiRAG(MultiRAGConfig())
            rag.ingest(dataset.raw_sources())
            return [
                tuple(sorted(a.value for a in
                             rag.run(Query.key(q.entity, q.attribute)).answers))
                for q in dataset.queries
            ]

        assert run() == run()
