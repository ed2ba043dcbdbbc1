"""Parallel extraction is byte-identical to the sequential path."""

from __future__ import annotations

import pytest

from repro.core.config import MultiRAGConfig
from repro.core.pipeline import MultiRAG
from repro.datasets.books import make_books
from repro.datasets.multihop import make_hotpotqa_like
from repro.exec import as_query


@pytest.fixture(scope="module")
def dataset():
    return make_books(scale=0.3, seed=2, n_queries=8)


def _ingest(dataset, *, jobs=None):
    rag = MultiRAG.from_config(MultiRAGConfig(seed=2))
    rag.ingest(dataset.raw_sources(), jobs=jobs)
    return rag


#: 2 is the bench's ingest width; 3 deals the documents into uneven tasks.
WORKER_COUNTS = [2, 3, 4]


class TestParallelIngestIdentity:
    @pytest.mark.parametrize("jobs", WORKER_COUNTS)
    def test_graph_identical_across_workers(self, dataset, jobs):
        seq = _ingest(dataset)
        par = _ingest(dataset, jobs=jobs)
        assert list(seq.fusion.graph.triples()) == list(
            par.fusion.graph.triples()
        )
        assert seq.fusion.extraction_calls == par.fusion.extraction_calls
        assert [c.chunk_id for c in seq.fusion.chunks] == [
            c.chunk_id for c in par.fusion.chunks
        ]

    def test_evaluation_identical_across_workers(self, dataset):
        queries = [as_query(q) for q in dataset.queries]
        seq = _ingest(dataset).evaluate(queries).to_json(drop_timing=True)
        par = _ingest(dataset, jobs=4).evaluate(queries).to_json(
            drop_timing=True
        )
        assert seq == par

    def test_env_override_requests_plan(self, dataset, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "4")
        par = _ingest(dataset)
        monkeypatch.delenv("REPRO_EXEC_WORKERS")
        seq = _ingest(dataset)
        assert list(seq.fusion.graph.triples()) == list(
            par.fusion.graph.triples()
        )

    def test_explicit_plan(self, dataset):
        rag = MultiRAG.from_config(MultiRAGConfig(seed=2))
        rag.ingest(dataset.raw_sources(), jobs=3)
        assert list(rag.fusion.graph.triples()) == list(
            _ingest(dataset).fusion.graph.triples()
        )


class TestTextCorpusParallelism:
    """The unstructured corpus exercises the per-chunk extraction fan-out."""

    @pytest.mark.parametrize("jobs", WORKER_COUNTS)
    def test_hotpot_ingest_identical_across_workers(self, jobs):
        dataset = make_hotpotqa_like(n_queries=8, seed=0)
        config = MultiRAGConfig(seed=0)

        seq = MultiRAG.from_config(config)
        seq.ingest(dataset.sources)
        par = MultiRAG.from_config(config)
        par.ingest(dataset.sources, jobs=jobs)

        assert list(seq.fusion.graph.triples()) == list(
            par.fusion.graph.triples()
        )
        assert seq.fusion.extraction_calls == par.fusion.extraction_calls
        assert [e.eid for e in seq.fusion.graph.entities()] == [
            e.eid for e in par.fusion.graph.entities()
        ]

    def test_hotpot_ingest_meter_identical_across_workers(self):
        """The meter adds latencies up as integer nanoseconds, so its
        totals do not depend on how the documents are dealt out."""
        dataset = make_hotpotqa_like(n_queries=8, seed=0)
        meters = []
        for jobs in (1, 2, 3, 4):
            rag = MultiRAG.from_config(MultiRAGConfig(seed=0))
            rag.ingest(dataset.sources, jobs=jobs)
            meters.append(rag.llm.meter)
        for meter in meters[1:]:
            assert meter == meters[0]
            assert meter.simulated_latency_s == meters[0].simulated_latency_s
