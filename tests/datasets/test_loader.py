"""Tests for disk materialization and loading."""

from __future__ import annotations

import pytest

from repro.datasets import (
    load_queries,
    load_sources,
    make_books,
    write_dataset,
)
from repro.errors import DatasetError
from repro.exec import Query


@pytest.fixture()
def corpus_dir(tmp_path):
    dataset = make_books(seed=0, scale=0.3, n_queries=10)
    return dataset, write_dataset(dataset, tmp_path / "corpus")


class TestWriteDataset:
    def test_one_file_per_source_plus_manifest(self, corpus_dir):
        dataset, root = corpus_dir
        files = list(root.iterdir())
        assert len(files) == len(dataset.source_specs) + 1
        assert (root / "queries.json").exists()

    def test_suffixes_match_formats(self, corpus_dir):
        dataset, root = corpus_dir
        for spec in dataset.source_specs:
            suffix = {"csv": ".csv", "json": ".json", "xml": ".xml"}[spec.fmt]
            assert (root / f"{spec.source_id}{suffix}").exists()


class TestLoadSources:
    def test_round_trip_source_ids(self, corpus_dir):
        dataset, root = corpus_dir
        sources = load_sources(root)
        assert {s.source_id for s in sources} == {
            s.source_id for s in dataset.source_specs
        }

    def test_formats_detected(self, corpus_dir):
        _, root = corpus_dir
        fmts = {s.fmt for s in load_sources(root)}
        assert fmts == {"csv", "json", "xml"}

    def test_kg_suffix_detected(self, tmp_path):
        (tmp_path / "dump.kg.json").write_text('{"triples": [["a","p","b"]]}')
        sources = load_sources(tmp_path)
        assert sources[0].fmt == "kg"
        assert sources[0].source_id == "dump"
        assert sources[0].payload["triples"] == [["a", "p", "b"]]

    def test_txt_detected(self, tmp_path):
        (tmp_path / "notes.txt").write_text("Inception was directed by Nolan.")
        sources = load_sources(tmp_path)
        assert sources[0].fmt == "text"

    def test_unrecognized_files_skipped(self, tmp_path):
        (tmp_path / "a.csv").write_text("entity,x\ne,1\n")
        (tmp_path / "readme.md").write_text("# ignored")
        assert len(load_sources(tmp_path)) == 1

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            load_sources(tmp_path)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            load_sources(tmp_path / "nope")


class TestLoadQueries:
    def test_round_trip(self, corpus_dir):
        dataset, root = corpus_dir
        queries = load_queries(root)
        assert len(queries) == len(dataset.queries)
        by_id = {q.qid: q for q in queries}
        for original in dataset.queries:
            restored = by_id[original.qid]
            assert restored.entity == original.entity
            assert restored.answers == original.answers

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError):
            load_queries(tmp_path)


class TestEndToEndThroughDisk:
    def test_ingest_from_disk_answers_queries(self, corpus_dir, tmp_path):
        from repro.core import MultiRAG, MultiRAGConfig
        from repro.metrics import f1_score, mean

        dataset, root = corpus_dir
        rag = MultiRAG(MultiRAGConfig())
        rag.ingest(load_sources(root))
        queries = load_queries(root)
        scores = [
            f1_score(
                {a.value for a in rag.run(Query.key(q.entity, q.attribute)).answers},
                q.answers,
            )
            for q in queries
        ]
        assert 100 * mean(scores) > 40.0


class TestMultihopRoundTrip:
    @pytest.fixture()
    def multihop_dir(self, tmp_path):
        from repro.datasets import make_hotpot, write_multihop

        dataset = make_hotpot(seed=0, scale=0.2)
        return dataset, write_multihop(dataset, tmp_path / "mh")

    def test_detected_as_multihop(self, multihop_dir, tmp_path):
        from repro.datasets import is_multihop_corpus

        _, directory = multihop_dir
        assert is_multihop_corpus(directory)
        assert not is_multihop_corpus(tmp_path / "missing")

    def test_flat_corpus_not_multihop(self, corpus_dir):
        from repro.datasets import is_multihop_corpus

        _, directory = corpus_dir
        assert not is_multihop_corpus(directory)

    def test_queries_round_trip(self, multihop_dir):
        from repro.datasets import load_multihop

        dataset, directory = multihop_dir
        loaded = load_multihop(directory)
        assert [q.qid for q in loaded.queries] == \
            [q.qid for q in dataset.queries]
        for orig, back in zip(dataset.queries, loaded.queries):
            assert back.hops == orig.hops
            assert back.hops_b == orig.hops_b
            assert back.answers == orig.answers
            assert back.gold_hops == orig.gold_hops
            assert back.gold_hops_b == orig.gold_hops_b

    def test_sources_round_trip(self, multihop_dir):
        from repro.datasets import load_multihop

        dataset, directory = multihop_dir
        loaded = load_multihop(directory)
        assert {s.source_id for s in loaded.sources} == \
            {s.source_id for s in dataset.sources}
        assert all(s.fmt == "text" for s in loaded.sources)

    def test_loaded_corpus_diagnosable(self, multihop_dir):
        from repro.core import MultiRAG, MultiRAGConfig
        from repro.datasets import load_multihop
        from repro.eval import diagnose_corpus
        from repro.obs import AuditLog, Observability

        _, directory = multihop_dir
        loaded = load_multihop(directory)
        rag = MultiRAG(MultiRAGConfig(update_history=False),
                       obs=Observability(audit=AuditLog()))
        rag.ingest(loaded.sources)
        report = diagnose_corpus(rag, loaded)
        assert len(report.queries) == len(loaded.queries)
