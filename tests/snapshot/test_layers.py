"""Delta-layer chains: add_source persistence, identity, failure modes.

The layer contract:

* ``add_source`` on a snapshot-backed pipeline appends a content-addressed
  delta layer instead of invalidating the fingerprint;
* a fresh ``ingest(base_sources + [extra])`` fingerprint-hits the chain
  and warm-loads base + layers without re-running extraction;
* the layered load is byte-identical (``drop_timing``) to a cold full
  ingest of the combined corpus, at jobs=1 and jobs=4;
* a load rebuilds the MLG from the graph, key for key equal to the one
  ``add_source`` extended, and two stores built the same way hold the
  same bytes;
* a missing or corrupt middle layer raises :class:`SnapshotError` naming
  the broken layer — never a partially-applied graph.
"""

from __future__ import annotations

import importlib
import json
import re
import shutil

import pytest

from repro.core.config import MultiRAGConfig
from repro.core.pipeline import MultiRAG
from repro.datasets.books import make_books
from repro.errors import SnapshotError
from repro.exec import Query, as_query
from repro.linegraph import LineGraph
from repro.snapshot import SnapshotStore
from tests.retrieval.index_oracle import bm25_state, dense_state

retriever_module = importlib.import_module("repro.retrieval.retriever")


@pytest.fixture(scope="module")
def dataset():
    return make_books(scale=0.3, seed=1, n_queries=8)


def _evaluate(rag, dataset, jobs=None):
    report = rag.evaluate([as_query(q) for q in dataset.queries], jobs=jobs)
    return report.to_json(drop_timing=True)


def _open_questions(dataset):
    """Keyword questions (open intent) over every sixth truth key."""
    keys = sorted(
        (entity, attribute, values)
        for entity, record in dataset.truth.items()
        for attribute, values in record.items()
        if values
    )
    return [
        Query.text(f"{entity} {attribute.replace('_', ' ')}",
                   qid=f"open-{i:02d}", answers=values)
        for i, (entity, attribute, values) in enumerate(keys[::6])
    ]


def _config():
    # update_history=False: the incremental path calibrates only the
    # affected groups (rounds=1) while a cold build calibrates globally,
    # so history-on runs agree in rankings but not in raw tallies.
    return MultiRAGConfig(seed=1, update_history=False)


def _keys(doc):
    """Every dict key anywhere inside a decoded JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield key
            yield from _keys(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _keys(value)


def _assert_same_indexes(got, live):
    """``got`` holds the retrieval indexes of ``live``: the same chunks,
    BM25 state (lengths, average length, idf, and each term's
    ``(doc id, impact)`` postings in order) and dense vocabulary, IDF
    bytes and each term's doc ids and weight bytes."""
    assert got._built and live._built
    assert (got.mode, got.rrf_k) == (live.mode, live.rrf_k)
    assert got.chunks == live.chunks
    assert bm25_state(got._sparse) == bm25_state(live._sparse)
    assert dense_state(got._dense) == dense_state(live._dense)


def _mlg_by_key(mlg):
    """Each key's group (members in order, snode fields) and isolated
    claims, without the order of ``mlg.groups``."""
    return (
        {g.key: g for g in mlg.groups},
        {t.key(): mlg.isolated_claims(*t.key()) for t in mlg.isolated},
    )


def _build_chain(dataset, tmp_path, n_extra=1, config=None):
    """Ingest all-but-``n_extra`` sources, then add_source the rest."""
    sources = dataset.raw_sources()
    base, extras = sources[: len(sources) - n_extra], sources[-n_extra:]
    rag = MultiRAG.from_config(
        config or _config(), snapshot=tmp_path / "snaps"
    )
    assert not rag.ingest(base).loaded_from_snapshot
    fingerprints = [rag._snapshot_fingerprint]
    for extra in extras:
        rag.add_source(extra)
        fingerprints.append(rag._snapshot_fingerprint)
    return rag, sources, fingerprints


class TestLayerPersistence:
    def test_add_source_writes_delta_layer(self, dataset, tmp_path):
        rag, _, fps = _build_chain(dataset, tmp_path)
        store = SnapshotStore(tmp_path / "snaps")
        base_fp, tip_fp = fps
        assert tip_fp != base_fp
        assert store.has(tip_fp)
        manifest = store.manifest(tip_fp)
        assert manifest["kind"] == "delta"
        assert manifest["parent"] == base_fp
        assert store.manifest(base_fp)["kind"] == "base"

    def test_chain_walk(self, dataset, tmp_path):
        rag, _, fps = _build_chain(dataset, tmp_path, n_extra=2)
        store = SnapshotStore(tmp_path / "snaps")
        manifests = store.chain(fps[-1])
        assert [m["fingerprint"] for m in manifests] == fps
        assert [m["kind"] for m in manifests] == ["base", "delta", "delta"]

    def test_layer_cost_proportional_to_source(self, dataset, tmp_path):
        """A delta layer stores the increment, not the corpus."""
        rag, _, fps = _build_chain(dataset, tmp_path)
        store = SnapshotStore(tmp_path / "snaps")
        base_size = store.size_of(fps[0])
        layer_size = store.size_of(fps[1])
        assert layer_size < base_size / 2

    def test_chain_fingerprint_matches_full_ingest(self, dataset, tmp_path):
        """ingest(base + [extra]) on a fresh pipeline hits the chain."""
        rag, sources, fps = _build_chain(dataset, tmp_path)
        fresh = MultiRAG.from_config(_config(), snapshot=tmp_path / "snaps")
        report = fresh.ingest(sources)
        assert report.loaded_from_snapshot
        assert report.snapshot_fingerprint == fps[-1]
        assert report.snapshot_layers == 1


class TestLayeredLoadIdentity:
    @pytest.fixture(scope="class")
    def cold_json(self, dataset):
        cold = MultiRAG.from_config(_config())
        cold.ingest(dataset.raw_sources())
        return _evaluate(cold, dataset)

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_layered_load_matches_cold_combined(
        self, dataset, tmp_path, cold_json, jobs
    ):
        _build_chain(dataset, tmp_path)
        warm = MultiRAG.from_config(_config(), snapshot=tmp_path / "snaps")
        report = warm.ingest(dataset.raw_sources())
        assert report.loaded_from_snapshot
        assert report.snapshot_layers == 1
        assert _evaluate(warm, dataset, jobs=jobs) == cold_json

    def test_in_memory_add_source_matches_cold_combined(
        self, dataset, tmp_path, cold_json
    ):
        rag, _, _ = _build_chain(dataset, tmp_path)
        assert _evaluate(rag, dataset) == cold_json

    def test_two_layer_chain_matches_cold_combined(
        self, dataset, tmp_path, cold_json
    ):
        _build_chain(dataset, tmp_path, n_extra=2)
        warm = MultiRAG.from_config(_config(), snapshot=tmp_path / "snaps")
        report = warm.ingest(dataset.raw_sources())
        assert report.snapshot_layers == 2
        assert _evaluate(warm, dataset) == cold_json

    def test_warm_load_runs_no_extraction(self, dataset, tmp_path):
        """The layered load replays stored claims — no LLM extraction."""
        _build_chain(dataset, tmp_path)
        warm = MultiRAG.from_config(_config(), snapshot=tmp_path / "snaps")
        calls_before = warm.llm.meter.calls
        report = warm.ingest(dataset.raw_sources())
        assert report.loaded_from_snapshot
        # standardization/extraction would show up as extraction-stage
        # calls; the load may not touch the LLM at all.
        assert warm.llm.meter.calls == calls_before

    def test_compact_squashes_chain(self, dataset, tmp_path, cold_json):
        rag, sources, fps = _build_chain(dataset, tmp_path)
        store = SnapshotStore(tmp_path / "snaps")
        store.compact(fps[-1])
        assert store.manifest(fps[-1])["kind"] == "base"
        warm = MultiRAG.from_config(_config(), snapshot=tmp_path / "snaps")
        report = warm.ingest(sources)
        assert report.loaded_from_snapshot
        assert report.snapshot_layers == 0
        assert _evaluate(warm, dataset) == cold_json

    def test_compacted_base_has_the_v5_file_set(self, dataset, tmp_path):
        _rag, _sources, fps = _build_chain(dataset, tmp_path, n_extra=2)
        snaps = tmp_path / "snaps"
        store = SnapshotStore(snaps)
        docs = [store.manifest(fp) for fp in fps] + [
            json.loads((snaps / fp / "layer.json").read_text())
            for fp in fps[1:]
        ]
        store.compact(fps[-1])
        base = snaps / fps[-1]
        docs += [store.manifest(fps[-1])] + [
            json.loads((base / "graph.json").read_text())
        ]
        # no index arrays, no MLG and no records: the loader rebuilds
        # every index from the term counts in retriever.json and the MLG
        # from the graph
        assert sorted(p.name for p in base.iterdir()) == [
            "chunks.json", "graph.json", "history.json", "manifest.json",
            "retriever.json",
        ]
        retriever_doc = json.loads((base / "retriever.json").read_text())
        assert sorted(retriever_doc) == ["mode", "rrf_k", "term_counts"]
        assert not {
            "n_shards", "shard", "idx", "order", "has_matrix",
            "weight_idx", "weight_val", "weight_off",
            "mlg_stats", "mlg_update", "record", "records", "build_time_s",
        } & set(key for doc in docs for key in _keys(doc))


class TestSubjectIndexParity:
    def test_live_chain_and_compacted_agree(self, dataset, tmp_path):
        """The open-intent subject index is rebuilt from the graph on a
        load, never persisted: live after add_source, chain-loaded and
        compacted pipelines must hold the same index and answer open
        questions identically."""
        live, sources, fps = _build_chain(dataset, tmp_path)
        chained = MultiRAG.from_config(_config(), snapshot=tmp_path / "snaps")
        assert chained.ingest(sources).snapshot_layers == 1
        SnapshotStore(tmp_path / "snaps").compact(fps[-1])
        compacted = MultiRAG.from_config(
            _config(), snapshot=tmp_path / "snaps"
        )
        report = compacted.ingest(sources)
        assert report.loaded_from_snapshot and report.snapshot_layers == 0
        questions = _open_questions(dataset)
        expected = live.evaluate(questions).to_json(drop_timing=True)
        assert json.loads(expected)["mean_f1"] > 0
        for rag in (chained, compacted):
            assert rag._subject_index == live._subject_index
            assert rag._entity_by_norm == live._entity_by_norm
            assert rag.evaluate(questions).to_json(
                drop_timing=True
            ) == expected


class TestMLGParity:
    @pytest.mark.parametrize("update_history", [False, True])
    def test_live_chain_and_compacted_agree(
        self, dataset, tmp_path, update_history
    ):
        """The MLG is rebuilt from the graph on a load, never persisted:
        the live pipeline's MLG after add_source (a promoted group is
        appended), a chain-loaded and a compacted one (groups in key
        order) must hold the same groups and isolated claims key for key
        and answer identically; with history updates on, one more
        add_source must calibrate the live and the chain-loaded history
        to the same state."""
        config = MultiRAGConfig(seed=1, update_history=update_history)
        sources = dataset.raw_sources()
        snaps = tmp_path / "snaps"
        live = MultiRAG.from_config(config, snapshot=snaps)
        live.ingest(sources[:-2])
        assert live.add_source(sources[-2])["promoted"] > 0
        chained = MultiRAG.from_config(config, snapshot=snaps)
        assert chained.ingest(sources[:-1]).snapshot_layers == 1
        SnapshotStore(snaps).compact(live._snapshot_fingerprint)
        compacted = MultiRAG.from_config(config, snapshot=snaps)
        report = compacted.ingest(sources[:-1])
        assert report.loaded_from_snapshot and report.snapshot_layers == 0

        expected = _mlg_by_key(live.mlg)
        expected_json = _evaluate(live, dataset)
        for rag in (chained, compacted):
            assert _mlg_by_key(rag.mlg) == expected
            assert _evaluate(rag, dataset) == expected_json
        if not update_history:
            return
        assert chained.history.export_state() == live.history.export_state()
        for rag in (live, chained):
            assert rag.add_source(sources[-1])["claims_added"] > 0
        assert _mlg_by_key(chained.mlg) == _mlg_by_key(live.mlg)
        assert chained.history.export_state() == live.history.export_state()


class TestDeterministicSnapshots:
    def test_same_ingest_writes_same_bytes(self, dataset, tmp_path):
        """No wall-clock field in any file: two stores built from one
        corpus by ingest and add_source hold the same files, byte for
        byte."""

        def store_bytes(root):
            return {
                str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()
            }

        config = MultiRAGConfig(seed=1)
        stores = []
        for name in ("a", "b"):
            _build_chain(dataset, tmp_path / name, config=config)
            stores.append(store_bytes(tmp_path / name / "snaps"))
        assert stores[0] == stores[1]
        assert len(stores[0]) == 7  # a base of five files, a layer of two


class TestWorkNotDone:
    """add_source and the chain loader fold new data in without building
    what nothing reads (the MLG's line-graph view) or re-reading the
    corpus (the retrieval indexes)."""

    @staticmethod
    def _assert_view_unbuilt(rag):
        mlg = rag.mlg
        assert mlg._line_graph is None
        stats = mlg.stats()
        assert mlg._line_graph is None
        expected = LineGraph(mlg.graph.triples()).nodes
        # the stats as computed with the view built
        assert stats == dict(stats, triples=len(mlg.line_graph))
        assert mlg.line_graph.nodes == expected

    def test_warm_load_then_add_source(self, dataset, tmp_path):
        sources = dataset.raw_sources()
        cold = MultiRAG.from_config(_config(), snapshot=tmp_path / "snaps")
        cold.ingest(sources[:-1])
        live = MultiRAG.from_config(_config(), snapshot=tmp_path / "snaps")
        assert live.ingest(sources[:-1]).loaded_from_snapshot
        live.add_source(sources[-1])
        self._assert_view_unbuilt(live)

    def test_chain_load(self, dataset, tmp_path):
        live, sources, _ = _build_chain(dataset, tmp_path, n_extra=2)
        chained = MultiRAG.from_config(_config(), snapshot=tmp_path / "snaps")
        assert chained.ingest(sources).snapshot_layers == 2
        self._assert_view_unbuilt(chained)

    def test_chain_load_folds_only_layer_chunks(
        self, dataset, tmp_path, monkeypatch
    ):
        live, sources, fps = _build_chain(dataset, tmp_path, n_extra=2)
        manifest = SnapshotStore(tmp_path / "snaps").manifest(fps[0])
        base_chunks = manifest["counts"]["chunks"]
        tokenized: list[str] = []
        real = retriever_module.term_counts

        def counting(texts):
            texts = list(texts)
            tokenized.extend(texts)
            return real(texts)

        monkeypatch.setattr(retriever_module, "term_counts", counting)
        chained = MultiRAG.from_config(_config(), snapshot=tmp_path / "snaps")
        assert chained.ingest(sources).snapshot_layers == 2
        assert tokenized == [
            c.text for c in live.retriever.chunks[base_chunks:]
        ]
        _assert_same_indexes(chained.retriever, live.retriever)


class TestRetrieverRebuild:
    """A load rebuilds the retrieval indexes from the stored term counts,
    inside the load, equal to the saving pipeline's live indexes."""

    def test_base_load(self, dataset, tmp_path):
        live = MultiRAG.from_config(_config(), snapshot=tmp_path / "snaps")
        assert not live.ingest(dataset.raw_sources()).loaded_from_snapshot
        warm = MultiRAG.from_config(_config(), snapshot=tmp_path / "snaps")
        assert warm.ingest(dataset.raw_sources()).loaded_from_snapshot
        _assert_same_indexes(warm.retriever, live.retriever)

    def test_chain_load(self, dataset, tmp_path):
        live, sources, _ = _build_chain(dataset, tmp_path, n_extra=2)
        chained = MultiRAG.from_config(_config(), snapshot=tmp_path / "snaps")
        assert chained.ingest(sources).snapshot_layers == 2
        _assert_same_indexes(chained.retriever, live.retriever)


class TestBrokenChains:
    def _chain(self, dataset, tmp_path):
        rag, sources, fps = _build_chain(dataset, tmp_path, n_extra=2)
        return SnapshotStore(tmp_path / "snaps"), sources, fps

    def test_missing_middle_layer_names_it(self, dataset, tmp_path):
        store, _, fps = self._chain(dataset, tmp_path)
        middle = fps[1]
        shutil.rmtree(tmp_path / "snaps" / middle)
        with pytest.raises(SnapshotError, match=middle[:12]):
            store.load(fps[-1])

    def test_corrupt_middle_layer_payload_names_it(self, dataset, tmp_path):
        store, _, fps = self._chain(dataset, tmp_path)
        middle = fps[1]
        layer_file = tmp_path / "snaps" / middle / "layer.json"
        layer_file.write_text(layer_file.read_text()[:40])
        with pytest.raises(SnapshotError, match=middle[:12]):
            store.load(fps[-1])

    def test_missing_layer_file_names_layer(self, dataset, tmp_path):
        store, _, fps = self._chain(dataset, tmp_path)
        middle = fps[1]
        (tmp_path / "snaps" / middle / "layer.json").unlink()
        with pytest.raises(SnapshotError, match=middle[:12]):
            store.load(fps[-1])

    def test_non_extending_layer_rejected(self, dataset, tmp_path):
        """A layer whose triples collide with its base is refused."""
        store, _, fps = self._chain(dataset, tmp_path)
        tip_dir = tmp_path / "snaps" / fps[-1]
        layer = json.loads((tip_dir / "layer.json").read_text())
        mid_layer = json.loads(
            (tmp_path / "snaps" / fps[1] / "layer.json").read_text()
        )
        # replay the middle layer's triples again at the tip
        layer["triples"] = mid_layer["triples"]
        (tip_dir / "layer.json").write_text(json.dumps(layer))
        with pytest.raises(SnapshotError, match="extend"):
            store.load(fps[-1])

    def test_broken_chain_load_leaves_no_partial_state(
        self, dataset, tmp_path
    ):
        """A pipeline whose warm load fails must not be half-ingested."""
        store, sources, fps = self._chain(dataset, tmp_path)
        shutil.rmtree(tmp_path / "snaps" / fps[1])
        rag = MultiRAG.from_config(_config(), snapshot=tmp_path / "snaps")
        with pytest.raises(SnapshotError):
            rag.ingest(sources)
        assert rag.fusion is None

    def test_cycle_guard(self, dataset, tmp_path):
        store, _, fps = self._chain(dataset, tmp_path)
        tip_dir = tmp_path / "snaps" / fps[-1]
        manifest = json.loads((tip_dir / "manifest.json").read_text())
        manifest["parent"] = fps[-1]
        (tip_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError):
            store.load(fps[-1])

    @pytest.mark.parametrize("layer, name, drop", [
        (0, "manifest.json", lambda doc: doc.pop("extraction_calls")),
        (0, "chunks.json", lambda doc: doc[0].pop("chunk_id")),
        (0, "history.json", lambda doc: doc.pop("init_entities")),
        (1, "layer.json", lambda doc: doc["history"].pop("init_entities")),
    ], ids=["base-extraction_calls", "base-chunk_id",
            "base-init_entities", "layer-init_entities"])
    def test_missing_required_key_names_the_file(
        self, dataset, tmp_path, layer, name, drop
    ):
        """A required key missing from any file of the chain fails the
        load with a SnapshotError naming that file, not a KeyError."""
        store, _, fps = self._chain(dataset, tmp_path)
        path = tmp_path / "snaps" / fps[layer] / name
        doc = json.loads(path.read_text())
        drop(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match=re.escape(name)):
            store.load(fps[-1])

    @pytest.mark.parametrize("layer, key, value", [
        (0, "counts", []),
        (1, "extraction_calls", "many"),
    ], ids=["base-counts-not-an-object", "layer-extraction_calls-not-a-number"])
    def test_malformed_manifest_value_names_the_file(
        self, dataset, tmp_path, layer, key, value
    ):
        """A manifest value of the wrong type fails the load with a
        SnapshotError naming the manifest, not an AttributeError or a
        ValueError."""
        store, _, fps = self._chain(dataset, tmp_path)
        path = tmp_path / "snaps" / fps[layer] / "manifest.json"
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match=re.escape("manifest.json")):
            store.load(fps[-1])


class TestGc:
    def test_gc_prunes_dotted_dirs_only(self, dataset, tmp_path):
        _, _, fps = _build_chain(dataset, tmp_path)
        snaps = tmp_path / "snaps"
        (snaps / ".old.deadbeef").mkdir()
        (snaps / ".old.deadbeef" / "junk.json").write_text("{}")
        (snaps / ".tmp.cafe").mkdir()
        store = SnapshotStore(snaps)
        removed = store.gc()
        assert removed == [".old.deadbeef", ".tmp.cafe"]
        assert not (snaps / ".old.deadbeef").exists()
        for fp in fps:
            assert store.has(fp)

    def test_gc_empty_store(self, tmp_path):
        store = SnapshotStore(tmp_path / "void")
        assert store.gc() == []
