"""SnapshotStore round-trip and corruption handling."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.config import MultiRAGConfig
from repro.core.pipeline import MultiRAG
from repro.datasets.books import make_books
from repro.errors import SnapshotError
from repro.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotStore,
    compute_fingerprint,
)


@pytest.fixture(scope="module")
def corpus():
    dataset = make_books(scale=0.2, seed=11, n_queries=5)
    return dataset.raw_sources()


def _ingest(corpus, tmp_path, **config_kwargs):
    config = MultiRAGConfig(seed=3, **config_kwargs)
    rag = MultiRAG.from_config(config, snapshot=tmp_path / "snaps")
    report = rag.ingest(corpus)
    return rag, report


class TestRoundTrip:
    def test_cold_then_warm(self, corpus, tmp_path):
        rag1, report1 = _ingest(corpus, tmp_path)
        assert not report1.loaded_from_snapshot
        assert report1.snapshot_fingerprint

        rag2, report2 = _ingest(corpus, tmp_path)
        assert report2.loaded_from_snapshot
        assert report2.snapshot_fingerprint == report1.snapshot_fingerprint
        assert report2.num_triples == report1.num_triples
        assert report2.num_entities == report1.num_entities
        assert report2.num_chunks == report1.num_chunks
        assert report2.extraction_calls == report1.extraction_calls

    def test_graph_restored_in_insertion_order(self, corpus, tmp_path):
        rag1, _ = _ingest(corpus, tmp_path)
        rag2, report2 = _ingest(corpus, tmp_path)
        assert report2.loaded_from_snapshot
        assert list(rag2.fusion.graph.triples()) == list(rag1.fusion.graph.triples())

    def test_history_restored_exactly(self, corpus, tmp_path):
        rag1, _ = _ingest(corpus, tmp_path)
        rag2, _ = _ingest(corpus, tmp_path)
        assert rag2.history.export_state() == rag1.history.export_state()

    def test_mlg_groups_restored(self, corpus, tmp_path):
        rag1, _ = _ingest(corpus, tmp_path)
        rag2, _ = _ingest(corpus, tmp_path)
        assert len(rag2.mlg.groups) == len(rag1.mlg.groups)
        for g1, g2 in zip(rag1.mlg.groups, rag2.mlg.groups):
            assert g2.key == g1.key
            assert g2.members == g1.members
        assert rag2.mlg.isolated == rag1.mlg.isolated

    def test_mka_disabled_round_trips(self, corpus, tmp_path):
        rag1, _ = _ingest(corpus, tmp_path, enable_mka=False)
        rag2, report2 = _ingest(corpus, tmp_path, enable_mka=False)
        assert report2.loaded_from_snapshot
        assert rag2.mlg is None

    def test_different_config_misses(self, corpus, tmp_path):
        _ingest(corpus, tmp_path)
        _, report = _ingest(corpus, tmp_path, top_k=9)
        assert not report.loaded_from_snapshot


class TestStoreBasics:
    def test_has_and_fingerprints(self, corpus, tmp_path):
        store = SnapshotStore(tmp_path / "snaps")
        assert store.fingerprints() == []
        rag, report = _ingest(corpus, tmp_path)
        assert store.has(report.snapshot_fingerprint)
        assert store.fingerprints() == [report.snapshot_fingerprint]

    def test_load_missing_raises(self, tmp_path):
        store = SnapshotStore(tmp_path / "void")
        with pytest.raises(SnapshotError):
            store.load("deadbeef")

    def test_no_tmp_dirs_left_behind(self, corpus, tmp_path):
        _ingest(corpus, tmp_path)
        leftovers = [
            p.name for p in (tmp_path / "snaps").iterdir()
            if p.name.startswith(".tmp.")
        ]
        assert leftovers == []

    def test_fingerprints_ignore_crashed_temp_dirs(self, corpus, tmp_path):
        """A temp dir abandoned after its manifest was written (hard
        crash before the final rename) must not be reported."""
        rag, report = _ingest(corpus, tmp_path)
        store = SnapshotStore(tmp_path / "snaps")
        stale = tmp_path / "snaps" / ".tmp.deadbeef"
        stale.mkdir()
        (stale / "manifest.json").write_text("{}")
        assert store.fingerprints() == [report.snapshot_fingerprint]


class TestOverwrite:
    def _save_kwargs(self, rag):
        return dict(
            fusion=rag.fusion,
            retriever=rag.retriever,
            history=rag.history,
        )

    def test_overwrite_same_fingerprint(self, corpus, tmp_path):
        rag, report = _ingest(corpus, tmp_path)
        store = SnapshotStore(tmp_path / "snaps")
        store.save(report.snapshot_fingerprint, **self._save_kwargs(rag))
        assert store.fingerprints() == [report.snapshot_fingerprint]
        leftovers = [
            p.name for p in (tmp_path / "snaps").iterdir()
            if p.name.startswith(".")
        ]
        assert leftovers == []

    def test_failed_overwrite_keeps_previous_snapshot(
        self, corpus, tmp_path, monkeypatch
    ):
        """When installing the new directory fails, the previously valid
        snapshot must still be loadable — overwriting is atomic."""
        import repro.snapshot.store as store_module

        rag, report = _ingest(corpus, tmp_path)
        fp = report.snapshot_fingerprint
        store = SnapshotStore(tmp_path / "snaps")
        before = store.load(fp)

        real_replace = os.replace

        def failing_install(src, dst):
            if Path(src).name.startswith(".tmp."):
                raise OSError("simulated crash installing the new snapshot")
            return real_replace(src, dst)

        monkeypatch.setattr(store_module.os, "replace", failing_install)
        with pytest.raises(SnapshotError):
            store.save(fp, **self._save_kwargs(rag))
        monkeypatch.undo()

        assert store.has(fp)
        after = store.load(fp)
        assert list(after.fusion.graph.triples()) == list(
            before.fusion.graph.triples()
        )
        assert after.history.export_state() == before.history.export_state()


class TestCorruption:
    def _snapshot_dir(self, corpus, tmp_path):
        rag, report = _ingest(corpus, tmp_path)
        return (
            SnapshotStore(tmp_path / "snaps"),
            report.snapshot_fingerprint,
            tmp_path / "snaps" / report.snapshot_fingerprint,
        )

    def test_version_mismatch(self, corpus, tmp_path):
        store, fp, snap_dir = self._snapshot_dir(corpus, tmp_path)
        manifest = json.loads((snap_dir / "manifest.json").read_text())
        # a v4 store (an MLG file and normalized records), a v3 one
        # (index arrays in .npy files) or a v2 one (per-shard graph and
        # MLG files) is refused with the migration hint, never read as v5
        for version, hint in [
            (SNAPSHOT_FORMAT_VERSION + 1, "format version"),
            (4, "format version 4; .* re-ingest to write a fresh snapshot"),
            (3, "format version 3; .* re-ingest to write a fresh snapshot"),
            (2, "format version 2; .* re-ingest to write a fresh snapshot"),
        ]:
            manifest["format_version"] = version
            (snap_dir / "manifest.json").write_text(json.dumps(manifest))
            with pytest.raises(SnapshotError, match=hint):
                store.load(fp)

    def test_truncated_json(self, corpus, tmp_path):
        store, fp, snap_dir = self._snapshot_dir(corpus, tmp_path)
        payload = (snap_dir / "graph.json").read_text()
        (snap_dir / "graph.json").write_text(payload[: len(payload) // 2])
        with pytest.raises(SnapshotError, match="corrupt graph.json"):
            store.load(fp)

    def test_short_graph_file_names_itself(self, corpus, tmp_path):
        store, fp, snap_dir = self._snapshot_dir(corpus, tmp_path)
        doc = json.loads((snap_dir / "graph.json").read_text())
        for column in ("subject", "predicate", "obj", "prov_id"):
            doc["triples"][column].pop()
        (snap_dir / "graph.json").write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match="graph.json holds"):
            store.load(fp)

    def test_missing_component(self, corpus, tmp_path):
        store, fp, snap_dir = self._snapshot_dir(corpus, tmp_path)
        (snap_dir / "history.json").unlink()
        with pytest.raises(SnapshotError, match="missing"):
            store.load(fp)

    @pytest.mark.parametrize("row", [
        ["alpha", "beta"], {"alpha": "x"},
        # not an int >= 1; a bool is not an int
        {"alpha": 1.5}, {"alpha": True}, {"alpha": 0}, {"alpha": -1},
    ])
    def test_corrupt_term_counts(self, corpus, tmp_path, row):
        store, fp, snap_dir = self._snapshot_dir(corpus, tmp_path)
        doc = json.loads((snap_dir / "retriever.json").read_text())
        doc["term_counts"][0] = row
        (snap_dir / "retriever.json").write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match="retriever.json"):
            store.load(fp)

    def test_short_term_counts_name_the_file(self, corpus, tmp_path):
        store, fp, snap_dir = self._snapshot_dir(corpus, tmp_path)
        doc = json.loads((snap_dir / "retriever.json").read_text())
        doc["term_counts"].pop()
        (snap_dir / "retriever.json").write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match="retriever.json holds"):
            store.load(fp)

    def test_corrupt_pipeline_load_raises(self, corpus, tmp_path):
        _, report = _ingest(corpus, tmp_path)
        snap_dir = tmp_path / "snaps" / report.snapshot_fingerprint
        (snap_dir / "chunks.json").write_text("][")
        rag = MultiRAG.from_config(
            MultiRAGConfig(seed=3), snapshot=tmp_path / "snaps"
        )
        with pytest.raises(SnapshotError):
            rag.ingest(corpus)


class TestFingerprintAgainstPipeline:
    def test_ingest_uses_computed_fingerprint(self, corpus, tmp_path):
        rag, report = _ingest(corpus, tmp_path)
        expected = compute_fingerprint(rag.config, corpus, rag.llm)
        assert report.snapshot_fingerprint == expected
