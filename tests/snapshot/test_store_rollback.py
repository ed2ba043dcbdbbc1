"""Overwrite/rollback safety of :meth:`SnapshotStore.save`.

The overwrite dance is: populate ``.tmp.<fp>``, displace the previous
snapshot to ``.old.<fp>``, install the new copy, discard the old one.
These tests inject an ``OSError`` between the two renames and assert
the store's crash contract: the displaced previous snapshot is rolled
back intact, the failed install never becomes visible, and
``fingerprints()`` never reports a partial (work-area) directory.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.config import MultiRAGConfig
from repro.core.pipeline import MultiRAG
from repro.datasets.books import make_books
from repro.errors import SnapshotError
from repro.snapshot import SnapshotStore


@pytest.fixture(scope="module")
def corpus():
    return make_books(scale=0.2, seed=11, n_queries=5).raw_sources()


@pytest.fixture()
def ingested(corpus, tmp_path):
    """A pipeline with one committed snapshot, plus its store parts."""
    rag = MultiRAG.from_config(
        MultiRAGConfig(seed=3), snapshot=tmp_path / "snaps"
    )
    report = rag.ingest(corpus)
    assert report.snapshot_fingerprint
    return rag, report.snapshot_fingerprint


def resave(rag: MultiRAG, store: SnapshotStore, fingerprint: str) -> Path:
    return store.save(
        fingerprint,
        fusion=rag.fusion,
        retriever=rag.retriever,
        history=rag.history,
    )


def failing_replace(tmp_marker: str):
    """An ``os.replace`` that dies installing the staged tmp directory —
    i.e. after the previous snapshot was displaced to ``.old.<fp>``."""
    real = os.replace

    def fake(src, dst, *args, **kwargs):
        if tmp_marker in str(src):
            raise OSError("injected: disk full")
        return real(src, dst, *args, **kwargs)

    return fake


class TestInstallFailure:
    def test_previous_snapshot_rolled_back(self, ingested, monkeypatch):
        rag, fingerprint = ingested
        store = rag.snapshots
        final = store.root / fingerprint
        manifest_before = (final / "manifest.json").read_bytes()

        monkeypatch.setattr(
            "repro.snapshot.store.os.replace",
            failing_replace(f".tmp.{fingerprint}"),
        )
        with pytest.raises(SnapshotError, match="injected"):
            resave(rag, store, fingerprint)
        monkeypatch.undo()

        # the displaced copy was put back, byte-identical
        assert final.is_dir()
        assert (final / "manifest.json").read_bytes() == manifest_before
        assert not (store.root / f".old.{fingerprint}").exists()
        assert not (store.root / f".tmp.{fingerprint}").exists()

    def test_fingerprints_never_report_work_areas(self, ingested, monkeypatch):
        rag, fingerprint = ingested
        store = rag.snapshots

        monkeypatch.setattr(
            "repro.snapshot.store.os.replace",
            failing_replace(f".tmp.{fingerprint}"),
        )
        with pytest.raises(SnapshotError):
            resave(rag, store, fingerprint)
        monkeypatch.undo()

        assert store.fingerprints() == [fingerprint]

        # even with a crashed .old left behind (simulate by creating one
        # with a manifest inside), it is never listed
        stale = store.root / f".old.{fingerprint}"
        stale.mkdir()
        (stale / "manifest.json").write_text(json.dumps({"stale": True}))
        assert store.fingerprints() == [fingerprint]

    def test_failed_install_is_loadable_after_rollback(
        self, ingested, monkeypatch, corpus
    ):
        rag, fingerprint = ingested
        store = rag.snapshots

        monkeypatch.setattr(
            "repro.snapshot.store.os.replace",
            failing_replace(f".tmp.{fingerprint}"),
        )
        with pytest.raises(SnapshotError):
            resave(rag, store, fingerprint)
        monkeypatch.undo()

        # a fresh pipeline warm-loads the rolled-back snapshot
        warm = MultiRAG.from_config(
            MultiRAGConfig(seed=3), snapshot=store.root
        )
        report = warm.ingest(corpus)
        assert report.loaded_from_snapshot
        assert report.snapshot_fingerprint == fingerprint
