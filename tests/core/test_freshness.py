"""Tests for the pipeline's temporal freshness filter."""

from __future__ import annotations

import pytest

from repro.adapters import RawSource
from repro.core import MultiRAG, MultiRAGConfig
from repro.exec import Query


def snapshot(source_id: str, observed_at: float, status: str) -> RawSource:
    return RawSource(
        source_id, "flights", "csv", f"{source_id}-{observed_at}.csv",
        f"flight,status\nCA981,{status}\n",
        meta={"observed_at": observed_at},
    )


def build(staleness, sources) -> MultiRAG:
    rag = MultiRAG(MultiRAGConfig(extraction_noise=0.0, staleness=staleness))
    rag.ingest(sources)
    return rag


class TestFreshnessFilter:
    def test_own_update_supersedes(self):
        # Two snapshots of the same feed: only the newest claim counts.
        rag = build(staleness=1000.0, sources=[
            snapshot("airline", 0.0, "on time"),
            snapshot("tracker", 0.0, "on time"),
            snapshot("airline", 60.0, "delayed"),
            snapshot("tracker", 65.0, "delayed"),
        ])
        result = rag.run(Query.key("CA981", "status"))
        assert {a.value for a in result.answers} == {"delayed"}

    def test_stale_source_dropped(self):
        # The forum (last heard at t=0) is older than the staleness window
        # relative to the newest observation (t=60): its vote disappears,
        # even though "on time" claims outnumber "delayed" 2-to-1 overall.
        rag = build(staleness=30.0, sources=[
            snapshot("forum", 0.0, "on time"),
            snapshot("mirror", 0.0, "on time"),
            snapshot("airline", 60.0, "delayed"),
            snapshot("tracker", 58.0, "delayed"),
        ])
        result = rag.run(Query.key("CA981", "status"))
        assert {a.value for a in result.answers} == {"delayed"}

    def test_disabled_by_default(self):
        # Without staleness, old claims stay in play as ordinary conflicts.
        rag = build(staleness=None, sources=[
            snapshot("forum", 0.0, "on time"),
            snapshot("mirror", 0.0, "on time"),
            snapshot("third", 0.0, "on time"),
            snapshot("airline", 60.0, "delayed"),
        ])
        result = rag.run(Query.key("CA981", "status"))
        assert "on time" in {a.value for a in result.answers}

    def test_timeless_claims_unaffected(self):
        timeless = RawSource(
            "ref", "flights", "csv", "ref.csv",
            "flight,airline\nCA981,Aurora Air\n",
        )
        rag = build(staleness=10.0, sources=[
            timeless, snapshot("airline", 100.0, "delayed"),
        ])
        result = rag.run(Query.key("CA981", "airline"))
        assert {a.value for a in result.answers} == {"Aurora Air"}

    def test_config_validation(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            MultiRAGConfig(staleness=-1.0)

    def test_provenance_carries_timestamp(self):
        rag = build(staleness=None, sources=[snapshot("airline", 42.0, "delayed")])
        claim = rag.fusion.graph.by_key("CA981", "status")[0]
        assert claim.provenance.observed_at == 42.0
