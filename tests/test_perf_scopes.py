"""Cache registry: ``clear_caches`` drops every registered memo."""

from __future__ import annotations

import importlib

import pytest

import repro.perf as perf


@pytest.fixture()
def registry(monkeypatch):
    """An isolated clearer registry (the real one is process-global)."""
    monkeypatch.setattr(perf, "_CACHE_CLEARERS", [])
    return perf


class TestScopes:
    def test_full_clear_hits_every_scope(self, registry):
        calls = []
        registry.register_cache(lambda: calls.append("first"))
        registry.register_cache(lambda: calls.append("second"))
        registry.clear_caches()
        assert calls == ["first", "second"]

    def test_register_returns_callback(self, registry):
        def clear():
            pass

        assert registry.register_cache(clear) is clear


class TestRealRegistrations:
    @pytest.mark.parametrize("module, attr", [
        ("repro.retrieval.tokenize", "_tokenize_cached"),
        ("repro.confidence.similarity", "_distribution_cached"),
        ("repro.confidence.similarity", "_similarity_cached"),
    ])
    def test_clear_caches_empties_every_memo(self, module, attr):
        from repro.confidence.similarity import similarity

        similarity(["retained until", "a full clear"], ["a full clear"])
        memo = getattr(importlib.import_module(module), attr)
        assert memo.cache_info().currsize > 0
        perf.clear_caches()
        assert memo.cache_info().currsize == 0
