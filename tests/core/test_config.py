"""Tests for MultiRAGConfig validation and ablation helpers."""

from __future__ import annotations

import pytest

from repro.core import MultiRAGConfig
from repro.errors import ConfigError


class TestValidation:
    def test_defaults_valid(self):
        config = MultiRAGConfig()
        assert config.alpha == 0.5
        assert config.beta == 0.5
        assert config.graph_threshold == 0.5

    @pytest.mark.parametrize("field,value", [
        ("alpha", -0.1), ("alpha", 1.1),
        ("beta", 0.0), ("beta", -1.0),
        ("node_threshold", -0.1), ("node_threshold", 2.1),
        ("graph_threshold", 1.5),
        ("fast_path_nodes", 0),
        ("hedge_margin", -0.01),
        ("top_k", 0),
    ])
    def test_invalid_values(self, field, value):
        with pytest.raises(ConfigError):
            MultiRAGConfig(**{field: value})

    def test_frozen(self):
        with pytest.raises(AttributeError):
            MultiRAGConfig().alpha = 0.9  # type: ignore[misc]


class TestAblationHelpers:
    def test_without_mka(self):
        config = MultiRAGConfig().without_mka()
        assert not config.enable_mka
        assert config.enable_mcc

    def test_without_graph_level(self):
        config = MultiRAGConfig().without_graph_level()
        assert not config.enable_graph_level
        assert config.enable_node_level
        assert config.enable_mcc

    def test_without_node_level(self):
        config = MultiRAGConfig().without_node_level()
        assert config.enable_graph_level
        assert not config.enable_node_level
        assert config.enable_mcc

    def test_without_mcc(self):
        config = MultiRAGConfig().without_mcc()
        assert not config.enable_graph_level
        assert not config.enable_node_level
        assert not config.enable_mcc
        assert config.enable_mka

    def test_with_alpha(self):
        assert MultiRAGConfig().with_alpha(0.75).alpha == 0.75

    def test_helpers_do_not_mutate_original(self):
        base = MultiRAGConfig()
        base.without_mcc()
        assert base.enable_graph_level
