"""ExecutionPlan validation and environment resolution."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.exec import ENV_WORKERS, ExecutionPlan


class TestValidation:
    def test_defaults(self):
        assert ExecutionPlan().workers == 1

    def test_frozen(self):
        with pytest.raises(Exception):
            ExecutionPlan().workers = 2  # type: ignore[misc]

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_non_positive_workers(self, workers):
        with pytest.raises(ConfigError):
            ExecutionPlan(workers=workers)


class TestResolve:
    def test_explicit_args_win(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "8")
        assert ExecutionPlan.resolve(jobs=2).workers == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "3")
        assert ExecutionPlan.resolve().workers == 3

    def test_defaults_without_env(self, monkeypatch):
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        plan = ExecutionPlan.resolve()
        assert plan == ExecutionPlan()

    @pytest.mark.parametrize("value", ["zero", "1.5", "", "  ", "-2", "0"])
    def test_malformed_env_raises(self, monkeypatch, value):
        monkeypatch.setenv(ENV_WORKERS, value)
        if not value.strip():
            # blank counts as unset, not malformed
            assert ExecutionPlan.resolve().workers == 1
        else:
            with pytest.raises(ConfigError):
                ExecutionPlan.resolve()


class TestEnvRequested:
    def test_unset(self, monkeypatch):
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        assert not ExecutionPlan.env_requested()

    def test_blank_is_unset(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "   ")
        assert not ExecutionPlan.env_requested()

    def test_set(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "4")
        assert ExecutionPlan.env_requested()
