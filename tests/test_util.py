"""Tests for repro.util: atomic writes, stable hashing, canonicalization."""

from __future__ import annotations

import os
import sys

import pytest

from repro.util import (
    atomic_write_text,
    canonical_value,
    normalize_value,
    stable_hash,
    stable_uniform,
)


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("a", "b", seed=3) == stable_hash("a", "b", seed=3)

    def test_seed_changes_value(self):
        assert stable_hash("a", seed=1) != stable_hash("a", seed=2)

    def test_parts_order_matters(self):
        assert stable_hash("a", "b") != stable_hash("b", "a")

    def test_part_boundaries_matter(self):
        # ("ab", "c") must differ from ("a", "bc").
        assert stable_hash("ab", "c") != stable_hash("a", "bc")

    def test_non_string_parts(self):
        assert stable_hash(1, 2.5, None) == stable_hash(1, 2.5, None)


class TestStableUniform:
    def test_range(self):
        for i in range(200):
            value = stable_uniform("key", i, seed=5)
            assert 0.0 <= value < 1.0

    def test_roughly_uniform(self):
        draws = [stable_uniform("u", i) for i in range(2000)]
        mean = sum(draws) / len(draws)
        assert 0.45 < mean < 0.55

    def test_deterministic(self):
        assert stable_uniform("x", seed=9) == stable_uniform("x", seed=9)


class TestNormalizeValue:
    def test_case_and_whitespace(self):
        assert normalize_value("  Christopher  Nolan ") == "christopher nolan"

    def test_non_string_input(self):
        assert normalize_value(2010) == "2010"

    def test_preserves_token_order(self):
        assert normalize_value("b a") != normalize_value("a b")


class TestCanonicalValue:
    def test_comma_inverted_name(self):
        assert canonical_value("Nolan, Christopher") == canonical_value(
            "Christopher Nolan"
        )

    def test_dollar_prefix(self):
        assert canonical_value("$249.74") == canonical_value("249.74")

    def test_thousands_separator(self):
        assert canonical_value("715,000") == canonical_value("715000")

    def test_title_inversion(self):
        assert canonical_value("Silent Horizon, The") == canonical_value(
            "The Silent Horizon"
        )

    def test_distinct_values_stay_distinct(self):
        assert canonical_value("2010") != canonical_value("2011")
        assert canonical_value("Michael Mann") != canonical_value("Christopher Nolan")

    def test_case_insensitive(self):
        assert canonical_value("DRAMA") == canonical_value("drama")


class TestAtomicWriteText:
    def test_writes_content(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(target, '{"a": 1}')
        assert target.read_text() == '{"a": 1}'

    def test_replaces_existing(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_no_temp_files_left(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(target, "payload")
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    @pytest.mark.skipif(
        sys.platform == "win32", reason="POSIX umask semantics"
    )
    def test_permissions_match_umask_not_mkstemp(self, tmp_path):
        """mkstemp creates 0600 temp files; the installed artifact must
        carry umask-default permissions (like a plain open()) so shared
        caches stay readable by other users/processes."""
        target = tmp_path / "out.json"
        old_umask = os.umask(0o022)
        try:
            atomic_write_text(target, "payload")
        finally:
            os.umask(old_umask)
        assert target.stat().st_mode & 0o777 == 0o644

    def test_failure_leaves_old_content_and_no_orphans(self, tmp_path, monkeypatch):
        import repro.util as util_module

        target = tmp_path / "out.json"
        target.write_text("old")

        def exploding_replace(src, dst):
            raise OSError("simulated crash mid-rename")

        monkeypatch.setattr(util_module.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            atomic_write_text(target, "new")
        monkeypatch.undo()
        assert target.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
