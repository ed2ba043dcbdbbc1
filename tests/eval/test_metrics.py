"""Tests for evaluation metrics."""

from __future__ import annotations

import pytest

from repro.eval import (
    f1_score,
    mean,
    normalized,
    precision,
    recall,
    recall_at_k,
    std,
)


class TestPrecisionRecall:
    def test_perfect(self):
        assert precision({"a"}, {"a"}) == 1.0
        assert recall({"a"}, {"a"}) == 1.0

    def test_partial_precision(self):
        assert precision({"a", "b"}, {"a"}) == 0.5

    def test_partial_recall(self):
        assert recall({"a"}, {"a", "b"}) == 0.5

    def test_empty_prediction_against_gold(self):
        assert precision(set(), {"a"}) == 0.0
        assert recall(set(), {"a"}) == 0.0

    def test_empty_gold(self):
        assert recall({"a"}, set()) == 1.0
        assert precision(set(), set()) == 1.0

    def test_surface_variants_count_as_match(self):
        assert precision({"Nolan, Christopher"}, {"Christopher Nolan"}) == 1.0


class TestF1:
    def test_harmonic_mean(self):
        assert f1_score({"a", "b"}, {"a"}) == pytest.approx(2 / 3)

    def test_zero_when_disjoint(self):
        assert f1_score({"a"}, {"b"}) == 0.0

    def test_perfect_multi_valued(self):
        assert f1_score({"a", "b"}, {"b", "a"}) == 1.0

    def test_single_of_two(self):
        assert f1_score({"a"}, {"a", "b"}) == pytest.approx(2 / 3)


class TestRecallAtK:
    def test_hit_within_k(self):
        assert recall_at_k(["x", "gold", "y"], {"gold"}, k=3) == 1.0

    def test_miss_beyond_k(self):
        assert recall_at_k(["x", "y", "gold"], {"gold"}, k=2) == 0.0

    def test_multi_gold_partial(self):
        assert recall_at_k(["a", "z"], {"a", "b"}, k=5) == 0.5

    def test_empty_gold(self):
        assert recall_at_k(["x"], set(), k=5) == 1.0

    def test_duplicates_count_once(self):
        assert recall_at_k(["a", "a", "a"], {"a", "b"}, k=3) == 0.5


class TestAggregates:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0

    def test_std(self):
        assert std([2.0, 2.0, 2.0]) == 0.0
        assert std([1.0]) == 0.0
        assert std([0.0, 2.0]) == 1.0


class TestNormalized:
    def test_blank_values_dropped(self):
        assert normalized(["", "  ", "a"]) == {"a"}

    def test_canonicalization(self):
        assert len(normalized(["$5.00", "5.00"])) == 1
