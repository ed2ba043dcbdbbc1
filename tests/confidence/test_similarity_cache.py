"""Memoized similarity/distribution must equal the uncached computation
(the oracle in ``tests/hotpath_oracle.py``) and must not leak mutable
cached state to callers."""

from __future__ import annotations

import random

import repro.perf as perf
from repro.confidence.similarity import similarity, value_distribution
from tests import hotpath_oracle as oracle

VALUES = [
    "Christopher Nolan", "C. Nolan", "nolan", "1999", "March 1999",
    "New York", "new york city", "", "The Matrix", "matrix reloaded",
]


def _random_sets(rng: random.Random, n: int) -> list[list[str]]:
    return [
        rng.choices(VALUES, k=rng.randint(1, 4)) for _ in range(n)
    ]


def test_similarity_cached_equals_uncached():
    rng = random.Random(99)
    sets = _random_sets(rng, 40)
    pairs = [(rng.choice(sets), rng.choice(sets)) for _ in range(200)]
    for vi, vj in pairs:
        memoized = similarity(vi, vj)
        memoized_again = similarity(vi, vj)  # served from cache
        naive = oracle.similarity(vi, vj)
        assert memoized == naive
        assert memoized_again == naive


def test_distribution_cached_equals_uncached():
    rng = random.Random(7)
    for values in _random_sets(rng, 50):
        assert value_distribution(values) == oracle.value_distribution(values)


def test_distribution_returns_fresh_dict():
    first = value_distribution(["alpha beta"])
    first["poisoned"] = 1.0
    second = value_distribution(["alpha beta"])
    assert "poisoned" not in second


def test_clear_caches_between_corpora():
    before = similarity(["x"], ["x"])
    perf.clear_caches()
    after = similarity(["x"], ["x"])
    assert before == after == 1.0
