"""Extension ablation — mutual-information similarity vs exact matching.

DESIGN.md §5: the MI-entropy similarity (Eqs. 4–6) exists to score
surface variants of the same value as similar.  This ablation swaps it
for exact string agreement inside the consistency computation and
measures the F1 cost on the variant-heavy Books dataset.
"""

from __future__ import annotations

import pytest

import repro.confidence.node_level as node_level_module
from repro.core import MultiRAG, MultiRAGConfig
from repro.datasets import make_books
from repro.eval import format_table
from repro.metrics import f1_score, mean
from repro.util import normalize_value
from repro.exec import Query

from .common import once


def exact_similarity(values_i, values_j):
    """Degenerate similarity: 1.0 on exact normalized match, else 0.0."""
    a = {normalize_value(v) for v in values_i}
    b = {normalize_value(v) for v in values_j}
    return 1.0 if a == b and a else 0.0


def run_once() -> float:
    dataset = make_books(seed=0)
    rag = MultiRAG(MultiRAGConfig())
    rag.ingest(dataset.raw_sources())
    return 100.0 * mean(
        f1_score(
            {a.value for a in rag.run(Query.key(q.entity, q.attribute)).answers},
            q.answers,
        )
        for q in dataset.queries
    )


def run_ablation(monkeypatch_target) -> dict[str, float]:
    results = {"mutual-information": run_once()}
    original = node_level_module.similarity
    node_level_module.similarity = exact_similarity
    try:
        results["exact-match"] = run_once()
    finally:
        node_level_module.similarity = original
    return results


def test_similarity_ablation(benchmark):
    results = once(benchmark, lambda: run_ablation(None))

    print()
    print(format_table(
        ["consistency similarity", "books F1"],
        [[k, f"{v:.1f}"] for k, v in results.items()],
        title="Ablation — MI similarity vs exact match in S_n",
    ))

    # MI similarity must not lose to exact matching; variant-heavy data is
    # where the normalized information measure earns its keep.
    assert results["mutual-information"] >= results["exact-match"] - 0.5
