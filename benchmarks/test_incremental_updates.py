"""Extension — incremental MLG maintenance vs full re-ingestion.

The KGFabric reference behind the paper's knowledge construction is an
enterprise KG *warehouse*: data keeps arriving.  This benchmark adds the
last three sources of the Books dataset one at a time to an already-built
pipeline, comparing `MultiRAG.add_source` against re-ingesting everything,
and checks the incremental path reaches the same answers.
"""

from __future__ import annotations

import time

from repro.core import MultiRAG, MultiRAGConfig
from repro.datasets import make_books
from repro.eval import format_table
from repro.exec import Query
from repro.metrics import f1_score, mean

from .common import once


def run_incremental():
    dataset = make_books(seed=0)
    raw_sources = dataset.raw_sources()
    base, additions = raw_sources[:-3], raw_sources[-3:]

    # Incremental: ingest the base once, then add_source per arrival.
    incremental = MultiRAG(MultiRAGConfig())
    incremental.ingest(base)
    start = time.perf_counter()
    for raw in additions:
        incremental.add_source(raw)
    incremental_time = time.perf_counter() - start

    # Full rebuild per arrival (the naive alternative).
    start = time.perf_counter()
    rebuild = MultiRAG(MultiRAGConfig())
    for i in range(len(additions)):
        rebuild = MultiRAG(MultiRAGConfig())
        rebuild.ingest(base + additions[: i + 1])
    rebuild_time = time.perf_counter() - start

    def f1(rag):
        return 100.0 * mean(
            f1_score(
                {a.value for a in rag.run(Query.key(q.entity, q.attribute)).answers},
                q.answers,
            )
            for q in dataset.queries
        )

    return {
        "incremental_time": incremental_time,
        "rebuild_time": rebuild_time,
        "incremental_f1": f1(incremental),
        "rebuild_f1": f1(rebuild),
        "incremental_groups": incremental.mlg.stats()["groups"],
        "rebuild_groups": rebuild.mlg.stats()["groups"],
    }


def test_incremental_vs_rebuild(benchmark):
    results = once(benchmark, run_incremental)

    print()
    print(format_table(
        ["strategy", "update time (3 arrivals)", "F1", "groups"],
        [
            ["incremental add_source",
             f"{results['incremental_time']:.3f}s",
             f"{results['incremental_f1']:.1f}",
             results["incremental_groups"]],
            ["full re-ingest",
             f"{results['rebuild_time']:.3f}s",
             f"{results['rebuild_f1']:.1f}",
             results["rebuild_groups"]],
        ],
        title="Incremental MLG maintenance",
    ))

    # Same structure, same answer quality, meaningfully cheaper.
    assert results["incremental_groups"] == results["rebuild_groups"]
    assert abs(results["incremental_f1"] - results["rebuild_f1"]) < 3.0
    assert results["incremental_time"] < results["rebuild_time"]
