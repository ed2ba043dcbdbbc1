"""Fig. 5 — robustness to data sparsity and inconsistency (Q2).

(a)/(c): consistency corruption (30/50/70% shuffled triple increments) on
the dense datasets (Movies, Flights); (b)/(d): relationship masking
(30/50/70%) on the sparse datasets (Books, Stocks).  MultiRAG vs ChatKBQA,
exactly the two methods the paper plots.

Shape assertions:

* MultiRAG stays above ChatKBQA at every perturbation level;
* under consistency corruption ChatKBQA degrades faster (its unweighted
  support counting absorbs the shuffled increments), i.e. MultiRAG's drop
  from level 0 → 70% is smaller;
* under masking both methods lose F1 as redundancy disappears.
"""

from __future__ import annotations

from repro.core import MultiRAG, MultiRAGConfig
from repro.datasets import (
    corrupt_consistency,
    make_books,
    make_flights,
    make_movies,
    make_stocks,
    mask_relations,
)
from repro.eval import build_substrate, format_series, run_fusion_method
from repro.exec import Query
from repro.metrics import f1_score, mean

from .common import dump_results, fusion_method, once

LEVELS = [0.0, 0.3, 0.5, 0.7]


def multirag_f1(dataset) -> float:
    rag = MultiRAG(MultiRAGConfig())
    rag.ingest(dataset.raw_sources())
    return 100.0 * mean(
        f1_score(
            {a.value for a in rag.run(Query.key(q.entity, q.attribute)).answers},
            q.answers,
        )
        for q in dataset.queries
    )


def chatkbqa_f1(dataset) -> float:
    substrate = build_substrate(dataset)
    return run_fusion_method(fusion_method("ChatKBQA"), substrate, dataset).f1


def run_fig5():
    curves = {}
    # (a)/(c) consistency corruption on dense datasets.
    for name, factory in (("movies", make_movies), ("flights", make_flights)):
        base = factory(seed=0)
        for label, fn in (("MultiRAG", multirag_f1), ("ChatKBQA", chatkbqa_f1)):
            curves[(name, "consistency", label)] = [
                fn(corrupt_consistency(base, level, seed=1)) for level in LEVELS
            ]
    # (b)/(d) sparsity masking on sparse datasets.
    for name, factory in (("books", make_books), ("stocks", make_stocks)):
        base = factory(seed=0)
        for label, fn in (("MultiRAG", multirag_f1), ("ChatKBQA", chatkbqa_f1)):
            curves[(name, "sparsity", label)] = [
                fn(mask_relations(base, level, seed=1)) for level in LEVELS
            ]
    return curves


def test_fig5_sparsity_and_consistency(benchmark):
    curves = once(benchmark, run_fig5)
    dump_results("fig5", {"|".join(k): v for k, v in curves.items()})

    print()
    levels_pct = [int(100 * level) for level in LEVELS]
    for (dataset, kind, label), ys in sorted(curves.items()):
        print(format_series(f"Fig5 {dataset} {kind} {label}", levels_pct, ys))

    for dataset, kind in {(d, k) for d, k, _ in curves}:
        ours = curves[(dataset, kind, "MultiRAG")]
        theirs = curves[(dataset, kind, "ChatKBQA")]
        # MultiRAG on top at every level.
        for level, (a, b) in enumerate(zip(ours, theirs)):
            assert a > b, (dataset, kind, level)
        if kind == "consistency":
            # ChatKBQA degrades faster under shuffled increments.
            assert (theirs[0] - theirs[-1]) > (ours[0] - ours[-1]), dataset
        else:
            # Masking hurts both (less redundancy to fuse).
            assert ours[-1] < ours[0], dataset
            assert theirs[-1] < theirs[0], dataset
