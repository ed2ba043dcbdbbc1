"""Extension — statistical significance of the headline comparison.

Table II's qualitative claim ("MultiRAG significantly outperforms other
SOTA methods" on the sparse datasets) deserves an actual test: per-query
F1 scores of MultiRAG vs the strongest baseline on Books and Stocks go
through a paired sign-flip permutation test, and MultiRAG's mean F1 gets
a bootstrap confidence interval.
"""

from __future__ import annotations

from repro.baselines import FUSION_METHODS
from repro.core import MultiRAG, MultiRAGConfig
from repro.datasets import make_books, make_stocks
from repro.eval import (
    bootstrap_ci,
    build_substrate,
    format_table,
    paired_permutation_test,
)
from repro.exec import Query
from repro.metrics import f1_score

from .common import once

CHALLENGERS = ["MDQA", "FusionQuery", "TruthFinder"]


def per_query_scores(dataset):
    rag = MultiRAG(MultiRAGConfig())
    rag.ingest(dataset.raw_sources())
    ours = [
        f1_score(
            {a.value for a in rag.run(Query.key(q.entity, q.attribute)).answers},
            q.answers,
        )
        for q in dataset.queries
    ]
    substrate = build_substrate(dataset)
    theirs = {}
    for name in CHALLENGERS:
        method = FUSION_METHODS[name]()
        method.setup(substrate)
        theirs[name] = [
            f1_score(method.query(q.entity, q.attribute), q.answers)
            for q in dataset.queries
        ]
    return ours, theirs


def run_significance():
    results = {}
    for name, factory in (("books", make_books), ("stocks", make_stocks)):
        ours, theirs = per_query_scores(factory(seed=0))
        ci = bootstrap_ci(ours, seed=0)
        tests = {
            challenger: paired_permutation_test(ours, scores, seed=0)
            for challenger, scores in theirs.items()
        }
        results[name] = {"ci": ci, "tests": tests}
    return results


def test_significance(benchmark):
    results = once(benchmark, run_significance)

    print()
    rows = []
    for dataset, cell in results.items():
        ci = cell["ci"]
        rows.append([dataset, "MultiRAG CI",
                     f"{100 * ci.mean:.1f} [{100 * ci.low:.1f}, "
                     f"{100 * ci.high:.1f}]", "-"])
        for challenger, test in cell["tests"].items():
            rows.append([
                dataset, f"vs {challenger}",
                f"+{100 * test.observed_difference:.1f}",
                f"p={test.p_value:.4f}",
            ])
    print(format_table(["dataset", "comparison", "F1 (mean/diff)", "p-value"],
                       rows, title="Significance of the sparse-data wins"))

    for dataset, cell in results.items():
        for challenger, test in cell["tests"].items():
            assert test.observed_difference > 0, (dataset, challenger)
        # The win over at least two of the three challengers survives a
        # paired permutation test at alpha = 0.05.
        significant = sum(
            1 for t in cell["tests"].values() if t.significant(0.05)
        )
        assert significant >= 2, dataset
