"""Extension ablation — historical credibility on/off (DESIGN.md §5).

Compares the full pipeline against ``update_history=False`` (neither
construction-time calibration nor per-query consensus updates) on the two
sparse datasets, and checks that the calibrated credibility estimates
actually track the generators' hidden source reliabilities.
"""

from __future__ import annotations

import numpy as np

from repro.core import MultiRAG, MultiRAGConfig
from repro.datasets import make_books, make_stocks
from repro.eval import format_table
from repro.exec import Query
from repro.metrics import f1_score, mean

from .common import once


def run_history_ablation():
    results = {}
    for name, factory in (("books", make_books), ("stocks", make_stocks)):
        dataset = factory(seed=0)
        for label, config in (
            ("with-history", MultiRAGConfig()),
            ("no-history", MultiRAGConfig(update_history=False)),
        ):
            rag = MultiRAG(config)
            rag.ingest(dataset.raw_sources())
            f1 = 100.0 * mean(
                f1_score(
                    {a.value for a in
                     rag.run(Query.key(q.entity, q.attribute)).answers},
                    q.answers,
                )
                for q in dataset.queries
            )
            correlation = float("nan")
            if label == "with-history":
                snapshot = rag.history.snapshot()
                pairs = [
                    (s.reliability, snapshot[s.source_id])
                    for s in dataset.source_specs if s.source_id in snapshot
                ]
                xs, ys = zip(*pairs)
                correlation = float(np.corrcoef(xs, ys)[0, 1])
            results[(name, label)] = {"f1": f1, "corr": correlation}
    return results


def test_history_ablation(benchmark):
    results = once(benchmark, run_history_ablation)

    print()
    rows = [
        [ds, label, f"{cell['f1']:.1f}", f"{cell['corr']:.2f}"]
        for (ds, label), cell in results.items()
    ]
    print(format_table(
        ["dataset", "history", "F1", "reliability corr"], rows,
        title="Ablation — historical credibility",
    ))

    for name in ("books", "stocks"):
        with_h = results[(name, "with-history")]
        no_h = results[(name, "no-history")]
        # History never hurts, and the estimates track true reliability.
        assert with_h["f1"] >= no_h["f1"] - 1.0, name
        assert with_h["corr"] > 0.4, name
