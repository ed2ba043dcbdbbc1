"""Fig. 6 — F1 and query time under per-source corruption (0–70%).

Half of each dataset's sources are corrupted at increasing levels
(0/10/30/50/70%), as in the paper's Movies and Books panels.

Shape assertions:

* MultiRAG's F1 decreases (weakly) with the corruption level — more
  corrupted sources mean less signal for anyone;
* even at 70% corruption MultiRAG keeps a usable F1 (> 40%), because the
  uncorrupted half of the sources is identified by the credibility
  machinery;
* query time stays flat (corruption changes data quality, not the O(1)
  MLG lookup) — within 5× across levels.
"""

from __future__ import annotations

import time

from repro.core import MultiRAG, MultiRAGConfig
from repro.datasets import corrupt_sources, make_books, make_movies
from repro.eval import format_series
from repro.exec import Query
from repro.metrics import f1_score, mean

from .common import dump_results, once

LEVELS = [0.0, 0.1, 0.3, 0.5, 0.7]


def run_fig6():
    curves = {}
    for name, factory in (("movies", make_movies), ("books", make_books)):
        base = factory(seed=0)
        f1s, qts = [], []
        for level in LEVELS:
            dataset = corrupt_sources(base, level, seed=1)
            rag = MultiRAG(MultiRAGConfig())
            rag.ingest(dataset.raw_sources())
            start = time.perf_counter()
            scores = [
                f1_score(
                    {a.value for a in
                     rag.run(Query.key(q.entity, q.attribute)).answers},
                    q.answers,
                )
                for q in dataset.queries
            ]
            qts.append(time.perf_counter() - start)
            f1s.append(100.0 * mean(scores))
        curves[name] = {"f1": f1s, "qt": qts}
    return curves


def test_fig6_per_source_corruption(benchmark):
    curves = once(benchmark, run_fig6)
    dump_results("fig6", curves)

    print()
    levels_pct = [int(100 * level) for level in LEVELS]
    for name, data in curves.items():
        print(format_series(f"Fig6 {name} F1", levels_pct, data["f1"]))
        print(format_series(f"Fig6 {name} QT", levels_pct,
                            [1000 * q for q in data["qt"]], unit="ms"))

    for name, data in curves.items():
        f1s, qts = data["f1"], data["qt"]
        # Corruption hurts overall (endpoint clearly below the start).
        assert f1s[-1] < f1s[0] - 3.0, name
        # But the clean half of the sources keeps the floor usable.
        assert f1s[-1] > 40.0, name
        # Query time is insensitive to corruption level.
        assert max(qts) < 5.0 * max(min(qts), 1e-4), name
