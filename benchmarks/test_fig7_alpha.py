"""Fig. 7 — influence of the authority blend α on retrieval quality.

Sweeps α (the Eq. 9 weight between LLM-assessed and historical authority)
from 0.0 to 1.0 on the Books dataset and reports F1 and prompt time.

Shape assertions (and one documented divergence):

* the default α = 0.5 is within 2.5 F1 points of the sweep's best — the
  blend never costs much;
* the curve is stable: the full α range spans < 8 F1 points;
* pure-LLM authority (α = 1.0) does not beat the blend.

Divergence from the paper (recorded in EXPERIMENTS.md): the paper sees a
strict peak at α = 0.5; here construction-time calibration makes
historical authority strong enough that low α is never penalized, so the
curve is flat-to-declining rather than an inverted U.
"""

from __future__ import annotations

from repro.core import MultiRAG, MultiRAGConfig
from repro.datasets import make_books
from repro.eval import format_series
from repro.exec import Query
from repro.metrics import f1_score, mean

from .common import dump_results, once

ALPHAS = [0.0, 0.25, 0.5, 0.75, 1.0]


def run_fig7():
    dataset = make_books(seed=0)
    f1s, pts = [], []
    for alpha in ALPHAS:
        rag = MultiRAG(MultiRAGConfig(alpha=alpha))
        rag.ingest(dataset.raw_sources())
        usage_before = rag.llm.meter.checkpoint()
        scores = [
            f1_score(
                {a.value for a in
                 rag.run(Query.key(q.entity, q.attribute)).answers},
                q.answers,
            )
            for q in dataset.queries
        ]
        f1s.append(100.0 * mean(scores))
        pts.append(
            (rag.llm.meter.latency_ns - usage_before.latency_ns) / 1e9
        )
    return f1s, pts


def test_fig7_alpha_sweep(benchmark):
    f1s, pts = once(benchmark, run_fig7)
    dump_results("fig7", {"alphas": ALPHAS, "f1": f1s, "pt": pts})

    print()
    print(format_series("Fig7 F1 vs alpha", ALPHAS, f1s))
    print(format_series("Fig7 PT vs alpha", ALPHAS, pts, unit="s"))

    best = max(f1s)
    default = f1s[ALPHAS.index(0.5)]
    assert default >= best - 2.5
    assert best - min(f1s) < 8.0
    assert f1s[ALPHAS.index(1.0)] <= default + 1.0
