"""Extension ablation — node-threshold calibration (DESIGN.md §5).

The paper quotes θ = 0.7 on its (unnormalized) confidence scale; this
implementation's ``C(v) = S_n + A`` lives in [0, 2].  The sweep shows why
the shipped default is θ = 1.0: it is the operating point that balances
the dense datasets (which favour strict filtering) against the sparse
ones (which favour lenient filtering plus hedging).
"""

from __future__ import annotations

from repro.core import MultiRAG, MultiRAGConfig
from repro.datasets import make_books, make_flights
from repro.eval import format_table
from repro.exec import Query
from repro.metrics import f1_score, mean

from .common import once

THETAS = [0.6, 0.8, 1.0, 1.2, 1.4]


def run_threshold_sweep():
    results = {}
    for name, factory in (("books", make_books), ("flights", make_flights)):
        dataset = factory(seed=0)
        for theta in THETAS:
            rag = MultiRAG(MultiRAGConfig(node_threshold=theta))
            rag.ingest(dataset.raw_sources())
            results[(name, theta)] = 100.0 * mean(
                f1_score(
                    {a.value for a in
                     rag.run(Query.key(q.entity, q.attribute)).answers},
                    q.answers,
                )
                for q in dataset.queries
            )
    return results


def test_node_threshold_sweep(benchmark):
    results = once(benchmark, run_threshold_sweep)

    print()
    rows = [[ds, theta, f"{f1:.1f}"] for (ds, theta), f1 in results.items()]
    print(format_table(["dataset", "theta", "F1"], rows,
                       title="Ablation — node threshold sweep"))

    for name in ("books", "flights"):
        default = results[(name, 1.0)]
        best = max(results[(name, t)] for t in THETAS)
        # The shipped default stays within 3 F1 points of the per-dataset
        # optimum on both density regimes.
        assert default >= best - 3.0, name
