"""Micro-benchmarks of the core components (Q5 supporting data).

These time the individual building blocks with real pytest-benchmark
statistics (multiple rounds), backing the Q5 discussion: MLG construction
is cheap ("construction times are often within seconds"), the group
lookup is O(1), and the confidence computation is the LLM-bound part.
"""

from __future__ import annotations

import pytest

from repro.adapters import DataFusionEngine
from repro.confidence import HistoryStore, NodeScorer, graph_confidence, mcc, similarity
from repro.datasets import make_movies
from repro.eval import build_substrate
from repro.linegraph import MultiSourceLineGraph
from repro.llm import SimulatedLLM
from repro.retrieval import MultiSourceRetriever


@pytest.fixture(scope="module")
def substrate():
    return build_substrate(make_movies(seed=0))


@pytest.fixture(scope="module")
def mlg(substrate):
    return MultiSourceLineGraph(substrate.graph)


def test_bench_fusion(benchmark):
    dataset = make_movies(seed=0, scale=0.5, n_queries=10)
    sources = dataset.raw_sources()
    engine = DataFusionEngine(llm=SimulatedLLM(seed=0))
    result = benchmark(lambda: engine.fuse(sources))
    assert len(result.graph) > 100


def test_bench_mlg_construction(benchmark, substrate):
    mlg = benchmark(lambda: MultiSourceLineGraph(substrate.graph))
    assert mlg.stats()["groups"] > 50


def test_bench_mlg_lookup(benchmark, substrate, mlg):
    keys = [g.key for g in mlg.groups[:100]]

    def lookup():
        return sum(len(mlg.candidates(*key)) for key in keys)

    total = benchmark(lookup)
    assert total > 100


def test_bench_graph_confidence(benchmark, mlg):
    groups = mlg.groups[:50]
    scores = benchmark(lambda: [graph_confidence(g) for g in groups])
    assert all(0.0 <= s <= 1.0 for s in scores)


def test_bench_mcc(benchmark, substrate, mlg):
    scorer = NodeScorer(substrate.graph, SimulatedLLM(seed=0), HistoryStore())
    groups = mlg.groups[:25]
    result = benchmark(lambda: mcc(groups, scorer))
    assert result.decisions


def test_bench_similarity(benchmark):
    pairs = [
        (["christopher nolan"], ["nolan, christopher"]),
        (["2010"], ["2011"]),
        (["a typhoon warning"], ["a typhoon warning"]),
        (["drama"], ["science fiction"]),
    ] * 25
    scores = benchmark(lambda: [similarity(a, b) for a, b in pairs])
    assert len(scores) == 100


def test_bench_retriever(benchmark, substrate):
    retriever: MultiSourceRetriever = substrate.retriever
    queries = [f"movie {i} directed genre" for i in range(20)]
    hits = benchmark(lambda: [retriever.retrieve(q, k=5) for q in queries])
    assert len(hits) == 20


def test_bench_lint_full_pass(benchmark):
    """A full static-analysis pass over the package: the gate must stay
    cheap enough to run on every push (and every test run)."""
    from pathlib import Path

    import repro
    from repro.lint import lint_paths

    src = Path(repro.__file__).resolve().parent
    report = benchmark(lambda: lint_paths([src]))
    assert report.ok
    assert report.files_checked > 100


def test_bench_lint_warm_cache(benchmark, tmp_path):
    """A cache-warm lint pass: content hashing plus one program-key
    check only, no parsing and no flow analysis.  Must beat the cold
    pass by a wide margin — this is the per-edit developer loop."""
    from pathlib import Path

    import repro
    from repro.lint import lint_paths

    src = Path(repro.__file__).resolve().parent
    cache = tmp_path / "lint-cache"
    cold = lint_paths([src], cache_dir=cache)  # prime
    report = benchmark(lambda: lint_paths([src], cache_dir=cache))
    assert report.ok
    assert report.flow_cached
    assert report.cache_hits == report.files_checked
    assert report.files_checked == cold.files_checked


def test_bench_lint_cold_vs_warm(tmp_path):
    """Record the cold/warm ratio explicitly: the incremental cache must
    make warm runs measurably faster than cold ones."""
    import time
    from pathlib import Path

    import repro
    from repro.lint import lint_paths

    src = Path(repro.__file__).resolve().parent
    cache = tmp_path / "lint-cache"
    start = time.perf_counter()
    cold = lint_paths([src], cache_dir=cache)
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    warm = lint_paths([src], cache_dir=cache)
    warm_s = time.perf_counter() - start
    assert cold.ok and warm.ok
    assert warm.flow_cached
    assert [f.to_dict() for f in warm.findings] == [
        f.to_dict() for f in cold.findings
    ]
    print(f"\nlint cold {cold_s:.3f}s -> warm {warm_s:.3f}s "
          f"({cold_s / max(warm_s, 1e-9):.0f}x)")
    assert warm_s < cold_s


def test_bench_callgraph_construction(benchmark):
    """Whole-program view construction (symbol table + call graph): the
    fixed cost every cold flow pass pays on top of per-file linting."""
    from pathlib import Path

    import repro
    from repro.lint import build_program_for_paths

    src = Path(repro.__file__).resolve().parent
    program = benchmark(lambda: build_program_for_paths([src]))
    assert len(program.callgraph.flows) > 400
    assert len(program.symtab.modules) > 100
