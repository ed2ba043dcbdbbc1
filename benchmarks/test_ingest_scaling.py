"""Ingest scaling — parallel ingest over workers × corpus scale.

ROADMAP item 2 asks for paper-scale and 10×-paper-scale corpora with
tracked throughput and memory ceilings.  This benchmark sweeps the
generated hotpot corpus at three scales (the generator defaults sit
~20× below the paper's corpora, so ``paper`` is ``corpus_scale=20`` and
``10x_paper`` is ``corpus_scale=200``) and enforces three contracts:

* **Parallel throughput** — with simulated per-call wall latency (the
  regime parallel ingest exists for: extraction calls that wait on a
  backend), 4 workers must ingest the 1× hotpot corpus ≥ 2.5× faster
  than 1 worker, and the parallel graph must be byte-identical to the
  sequential one.
* **Memory ceilings** — tracemalloc heap peaks at 1× and paper scale,
  plus the process peak RSS after the 10×-paper ingest, must stay under
  the committed ceilings; a superlinear memory regression fails here
  long before it OOMs a runner.
* **Regression gate** — measured speedups are compared against the
  ``baseline`` block committed in ``results/ingest_scaling.json`` with
  the same 75 % floor as ``test_perf_hotpath``.  Speedups are ratios,
  so the gate stays portable across runner hardware; absolute
  throughput (chunks/s) is recorded but not gated.

The 10×-paper sweep runs once at 4 workers without tracemalloc (tracing
quadruples its runtime); its memory ceiling uses ``ru_maxrss``, which is
the whole-process peak — honest for the largest corpus because it dwarfs
every earlier allocation in the run.
"""

from __future__ import annotations

import resource
import time
import tracemalloc

from repro.core import MultiRAG, MultiRAGConfig
from repro.datasets.multihop import make_hotpotqa_like
from repro.eval import format_table

from .common import dump_results, once
from .test_perf_hotpath import REGRESSION_TOLERANCE, _check_against_baseline

#: ISSUE acceptance: ≥ this speedup at 4 workers on the 1× hotpot corpus.
MIN_PARALLEL_SPEEDUP = 2.5

#: corpus_scale knobs: generator defaults are ~20× below the paper.
PAPER_SCALE = 20.0
TENX_PAPER_SCALE = 200.0

#: (label, corpus_scale, wall_latency_scale, worker counts).  The wall
#: latency per extraction call shrinks as the corpus grows so each
#: sequential leg stays under ~25 s; the paper-scale sweep skips 2
#: workers for the same reason.
WORKER_SWEEPS = [
    ("1x", 1.0, 0.03, [1, 2, 4]),
    ("paper", PAPER_SCALE, 0.01, [1, 4]),
]

#: tracemalloc heap-peak ceilings (MB) for a jobs=4 ingest.
MEMORY_CEILINGS_MB = {"1x": 16.0, "paper": 160.0}

#: process peak-RSS ceiling (MB) after the 10×-paper ingest.
TENX_RSS_CEILING_MB = 1500.0


def _corpus(scale: float):
    return make_hotpotqa_like(n_queries=4, seed=0, corpus_scale=scale)


def _ingest(sources, *, jobs, latency=0.0):
    rag = MultiRAG.from_config(MultiRAGConfig(seed=0))
    rag.llm.wall_latency_scale = latency
    start = time.perf_counter()
    rag.ingest(sources, jobs=jobs)
    return rag, time.perf_counter() - start


def run_worker_sweeps():
    rows = []
    for label, scale, latency, workers in WORKER_SWEEPS:
        dataset = _corpus(scale)
        base_time = None
        triples = {}
        for jobs in workers:
            rag, elapsed = _ingest(dataset.sources, jobs=jobs, latency=latency)
            if base_time is None:
                base_time = elapsed
            triples[jobs] = list(rag.fusion.graph.triples())
            rows.append({
                "scale": label,
                "jobs": jobs,
                "chunks": len(rag.fusion.chunks),
                "seconds": round(elapsed, 3),
                "chunks_per_s": round(len(rag.fusion.chunks) / elapsed, 1),
                "speedup": round(base_time / elapsed, 2),
            })
        # Parallelism must not change a single triple.
        assert triples[workers[0]] == triples[workers[-1]], (
            f"{label}: parallel ingest diverged from the sequential graph"
        )
    return rows


def run_memory_sweeps():
    rows = []
    for label, scale, _, _ in WORKER_SWEEPS:
        dataset = _corpus(scale)
        tracemalloc.start()
        _ingest(dataset.sources, jobs=4)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peak_mb = peak / 1e6
        ceiling = MEMORY_CEILINGS_MB[label]
        assert peak_mb <= ceiling, (
            f"{label}: ingest heap peak {peak_mb:.1f} MB exceeds the "
            f"{ceiling:.0f} MB ceiling"
        )
        rows.append({
            "scale": label,
            "heap_peak_mb": round(peak_mb, 1),
            "ceiling_mb": ceiling,
        })
    return rows


def run_tenx_paper():
    dataset = _corpus(TENX_PAPER_SCALE)
    rag, elapsed = _ingest(dataset.sources, jobs=4)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    assert rss_mb <= TENX_RSS_CEILING_MB, (
        f"10×-paper ingest pushed process RSS to {rss_mb:.0f} MB "
        f"(ceiling {TENX_RSS_CEILING_MB:.0f} MB)"
    )
    return {
        "scale": "10x_paper",
        "jobs": 4,
        "chunks": len(rag.fusion.chunks),
        "triples": len(rag.fusion.graph),
        "seconds": round(elapsed, 1),
        "chunks_per_s": round(len(rag.fusion.chunks) / elapsed, 1),
        "peak_rss_mb": round(rss_mb, 1),
        "rss_ceiling_mb": TENX_RSS_CEILING_MB,
    }


def run_ingest_scaling():
    return {
        "workers": run_worker_sweeps(),
        "memory": run_memory_sweeps(),
        "tenx": run_tenx_paper(),
    }


def test_ingest_scaling(benchmark):
    data = once(benchmark, run_ingest_scaling)

    print()
    print(format_table(
        ["scale", "jobs", "chunks", "seconds", "chunks/s", "speedup"],
        [[r["scale"], r["jobs"], r["chunks"], f"{r['seconds']:.2f}",
          f"{r['chunks_per_s']:.0f}", f"{r['speedup']:.2f}x"]
         for r in data["workers"]],
        title="Parallel ingest: worker scaling (simulated call latency)",
    ))
    print(format_table(
        ["scale", "heap peak (MB)", "ceiling (MB)"],
        [[r["scale"], r["heap_peak_mb"], r["ceiling_mb"]]
         for r in data["memory"]],
        title="Ingest memory ceilings (tracemalloc, jobs=4)",
    ))
    tenx = data["tenx"]
    print(
        f"10×-paper  {tenx['chunks']} chunks  {tenx['seconds']:.1f} s  "
        f"{tenx['chunks_per_s']:.0f} chunks/s  "
        f"RSS {tenx['peak_rss_mb']:.0f}/{tenx['rss_ceiling_mb']:.0f} MB"
    )

    speedups = {
        f"{r['scale']}_speedup_w{r['jobs']}": r["speedup"]
        for r in data["workers"] if r["jobs"] > 1
    }
    assert speedups["1x_speedup_w4"] >= MIN_PARALLEL_SPEEDUP, (
        f"4-worker ingest is only {speedups['1x_speedup_w4']:.2f}x the "
        f"sequential path (floor {MIN_PARALLEL_SPEEDUP}x)"
    )
    baseline = _check_against_baseline("ingest_scaling", speedups)

    dump_results("ingest_scaling", {
        "baseline": baseline,
        "measured": speedups,
        "workers": data["workers"],
        "memory": data["memory"],
        "tenx": tenx,
        "regression_tolerance": REGRESSION_TOLERANCE,
        "min_parallel_speedup": MIN_PARALLEL_SPEEDUP,
    })
