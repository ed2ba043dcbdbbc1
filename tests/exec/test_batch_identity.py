"""The determinism contract: parallel runs are byte-identical to sequential.

These are the acceptance tests for :mod:`repro.exec` — an
``evaluate(..., jobs=4)`` report must compare byte-for-byte equal (via
``to_json(drop_timing=True)``) with the sequential report, across seeds
and worker counts, and the trace/metrics telemetry must match too.
"""

from __future__ import annotations

import pytest

import repro.exec.engine
from repro.core import MultiRAG, MultiRAGConfig
from repro.exec import ENV_WORKERS
from repro.obs import Observability

from tests.conftest import make_sources
from tests.exec.conftest import EVAL_QUERIES, build_pipeline


def report_json(rag: MultiRAG, **kwargs) -> str:
    return rag.evaluate(list(EVAL_QUERIES), **kwargs).to_json(drop_timing=True)


class TestReportIdentity:
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_parallel_report_matches_sequential(self, seed):
        sequential = report_json(build_pipeline(seed=seed))
        parallel = report_json(build_pipeline(seed=seed), jobs=4)
        assert parallel == sequential

    @pytest.mark.parametrize("jobs", [1, 2, 3, 8])
    def test_every_worker_count_agrees(self, jobs):
        baseline = report_json(build_pipeline(seed=0))
        assert report_json(build_pipeline(seed=0), jobs=jobs) == baseline

    def test_batch_size_does_not_change_results(self, monkeypatch):
        baseline = report_json(build_pipeline(seed=0), jobs=4)
        monkeypatch.setattr(repro.exec.engine, "BATCH_SIZE", 2)
        small_batches = report_json(build_pipeline(seed=0), jobs=4)
        assert small_batches == baseline

    def test_env_var_routes_through_engine(self, monkeypatch):
        baseline = report_json(build_pipeline(seed=0))
        monkeypatch.setenv(ENV_WORKERS, "4")
        assert report_json(build_pipeline(seed=0)) == baseline

    def test_report_scores_are_meaningful(self):
        report = build_pipeline(seed=0).evaluate(list(EVAL_QUERIES), jobs=4)
        assert len(report.per_query) == len(EVAL_QUERIES)
        assert report.mean_f1 > 50.0
        assert report.prompt_time_s > 0.0


class TestStatefulSerialization:
    def test_update_history_run_serializes_and_matches_legacy(self):
        """With consensus feedback on, the engine must serialize — and
        produce exactly what a plain ``run`` loop produces."""
        legacy = build_pipeline(seed=0, update_history=True)
        legacy_results = [legacy.run(q) for q in EVAL_QUERIES]

        engine = build_pipeline(seed=0, update_history=True)
        engine_results = engine.run_batch(list(EVAL_QUERIES), jobs=4)

        for a, b in zip(legacy_results, engine_results):
            assert a.answer_set() == b.answer_set()
            assert a.generated_text == b.generated_text
            assert a.trace == b.trace

    def test_stateful_report_identity(self):
        sequential = report_json(build_pipeline(seed=0, update_history=True))
        parallel = report_json(
            build_pipeline(seed=0, update_history=True), jobs=4
        )
        assert parallel == sequential


class TestTelemetryIdentity:
    @staticmethod
    def _run(jobs: int) -> MultiRAG:
        config = MultiRAGConfig(seed=0, extraction_noise=0.0,
                                update_history=False)
        rag = MultiRAG.from_config(config, obs=Observability.enable())
        rag.ingest(make_sources())
        rag.run_batch(list(EVAL_QUERIES), jobs=jobs)
        return rag

    def test_trace_identity_across_worker_counts(self):
        sequential = self._run(jobs=1)
        parallel = self._run(jobs=4)
        assert (parallel.obs.tracer.to_json(drop_timing=True)
                == sequential.obs.tracer.to_json(drop_timing=True))

    def test_metrics_identity_across_worker_counts(self):
        sequential = self._run(jobs=1)
        parallel = self._run(jobs=4)
        assert parallel.obs.metrics.snapshot() == sequential.obs.metrics.snapshot()

    def test_meter_identity_across_worker_counts(self):
        sequential = self._run(jobs=1)
        parallel = self._run(jobs=4)
        assert parallel.llm.meter.snapshot() == sequential.llm.meter.snapshot()
        assert (parallel.llm.meter.stage_snapshot()
                == sequential.llm.meter.stage_snapshot())


class TestChainAndTextQueries:
    def test_mixed_kinds_round_trip_through_engine(self, readonly_rag):
        from repro.exec import Query

        queries = [
            Query.key("Heat", "directed_by"),
            Query.text("Inception | release_year"),
            Query.chain([("Inception", "directed_by")]),
        ]
        sequential = [readonly_rag.run(q) for q in queries]
        parallel = build_pipeline(seed=0).run_batch(queries, jobs=3)
        for a, b in zip(sequential, parallel):
            assert a.answer_set() == b.answer_set()
            assert a.generated_text == b.generated_text
