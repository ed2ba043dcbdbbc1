"""Pipeline-level observability: span taxonomy, determinism, reports."""

from __future__ import annotations

from repro.core import MultiRAG, MultiRAGConfig
from repro.core.pipeline import EvaluationReport
from repro.exec import Query
from repro.llm.base import LLMResponse, UsageMeter
from repro.llm.stage import Stage
from repro.obs import Observability, TickClock, Tracer, render_waterfall

from tests.conftest import make_sources


def run_pipeline(obs: Observability) -> MultiRAG:
    rag = MultiRAG(MultiRAGConfig(extraction_noise=0.0), obs=obs)
    rag.ingest(make_sources())
    rag.run(Query.key("Inception", "release_year"))
    rag.run(Query.key("Heat", "directed_by"))
    return rag


class TestSpanTaxonomy:
    def test_expected_stage_names(self):
        obs = Observability.enable(clock=TickClock())
        run_pipeline(obs)
        names = {s.name for s in obs.tracer.walk()}
        for expected in ("ingest", "linegraph.build", "mklgp",
                         "mcc.graph", "mcc.node", "generate"):
            assert expected in names, expected
        assert any(n.startswith("adapter:") for n in names)

    def test_adapter_spans_nest_under_ingest(self):
        obs = Observability.enable(clock=TickClock())
        run_pipeline(obs)
        ingest = next(s for s in obs.tracer.walk() if s.name == "ingest")
        adapters = [s for s in obs.tracer.walk()
                    if s.name.startswith("adapter:")]
        assert adapters
        assert all(s.parent_id == ingest.span_id for s in adapters)

    def test_token_usage_folded_into_spans(self):
        obs = Observability.enable(clock=TickClock())
        run_pipeline(obs)
        generate = [s for s in obs.tracer.walk() if s.name == "generate"]
        assert generate
        assert all(s.attrs.get("calls", 0) >= 1 for s in generate)
        assert all("prompt_tokens" in s.attrs for s in generate)

    def test_waterfall_renders_from_export(self):
        obs = Observability.enable(clock=TickClock())
        run_pipeline(obs)
        text = render_waterfall(obs.tracer.to_dicts())
        assert "ingest" in text and "mklgp" in text
        assert "▆" in text


class TestTraceDeterminism:
    def test_two_seeded_runs_export_identical_bytes(self):
        """The acceptance criterion: identical seeded runs, identical
        trace files (TickClock makes even the timing fields replayable)."""
        exports = []
        for _ in range(2):
            obs = Observability.enable(clock=TickClock())
            run_pipeline(obs)
            exports.append(obs.tracer.to_jsonl())
        assert exports[0] == exports[1]

    def test_wall_clock_runs_match_modulo_timing(self):
        exports = []
        for _ in range(2):
            obs = Observability.enable()
            run_pipeline(obs)
            exports.append(obs.tracer.to_jsonl(drop_timing=True))
        assert exports[0] == exports[1]

    def test_metrics_snapshots_identical_across_runs(self):
        snaps = []
        for _ in range(2):
            obs = Observability.enable(clock=TickClock())
            run_pipeline(obs)
            snaps.append(obs.metrics.to_json())
        assert snaps[0] == snaps[1]

    def test_audit_trails_identical_across_runs(self):
        trails = []
        for _ in range(2):
            obs = Observability.enable(clock=TickClock())
            run_pipeline(obs)
            trails.append(obs.audit.to_jsonl())
        assert trails[0] == trails[1]


class TestEvaluationReport:
    def test_worst_breaks_score_ties_on_query_id(self):
        report = EvaluationReport(
            per_query=[("q3", 0.5), ("q1", 0.5), ("q2", 0.1)]
        )
        assert report.worst(3) == [("q2", 0.1), ("q1", 0.5), ("q3", 0.5)]

    def test_metrics_snapshot_attached_when_enabled(self):
        obs = Observability.enable()
        rag = MultiRAG(MultiRAGConfig(extraction_noise=0.0), obs=obs)
        rag.ingest(make_sources())

        class Q:
            entity, attribute, answers, qid = (
                "Inception", "release_year", {"2010"}, "q0"
            )

        report = rag.evaluate([Q()])
        assert report.metrics["counters"]["pipeline.queries"] == 1.0
        assert "pipeline.queries" in report.metrics_table()

    def test_metrics_empty_when_disabled(self):
        rag = MultiRAG(MultiRAGConfig(extraction_noise=0.0))
        rag.ingest(make_sources())

        class Q:
            entity, attribute, answers, qid = (
                "Heat", "directed_by", {"Michael Mann"}, "q0"
            )

        report = rag.evaluate([Q()])
        assert report.metrics == {}
        assert report.metrics_table() == ""


class TestUsageCheckpoint:
    def test_delta_measures_only_new_usage(self):
        meter = UsageMeter()
        meter.record(Stage.NER, LLMResponse(
            text="a", prompt_tokens=10, completion_tokens=5, latency_s=0.5
        ))
        mark = meter.checkpoint()
        meter.record(Stage.SYNTHESIS, LLMResponse(
            text="b", prompt_tokens=7, completion_tokens=3, latency_s=0.25
        ))
        delta = meter.delta(mark)
        assert delta == {
            "calls": 1, "prompt_tokens": 7, "completion_tokens": 3,
            "simulated_latency_s": 0.25,
        }

    def test_checkpoint_does_not_reset_the_meter(self):
        meter = UsageMeter()
        meter.record(Stage.OTHER, LLMResponse(
            text="a", prompt_tokens=1, completion_tokens=1, latency_s=0.1
        ))
        meter.checkpoint()
        assert meter.calls == 1  # totals untouched

    def test_overlapping_checkpoints_do_not_race(self):
        """Two concurrent phases each see their own delta — impossible
        with the old reset-based accounting."""
        meter = UsageMeter()
        outer = meter.checkpoint()
        meter.record(Stage.NER, LLMResponse(
            text="a", prompt_tokens=2, completion_tokens=1, latency_s=0.1
        ))
        inner = meter.checkpoint()
        meter.record(Stage.STD, LLMResponse(
            text="b", prompt_tokens=4, completion_tokens=2, latency_s=0.1
        ))
        assert meter.delta(inner)["prompt_tokens"] == 4
        assert meter.delta(outer)["prompt_tokens"] == 6
