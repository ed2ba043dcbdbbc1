"""Gateway acceptance at pipeline level.

The headline contracts of the multi-backend gateway:

* routing everything to the ``default`` backend is **byte-identical** to
  running with no gateway at all — same report, traces, audit trail and
  usage totals; the only telemetry difference is the gateway's own new
  ``llm.gateway.*`` counters;
* heterogeneous routing changes cost models, never answers;
* scripted backend failures degrade **deterministically**: seeded reruns
  and every worker count produce identical reports, events and usage.

Query-time LLM stages on this pipeline are ``authority`` (node scoring)
and ``synthesis`` (answer generation), so the failure-injection policies
below route ``authority`` through the scripted flaky backend.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core import MultiRAG, MultiRAGConfig
from repro.llm.gateway import LLMGateway
from repro.obs import Observability

from tests.conftest import make_sources
from tests.exec.conftest import EVAL_QUERIES


def gateway_config(**overrides) -> MultiRAGConfig:
    base = MultiRAGConfig(seed=0, extraction_noise=0.0)
    return dataclasses.replace(base, **overrides)


def build(config: MultiRAGConfig, *,
          obs: Observability | None = None) -> MultiRAG:
    rag = MultiRAG.from_config(config, obs=obs)
    rag.ingest(make_sources())
    return rag


def strip_gateway_metrics(snapshot: dict) -> dict:
    """Drop the gateway's own instruments from a metrics snapshot.

    The per-stage/backend counters and breaker gauges are *intentionally*
    new telemetry; everything else must match the no-gateway run exactly.
    """
    return {
        section: (
            {name: value for name, value in values.items()
             if not name.startswith("llm.gateway.")}
            if isinstance(values, dict) else values
        )
        for section, values in snapshot.items()
    }


def run_everything(config: MultiRAGConfig, *, jobs: int | None = None):
    """Ingest + evaluate + run; returns every artifact the identity
    criterion compares."""
    rag = build(config, obs=Observability.enable())
    report = rag.evaluate(list(EVAL_QUERIES), jobs=jobs)
    results = rag.run_batch(list(EVAL_QUERIES), jobs=jobs)
    report_data = json.loads(report.to_json(drop_timing=True))
    return {
        "report_raw": report.to_json(drop_timing=True),
        "report": {**report_data,
                   "metrics": strip_gateway_metrics(report_data["metrics"])},
        "trace": rag.obs.tracer.to_json(drop_timing=True),
        "audit": [
            [dataclasses.asdict(event) for event in result.audit]
            for result in results
        ],
        "usage": rag.llm.meter.snapshot(),
        "by_stage": rag.llm.meter.stage_snapshot(),
        "metrics": rag.obs.metrics.snapshot(),
        "rag": rag,
    }


class TestDefaultRoutingIdentity:
    """`llm_routing={'*': 'default'}` must be indistinguishable from no
    gateway — the acceptance criterion for the API redesign."""

    def test_gateway_wrap_is_byte_identical(self):
        off = run_everything(gateway_config())
        on = run_everything(gateway_config(llm_routing={"*": "default"}))
        assert isinstance(on["rag"].llm, LLMGateway)
        assert not isinstance(off["rag"].llm, LLMGateway)
        assert on["report"] == off["report"]
        assert on["trace"] == off["trace"]
        assert on["audit"] == off["audit"]
        assert on["usage"] == off["usage"]
        assert on["by_stage"] == off["by_stage"]
        assert strip_gateway_metrics(on["metrics"]) \
            == strip_gateway_metrics(off["metrics"])
        # The *only* metric difference is the gateway's new counters.
        extra = set(on["metrics"]["counters"]) - set(off["metrics"]["counters"])
        assert extra and all(n.startswith("llm.gateway.") for n in extra)

    def test_gateway_run_has_no_events(self):
        on = run_everything(gateway_config(llm_routing={"*": "default"}))
        assert on["rag"].llm.events == []
        assert on["rag"].llm.breaker_states() == {"default": "closed"}

    def test_stage_attribution_matches_without_gateway(self):
        # Stage tags flow from the call sites, not the gateway, so both
        # runs attribute usage to the same pipeline stages.
        off = run_everything(gateway_config())
        on = run_everything(gateway_config(llm_routing={"*": "default"}))
        assert on["by_stage"] == off["by_stage"]
        # Ingest exercises extraction stages, queries scoring/synthesis.
        assert {"ner", "triple", "std", "authority", "synthesis"} \
            <= set(off["by_stage"])


class TestHeterogeneousRouting:
    ROUTING = {"*": "default", "ner": "sim-small",
               "synthesis": "sim-large|sim-small"}

    def test_answers_unchanged_costs_rerouted(self):
        off = run_everything(gateway_config())
        on = run_everything(gateway_config(llm_routing=dict(self.ROUTING)))
        # Identical answers and scores...
        assert on["report"]["per_query"] == off["report"]["per_query"]
        assert on["report"]["mean_f1"] == off["report"]["mean_f1"]
        assert on["audit"] == off["audit"]
        # ...identical call/token counts per stage...
        for stage, usage in off["by_stage"].items():
            rerouted = on["by_stage"][stage]
            assert rerouted["calls"] == usage["calls"]
            assert rerouted["prompt_tokens"] == usage["prompt_tokens"]
            assert rerouted["completion_tokens"] == usage["completion_tokens"]
        # ...but the rerouted stages run under different cost models.
        assert on["by_stage"]["ner"]["simulated_latency_s"] \
            != off["by_stage"]["ner"]["simulated_latency_s"]
        assert on["by_stage"]["synthesis"]["simulated_latency_s"] \
            != off["by_stage"]["synthesis"]["simulated_latency_s"]

    def test_stage_budget_enforced_end_to_end(self):
        from repro.llm import BudgetExceededError

        # Node scoring issues one authority call per candidate node, so a
        # 1-call quota trips inside the first multi-candidate query.
        config = gateway_config(
            llm_routing={"*": "default"},
            llm_stage_limits={"authority": {"max_calls": 1}},
        )
        rag = build(config)
        with pytest.raises(BudgetExceededError, match="authority"):
            rag.evaluate(list(EVAL_QUERIES))

    def test_generous_stage_budget_changes_nothing(self):
        off = run_everything(gateway_config())
        on = run_everything(gateway_config(
            llm_routing={"*": "default"},
            llm_stage_limits={"authority": {"max_calls": 10_000,
                                            "max_tokens": 10_000_000}},
        ))
        assert on["report"] == off["report"]
        assert on["usage"] == off["usage"]
        assert on["by_stage"] == off["by_stage"]


class TestFailureDeterminism:
    """Scripted backend failures: degraded, but exactly reproducible."""

    FLAKY = gateway_config(
        llm_routing={"*": "default", "authority": "flaky|default"},
    )

    def run_flaky(self, *, jobs: int | None = None, config=None):
        out = run_everything(config or self.FLAKY, jobs=jobs)
        gateway = out["rag"].llm
        out["events"] = gateway.events_payload()
        out["breakers"] = gateway.breaker_states()
        return out

    def test_failures_actually_fire_and_degrade_gracefully(self):
        out = self.run_flaky()
        kinds = {event["kind"] for event in out["events"]}
        assert "backend_error" in kinds and "fallback" in kinds
        assert all(event["stage"] == "authority" for event in out["events"])
        # Degraded, not broken: every query still scores.
        assert len(out["report"]["per_query"]) == len(EVAL_QUERIES)

    def test_seeded_rerun_is_byte_identical(self):
        first = self.run_flaky()
        second = self.run_flaky()
        for key in ("report_raw", "trace", "audit", "usage", "by_stage",
                    "metrics", "events", "breakers"):
            assert first[key] == second[key], f"{key} drifted across reruns"

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_worker_counts_agree_under_failure(self, jobs):
        sequential = self.run_flaky(jobs=1)
        parallel = self.run_flaky(jobs=jobs)
        for key in ("report_raw", "trace", "audit", "usage", "by_stage",
                    "metrics", "events", "breakers"):
            assert parallel[key] == sequential[key], (
                f"{key} differs between jobs=1 and jobs={jobs}"
            )

    def test_tripped_breaker_degrades_deterministically(self):
        # threshold=1: the first scripted failure trips 'flaky' open for
        # the rest of each worker view; every authority call after it is
        # served by the fallback — identically at any worker count.
        config = dataclasses.replace(self.FLAKY, llm_breaker_threshold=1,
                                     llm_breaker_cooldown_s=1_000.0)
        sequential = self.run_flaky(jobs=1, config=config)
        parallel = self.run_flaky(jobs=4, config=config)
        assert any(e["kind"] == "breaker_open" for e in sequential["events"])
        for key in ("report_raw", "events", "usage", "by_stage", "breakers"):
            assert parallel[key] == sequential[key]
        assert len(sequential["report"]["per_query"]) == len(EVAL_QUERIES)
