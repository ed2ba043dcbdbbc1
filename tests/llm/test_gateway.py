"""LLM gateway unit tests: routing, budgets, hedging, breakers, views.

The pipeline-level acceptance criteria (gateway-on vs gateway-off byte
identity, flaky-backend determinism across worker counts) live in
``tests/integration/test_gateway_pipeline.py``; this module pins the
gateway's own mechanics on purpose-built scripted backends.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, ReproError
from repro.llm import SimulatedLLM, Stage
from repro.llm.base import LLMClient
from repro.llm.gateway import (
    BACKEND_FACTORIES,
    BREAKER_GAUGE_CODES,
    BudgetExceededError,
    CircuitBreaker,
    GatewayError,
    BackendError,
    LLMGateway,
    RoutingPolicy,
    ScriptedFlakyLLM,
    StagePolicy,
    build_gateway,
    parse_routing_spec,
)
from repro.obs import Observability


class FixedLLM(LLMClient):
    """Constant text and constant accounted latency."""

    def __init__(self, text: str = "ok", latency: float = 0.1) -> None:
        super().__init__(base_latency_s=latency, latency_per_token_s=0.0)
        self.text = text

    def _generate(self, prompt: str) -> str:
        return self.text


class ScriptedLLM(FixedLLM):
    """Fails exactly the (1-indexed) calls listed in ``fail_calls``."""

    def __init__(self, fail_calls, text: str = "ok",
                 latency: float = 0.1) -> None:
        super().__init__(text=text, latency=latency)
        self.fail_calls = frozenset(fail_calls)
        self.n = 0

    def _generate(self, prompt: str) -> str:
        self.n += 1
        if self.n in self.fail_calls:
            raise BackendError(f"scripted failure on call {self.n}")
        return self.text


def make_gateway(stages=None, *, backends=None, default="good",
                 threshold=3, cooldown=1.0, obs=None) -> LLMGateway:
    if backends is None:
        backends = {"good": FixedLLM("good-text", latency=0.1)}
    policy = RoutingPolicy(
        default_backend=default,
        stages=stages or {},
        breaker_threshold=threshold,
        breaker_cooldown_s=cooldown,
    )
    return LLMGateway(backends=backends, policy=policy, obs=obs)


class TestRoutingSpec:
    def test_parses_stages_default_and_fallback(self):
        spec = "*=sim-small, ner=sim-large ,synthesis=sim-large|sim-small"
        assert parse_routing_spec(spec) == {
            "*": "sim-small",
            "ner": "sim-large",
            "synthesis": "sim-large|sim-small",
        }

    def test_empty_chunks_are_skipped(self):
        assert parse_routing_spec("ner=a,,") == {"ner": "a"}

    @pytest.mark.parametrize("bad", ["ner", "ner=", "=a", "= "])
    def test_malformed_entry_raises(self, bad):
        with pytest.raises(ConfigError, match="malformed routing entry"):
            parse_routing_spec(bad)


class TestRoutingPolicy:
    def test_empty_policy_is_the_identity_configuration(self):
        policy = RoutingPolicy()
        for stage in Stage:
            resolved = policy.policy_for(stage)
            assert resolved.backend == "default"
            assert resolved.fallback is None
            assert resolved.max_calls is None

    def test_unknown_stage_rejected(self):
        with pytest.raises(ConfigError, match="unknown stage 'nre'"):
            RoutingPolicy(stages={"nre": StagePolicy()})

    def test_breaker_knobs_validated(self):
        with pytest.raises(ConfigError, match="breaker_threshold"):
            RoutingPolicy(breaker_threshold=0)
        with pytest.raises(ConfigError, match="breaker_cooldown_s"):
            RoutingPolicy(breaker_cooldown_s=-1.0)

    def test_backend_names_default_first_then_stage_order(self):
        policy = RoutingPolicy.from_mappings(
            {"*": "base", "synthesis": "big|small", "ner": "small"}
        )
        # ner precedes synthesis in canonical stage order.
        assert policy.backend_names() == ["base", "small", "big"]

    def test_from_mappings_parses_fallback_and_limits(self):
        policy = RoutingPolicy.from_mappings(
            {"synthesis": "big|small"},
            {"synthesis": {"max_calls": 5, "max_tokens": 100,
                           "max_attempts": 2, "hedge_after_s": 0.25}},
        )
        stage = policy.policy_for(Stage.SYNTHESIS)
        assert stage.backend == "big"
        assert stage.fallback == "small"
        assert stage.max_calls == 5
        assert stage.max_tokens == 100
        assert stage.max_attempts == 2
        assert stage.hedge_after_s == 0.25

    def test_limits_without_routing_entry_use_default_backend(self):
        policy = RoutingPolicy.from_mappings(
            {"*": "base"}, {"ner": {"max_calls": 3}}
        )
        stage = policy.policy_for(Stage.NER)
        assert stage.backend == "base"
        assert stage.max_calls == 3

    def test_star_entry_rejects_fallback(self):
        with pytest.raises(ConfigError, match="single"):
            RoutingPolicy.from_mappings({"*": "a|b"})

    def test_from_mappings_rejects_bad_input(self):
        with pytest.raises(ConfigError, match="unknown stage"):
            RoutingPolicy.from_mappings({"nope": "a"})
        with pytest.raises(ConfigError, match="empty backend"):
            RoutingPolicy.from_mappings({"ner": " "})
        with pytest.raises(ConfigError, match="unknown limit"):
            RoutingPolicy.from_mappings(
                {"ner": "a"}, {"ner": {"max_retries": 3}}
            )
        with pytest.raises(ConfigError, match="unknown stage"):
            RoutingPolicy.from_mappings({"ner": "a"}, {"nope": {"max_calls": 1}})
        with pytest.raises(ConfigError, match="max_attempts"):
            RoutingPolicy.from_mappings(
                {"ner": "a"}, {"ner": {"max_attempts": 0}}
            )
        with pytest.raises(ConfigError, match="hedge_after_s"):
            RoutingPolicy.from_mappings(
                {"ner": "a"}, {"ner": {"hedge_after_s": -0.1}}
            )

    def test_to_jsonable_round_trips_the_knobs(self):
        policy = RoutingPolicy.from_mappings(
            {"*": "base", "ner": "small"}, {"ner": {"max_calls": 2}},
            breaker_threshold=5, breaker_cooldown_s=2.0,
        )
        payload = policy.to_jsonable()
        assert payload["default_backend"] == "base"
        assert payload["breaker_threshold"] == 5
        assert payload["stages"]["ner"]["max_calls"] == 2


class TestConstruction:
    def test_needs_at_least_one_backend(self):
        with pytest.raises(ConfigError, match="at least one backend"):
            LLMGateway(backends={})

    def test_default_backend_must_be_registered(self):
        with pytest.raises(ConfigError, match="default backend"):
            LLMGateway(backends={"other": FixedLLM()})

    def test_policy_backends_must_be_registered(self):
        policy = RoutingPolicy(
            default_backend="good",
            stages={"ner": StagePolicy(backend="missing")},
        )
        with pytest.raises(ConfigError, match="unknown backend 'missing'"):
            LLMGateway(backends={"good": FixedLLM()}, policy=policy)

    def test_build_gateway_constructs_only_referenced_backends(self):
        policy = RoutingPolicy.from_mappings({"ner": "sim-small"})
        gateway = build_gateway(SimulatedLLM(seed=0), policy)
        assert sorted(gateway.backends) == ["default", "sim-small"]

    def test_build_gateway_unknown_backend(self):
        policy = RoutingPolicy.from_mappings({"ner": "gpt-17"})
        with pytest.raises(ConfigError, match="unknown LLM backend 'gpt-17'"):
            build_gateway(SimulatedLLM(seed=0), policy)

    def test_registered_factory_names(self):
        assert {"default", "sim-small", "sim-large", "flaky"} \
            <= set(BACKEND_FACTORIES)

    def test_variant_backends_keep_completion_text(self):
        # sim-small/sim-large change only the cost model, never the text
        # — heterogeneous routing must not change answers.
        base = SimulatedLLM(seed=3)
        small = BACKEND_FACTORIES["sim-small"](base)
        large = BACKEND_FACTORIES["sim-large"](base)
        prompt = "### TASK: parametric\n### INPUT\nX|y\n### END\n"
        assert small._generate(prompt) == base._generate(prompt)
        assert large._generate(prompt) == base._generate(prompt)
        assert small.base_latency_s != large.base_latency_s


class TestRoutingAndAccounting:
    def test_routes_stage_to_its_backend(self):
        backends = {
            "good": FixedLLM("from-default"),
            "ner-box": FixedLLM("from-ner"),
        }
        gateway = make_gateway(
            {"ner": StagePolicy(backend="ner-box")}, backends=backends
        )
        assert gateway.complete("p", stage=Stage.NER).text == "from-ner"
        assert gateway.complete("p", stage=Stage.STD).text == "from-default"

    def test_accounts_winner_into_its_own_meter_only(self):
        backend = FixedLLM("ok", latency=0.25)
        gateway = make_gateway(backends={"good": backend})
        gateway.complete("one two", stage=Stage.RELEVANCE)
        assert gateway.meter.calls == 1
        assert gateway.meter.stage_usage(Stage.RELEVANCE).calls == 1
        assert gateway.meter.simulated_latency_s == pytest.approx(0.25)
        # The backend transports without metering: spend lives in exactly
        # one place.
        assert backend.meter.calls == 0

    def test_latency_comes_from_the_serving_backend(self):
        backends = {
            "good": FixedLLM("a", latency=0.1),
            "slow": FixedLLM("b", latency=0.9),
        }
        gateway = make_gateway(
            {"synthesis": StagePolicy(backend="slow")}, backends=backends
        )
        fast = gateway.complete("p", stage=Stage.NER)
        slow = gateway.complete("p", stage=Stage.SYNTHESIS)
        assert fast.latency_s == pytest.approx(0.1)
        assert slow.latency_s == pytest.approx(0.9)

    def test_no_events_on_the_healthy_path(self):
        gateway = make_gateway()
        for stage in (Stage.NER, Stage.SYNTHESIS, Stage.OTHER):
            gateway.complete("p", stage=stage)
        assert gateway.events == []
        assert gateway.breaker_states() == {"good": "closed"}

    def test_per_stage_backend_counters(self):
        obs = Observability.enable()
        gateway = make_gateway(obs=obs)
        gateway.complete("p", stage=Stage.NER)
        gateway.complete("p", stage=Stage.NER)
        gateway.complete("p", stage=Stage.SYNTHESIS)
        assert obs.metrics.counter("llm.gateway.calls.ner.good").value == 2
        assert obs.metrics.counter(
            "llm.gateway.calls.synthesis.good"
        ).value == 1


class TestBudgets:
    def test_call_budget_refuses_before_spending(self):
        gateway = make_gateway(
            {"relevance": StagePolicy(backend="good", max_calls=2)}
        )
        gateway.complete("p", stage=Stage.RELEVANCE)
        gateway.complete("p", stage=Stage.RELEVANCE)
        with pytest.raises(BudgetExceededError, match="call budget"):
            gateway.complete("p", stage=Stage.RELEVANCE)
        # The refused call spent nothing — checked before dispatch.
        assert gateway.meter.stage_usage(Stage.RELEVANCE).calls == 2

    def test_token_budget_counts_prompt_and_completion(self):
        # FixedLLM answers "ok" (1 token); prompts are 3 tokens each.
        gateway = make_gateway(
            {"std": StagePolicy(backend="good", max_tokens=10)}
        )
        gateway.complete("a b c", stage=Stage.STD)   # total 4
        gateway.complete("a b c", stage=Stage.STD)   # total 8
        with pytest.raises(BudgetExceededError, match="token budget"):
            gateway.complete("a b c", stage=Stage.STD)  # 8 + 3 > 10
        assert gateway.meter.stage_usage(Stage.STD).calls == 2

    def test_budgets_are_per_stage_not_global(self):
        gateway = make_gateway(
            {"relevance": StagePolicy(backend="good", max_calls=1)}
        )
        gateway.complete("p", stage=Stage.RELEVANCE)
        with pytest.raises(BudgetExceededError):
            gateway.complete("p", stage=Stage.RELEVANCE)
        # Other stages are unaffected.
        gateway.complete("p", stage=Stage.SYNTHESIS)
        gateway.complete("p", stage=Stage.SYNTHESIS)

    def test_budget_error_is_a_repro_error(self):
        assert issubclass(BudgetExceededError, ReproError)


class TestRetryAndFallback:
    def test_bounded_retry_recovers_on_the_primary(self):
        backends = {
            "good": FixedLLM(),
            "shaky": ScriptedLLM(fail_calls={1}, text="recovered"),
        }
        gateway = make_gateway(
            {"triple": StagePolicy(backend="shaky", max_attempts=2)},
            backends=backends,
        )
        response = gateway.complete("p", stage=Stage.TRIPLE)
        assert response.text == "recovered"
        assert [e.kind for e in gateway.events] == ["backend_error"]
        assert gateway.meter.calls == 1

    def test_fallback_serves_when_primary_exhausts_attempts(self):
        backends = {
            "good": FixedLLM("fallback-text"),
            "bad": ScriptedLLM(fail_calls=range(1, 100)),
        }
        gateway = make_gateway(
            {"triple": StagePolicy(backend="bad", fallback="good",
                                   max_attempts=2)},
            backends=backends, threshold=10,
        )
        response = gateway.complete("p", stage=Stage.TRIPLE)
        assert response.text == "fallback-text"
        assert [e.kind for e in gateway.events] == [
            "backend_error", "backend_error", "fallback",
        ]

    def test_gateway_error_when_nothing_can_serve(self):
        backends = {"good": FixedLLM(), "bad": ScriptedLLM(range(1, 100))}
        gateway = make_gateway(
            {"triple": StagePolicy(backend="bad")},
            backends=backends, threshold=10,
        )
        with pytest.raises(GatewayError, match="stage 'triple'"):
            gateway.complete("p", stage=Stage.TRIPLE)
        assert gateway.meter.calls == 0

    def test_event_log_evicts_past_the_cap(self, monkeypatch):
        import repro.llm.gateway as gw
        monkeypatch.setattr(gw, "EVENT_LOG_CAP", 4)
        backends = {
            "good": FixedLLM(),
            "bad": ScriptedLLM(range(1, 1000)),
        }
        gateway = make_gateway(
            {"triple": StagePolicy(backend="bad", fallback="good")},
            backends=backends, threshold=1000,
        )
        for _ in range(6):
            gateway.complete("p", stage=Stage.TRIPLE)
        # 12 events fired (backend_error + fallback per call); the log
        # keeps a window over the most recent ones.
        assert len(gateway.events) == 4
        assert [e.seq for e in gateway.events] == [8, 9, 10, 11]


class TestCircuitBreaker:
    def test_unit_transitions(self):
        breaker = CircuitBreaker(threshold=2, cooldown_s=0.5)
        assert breaker.allows()
        assert not breaker.record_failure(now=0.0)
        assert breaker.record_failure(now=0.1)   # trips on the 2nd
        assert breaker.state == "open"
        assert not breaker.allows()
        assert not breaker.poll(now=0.5)         # 0.4s elapsed < 0.5
        assert breaker.poll(now=0.7)             # cooldown elapsed
        assert breaker.state == "half_open"
        assert breaker.allows()
        assert breaker.record_success()          # probe closes it
        assert breaker.state == "closed"

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(threshold=2, cooldown_s=0.5)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        breaker.poll(0.6)
        assert breaker.record_failure(0.6)       # re-trip from half-open
        assert breaker.state == "open"
        assert breaker.opened_at == 0.6

    def test_gauge_codes_cover_every_state(self):
        assert BREAKER_GAUGE_CODES == {"closed": 0, "half_open": 1, "open": 2}

    def test_trip_skips_primary_until_cooldown_then_probes_closed(self):
        # Failures on calls 1 and 2 trip 'shaky'; it would succeed from
        # call 3 on, so the half-open probe closes the breaker again.
        backends = {
            "good": FixedLLM("fallback-text", latency=0.2),
            "shaky": ScriptedLLM(fail_calls={1, 2}, text="primary-text",
                                 latency=0.1),
        }
        gateway = make_gateway(
            {"relevance": StagePolicy(backend="shaky", fallback="good")},
            backends=backends, threshold=2, cooldown=0.5,
        )
        served = [
            gateway.complete("p", stage=Stage.RELEVANCE).text
            for _ in range(5)
        ]
        # call 1: shaky fails (1 failure), fallback serves, clock -> 0.2
        # call 2: shaky fails, trips open at clock 0.2, fallback, -> 0.4
        # call 3: open (0.4 - 0.2 < 0.5): skipped, fallback, clock -> 0.6
        # call 4: open (0.6 - 0.2 < 0.5): skipped, fallback, clock -> 0.8
        # call 5: 0.8 - 0.2 >= 0.5: half-open probe succeeds, closes,
        #         primary serves at latency 0.1
        assert served == ["fallback-text", "fallback-text", "fallback-text",
                          "fallback-text", "primary-text"]
        kinds = [e.kind for e in gateway.events]
        assert kinds == [
            "backend_error", "fallback",
            "backend_error", "breaker_open", "fallback",
            "fallback",
            "fallback",
            "breaker_half_open", "breaker_close",
        ]
        assert gateway.breaker_states() == {"good": "closed",
                                            "shaky": "closed"}

    def test_breaker_gauges_track_transitions(self):
        obs = Observability.enable()
        backends = {
            "good": FixedLLM(latency=0.2),
            "bad": ScriptedLLM(range(1, 1000), latency=0.1),
        }
        gateway = make_gateway(
            {"relevance": StagePolicy(backend="bad", fallback="good")},
            backends=backends, threshold=1, cooldown=10.0, obs=obs,
        )
        gateway.complete("p", stage=Stage.RELEVANCE)
        assert obs.metrics.gauge("llm.gateway.breaker.bad").value \
            == BREAKER_GAUGE_CODES["open"]


class TestHedging:
    def hedged_gateway(self, *, primary_latency, fallback_latency, deadline):
        backends = {
            "good": FixedLLM("slow-answer", latency=primary_latency),
            "fast": FixedLLM("fast-answer", latency=fallback_latency),
        }
        return make_gateway(
            {"synthesis": StagePolicy(backend="good", fallback="fast",
                                      hedge_after_s=deadline)},
            backends=backends,
        )

    def test_hedge_wins_when_faster(self):
        gateway = self.hedged_gateway(
            primary_latency=1.0, fallback_latency=0.1, deadline=0.2
        )
        response = gateway.complete("p", stage=Stage.SYNTHESIS)
        assert response.text == "fast-answer"
        # The hedge fires at the deadline and completes after its own
        # latency: 0.2 + 0.1, not 0.1.
        assert response.latency_s == pytest.approx(0.3)
        assert [e.kind for e in gateway.events] == ["hedge"]
        # Only the winner is accounted.
        assert gateway.meter.calls == 1
        assert gateway.meter.simulated_latency_s == pytest.approx(0.3)

    def test_hedge_loses_when_slower(self):
        gateway = self.hedged_gateway(
            primary_latency=0.5, fallback_latency=0.6, deadline=0.2
        )
        response = gateway.complete("p", stage=Stage.SYNTHESIS)
        assert response.text == "slow-answer"
        assert response.latency_s == pytest.approx(0.5)
        assert [e.kind for e in gateway.events] == ["hedge"]

    def test_tie_breaks_by_backend_order(self):
        # hedge completes at exactly the primary's latency: primary wins.
        gateway = self.hedged_gateway(
            primary_latency=0.5, fallback_latency=0.3, deadline=0.2
        )
        response = gateway.complete("p", stage=Stage.SYNTHESIS)
        assert response.text == "slow-answer"

    def test_fast_primary_never_hedges(self):
        gateway = self.hedged_gateway(
            primary_latency=0.1, fallback_latency=0.1, deadline=0.2
        )
        gateway.complete("p", stage=Stage.SYNTHESIS)
        assert gateway.events == []

    def test_failed_hedge_keeps_the_primary_result(self):
        backends = {
            "good": FixedLLM("slow-answer", latency=1.0),
            "fast": ScriptedLLM(range(1, 1000), latency=0.1),
        }
        gateway = make_gateway(
            {"synthesis": StagePolicy(backend="good", fallback="fast",
                                      hedge_after_s=0.2)},
            backends=backends,
        )
        response = gateway.complete("p", stage=Stage.SYNTHESIS)
        assert response.text == "slow-answer"
        assert response.latency_s == pytest.approx(1.0)
        assert [e.kind for e in gateway.events] == ["backend_error"]


class TestScriptedFlakyLLM:
    def test_failure_schedule(self):
        flaky = ScriptedFlakyLLM(SimulatedLLM(seed=0), first_failure=2,
                                 period=3)
        outcomes = []
        for _ in range(7):
            try:
                flaky._generate("### TASK: parametric\n### INPUT\nX|y\n"
                                "### END\n")
                outcomes.append("ok")
            except BackendError:
                outcomes.append("fail")
        assert outcomes == ["ok", "fail", "ok", "ok", "fail", "ok", "ok"]

    def test_constructor_validation(self):
        with pytest.raises(ConfigError):
            ScriptedFlakyLLM(SimulatedLLM(seed=0), first_failure=0)
        with pytest.raises(ConfigError):
            ScriptedFlakyLLM(SimulatedLLM(seed=0), period=0)

    def test_split_copies_the_counter_by_value(self):
        flaky = ScriptedFlakyLLM(SimulatedLLM(seed=0), first_failure=1,
                                 period=2)
        with pytest.raises(BackendError):
            flaky._generate("p")          # call 1 fails
        view_a = flaky.split()
        view_b = flaky.split()
        # Both views resume from calls_seen=1: their call 2 succeeds,
        # call 3 fails — identically, independent of each other.
        assert view_a._generate("p") == view_b._generate("p")
        for view in (view_a, view_b):
            with pytest.raises(BackendError):
                view._generate("p")
        # The parent never saw the views' calls.
        assert flaky.calls_seen == 1


class TestWorkerViews:
    def tripped_gateway(self) -> LLMGateway:
        backends = {
            "good": FixedLLM(latency=0.2),
            "bad": ScriptedLLM(range(1, 1000), latency=0.1),
        }
        gateway = make_gateway(
            {"relevance": StagePolicy(backend="bad", fallback="good")},
            backends=backends, threshold=1, cooldown=100.0,
        )
        gateway.complete("p", stage=Stage.RELEVANCE)  # trips 'bad'
        return gateway

    def test_split_copies_breakers_and_clock_by_value(self):
        gateway = self.tripped_gateway()
        view = gateway.split()
        assert view.breaker_states() == gateway.breaker_states()
        assert view._clock == gateway._clock
        assert view.events == [] and view.meter.calls == 0
        # Mutating the view's breaker leaves the parent's untouched.
        view.breakers["bad"].record_success()
        assert view.breaker_states()["bad"] == "closed"
        assert gateway.breaker_states()["bad"] == "open"

    def test_absorb_folds_usage_and_events_not_behavior(self):
        gateway = self.tripped_gateway()
        clock_before = gateway._clock
        events_before = len(gateway.events)
        view = gateway.split()
        view.complete("p", stage=Stage.RELEVANCE)  # skip + fallback event
        gateway.absorb(view)
        assert gateway.meter.calls == 2
        assert gateway.meter.stage_usage(Stage.RELEVANCE).calls == 2
        # Worker events re-sequence onto the parent log...
        assert len(gateway.events) == events_before + len(view.events)
        assert [e.seq for e in gateway.events] == list(
            range(len(gateway.events))
        )
        # ...but behavioral state (clock, breakers) is NOT folded back.
        assert gateway._clock == clock_before
        assert gateway.breaker_states()["bad"] == "open"

    def test_split_views_replay_identical_failure_schedules(self):
        # The jobs-invariance contract at gateway level: two views taken
        # from the same parent serve identical texts/events for the same
        # prompt sequence, regardless of the other view's activity.
        policy = RoutingPolicy.from_mappings(
            {"*": "default", "relevance": "flaky|default"}
        )
        parent = build_gateway(SimulatedLLM(seed=0), policy)
        prompts = [f"### TASK: relevance\n### QUERY\nq{i}\n### INPUT\nx\n"
                   f"### END\n" for i in range(5)]
        view_a = parent.split()
        texts_a = [view_a.complete(p, stage=Stage.RELEVANCE).text
                   for p in prompts]
        view_b = parent.split()
        texts_b = [view_b.complete(p, stage=Stage.RELEVANCE).text
                   for p in prompts]
        assert texts_a == texts_b
        assert [e.to_jsonable() for e in view_a.events] \
            == [e.to_jsonable() for e in view_b.events]
        assert view_a.meter.stage_snapshot() == view_b.meter.stage_snapshot()
