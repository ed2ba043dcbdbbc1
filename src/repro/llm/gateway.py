"""Multi-backend LLM gateway: per-stage routing with hard guardrails.

:class:`LLMGateway` implements the :class:`~repro.llm.base.LLMClient`
interface but serves each completion through a *named backend* chosen by
the call's :class:`~repro.llm.stage.Stage` tag, with three guardrails
enforced in code rather than by convention:

* **per-stage budgets** — call/token ceilings checked against the
  gateway's own :class:`~repro.llm.base.UsageMeter` stage attribution
  *before* spending, so the statically certified bounds
  (``results/llm_call_bounds.json``) become runtime-enforced quotas;
* **bounded retry with deterministic hedging** — a failing primary is
  retried at most ``max_attempts`` times, and a slow primary races a
  hedge fired on the fallback backend after a *simulated* deadline; the
  first non-error completion wins, ties break by backend order;
* **per-backend circuit breakers** — ``threshold`` consecutive failures
  trip a backend open; after ``cooldown_s`` of *simulated* time it
  half-opens for a probe, closing again on success.

Nothing in this module reads a wall clock or a global RNG.  The hedging
deadline and breaker cooldown run on an internal clock advanced by the
accounted (simulated) latencies, so seeded runs — including runs with
scripted backend failures — are byte-identical at any worker count.

Worker views (:meth:`LLMGateway.split`) copy the breaker states and the
flaky-backend call counters *by value*: every view starts from the
parent's state at split time and mutates only its own copy, and
:meth:`LLMGateway.absorb` folds back usage and the event log but not the
behavioral state.  That asymmetry is deliberate — it is what keeps
``jobs=1`` and ``jobs=4`` batch runs byte-identical regardless of task
completion order (see ``docs/llm_gateway.md``).
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.errors import ConfigError, ReproError
from repro.llm.base import LLMClient, LLMResponse, UsageMeter, count_tokens
from repro.llm.stage import STAGE_VALUES, Stage
from repro.obs.context import NOOP, Observability


class BudgetExceededError(ReproError):
    """A completion would pass a stage's call or token budget."""


class BackendError(ReproError):
    """A backend failed to serve one completion (retryable)."""


class GatewayError(ReproError):
    """No backend could serve a completion (breakers open / all failed)."""


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class GatewayEvent:
    """One exceptional gateway decision (retry, hedge, breaker move).

    Routine successful calls do NOT produce events — that is what keeps
    a gateway routing everything to the default backend byte-identical
    to running without a gateway at all.
    """

    seq: int
    kind: str
    stage: str
    backend: str
    detail: str

    def to_jsonable(self) -> dict[str, object]:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "stage": self.stage,
            "backend": self.backend,
            "detail": self.detail,
        }


#: eviction cap for the gateway event log: events fire only on
#: exceptional paths, but a long-lived service behind a persistently
#: flaky backend must not leak — the log keeps a window over the most
#: recent incidents (see :meth:`LLMGateway._append_event`).
EVENT_LOG_CAP = 4096


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: gauge encoding of breaker states (``llm.gateway.breaker.<backend>``).
BREAKER_GAUGE_CODES: dict[str, int] = {
    BREAKER_CLOSED: 0,
    BREAKER_HALF_OPEN: 1,
    BREAKER_OPEN: 2,
}


@dataclass(slots=True)
class CircuitBreaker:
    """Consecutive-failure breaker on an injectable (simulated) clock.

    ``threshold`` consecutive failures trip it open; once ``cooldown_s``
    of clock time has passed it half-opens, admitting a single probe:
    a success closes it, a failure re-opens it immediately.
    """

    threshold: int = 3
    cooldown_s: float = 1.0
    failures: int = 0
    state: str = BREAKER_CLOSED
    opened_at: float = 0.0

    def poll(self, now: float) -> bool:
        """Advance ``open -> half_open`` when the cooldown elapsed;
        returns True exactly on that transition."""
        if (
            self.state == BREAKER_OPEN
            and now - self.opened_at >= self.cooldown_s
        ):
            self.state = BREAKER_HALF_OPEN
            return True
        return False

    def allows(self) -> bool:
        """Whether a call may be attempted right now."""
        return self.state != BREAKER_OPEN

    def record_success(self) -> bool:
        """Note a served call; returns True on ``half_open -> closed``."""
        closed_from_probe = self.state == BREAKER_HALF_OPEN
        self.failures = 0
        self.state = BREAKER_CLOSED
        return closed_from_probe

    def record_failure(self, now: float) -> bool:
        """Note a failed call; returns True when this trips the breaker."""
        self.failures += 1
        if self.state == BREAKER_HALF_OPEN or self.failures >= self.threshold:
            tripped = self.state != BREAKER_OPEN
            self.state = BREAKER_OPEN
            self.opened_at = now
            return tripped
        return False


# ----------------------------------------------------------------------
# routing policy
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class StagePolicy:
    """How one pipeline stage's calls are served."""

    backend: str = "default"
    #: backend serving when the primary is exhausted / tripped, and the
    #: hedge target when ``hedge_after_s`` is set.
    fallback: str | None = None
    #: per-stage ceilings checked against the gateway meter *before*
    #: each spend; ``None`` = unlimited.
    max_calls: int | None = None
    max_tokens: int | None = None
    #: attempts on the primary before degrading to the fallback.
    max_attempts: int = 1
    #: simulated deadline after which the fallback is hedged; the hedge
    #: completes at ``hedge_after_s + fallback_latency`` and the earlier
    #: completion wins (tie -> primary, i.e. backend order).
    hedge_after_s: float | None = None


_LIMIT_KEYS = ("max_calls", "max_tokens", "max_attempts", "hedge_after_s")


@dataclass(frozen=True, slots=True)
class RoutingPolicy:
    """The full stage -> backend routing table plus breaker knobs.

    Stages absent from ``stages`` route to ``default_backend`` with no
    limits — so the empty policy is the identity configuration.
    """

    default_backend: str = "default"
    stages: Mapping[str, StagePolicy] = field(default_factory=dict)
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 1.0

    def __post_init__(self) -> None:
        if self.breaker_threshold < 1:
            raise ConfigError("breaker_threshold must be at least 1")
        if self.breaker_cooldown_s < 0.0:
            raise ConfigError("breaker_cooldown_s must be non-negative")
        for stage in self.stages:
            if stage not in STAGE_VALUES:
                raise ConfigError(
                    f"unknown stage '{stage}' in routing policy "
                    f"(expected one of {', '.join(STAGE_VALUES)})"
                )

    def policy_for(self, stage: Stage) -> StagePolicy:
        policy = self.stages.get(stage.value)
        if policy is None:
            return StagePolicy(backend=self.default_backend)
        return policy

    def backend_names(self) -> list[str]:
        """Every referenced backend, default first, then per-stage
        primaries and fallbacks in canonical stage order (deduplicated).
        The order is the hedge tie-break order of the built gateway."""
        names = [self.default_backend]
        for stage in STAGE_VALUES:
            policy = self.stages.get(stage)
            if policy is None:
                continue
            names.append(policy.backend)
            if policy.fallback is not None:
                names.append(policy.fallback)
        seen: set[str] = set()
        ordered: list[str] = []
        for name in names:
            if name not in seen:
                seen.add(name)
                ordered.append(name)
        return ordered

    def to_jsonable(self) -> dict[str, object]:
        """Canonical JSON form — folded into the snapshot fingerprint, so
        any routing change cold-builds instead of warm-loading state
        produced under a different policy."""
        stages: dict[str, dict[str, object]] = {}
        for stage in sorted(self.stages):
            policy = self.stages[stage]
            stages[stage] = {
                "backend": policy.backend,
                "fallback": policy.fallback,
                "max_calls": policy.max_calls,
                "max_tokens": policy.max_tokens,
                "max_attempts": policy.max_attempts,
                "hedge_after_s": policy.hedge_after_s,
            }
        return {
            "default_backend": self.default_backend,
            "stages": stages,
            "breaker_threshold": self.breaker_threshold,
            "breaker_cooldown_s": self.breaker_cooldown_s,
        }

    @classmethod
    def from_mappings(
        cls,
        routing: Mapping[str, str],
        stage_limits: Mapping[str, Mapping[str, float]] | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 1.0,
    ) -> "RoutingPolicy":
        """Build a policy from config-level mappings.

        ``routing`` maps a stage value (or ``"*"`` for the default) to a
        backend name, optionally ``"primary|fallback"``.  This is the
        same shape ``REPRO_LLM_ROUTING`` parses into (see
        :func:`parse_routing_spec`).  ``stage_limits`` adds per-stage
        numeric knobs (``max_calls``, ``max_tokens``, ``max_attempts``,
        ``hedge_after_s``).

        Raises:
            ConfigError: on unknown stages, unknown limit keys, or
                malformed backend specs.
        """
        default_backend = "default"
        specs: dict[str, tuple[str, str | None]] = {}
        for key, value in routing.items():
            primary, _, fallback = value.partition("|")
            primary = primary.strip()
            fb = fallback.strip() or None
            if not primary:
                raise ConfigError(
                    f"empty backend name in routing entry '{key}={value}'"
                )
            if key == "*":
                if fb is not None:
                    raise ConfigError(
                        "the '*' (default) routing entry takes a single "
                        f"backend, got '{value}'"
                    )
                default_backend = primary
                continue
            if key not in STAGE_VALUES:
                raise ConfigError(
                    f"unknown stage '{key}' in llm_routing "
                    f"(expected one of {', '.join(STAGE_VALUES)} or '*')"
                )
            specs[key] = (primary, fb)

        limits = dict(stage_limits or {})
        for stage in limits:
            if stage not in STAGE_VALUES:
                raise ConfigError(
                    f"unknown stage '{stage}' in llm_stage_limits"
                )

        policies: dict[str, StagePolicy] = {}
        for stage in STAGE_VALUES:
            spec = specs.get(stage)
            knobs = limits.get(stage)
            if spec is None and knobs is None:
                continue
            primary, fb = spec if spec is not None else (default_backend, None)
            policy = StagePolicy(backend=primary, fallback=fb)
            if knobs:
                for knob in knobs:
                    if knob not in _LIMIT_KEYS:
                        raise ConfigError(
                            f"unknown limit '{knob}' for stage '{stage}' "
                            f"(expected one of {', '.join(_LIMIT_KEYS)})"
                        )
                max_attempts = int(knobs.get("max_attempts", 1))
                if max_attempts < 1:
                    raise ConfigError(
                        f"max_attempts for stage '{stage}' must be >= 1"
                    )
                max_calls = knobs.get("max_calls")
                max_tokens = knobs.get("max_tokens")
                hedge_after = knobs.get("hedge_after_s")
                if hedge_after is not None and float(hedge_after) < 0.0:
                    raise ConfigError(
                        f"hedge_after_s for stage '{stage}' must be "
                        "non-negative"
                    )
                policy = dataclasses.replace(
                    policy,
                    max_calls=None if max_calls is None else int(max_calls),
                    max_tokens=None if max_tokens is None else int(max_tokens),
                    max_attempts=max_attempts,
                    hedge_after_s=(
                        None if hedge_after is None else float(hedge_after)
                    ),
                )
            policies[stage] = policy
        return cls(
            default_backend=default_backend,
            stages=policies,
            breaker_threshold=breaker_threshold,
            breaker_cooldown_s=breaker_cooldown_s,
        )


def parse_routing_spec(spec: str) -> dict[str, str]:
    """Parse ``"ner=sim-small,synthesis=sim-large|sim-small"`` into the
    ``llm_routing`` mapping (``REPRO_LLM_ROUTING`` / ``--llm-routing``).

    Raises:
        ConfigError: on entries without ``=``.
    """
    routing: dict[str, str] = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, value = chunk.partition("=")
        if not sep or not key.strip() or not value.strip():
            raise ConfigError(
                f"malformed routing entry '{chunk}' "
                "(expected stage=backend[|fallback])"
            )
        routing[key.strip()] = value.strip()
    return routing


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
class ScriptedFlakyLLM(LLMClient):
    """Deterministically failing wrapper for failure-injection tests.

    Fails calls ``first_failure``, ``first_failure + period``,
    ``first_failure + 2·period``, … (1-indexed per clone).  The call
    counter is copied by value in :meth:`split`, so every worker view
    replays the same failure schedule from the parent's snapshot — which
    keeps ``jobs=1`` and ``jobs=4`` runs byte-identical.
    """

    def __init__(
        self,
        inner: LLMClient,
        first_failure: int = 2,
        period: int = 3,
    ) -> None:
        if first_failure < 1:
            raise ConfigError("first_failure must be >= 1")
        if period < 1:
            raise ConfigError("period must be >= 1")
        super().__init__(
            inner.base_latency_s,
            inner.latency_per_token_s,
            inner.wall_latency_scale,
        )
        self.inner = inner
        self.first_failure = first_failure
        self.period = period
        self.calls_seen = 0

    def _generate(self, prompt: str) -> str:
        self.calls_seen += 1  # repro-lint: ignore[CONC001] — never shared: split() copies the counter by value, so each exec worker scripts failures against its own clone (the jobs-invariance contract)
        n = self.calls_seen
        if n >= self.first_failure and (
            (n - self.first_failure) % self.period == 0
        ):
            raise BackendError(f"scripted failure on call {n}")
        return self.inner._generate(prompt)

    def split(self, obs: Observability | None = None) -> "ScriptedFlakyLLM":
        clone = copy.copy(self)
        clone.meter = UsageMeter()
        clone.inner = self.inner.split(obs)
        clone.calls_seen = self.calls_seen
        return clone


BackendFactory = Callable[[LLMClient], LLMClient]


def _with_latency(
    client: LLMClient, base_latency_s: float, latency_per_token_s: float
) -> LLMClient:
    """A clone of ``client`` (same seed/knowledge/cache, fresh meter)
    differing only in its latency cost model — completion *text* is
    unchanged, which is what lets heterogeneous routing keep answers
    byte-identical while stage costs diverge."""
    clone = client.split()
    clone.base_latency_s = base_latency_s
    clone.latency_per_token_s = latency_per_token_s
    return clone


#: name -> factory taking the pipeline's default client.  The factories
#: derive variants *from* the default client so routing never changes
#: completion text — only cost models and failure behavior.
BACKEND_FACTORIES: dict[str, BackendFactory] = {
    "default": lambda client: client,
    "sim-small": lambda client: _with_latency(client, 0.02, 0.00001),
    "sim-large": lambda client: _with_latency(client, 0.08, 0.00004),
    "flaky": lambda client: ScriptedFlakyLLM(client.split()),
}


# ----------------------------------------------------------------------
# the gateway
# ----------------------------------------------------------------------
class LLMGateway(LLMClient):
    """Stage-routing, budgeted, breaker-guarded front over named backends.

    ``backends`` insertion order is the tie-break order for hedging.
    The gateway accounts every *winning* completion into its own meter
    (backends transport without metering), so per-stage usage lives in
    one place and budgets are checked where the spend happens.
    """

    def __init__(
        self,
        backends: Mapping[str, LLMClient],
        policy: RoutingPolicy | None = None,
        obs: Observability | None = None,
    ) -> None:
        if not backends:
            raise ConfigError("LLMGateway needs at least one backend")
        self.policy = policy if policy is not None else RoutingPolicy()
        if self.policy.default_backend not in backends:
            raise ConfigError(
                f"default backend '{self.policy.default_backend}' is not "
                f"among the registered backends {sorted(backends)}"
            )
        for name in self.policy.backend_names():
            if name not in backends:
                raise ConfigError(
                    f"routing policy references unknown backend '{name}'"
                )
        anchor = backends[self.policy.default_backend]
        super().__init__(
            anchor.base_latency_s,
            anchor.latency_per_token_s,
            anchor.wall_latency_scale,
        )
        self.backends: dict[str, LLMClient] = dict(backends)
        self.breakers: dict[str, CircuitBreaker] = {
            name: CircuitBreaker(
                threshold=self.policy.breaker_threshold,
                cooldown_s=self.policy.breaker_cooldown_s,
            )
            for name in self.backends
        }
        self.events: list[GatewayEvent] = []
        self.obs = obs if obs is not None else NOOP
        self._event_seq = 0
        #: simulated clock driving hedge deadlines and breaker cooldowns;
        #: advanced by accounted latencies only — never wall time.
        self._clock = 0.0

    # -- transport plumbing -------------------------------------------
    def _generate(self, prompt: str) -> str:
        """Raw text from the default backend (no routing, no metering).

        Exists to satisfy the client ABC; the routed surface is
        :meth:`complete`.
        """
        return self.backends[self.policy.default_backend]._generate(prompt)

    # -- events & telemetry -------------------------------------------
    def _emit(self, kind: str, stage: Stage, backend: str, detail: str) -> None:
        event = GatewayEvent(
            seq=self._event_seq,
            kind=kind,
            stage=stage.value,
            backend=backend,
            detail=detail,
        )
        self._event_seq += 1  # repro-lint: ignore[CONC001] — never shared: split() gives every exec worker a fresh event log and sequence; absorb() re-sequences single-threaded
        self._append_event(event)
        self.obs.metrics.counter(f"llm.gateway.{kind}").inc()
        # A zero-length span per exceptional event: visible in traces and
        # `trace --diff` without perturbing the failure-free span stream.
        with self.obs.tracer.span(
            f"llm.gateway.{kind}", stage=stage.value, backend=backend
        ):
            pass

    def _append_event(self, event: GatewayEvent) -> None:
        """Append to the event log, evicting the oldest past the cap.

        Events fire only on exceptional paths, but a long-lived service
        with a persistently flaky backend would still accumulate without
        bound; the cap keeps the log a window over the most recent
        incidents.  Eviction trims deterministically from the front, so
        the surviving window is identical across worker counts.
        """
        self.events.append(event)
        if len(self.events) > EVENT_LOG_CAP:
            del self.events[: len(self.events) - EVENT_LOG_CAP]  # repro-lint: ignore[CONC001] — never shared: split() gives every exec worker its own event list (fresh `clone.events = []`)

    def _set_breaker_gauge(self, backend: str) -> None:
        self.obs.metrics.gauge(f"llm.gateway.breaker.{backend}").set(
            BREAKER_GAUGE_CODES[self.breakers[backend].state]
        )

    def events_payload(self) -> list[dict[str, object]]:
        """The event log as JSON-ready dicts (CI artifact / debugging)."""
        return [event.to_jsonable() for event in self.events]

    def breaker_states(self) -> dict[str, str]:
        """Current breaker state per backend, in backend order."""
        return {
            name: self.breakers[name].state for name in sorted(self.breakers)
        }

    # -- guardrails ----------------------------------------------------
    def _check_budget(
        self, prompt: str, stage: Stage, policy: StagePolicy
    ) -> None:
        """Refuse before spending when a stage ceiling would be passed.

        Raises:
            BudgetExceededError: when the stage's call quota is used up
                or the prompt alone no longer fits its token quota.
        """
        if policy.max_calls is None and policy.max_tokens is None:
            return
        usage = self.meter.stage_usage(stage)
        if policy.max_calls is not None and usage.calls >= policy.max_calls:
            raise BudgetExceededError(
                f"stage '{stage.value}' call budget exhausted "
                f"({policy.max_calls} calls)"
            )
        if policy.max_tokens is not None:
            needed = count_tokens(prompt)
            if usage.total_tokens + needed > policy.max_tokens:
                raise BudgetExceededError(
                    f"stage '{stage.value}' token budget exhausted "
                    f"({usage.total_tokens}/{policy.max_tokens} used, "
                    f"prompt needs {needed})"
                )

    def _available(self, backend: str, stage: Stage) -> bool:
        """Breaker check; emits the half-open transition when due."""
        breaker = self.breakers[backend]
        if breaker.poll(self._clock):
            self._emit(
                "breaker_half_open", stage, backend,
                f"cooldown elapsed at clock {self._clock:.6f}s",
            )
            self._set_breaker_gauge(backend)
        if breaker.allows():
            return True
        self.obs.metrics.counter(f"llm.gateway.skip.{backend}").inc()
        return False

    def _on_success(self, backend: str, stage: Stage) -> None:
        if self.breakers[backend].record_success():
            self._emit(
                "breaker_close", stage, backend, "half-open probe succeeded"
            )
            self._set_breaker_gauge(backend)

    def _on_failure(
        self, backend: str, stage: Stage, detail: str
    ) -> None:
        self._emit("backend_error", stage, backend, detail)
        if self.breakers[backend].record_failure(self._clock):
            self._emit(
                "breaker_open", stage, backend,
                f"{self.breakers[backend].failures} consecutive failures",
            )
            self._set_breaker_gauge(backend)

    # -- dispatch ------------------------------------------------------
    def _maybe_hedge(
        self,
        prompt: str,
        stage: Stage,
        policy: StagePolicy,
        primary: str,
        text: str,
        latency: float,
    ) -> tuple[str, float, str]:
        """Race the fallback against a slow primary completion.

        The primary has already *succeeded* with ``latency``; if that
        exceeds the hedge deadline, the fallback is (deterministically)
        "fired" at the deadline and completes at ``deadline + its own
        latency``.  The earlier completion wins; a tie goes to the
        primary — i.e. to backend order, since the primary is listed
        first for its stage.  Only the winner is accounted; the loser
        costs a metrics counter, never meter usage.
        """
        deadline = policy.hedge_after_s
        fallback = policy.fallback
        if (
            deadline is None
            or fallback is None
            or fallback == primary
            or latency <= deadline
        ):
            return text, latency, primary
        if not self._available(fallback, stage):
            return text, latency, primary
        try:
            alt_text, alt_latency = self.backends[fallback].transport(prompt)
        except BackendError as exc:
            self._on_failure(fallback, stage, f"hedge attempt failed: {exc}")
            return text, latency, primary
        self._on_success(fallback, stage)
        hedged = deadline + alt_latency
        if hedged < latency:
            self._emit(
                "hedge", stage, fallback,
                f"hedge won at {hedged:.6f}s vs primary {latency:.6f}s",
            )
            return alt_text, hedged, fallback
        self._emit(
            "hedge", stage, fallback,
            f"hedge lost at {hedged:.6f}s vs primary {latency:.6f}s",
        )
        self.obs.metrics.counter("llm.gateway.hedge_wasted").inc()
        return text, latency, primary

    def _dispatch(
        self, prompt: str, stage: Stage, policy: StagePolicy
    ) -> tuple[str, float, str]:
        """Serve one prompt under ``policy``; returns (text, latency,
        winning backend).

        Raises:
            GatewayError: when every admissible backend failed or was
                tripped open.
        """
        primary = policy.backend
        fallback = policy.fallback
        if self._available(primary, stage):
            attempts = max(1, policy.max_attempts)
            for attempt in range(1, attempts + 1):
                try:
                    text, latency = self.backends[primary].transport(prompt)
                except BackendError as exc:
                    self._on_failure(
                        primary, stage,
                        f"attempt {attempt}/{attempts}: {exc}",
                    )
                    if not self.breakers[primary].allows():
                        break  # tripped mid-retry; stop hammering it
                    continue
                self._on_success(primary, stage)
                return self._maybe_hedge(
                    prompt, stage, policy, primary, text, latency
                )
        if fallback is not None and self._available(fallback, stage):
            try:
                text, latency = self.backends[fallback].transport(prompt)
            except BackendError as exc:
                self._on_failure(fallback, stage, f"fallback failed: {exc}")
            else:
                self._on_success(fallback, stage)
                self._emit(
                    "fallback", stage, fallback,
                    f"served in place of '{primary}'",
                )
                return text, latency, fallback
        raise GatewayError(
            f"no backend could serve stage '{stage.value}' "
            f"(primary '{primary}'"
            + (f", fallback '{fallback}'" if fallback else "")
            + " failed or tripped open)"
        )

    # -- public surface ------------------------------------------------
    def complete(self, prompt: str, stage: Stage) -> LLMResponse:
        """Route one completion by its stage tag.

        Raises:
            BudgetExceededError: stage quota would be passed (checked
                before spending).
            GatewayError: no admissible backend served the call.
        """
        policy = self.policy.policy_for(stage)
        self._check_budget(prompt, stage, policy)
        text, latency, backend = self._dispatch(prompt, stage, policy)
        response = self._account(prompt, text, stage, latency_s=latency)
        self._clock += latency  # repro-lint: ignore[CONC001] — never shared: split() copies the simulated clock by value; each exec worker advances its own (absorb() deliberately does not fold it back)
        self.obs.metrics.counter(
            f"llm.gateway.calls.{stage.value}.{backend}"
        ).inc()
        return response

    # -- worker-view protocol ------------------------------------------
    def split(self, obs: Observability | None = None) -> "LLMGateway":
        """A worker view: fresh meter/events, value-copied breaker state.

        Backends split recursively (fresh meters, shared read-only
        state, rebound telemetry); breakers and the simulated clock are
        copied by value so the view starts from the parent's snapshot
        and evolves independently — see the module docstring for why
        :meth:`absorb` does not fold this state back.
        """
        clone = copy.copy(self)
        clone.meter = UsageMeter()
        clone.obs = obs if obs is not None else self.obs
        clone.backends = {
            name: backend.split(obs)
            for name, backend in self.backends.items()
        }
        clone.breakers = {
            name: copy.copy(breaker)
            for name, breaker in self.breakers.items()
        }
        clone.events = []
        clone._event_seq = 0
        clone._clock = self._clock
        return clone

    def absorb(self, worker: LLMClient) -> None:
        """Fold back a worker view: usage always, events re-sequenced in
        submit order; breaker/clock state intentionally NOT folded (every
        view starts from the parent snapshot — the jobs-invariance
        contract)."""
        super().absorb(worker)
        if isinstance(worker, LLMGateway):
            for event in worker.events:
                self._append_event(
                    dataclasses.replace(event, seq=self._event_seq)
                )
                self._event_seq += 1


def build_gateway(
    default: LLMClient,
    policy: RoutingPolicy,
    obs: Observability | None = None,
) -> LLMGateway:
    """Materialize a gateway for ``policy`` around the pipeline's client.

    Only backends the policy references are constructed, in
    :meth:`RoutingPolicy.backend_names` order (default first — the hedge
    tie-break order).

    Raises:
        ConfigError: when the policy references an unregistered backend.
    """
    backends: dict[str, LLMClient] = {}
    for name in policy.backend_names():
        factory = BACKEND_FACTORIES.get(name)
        if factory is None:
            raise ConfigError(
                f"unknown LLM backend '{name}' "
                f"(registered: {', '.join(sorted(BACKEND_FACTORIES))})"
            )
        backends[name] = factory(default)
    return LLMGateway(backends=backends, policy=policy, obs=obs)
