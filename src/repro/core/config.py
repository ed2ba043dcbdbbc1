"""MultiRAG configuration (hyper-parameters of paper §IV-A(c)).

Defaults follow the paper's experimental settings: temperature β = 0.5,
historical-query entity count initialized to 50, graph confidence threshold
0.5, α = 0.5 for the authority blend.  The paper quotes a node confidence
threshold of 0.7 on its (unnormalized) score scale; this implementation's
``C(v) = S_n(v) + A(v)`` lives in [0, 2], and the equivalent operating
point calibrates to 1.0 (see ``benchmarks/test_ablation_thresholds.py``
for the sweep).

The three ``enable_*`` flags drive the Table III ablations:

* ``enable_mka = False``   → "w/o MKA": no multi-source line graph; every
  query scans the raw knowledge graph.
* ``enable_graph_level = False`` → "w/o Graph Level": skip the coarse
  graph-confidence prefilter.
* ``enable_node_level = False``  → "w/o Node Level": skip per-node scoring.
* both confidence stages off → "w/o MCC".
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.llm.gateway import RoutingPolicy


def _sanitize_default() -> bool:
    """Default for :attr:`MultiRAGConfig.sanitize`: the ``REPRO_SANITIZE``
    environment variable, so CI can run whole suites under the sanitizer
    without touching call sites."""
    return os.environ.get("REPRO_SANITIZE", "").lower() not in (
        "", "0", "false", "no",
    )


def _routing_default() -> dict[str, str]:
    """Default for :attr:`MultiRAGConfig.llm_routing`: the
    ``REPRO_LLM_ROUTING`` environment variable
    (``"ner=sim-small,synthesis=sim-large|sim-small"``), so CI can run
    whole suites through a heterogeneous gateway without touching call
    sites — same pattern as ``REPRO_EXEC_WORKERS``/``REPRO_SANITIZE``."""
    spec = os.environ.get("REPRO_LLM_ROUTING", "").strip()
    if not spec:
        return {}
    from repro.llm.gateway import parse_routing_spec

    return dict(parse_routing_spec(spec))


@dataclass(frozen=True, slots=True)
class MultiRAGConfig:
    """All tunables of the MultiRAG pipeline."""

    alpha: float = 0.5
    beta: float = 0.5
    node_threshold: float = 1.0
    graph_threshold: float = 0.5
    hedge_margin: float = 0.1
    #: freshness window in seconds: when candidates carry observation
    #: timestamps (``Provenance.observed_at``), each source's superseded
    #: claims are dropped and sources last heard more than ``staleness``
    #: before the newest observation are excluded.  ``None`` disables the
    #: temporal filter (timeless data).
    staleness: float | None = None
    history_init_entities: int = 50
    fast_path_nodes: int = 2
    top_k: int = 5
    chunk_max_tokens: int = 64
    min_sources: int = 2
    enable_mka: bool = True
    enable_graph_level: bool = True
    enable_node_level: bool = True
    update_history: bool = True
    #: validate runtime contracts (MLG referential integrity, MCC
    #: disjointness, confidence bounds — see ``repro.lint.contracts``)
    #: at the end of ingest/query.  Off by default: the checks are
    #: O(graph) and meant for tests and debugging, not production runs.
    debug_contracts: bool = False
    seed: int = 0
    extraction_noise: float = 0.05
    #: entity-hash shard count of the knowledge substrate.  Sharding is a
    #: layout/parallelism knob only — query and evaluate output is
    #: byte-identical for any value — but it partitions the snapshot
    #: files and bounds how wide ``ingest(jobs=N)`` can fan extraction
    #: out, so it participates in the snapshot fingerprint.
    n_shards: int = 4
    #: wire the runtime race sanitizer (:mod:`repro.san`) into the
    #: pipeline: worker views wrap their shared attributes in recording
    #: proxies and cross-worker conflicts fail loudly.  Off by default
    #: like ``debug_contracts``; defaults from ``REPRO_SANITIZE``.
    sanitize: bool = field(default_factory=_sanitize_default)
    #: per-stage LLM backend routing, ``stage -> "backend[|fallback]"``
    #: with ``"*"`` overriding the default backend.  Non-empty wires an
    #: :class:`~repro.llm.gateway.LLMGateway` in front of the pipeline's
    #: client; empty (the default) keeps the bare client.  Defaults from
    #: ``REPRO_LLM_ROUTING`` (see :func:`_routing_default`).
    llm_routing: dict[str, str] = field(default_factory=_routing_default)
    #: per-stage gateway knobs, ``stage -> {"max_calls", "max_tokens",
    #: "max_attempts", "hedge_after_s"}`` — runtime quotas for the
    #: statically certified call bounds, retry caps and hedge deadlines.
    llm_stage_limits: dict[str, dict[str, float]] = field(
        default_factory=dict
    )
    #: consecutive backend failures before its circuit breaker trips.
    llm_breaker_threshold: int = 3
    #: simulated seconds an open breaker waits before half-opening.
    llm_breaker_cooldown_s: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.beta <= 0.0:
            raise ConfigError(f"beta must be positive, got {self.beta}")
        if not 0.0 <= self.node_threshold <= 2.0:
            raise ConfigError(
                f"node_threshold must lie in [0, 2] (C(v) = S_n + A), "
                f"got {self.node_threshold}"
            )
        if not 0.0 <= self.graph_threshold <= 1.0:
            raise ConfigError(
                f"graph_threshold must lie in [0, 1], got {self.graph_threshold}"
            )
        if self.history_init_entities < 0:
            raise ConfigError("history_init_entities must be non-negative")
        if self.fast_path_nodes < 1:
            raise ConfigError("fast_path_nodes must be at least 1")
        if self.hedge_margin < 0.0:
            raise ConfigError("hedge_margin must be non-negative")
        if self.staleness is not None and self.staleness < 0.0:
            raise ConfigError("staleness must be non-negative")
        if self.top_k < 1:
            raise ConfigError("top_k must be at least 1")
        if self.min_sources < 2:
            raise ConfigError("min_sources must be at least 2")
        if self.n_shards < 1:
            raise ConfigError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.llm_breaker_threshold < 1:
            raise ConfigError("llm_breaker_threshold must be at least 1")
        if self.llm_breaker_cooldown_s < 0.0:
            raise ConfigError("llm_breaker_cooldown_s must be non-negative")
        if (self.llm_stage_limits and not self.llm_routing):
            raise ConfigError(
                "llm_stage_limits requires llm_routing (the gateway "
                "enforces per-stage limits; set llm_routing={'*': "
                "'default'} for default routing with limits)"
            )

    @property
    def enable_mcc(self) -> bool:
        """True when at least one confidence stage is active."""
        return self.enable_graph_level or self.enable_node_level

    def routing_policy(self) -> "RoutingPolicy | None":
        """The gateway routing policy, or ``None`` when no routing is
        configured (the pipeline then keeps its bare client).

        Raises:
            ConfigError: on unknown stages, backends or limit keys.
        """
        if not self.llm_routing:
            return None
        from repro.llm.gateway import RoutingPolicy

        return RoutingPolicy.from_mappings(
            self.llm_routing,
            self.llm_stage_limits,
            breaker_threshold=self.llm_breaker_threshold,
            breaker_cooldown_s=self.llm_breaker_cooldown_s,
        )

    def without_mka(self) -> "MultiRAGConfig":
        return replace(self, enable_mka=False)

    def without_graph_level(self) -> "MultiRAGConfig":
        return replace(self, enable_graph_level=False)

    def without_node_level(self) -> "MultiRAGConfig":
        return replace(self, enable_node_level=False)

    def without_mcc(self) -> "MultiRAGConfig":
        return replace(self, enable_graph_level=False, enable_node_level=False)

    def with_alpha(self, alpha: float) -> "MultiRAGConfig":
        return replace(self, alpha=alpha)
