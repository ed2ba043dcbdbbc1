"""MultiRAG configuration (hyper-parameters of paper §IV-A(c)).

Defaults follow the paper's experimental settings: temperature β = 0.5,
graph confidence threshold 0.5, α = 0.5 for the authority blend.  The
paper's 50 initial historical entities per source are a constant of the
history store (:attr:`~repro.confidence.history.HistoryStore.init_entities`).
The paper quotes a node confidence threshold of 0.7 on its
(unnormalized) score scale; this implementation's ``C(v) = S_n(v) + A(v)``
lives in [0, 2], and the equivalent operating point calibrates to 1.0
(see ``benchmarks/test_ablation_thresholds.py`` for the sweep).

The three ``enable_*`` flags drive the Table III ablations:

* ``enable_mka = False``   → "w/o MKA": no multi-source line graph; every
  query scans the raw knowledge graph.
* ``enable_graph_level = False`` → "w/o Graph Level": skip the coarse
  graph-confidence prefilter.
* ``enable_node_level = False``  → "w/o Node Level": skip per-node scoring.
* both confidence stages off → "w/o MCC".
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError


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
    fast_path_nodes: int = 2
    top_k: int = 5
    enable_mka: bool = True
    enable_graph_level: bool = True
    enable_node_level: bool = True
    update_history: bool = True
    #: validate runtime contracts (MLG referential integrity, MCC
    #: disjointness, confidence bounds — see ``repro.contracts``)
    #: at the end of ingest/query.  Off by default: the checks are
    #: O(graph) and meant for tests and debugging, not production runs.
    debug_contracts: bool = False
    seed: int = 0
    extraction_noise: float = 0.05

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
        if self.fast_path_nodes < 1:
            raise ConfigError("fast_path_nodes must be at least 1")
        if self.hedge_margin < 0.0:
            raise ConfigError("hedge_margin must be non-negative")
        if self.staleness is not None and self.staleness < 0.0:
            raise ConfigError("staleness must be non-negative")
        if self.top_k < 1:
            raise ConfigError("top_k must be at least 1")

    @property
    def enable_mcc(self) -> bool:
        """True when at least one confidence stage is active."""
        return self.enable_graph_level or self.enable_node_level

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
