"""Our methods, wrapped in the shared fusion-method interface.

* :class:`MCCMethod` — the multi-level confidence computing module alone,
  applied to candidates fetched straight from the knowledge graph's key
  index (Table II's "MCC" column).
* :class:`MultiRAGMethod` — the full pipeline: multi-source line graph
  aggregation + MCC + historical credibility updates (Table II's
  "MultiRAG" column and the subject of every ablation).
"""

from __future__ import annotations

from repro.baselines.base import FusionMethod, Substrate, register_fusion
from repro.confidence.history import HistoryStore
from repro.confidence.mcc import mcc
from repro.confidence.node_level import NodeScorer
from repro.core.config import MultiRAGConfig
from repro.core.pipeline import MultiRAG
from repro.exec import Query
from repro.linegraph.homologous import HomologousGroup


@register_fusion
class MCCMethod(FusionMethod):
    """Confidence computing over directly indexed candidates (no MLG)."""

    name = "MCC"

    def __init__(self, config: MultiRAGConfig | None = None) -> None:
        self.config = config or MultiRAGConfig()

    def setup(self, substrate: Substrate) -> None:
        super().setup(substrate)
        self.llm = substrate.fresh_llm()
        self.history = HistoryStore()
        self.scorer = NodeScorer(
            graph=substrate.graph,
            llm=self.llm,
            history=self.history,
            alpha=self.config.alpha,
            beta=self.config.beta,
        )

    def query(self, entity: str, attribute: str) -> set[str]:
        candidates = self.substrate.graph.by_key(entity, attribute)
        if not candidates:
            return set()
        result = mcc(
            [HomologousGroup.of((entity, attribute), candidates)],
            self.scorer,
            node_threshold=self.config.node_threshold,
            graph_threshold=self.config.graph_threshold,
            fast_path_nodes=self.config.fast_path_nodes,
            hedge_margin=self.config.hedge_margin,
        )
        return {a.value for a in result.accepted_assessments()}

    def split(self) -> "MCCMethod":
        """A concurrent view: shared graph/history, isolated LLM meter.

        The query path only *reads* the graph key index and the history
        store, so views are safe to run in parallel; each carries its
        own LLM clone (and a scorer bound to it) for race-free
        accounting.

        Raises:
            ConfigError: if this method's config is invalid.
        """
        view = MCCMethod(self.config)
        view.substrate = self.substrate
        view.llm = self.llm.split()
        view.history = self.history
        view.scorer = NodeScorer(
            graph=self.substrate.graph,
            llm=view.llm,
            history=self.history,
            alpha=self.config.alpha,
            beta=self.config.beta,
        )
        return view

    def absorb(self, worker: FusionMethod) -> None:
        assert isinstance(worker, MCCMethod)
        self.llm.meter.merge(worker.llm.meter)


@register_fusion
class MultiRAGMethod(FusionMethod):
    """The complete MultiRAG pipeline behind the fusion interface."""

    name = "MultiRAG"

    def __init__(self, config: MultiRAGConfig | None = None) -> None:
        self.config = config or MultiRAGConfig()

    def setup(self, substrate: Substrate) -> None:
        """Build and ingest the full MultiRAG pipeline.

        Raises:
            ReproError: if pipeline construction or ingestion fails
                (bad config, dataset materialization, unknown format,
                extraction or contract failure).
        """
        super().setup(substrate)
        self.pipeline = MultiRAG(
            config=self.config,
            llm=substrate.fresh_llm(extraction_noise=self.config.extraction_noise),
        )
        self.build_report = self.pipeline.ingest(substrate.dataset.raw_sources())

    def query(self, entity: str, attribute: str) -> set[str]:
        """Answer one (entity, attribute) key query.

        Raises:
            StateError: if :meth:`setup` has not run.
            ContractViolation: if a pipeline contract check fails in
                ``debug_contracts`` mode.
        """
        result = self.pipeline.run(Query.key(entity, attribute))
        return {a.value for a in result.answers}

    def split(self) -> "MultiRAGMethod | None":
        """A concurrent view over a pipeline worker view.

        Only valid when the config disables consensus-feedback history
        (``update_history=False``): with feedback on, each query's
        outcome influences the next query's credibility scores, so the
        batch must stay sequential — signalled by returning ``None``.

        Raises:
            ConfigError: if this method's config is invalid.
            StateError: if :meth:`setup` has not run.
        """
        if self.config.update_history:
            return None
        view = MultiRAGMethod(self.config)
        view.substrate = self.substrate
        view.pipeline = self.pipeline.worker_view()
        return view

    def absorb(self, worker: FusionMethod) -> None:
        assert isinstance(worker, MultiRAGMethod)
        self.pipeline.absorb_view(worker.pipeline)

    @property
    def prompt_time_s(self) -> float:
        """Accumulated simulated LLM latency (the PT columns)."""
        return self.pipeline.llm.meter.simulated_latency_s
