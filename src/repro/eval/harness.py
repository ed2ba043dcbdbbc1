"""Experiment harness: build substrates, run methods, collect table rows.

This is the machinery behind every benchmark in ``benchmarks/``: it fuses a
dataset once into a shared :class:`~repro.baselines.base.Substrate`, then
times each method's ``setup`` and per-query phases separately and scores
predictions against ground truth.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.adapters.fusion import DataFusionEngine
from repro.baselines.base import FusionMethod, QAMethod, Substrate
from repro.datasets.multihop import MultiHopDataset
from repro.datasets.schema import MultiSourceDataset
from repro.exec import ExecutionPlan, Query, execute
from repro.llm.simulated import SimulatedLLM
from repro.metrics import f1_score, mean, precision, recall_at_k
from repro.obs.context import NOOP, Observability
from repro.retrieval.retriever import MultiSourceRetriever


@dataclass(slots=True)
class FusionRow:
    """One (dataset-config, method) cell of Table II / III."""

    dataset: str
    config: str
    method: str
    f1: float
    setup_time_s: float
    query_time_s: float
    prompt_time_s: float
    queries: int

    @property
    def total_time_s(self) -> float:
        return self.setup_time_s + self.query_time_s


@dataclass(slots=True)
class QARow:
    """One (dataset, method) row of Table IV."""

    dataset: str
    method: str
    precision: float
    recall_at_5: float
    queries: int


@dataclass(slots=True)
class StageRecall:
    """Recall@K at MKLGP's three filtering stages (paper §IV-A(b))."""

    before_subgraph: float = 0.0
    before_node: float = 0.0
    after_node: float = 0.0


def build_substrate(
    dataset: MultiSourceDataset | MultiHopDataset,
    seed: int = 0,
    extraction_noise: float = 0.05,
    obs: Observability | None = None,
) -> Substrate:
    """Fuse a dataset once into the substrate all methods share.

    Raises:
        ReproError: if materializing or fusing the dataset fails
            (dataset, format, extraction or entity errors).
    """
    obs = obs if obs is not None else NOOP
    llm = SimulatedLLM(seed=seed, extraction_noise=extraction_noise)
    engine = DataFusionEngine(llm=llm, obs=obs)
    if isinstance(dataset, MultiHopDataset):
        sources = dataset.sources
    else:
        sources = dataset.raw_sources()
    fusion = engine.fuse(sources)
    retriever = MultiSourceRetriever(obs=obs)
    retriever.add_chunks(fusion.chunks)
    retriever.build()
    return Substrate(
        dataset=dataset,
        graph=fusion.graph,
        chunks=fusion.chunks,
        retriever=retriever,
        llm_seed=seed,
    )


def run_fusion_method(
    method: FusionMethod,
    substrate: Substrate,
    dataset: MultiSourceDataset,
    *,
    jobs: int | None = None,
) -> FusionRow:
    """Set up and run one fusion method over every dataset query.

    ``jobs`` (or the ``REPRO_EXEC_WORKERS`` environment variable)
    dispatches the per-query phase through the exec engine.
    Methods that declare themselves stateful (``split()`` returning
    ``None``) are serialized regardless of the requested worker count.

    Raises:
        ConfigError: if the resolved execution plan is invalid.
    """
    setup_start = time.perf_counter()
    method.setup(substrate)
    setup_time = time.perf_counter() - setup_start

    llm = getattr(method, "llm", None)
    pipeline = getattr(method, "pipeline", None)
    if pipeline is not None:
        llm = pipeline.llm
    # Checkpoint/delta instead of a meter reset: the meter keeps running
    # for callers that also read it, and concurrent phases can't race a
    # reset away from each other.
    usage_before = llm.meter.checkpoint() if llm else None

    queries = list(dataset.queries)
    plan = ExecutionPlan.resolve(jobs=jobs)
    query_start = time.perf_counter()
    if plan.workers > 1 and method.split() is not None:
        predictions = execute(
            len(queries),
            plan,
            context=lambda i: method.split(),
            run=lambda view, i: view.query(
                queries[i].entity, queries[i].attribute
            ),
            merge=lambda view, result, i: method.absorb(view),
        )
    else:
        predictions = [
            method.query(query.entity, query.attribute) for query in queries
        ]
    scores = [
        f1_score(predicted, query.answers)
        for predicted, query in zip(predictions, queries)
    ]
    query_time = time.perf_counter() - query_start
    prompt_time = (
        llm.meter.delta(usage_before)["simulated_latency_s"]
        if llm is not None and usage_before is not None
        else 0.0
    )

    return FusionRow(
        dataset=dataset.domain,
        config=dataset.config_name(),
        method=method.name,
        f1=100.0 * mean(scores),
        setup_time_s=setup_time,
        query_time_s=query_time,
        prompt_time_s=prompt_time,
        queries=len(dataset.queries),
    )


def run_fusion_methods(
    methods: list[FusionMethod],
    dataset: MultiSourceDataset,
    seed: int = 0,
    *,
    jobs: int | None = None,
) -> list[FusionRow]:
    """Run several methods against one shared substrate.

    Raises:
        ReproError: if building the substrate fails or the execution
            plan is invalid.
    """
    substrate = build_substrate(dataset, seed=seed)
    return [
        run_fusion_method(m, substrate, dataset, jobs=jobs) for m in methods
    ]


def run_qa_method(
    method: QAMethod,
    substrate: Substrate,
    dataset: MultiHopDataset,
    *,
    jobs: int | None = None,
) -> QARow:
    """Set up and run one QA method over every multi-hop question.

    Same exec dispatch contract as :func:`run_fusion_method`.

    Raises:
        ConfigError: if the resolved execution plan is invalid.
    """
    method.setup(substrate)
    queries = list(dataset.queries)
    plan = ExecutionPlan.resolve(jobs=jobs)
    if plan.workers > 1 and method.split() is not None:
        predictions = execute(
            len(queries),
            plan,
            context=lambda i: method.split(),
            run=lambda view, i: view.answer(queries[i]),
            merge=lambda view, result, i: method.absorb(view),
        )
    else:
        predictions = [method.answer(query) for query in queries]
    precisions = []
    recalls = []
    for prediction, query in zip(predictions, queries):
        precisions.append(precision(prediction.answers, query.answers))
        recalls.append(
            recall_at_k(list(prediction.candidates), query.answers, k=5)
        )
    return QARow(
        dataset=dataset.name,
        method=method.name,
        precision=100.0 * mean(precisions),
        recall_at_5=100.0 * mean(recalls),
        queries=len(dataset.queries),
    )


def run_qa_methods(
    methods: list[QAMethod],
    dataset: MultiHopDataset,
    seed: int = 0,
    *,
    jobs: int | None = None,
) -> list[QARow]:
    """Run several QA methods against one shared substrate.

    Raises:
        ReproError: if building the substrate fails or the execution
            plan is invalid.
    """
    substrate = build_substrate(dataset, seed=seed)
    return [
        run_qa_method(m, substrate, dataset, jobs=jobs) for m in methods
    ]


@dataclass(slots=True)
class MultiRAGStageReport:
    """MKLGP stage-recall measurement over a query stream."""

    rows: list[StageRecall] = field(default_factory=list)

    def averaged(self) -> StageRecall:
        return StageRecall(
            before_subgraph=100.0 * mean(r.before_subgraph for r in self.rows),
            before_node=100.0 * mean(r.before_node for r in self.rows),
            after_node=100.0 * mean(r.after_node for r in self.rows),
        )


def measure_stage_recall(pipeline, dataset: MultiSourceDataset, k: int = 5) -> MultiRAGStageReport:
    """Recall@K before subgraph filtering / before node filtering / after.

    ``pipeline`` must already have ingested the dataset's sources.
    """
    report = MultiRAGStageReport()
    for query in dataset.queries:
        result = pipeline.run(Query.key(query.entity, query.attribute))
        gold = query.answers
        report.rows.append(
            StageRecall(
                before_subgraph=recall_at_k(
                    result.stage_values.get("before_subgraph_filtering", []), gold, k=10**6
                ),
                before_node=recall_at_k(
                    result.stage_values.get("before_node_filtering", []), gold, k=10**6
                ),
                after_node=recall_at_k(
                    result.stage_values.get("after_node_filtering", []), gold, k=k
                ),
            )
        )
    return report
