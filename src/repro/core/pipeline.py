"""The MultiRAG pipeline (paper §III, Fig. 3).

:class:`MultiRAG` wires the three modules together:

1. **Knowledge construction** (:meth:`ingest`): multi-source fusion through
   the format adapters, LLM extraction for unstructured text, and
   construction of the multi-source line graph (MKA).
2. **Retrieval with multi-level confidence** (:meth:`run`): logic-form
   generation, O(1) candidate lookup in the MLG (or an honest linear scan
   of the raw knowledge graph when MKA is ablated), graph-level and
   node-level confidence computing (MCC), and historical-credibility
   updates from consensus feedback.
3. **Trustworthy generation**: surviving evidence is ranked and handed to
   the LLM to synthesize the final grounded answer.

The combination of :meth:`run` steps is exactly the MKLGP algorithm
(Algorithm 2); see :mod:`repro.core.mklgp` for the annotated procedure.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

import repro.perf as perf
from repro.adapters.base import RawSource
from repro.adapters.fusion import DataFusionEngine, FusionResult
from repro.confidence.calibration import calibrate_history
from repro.confidence.history import HistoryStore
from repro.confidence.mcc import MCCResult, mcc
from repro.confidence.node_level import NodeScorer
from repro.contracts import check_mcc_result, check_mlg, check_ranked_answers
from repro.core.answer import RankedValue, RetrievalResult
from repro.core.config import MultiRAGConfig
from repro.core.logic_form import LogicForm, generate_logic_form
from repro.datasets.schema import MultiSourceDataset
from repro.errors import StateError
from repro.exec import ExecutionPlan, Query, as_query, execute
from repro.kg.triple import Provenance, Triple
from repro.linegraph.homologous import HomologousGroup
from repro.linegraph.mlg import MultiSourceLineGraph
from repro.llm.base import LLMClient
from repro.llm.generation import EvidenceItem, generate_trustworthy_answer
from repro.llm.simulated import SimulatedLLM
from repro.metrics import f1_score, mean
from repro.obs.context import NOOP, Observability
from repro.obs.log import get_logger
from repro.obs.metrics import format_metrics
from repro.retrieval.chunking import SentenceChunker
from repro.retrieval.retriever import MultiSourceRetriever
from repro.snapshot import (
    SnapshotStore,
    SourceDescriptor,
    describe_source,
    fingerprint_from_descriptors,
)
from repro.util import normalize_value


logger = get_logger(__name__)


@dataclass(slots=True)
class BuildReport:
    """What :meth:`MultiRAG.ingest` built and how long it took."""

    construction_time_s: float
    num_triples: int
    num_entities: int
    num_chunks: int
    extraction_calls: int
    mlg_stats: dict[str, float] = field(default_factory=dict)
    #: True when the state came from a snapshot warm load instead of a
    #: cold build (``extraction_calls`` then reports the *original*
    #: build's extraction count, not work done by this process).
    loaded_from_snapshot: bool = False
    #: fingerprint of the snapshot loaded or saved ("" without a store).
    snapshot_fingerprint: str = ""
    #: delta layers replayed on top of the base during a warm load
    #: (0 for a direct base load or a cold build).
    snapshot_layers: int = 0


@dataclass(slots=True)
class EvaluationReport:
    """Aggregate outcome of :meth:`MultiRAG.evaluate`."""

    per_query: list[tuple[str, float]] = field(default_factory=list)
    mean_f1: float = 0.0
    query_time_s: float = 0.0
    prompt_time_s: float = 0.0
    #: metrics snapshot of the run (empty unless the pipeline's metrics
    #: registry is enabled); see :func:`repro.obs.metrics.format_metrics`.
    metrics: dict[str, Any] = field(default_factory=dict)

    def worst(self, n: int = 5) -> list[tuple[str, float]]:
        """The ``n`` lowest-scoring queries (for error triage).

        Score ties break on query id so the triage list is stable across
        runs regardless of evaluation order.
        """
        return sorted(self.per_query, key=lambda pair: (pair[1], pair[0]))[:n]

    def metrics_table(self) -> str:
        """Aligned text rendering of :attr:`metrics` ("" when empty)."""
        if not self.metrics:
            return ""
        return format_metrics(self.metrics)

    def to_json(self, drop_timing: bool = False) -> str:
        """Canonical JSON form of the report (sorted keys).

        ``drop_timing=True`` strips :attr:`query_time_s` — the report's
        only wall-clock field — so two runs of the same seeded evaluation
        compare byte-identically regardless of worker count (the
        determinism contract of :mod:`repro.exec`).  ``prompt_time_s``
        is simulated and deterministic, so it stays.
        """
        data: dict[str, Any] = {
            "per_query": [[qid, score] for qid, score in self.per_query],
            "mean_f1": self.mean_f1,
            "prompt_time_s": round(self.prompt_time_s, 6),
            "metrics": self.metrics,
        }
        if not drop_timing:
            data["query_time_s"] = self.query_time_s
        return json.dumps(data, sort_keys=True)


class MultiRAG:
    """Knowledge-guided multi-source RAG with hallucination mitigation."""

    def __init__(
        self,
        config: MultiRAGConfig | None = None,
        llm: LLMClient | None = None,
        obs: Observability | None = None,
        snapshot: "SnapshotStore | str | Path | None" = None,
    ) -> None:
        self.config = config or MultiRAGConfig()
        self.obs = obs if obs is not None else NOOP
        self.snapshots = self._as_store(snapshot)
        self.llm = llm or SimulatedLLM(
            seed=self.config.seed,
            extraction_noise=self.config.extraction_noise,
        )
        self.history = HistoryStore()
        self.engine = DataFusionEngine(
            llm=self.llm,
            chunker=SentenceChunker(),
            standardize=True,
            obs=self.obs,
        )
        self.retriever = MultiSourceRetriever(obs=self.obs)
        self.fusion: FusionResult | None = None
        self.mlg: MultiSourceLineGraph | None = None
        self.scorer: NodeScorer | None = None
        #: normalized name -> first subject spelled that way (entity
        #: resolution for structured questions).
        self._entity_by_norm: dict[str, str] = {}
        #: first normalized token -> {subject: its normalized token set},
        #: "" for subjects with no tokens (open-intent subject matching).
        self._subject_index: dict[str, dict[str, frozenset[str]]] = {}
        #: descriptors of the ingested corpus, in source order — the
        #: operands of the layer-chain fingerprint algebra
        #: (``add_source`` appends one and re-fingerprints).
        self._source_descriptors: list[SourceDescriptor] = []
        #: fingerprint of the store artifact matching the current state
        #: ("" when no store was involved in the last ingest).
        self._snapshot_fingerprint: str = ""
        #: the store the last ingest resolved (constructor store or the
        #: per-call override) — where ``add_source`` appends delta layers.
        self._active_store: SnapshotStore | None = None

    @staticmethod
    def _as_store(
        snapshot: "SnapshotStore | str | Path | None",
    ) -> SnapshotStore | None:
        if snapshot is None or isinstance(snapshot, SnapshotStore):
            return snapshot
        return SnapshotStore(snapshot)

    @classmethod
    def from_config(
        cls,
        config: MultiRAGConfig | None = None,
        *,
        llm: LLMClient | None = None,
        obs: Observability | None = None,
        snapshot: "SnapshotStore | str | Path | None" = None,
    ) -> "MultiRAG":
        """The canonical way to build a pipeline from a config.

        The CLI, the eval harness and the tests all construct pipelines;
        routing them through one classmethod keeps the construction
        recipe (seeded simulated LLM, noise from the config) in a single
        place.  ``llm`` and ``obs`` override the defaults when a caller
        brings its own.  ``snapshot`` (a store or a directory path)
        enables the persistent-snapshot warm path for :meth:`ingest`.
        """
        return cls(config=config, llm=llm, obs=obs, snapshot=snapshot)

    # ------------------------------------------------------------------
    # knowledge construction (MKA)
    # ------------------------------------------------------------------
    def ingest(
        self,
        sources: list[RawSource],
        *,
        snapshot: "SnapshotStore | str | Path | None" = None,
        jobs: int | None = None,
    ) -> BuildReport:
        """Fuse ``sources`` and build the MLG index (when MKA is enabled).

        With a snapshot store configured (via ``snapshot`` here, or on the
        constructor), the sources/config/LLM fingerprint is checked first.
        On a hit the stored state is warm-loaded from disk: the graph,
        chunks, term counts and history are read, with no parsing,
        extraction or standardization; the retrieval indexes are
        rebuilt from the term counts, and the MLG, scorer and subject
        index from the graph, by the calls a cold build makes.  On a miss
        the cold build runs and its result is saved for the next process.

        ``jobs`` (or the ``REPRO_EXEC_WORKERS`` environment variable)
        parallelizes the extraction phase of a cold build over whole
        documents.  The result is byte-identical to the sequential
        build — parallelism changes wall-clock time, never the
        fingerprint or any ranking.

        Raises:
            UnknownFormatError: if a source declares a format with no adapter.
            ExtractionError: if LLM extraction fails on an unstructured chunk.
            EntityNotFoundError: if fusion meets a dangling entity id.
            ContractViolation: if ``debug_contracts`` finds a malformed MLG.
            SnapshotError: if a matching snapshot is corrupt, or a fresh
                snapshot cannot be written to the store.
            ConfigError: if ``jobs`` (or its environment override) is not
                a positive integer.
        """
        perf.clear_caches()
        plan = (
            ExecutionPlan.resolve(jobs=jobs)
            if jobs is not None or ExecutionPlan.env_requested() else None
        )
        store = self._as_store(snapshot) or self.snapshots
        descriptors = [describe_source(raw) for raw in sources]
        if store is None:
            report = self._ingest_cold(sources, plan=plan)
            self._source_descriptors = descriptors
            self._snapshot_fingerprint = ""
            self._active_store = None
            return report
        fingerprint = fingerprint_from_descriptors(
            self.config, descriptors, self.llm
        )
        if store.has(fingerprint):
            report = self._ingest_warm(
                store, fingerprint, num_sources=len(sources)
            )
            self._source_descriptors = descriptors
            self._snapshot_fingerprint = fingerprint
            self._active_store = store
            return report
        self.obs.metrics.counter("snapshot.misses").inc()
        report = self._ingest_cold(sources, plan=plan)
        assert self.fusion is not None
        with self.obs.tracer.span("snapshot.save", fingerprint=fingerprint):
            store.save(
                fingerprint,
                fusion=self.fusion,
                retriever=self.retriever,
                history=self.history,
                sources=descriptors,
            )
        self.obs.metrics.counter("snapshot.saves").inc()
        report.snapshot_fingerprint = fingerprint
        self._source_descriptors = descriptors
        self._snapshot_fingerprint = fingerprint
        self._active_store = store
        return report

    def _ingest_warm(
        self, store: SnapshotStore, fingerprint: str, num_sources: int
    ) -> BuildReport:
        """Resume from a fingerprint-matched snapshot instead of a cold
        build.

        Reads the graph, chunks, term counts and history, so no source is
        parsed or extracted.  The load rebuilds the retrieval
        indexes from the term counts; :meth:`_index_graph` then rebuilds
        the MLG, scorer and subject index from the graph.  The restored
        history is used as it is, never recalibrated.

        Raises:
            SnapshotError: if the artifact is corrupt or incomplete.
            ContractViolation: if ``debug_contracts`` finds a malformed MLG.
        """
        start = time.perf_counter()
        with self.obs.tracer.span(
            "ingest.snapshot_load", fingerprint=fingerprint
        ) as span:
            state = store.load(fingerprint, obs=self.obs)
            self.fusion = state.fusion
            self.retriever = state.retriever
            self.history = state.history
            graph = self.fusion.graph
            self._index_graph()
            if span.enabled:
                span.set(
                    num_triples=len(graph),
                    num_entities=graph.num_entities(),
                    num_chunks=len(self.fusion.chunks),
                )
        metrics = self.obs.metrics
        metrics.counter("snapshot.loads").inc()
        if state.num_layers:
            metrics.counter("snapshot.layer_loads").inc(state.num_layers)
        metrics.counter("pipeline.ingested_sources").inc(num_sources)
        logger.info(
            "ingest warm-loaded snapshot %s: %d triples, %d entities",
            fingerprint[:12], len(graph), graph.num_entities(),
        )
        return BuildReport(
            construction_time_s=time.perf_counter() - start,
            num_triples=len(graph),
            num_entities=graph.num_entities(),
            num_chunks=len(self.fusion.chunks),
            extraction_calls=self.fusion.extraction_calls,
            mlg_stats=self.mlg.stats() if self.mlg else {},
            loaded_from_snapshot=True,
            snapshot_fingerprint=fingerprint,
            snapshot_layers=state.num_layers,
        )

    def _ingest_cold(
        self,
        sources: list[RawSource],
        plan: ExecutionPlan | None = None,
    ) -> BuildReport:
        """The full knowledge-construction build (no snapshot involved).

        ``plan`` (when given, with ``workers > 1``) parallelizes the
        extraction phase, one task per worker; the fused result is
        byte-identical to the sequential build.

        Raises:
            UnknownFormatError: if a source declares a format with no adapter.
            ExtractionError: if LLM extraction fails on an unstructured chunk.
            EntityNotFoundError: if fusion meets a dangling entity id.
            ContractViolation: if ``debug_contracts`` finds a malformed MLG.
        """
        start = time.perf_counter()
        usage_before = self.llm.meter.checkpoint()
        with self.obs.tracer.span("ingest", num_sources=len(sources)) as span:
            self.fusion = self.engine.fuse(sources, plan=plan)
            graph = self.fusion.graph
            self.retriever = MultiSourceRetriever(obs=self.obs)
            self.retriever.add_chunks(self.fusion.chunks)
            self.retriever.build()
            self._index_graph()
            if self.mlg is not None and self.config.update_history:
                # Construction-time consistency feedback (Definition 5):
                # every homologous group seeds its sources' historical
                # credibility before the first query.
                calibrate_history(self.mlg.groups, self.history)
            if span.enabled:
                span.set(
                    num_triples=len(graph),
                    num_entities=graph.num_entities(),
                    num_chunks=len(self.fusion.chunks),
                    extraction_calls=self.fusion.extraction_calls,
                    **self.llm.meter.delta(usage_before),
                )
        self.obs.metrics.counter("pipeline.ingested_sources").inc(len(sources))
        logger.info(
            "ingest complete: %d triples, %d entities, mlg=%s",
            len(graph), graph.num_entities(),
            self.mlg.stats() if self.mlg else "disabled",
        )
        return BuildReport(
            construction_time_s=time.perf_counter() - start,
            num_triples=len(graph),
            num_entities=graph.num_entities(),
            num_chunks=len(self.fusion.chunks),
            extraction_calls=self.fusion.extraction_calls,
            mlg_stats=self.mlg.stats() if self.mlg else {},
        )

    def _index_graph(self) -> None:
        """Build what both ingest paths derive from the fused graph: the
        MLG (when MKA is enabled), the node scorer, the subject index and
        the ingest gauges, then run the ``debug_contracts`` MLG check.

        Raises:
            ContractViolation: if ``debug_contracts`` finds a malformed MLG.
        """
        assert self.fusion is not None
        graph = self.fusion.graph
        if self.config.enable_mka:
            with self.obs.tracer.span("linegraph.build") as mlg_span:
                self.mlg = MultiSourceLineGraph(graph)
                if mlg_span.enabled:
                    # build_time_s is wall clock — spans carry wall time
                    # only in their timing fields, never attrs.
                    mlg_span.set(**{
                        k: v for k, v in self.mlg.stats().items()
                        if k != "build_time_s"
                    })
        else:
            self.mlg = None
        self.scorer = NodeScorer(
            graph=graph,
            llm=self.llm,
            history=self.history,
            alpha=self.config.alpha,
            beta=self.config.beta,
            obs=self.obs,
        )
        self._entity_by_norm, self._subject_index = {}, {}
        self._index_subjects(t.subject for t in graph.triples())
        if self.config.debug_contracts and self.mlg is not None:
            check_mlg(self.mlg)
        metrics = self.obs.metrics
        metrics.gauge("pipeline.triples").set(len(graph))
        metrics.gauge("pipeline.entities").set(graph.num_entities())
        metrics.gauge("pipeline.chunks").set(len(self.fusion.chunks))

    def add_source(self, raw: RawSource) -> dict[str, int]:
        """Incrementally ingest one more source into a built pipeline.

        Parses (and, for text, LLM-extracts) the new source, standardizes
        its mentions, folds the new claims into the knowledge graph and —
        when MKA is enabled — into the MLG via its incremental update,
        seeding the new groups' consistency feedback into the history.
        Returns the MLG update counts (``joined`` / ``promoted`` /
        ``isolated``) plus ``claims_added``.

        When the pipeline is backed by a snapshot store (the preceding
        :meth:`ingest` saved or warm-loaded a fingerprint there), the
        increment is persisted as a *delta layer*: a content-addressed
        child snapshot holding only this source's descriptor, claims and
        chunks, chained to the current fingerprint.  A later
        ``ingest(base_sources + [raw])`` fingerprint-hits the chain and
        warm-loads base + layers instead of re-extracting anything.

        What scales with the new source: parsing and extraction, mention
        standardization, the graph and MLG updates, tokenizing and
        counting the new chunks, reading their counts into the shared
        term table, and the delta layer.  What still touches the whole
        corpus, and why: the retriever fold regroups the table's postings
        and recomputes, as numpy passes over every posting, each BM25
        impact and each dense TF-IDF weight, because each impact depends
        on the chunk count and the mean chunk length, and each IDF weight
        and row norm on the chunk count.  Neither re-reads an old chunk's
        text or its term counts.  History
        calibration runs over the touched groups only, but finding them
        scans every group, and the new scorer rescans every entity's
        degree for its normalization.

        Raises:
            StateError: if called before :meth:`ingest`.
            UnknownFormatError: if the source declares a format with no
                adapter.
            ExtractionError: if LLM extraction fails on a text chunk.
            SnapshotError: if the delta layer cannot be written to the
                backing store.
        """
        from repro.adapters.base import get_adapter
        from repro.kg.triple import Entity

        self._require_ingested()
        assert self.fusion is not None
        output = get_adapter(raw.fmt).parse(raw)
        triples = list(output.triples)
        extraction_calls = 0

        new_chunks = []
        for doc_id, text in output.documents:
            chunks = self.engine.chunker.chunk(
                text, source_id=raw.source_id, doc_id=doc_id
            )
            new_chunks.extend(chunks)
            if raw.fmt == "text":
                for chunk in chunks:
                    provenance = Provenance(
                        source_id=raw.source_id, domain=raw.domain,
                        fmt=raw.fmt, chunk_id=chunk.chunk_id,
                    )
                    extraction = self.engine.extractor.extract(
                        chunk.text, provenance
                    )
                    triples.extend(extraction.triples)
                    extraction_calls += 1

        # Standardize the new mentions the same way ingest() did.
        mentions = sorted({m for t in triples for m in (t.subject, t.obj)})
        mapping: dict[str, str] = {}
        for i in range(0, len(mentions), 64):
            mapping.update(self.llm.standardize("", mentions[i:i + 64]))

        graph = self.fusion.graph
        added: list[Triple] = []
        for triple in triples:
            standardized = Triple(
                mapping.get(triple.subject, triple.subject),
                triple.predicate,
                mapping.get(triple.obj, triple.obj),
                triple.provenance,
            )
            if graph.add_triple(standardized):
                added.append(standardized)
                if not graph.has_entity(standardized.subject):
                    graph.add_entity(
                        Entity(eid=standardized.subject, name=standardized.subject)
                    )
                graph.entity(standardized.subject).add_attribute(
                    standardized.predicate, standardized.obj
                )
        self._index_subjects(t.subject for t in added)

        self.fusion.chunks.extend(new_chunks)
        self.fusion.extraction_calls += extraction_calls
        self.retriever.add_chunks(new_chunks)
        self.retriever.build()

        stats = {"claims_added": len(added), "joined": 0, "promoted": 0,
                 "isolated": 0}
        if self.mlg is not None:
            stats.update(self.mlg.add_triples(added))
            if self.config.update_history and added:
                affected_keys = {t.key() for t in added}
                affected_groups = [
                    g for g in self.mlg.groups if g.key in affected_keys
                ]
                calibrate_history(affected_groups, self.history, rounds=1)
        # Degree statistics changed; rebuild the scorer's normalization.
        self.scorer = NodeScorer(
            graph=graph, llm=self.llm, history=self.history,
            alpha=self.config.alpha, beta=self.config.beta, obs=self.obs,
        )
        if self._active_store is not None and self._snapshot_fingerprint:
            descriptor = describe_source(raw)
            chain = self._source_descriptors + [descriptor]
            new_fp = fingerprint_from_descriptors(
                self.config, chain, self.llm
            )
            with self.obs.tracer.span(
                "snapshot.save_layer", fingerprint=new_fp
            ):
                self._active_store.save_layer(
                    new_fp,
                    parent=self._snapshot_fingerprint,
                    descriptor=descriptor,
                    triples=added,
                    chunks=new_chunks,
                    history=self.history,
                    extraction_calls=extraction_calls,
                )
            self._source_descriptors = chain
            self._snapshot_fingerprint = new_fp
            self.obs.metrics.counter("snapshot.layer_saves").inc()
        return stats

    # ------------------------------------------------------------------
    # retrieval (MKLGP)
    # ------------------------------------------------------------------
    def run(self, query: Query) -> RetrievalResult:
        """Answer one :class:`~repro.exec.query.Query`.

        The only way to ask the pipeline a question.  Dispatches on
        ``query.kind`` (``text`` → full MKLGP, ``key`` → structured
        claim-key lookup, ``chain`` → multi-hop with bridge entities).
        ``Query`` is also the unit :meth:`run_batch` schedules.

        Raises:
            StateError: if called before :meth:`ingest`.
            ContractViolation: if ``debug_contracts`` finds an invalid MCC
                result or answer ranking.
        """
        if query.kind == "key":
            return self._run_text(f"{query.entity} | {query.attribute}")
        if query.kind == "chain":
            return self._run_chain(query.hops)
        return self._run_text(query.question)

    def _run_text(
        self, question: str, generate: bool = True
    ) -> RetrievalResult:
        """Answer ``question`` through the full MKLGP flow.

        With ``generate`` false the synthesis step is skipped and
        ``generated_text`` stays empty.

        Raises:
            StateError: if called before :meth:`ingest`.
            ContractViolation: if ``debug_contracts`` finds an invalid MCC
                result or answer ranking.
        """
        self._require_ingested()
        start = time.perf_counter()
        usage_before = self.llm.meter.checkpoint()
        audit_mark = self.obs.audit.mark()

        with self.obs.tracer.span("mklgp") as span:
            logic_form = generate_logic_form(question)
            result = RetrievalResult(query=question)
            result.trace.append(f"logic_form: {logic_form.intent}")

            if logic_form.is_structured:
                entity = self._resolve_entity(logic_form.entity or "")
                if entity is None:
                    result.trace.append("entity: unresolved")
                    candidates: list[Triple] = []
                else:
                    result.trace.append(f"entity: {entity}")
                    candidates = self._candidates(entity, logic_form.attribute or "")
            else:
                candidates = self._open_candidates(logic_form)

            candidates = self._apply_freshness(candidates)
            result.candidates_considered = len(candidates)
            result.stage_values["before_subgraph_filtering"] = [t.obj for t in candidates]

            if candidates:
                group = self._as_group(candidates)
                mcc_result = self._run_mcc([group])
                result.mcc = mcc_result
                # After subgraph filtering, before node filtering: fast-path
                # groups have been narrowed to their top consensus nodes, while
                # conflicted groups still carry every member into node-level
                # scrutiny — i.e. exactly the nodes MCC assessed.
                result.stage_values["before_node_filtering"] = [
                    a.value
                    for d in mcc_result.decisions
                    for a in (d.accepted + d.rejected)
                ]
                result.answers = self._rank_answers(mcc_result)
                result.stage_values["after_node_filtering"] = [
                    a.value for a in result.answers
                ]
                if self.config.debug_contracts:
                    check_mcc_result(mcc_result)
                    check_ranked_answers(result.answers)
                if self.config.update_history:
                    self._update_history(candidates, result)
            else:
                result.stage_values["before_node_filtering"] = []
                result.stage_values["after_node_filtering"] = []

            if generate:
                with self.obs.tracer.span("generate") as gen_span:
                    gen_before = self.llm.meter.checkpoint()
                    result.generated_text = self._generate(question, result)
                    if gen_span.enabled:
                        gen_span.set(
                            num_answers=len(result.answers),
                            **self.llm.meter.delta(gen_before),
                        )
            if span.enabled:
                span.set(
                    intent=logic_form.intent,
                    num_candidates=result.candidates_considered,
                    num_answers=len(result.answers),
                    **self.llm.meter.delta(usage_before),
                )

        result.audit = self.obs.audit.since(audit_mark)
        metrics = self.obs.metrics
        metrics.counter("pipeline.queries").inc()
        metrics.histogram("pipeline.candidates").observe(
            result.candidates_considered
        )
        metrics.histogram("pipeline.answers").observe(len(result.answers))
        # integer nanoseconds, so the seconds carry no float noise
        result.prompt_time_s = (
            self.llm.meter.latency_ns - usage_before.latency_ns
        ) / 1e9
        result.query_time_s = time.perf_counter() - start
        logger.debug(
            "query %r: %d candidates -> %d answers in %.4fs (+%.3fs LLM)",
            question, result.candidates_considered, len(result.answers),
            result.query_time_s, result.prompt_time_s,
        )
        return result

    def _run_chain(self, hops: Sequence[tuple[str | None, str]]) -> RetrievalResult:
        """Multi-hop lookup: each hop is ``(entity_or_None, attribute)``.

        ``None`` as a hop's entity means "the top answer of the previous
        hop" — the bridge-entity pattern of HotpotQA/2Wiki questions.
        The returned result carries the final hop's answers and the only
        generated text: earlier hops feed the chain through their MCC
        ranking, so they skip synthesis.  Traces of all hops are
        concatenated.

        Raises:
            StateError: if called before :meth:`ingest`.
            ContractViolation: if ``debug_contracts`` finds an invalid MCC
                result or answer ranking.
        """
        self._require_ingested()
        usage_before = self.llm.meter.checkpoint()
        result: RetrievalResult | None = None
        trace: list[str] = []
        total_qt = 0.0
        last = len(hops) - 1
        for hop, (entity, attribute) in enumerate(hops):
            if entity is None:
                if result is None or not result.answers:
                    empty = RetrievalResult(query=f"? | {attribute}")
                    empty.trace = trace + ["chain broken: no bridge answer"]
                    return empty
                entity = result.answers[0].value
            result = self._run_text(
                f"{entity} | {attribute}", generate=hop == last
            )
            trace.extend(result.trace)
            total_qt += result.query_time_s
        assert result is not None
        prompt_ns = self.llm.meter.latency_ns - usage_before.latency_ns
        result.trace = trace  # repro-lint: ignore[CONC001] — result is the task-local record _run_text just constructed
        result.query_time_s = total_qt  # repro-lint: ignore[CONC001] — task-local result record (see above)
        result.prompt_time_s = prompt_ns / 1e9  # repro-lint: ignore[CONC001] — task-local result record (see above)
        return result

    # ------------------------------------------------------------------
    # concurrent batch execution
    # ------------------------------------------------------------------
    def worker_view(self) -> "MultiRAG":
        """A read-only pipeline view for one exec worker task.

        Shares the immutable substrate — config, fused graph, MLG, entity
        and subject indexes, history, consensus engine — by reference,
        but binds a fresh observability bundle, a meter-isolated LLM
        clone and a per-view scorer so concurrent tasks never write
        shared state.
        The parent folds telemetry back with :meth:`absorb_view`.

        Raises:
            StateError: if called before :meth:`ingest`.
        """
        self._require_ingested()
        assert self.fusion is not None and self.scorer is not None
        view = object.__new__(MultiRAG)
        view.config = self.config
        view.snapshots = self.snapshots
        view.fusion = self.fusion
        view.mlg = self.mlg
        view.history = self.history
        view.engine = self.engine
        view._entity_by_norm = self._entity_by_norm
        view._subject_index = self._subject_index
        # Snapshot bookkeeping is read-only on the query path; views
        # mirror it so they answer like the parent (worker views never
        # add_source, so they never write a layer).
        view._source_descriptors = self._source_descriptors
        view._snapshot_fingerprint = self._snapshot_fingerprint
        view._active_store = self._active_store
        view.obs = self.obs.split()
        view.llm = self.llm.split()
        view.retriever = self.retriever.with_obs(view.obs)
        view.scorer = NodeScorer(
            self.fusion.graph,
            view.llm,
            self.history,
            alpha=self.config.alpha,
            beta=self.config.beta,
            obs=view.obs,
        )
        return view

    def absorb_view(self, view: "MultiRAG") -> None:
        """Fold a :meth:`worker_view`'s meter and telemetry back in.

        Routes through :meth:`LLMClient.absorb`, which merges the view's
        usage into this client's meter.

        Raises:
            StateError: if the view's tracer still has an open span.
        """
        self.llm.absorb(view.llm)
        self.obs.absorb(view.obs)

    def run_batch(
        self,
        queries: Sequence[Query],
        *,
        jobs: int | None = None,
    ) -> list[RetrievalResult]:
        """Run a query batch through the exec engine, in submit order.

        With ``config.update_history`` enabled, queries form a dependency
        chain through the consensus-feedback history, so the batch is
        serialized on this pipeline (identical to a plain ``run`` loop).
        Read-only pipelines fan out over :meth:`worker_view` instances —
        for *every* worker count, so ``jobs=1`` and ``jobs=4`` produce
        byte-identical results and telemetry.

        Raises:
            StateError: if called before :meth:`ingest`.
            ConfigError: if the resolved execution plan is invalid.
            ContractViolation: if ``debug_contracts`` finds an invalid MCC
                result or answer ranking.
        """
        self._require_ingested()
        tasks = list(queries)
        plan = ExecutionPlan.resolve(jobs=jobs)
        if self.config.update_history:
            return execute(
                len(tasks),
                plan,
                run=lambda _ctx, i: self.run(tasks[i]),
                serialize=True,
            )
        return execute(
            len(tasks),
            plan,
            context=lambda i: self.worker_view(),
            run=lambda view, i: view.run(tasks[i]),
            merge=lambda view, result, i: self.absorb_view(view),
        )

    def evaluate(
        self,
        queries: "Sequence[Query] | MultiSourceDataset",
        *,
        jobs: int | None = None,
    ) -> "EvaluationReport":
        """Answer a query batch and score it against gold answers.

        Accepts :class:`~repro.exec.query.Query` objects (or
        QuerySpec-likes, adapted via :func:`~repro.exec.query.as_query`)
        or a whole :class:`~repro.datasets.schema.MultiSourceDataset`.
        Returns per-query F1 plus aggregate statistics.

        Pass ``jobs`` — or set the ``REPRO_EXEC_WORKERS`` environment
        variable — to dispatch through the exec engine; engine runs at
        any worker count produce byte-identical reports (compare with
        ``to_json(drop_timing=True)``).  Without either, queries run as a
        plain sequential loop.

        Raises:
            StateError: if called before :meth:`ingest`.
            ConfigError: if a query spec or the execution plan is invalid.
            ContractViolation: if ``debug_contracts`` finds an invalid MCC
                result or answer ranking.
        """
        specs = queries.queries if isinstance(queries, MultiSourceDataset) else queries
        tasks = [as_query(spec) for spec in specs]
        usage_before = self.llm.meter.checkpoint()
        if jobs is not None or ExecutionPlan.env_requested():
            results = self.run_batch(tasks, jobs=jobs)
        else:
            results = [self.run(task) for task in tasks]
        report = EvaluationReport()
        for task, result in zip(tasks, results):
            predicted = {a.value for a in result.answers}
            score = f1_score(predicted, task.answers or frozenset())
            report.per_query.append((task.qid, score))
            report.query_time_s += result.query_time_s
        # the meter's integer-nanosecond delta (worker views merge into
        # it before run_batch returns), so the total carries no float
        # noise of adding up the per-query seconds
        report.prompt_time_s = (
            self.llm.meter.latency_ns - usage_before.latency_ns
        ) / 1e9
        report.mean_f1 = 100.0 * mean(s for _, s in report.per_query)
        if self.obs.metrics.enabled:
            report.metrics = self.obs.metrics.snapshot()
        logger.info(
            "evaluated %d queries: mean F1 %.1f%%",
            len(report.per_query), report.mean_f1,
        )
        return report

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _require_ingested(self) -> None:
        if self.fusion is None or self.scorer is None:
            raise StateError("call ingest() before querying")

    def _index_subjects(self, subjects: Iterable[str]) -> None:
        """Add each distinct subject to ``_entity_by_norm`` and
        ``_subject_index``, normalizing it once."""
        for subject in dict.fromkeys(subjects):
            norm = normalize_value(subject)
            self._entity_by_norm.setdefault(norm, subject)
            tokens = norm.split()
            bucket = self._subject_index.setdefault(
                tokens[0] if tokens else "", {}
            )
            bucket.setdefault(subject, frozenset(tokens))

    def _resolve_entity(self, name: str) -> str | None:
        assert self.fusion is not None
        graph = self.fusion.graph
        if graph.by_subject(name):
            return name
        return self._entity_by_norm.get(normalize_value(name))

    def _candidates(self, entity: str, attribute: str) -> list[Triple]:
        """Candidate claims for a key — O(1) via MLG; without MKA the
        pipeline must fall back to retrieve-and-extract."""
        assert self.fusion is not None
        if self.mlg is not None:
            return self.mlg.candidates(entity, attribute)
        return self._candidates_without_mka(entity, attribute)

    def _candidates_without_mka(self, entity: str, attribute: str) -> list[Triple]:
        """The w/o-MKA ablation path (Table III).

        With no aggregated line graph there is no key index to consult:
        candidates must be recovered the way a plain RAG system recovers
        them — retrieve chunks from every source, read each retrieved
        chunk with the LLM, and keep the statements matching the asked
        key.  This is both expensive (LLM extraction per query — the
        paper's QT blow-up) and lossy (retrieval misses, and per-source
        surface variants are never standardized against each other).
        """
        assert self.fusion is not None
        spoken = attribute.replace("_", " ")
        hits = self.retriever.retrieve_per_source(
            f"{entity} {spoken}", k_per_source=2
        )
        target = normalize_value(entity)
        candidates: list[Triple] = []
        seen: set[tuple[str, str, str, str]] = set()
        for hit in hits:
            for subject, predicate, obj in self.llm.extract_triples(hit.item.text, []):
                if predicate != attribute or normalize_value(subject) != target:
                    continue
                dedup = (subject, predicate, obj, hit.item.source_id)
                if dedup in seen:
                    continue
                seen.add(dedup)
                candidates.append(
                    Triple(
                        entity, attribute, obj,
                        Provenance(
                            source_id=hit.item.source_id,
                            fmt="chunk",
                            chunk_id=hit.item.chunk_id,
                        ),
                    )
                )
        return candidates

    def _open_candidates(self, logic_form: LogicForm) -> list[Triple]:
        """Claims that answer a free-form question.

        A claim qualifies when its source owns one of the top-k retrieved
        chunks, every token of its normalized subject occurs in the
        question, and its predicate shares a ``_``-separated token with
        the question.  Candidates come source by source in first-hit
        order, each source's claims in insertion order.

        The subjects are found in ``_subject_index`` instead of by reading
        every claim of the hit sources: a subject whose tokens all occur
        in the question has its first token there too, so the question's
        token buckets (plus ``""`` for token-less subjects) hold every
        qualifying subject, and ``by_subjects`` reads only their claims.
        The result equals that scan, order included;
        ``tests/core/test_open_intent.py`` keeps the scan as the oracle.
        """
        assert self.fusion is not None
        hits = self.retriever.retrieve(logic_form.raw, k=self.config.top_k)
        rank: dict[str, int] = {}
        for hit in hits:
            rank.setdefault(hit.item.source_id, len(rank))
        words = normalize_value(logic_form.raw).split()
        query_tokens = set(words)
        subjects = [
            subject
            for token in dict.fromkeys(["", *words])
            for subject, tokens in self._subject_index.get(token, {}).items()
            if tokens <= query_tokens
        ]
        candidates = [
            triple
            for triple in self.fusion.graph.by_subjects(subjects)
            if triple.source_id() in rank
            and not query_tokens.isdisjoint(triple.predicate.split("_"))
        ]
        candidates.sort(key=lambda triple: rank[triple.source_id()])
        return candidates

    def _apply_freshness(self, candidates: list[Triple]) -> list[Triple]:
        """Temporal supersede/staleness filter over the candidate set.

        When claims carry observation timestamps, each source's older
        claims for the key are superseded by its newest observation, and
        sources last heard more than ``config.staleness`` before the
        freshest observation are dropped entirely — a stale "on time" is
        an earlier snapshot, not a conflicting opinion.  Timeless claims
        (no timestamp) pass through untouched.
        """
        if self.config.staleness is None or not candidates:
            return candidates
        timed = [c for c in candidates
                 if c.provenance and c.provenance.observed_at is not None]
        if not timed:
            return candidates
        timeless = [c for c in candidates
                    if not c.provenance or c.provenance.observed_at is None]
        latest_per_source: dict[str, Triple] = {}
        for claim in sorted(timed, key=lambda c: c.provenance.observed_at):
            latest_per_source[claim.source_id()] = claim
        newest = max(
            c.provenance.observed_at for c in latest_per_source.values()
        )
        fresh = [
            c for c in latest_per_source.values()
            if newest - c.provenance.observed_at <= self.config.staleness
        ]
        return timeless + fresh

    def _as_group(self, candidates: list[Triple]) -> HomologousGroup:
        """Wrap the candidate set of one retrieval as a homologous group
        (Definition 3: same candidate set ⇒ homologous)."""
        return HomologousGroup.of(candidates[0].key(), candidates)

    def _run_mcc(self, groups: list[HomologousGroup]) -> MCCResult:
        assert self.scorer is not None
        return mcc(
            groups,
            self.scorer,
            node_threshold=self.config.node_threshold,
            graph_threshold=self.config.graph_threshold,
            enable_graph_level=self.config.enable_graph_level,
            enable_node_level=self.config.enable_node_level,
            fast_path_nodes=self.config.fast_path_nodes,
            hedge_margin=self.config.hedge_margin,
            obs=self.obs,
        )

    def _rank_answers(self, mcc_result: MCCResult) -> list[RankedValue]:
        by_value: dict[str, list] = defaultdict(list)
        display: dict[str, str] = {}
        for assessment in mcc_result.accepted_assessments():
            key = normalize_value(assessment.value)
            by_value[key].append(assessment)
            display.setdefault(key, assessment.value)
        ranked = []
        for key, assessments in by_value.items():
            best = max(a.confidence for a in assessments)
            support = len({a.source_id for a in assessments})
            # Normalize C(v) ∈ [0, 2] to a [0, 1] display confidence and
            # nudge by multi-source support for stable ordering.
            confidence = min(1.0, best / 2.0 + 0.05 * (support - 1))
            ranked.append(
                RankedValue(
                    value=display[key],
                    confidence=round(confidence, 6),
                    sources=tuple(sorted({a.source_id for a in assessments})),
                )
            )
        ranked.sort(key=lambda r: (-r.confidence, r.value))
        return ranked

    def _update_history(
        self, candidates: list[Triple], result: RetrievalResult
    ) -> None:
        """Consensus feedback: sources whose claims made the final answer
        set gain credibility; contradicted sources lose it."""
        answer_set = result.answer_set()
        if not answer_set:
            return
        for triple in candidates:
            accepted = normalize_value(triple.obj) in answer_set
            self.history.update(triple.source_id(), accepted)

    def _generate(self, question: str, result: RetrievalResult) -> str:
        evidence = [
            EvidenceItem(
                entity=assessment.triple.subject,
                attribute=assessment.triple.predicate,
                value=assessment.value,
                confidence=min(1.0, assessment.confidence / 2.0),
                source_id=assessment.source_id,
            )
            for assessment in (result.mcc.accepted_assessments() if result.mcc else [])
        ]
        return generate_trustworthy_answer(self.llm, question, evidence)
