"""Multi-source data fusion engine (Eq. 2 of the paper).

``D_Fusion = ⋃ A_i(D_i)``: every raw source is routed through its format's
adapter; deterministic triples go straight into the knowledge graph, text
documents are chunked and handed to the LLM extractor, and everything ends
up in one unified, provenance-carrying :class:`KnowledgeGraph` plus a chunk
corpus shared by all retrieval methods.

Fusion can run *parallel*: with an
:class:`~repro.exec.plan.ExecutionPlan` of more than one worker the LLM
extraction work — by far the dominant ingest cost — fans out over the
exec engine's bounded worker pool, whole text documents dealt
round-robin into one task per worker.  The parallel path is
byte-identical to the sequential one: extraction is a pure function of
``(chunk, provenance)``, each worker runs against its own LLM clone
(``llm.split()``), worker meters are absorbed in task order at the merge
barrier, and the fold into the graph replays the exact sequential
source/chunk order on the coordinating thread.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.adapters.base import AdapterOutput, RawSource, get_adapter
from repro.exec.engine import execute
from repro.exec.plan import ExecutionPlan
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Entity, Provenance, Triple
from repro.llm.base import LLMClient
from repro.llm.extraction import ExtractionResult, SchemaFreeExtractor
from repro.llm.simulated import SimulatedLLM
from repro.obs.context import NOOP, Observability
from repro.obs.log import get_logger
from repro.retrieval.chunking import Chunk, SentenceChunker


logger = get_logger(__name__)


@dataclass(slots=True)
class FusionResult:
    """Output of one fusion run over a set of sources."""

    graph: KnowledgeGraph
    chunks: list[Chunk] = field(default_factory=list)
    build_time_s: float = 0.0
    extraction_calls: int = 0


class DataFusionEngine:
    """Fuse heterogeneous sources into one knowledge graph + chunk corpus."""

    def __init__(
        self,
        llm: LLMClient | None = None,
        chunker: SentenceChunker | None = None,
        standardize: bool = False,
        obs: Observability | None = None,
    ) -> None:
        self.llm = llm or SimulatedLLM()
        self.chunker = chunker or SentenceChunker(max_tokens=64)
        self.extractor = SchemaFreeExtractor(self.llm)
        self.obs = obs if obs is not None else NOOP
        #: run the LLM standardization phase (the ``std`` prompt of paper
        #: §III-B) over every entity and value after fusion, unifying
        #: per-source surface variants ("Nolan, Christopher" →
        #: "Christopher Nolan").  MultiRAG's pipeline enables this;
        #: string-level baselines consume the raw fused graph.
        self.standardize = standardize

    def fuse(
        self,
        sources: list[RawSource],
        graph_name: str = "fused",
        *,
        plan: ExecutionPlan | None = None,
    ) -> FusionResult:
        """Run ``D_Fusion = ⋃ A_i(D_i)`` over ``sources``.

        A ``plan`` with more than one worker fans the per-chunk LLM
        extraction out over the exec engine, one task per worker, with
        byte-identical results to the sequential path.

        Raises:
            UnknownFormatError: if a source declares a format with no adapter.
            AdapterError: if a source payload does not match its format.
            ExtractionError: if LLM extraction fails on an unstructured chunk.
            EntityNotFoundError: if entity registration meets a dangling id.
            ConfigError: if ``plan`` carries an invalid worker count.
        """
        start = time.perf_counter()
        graph = KnowledgeGraph(name=graph_name)
        result = FusionResult(graph=graph)

        if plan is not None and plan.workers > 1:
            self._fuse_parallel(sources, graph, result, plan)
        else:
            self._fuse_sequential(sources, graph, result)

        if self.standardize:
            result.graph = self._standardize_graph(result.graph)

        result.build_time_s = time.perf_counter() - start
        logger.info(
            "fused %d sources: %d claims, %d chunks, %d extraction calls "
            "in %.3fs",
            len(sources), len(result.graph), len(result.chunks),
            result.extraction_calls, result.build_time_s,
        )
        return result

    def _fuse_sequential(
        self,
        sources: list[RawSource],
        graph: KnowledgeGraph,
        result: FusionResult,
    ) -> None:
        """The reference single-threaded fusion loop.

        Raises:
            UnknownFormatError: if a source declares a format with no adapter.
            AdapterError: if a source payload does not match its format.
            ExtractionError: if LLM extraction fails on an unstructured chunk.
            EntityNotFoundError: if entity registration meets a dangling id.
        """
        metrics = self.obs.metrics
        for raw in sources:
            adapter = get_adapter(raw.fmt)
            with self.obs.tracer.span(f"adapter:{raw.fmt}") as span:
                output = adapter.parse(raw)
                graph.add_triples(output.triples)
                self._register_entities(graph, output.triples)

                chunks_before = len(result.chunks)
                extractions_before = result.extraction_calls
                usage_before = self.llm.meter.checkpoint()
                for doc_id, text in output.documents:
                    chunks = self.chunker.chunk(
                        text, source_id=raw.source_id, doc_id=doc_id
                    )
                    result.chunks.extend(chunks)
                    if raw.fmt == "text":
                        # Unstructured sources carry no parsed triples:
                        # recover them with the three-phase LLM extractor
                        # per chunk.
                        for chunk in chunks:
                            provenance = Provenance(
                                source_id=raw.source_id,
                                domain=raw.domain,
                                fmt=raw.fmt,
                                chunk_id=chunk.chunk_id,
                            )
                            extraction = self.extractor.extract(
                                chunk.text, provenance
                            )
                            graph.add_triples(extraction.triples)
                            for entity in extraction.entities:
                                graph.add_entity(entity)
                            result.extraction_calls += 1
                if span.enabled:
                    span.set(
                        **adapter.span_attributes(raw, output),
                        num_chunks=len(result.chunks) - chunks_before,
                        **self.llm.meter.delta(usage_before),
                    )
            metrics.counter(f"fusion.sources.{raw.fmt}").inc()
            metrics.counter("fusion.triples").inc(len(output.triples))
            metrics.counter("fusion.chunks").inc(
                len(result.chunks) - chunks_before
            )
            metrics.counter("fusion.extraction_calls").inc(
                result.extraction_calls - extractions_before
            )

    def _fuse_parallel(
        self,
        sources: list[RawSource],
        graph: KnowledgeGraph,
        result: FusionResult,
        plan: ExecutionPlan,
    ) -> None:
        """Parallel fusion, byte-identical to the sequential loop.

        Three phases.  *Plan* (coordinating thread): parse every adapter
        and chunk every document in source order, listing each text
        document's extraction units exactly as the sequential loop would
        visit them.  *Extract* (worker pool): whole documents are dealt
        round-robin in submit order into one task per worker; each task
        runs the pure per-chunk extractor against a private LLM clone,
        and the merge barrier absorbs worker meters back in task order.
        *Fold* (coordinating thread): replay the sequential source/chunk
        order, inserting parsed triples and the reassembled extractions
        into the graph — insertion order, entity registration order and
        all metric totals match the sequential path element for element.

        Raises:
            UnknownFormatError: if a source declares a format with no adapter.
            AdapterError: if a source payload does not match its format.
            ExtractionError: if LLM extraction fails on an unstructured
                chunk (the lowest-submit-index failure, per the engine's
                deterministic error contract).
            EntityNotFoundError: if entity registration meets a dangling id.
        """
        metrics = self.obs.metrics

        parsed: list[tuple[RawSource, AdapterOutput, list[list[Chunk]]]] = []
        # each text document's extraction units, in submit order
        documents: list[list[tuple[Chunk, Provenance]]] = []
        for raw in sources:
            adapter = get_adapter(raw.fmt)
            output = adapter.parse(raw)
            per_doc: list[list[Chunk]] = []
            for doc_id, text in output.documents:
                chunks = self.chunker.chunk(
                    text, source_id=raw.source_id, doc_id=doc_id
                )
                per_doc.append(chunks)
                if raw.fmt == "text":
                    documents.append([
                        (chunk, Provenance(
                            source_id=raw.source_id,
                            domain=raw.domain,
                            fmt=raw.fmt,
                            chunk_id=chunk.chunk_id,
                        ))
                        for chunk in chunks
                    ])
            parsed.append((raw, output, per_doc))

        # Task ``b`` extracts documents ``b, b + n, b + 2n, ...``: the
        # chunks of one document stay on one worker, and membership is a
        # function of submit order, never of scheduling.
        n_tasks = min(plan.workers, len(documents))
        extracted: list[list[ExtractionResult]] = [[] for _ in documents]

        def _context(task: int) -> tuple[LLMClient, SchemaFreeExtractor]:
            worker = self.llm.split()
            return worker, SchemaFreeExtractor(worker)

        def _run(
            ctx: tuple[LLMClient, SchemaFreeExtractor], task: int
        ) -> list[list[ExtractionResult]]:
            # Workers only read the shared document list (frozen before
            # submission) and return their own results.
            _worker, extractor = ctx
            return [
                [extractor.extract(chunk.text, prov) for chunk, prov in doc]
                for doc in documents[task::n_tasks]
            ]

        def _merge(
            ctx: tuple[LLMClient, SchemaFreeExtractor],
            out: list[list[ExtractionResult]],
            task: int,
        ) -> None:
            worker, _extractor = ctx
            self.llm.absorb(worker)
            extracted[task::n_tasks] = out

        with self.obs.tracer.span(
            "fusion.parallel", num_tasks=n_tasks,
            num_documents=len(documents),
        ) as span:
            usage_before = self.llm.meter.checkpoint()
            execute(n_tasks, plan, run=_run, context=_context, merge=_merge)
            if span.enabled:
                span.set(**self.llm.meter.delta(usage_before))

        # Fold phase: identical element order to _fuse_sequential.  Each
        # source still gets its adapter span (the span taxonomy is the
        # same at every worker count); per-source LLM usage lives on the
        # fusion.parallel span above, where the calls actually ran.
        doc_results = iter(extracted)
        for raw, output, per_doc in parsed:
            adapter = get_adapter(raw.fmt)
            with self.obs.tracer.span(f"adapter:{raw.fmt}") as span:
                graph.add_triples(output.triples)
                self._register_entities(graph, output.triples)
                chunks_before = len(result.chunks)
                extractions_before = result.extraction_calls
                for chunks in per_doc:
                    result.chunks.extend(chunks)
                    if raw.fmt == "text":
                        for extraction in next(doc_results):
                            graph.add_triples(extraction.triples)
                            for entity in extraction.entities:
                                graph.add_entity(entity)
                            result.extraction_calls += 1
                if span.enabled:
                    span.set(
                        **adapter.span_attributes(raw, output),
                        num_chunks=len(result.chunks) - chunks_before,
                    )
            metrics.counter(f"fusion.sources.{raw.fmt}").inc()
            metrics.counter("fusion.triples").inc(len(output.triples))
            metrics.counter("fusion.chunks").inc(
                len(result.chunks) - chunks_before
            )
            metrics.counter("fusion.extraction_calls").inc(
                result.extraction_calls - extractions_before
            )

    def _standardize_graph(self, graph: KnowledgeGraph) -> KnowledgeGraph:
        """Entity standardization over the fused graph (``std`` phase).

        All distinct mentions (subjects and objects) are standardized in
        batches through the LLM; the graph is rebuilt with canonical names
        so homologous matching sees one spelling per real-world entity.
        """
        mentions: list[str] = []
        seen: set[str] = set()
        for triple in graph.triples():
            for mention in (triple.subject, triple.obj):
                if mention not in seen:
                    seen.add(mention)
                    mentions.append(mention)
        mapping: dict[str, str] = {}
        batch_size = 64
        for i in range(0, len(mentions), batch_size):
            batch = mentions[i : i + batch_size]
            mapping.update(self.llm.standardize("", batch))

        canonical = KnowledgeGraph(name=graph.name)
        for triple in graph.triples():
            canonical.add_triple(
                Triple(
                    subject=mapping.get(triple.subject, triple.subject),
                    predicate=triple.predicate,
                    obj=mapping.get(triple.obj, triple.obj),
                    provenance=triple.provenance,
                )
            )
        self._register_entities(canonical, list(canonical.triples()))
        return canonical

    @staticmethod
    def _register_entities(graph: KnowledgeGraph, triples: list[Triple]) -> None:
        """Ensure each triple subject exists as an entity with its attributes."""
        for triple in triples:
            if graph.has_entity(triple.subject):
                entity = graph.entity(triple.subject)
            else:
                entity = graph.add_entity(
                    Entity(eid=triple.subject, name=triple.subject)
                )
            entity.add_attribute(triple.predicate, triple.obj)
