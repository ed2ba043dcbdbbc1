"""Multi-hop QA methods for the Table IV comparison.

Every method answers :class:`~repro.datasets.multihop.MultiHopQuery`
instances over the same fused wiki substrate.  They differ in *how* they
chain hops and *whether* they weigh conflicting evidence:

========================  =================================================
StandardRAG               one retrieval on the question, no chaining
GPT-3.5-Turbo+CoT         closed-book parametric recall
IRCoT                     retrieve per hop, majority bridge
ChatKBQA                  logical-form execution on the extracted KG
MDQA                      per-hop local KG, in-graph majority
RQ-RAG                    query decomposition, union retrieval
MetaRAG                   retrieve → monitor → re-plan on conflict
MultiRAG (ours)           per-hop MCC-filtered lookup through the MLG
========================  =================================================

Comparison questions ("were A and B born in the same city?") are answered
by resolving both chains with the method's own mechanism and comparing.
"""

from __future__ import annotations

from collections import Counter

from repro.baselines.base import (
    QAMethod,
    QAPrediction,
    Substrate,
    register_qa,
)
from repro.core.config import MultiRAGConfig
from repro.core.planner import plan_question
from repro.core.pipeline import MultiRAG
from repro.datasets.multihop import MultiHopQuery
from repro.exec import Query
from repro.llm.stage import Stage
from repro.util import normalize_value, stable_uniform


def _doc_entity(doc_id: str) -> str:
    """Entity name encoded in a wiki chunk's doc id (``source:source:entity``)."""
    return doc_id.split(":")[-1]


def _ranked(counter: Counter[str], display: dict[str, str]) -> tuple[str, ...]:
    ordered = sorted(counter, key=lambda k: (-counter[k], k))
    return tuple(display[k] for k in ordered)


class _RetrievalChainMixin:
    """Shared hop resolution through a retriever.

    Retrieved chunks are read through the method's own (noisy) LLM
    extraction — every method pays the same reading-comprehension tax that
    MultiRAG pays when building its knowledge graph.  Statement subjects
    are matched after basic normalization only: surface variants such as
    "Ivanov, Jorge" stay unmatched, exactly the alignment gap a
    string-level reader has.

    Each method retrieves the way its original paper does —
    ``retrieval_mode`` selects sparse (BM25), dense (TF-IDF cosine) or
    hybrid first-stage ranking over the shared chunk corpus.
    """

    substrate: Substrate
    llm: object
    top_k: int = 5
    retrieval_mode: str = "hybrid"

    def _build_retriever(self) -> None:
        """Build this method's own retriever over the shared corpus."""
        from repro.retrieval.retriever import MultiSourceRetriever

        self.retriever = MultiSourceRetriever(mode=self.retrieval_mode)
        self.retriever.add_chunks(self.substrate.chunks)
        self.retriever.build()

    def _hop_values(
        self, entity: str, attribute: str
    ) -> tuple[Counter[str], dict[str, str], list[str]]:
        spoken = attribute.replace("_", " ")
        question = f"{entity} {spoken}"
        hits = self.retriever.retrieve(question, k=self.top_k)
        counts: Counter[str] = Counter()
        display: dict[str, str] = {}
        docs: list[str] = []
        target = normalize_value(entity)
        for hit in hits:
            docs.append(_doc_entity(hit.item.doc_id))
            for subject, predicate, obj in self.llm.extract_triples(hit.item.text, []):
                if normalize_value(subject) == target and predicate == attribute:
                    key = normalize_value(obj)
                    counts[key] += 1
                    display.setdefault(key, obj)
        return counts, display, docs

    def _resolve_chain(
        self, hops: tuple[tuple[str | None, str], ...]
    ) -> tuple[tuple[str, ...], list[str]]:
        """Follow hops via retrieval; returns ranked final values + docs."""
        current: str | None = None
        ranked: tuple[str, ...] = ()
        docs: list[str] = []
        for entity, attribute in hops:
            subject = entity if entity is not None else (ranked[0] if ranked else None)
            if subject is None:
                return (), docs
            counts, display, hop_docs = self._hop_values(subject, attribute)
            docs.extend(hop_docs)
            if not counts:
                return (), docs
            ranked = _ranked(counts, display)
            current = ranked[0]
        del current
        return ranked, docs


def _compare(a: tuple[str, ...], b: tuple[str, ...]) -> frozenset[str]:
    if not a or not b:
        return frozenset({"no"})
    same = normalize_value(a[0]) == normalize_value(b[0])
    return frozenset({"yes" if same else "no"})


def _comparison_prediction(
    a: tuple[str, ...], b: tuple[str, ...], docs: list[str]
) -> QAPrediction:
    answers = _compare(a, b)
    return QAPrediction(
        answers=answers,
        candidates=tuple(answers),
        retrieved_entities=tuple(docs[:5]),
    )


@register_qa
class QAStandardRAG(QAMethod, _RetrievalChainMixin):
    """Single retrieval on the raw question; no hop chaining."""

    name = "StandardRAG"
    top_k = 5
    retrieval_mode = "hybrid"

    def setup(self, substrate: Substrate) -> None:
        super().setup(substrate)
        self.llm = substrate.fresh_llm()
        self._build_retriever()

    def answer(self, query: MultiHopQuery) -> QAPrediction:
        if query.qtype == "comparison":
            a, docs_a = self._resolve_chain(query.hops)
            b, docs_b = self._resolve_chain(query.hops_b)
            return _comparison_prediction(a, b, docs_a + docs_b)
        hits = self.retriever.retrieve(query.text, k=self.top_k)
        docs = [_doc_entity(h.item.doc_id) for h in hits]
        final_attr = query.hops[-1][1]
        counts: Counter[str] = Counter()
        display: dict[str, str] = {}
        for hit in hits:
            for _, predicate, obj in self.llm.extract_triples(hit.item.text, []):
                if predicate == final_attr:
                    key = normalize_value(obj)
                    counts[key] += 1
                    display.setdefault(key, obj)
        ranked = _ranked(counts, display)
        if ranked:
            self.llm.generate_answer(query.text, [f"x | {final_attr} | {ranked[0]}"])
        answers = frozenset({ranked[0]}) if ranked else frozenset()
        return QAPrediction(
            answers=answers, candidates=ranked[:5], retrieved_entities=tuple(docs[:5])
        )


@register_qa
class QACoT(QAMethod):
    """Closed-book chain-of-thought (GPT-3.5-Turbo+CoT row of Table IV)."""

    name = "GPT-3.5-Turbo+CoT"

    def __init__(self, knowledge_accuracy: float = 0.45) -> None:
        self.knowledge_accuracy = knowledge_accuracy

    def setup(self, substrate: Substrate) -> None:
        super().setup(substrate)
        oracle: dict[str, set[str]] = {}
        pool: set[str] = set()
        for (entity, attribute), values in getattr(
            substrate.dataset, "facts", {}
        ).items():
            oracle[f"{entity}|{attribute}"] = set(values)
            pool |= values
        self._oracle = oracle
        self._oracle_pairs = [
            ((entity, attribute), values)
            for key, values in oracle.items()
            for entity, attribute in [tuple(key.split("|", 1))]
        ]
        self.llm = substrate.fresh_llm(
            knowledge_accuracy=self.knowledge_accuracy,
            hallucination_pool=tuple(sorted(pool))[:200] or ("unknown",),
        )

    def _chain_once(self, hops, attempt: int) -> list[str]:
        ranked: list[str] = []
        current: str | None = None
        for entity, attribute in hops:
            subject = entity if entity is not None else current
            if subject is None:
                return []
            # Distinct attempts model CoT self-consistency sampling.
            text = self.llm.parametric_answer(f"{subject}|{attribute}#t{attempt}")
            values = [p.strip() for p in text.split(";") if p.strip()]
            if not values:
                return []
            current = values[0]
            ranked = values
        return ranked

    def answer(self, query: MultiHopQuery) -> QAPrediction:
        # The CoT model reasons hop by hop from parametric memory: each hop
        # is a recall with the configured accuracy, so chains compound
        # error.  Three self-consistency samples give the candidate list
        # its depth (Recall@5 > precision, as in the paper).
        oracle = {f"{k}#t{i}": v
                  for i in range(3)
                  for k, v in (
                      (f"{e}|{a}", vals)
                      for (e, a), vals in self._oracle_pairs
                  )}
        self.llm.knowledge = oracle
        samples = [self._chain_once(query.hops, i) for i in range(3)]
        ranked = []
        for sample in samples:
            for value in sample:
                if normalize_value(value) not in {normalize_value(v) for v in ranked}:
                    ranked.append(value)
        current = samples[0][0] if samples[0] else None
        del current
        if query.qtype == "comparison":
            b_ranked = self._chain_once(query.hops_b, 0)
            return _comparison_prediction(
                tuple(samples[0]), tuple(b_ranked), []
            )
        answers = frozenset(ranked[:1]) if ranked else frozenset()
        return QAPrediction(answers=answers, candidates=tuple(ranked[:5]))


@register_qa
class QAIRCoT(QAMethod, _RetrievalChainMixin):
    """Interleaved retrieval: resolve each hop with its own retrieval.

    Faithful to the original recipe, the chain trusts the *first* matching
    statement in retrieval order rather than voting across documents —
    iterative retrieval refines the query, not the adjudication.  A noisy
    page that ranks first therefore propagates straight into the chain.
    """

    name = "IRCoT"
    top_k = 3
    retrieval_mode = "sparse"  # the original interleaves BM25 retrieval

    def setup(self, substrate: Substrate) -> None:
        super().setup(substrate)
        self.llm = substrate.fresh_llm()
        self._build_retriever()

    def _hop_values(self, entity, attribute):
        counts, display, docs = super()._hop_values(entity, attribute)
        if counts:
            # Keep only the statement encountered first in retrieval order.
            first = next(iter(display))
            counts = Counter({first: 1})
            display = {first: display[first]}
        return counts, display, docs

    def answer(self, query: MultiHopQuery) -> QAPrediction:
        if query.qtype == "comparison":
            a, docs_a = self._resolve_chain(query.hops)
            b, docs_b = self._resolve_chain(query.hops_b)
            return _comparison_prediction(a, b, docs_a + docs_b)
        ranked, docs = self._resolve_chain(query.hops)
        if ranked:
            self.llm.generate_answer(query.text, [f"x | answer | {ranked[0]}"])
        answers = frozenset({ranked[0]}) if ranked else frozenset()
        return QAPrediction(
            answers=answers, candidates=ranked[:5], retrieved_entities=tuple(docs[:5])
        )


@register_qa
class QAChatKBQA(QAMethod):
    """Logical-form execution against the extracted knowledge graph."""

    name = "ChatKBQA"

    def setup(self, substrate: Substrate) -> None:
        super().setup(substrate)
        self.llm = substrate.fresh_llm()

    #: probability that the generated logical form fails to ground — the
    #: semantic-parsing error rate of generate-then-retrieve KBQA.
    lf_error_rate = 0.12

    def _hop(self, entity: str, attribute: str) -> tuple[str, ...]:
        if stable_uniform("lf", entity, attribute, seed=0) < self.lf_error_rate:
            return ()
        claims = self.substrate.graph.by_key(entity, attribute)
        counts: Counter[str] = Counter()
        display: dict[str, str] = {}
        for claim in claims:
            key = normalize_value(claim.obj)
            counts[key] += 1
            display.setdefault(key, claim.obj)
        return _ranked(counts, display)

    def _chain(self, hops: tuple[tuple[str | None, str], ...]) -> tuple[str, ...]:
        ranked: tuple[str, ...] = ()
        for entity, attribute in hops:
            subject = entity if entity is not None else (ranked[0] if ranked else None)
            if subject is None:
                return ()
            # One generation call per hop: the logical-form step.
            self.llm.complete(
                "### TASK: answer\n### QUERY\nlf\n### INPUT\n"
                f"{subject} | {attribute} | ?\n### END\n",
                stage=Stage.OTHER,  # baseline-specific: logical-form generation
            )
            ranked = self._hop(subject, attribute)
            if not ranked:
                return ()
        return ranked

    def answer(self, query: MultiHopQuery) -> QAPrediction:
        plan = plan_question(query.text)
        if plan.qtype == "comparison":
            return _comparison_prediction(
                self._chain(plan.hops), self._chain(plan.hops_b), []
            )
        if plan.is_planned:
            hops, hops_b = plan.hops, ()
        else:  # unplannable phrasing: fall back to the gold decomposition
            hops, hops_b = query.hops, query.hops_b
        if query.qtype == "comparison" and hops_b:
            return _comparison_prediction(
                self._chain(hops), self._chain(hops_b), []
            )
        ranked = self._chain(hops)
        answers = frozenset({ranked[0]}) if ranked else frozenset()
        return QAPrediction(answers=answers, candidates=ranked[:5])


@register_qa
class QAMDQA(QAMethod, _RetrievalChainMixin):
    """Per-hop retrieval into a local KG, in-graph majority per hop."""

    name = "MDQA"
    top_k = 6
    retrieval_mode = "dense"  # KG-prompting over dense passage retrieval

    def setup(self, substrate: Substrate) -> None:
        super().setup(substrate)
        self.llm = substrate.fresh_llm()
        self._build_retriever()

    def answer(self, query: MultiHopQuery) -> QAPrediction:
        if query.qtype == "comparison":
            a, docs_a = self._resolve_chain(query.hops)
            b, docs_b = self._resolve_chain(query.hops_b)
            return _comparison_prediction(a, b, docs_a + docs_b)
        ranked, docs = self._resolve_chain(query.hops)
        if ranked:
            # Graph-prompting generation over the local subgraph.
            self.llm.generate_answer(query.text, [f"x | kg | {v}" for v in ranked[:3]])
        answers = frozenset({ranked[0]}) if ranked else frozenset()
        return QAPrediction(
            answers=answers, candidates=ranked[:5], retrieved_entities=tuple(docs[:5])
        )


@register_qa
class QARQRAG(QAMethod, _RetrievalChainMixin):
    """Query refinement: decompose, retrieve every sub-query, then chain."""

    name = "RQ-RAG"
    top_k = 5
    retrieval_mode = "hybrid"

    def setup(self, substrate: Substrate) -> None:
        super().setup(substrate)
        self.llm = substrate.fresh_llm()
        self._build_retriever()

    def answer(self, query: MultiHopQuery) -> QAPrediction:
        # Decomposition call (the "learning to refine" step).
        self.llm.complete(
            "### TASK: answer\n### QUERY\n" + query.text
            + "\n### INPUT\ndecompose\n### END\n",
            stage=Stage.OTHER,  # baseline-specific: decomposition/refine
        )
        if query.qtype == "comparison":
            a, docs_a = self._resolve_chain(query.hops)
            b, docs_b = self._resolve_chain(query.hops_b)
            return _comparison_prediction(a, b, docs_a + docs_b)
        ranked, docs = self._resolve_chain(query.hops)
        answers = frozenset({ranked[0]}) if ranked else frozenset()
        return QAPrediction(
            answers=answers, candidates=ranked[:5], retrieved_entities=tuple(docs[:5])
        )


@register_qa
class QAMetaRAG(QAMethod, _RetrievalChainMixin):
    """Metacognitive loop: answer, monitor for conflict, re-plan if needed."""

    name = "MetaRAG"
    top_k = 4
    retrieval_mode = "hybrid"

    def setup(self, substrate: Substrate) -> None:
        super().setup(substrate)
        self.llm = substrate.fresh_llm()
        self._build_retriever()

    def _chain_with_monitor(
        self, hops: tuple[tuple[str | None, str], ...]
    ) -> tuple[tuple[str, ...], list[str]]:
        ranked: tuple[str, ...] = ()
        docs: list[str] = []
        for entity, attribute in hops:
            subject = entity if entity is not None else (ranked[0] if ranked else None)
            if subject is None:
                return (), docs
            counts, display, hop_docs = self._hop_values(subject, attribute)
            docs.extend(hop_docs)
            distinct = len(counts)
            if distinct != 1:
                # Monitoring detected conflict or a miss: evaluate and
                # re-plan with a wider retrieval.
                self.llm.complete(
                    "### TASK: answer\n### QUERY\nmonitor\n### INPUT\n"
                    f"{subject} {attribute} conflicts={distinct}\n### END\n",
                    stage=Stage.OTHER,  # baseline-specific: metacognitive monitor
                )
                saved_k = self.top_k
                self.top_k = saved_k * 3
                counts, display, hop_docs = self._hop_values(subject, attribute)
                self.top_k = saved_k
                docs.extend(hop_docs)
            if not counts:
                return (), docs
            ranked = _ranked(counts, display)
        return ranked, docs

    def answer(self, query: MultiHopQuery) -> QAPrediction:
        if query.qtype == "comparison":
            a, docs_a = self._chain_with_monitor(query.hops)
            b, docs_b = self._chain_with_monitor(query.hops_b)
            return _comparison_prediction(a, b, docs_a + docs_b)
        ranked, docs = self._chain_with_monitor(query.hops)
        answers = frozenset({ranked[0]}) if ranked else frozenset()
        return QAPrediction(
            answers=answers, candidates=ranked[:5], retrieved_entities=tuple(docs[:5])
        )


@register_qa
class QAMultiRAG(QAMethod):
    """MultiRAG on multi-hop questions: MCC-filtered lookups per hop.

    Hop decomposition comes from the question *text* via the question
    planner (MKLGP's logic-form step); the dataset's gold decomposition is
    only a fallback for unplannable phrasings.
    """

    name = "MultiRAG"

    def __init__(self, config: MultiRAGConfig | None = None) -> None:
        self.config = config or MultiRAGConfig()

    def setup(self, substrate: Substrate) -> None:
        """Build and ingest the full MultiRAG pipeline.

        Raises:
            ReproError: if pipeline construction or ingestion fails
                (bad config, unknown format, extraction or contract
                failure).
        """
        super().setup(substrate)
        self.pipeline = MultiRAG(
            config=self.config,
            llm=substrate.fresh_llm(extraction_noise=self.config.extraction_noise),
        )
        self.pipeline.ingest(substrate.dataset.sources)

    def _chain(self, hops: tuple[tuple[str | None, str], ...]) -> tuple[str, ...]:
        result = self.pipeline.run(Query.chain(hops))
        ranked = [a.value for a in result.answers]
        # Depth for Recall@5: after the accepted values, the next-best
        # candidates by node confidence (the "more nodes extracted" of
        # low-confidence subgraphs).
        if result.mcc is not None:
            rejected = sorted(
                (a for d in result.mcc.decisions for a in d.rejected),
                key=lambda a: -a.confidence,
            )
            seen = {normalize_value(v) for v in ranked}
            for assessment in rejected:
                if normalize_value(assessment.value) not in seen:
                    seen.add(normalize_value(assessment.value))
                    ranked.append(assessment.value)
        return tuple(ranked)

    def split(self) -> "QAMultiRAG | None":
        """A concurrent view (read-only pipelines only; see
        :meth:`repro.baselines.ours.MultiRAGMethod.split`).

        Raises:
            ConfigError: if this method's config is invalid.
            StateError: if :meth:`setup` has not run.
        """
        if self.config.update_history:
            return None
        view = QAMultiRAG(self.config)
        view.substrate = self.substrate
        view.pipeline = self.pipeline.worker_view()
        return view

    def absorb(self, worker: QAMethod) -> None:
        assert isinstance(worker, QAMultiRAG)
        self.pipeline.absorb_view(worker.pipeline)

    def answer(self, query: MultiHopQuery) -> QAPrediction:
        """Plan the question and answer it hop by hop with MultiRAG.

        Raises:
            StateError: if :meth:`setup` has not run.
            ContractViolation: if a pipeline contract check fails in
                ``debug_contracts`` mode.
        """
        plan = plan_question(query.text)
        if plan.qtype == "comparison":
            return _comparison_prediction(
                self._chain(plan.hops), self._chain(plan.hops_b), []
            )
        if plan.is_planned:
            hops, hops_b = plan.hops, ()
        else:  # unplannable phrasing: fall back to the gold decomposition
            hops, hops_b = query.hops, query.hops_b
        if query.qtype == "comparison" and hops_b:
            return _comparison_prediction(
                self._chain(hops), self._chain(hops_b), []
            )
        ranked = self._chain(hops)
        answers = frozenset({ranked[0]}) if ranked else frozenset()
        return QAPrediction(answers=answers, candidates=ranked[:5])
