"""Diagnosis driver: run queries hop-by-hop and attribute failures.

:mod:`repro.obs.diagnose` is the pure attribution calculus; this module
feeds it.  For every query it re-runs the hop decomposition through the
pipeline one hop at a time (the bridge-entity pattern: hop *k*'s subject
is hop *k-1*'s top answer), reduces each hop's evidence trail — stage
values, MCC audit events, ranked answers — to a
:class:`~repro.obs.diagnose.HopRecord`, and folds the per-query
diagnoses into a :class:`~repro.obs.diagnose.DiagnosisReport`.

Fan-out rides the exec engine with the same contract as
``MultiRAG.run_batch``: read-only pipelines diagnose over
``worker_view`` instances and ``jobs=4`` is byte-identical to the
sequential run; history-updating pipelines serialize.

Robustness probes re-run the whole corpus under controlled damage:

* **masked evidence** — every digit run in the source payloads is
  masked before re-ingesting, so numeric/date facts disappear; hops
  that collapse (C→W) were numerically grounded;
* **reworded questions** — explicit-entity hops are re-asked as
  free-text questions instead of structured claim keys, measuring how
  much accuracy the logic-form path is worth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Any, Sequence

from repro.adapters.base import RawSource
from repro.core.config import MultiRAGConfig
from repro.core.pipeline import MultiRAG
from repro.datasets import make_hotpotqa_like, make_movies
from repro.datasets.multihop import Hop, MultiHopDataset, MultiHopQuery
from repro.datasets.schema import QuerySpec
from repro.errors import DatasetError
from repro.exec import ExecutionPlan, Query, execute
from repro.obs import (
    ACTION_DROPPED,
    AuditLog,
    DiagnosisReport,
    HopRecord,
    Observability,
    QueryDiagnosis,
    attribute_query,
)
from repro.util import normalize_value


@dataclass(frozen=True, slots=True)
class DiagnosisTask:
    """One query prepared for hop-by-hop diagnosis."""

    qid: str
    qtype: str
    text: str
    hops: tuple[Hop, ...]
    answers: frozenset[str]
    gold_hops: tuple[frozenset[str], ...]
    hops_b: tuple[Hop, ...] = ()
    gold_hops_b: tuple[frozenset[str], ...] = ()


def as_task(query: MultiHopQuery | QuerySpec) -> DiagnosisTask:
    """Adapt a dataset query (multi-hop or flat) into a DiagnosisTask.

    Flat :class:`QuerySpec` rows (the fusion corpora) become single-hop
    tasks whose only gold hop is the answer set — attribution still
    separates never-retrieved from filtered-out from outranked.
    """
    if isinstance(query, MultiHopQuery):
        gold_hops = query.gold_hops
        if not gold_hops:
            # Datasets predating gold hop labels: the final hop's gold
            # is the answer set; intermediate hops carry no labels.
            gold_hops = tuple(
                frozenset() for _ in query.hops[:-1]
            ) + (query.answers,)
        return DiagnosisTask(
            qid=query.qid,
            qtype=query.qtype,
            text=query.text,
            hops=query.hops,
            answers=query.answers,
            gold_hops=gold_hops,
            hops_b=query.hops_b,
            gold_hops_b=query.gold_hops_b,
        )
    return DiagnosisTask(
        qid=query.qid,
        qtype="single",
        text=query.text,
        hops=((query.entity, query.attribute),),
        answers=query.answers,
        gold_hops=(query.answers,),
    )


def _hop_record(
    index: int,
    entity: str,
    attribute: str,
    result: Any,
    gold: frozenset[str],
) -> HopRecord:
    """Reduce one hop's RetrievalResult to normalized value sets."""
    stage = result.stage_values
    retrieved = frozenset(
        normalize_value(v)
        for v in stage.get("before_subgraph_filtering", [])
    )
    kept = frozenset(
        normalize_value(v)
        for v in stage.get("after_node_filtering", [])
    )
    drop_codes = tuple(sorted({
        (normalize_value(e.value), e.code)
        for e in result.audit
        if e.stage == "mcc.node" and e.action == ACTION_DROPPED and e.code
    }))
    return HopRecord(
        index=index,
        entity=entity,
        attribute=attribute,
        gold=frozenset(normalize_value(v) for v in gold),
        retrieved=retrieved,
        kept=kept,
        top=result.answers[0].value if result.answers else "",
        drop_codes=drop_codes,
    )


def _empty_record(
    index: int, attribute: str, gold: frozenset[str]
) -> HopRecord:
    """Placeholder for a hop never executed (chain broke earlier)."""
    return HopRecord(
        index=index,
        entity="",
        attribute=attribute,
        gold=frozenset(normalize_value(v) for v in gold),
        retrieved=frozenset(),
        kept=frozenset(),
        top="",
    )


def _run_chain(
    view: MultiRAG,
    hops: Sequence[Hop],
    gold_hops: Sequence[frozenset[str]],
    start_index: int,
    reworded: bool = False,
) -> list[HopRecord]:
    """Execute one hop chain, recording each hop's evidence trail."""
    records: list[HopRecord] = []
    previous_top = ""
    broken = False
    for offset, (entity, attribute) in enumerate(hops):
        index = start_index + offset
        gold = gold_hops[offset] if offset < len(gold_hops) else frozenset()
        subject = entity if entity is not None else previous_top
        if broken or not subject:
            broken = True
            records.append(_empty_record(index, attribute, gold))
            continue
        if reworded and entity is not None:
            # Deliberately outside the parser's grammar: the logic form
            # falls back to ``open`` intent and the hop is answered from
            # free retrieval instead of a structured claim-key lookup.
            result = view.run(
                Query.text(f"Please tell me the {attribute} of {subject}.")
            )
        else:
            result = view.run(Query.key(subject, attribute))
        record = _hop_record(index, subject, attribute, result, gold)
        records.append(record)
        previous_top = record.top
        if not previous_top:
            broken = True
    return records


def diagnose_one(
    view: MultiRAG, task: DiagnosisTask, reworded: bool = False
) -> QueryDiagnosis:
    """Diagnose one query on ``view`` (a pipeline or worker view).

    Raises:
        StateError: if the pipeline has not ingested a corpus.
        ContractViolation: if ``debug_contracts`` finds an invalid MCC
            result or answer ranking.
    """
    records_a = _run_chain(view, task.hops, task.gold_hops, 0, reworded)
    records_b = _run_chain(
        view, task.hops_b, task.gold_hops_b, len(task.hops), reworded
    ) if task.hops_b else []
    if task.qtype == "comparison":
        # Mirror the baselines' comparison semantics: equality of the
        # two chains' final answers, "no" when either chain is empty.
        top_a = records_a[-1].top if records_a else ""
        top_b = records_b[-1].top if records_b else ""
        if not top_a or not top_b:
            predicted = "no"
        else:
            predicted = (
                "yes"
                if normalize_value(top_a) == normalize_value(top_b)
                else "no"
            )
    else:
        predicted = records_a[-1].top if records_a else ""
    return attribute_query(
        qid=task.qid,
        qtype=task.qtype,
        hops=records_a,
        gold_answers=task.answers,
        predicted=predicted,
        hops_b=records_b,
    )


def diagnose_batch(
    rag: MultiRAG,
    tasks: Sequence[DiagnosisTask],
    *,
    jobs: int | None = None,
    reworded: bool = False,
) -> list[QueryDiagnosis]:
    """Diagnose a task batch through the exec engine, in submit order.

    Same dispatch contract as ``MultiRAG.run_batch``: history-updating
    pipelines serialize (queries form a dependency chain); read-only
    pipelines fan out over worker views for every worker count, so
    ``jobs=4`` produces byte-identical diagnoses to ``jobs=1``.

    Raises:
        StateError: if the pipeline has not ingested a corpus.
        ConfigError: if the resolved execution plan is invalid.
        ContractViolation: if ``debug_contracts`` finds an invalid MCC
            result or answer ranking.
    """
    items = list(tasks)
    plan = ExecutionPlan.resolve(jobs=jobs)
    if rag.config.update_history:
        return execute(
            len(items),
            plan,
            run=lambda _ctx, i: diagnose_one(rag, items[i], reworded),
            serialize=True,
        )
    return execute(
        len(items),
        plan,
        context=lambda i: rag.worker_view(),
        run=lambda view, i: diagnose_one(view, items[i], reworded),
        merge=lambda view, result, i: rag.absorb_view(view),
    )


#: replaces digit runs when masking evidence values.
_MASK_PATTERN = re.compile(r"\d+")


def _mask_text(text: str) -> str:
    return _MASK_PATTERN.sub("unknown", text)


def _mask_payload(payload: Any) -> Any:
    """Mask digit runs in every string leaf (dict keys left intact)."""
    if isinstance(payload, str):
        return _mask_text(payload)
    if isinstance(payload, dict):
        return {k: _mask_payload(v) for k, v in payload.items()}
    if isinstance(payload, list):
        return [_mask_payload(v) for v in payload]
    return payload


def mask_source_values(sources: Sequence[RawSource]) -> list[RawSource]:
    """Masked copies of ``sources``: numbers/dates become ``unknown``."""
    return [
        replace(raw, payload=_mask_payload(raw.payload)) for raw in sources
    ]


def _fresh_pipeline(rag: MultiRAG) -> MultiRAG:
    """A new pipeline with the same config/seed and a fresh audit log."""
    return MultiRAG(
        rag.config,
        obs=Observability(audit=AuditLog()) if rag.obs.audit.enabled
        else None,
    )


def _probe_payload(
    base: Sequence[QueryDiagnosis], probed: Sequence[QueryDiagnosis]
) -> dict[str, Any]:
    """Compare a probe run against the baseline diagnoses."""
    collapsed = 0
    flipped = 0
    for before, after in zip(base, probed):
        if before.verdict == "correct" and after.verdict != "correct":
            collapsed += 1
        if before.predicted != after.predicted:
            flipped += 1
    correct = sum(1 for d in probed if d.verdict == "correct")
    return {
        "accuracy": round(correct / len(probed), 6) if probed else 0.0,
        "collapsed": collapsed,
        "flipped": flipped,
        "queries": len(probed),
    }


def run_probes(
    rag: MultiRAG,
    sources: Sequence[RawSource],
    tasks: Sequence[DiagnosisTask],
    base: Sequence[QueryDiagnosis],
    *,
    jobs: int | None = None,
) -> dict[str, Any]:
    """Run both robustness probes; returns JSON-ready payloads by name.

    Raises:
        ReproError: if re-ingesting the masked corpus or re-running the
            batch fails (state, config or contract errors).
    """
    masked_rag = _fresh_pipeline(rag)
    masked_rag.ingest(mask_source_values(sources))
    masked = diagnose_batch(masked_rag, tasks, jobs=jobs)
    reworded = diagnose_batch(rag, tasks, jobs=jobs, reworded=True)
    return {
        "masked_evidence": _probe_payload(base, masked),
        "reworded_questions": _probe_payload(base, reworded),
    }


def diagnose_corpus(
    rag: MultiRAG,
    dataset: MultiHopDataset,
    *,
    corpus: str = "",
    jobs: int | None = None,
    probes: bool = False,
    sources: Sequence[RawSource] | None = None,
) -> DiagnosisReport:
    """Diagnose every query of an ingested corpus into one report.

    ``rag`` must already have ingested the corpus's sources;
    ``probes=True`` additionally runs the robustness probes (requires
    ``sources`` — or a :class:`MultiHopDataset` carrying them — so the
    masked probe can re-ingest).

    Raises:
        ReproError: if the pipeline is not ingested, the execution plan
            is invalid, or probes need sources that were not provided.
    """
    tasks = [as_task(q) for q in dataset.queries]
    base = diagnose_batch(rag, tasks, jobs=jobs)
    report = DiagnosisReport(
        corpus=corpus or dataset.name, queries=base
    )
    if probes:
        probe_sources = sources if sources is not None else dataset.sources
        if not probe_sources:
            raise DatasetError(
                "robustness probes need the corpus sources to re-ingest"
            )
        report.probes = run_probes(rag, probe_sources, tasks, base, jobs=jobs)
    return report


#: corpora with committed reference diagnoses under ``results/``.
REFERENCE_CORPORA = ("hotpot", "movies")


def reference_diagnosis(
    name: str, jobs: int | None = None
) -> DiagnosisReport:
    """The canonical seeded diagnosis behind ``results/diagnosis_*.json``.

    Fixed recipe — corpus, seed, scale, config — so the committed tables
    are regenerable byte-identically by CI's drift gate and by
    ``python -m repro evaluate --diagnose`` runs at any worker count.

    Raises:
        DatasetError: if ``name`` is not one of :data:`REFERENCE_CORPORA`.
        ReproError: if building or diagnosing the corpus fails.
    """
    config = MultiRAGConfig(update_history=False)
    obs = Observability(audit=AuditLog())
    rag = MultiRAG(config, obs=obs)
    if name == "hotpot":
        dataset = make_hotpotqa_like(n_queries=24, seed=0)
        rag.ingest(dataset.sources)
        return diagnose_corpus(
            rag, dataset, corpus="hotpot", jobs=jobs, probes=True
        )
    if name == "movies":
        movies = make_movies(seed=0, scale=0.3)
        sources = movies.raw_sources()
        rag.ingest(sources)
        tasks = [as_task(q) for q in list(movies.queries)[:24]]
        base = diagnose_batch(rag, tasks, jobs=jobs)
        report = DiagnosisReport(corpus="movies", queries=base)
        report.probes = run_probes(rag, sources, tasks, base, jobs=jobs)
        return report
    raise DatasetError(
        f"no reference diagnosis recipe for {name!r}; "
        f"known: {', '.join(REFERENCE_CORPORA)}"
    )
