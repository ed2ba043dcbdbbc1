"""Per-query LLM call budgets and the completeness of the meters.

Table III compares methods by the prompt time each spends per query, so
the number of LLM calls a query may send is a contract.  ``BOUNDS``
holds it, written by hand for every registered fusion and QA algorithm
and for ``MultiRAG.run``, as a Python expression over three corpus
symbols:

* ``S`` — the number of ingested sources;
* ``H`` — the hops of a chain query (1 for a key query);
* ``C`` — the most candidate claims of one (entity, attribute) key.

The budget tests run every algorithm over a small corpus and assert that
the calls its ``UsageMeter`` records per query never exceed the bound at
that corpus's symbol values.  A change that makes a query send more
calls than its bound must raise the bound here, where a reviewer sees it.

The metering tests check that the meters see every call: a counter
patched over ``SimulatedLLM._generate`` counts each completion the model
generates, on any thread, and must equal the calls the meters record.
Code that generates text without going through ``LLMClient.complete``
(say, by calling ``llm._generate`` itself) sends calls that no meter,
budget or prompt time counts, and fails them.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable

import pytest

from repro.baselines import FUSION_METHODS, QA_METHODS
from repro.core import MultiRAG, MultiRAGConfig
from repro.datasets import make_hotpotqa_like, make_movies
from repro.eval import build_substrate
from repro.exec import Query
from repro.llm import SimulatedLLM

Bound = Callable[[int, int, int], int]

#: LLM calls one query may send, as a function of ``(S, H, C)``; the key
#: ``multirag`` is ``MultiRAG.run``.
BOUNDS: dict[str, Bound] = {
    "fusion:ChatKBQA": lambda S, H, C: 1,
    "fusion:CoT": lambda S, H, C: 1,
    "fusion:FusionQuery": lambda S, H, C: 0,
    "fusion:IRCoT": lambda S, H, C: 2,
    "fusion:LTM": lambda S, H, C: 0,
    "fusion:MCC": lambda S, H, C: C,
    "fusion:MDQA": lambda S, H, C: 1,
    "fusion:MV": lambda S, H, C: 0,
    "fusion:MultiRAG": lambda S, H, C: C*H + 2*H*S + 2*C + H + 4*S + 2,
    "fusion:StandardRAG": lambda S, H, C: 1,
    "fusion:TruthFinder": lambda S, H, C: 0,
    "multirag": lambda S, H, C: C*H + 2*H*S + 2*C + H + 4*S + 2,
    "qa:ChatKBQA": lambda S, H, C: 5*H,
    "qa:GPT-3.5-Turbo+CoT": lambda S, H, C: 4*H,
    "qa:IRCoT": lambda S, H, C: 54*H + 1,
    "qa:MDQA": lambda S, H, C: 54*H + 1,
    "qa:MetaRAG": lambda S, H, C: 111*H,
    "qa:MultiRAG": lambda S, H, C: (
        5*C*H + 10*H*S + 10*C + 5*H + 20*S + 10
    ),
    "qa:RQ-RAG": lambda S, H, C: 54*H + 1,
    "qa:StandardRAG": lambda S, H, C: 36*H + 6,
}


def budget(key: str, env: dict[str, int]) -> int:
    return BOUNDS[key](env["S"], env["H"], env["C"])


@pytest.fixture(scope="module")
def fusion_world():
    dataset = make_movies(scale=0.5, seed=3, n_queries=4)
    substrate = build_substrate(dataset, seed=3, extraction_noise=0.0)
    return dataset, substrate


@pytest.fixture(scope="module")
def qa_world():
    corpus = make_hotpotqa_like(n_queries=6, seed=1)
    return corpus, build_substrate(corpus, seed=1)


def meters_of(method) -> list:
    """Every UsageMeter an algorithm can account LLM calls against."""
    out = []
    llm = getattr(method, "llm", None)
    if llm is not None:
        out.append(llm.meter)
    pipeline = getattr(method, "pipeline", None)
    if pipeline is not None:
        out.append(pipeline.llm.meter)
    assert out or not hasattr(method, "llm"), method
    return out


def max_claims_per_key(graph) -> int:
    return max((len(graph.by_key(*key)) for key in graph.keys()), default=0)


def env_for(method, substrate, hops: int) -> dict[str, int]:
    """Corpus symbol values; C is maximised over every graph in play."""
    claims = max_claims_per_key(substrate.graph)
    pipeline = getattr(method, "pipeline", None)
    if pipeline is not None:
        claims = max(claims, max_claims_per_key(pipeline.fusion.graph))
    return {
        "S": len(substrate.dataset.raw_sources())
        if hasattr(substrate.dataset, "raw_sources")
        else len(substrate.dataset.sources),
        "H": max(1, hops),
        "C": max(1, claims),
    }


def observed_calls(method, run) -> int:
    """Calls the algorithm's meters record during ``run()``.

    A meter that first appears during ``run`` (an algorithm's setup makes
    its own client) counts from zero.
    """
    before = {id(m): m.calls for m in meters_of(method)}
    run()
    return sum(m.calls - before.get(id(m), 0) for m in meters_of(method))


class TestCoverage:
    def test_every_fusion_method_has_a_certified_bound(self):
        missing = {
            f"fusion:{name}" for name in FUSION_METHODS
        } - set(BOUNDS)
        assert not missing

    def test_every_qa_method_has_a_certified_bound(self):
        missing = {f"qa:{name}" for name in QA_METHODS} - set(BOUNDS)
        assert not missing

    def test_pipeline_entry_is_certified(self):
        assert "multirag" in BOUNDS

    def test_no_bound_outlives_its_algorithm(self):
        registered = (
            {f"fusion:{name}" for name in FUSION_METHODS}
            | {f"qa:{name}" for name in QA_METHODS}
            | {"multirag"}
        )
        assert set(BOUNDS) == registered

    def test_every_bound_is_finite(self):
        # A budget is a count: a non-negative integer that never shrinks
        # as the corpus grows.
        grid = range(1, 5)
        for key, bound in BOUNDS.items():
            for S, H, C in itertools.product(grid, grid, grid):
                calls = bound(S, H, C)
                assert isinstance(calls, int) and calls >= 0, key
                assert calls <= min(
                    bound(S + 1, H, C), bound(S, H + 1, C), bound(S, H, C + 1)
                ), key


@pytest.mark.parametrize("name", sorted(FUSION_METHODS))
def test_fusion_calls_within_certified_bound(name, fusion_world):
    dataset, substrate = fusion_world
    method = FUSION_METHODS[name]()
    method.setup(substrate)
    env = env_for(method, substrate, hops=1)
    limit = budget(f"fusion:{name}", env)
    for query in dataset.queries:
        calls = observed_calls(
            method, lambda: method.query(query.entity, query.attribute)
        )
        assert calls <= limit, (
            f"{name}: {calls} LLM calls on {query.qid} exceed its bound "
            f"{limit} at {env}"
        )


@pytest.mark.parametrize("name", sorted(QA_METHODS))
def test_qa_calls_within_certified_bound(name, qa_world):
    corpus, substrate = qa_world
    method = QA_METHODS[name]()
    method.setup(substrate)
    for query in corpus.queries:
        # Both decomposition chains of a comparison question run, so the
        # hop symbol is valued at their total.
        env = env_for(
            method, substrate, hops=len(query.hops) + len(query.hops_b)
        )
        limit = budget(f"qa:{name}", env)
        calls = observed_calls(method, lambda: method.answer(query))
        assert calls <= limit, (
            f"{name}: {calls} LLM calls on {query.qid} exceed its bound "
            f"{limit} at {env}"
        )


def test_pipeline_run_within_certified_bound(fusion_world):
    dataset, substrate = fusion_world
    rag = MultiRAG(config=MultiRAGConfig(extraction_noise=0.0))
    rag.ingest(dataset.raw_sources())
    env = {
        "S": len(dataset.raw_sources()),
        "H": 1,
        "C": max(1, max_claims_per_key(rag.fusion.graph)),
    }
    limit = budget("multirag", env)
    for query in dataset.queries:
        calls = observed_calls(
            rag, lambda: rag.run(Query.key(query.entity, query.attribute))
        )
        assert calls <= limit, (
            f"MultiRAG.run: {calls} calls on {query.qid} exceed its bound "
            f"{limit} at {env}"
        )
    # a two-hop chain query values H at 2
    first = dataset.queries[0]
    calls = observed_calls(rag, lambda: rag.run(Query.chain([
        (first.entity, first.attribute), (None, first.attribute),
    ])))
    assert calls <= budget("multirag", dict(env, H=2))


# ----------------------------------------------------------------------
# every generated completion is metered
# ----------------------------------------------------------------------
class GenerationCounter:
    """Counts the completions ``SimulatedLLM`` generates, on any thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = 0

    def wrap(self, generate):
        def counting(llm, prompt):
            with self._lock:
                self.count += 1
            return generate(llm, prompt)

        return counting

    def assert_metered(self, method, run, label: str) -> None:
        """``run()`` generates exactly the calls ``method``'s meters
        record."""
        generated = self.count
        metered = observed_calls(method, run)
        assert self.count - generated == metered, (
            f"{label}: the model generated {self.count - generated} "
            f"completions, the meters recorded {metered} calls"
        )


@pytest.fixture
def generated(monkeypatch) -> GenerationCounter:
    counter = GenerationCounter()
    monkeypatch.setattr(
        SimulatedLLM, "_generate", counter.wrap(SimulatedLLM._generate)
    )
    return counter


class TestMetering:
    @pytest.mark.parametrize("name", sorted(FUSION_METHODS))
    def test_fusion_method_meters_every_generated_call(
        self, name, fusion_world, generated
    ):
        dataset, substrate = fusion_world
        method = FUSION_METHODS[name]()
        generated.assert_metered(
            method, lambda: method.setup(substrate), f"{name}.setup"
        )
        for query in dataset.queries:
            generated.assert_metered(
                method,
                lambda: method.query(query.entity, query.attribute),
                f"{name}.query({query.qid})",
            )

    @pytest.mark.parametrize("name", sorted(QA_METHODS))
    def test_qa_method_meters_every_generated_call(
        self, name, qa_world, generated
    ):
        corpus, substrate = qa_world
        method = QA_METHODS[name]()
        generated.assert_metered(
            method, lambda: method.setup(substrate), f"{name}.setup"
        )
        for query in corpus.queries:
            generated.assert_metered(
                method, lambda: method.answer(query),
                f"{name}.answer({query.qid})",
            )

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_ingest_and_runs_meter_every_generated_call(
        self, jobs, qa_world, generated
    ):
        corpus, _ = qa_world
        rag = MultiRAG(config=MultiRAGConfig(seed=1))
        generated.assert_metered(
            rag, lambda: rag.ingest(corpus.sources, jobs=jobs),
            f"MultiRAG.ingest(jobs={jobs})",
        )
        assert generated.count > 0  # the text corpus needs extraction
        query = next(q for q in corpus.queries if len(q.hops) == 2)
        entity, attribute = query.hops[0]
        generated.assert_metered(
            rag, lambda: rag.run(Query.key(entity, attribute)),
            "MultiRAG.run(key)",
        )
        generated.assert_metered(
            rag, lambda: rag.run(Query.chain(query.hops)),
            "MultiRAG.run(chain)",
        )
