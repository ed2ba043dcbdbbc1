"""MultiRAG — knowledge-guided hallucination mitigation for multi-source RAG.

Reproduction of *MultiRAG: A Knowledge-Guided Framework for Mitigating
Hallucination in Multi-Source Retrieval Augmented Generation* (ICDE 2025).

Quickstart::

    from repro import MultiRAG, MultiRAGConfig, RawSource
    from repro.exec import Query

    rag = MultiRAG(MultiRAGConfig())
    rag.ingest([RawSource("s1", "movies", "csv", "a.csv", csv_text), ...])
    result = rag.run(Query.text("Who directed Inception?"))
    print(result.answers)

Subpackages:

* :mod:`repro.adapters`   — multi-source data fusion (Definition 1, Eq. 2)
* :mod:`repro.kg`         — knowledge-graph substrate + JSON-LD storage
* :mod:`repro.llm`        — simulated LLM, OpenSPG-style extraction prompts
* :mod:`repro.retrieval`  — chunking, TF-IDF, BM25, multi-source retriever
* :mod:`repro.linegraph`  — multi-source line graphs (Definitions 2–5)
* :mod:`repro.confidence` — multi-level confidence computing (Algorithm 1)
* :mod:`repro.core`       — the MultiRAG pipeline and MKLGP (Algorithm 2)
* :mod:`repro.baselines`  — every method the paper compares against
* :mod:`repro.datasets`   — synthetic equivalents of the paper's benchmarks
* :mod:`repro.eval`       — metrics and the experiment harness
* :mod:`repro.exec`       — deterministic concurrent batch execution
"""

from repro.adapters import DataFusionEngine, RawSource
from repro.confidence import HistoryStore, mcc
from repro.core import (
    BuildReport,
    MultiRAG,
    MultiRAGConfig,
    RankedValue,
    RetrievalResult,
    mklgp,
)
from repro.errors import ReproError
from repro.kg import Entity, KnowledgeGraph, Provenance, Triple
from repro.linegraph import MultiSourceLineGraph
from repro.llm import SimulatedLLM

__version__ = "1.0.0"

__all__ = [
    "BuildReport",
    "DataFusionEngine",
    "Entity",
    "HistoryStore",
    "KnowledgeGraph",
    "MultiRAG",
    "MultiRAGConfig",
    "MultiSourceLineGraph",
    "Provenance",
    "RankedValue",
    "RawSource",
    "ReproError",
    "RetrievalResult",
    "SimulatedLLM",
    "Triple",
    "__version__",
    "mcc",
    "mklgp",
]
