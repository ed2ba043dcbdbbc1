"""Shared fixtures: a small multi-source movie corpus and built pipelines."""

from __future__ import annotations

import pytest

from repro.adapters import DataFusionEngine, RawSource
from repro.core import MultiRAG, MultiRAGConfig
from repro.kg import KnowledgeGraph, Provenance, Triple
from repro.llm import SimulatedLLM

CSV_PAYLOAD = (
    "title,directed_by,release_year,genre\n"
    "Inception,Christopher Nolan,2010,thriller\n"
    "Heat,Michael Mann,1995,drama\n"
    "Arrival,Denis Villeneuve,2016,science fiction\n"
)

JSON_PAYLOAD = {
    "records": [
        {
            "name": "Inception",
            "attributes": {
                "directed_by": ["Christopher Nolan"],
                "details": {"release_year": "2011"},
            },
        },
        {
            "name": "Arrival",
            "attributes": {"directed_by": ["Denis Villeneuve"],
                           "release_year": "2016"},
        },
    ]
}

XML_PAYLOAD = """<source>
  <record name="Heat">
    <directed_by>Michael Mann</directed_by>
    <release_year>1995</release_year>
  </record>
  <record name="Inception">
    <release_year>2010</release_year>
  </record>
</source>"""

KG_PAYLOAD = {
    "triples": [
        ["Inception", "directed_by", "Christopher Nolan"],
        ["Inception", "release_year", "2010"],
        ["Heat", "directed_by", "Michael Mann"],
    ]
}

TEXT_PAYLOAD = (
    "Inception was directed by Christopher Nolan. "
    "Inception was released in the year 2010. "
    "Arrival was directed by Denis Villeneuve."
)


def make_sources() -> list[RawSource]:
    """Five sources covering every adapter format, with one conflict
    (JSON claims Inception's release year is 2011)."""
    return [
        RawSource("src-csv", "movies", "csv", "a.csv", CSV_PAYLOAD),
        RawSource("src-json", "movies", "json", "b.json", JSON_PAYLOAD),
        RawSource("src-xml", "movies", "xml", "c.xml", XML_PAYLOAD),
        RawSource("src-kg", "movies", "kg", "d.kg", KG_PAYLOAD),
        RawSource("src-text", "movies", "text", "e.txt", TEXT_PAYLOAD),
    ]


@pytest.fixture()
def sources() -> list[RawSource]:
    return make_sources()


@pytest.fixture()
def noiseless_llm() -> SimulatedLLM:
    return SimulatedLLM(seed=7, extraction_noise=0.0)


@pytest.fixture()
def fused(noiseless_llm, sources):
    """A fusion result over the five-format corpus (no extraction noise)."""
    return DataFusionEngine(llm=noiseless_llm).fuse(sources)


@pytest.fixture()
def pipeline(sources) -> MultiRAG:
    """A fully ingested MultiRAG pipeline over the small corpus."""
    config = MultiRAGConfig(extraction_noise=0.0)
    rag = MultiRAG(config)
    rag.ingest(sources)
    return rag


@pytest.fixture()
def tiny_graph() -> KnowledgeGraph:
    """A hand-built graph with one conflicted key and one agreed key."""
    graph = KnowledgeGraph("tiny")
    prov = lambda s: Provenance(source_id=s, domain="movies", fmt="csv")  # noqa: E731
    graph.add_triple(Triple("Inception", "release_year", "2010", prov("s1")))
    graph.add_triple(Triple("Inception", "release_year", "2010", prov("s2")))
    graph.add_triple(Triple("Inception", "release_year", "2011", prov("s3")))
    graph.add_triple(Triple("Inception", "directed_by", "Christopher Nolan", prov("s1")))
    graph.add_triple(Triple("Inception", "directed_by", "Christopher Nolan", prov("s2")))
    graph.add_triple(Triple("Heat", "directed_by", "Michael Mann", prov("s1")))
    return graph
