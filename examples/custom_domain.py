#!/usr/bin/env python3
"""Extending MultiRAG to a brand-new domain: restaurant listings.

No relation here exists in the built-in lexicon — custom predicates ride
the generic ``"<subject> has <predicate> <object>."`` verbalization, and a
custom :class:`~repro.kg.Schema` teaches the authority scorer what each
attribute's values should look like (so a phone number in the
price-range field reads as a category error).

Run:  python examples/custom_domain.py
"""

from __future__ import annotations

import re

from repro.adapters import RawSource
from repro.confidence import NodeScorer
from repro.core import MultiRAG, MultiRAGConfig
from repro.kg import Schema
from repro.exec import Query

LISTINGS_CSV = RawSource(
    "city-guide", "restaurants", "csv", "guide.csv",
    "name,cuisine,price_range,phone\n"
    "Harbor & Pine,seafood,$$$,+1-555-0101\n"
    "Quanta Noodles,noodles,$,+1-555-0144\n",
)

REVIEWS_JSON = RawSource(
    "review-site", "restaurants", "json", "reviews.json",
    {
        "records": [
            {"name": "Harbor & Pine",
             "attributes": {"cuisine": "seafood", "price_range": "$$$$"}},
            {"name": "Quanta Noodles",
             "attributes": {"cuisine": "noodles",
                            # a scraping bug put the phone in price_range:
                            "price_range": "+1-555-0144"}},
        ]
    },
)

BLOG_TEXT = RawSource(
    "food-blog", "restaurants", "text", "blog.txt",
    "Harbor & Pine has price_range $$$. "
    "Quanta Noodles has price_range $.",
)


def build_schema() -> Schema:
    schema = Schema.default()
    price = re.compile(r"^\$+$")
    phone = re.compile(r"^\+?[\d-]{7,}$")
    schema.register("price_range", "price_band",
                    validator=lambda v: bool(price.match(v)))
    schema.register("phone", "phone",
                    validator=lambda v: bool(phone.match(v)))
    schema.register("cuisine", "plain")
    return schema


def main() -> None:
    rag = MultiRAG(MultiRAGConfig(extraction_noise=0.0))
    rag.ingest([LISTINGS_CSV, REVIEWS_JSON, BLOG_TEXT])

    # Swap the default scorer for one carrying the restaurant schema.
    rag.scorer = NodeScorer(
        graph=rag.fusion.graph, llm=rag.llm, history=rag.history,
        alpha=rag.config.alpha, beta=rag.config.beta, schema=build_schema(),
    )

    for restaurant in ("Harbor & Pine", "Quanta Noodles"):
        result = rag.run(Query.key(restaurant, "price_range"))
        print(f"{restaurant} price range:")
        for answer in result.answers:
            print(f"  ACCEPTED {answer.value!r} "
                  f"(confidence {answer.confidence:.2f}, "
                  f"sources: {', '.join(answer.sources)})")
        if result.mcc:
            for decision in result.mcc.decisions:
                for rejected in decision.rejected:
                    # a node rejected without its authority prompt
                    # carries an upper bound of C(v)
                    rel = "≤" if rejected.bound else "="
                    print(f"  rejected {rejected.value!r} "
                          f"from {rejected.source_id} "
                          f"(C(v){rel}{rejected.confidence:.2f})")
        print()

    quanta = rag.run(Query.key("Quanta Noodles", "price_range"))
    accepted = {a.value for a in quanta.answers}
    assert "+1-555-0144" not in accepted, "type check should reject the phone"
    print("the scraped phone number never reaches the answer: "
          f"{sorted(accepted)}")


if __name__ == "__main__":
    main()
