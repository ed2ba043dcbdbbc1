#!/usr/bin/env python3
"""The CA981 case study (Table V of the paper).

Five feeds disagree about flight CA981 from Beijing to New York:

* a structured departure schedule and a flight tracker (CSV),
* the airline's semi-structured system record (JSON) with delay codes,
* an unstructured weather alert (text),
* a low-reliability user forum (text) insisting the flight is on time.

MultiRAG fuses all five, weighs them with multi-level confidence, and
produces the verified conclusion — "delayed until after 14:30 due to a
typhoon" — while suppressing the forum's inconsistent report.

Run:  python examples/flight_status.py
"""

from __future__ import annotations

from repro import MultiRAG, MultiRAGConfig, RawSource
from repro.exec import Query

SOURCES = [
    RawSource(
        "airline-schedule", "flights", "csv", "schedule.csv",
        "flight,scheduled_departure,actual_departure,status,origin,destination\n"
        "CA981,13:00,14:30,delayed,Beijing,New York\n"
        "CA982,09:15,09:20,departed,London,Paris\n",
    ),
    RawSource(
        "airline-system", "flights", "json", "system.json",
        {
            "records": [
                {
                    "name": "CA981",
                    "attributes": {
                        "status": "delayed",
                        "actual_departure": "14:30",
                        "details": {"delay_reason": "a typhoon warning"},
                    },
                }
            ]
        },
    ),
    RawSource(
        "weather-service", "flights", "text", "alerts.txt",
        "CA981 is delayed because of a typhoon warning. "
        "CA981 actually departed at 14:30.",
    ),
    RawSource(
        "user-forum", "flights", "text", "forum.txt",
        "CA981 has the status on time. CA981 actually departed at 13:00.",
    ),
    RawSource(
        "flight-tracker", "flights", "csv", "tracker.csv",
        "flight,actual_departure,status\nCA981,14:30,delayed\n",
    ),
]


def main() -> None:
    rag = MultiRAG(MultiRAGConfig(extraction_noise=0.0))
    rag.ingest(SOURCES)

    print("=== CA981 Beijing -> New York: what do we trust? ===\n")
    for attribute in ("status", "actual_departure", "delay_reason"):
        result = rag.run(Query.key("CA981", attribute))
        print(f"{attribute}:")
        for ranked in result.answers:
            print(f"  ACCEPTED  {ranked.value!r}  "
                  f"confidence={ranked.confidence:.2f}  "
                  f"sources={', '.join(ranked.sources)}")
        if result.mcc:
            for decision in result.mcc.decisions:
                for rejected in decision.rejected:
                    # a node rejected without its authority prompt
                    # carries an upper bound of C(v)
                    rel = "≤" if rejected.bound else "="
                    print(f"  rejected  {rejected.value!r}  "
                          f"C(v){rel}{rejected.confidence:.2f}  "
                          f"source={rejected.source_id}")
        print()

    print("source credibility after the consistency checks:")
    for source, credibility in rag.history.snapshot().items():
        print(f"  {source:18s} {credibility:.2f}")

    departure = rag.run(Query.key("CA981", "actual_departure"))
    reason = rag.run(Query.key("CA981", "delay_reason"))
    print(
        f"\nverified conclusion: delayed until after "
        f"{departure.top().value} due to {reason.top().value}."
    )


if __name__ == "__main__":
    main()
