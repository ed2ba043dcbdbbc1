"""Structured (tabular / CSV) adapter with a Decomposition Storage Model.

Per paper §III-B, structured files are stored in JSON with their attribute
variables managed columnar-style (DSM): the normalized record carries a
``cols_index`` mapping every column to its full value list.

CSV conventions understood here (and emitted by the dataset generators):

* first column names the entity, remaining columns are attributes;
* a cell may hold several values separated by ``;`` (multi-valued
  attributes such as a movie's directors);
* empty cells mean "this source says nothing", not "empty value".
"""

from __future__ import annotations

import csv
import io

from repro.adapters.base import Adapter, AdapterOutput, RawSource, register_adapter
from repro.errors import AdapterError
from repro.kg.storage import NormalizedRecord, make_jsonld
from repro.kg.triple import Triple
from repro.llm.lexicon import verbalize


def split_cell(cell: str) -> list[str]:
    """Split a (possibly multi-valued) CSV cell into clean values."""
    return [v.strip() for v in cell.split(";") if v.strip()]


class StructuredAdapter(Adapter):
    """CSV → JSON-LD + DSM column index + triples + verbalized documents."""

    fmt = "csv"

    def parse(self, raw: RawSource) -> AdapterOutput:
        """Normalize a CSV table into DSM columns and triples.

        Raises:
            AdapterError: if the payload is not text, is empty, or lacks an
                entity column.
        """
        if not isinstance(raw.payload, str):
            raise AdapterError(
                f"csv adapter expects text payload, got {type(raw.payload).__name__}"
            )
        reader = csv.reader(io.StringIO(raw.payload))
        try:
            header = next(reader)
        except StopIteration:
            raise AdapterError(f"empty CSV payload in source {raw.source_id!r}") from None
        if len(header) < 2:
            raise AdapterError(
                f"CSV source {raw.source_id!r} needs an entity column plus "
                f"at least one attribute column, got header {header!r}"
            )

        entity_col, *attr_cols = [h.strip() for h in header]
        cols_index: dict[str, list[str]] = {col: [] for col in header}
        triples: list[Triple] = []
        rows_jsonld: list[dict[str, object]] = []
        doc_lines: list[str] = []

        for row_num, row in enumerate(reader):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise AdapterError(
                    f"CSV source {raw.source_id!r} row {row_num} has "
                    f"{len(row)} cells, expected {len(header)}"
                )
            entity = row[0].strip()
            if not entity:
                continue
            cols_index[entity_col].append(entity)
            props: dict[str, object] = {}
            provenance = raw.provenance(record_id=f"row{row_num}")
            for col, cell in zip(attr_cols, row[1:]):
                values = split_cell(cell)
                cols_index[col].extend(values)
                if values:
                    props[col] = values if len(values) > 1 else values[0]
                for value in values:
                    triples.append(Triple(entity, col, value, provenance))
                    doc_lines.append(verbalize(entity, col, value))
            rows_jsonld.append(make_jsonld(entity, props))

        record = NormalizedRecord(
            record_id=f"norm:{raw.source_id}:{raw.name}",
            domain=raw.domain,
            name=raw.name,
            jsonld={"@context": rows_jsonld[0]["@context"] if rows_jsonld else "",
                    "@graph": rows_jsonld},
            meta=dict(raw.meta),
            cols_index=cols_index,
        )
        documents = [(f"{raw.source_id}:{raw.name}", " ".join(doc_lines))]
        return AdapterOutput(record=record, triples=triples, documents=documents)

    def span_attributes(
        self, raw: RawSource, output: AdapterOutput
    ) -> dict[str, object]:
        attrs = super().span_attributes(raw, output)
        index = output.record.cols_index or {}
        attrs["num_columns"] = len(index)
        attrs["num_rows"] = len(output.record.jsonld.get("@graph", []))
        return attrs


register_adapter(StructuredAdapter())
