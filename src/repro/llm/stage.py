"""Pipeline-stage tags for LLM calls.

Every LLM interaction in the reproduction belongs to one pipeline stage
(NER, triple extraction, standardization, relevance scoring, authority
scoring, answer synthesis, parametric recall).  :class:`Stage` names
them as a closed enum so the transport layer can meter and bound calls
per stage: :class:`~repro.llm.base.UsageMeter` attributes usage per
stage, and the static resource analysis certifies per-stage call bounds.
Every completion names its member explicitly: there is no default stage,
and a plain string is not accepted in its place.

This module is a leaf: it must not import anything from the rest of
:mod:`repro.llm` (``base`` imports it).
"""

from __future__ import annotations

import enum


class Stage(str, enum.Enum):
    """One pipeline stage an LLM call is issued from.

    The enum inherits ``str`` so stage tags serialize naturally into
    meter snapshots and the certified bounds table; the ``.value``
    strings are the stable wire names.
    """

    NER = "ner"
    TRIPLE = "triple"
    STD = "std"
    RELEVANCE = "relevance"
    AUTHORITY = "authority"
    SYNTHESIS = "synthesis"
    PARAMETRIC = "parametric"
    #: calls that belong to no core pipeline stage (baseline prompting
    #: strategies, ad-hoc experiments).
    OTHER = "other"

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.value

