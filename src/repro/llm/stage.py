"""Pipeline-stage tags for LLM calls.

Every LLM interaction in the reproduction belongs to one pipeline stage
(NER, triple extraction, standardization, relevance scoring, authority
scoring, answer synthesis, parametric recall).  :class:`Stage` names
them as a closed enum so :class:`~repro.llm.base.UsageMeter` can
attribute usage per stage.
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
    meter snapshots; the ``.value`` strings are the stable wire names.
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

