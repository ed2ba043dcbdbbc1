"""The :class:`Query` value object — the unit the exec engine schedules.

One frozen dataclass describes every kind of question the pipeline
answers: a query is *data*, so it can be built ahead of time, carried
across worker boundaries, paired with its gold answers for evaluation,
and dispatched by ``MultiRAG.run``, the pipeline's single entrypoint.

Construct queries through the classmethods::

    Query.text("Who wrote A Crimson Archive?")
    Query.key("A Crimson Archive", "author")
    Query.chain([("A Crimson Archive", "author"), (None, "birth_year")])
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Iterable, Sequence

from repro.errors import ConfigError

#: one step of a multi-hop chain: ``(entity_or_None, attribute)`` where
#: ``None`` means "the top answer of the previous hop".
Hop = tuple[str | None, str]

_KINDS = ("text", "key", "chain")


@dataclass(frozen=True, slots=True)
class Query:
    """One schedulable retrieval request.

    ``kind`` selects the dispatch path: free-text MKLGP (``text``), a
    structured claim-key lookup (``key``) or a multi-hop chain
    (``chain``).  ``qid`` and ``answers`` are optional evaluation
    metadata — ``MultiRAG.evaluate`` scores predictions against
    ``answers`` and reports per ``qid``.

    Raises:
        ConfigError: for an unknown ``kind`` or a kind whose payload
            fields are empty.
    """

    KINDS: ClassVar[tuple[str, ...]] = _KINDS

    kind: str
    question: str = ""
    entity: str = ""
    attribute: str = ""
    hops: tuple[Hop, ...] = ()
    qid: str = ""
    answers: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(
                f"unknown query kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.kind == "text" and not self.question:
            raise ConfigError("a text query needs a non-empty question")
        if self.kind == "key" and not (self.entity and self.attribute):
            raise ConfigError("a key query needs an entity and an attribute")
        if self.kind == "chain" and not self.hops:
            raise ConfigError("a chain query needs at least one hop")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def text(
        cls,
        question: str,
        *,
        qid: str = "",
        answers: Iterable[str] | None = None,
    ) -> "Query":
        """A free-text question for the full MKLGP flow."""
        return cls(
            kind="text", question=question, qid=qid,
            answers=frozenset(answers) if answers is not None else None,
        )

    @classmethod
    def key(
        cls,
        entity: str,
        attribute: str,
        *,
        qid: str = "",
        answers: Iterable[str] | None = None,
    ) -> "Query":
        """A structured claim-key lookup for ``(entity, attribute)``."""
        return cls(
            kind="key", entity=entity, attribute=attribute, qid=qid,
            answers=frozenset(answers) if answers is not None else None,
        )

    @classmethod
    def chain(
        cls,
        hops: Sequence[Hop],
        *,
        qid: str = "",
        answers: Iterable[str] | None = None,
    ) -> "Query":
        """A multi-hop lookup (``None`` entities bridge from the previous
        hop's top answer)."""
        return cls(
            kind="chain", hops=tuple(hops), qid=qid,
            answers=frozenset(answers) if answers is not None else None,
        )


def as_query(spec: Any) -> Query:
    """Adapt a :class:`Query` or QuerySpec-like object to a :class:`Query`.

    Anything exposing ``entity`` / ``attribute`` (plus optional ``qid``
    and ``answers``) — notably :class:`repro.datasets.schema.QuerySpec` —
    maps to a key query, which keeps every historical ``evaluate`` call
    site working unchanged.

    Raises:
        ConfigError: when ``spec`` has neither form.
    """
    if isinstance(spec, Query):
        return spec
    entity = getattr(spec, "entity", None)
    attribute = getattr(spec, "attribute", None)
    if not entity or not attribute:
        raise ConfigError(
            f"cannot adapt {type(spec).__name__!r} to a Query: "
            f"need entity and attribute attributes"
        )
    answers = getattr(spec, "answers", None)
    return Query.key(
        entity, attribute,
        qid=getattr(spec, "qid", ""),
        answers=frozenset(answers) if answers is not None else None,
    )
