"""Exception hierarchy for the MultiRAG reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch one base type.  Subsystems raise the most specific subclass available;
none of these are raised for programmer errors (those surface as the usual
``TypeError`` / ``ValueError``).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class AdapterError(ReproError):
    """A source adapter could not parse or normalize its input."""


class UnknownFormatError(AdapterError):
    """No adapter is registered for the requested data format."""


class StateError(ReproError):
    """An operation was invoked before the state it needs was built.

    Raised e.g. when querying a pipeline before :meth:`ingest` or
    transforming with an unfitted vectorizer.
    """


class ContractViolation(ReproError):
    """A runtime contract check failed (see :mod:`repro.contracts`).

    Signals an internal-invariant breach — confidence bounds, MLG
    referential integrity, SVs/LVs disjointness — not a user error.
    """


class GraphError(ReproError):
    """Invalid operation on a knowledge graph or line graph."""


class EntityNotFoundError(GraphError):
    """A referenced entity does not exist in the knowledge graph."""


class ExtractionError(ReproError):
    """LLM-based knowledge extraction failed to produce usable output."""


class QueryError(ReproError):
    """A query could not be parsed or executed."""


class ConfigError(ReproError):
    """Invalid configuration values (thresholds, weights, ...)."""


class DatasetError(ReproError):
    """A synthetic dataset could not be generated or loaded."""


class SnapshotError(ReproError):
    """A pipeline snapshot could not be written, read or validated.

    Raised by :mod:`repro.snapshot` for corrupt artifacts, format-version
    mismatches and fingerprint lookups against a missing snapshot.
    """
