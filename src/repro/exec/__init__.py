"""``repro.exec`` — deterministic concurrent batch execution.

The engine fans independent tasks over a bounded thread pool and folds
results back in submit order, so a parallel run is byte-identical to the
sequential run (see ``docs/execution.md`` for the full contract).
``Query`` is the schedulable unit the ``MultiRAG.run`` API consumes;
``ExecutionPlan`` is the worker count, resolvable from the
``REPRO_EXEC_WORKERS`` environment.
"""

from repro.exec.engine import execute
from repro.exec.plan import ENV_WORKERS, ExecutionPlan
from repro.exec.query import Hop, Query, as_query

__all__ = [
    "ENV_WORKERS",
    "ExecutionPlan",
    "Hop",
    "Query",
    "as_query",
    "execute",
]
