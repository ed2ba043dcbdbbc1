"""Deterministic concurrent batch execution.

:func:`execute` runs ``num_tasks`` independent tasks under an
:class:`~repro.exec.plan.ExecutionPlan` and returns their results in
**submit order**, never completion order.  The determinism contract:

* **Submit-order reassembly** — workers race, results do not.  Each
  batch of :data:`BATCH_SIZE` tasks blocks until every member finished,
  then results are folded back (``merge``) strictly by submit index.
* **Isolated contexts** — ``context(i)`` builds whatever worker-local
  state task ``i`` needs (a pipeline view, a cloned LLM with a fresh
  usage meter).  Tasks must only mutate their own context; shared state
  is touched exclusively inside ``merge``, which the engine serializes.
* **Deterministic errors** — when tasks fail, completed tasks with a
  lower submit index are merged first and then the *lowest-index*
  exception is re-raised, exactly as a sequential loop would have
  behaved.  Results of higher-index tasks in the same batch are
  discarded (their contexts were private, so no shared state leaks).
* **Serialization escape hatch** — ``serialize=True`` forces the
  sequential path regardless of ``plan.workers``, with a merge barrier
  after every task.  Callers use it when tasks form a dependency chain
  (e.g. consensus-feedback history updates) and interleaved semantics
  must be preserved bit-for-bit.

The engine is generic over callables on purpose: it sits below
``repro.core`` in the layering DAG and knows nothing about pipelines.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable

from repro.exec.plan import ExecutionPlan

#: tasks in flight between two merge barriers of a parallel run.
BATCH_SIZE = 32

#: builds task ``i``'s worker-local state.
ContextFactory = Callable[[int], Any]
#: runs task ``i`` against its context and returns its result.
TaskRunner = Callable[[Any, int], Any]
#: folds task ``i``'s result back into shared state (submit order).
ResultMerger = Callable[[Any, Any, int], None]


def execute(
    num_tasks: int,
    plan: ExecutionPlan | None = None,
    *,
    run: TaskRunner,
    context: ContextFactory | None = None,
    merge: ResultMerger | None = None,
    serialize: bool = False,
) -> list[Any]:
    """Run ``num_tasks`` tasks under ``plan``; results in submit order.

    Raises:
        ConfigError: when a default plan cannot be built.
        Exception: the lowest-submit-index task failure is re-raised
            verbatim after all earlier tasks were merged.
    """
    resolved = plan if plan is not None else ExecutionPlan()
    workers = 1 if serialize else resolved.workers
    results: list[Any] = []
    if workers <= 1 or num_tasks <= 1:
        for index in range(num_tasks):
            ctx = context(index) if context is not None else None
            result = run(ctx, index)
            if merge is not None:
                merge(ctx, result, index)
            results.append(result)
        return results

    with ThreadPoolExecutor(max_workers=workers) as pool:
        for start in range(0, num_tasks, BATCH_SIZE):
            stop = min(start + BATCH_SIZE, num_tasks)
            contexts = [
                context(index) if context is not None else None
                for index in range(start, stop)
            ]
            futures: list[Future[Any]] = [
                pool.submit(run, contexts[index - start], index)
                for index in range(start, stop)
            ]
            # Barrier: wait for the whole batch, collecting per-task
            # outcomes without letting completion order leak anywhere.
            outcomes: list[tuple[Any, BaseException | None]] = []
            for future in futures:
                error = future.exception()
                outcomes.append(
                    (None, error) if error is not None
                    else (future.result(), None)
                )
            for offset, (result, error) in enumerate(outcomes):
                if error is not None:
                    raise error
                if merge is not None:
                    merge(contexts[offset], result, start + offset)
                results.append(result)
    return results
