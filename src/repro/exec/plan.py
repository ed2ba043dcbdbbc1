"""Execution plans: how wide a batch run fans out.

An :class:`ExecutionPlan` is the immutable knob of the exec engine:
``workers`` bounds the thread pool.  Plans resolve from an explicit
``jobs`` argument first and the ``REPRO_EXEC_WORKERS`` environment
variable second, so a whole test suite can be re-run under concurrency
without touching a single call site.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ConfigError

#: environment variable naming the default worker count.
ENV_WORKERS = "REPRO_EXEC_WORKERS"


def _env_int(name: str, default: int) -> int:
    """Read a positive integer from the environment.

    Raises:
        ConfigError: when the variable is set but not a positive integer.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"{name} must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value}")
    return value


@dataclass(frozen=True, slots=True)
class ExecutionPlan:
    """How a batch of tasks is scheduled.

    ``workers`` is the number of pool threads tasks fan out over.
    ``workers=1`` is the sequential plan — the engine then degenerates to
    a plain loop with a merge barrier after every task.

    Raises:
        ConfigError: when ``workers`` is < 1.
    """

    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")

    @classmethod
    def resolve(cls, jobs: int | None = None) -> "ExecutionPlan":
        """Build a plan from ``jobs``, falling back to the
        ``REPRO_EXEC_WORKERS`` environment.

        Raises:
            ConfigError: on a non-positive ``jobs`` or a malformed
                environment value.
        """
        if jobs is None:
            jobs = _env_int(ENV_WORKERS, 1)
        return cls(workers=jobs)

    @classmethod
    def env_requested(cls) -> bool:
        """Whether the environment asks for engine scheduling at all."""
        return bool(os.environ.get(ENV_WORKERS, "").strip())
