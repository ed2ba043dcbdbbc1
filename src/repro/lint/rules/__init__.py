"""Rule family modules; importing this package registers every rule.

Per-file families:

* ``determinism`` (DET) — seeded randomness, no wall clock, no hash-order.
* ``layering`` (LAY) — the package dependency DAG.
* ``errors`` (ERR) — the ReproError raise/except contract.
* ``hygiene`` (API) — mutable defaults, return annotations, float equality.
* ``observability`` (OBS) — logging goes through repro.obs.log.
* ``performance`` (PERF) — no redundant work on the query hot path.

Whole-program families (built on :mod:`repro.lint.flow`):

* ``reachability`` (DC) — code no entry point can reach.
* ``concurrency`` (CONC) — shared state written on the worker path.
"""

from repro.lint.rules import (
    determinism,
    errors,
    hygiene,
    layering,
    observability,
    performance,
)

__all__ = [
    "determinism",
    "errors",
    "hygiene",
    "layering",
    "observability",
    "performance",
]

# The flow-rule modules live in repro.lint.flow (they need the symbol
# table and call graph, which in turn use rules.common — importing them
# here would cycle through this package's own initialisation).  The
# registry's lazy loader imports them alongside this package.
