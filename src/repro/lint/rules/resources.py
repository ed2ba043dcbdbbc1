"""RES family: resource discipline for LLM calls and long-lived state.

Built on :mod:`repro.lint.flow.resources` — the interprocedural LLM
call-path/budget analysis.  The contract the family enforces:

* every LLM call goes through the metered client API (``complete`` /
  the task wrappers), never the raw ``_generate`` / ``transport``
  seam (RES001);
* every LLM call on a query path sits under loops whose trip counts
  resolve statically — to constants, ``self.attr`` caps, or an explicit
  ``# repro-lint: loop-bound[...]`` annotation — so a finite per-query
  budget exists (RES002);
* retry/backoff loops around LLM or blocking I/O carry a bounded
  attempt cap and a capped sleep (RES003);
* instance collections touched on the query path have an eviction seam —
  some ``pop``/``clear``/``remove``/reassignment in the owning class —
  so an always-on server cannot leak without bound (RES004).

Stage tagging needs no rule: ``complete`` takes the stage as a required
argument, so an untagged call raises ``TypeError``.

Sanctioned suppressions (inline ``# repro-lint: ignore[RES00x]`` with a
trailing justification) are reserved for collections whose key space is
provably finite (e.g. a registry keyed by a closed enum) and loops whose
bound is enforced dynamically but not expressible statically; each one
must say why.  The dynamic twin of RES002 is the runtime budget gate
(``tests/resources/test_call_budget_runtime.py``), which asserts that
observed ``UsageMeter`` counts never exceed the certified bounds in
``results/llm_call_bounds.json``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.lint.findings import Finding, Severity
from repro.lint.flow.program import Program
from repro.lint.flow.resources import (
    PathSite,
    compute_entry_budgets,
    compute_growth_sites,
    compute_raw_transport_sites,
    compute_retry_sites,
)
from repro.lint.registry import FlowRule, register_rule


@register_rule
class RawTransportRule(FlowRule):
    """RES001: LLM transport called above the meter seam."""

    rule_id = "RES001"
    family = "RES"
    severity = Severity.ERROR
    program_keyed = True
    version = 2
    description = (
        "pipeline code reachable from a run/query entry point calls the "
        "raw LLM transport (`_generate`/`transport`), bypassing the "
        "UsageMeter/caching seam; route the call through `complete()`"
    )

    def check_program(self, program: Program) -> Iterable[Finding]:
        for site in compute_raw_transport_sites(program):
            yield self.program_finding(
                site.path,
                site.line,
                f"{site.function} calls `.{site.attr}()` directly — the "
                "raw transport bypasses usage metering and caching; call "
                "the metered client API instead",
                col=site.col,
            )


@register_rule
class UnboundedCallRule(FlowRule):
    """RES002: LLM call whose per-query trip count cannot be bounded."""

    rule_id = "RES002"
    family = "RES"
    severity = Severity.ERROR
    program_keyed = True
    version = 2
    description = (
        "an LLM call on a query path sits under a loop whose trip count "
        "does not resolve to a constant, a `self.attr` cap, or a "
        "`# repro-lint: loop-bound[...]` annotation, so no finite "
        "per-query call budget exists"
    )

    def check_program(self, program: Program) -> Iterable[Finding]:
        seen: set[tuple[str, int]] = set()
        for budget in compute_entry_budgets(program):
            if budget.entry.phase != "query":
                continue
            for path_site in budget.sites:
                if not path_site.multiplier.is_unbounded:
                    continue
                for finding in self._findings_for(budget.entry.algorithm,
                                                  path_site, seen):
                    yield finding

    def _findings_for(
        self,
        algorithm: str,
        path_site: PathSite,
        seen: set[tuple[str, int]],
    ) -> Iterator[Finding]:
        site = path_site.site
        loops = path_site.loops
        route = " -> ".join(path_site.call_path)
        anchored = False
        for qual, frame in loops:
            if not frame.bound.is_unbounded:
                continue
            anchored = True
            key = (frame.path, frame.lineno)
            if key in seen:
                continue
            seen.add(key)
            yield self.program_finding(
                frame.path,
                frame.lineno,
                f"loop bound unresolved on the `{algorithm}` query path "
                f"({route} -> {site.api}@{site.path}:{site.line}); "
                "resolve it to a constant/config cap or annotate the "
                "loop with `# repro-lint: loop-bound[...]`",
            )
        if not anchored:
            key = (site.path, site.line)
            if key not in seen:
                seen.add(key)
                yield self.program_finding(
                    site.path,
                    site.line,
                    f"`{site.api}` call on the `{algorithm}` query path "
                    f"({route}) has no statically bounded cost "
                    "(recursive path)",
                    col=site.col,
                )


@register_rule
class UnboundedRetryRule(FlowRule):
    """RES003: retry/backoff without a bounded attempt cap."""

    rule_id = "RES003"
    family = "RES"
    severity = Severity.ERROR
    program_keyed = True
    description = (
        "a loop with no resolvable trip bound retries an LLM/blocking "
        "call under try/except, or sleeps for a non-constant duration; "
        "cap the attempts (e.g. `for attempt in range(n)`) and the "
        "backoff"
    )

    def check_program(self, program: Program) -> Iterable[Finding]:
        for site in compute_retry_sites(program):
            yield self.program_finding(
                site.path,
                site.line,
                f"{site.function}: {site.reason}",
            )


@register_rule
class UnboundedGrowthRule(FlowRule):
    """RES004: query-path instance collection with no eviction seam."""

    rule_id = "RES004"
    family = "RES"
    severity = Severity.ERROR
    program_keyed = True
    description = (
        "query-path code grows a long-lived instance collection "
        "(append/add/setdefault/non-constant subscript store) and the "
        "owning class has no eviction seam (pop/clear/remove/"
        "reassignment); an always-on server leaks without bound"
    )

    def check_program(self, program: Program) -> Iterable[Finding]:
        seen: set[tuple[str, int, str]] = set()
        for site in compute_growth_sites(program):
            key = (site.path, site.line, site.attr)
            if key in seen:
                continue
            seen.add(key)
            yield self.program_finding(
                site.path,
                site.line,
                f"{site.function} grows `self.{site.attr}` via {site.via} "
                f"on the query path and {site.cls_qual} has no eviction "
                "seam for it; add one (pop/clear on a cap) or justify a "
                "suppression",
                col=site.col,
            )
