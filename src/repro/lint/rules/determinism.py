"""Determinism rules (DET) — every stochastic or wall-clock dependent
path in the library must be explicit and seeded.

The CLI promises "offline and deterministic (--seed)"; these rules make
that promise machine-checked.  Randomness must flow through an explicit
``random.Random(seed)`` / ``numpy.random.default_rng(seed)`` instance or
the keyed hashes in :mod:`repro.util`; time must come from monotonic
``time.perf_counter`` (durations), never the wall clock.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.findings import Finding, Severity
from repro.lint.registry import ModuleUnderLint, Rule, register_rule
from repro.lint.rules.common import (
    call_target,
    collect_imports,
    is_set_expression,
)

#: Module-level functions of :mod:`random` that read or mutate the shared
#: global RNG.  ``random.Random`` (the class) is the sanctioned spelling.
_GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "gauss", "normalvariate",
    "lognormvariate", "expovariate", "vonmisesvariate", "betavariate",
    "paretovariate", "weibullvariate", "getrandbits", "randbytes",
    "seed", "setstate", "getstate",
})

#: numpy legacy global-state RNG entry points.
_NUMPY_GLOBAL_FNS = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "seed", "uniform", "normal", "standard_normal",
    "binomial", "poisson", "beta", "gamma",
})

_WALL_CLOCK_FNS = frozenset({"time.time", "time.time_ns"})

_ENTROPY_FNS = frozenset({
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
})


def _calls(tree: ast.Module) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


@register_rule
class UnseededRandomRule(Rule):
    """DET001 — no calls on the shared module-level RNG."""

    rule_id = "DET001"
    family = "determinism"
    severity = Severity.ERROR
    description = (
        "module-level random.* / numpy.random.* calls use hidden shared "
        "RNG state; construct an explicit seeded random.Random or "
        "numpy.random.default_rng(seed) instead"
    )

    def check(self, module: ModuleUnderLint) -> Iterable[Finding]:
        imports = collect_imports(module.tree)
        for call in _calls(module.tree):
            target = call_target(call, imports)
            if target is None:
                continue
            if target.startswith("random.") and \
                    target.split(".", 1)[1] in _GLOBAL_RANDOM_FNS:
                yield self.finding(
                    module, call,
                    f"call to the shared global RNG ({target}); use an "
                    f"explicit seeded random.Random instance",
                )
            elif target.startswith("numpy.random."):
                fn = target.rsplit(".", 1)[1]
                if fn in _NUMPY_GLOBAL_FNS:
                    yield self.finding(
                        module, call,
                        f"call to numpy's global RNG ({target}); use "
                        f"numpy.random.default_rng(seed)",
                    )
                elif fn == "default_rng" and not (call.args or call.keywords):
                    yield self.finding(
                        module, call,
                        "numpy.random.default_rng() without a seed draws OS "
                        "entropy; pass an explicit seed",
                    )


@register_rule
class WallClockRule(Rule):
    """DET002 — no wall-clock reads; durations use time.perf_counter."""

    rule_id = "DET002"
    family = "determinism"
    severity = Severity.ERROR
    description = (
        "time.time()/time.time_ns() read the wall clock, which leaks "
        "run-dependent values into results; use time.perf_counter() for "
        "durations or thread an explicit timestamp through the API"
    )

    def check(self, module: ModuleUnderLint) -> Iterable[Finding]:
        imports = collect_imports(module.tree)
        for call in _calls(module.tree):
            target = call_target(call, imports)
            if target in _WALL_CLOCK_FNS:
                yield self.finding(
                    module, call,
                    f"{target}() reads the wall clock; use "
                    f"time.perf_counter() for durations",
                )


@register_rule
class DatetimeNowRule(Rule):
    """DET003 — no ambient current-date reads."""

    rule_id = "DET003"
    family = "determinism"
    severity = Severity.ERROR
    description = (
        "datetime.now()/utcnow()/today() make output depend on when the "
        "code runs; accept a timestamp parameter instead"
    )

    _BANNED_TAILS = ("now", "utcnow", "today")

    def check(self, module: ModuleUnderLint) -> Iterable[Finding]:
        imports = collect_imports(module.tree)
        for call in _calls(module.tree):
            target = call_target(call, imports)
            if target is None:
                continue
            head, _, tail = target.rpartition(".")
            if tail in self._BANNED_TAILS and (
                head == "datetime"
                or head.startswith("datetime.")
                or head.endswith(("datetime", "date"))
            ):
                yield self.finding(
                    module, call,
                    f"{target}() reads the current date/time; pass an "
                    f"explicit timestamp (e.g. Provenance.observed_at)",
                )


@register_rule
class EntropyRule(Rule):
    """DET004 — no OS entropy sources."""

    rule_id = "DET004"
    family = "determinism"
    severity = Severity.ERROR
    description = (
        "os.urandom / uuid.uuid1 / uuid.uuid4 / secrets.* are "
        "non-reproducible entropy sources; derive ids from repro.util."
        "stable_hash and randomness from a seeded RNG"
    )

    def check(self, module: ModuleUnderLint) -> Iterable[Finding]:
        imports = collect_imports(module.tree)
        for call in _calls(module.tree):
            target = call_target(call, imports)
            if target is None:
                continue
            if target in _ENTROPY_FNS or target.startswith("secrets."):
                yield self.finding(
                    module, call,
                    f"{target} draws OS entropy; use repro.util.stable_hash "
                    f"or a seeded RNG",
                )


@register_rule
class SetIterationRule(Rule):
    """DET005 — no ordering-sensitive iteration over set expressions."""

    rule_id = "DET005"
    family = "determinism"
    severity = Severity.WARNING
    description = (
        "iterating a set (for-loop, list()/tuple()/enumerate()/join over "
        "a set expression) exposes hash-order, which varies across runs "
        "for str keys; wrap in sorted() or iterate a deterministic "
        "sequence"
    )

    _ORDER_SENSITIVE_WRAPPERS = frozenset({"list", "tuple", "enumerate", "iter"})

    def check(self, module: ModuleUnderLint) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)) and \
                    is_set_expression(node.iter):
                yield self.finding(
                    module, node.iter,
                    "for-loop over a set expression has hash-dependent "
                    "order; wrap in sorted()",
                )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for comp in node.generators:
                    if is_set_expression(comp.iter):
                        yield self.finding(
                            module, comp.iter,
                            "comprehension over a set expression has "
                            "hash-dependent order; wrap in sorted()",
                        )
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in self._ORDER_SENSITIVE_WRAPPERS
                    and node.args
                    and is_set_expression(node.args[0])
                ):
                    yield self.finding(
                        module, node,
                        f"{node.func.id}() over a set expression has "
                        f"hash-dependent order; wrap in sorted()",
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and node.args
                    and is_set_expression(node.args[0])
                ):
                    yield self.finding(
                        module, node,
                        "str.join over a set expression has hash-dependent "
                        "order; wrap in sorted()",
                    )


@register_rule
class BuiltinHashRule(Rule):
    """DET006 — no builtin hash() on run-dependent types."""

    rule_id = "DET006"
    family = "determinism"
    severity = Severity.WARNING
    description = (
        "builtin hash() is salted per-process for str/bytes "
        "(PYTHONHASHSEED); use repro.util.stable_hash for anything that "
        "touches ordering, sampling or persisted output"
    )

    def check(self, module: ModuleUnderLint) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                yield self.finding(
                    module, node,
                    "builtin hash() is process-salted; use "
                    "repro.util.stable_hash",
                )
