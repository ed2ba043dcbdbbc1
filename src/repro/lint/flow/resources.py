"""Resource-bound analysis: LLM call paths, loop bounds, call budgets.

Every pipeline stage and every baseline spends LLM calls through the one
sanctioned seam — :meth:`repro.llm.base.LLMClient.complete`, which
records every call in the ``UsageMeter``.  This module
recovers, statically, where those calls can fire and how many can fire
*per query*:

* :func:`compute_entry_points` — ``MultiRAG.run`` / ``add_source`` plus
  the ``query``/``answer``/``setup`` methods of every class registered
  via ``register_fusion`` / ``register_qa``;
* :func:`compute_summaries` — per-function LLM call sites with their
  enclosing loop structure, plus outgoing call edges annotated with the
  loops they sit under;
* :func:`compute_entry_budgets` — interprocedural composition: every
  call path from an entry point to an LLM call site, each with a
  symbolic multiplier (a :class:`Bound` polynomial over the corpus
  symbols ``S``/``H``/``C``), summed into a certified per-query bound;
* :func:`compute_raw_transport_sites` (RES001),
  :func:`compute_retry_sites` (RES003) and
  :func:`compute_growth_sites` (RES004) — the fact streams the RES rule
  family consumes (see :mod:`repro.lint.rules.resources`);
* :func:`llm_call_report` / :func:`llm_bounds_payload` — the
  ``repro lint --graph llm`` / ``--graph llm-bounds`` JSON payloads; the
  latter is committed to ``results/llm_call_bounds.json`` and enforced
  dynamically against observed ``UsageMeter`` counts in CI.

Loop bounds resolve from ``range()`` constants, constant-sized literal
iterables, constant slices, ``self.attr`` integer defaults (maximised
over every subclass, so the bound survives dynamic dispatch), or an
explicit annotation on the loop's line::

    for hit in hits:  # repro-lint: loop-bound[2*S]

where the bracketed expression is a ``*``-product of integer literals,
corpus symbols (:data:`BOUND_SYMBOLS`) and ``self.attr`` references.
Anything else is *unbounded* and — on a query path — a RES002 finding.

Virtual dispatch is resolved to the static receiver type: an override
that widens its base method's LLM usage must keep the base bound (the
runtime budget gate is the dynamic twin that catches violations).
Everything is memoised on ``program.analysis_cache``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator

from repro.lint.flow.callgraph import FunctionFlow
from repro.lint.flow.program import Program
from repro.lint.flow.symbols import FunctionInfo, SymbolTable
from repro.lint.rules.common import dotted_name

#: the pipeline root and the LLM client seam, by qualified name.
ROOT_CLASS = "repro.core.pipeline.MultiRAG"
LLM_BASE_CLASS = "repro.llm.base.LLMClient"
LLM_BASE_MODULE = "repro.llm.base"

#: decorators that register baseline algorithm classes.
_FUSION_DECORATORS = frozenset({"register_fusion", "base.register_fusion"})
_QA_DECORATORS = frozenset({"register_qa", "base.register_qa"})

#: public LLM client API → the :class:`repro.llm.stage.Stage` value it
#: serves.  ``complete`` attributes its stage from its ``Stage.<NAME>``
#: argument; a stage that is not statically known (a parameter threaded
#: through a wrapper) counts as ``"other"``.
LLM_API_STAGES: dict[str, str] = {
    "extract_entities": "ner",
    "extract_triples": "triple",
    "standardize": "std",
    "relevance": "relevance",
    "authority": "authority",
    "generate_answer": "synthesis",
    "parametric_answer": "parametric",
    "complete": "other",
}

#: transport methods below the UsageMeter seam; calling them from
#: pipeline code bypasses accounting entirely (RES001).  ``transport`` is
#: the (text, latency) seam the cache layer overrides — metered exactly
#: once by the ``complete`` that owns the call, so any use *above* the
#: client stack is a bypass too.
RAW_TRANSPORT = frozenset({"_generate", "transport"})

#: symbolic corpus parameters the certified bounds range over.  The
#: runtime budget gate measures each one on the ingested corpus and
#: evaluates the polynomial numerically.
BOUND_SYMBOLS: dict[str, str] = {
    "S": "number of ingested sources",
    "H": "maximum hops per chain query (1 for key/text queries)",
    "C": "maximum candidate claims per (entity, attribute) key",
}

#: receiver components that identify an LLM client for name-match calls
#: (``self.llm.extract_triples`` resolves imprecisely when the attribute
#: was bound via ``llm or SimulatedLLM(...)`` or a factory call).
_LLM_RECEIVER_RE = re.compile(r"(^|_)llm$")

_LOOP_BOUND_RE = re.compile(r"#\s*repro-lint:\s*loop-bound\[(?P<expr>[^\]]+)\]")
_SYMBOL_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")

#: in-place container methods that grow their receiver (RES004).
_GROWTH_METHODS = frozenset({
    "add", "append", "appendleft", "extend", "extendleft", "insert",
    "setdefault", "update",
})

#: in-place container methods that shrink their receiver — any of these
#: on the same attribute anywhere in the class is an eviction seam.
_EVICTION_METHODS = frozenset({
    "clear", "discard", "pop", "popitem", "remove",
})

#: calls that block on external resources (RES003 retry detection).
_BLOCKING_ATTRS = frozenset({
    "sleep", "urlopen", "create_connection", "read_text", "write_text",
    "read_bytes", "write_bytes",
})


# ----------------------------------------------------------------------
# symbolic bounds
# ----------------------------------------------------------------------
_Monomial = tuple[str, ...]
_Terms = tuple[tuple[_Monomial, int], ...]


@dataclass(frozen=True, slots=True)
class Bound:
    """A symbolic call-count upper bound.

    Either *unbounded* (``terms is None``) or a polynomial with
    non-negative integer coefficients over :data:`BOUND_SYMBOLS`,
    stored as canonically sorted ``(monomial, coefficient)`` pairs where
    a monomial is a sorted tuple of symbol names (``()`` = the constant
    term).  Addition models sequencing/branching (branch bounds are
    summed — a sound over-approximation), multiplication models loop
    nesting.
    """

    terms: _Terms | None

    @staticmethod
    def const(value: int) -> "Bound":
        return Bound(terms=(((), value),) if value else ())

    @staticmethod
    def symbol(name: str) -> "Bound":
        return Bound(terms=(((name,), 1),))

    @staticmethod
    def unbounded() -> "Bound":
        return Bound(terms=None)

    @property
    def is_unbounded(self) -> bool:
        return self.terms is None

    def add(self, other: "Bound") -> "Bound":
        if self.terms is None or other.terms is None:
            return Bound.unbounded()
        merged: dict[_Monomial, int] = dict(self.terms)
        for mono, coeff in other.terms:
            merged[mono] = merged.get(mono, 0) + coeff
        return Bound(terms=_canonical(merged))

    def mul(self, other: "Bound") -> "Bound":
        if self.terms is None or other.terms is None:
            return Bound.unbounded()
        product: dict[_Monomial, int] = {}
        for mono_a, coeff_a in self.terms:
            for mono_b, coeff_b in other.terms:
                mono = tuple(sorted(mono_a + mono_b))
                product[mono] = product.get(mono, 0) + coeff_a * coeff_b
        return Bound(terms=_canonical(product))

    def evaluate(self, env: dict[str, int]) -> int | None:
        """Numeric value under ``env``; None when unbounded.

        Raises:
            KeyError: when a symbol is missing from ``env``.
        """
        if self.terms is None:
            return None
        total = 0
        for mono, coeff in self.terms:
            value = coeff
            for sym in mono:
                value *= env[sym]
            total += value
        return total

    def expr(self) -> str:
        """Deterministic human/machine-readable form (``2*S + C + 1``)."""
        if self.terms is None:
            return "unbounded"
        if not self.terms:
            return "0"
        parts: list[str] = []
        ordered = sorted(self.terms, key=lambda t: (-len(t[0]), t[0]))
        for mono, coeff in ordered:
            factors = [str(coeff)] if coeff != 1 or not mono else []
            factors.extend(mono)
            parts.append("*".join(factors))
        return " + ".join(parts)

    def to_jsonable(self) -> list[list[object]] | None:
        """``[[monomial..., coefficient], ...]`` rows, or None."""
        if self.terms is None:
            return None
        return [[list(mono), coeff] for mono, coeff in self.terms]


def _canonical(terms: dict[_Monomial, int]) -> _Terms:
    return tuple(sorted(
        (mono, coeff) for mono, coeff in terms.items() if coeff
    ))


def bound_from_jsonable(rows: list[list[object]] | None) -> Bound:  # repro-lint: ignore[DC001] — consumed by the runtime call-budget gate (tests/resources)
    """Inverse of :meth:`Bound.to_jsonable` (for the runtime gate)."""
    if rows is None:
        return Bound.unbounded()
    terms: dict[_Monomial, int] = {}
    for row in rows:
        symbols, coeff = row
        if not isinstance(symbols, (list, tuple)):
            raise ValueError(f"malformed bound row: {row!r}")
        mono = tuple(sorted(str(part) for part in symbols))
        terms[mono] = terms.get(mono, 0) + int(coeff)  # type: ignore[call-overload]
    return Bound(terms=_canonical(terms))


# ----------------------------------------------------------------------
# loop structure
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class LoopFrame:
    """One loop enclosing a call site, with its resolved trip bound."""

    path: str
    lineno: int
    kind: str  # "for" | "while" | "comp"
    bound: Bound
    #: "constant" | "attribute" | "annotation" | "unresolved"
    origin: str


def _walk_with_loops(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    frame_of: "_FrameFactory",
) -> Iterator[tuple[ast.AST, tuple[LoopFrame, ...]]]:
    """Yield every node of the function body with its loop context.

    Nested ``def``/``class``/``lambda`` bodies are skipped — they are
    separate functions with their own summaries.  Comprehensions count
    as loops: their element expressions run once per generated item.
    """
    stack: list[tuple[ast.AST, tuple[LoopFrame, ...]]] = [
        (child, ()) for child in reversed(node.body)
    ]
    while stack:
        current, frames = stack.pop()
        yield current, frames
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(current, (ast.For, ast.AsyncFor)):
            inner = frames + (frame_of(current),)
            stack.extend((child, frames) for child in (
                current.target, current.iter,
            ))
            for child in (*reversed(current.orelse), *reversed(current.body)):
                stack.append((child, inner))
            continue
        if isinstance(current, ast.While):
            inner = frames + (frame_of(current),)
            stack.append((current.test, frames))
            for child in (*reversed(current.orelse), *reversed(current.body)):
                stack.append((child, inner))
            continue
        if isinstance(current, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                                ast.DictComp)):
            inner = frames
            for index, gen in enumerate(current.generators):
                stack.append((gen.iter, inner))
                inner = inner + (
                    frame_of.comp(current, gen.iter, first=index == 0),
                )
                stack.extend((cond, inner) for cond in gen.ifs)
            if isinstance(current, ast.DictComp):
                stack.append((current.key, inner))
                stack.append((current.value, inner))
            else:
                stack.append((current.elt, inner))
            continue
        stack.extend(
            (child, frames) for child in ast.iter_child_nodes(current)
        )


class _FrameFactory:
    """Builds :class:`LoopFrame`\\ s for one function, resolving bounds
    against the module source (annotations) and the symbol table
    (``self.attr`` defaults)."""

    def __init__(
        self, program: Program, func: FunctionInfo, path: str,
        lines: list[str],
    ) -> None:
        self._table = program.symtab
        self._func = func
        self._path = path
        self._lines = lines

    def __call__(self, node: ast.AST) -> LoopFrame:
        lineno = getattr(node, "lineno", 1)
        kind = "for" if isinstance(node, (ast.For, ast.AsyncFor)) else "while"
        annotated = self._annotation(lineno)
        if annotated is not None:
            return LoopFrame(self._path, lineno, kind, annotated, "annotation")
        if isinstance(node, (ast.For, ast.AsyncFor)):
            resolved = self._iter_bound(node.iter)
            if resolved is not None:
                bound, origin = resolved
                return LoopFrame(self._path, lineno, kind, bound, origin)
        return LoopFrame(
            self._path, lineno, kind, Bound.unbounded(), "unresolved"
        )

    def comp(
        self, node: ast.AST, iter_expr: ast.expr, first: bool
    ) -> LoopFrame:
        """Frame for one comprehension generator.

        A ``loop-bound[...]`` annotation on the comprehension's line
        bounds the *first* generator; later generators resolve their own
        iterables (or stay unbounded) so the product is never silently
        collapsed to the annotation alone.
        """
        lineno = getattr(node, "lineno", 1)
        if first:
            annotated = self._annotation(lineno)
            if annotated is not None:
                return LoopFrame(
                    self._path, lineno, "comp", annotated, "annotation"
                )
        resolved = self._iter_bound(iter_expr)
        if resolved is not None:
            bound, origin = resolved
            return LoopFrame(self._path, lineno, "comp", bound, origin)
        return LoopFrame(
            self._path, lineno, "comp", Bound.unbounded(), "unresolved"
        )

    def _annotation(self, lineno: int) -> Bound | None:
        if not 1 <= lineno <= len(self._lines):
            return None
        match = _LOOP_BOUND_RE.search(self._lines[lineno - 1])
        if match is None:
            return None
        return parse_bound_expr(
            match.group("expr"), self._table, self._enclosing_class()
        )

    def _enclosing_class(self) -> str | None:
        if self._func.cls is None:
            return None
        return f"{self._func.module}.{self._func.cls}"

    def _iter_bound(self, iter_node: ast.expr) -> tuple[Bound, str] | None:
        """Resolve a ``for`` iterable to a trip-count bound, if possible."""
        if isinstance(iter_node, (ast.List, ast.Tuple, ast.Set)):
            return Bound.const(len(iter_node.elts)), "constant"
        if (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id == "range"
        ):
            return self._range_bound(iter_node)
        if isinstance(iter_node, ast.Subscript) and isinstance(
            iter_node.slice, ast.Slice
        ):
            upper = iter_node.slice.upper
            lower = iter_node.slice.lower
            lower_ok = lower is None or (
                isinstance(lower, ast.Constant) and lower.value == 0
            )
            if (
                lower_ok
                and isinstance(upper, ast.Constant)
                and isinstance(upper.value, int)
                and upper.value >= 0
                and iter_node.slice.step is None
            ):
                return Bound.const(upper.value), "constant"
        return None

    def _range_bound(self, call: ast.Call) -> tuple[Bound, str] | None:
        args = call.args
        if call.keywords or not 1 <= len(args) <= 3:
            return None
        values: list[int] = []
        origin = "constant"
        for arg in args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, int):
                values.append(arg.value)
                continue
            attr_value = self._self_attr_value(arg)
            if attr_value is not None and len(args) == 1:
                values.append(attr_value)
                origin = "attribute"
                continue
            return None
        if len(values) == 1:
            return Bound.const(max(values[0], 0)), origin
        step = values[2] if len(values) == 3 else 1
        if step == 0:
            return None
        span = values[1] - values[0]
        count = -(-span // step) if step > 0 else -(span // -step)
        return Bound.const(max(0, count)), "constant"

    def _self_attr_value(self, node: ast.expr) -> int | None:
        """``self.attr`` → its maximal integer default over subclasses."""
        if not (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in {"self", "cls"}
        ):
            return None
        cls_qual = self._enclosing_class()
        if cls_qual is None:
            return None
        return attr_int_bound(self._table, cls_qual, node.attr)


def parse_bound_expr(
    expr: str, table: SymbolTable, cls_qual: str | None
) -> Bound | None:
    """Parse a ``loop-bound[...]`` expression.

    The grammar is a ``*``-product of factors: a non-negative integer
    literal, an UPPERCASE corpus symbol from :data:`BOUND_SYMBOLS`, or a
    ``self.attr`` reference resolved (maximised over subclasses) to an
    integer default.  Returns None for anything else — an unparsable
    annotation must not silently certify a bound.
    """
    result = Bound.const(1)
    for raw in expr.split("*"):
        factor = raw.strip()
        if not factor:
            return None
        if factor.isdigit():
            result = result.mul(Bound.const(int(factor)))
            continue
        if _SYMBOL_RE.match(factor):
            if factor not in BOUND_SYMBOLS:
                return None
            result = result.mul(Bound.symbol(factor))
            continue
        if factor.startswith("self.") and cls_qual is not None:
            value = attr_int_bound(table, cls_qual, factor[len("self."):])
            if value is None:
                return None
            result = result.mul(Bound.const(value))
            continue
        return None
    return result


def attr_int_bound(
    table: SymbolTable, cls_qual: str, attr: str
) -> int | None:
    """Maximal integer default of ``attr`` over ``cls_qual`` and every
    subclass in the program.

    A statically bound ``self.attr`` may dispatch against any subclass
    instance, so the certified bound takes the worst case.  Returns None
    when any candidate class fails to resolve the attribute to an
    integer constant (class-level assignment or ``__init__`` keyword
    default, searched through the MRO).
    """
    candidates = [cls_qual] + sorted(
        qual for qual in table.classes
        if qual != cls_qual and table.is_subclass(qual, cls_qual)
    )
    best: int | None = None
    for candidate in candidates:
        value = _resolve_attr_default(table, candidate, attr)
        if value is None:
            return None
        best = value if best is None else max(best, value)
    return best


def _resolve_attr_default(
    table: SymbolTable, cls_qual: str, attr: str
) -> int | None:
    for current in [cls_qual, *sorted(table.ancestors(cls_qual))]:
        cls = table.classes.get(current)
        if cls is None:
            continue
        for stmt in cls.node.body:
            value = _class_level_int(stmt, attr)
            if value is not None:
                return value
        init_qual = cls.methods.get("__init__")
        init = table.functions.get(init_qual) if init_qual else None
        if init is not None:
            value = _init_default_int(init.node, attr)
            if value is not None:
                return value
    return None


def _class_level_int(stmt: ast.stmt, attr: str) -> int | None:
    value: ast.expr | None = None
    if isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == attr for t in stmt.targets
    ):
        value = stmt.value
    elif (
        isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and stmt.target.id == attr
    ):
        value = stmt.value
    if isinstance(value, ast.Constant) and isinstance(value.value, int):
        return value.value
    return None


def _init_default_int(
    node: ast.FunctionDef | ast.AsyncFunctionDef, attr: str
) -> int | None:
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    defaults: list[ast.expr | None] = [None] * (
        len(positional) - len(args.defaults)
    ) + list(args.defaults)
    for param, default in zip(positional, defaults):
        if param.arg == attr and isinstance(default, ast.Constant) and \
                isinstance(default.value, int):
            return default.value
    for param, kw_default in zip(args.kwonlyargs, args.kw_defaults):
        if param.arg == attr and isinstance(kw_default, ast.Constant) and \
                isinstance(kw_default.value, int):
            return kw_default.value
    return None


# ----------------------------------------------------------------------
# LLM client classes and call-site detection
# ----------------------------------------------------------------------
def llm_client_classes(program: Program) -> frozenset[str]:
    """Qualified names of ``LLMClient`` and every subclass in the set."""
    cached = program.analysis_cache.get("res_llm_classes")
    if cached is not None:
        return cached  # type: ignore[return-value]
    table = program.symtab
    out = {
        qual for qual in table.classes
        if qual == LLM_BASE_CLASS or table.is_subclass(qual, LLM_BASE_CLASS)
    }
    result = frozenset(out)
    program.analysis_cache["res_llm_classes"] = result
    return result


def _is_exempt(func: FunctionInfo, llm_classes: frozenset[str]) -> bool:
    """LLM client internals are below the seam, not pipeline code."""
    if func.module == LLM_BASE_MODULE:
        return True
    if func.cls is None:
        return False
    return f"{func.module}.{func.cls}" in llm_classes


def _llm_receiver(node: ast.Call) -> str | None:
    """Dotted receiver of an attribute call (``self.llm`` for
    ``self.llm.complete(...)``), else None."""
    if not isinstance(node.func, ast.Attribute):
        return None
    return dotted_name(node.func.value)


def _receiver_is_llm(receiver: str | None) -> bool:
    if receiver is None:
        return False
    return bool(_LLM_RECEIVER_RE.search(receiver.rsplit(".", 1)[-1]))


def _stage_expr_value(node: ast.expr) -> str | None:
    """The stage value of a ``Stage.<NAME>`` argument, or None when the
    argument is anything else.

    Names resolve through the runtime enum, so the analysis can never
    drift from the tag vocabulary.
    """
    from repro.llm.stage import Stage

    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "Stage"
    ):
        member = getattr(Stage, node.attr, None)
        if isinstance(member, Stage):
            return member.value
    return None


def _call_stage(api: str, node: ast.Call) -> str:
    if api == "complete":
        tag = node.args[1] if len(node.args) >= 2 else next(
            (kw.value for kw in node.keywords if kw.arg == "stage"), None
        )
        if tag is not None:
            resolved = _stage_expr_value(tag)
            if resolved is not None:
                return resolved
    return LLM_API_STAGES[api]


# ----------------------------------------------------------------------
# per-function summaries
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class LLMSite:
    """One syntactic call into the LLM client API; each execution meters
    exactly one call."""

    path: str
    line: int
    col: int
    api: str
    stage: str
    receiver: str
    precise: bool


@dataclass(frozen=True, slots=True)
class _Callout:
    target: str
    line: int
    loops: tuple[LoopFrame, ...]


@dataclass(frozen=True, slots=True)
class FuncSummary:
    """LLM sites and outgoing edges of one function, loop-annotated."""

    qualname: str
    sites: tuple[tuple[LLMSite, tuple[LoopFrame, ...]], ...]
    callouts: tuple[_Callout, ...]


def compute_summaries(program: Program) -> dict[str, FuncSummary]:
    """Loop-annotated LLM-site/call-edge summaries for every function
    outside the LLM client stack.  Memoised on ``program``."""
    cached = program.analysis_cache.get("res_summaries")
    if cached is not None:
        return cached  # type: ignore[return-value]
    table = program.symtab
    llm_classes = llm_client_classes(program)
    summaries: dict[str, FuncSummary] = {}
    for qual in sorted(table.functions):
        func = table.functions[qual]
        if _is_exempt(func, llm_classes):
            continue
        flow = program.callgraph.flows.get(qual)
        summaries[qual] = _summarise(program, func, flow, llm_classes)
    program.analysis_cache["res_summaries"] = summaries
    return summaries


def _summarise(
    program: Program,
    func: FunctionInfo,
    flow: FunctionFlow | None,
    llm_classes: frozenset[str],
) -> FuncSummary:
    table = program.symtab
    symbols = table.modules.get(func.module)
    path = symbols.module.display_path if symbols is not None else func.module
    lines = symbols.module.lines if symbols is not None else []
    frame_of = _FrameFactory(program, func, path, lines)
    site_by_node: dict[int, tuple[str | None, str]] = {}
    if flow is not None:
        for call in flow.calls:
            site_by_node[id(call.node)] = (call.target, call.kind)
    sites: list[tuple[LLMSite, tuple[LoopFrame, ...]]] = []
    callouts: list[_Callout] = []
    for node, frames in _walk_with_loops(func.node, frame_of):
        if not isinstance(node, ast.Call):
            continue
        target, kind = site_by_node.get(id(node), (None, ""))
        resolved = table.functions.get(target) if target else None
        if resolved is not None and kind == "function":
            if resolved.cls is not None and \
                    f"{resolved.module}.{resolved.cls}" in llm_classes:
                # A precisely resolved client-API call is a terminal LLM
                # site — never followed as an ordinary edge (the client
                # internals are below the meter seam).
                if resolved.name in LLM_API_STAGES:
                    sites.append((
                        _make_site(node, path, resolved.name, precise=True),
                        frames,
                    ))
                continue
            callouts.append(_Callout(resolved.qualname, node.lineno, frames))
            continue
        if kind == "class" and target is not None:
            if target in llm_classes:
                continue
            init = table.find_method(target, "__init__")
            if init is not None:
                callouts.append(_Callout(init, node.lineno, frames))
            continue
        if isinstance(node.func, ast.Attribute):
            api = node.func.attr
            if api in LLM_API_STAGES and \
                    _receiver_is_llm(_llm_receiver(node)):
                sites.append((
                    _make_site(node, path, api, precise=False), frames,
                ))
    return FuncSummary(
        qualname=func.qualname,
        sites=tuple(sites),
        callouts=tuple(callouts),
    )


def _make_site(
    node: ast.Call, path: str, api: str, precise: bool
) -> LLMSite:
    return LLMSite(
        path=path,
        line=node.lineno,
        col=node.col_offset + 1,
        api=api,
        stage=_call_stage(api, node),
        receiver=_llm_receiver(node) or "",
        precise=precise,
    )


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class EntryPoint:
    """One externally driven function the budgets are certified for."""

    qualname: str
    algorithm: str
    kind: str  # "pipeline" | "fusion" | "qa"
    phase: str  # "query" | "ingest" | "setup"


def compute_entry_points(program: Program) -> tuple[EntryPoint, ...]:
    """``MultiRAG`` plus every registered baseline, memoised."""
    cached = program.analysis_cache.get("res_entry_points")
    if cached is not None:
        return cached  # type: ignore[return-value]
    table = program.symtab
    entries: list[EntryPoint] = []
    for method, phase in (
        ("run", "query"), ("add_source", "ingest"), ("ingest", "ingest"),
    ):
        qual = table.find_method(ROOT_CLASS, method)
        if qual is not None:
            entries.append(EntryPoint(qual, "multirag", "pipeline", phase))
    for cls_qual in sorted(table.classes):
        cls = table.classes[cls_qual]
        decorators = set(cls.decorators)
        if decorators & _FUSION_DECORATORS:
            kind = "fusion"
        elif decorators & _QA_DECORATORS:
            kind = "qa"
        else:
            continue
        algorithm = _registered_name(cls.node) or cls.name.lower()
        query_method = "query" if kind == "fusion" else "answer"
        for method, phase in ((query_method, "query"), ("setup", "setup")):
            qual = table.find_method(cls_qual, method)
            if qual is not None:
                entries.append(EntryPoint(qual, algorithm, kind, phase))
    result = tuple(entries)
    program.analysis_cache["res_entry_points"] = result
    return result


def _registered_name(node: ast.ClassDef) -> str | None:
    for stmt in node.body:
        value = _class_level_str(stmt, "name")
        if value is not None:
            return value
    return None


def _class_level_str(stmt: ast.stmt, attr: str) -> str | None:
    value: ast.expr | None = None
    if isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == attr for t in stmt.targets
    ):
        value = stmt.value
    elif (
        isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and stmt.target.id == attr
    ):
        value = stmt.value
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return value.value
    return None


def compute_entry_reachable(program: Program) -> set[str]:
    """Function qualnames reachable from any entry point over precise
    call edges, including subclass overrides of reached methods."""
    cached = program.analysis_cache.get("res_entry_reachable")
    if cached is not None:
        return cached  # type: ignore[return-value]
    reachable = _reachable_from(
        program, [entry.qualname for entry in compute_entry_points(program)]
    )
    program.analysis_cache["res_entry_reachable"] = reachable
    return reachable


def compute_query_reachable(program: Program) -> set[str]:
    """Like :func:`compute_entry_reachable`, query-phase entries only."""
    cached = program.analysis_cache.get("res_query_reachable")
    if cached is not None:
        return cached  # type: ignore[return-value]
    reachable = _reachable_from(program, [
        entry.qualname for entry in compute_entry_points(program)
        if entry.phase == "query"
    ])
    program.analysis_cache["res_query_reachable"] = reachable
    return reachable


def _reachable_from(program: Program, roots: list[str]) -> set[str]:
    table = program.symtab
    reachable: set[str] = set()
    pending = list(roots)
    while pending:
        qual = pending.pop()
        if qual in reachable:
            continue
        reachable.add(qual)
        func = table.functions.get(qual)
        if func is not None and func.cls is not None:
            base_qual = f"{func.module}.{func.cls}"
            for cls_qual in sorted(table.classes):
                if cls_qual == base_qual:
                    continue
                if not table.is_subclass(cls_qual, base_qual):
                    continue
                override = table.classes[cls_qual].methods.get(func.name)
                if override is not None and override not in reachable:
                    pending.append(override)
        flow = program.callgraph.flows.get(qual)
        if flow is None:
            continue
        for site in flow.calls:
            if (
                site.kind == "function"
                and site.target is not None
                and site.target not in reachable
            ):
                pending.append(site.target)
    return reachable


# ----------------------------------------------------------------------
# interprocedural budgets
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class PathSite:
    """One LLM site as seen from an entry point: the site, the product
    of every enclosing loop bound down the call path (the calls the
    site can meter per entry invocation), and the path."""

    site: LLMSite
    multiplier: Bound
    call_path: tuple[str, ...]
    loops: tuple[tuple[str, LoopFrame], ...]


@dataclass(frozen=True, slots=True)
class EntryBudget:
    """The certified per-invocation budget of one entry point."""

    entry: EntryPoint
    sites: tuple[PathSite, ...]
    bound: Bound


def compute_entry_budgets(program: Program) -> tuple[EntryBudget, ...]:
    """Compose function summaries into per-entry budgets, memoised.

    Branches are summed (sound over-approximation); recursion through an
    LLM-relevant cycle yields an unbounded synthetic site anchored at
    the back edge.
    """
    cached = program.analysis_cache.get("res_entry_budgets")
    if cached is not None:
        return cached  # type: ignore[return-value]
    summaries = compute_summaries(program)
    relevant = _llm_relevant(summaries)
    memo: dict[str, tuple[PathSite, ...]] = {}
    budgets: list[EntryBudget] = []
    for entry in compute_entry_points(program):
        sites = _contributions(
            entry.qualname, summaries, relevant, memo, frozenset()
        )
        bound = Bound.const(0)
        for path_site in sites:
            bound = bound.add(path_site.multiplier)
        budgets.append(EntryBudget(entry=entry, sites=sites, bound=bound))
    result = tuple(budgets)
    program.analysis_cache["res_entry_budgets"] = result
    return result


def _llm_relevant(summaries: dict[str, FuncSummary]) -> frozenset[str]:
    """Functions that can transitively reach an LLM call site."""
    relevant = {
        qual for qual, summary in summaries.items() if summary.sites
    }
    changed = True
    while changed:
        changed = False
        for qual, summary in summaries.items():
            if qual in relevant:
                continue
            if any(c.target in relevant for c in summary.callouts):
                relevant.add(qual)
                changed = True
    return frozenset(relevant)


def _contributions(
    qual: str,
    summaries: dict[str, FuncSummary],
    relevant: frozenset[str],
    memo: dict[str, tuple[PathSite, ...]],
    in_progress: frozenset[str],
) -> tuple[PathSite, ...]:
    if qual in memo:
        return memo[qual]
    summary = summaries.get(qual)
    if summary is None or qual not in relevant:
        memo[qual] = ()
        return ()
    collected: list[PathSite] = []
    for site, frames in summary.sites:
        multiplier = Bound.const(1)
        for frame in frames:
            multiplier = multiplier.mul(frame.bound)
        collected.append(PathSite(
            site=site,
            multiplier=multiplier,
            call_path=(qual,),
            loops=tuple((qual, frame) for frame in frames),
        ))
    active = in_progress | {qual}
    for callout in summary.callouts:
        if callout.target not in relevant:
            continue
        if callout.target in active:
            # An LLM-relevant cycle: no static trip count exists, so the
            # whole path is unbounded (anchored at the back edge).
            collected.append(PathSite(
                site=LLMSite(
                    path=_site_path(summaries, qual),
                    line=callout.line,
                    col=1,
                    api="<recursion>",
                    stage="-",
                    receiver=callout.target,
                    precise=True,
                ),
                multiplier=Bound.unbounded(),
                call_path=(qual, callout.target),
                loops=tuple((qual, frame) for frame in callout.loops),
            ))
            continue
        outer = Bound.const(1)
        for frame in callout.loops:
            outer = outer.mul(frame.bound)
        for inner in _contributions(
            callout.target, summaries, relevant, memo, active
        ):
            collected.append(PathSite(
                site=inner.site,
                multiplier=outer.mul(inner.multiplier),
                call_path=(qual,) + inner.call_path,
                loops=tuple(
                    (qual, frame) for frame in callout.loops
                ) + inner.loops,
            ))
    result = tuple(collected)
    if all(ps.site.api != "<recursion>" for ps in result):
        # Recursion markers depend on which ancestors were on the path;
        # only recursion-free results are safe to reuse from any caller.
        memo[qual] = result
    return result


def _site_path(summaries: dict[str, FuncSummary], qual: str) -> str:
    summary = summaries.get(qual)
    if summary is not None:
        for site, _ in summary.sites:
            return site.path
    return qual


# ----------------------------------------------------------------------
# RES001 / RES003 / RES004 fact streams
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class RawTransportSite:
    """A raw transport call above the meter seam."""

    path: str
    line: int
    col: int
    attr: str
    function: str


def compute_raw_transport_sites(
    program: Program,
) -> tuple[RawTransportSite, ...]:
    """RES001 facts: raw transport calls in entry-reachable pipeline
    code (the client stack itself is exempt — it *is* the seam)."""
    cached = program.analysis_cache.get("res_raw_sites")
    if cached is not None:
        return cached  # type: ignore[return-value]
    table = program.symtab
    llm_classes = llm_client_classes(program)
    out: list[RawTransportSite] = []
    for qual in sorted(compute_entry_reachable(program)):
        func = table.functions.get(qual)
        if func is None or _is_exempt(func, llm_classes):
            continue
        symbols = table.modules.get(func.module)
        path = symbols.module.display_path if symbols else func.module
        flow = program.callgraph.flows.get(qual)
        resolved_cls: dict[int, str | None] = {}
        if flow is not None:
            for call in flow.calls:
                target = table.functions.get(call.target) if call.target \
                    else None
                resolved_cls[id(call.node)] = (
                    f"{target.module}.{target.cls}"
                    if target is not None and target.cls is not None
                    else None
                )
        for node in _own_nodes(func.node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in RAW_TRANSPORT
            ):
                continue
            # Only an LLM client's transport counts: a precise target on
            # a non-client class (e.g. a pipeline method that happens to
            # be named ``_generate``) is unrelated, and an unresolved
            # receiver must at least look like an LLM binding.
            target_cls = resolved_cls.get(id(node))
            if target_cls is not None and target_cls not in llm_classes:
                continue
            if target_cls is None and not _receiver_is_llm(
                _llm_receiver(node)
            ):
                continue
            out.append(RawTransportSite(
                path=path,
                line=node.lineno,
                col=node.col_offset + 1,
                attr=node.func.attr,
                function=qual,
            ))
    result = tuple(out)
    program.analysis_cache["res_raw_sites"] = result
    return result


@dataclass(frozen=True, slots=True)
class RetrySite:
    """An unbounded retry loop around LLM or blocking I/O (RES003)."""

    path: str
    line: int
    function: str
    reason: str


def compute_retry_sites(program: Program) -> tuple[RetrySite, ...]:
    """RES003 facts: in entry-reachable code, a loop with no resolvable
    trip bound that (a) wraps an LLM/blocking call in ``try`` — the
    retry-forever shape — or (b) contains a ``sleep`` with a
    non-constant duration — uncapped backoff."""
    cached = program.analysis_cache.get("res_retry_sites")
    if cached is not None:
        return cached  # type: ignore[return-value]
    table = program.symtab
    llm_classes = llm_client_classes(program)
    out: list[RetrySite] = []
    for qual in sorted(compute_entry_reachable(program)):
        func = table.functions.get(qual)
        if func is None or _is_exempt(func, llm_classes):
            continue
        symbols = table.modules.get(func.module)
        path = symbols.module.display_path if symbols else func.module
        lines = symbols.module.lines if symbols else []
        frame_of = _FrameFactory(program, func, path, lines)
        seen: set[int] = set()
        for node, frames in _walk_with_loops(func.node, frame_of):
            if not frames or not frames[-1].bound.is_unbounded:
                continue
            frame = frames[-1]
            if frame.lineno in seen:
                continue
            reason: str | None = None
            if isinstance(node, ast.Try) and _has_external_call(node):
                reason = (
                    "retry loop has no resolvable attempt cap around an "
                    "LLM/blocking call"
                )
            elif _is_uncapped_sleep(node):
                reason = "unbounded loop sleeps for a non-constant duration"
            if reason is not None:
                seen.add(frame.lineno)
                out.append(RetrySite(
                    path=path, line=frame.lineno, function=qual,
                    reason=reason,
                ))
    result = tuple(out)
    program.analysis_cache["res_retry_sites"] = result
    return result


def _own_nodes(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.AST]:
    pending: list[ast.AST] = list(node.body)
    while pending:
        current = pending.pop()
        yield current
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
            continue
        pending.extend(ast.iter_child_nodes(current))


def _has_external_call(node: ast.Try) -> bool:
    for stmt in node.body:
        for sub in ast.walk(stmt):
            if not isinstance(sub, ast.Call):
                continue
            if isinstance(sub.func, ast.Attribute):
                attr = sub.func.attr
                if attr in LLM_API_STAGES or attr in RAW_TRANSPORT or \
                        attr in _BLOCKING_ATTRS:
                    return True
    return False


def _is_uncapped_sleep(node: ast.AST) -> bool:
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "sleep"
    ):
        return False
    if not node.args:
        return False
    return not isinstance(node.args[0], ast.Constant)


@dataclass(frozen=True, slots=True)
class GrowthSite:
    """Unbounded growth of a long-lived instance collection (RES004)."""

    path: str
    line: int
    col: int
    cls_qual: str
    attr: str
    via: str
    function: str


def compute_growth_sites(program: Program) -> tuple[GrowthSite, ...]:
    """RES004 facts: on the query path, a ``self``-rooted container that
    only ever grows — no ``pop``/``clear``/``remove``/reassignment seam
    anywhere in the owning class or its ancestors.

    Attributes whose static type resolves to a program class are skipped
    at the owner level: the growth (and its seam) lives inside that
    class and is analysed there.  Constant-key subscript stores are
    bounded by construction and ignored.
    """
    cached = program.analysis_cache.get("res_growth_sites")
    if cached is not None:
        return cached  # type: ignore[return-value]
    table = program.symtab
    out: list[GrowthSite] = []
    seam_memo: dict[tuple[str, str], bool] = {}
    for qual in sorted(compute_query_reachable(program)):
        func = table.functions.get(qual)
        if func is None or func.cls is None or func.name == "__init__":
            continue
        cls_qual = f"{func.module}.{func.cls}"
        cls = table.classes.get(cls_qual)
        if cls is None:
            continue
        symbols = table.modules.get(func.module)
        path = symbols.module.display_path if symbols else func.module
        for attr, node, via in _growth_writes(func.node):
            if cls.attr_types.get(attr) in table.classes:
                continue
            key = (cls_qual, attr)
            if key not in seam_memo:
                seam_memo[key] = _has_eviction_seam(table, cls_qual, attr)
            if seam_memo[key]:
                continue
            out.append(GrowthSite(
                path=path,
                line=node.lineno,
                col=getattr(node, "col_offset", 0) + 1,
                cls_qual=cls_qual,
                attr=attr,
                via=via,
                function=qual,
            ))
    result = tuple(out)
    program.analysis_cache["res_growth_sites"] = result
    return result


def _growth_writes(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[tuple[str, ast.AST, str]]:
    """``(attr, node, how)`` for every growing write to ``self.attr``."""
    for sub in _own_nodes(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            if sub.func.attr in _GROWTH_METHODS:
                attr = _self_rooted_attr(sub.func.value)
                if attr is not None:
                    yield attr, sub, f".{sub.func.attr}()"
            continue
        targets: list[ast.expr] = []
        if isinstance(sub, ast.Assign):
            targets = list(sub.targets)
        elif isinstance(sub, ast.AugAssign):
            targets = [sub.target]
        for target in targets:
            if not isinstance(target, ast.Subscript):
                continue
            if isinstance(target.slice, ast.Constant):
                continue
            attr = _self_rooted_attr(target.value)
            if attr is not None:
                yield attr, target, "subscript store"


def _self_rooted_attr(node: ast.expr) -> str | None:
    """First attribute of a ``self.attr...`` chain, else None."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name) and current.id == "self" and parts:
        return parts[-1]
    return None


def _has_eviction_seam(
    table: SymbolTable, cls_qual: str, attr: str
) -> bool:
    for current in [cls_qual, *sorted(table.ancestors(cls_qual))]:
        cls = table.classes.get(current)
        if cls is None:
            continue
        for method_qual in cls.methods.values():
            func = table.functions.get(method_qual)
            if func is None:
                continue
            for sub in _own_nodes(func.node):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _EVICTION_METHODS
                    and _self_rooted_attr(sub.func.value) == attr
                ):
                    return True
                if isinstance(sub, ast.Delete) and any(
                    isinstance(t, ast.Subscript)
                    and _self_rooted_attr(t.value) == attr
                    for t in sub.targets
                ):
                    return True
                if (
                    func.name != "__init__"
                    and isinstance(sub, ast.Assign)
                    and any(
                        isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == "self"
                        and t.attr == attr
                        for t in sub.targets
                    )
                ):
                    return True
    return False


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
def llm_call_report(program: Program) -> dict[str, object]:
    """The ``repro lint --graph llm`` payload: the complete call-site
    inventory keyed by algorithm → entry → stage, with wrapper-chain
    metadata."""
    table = program.symtab
    llm_classes = llm_client_classes(program)
    clients: list[dict[str, object]] = []
    for qual in sorted(llm_classes):
        cls = table.classes.get(qual)
        if cls is None:
            continue
        init_qual = cls.methods.get("__init__")
        init = table.functions.get(init_qual) if init_qual else None
        wraps_inner = init is not None and "inner" in {
            a.arg for a in (*init.node.args.posonlyargs,
                            *init.node.args.args,
                            *init.node.args.kwonlyargs)
        }
        clients.append({
            "class": qual,
            "wraps_inner": wraps_inner,
            "overrides": sorted(
                name for name in cls.methods
                if name in LLM_API_STAGES or name in RAW_TRANSPORT
            ),
        })
    kinds: dict[str, str] = {}
    entries_by_algorithm: dict[str, list[dict[str, object]]] = {}
    for budget in compute_entry_budgets(program):
        entry = budget.entry
        kinds[entry.algorithm] = entry.kind
        entries_by_algorithm.setdefault(entry.algorithm, []).append({
            "entry": entry.qualname,
            "phase": entry.phase,
            "bound": budget.bound.expr(),
            "bound_terms": budget.bound.to_jsonable(),
            "sites": [_path_site_doc(ps) for ps in budget.sites],
        })
    return {
        "symbols": dict(BOUND_SYMBOLS),
        "seam": {
            "base_class": LLM_BASE_CLASS,
            "metered_api": sorted(LLM_API_STAGES),
            "raw_transport": sorted(RAW_TRANSPORT),
        },
        "clients": clients,
        "algorithms": [
            {
                "algorithm": name,
                "kind": kinds[name],
                "entries": entries_by_algorithm[name],
            }
            for name in sorted(entries_by_algorithm)
        ],
    }


def _path_site_doc(path_site: PathSite) -> dict[str, object]:
    site = path_site.site
    return {
        "path": site.path,
        "line": site.line,
        "api": site.api,
        "stage": site.stage,
        "receiver": site.receiver,
        "resolution": "precise" if site.precise else "name-match",
        "multiplier": path_site.multiplier.expr(),
        "call_path": list(path_site.call_path),
        "loops": [
            {
                "function": qual,
                "path": frame.path,
                "line": frame.lineno,
                "kind": frame.kind,
                "bound": frame.bound.expr(),
                "origin": frame.origin,
            }
            for qual, frame in path_site.loops
        ],
    }


def llm_bounds_payload(program: Program) -> dict[str, object]:
    """The certified query-phase bounds (``--graph llm-bounds``), the
    document committed to ``results/llm_call_bounds.json``.

    Each algorithm row carries the total per-query bound plus a
    ``stages`` breakdown — one certified bound per stage tag, the
    static counterpart of :meth:`UsageMeter.stage_snapshot`'s per-stage
    call counts.
    """
    bounds: dict[str, dict[str, object]] = {}
    for budget in compute_entry_budgets(program):
        entry = budget.entry
        if entry.phase != "query":
            continue
        key = (
            "multirag" if entry.kind == "pipeline"
            else f"{entry.kind}:{entry.algorithm}"
        )
        per_stage: dict[str, Bound] = {}
        for path_site in budget.sites:
            stage = path_site.site.stage
            per_stage[stage] = per_stage.get(stage, Bound.const(0)).add(
                path_site.multiplier
            )
        bounds[key] = {
            "entry": entry.qualname,
            "algorithm": entry.algorithm,
            "kind": entry.kind,
            "bound": budget.bound.expr(),
            "terms": budget.bound.to_jsonable(),
            "sites": len(budget.sites),
            "stages": {
                stage: {
                    "bound": per_stage[stage].expr(),
                    "terms": per_stage[stage].to_jsonable(),
                }
                for stage in sorted(per_stage)
            },
        }
    return {
        "symbols": dict(BOUND_SYMBOLS),
        "bounds": {key: bounds[key] for key in sorted(bounds)},
    }
