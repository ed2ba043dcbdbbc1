"""The whole-program view handed to every :class:`FlowRule`.

A :class:`Program` bundles the symbol table and call graph built over one
lint run's file set, plus the ``ReproError`` class hierarchy (recovered
statically from the linted ``repro/errors.py``, never imported), which
the reachability rules root as public API.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lint.flow.callgraph import CallGraph, build_call_graph
from repro.lint.flow.symbols import (
    ModuleSymbols,
    SymbolTable,
    build_symbol_table,
)
from repro.lint.registry import ModuleUnderLint

#: the root of the library's exception contract.
REPRO_ERROR_QUAL = "repro.errors.ReproError"


@dataclass(slots=True)
class Program:
    """One lint run's whole-program analysis context."""

    symtab: SymbolTable
    callgraph: CallGraph
    #: qualnames of every class deriving (transitively) from ReproError.
    repro_errors: frozenset[str] = field(default_factory=frozenset)
    #: memo shared by the analyses — several rules consume one fixpoint
    #: (e.g. DC001 and DC002 both need the reachable set), and rules run
    #: as independent instances, so the result lives on the program.
    analysis_cache: dict[str, object] = field(default_factory=dict)

    @property
    def modules(self) -> dict[str, ModuleSymbols]:
        return self.symtab.modules


def _collect_repro_errors(symtab: SymbolTable) -> frozenset[str]:
    if REPRO_ERROR_QUAL not in symtab.classes:
        return frozenset()
    out = {REPRO_ERROR_QUAL}
    for qual in sorted(symtab.classes):
        if REPRO_ERROR_QUAL in symtab.ancestors(qual):
            out.add(qual)
    return frozenset(out)


def build_program(modules: list[ModuleUnderLint]) -> Program:
    """Build the whole-program context over ``modules``.

    Files outside a ``repro`` package tree contribute nothing (the flow
    rules cannot place them in the import DAG), mirroring how the
    layering rules skip them.
    """
    symtab = build_symbol_table(modules)
    callgraph = build_call_graph(symtab)
    return Program(
        symtab=symtab,
        callgraph=callgraph,
        repro_errors=_collect_repro_errors(symtab),
    )
