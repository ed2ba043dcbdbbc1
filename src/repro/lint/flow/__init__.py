"""Whole-program flow analysis for the lint gate.

The per-file rules check what a single module can prove about itself;
this subpackage builds the project-wide view — symbol table, import and
call graphs — that the two flow-rule families run over:

* ``reachability`` (DC) — code no entry point can reach;
* ``concurrency`` — the shared-state facts the CONC rules
  (:mod:`repro.lint.rules.concurrency`) consume.

Everything is stdlib ``ast``; the code under analysis is never imported.
The rule modules self-register on import via ``repro.lint.rules`` —
importing this package alone stays side-effect free.
"""

from repro.lint.flow.callgraph import CallGraph, FunctionFlow, build_call_graph
from repro.lint.flow.program import REPRO_ERROR_QUAL, Program, build_program
from repro.lint.flow.symbols import (
    ClassInfo,
    FunctionInfo,
    ModuleSymbols,
    SymbolTable,
    build_symbol_table,
    module_name_of,
)

__all__ = [
    "CallGraph",
    "ClassInfo",
    "FunctionFlow",
    "FunctionInfo",
    "ModuleSymbols",
    "Program",
    "REPRO_ERROR_QUAL",
    "SymbolTable",
    "build_call_graph",
    "build_program",
    "build_symbol_table",
    "module_name_of",
]
