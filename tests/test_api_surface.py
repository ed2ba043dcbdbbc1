"""Public API surface checks: exports exist, names stay stable."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = [
    "repro.adapters", "repro.baselines", "repro.confidence", "repro.core",
    "repro.datasets", "repro.eval", "repro.kg", "repro.linegraph",
    "repro.lint", "repro.llm", "repro.obs", "repro.retrieval",
]


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__")
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name} missing"


def test_top_level_exports():
    for name in repro.__all__:
        assert hasattr(repro, name)


def test_version():
    assert repro.__version__ == "1.0.0"


@pytest.mark.parametrize("module_name", SUBPACKAGES + ["repro"])
def test_module_docstrings(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} needs a module docstring"


def test_public_classes_documented():
    """Every exported class and function carries a docstring."""
    import inspect

    undocumented = []
    for module_name in SUBPACKAGES:
        module = importlib.import_module(module_name)
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    undocumented.append(f"{module_name}.{name}")
    assert undocumented == []


def test_import_repro_leaves_the_analyzer_unloaded():
    """A fresh ``import repro`` loads the pipeline and its runtime
    validators (``repro.contracts``) but no module of ``repro.lint``."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "import sys, repro\n"
        "print('repro.contracts' in sys.modules)\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.lint')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, check=True, timeout=120,
    ).stdout.splitlines()
    assert out == ["True", "[]"]
