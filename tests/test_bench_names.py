"""The package names the benchmark harness uses must exist.

``perfbench/`` is parsed here, never imported or run.  Its modules import
the package as ``maa32``, ``core``, ``cli`` and ``vectors``; every name
they import from it and every attribute they take of those four must
resolve, or each benchmark run fails before its first timed call.
"""

import ast
import importlib
from pathlib import Path

import pytest

from maa32 import vectors

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = {"maa32": "maa32", "core": "maa32.core", "cli": "maa32.cli", "vectors": "maa32.vectors"}


def used_names():
    """(file, module, name) for each package name a perfbench module uses."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in MODULES:
                found.add((path.name, MODULES[node.value.id], node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "maa32":
                found.update((path.name, node.module, alias.name) for alias in node.names)
    return sorted(found)


USED = used_names()


def test_the_scan_finds_the_names_the_workloads_use():
    found = {(module, name) for _, module, name in USED}
    assert {
        ("maa32.core", "coda"),
        ("maa32.core", "LoopState"),
        ("maa32.cli", "main"),
        ("maa32.vectors", "run_vectors"),
        ("maa32", "core"),
    } <= found


@pytest.mark.parametrize("path, module, name", USED)
def test_name_resolves(path, module, name):
    owner = importlib.import_module(module)
    if not hasattr(owner, name):
        importlib.import_module(module + "." + name)  # a submodule, as `from maa32 import core`


def test_corpus_report_has_the_gate_fields():
    # run.py gates on run_vectors(builtin_corpus()).ok and reports .failed.
    report = vectors.run_vectors([])
    assert (report.ok, report.failed) == (True, 0)
