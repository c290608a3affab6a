"""The package names the benchmark harness uses must exist.

``perfbench/`` is parsed here, never imported or run.  Its modules import
the package as ``maa32``, ``core``, ``cli`` and ``vectors``; every name
they import from it and every attribute they take of those four must
resolve, or each benchmark run fails before its first timed call.  The
functions its tracer wraps, named by string in ``HOOKS``, must resolve too,
or their per-layer metrics silently read 0.
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


def hooked_names():
    """(module, attribute) of each entry of ``perfbench/tracing.py``'s HOOKS.

    The tracer looks the hooks up by string, which the attribute scan above
    cannot see, and skips a name that is gone, so its metric reads 0.
    """
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["HOOKS"]:
            return [tuple(ast.literal_eval(entry)[:2]) for entry in node.value.elts]
    raise AssertionError("tracing.py has no HOOKS")


# Hooks whose function no longer exists, so their metrics read 0 until the
# benchmark is re-pointed (ROADMAP item 1).  A listed name may leave HOOKS;
# no other hook may be dead.
DEAD_HOOKS = {
    ("maa32.core", "pad_message"),
    ("maa32.core", "prelude_intermediate"),
    ("maa32.cli", "mac"),
    ("maa32.cli", "pad_message"),
}
HOOKED = hooked_names()


def test_the_hook_scan_finds_the_live_hooks():
    assert {("maa32.core", "process_segment"), ("maa32.cli", "main")} <= set(HOOKED)


@pytest.mark.parametrize("module, name", sorted(set(HOOKED) - DEAD_HOOKS))
def test_hooked_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


def test_corpus_report_has_the_gate_fields():
    # run.py gates on run_vectors(builtin_corpus()).ok and reports .failed.
    report = vectors.run_vectors([])
    assert (report.ok, report.failed) == (True, 0)
