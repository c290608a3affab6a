"""Make the tests, and the CLI subprocesses they start, import this checkout.

The CLI tests run ``python -m maa32`` with ``cwd`` set to a temporary
directory (``selftest --data-dir`` defaults to ``.``).  A relative
``PYTHONPATH=src`` stops resolving there, so the absolute ``src`` of this
checkout goes first on ``PYTHONPATH`` for every child, with any existing
entries kept after it, and first on ``sys.path`` for the test process, so
both import the same ``maa32`` even when an installed copy exists.

A run that makes ``EncodingWarning`` an error (the warnings run in
ROADMAP.md and CI) still runs ``test_acceptance.py``, which is kept as
first written and writes one file in the locale's encoding: its tests only
report that warning.
"""

import os
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.filterwarnings("default::EncodingWarning"))
