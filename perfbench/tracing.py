"""In-memory span tracing of maa32's layers for the traced benchmark run.

Wrappers replace module attributes at the names that callers look up at
call time (``core.prelude`` is looked up by ``core.mac``, ``cli.mac`` by the
CLI commands), so spans follow the program's own calls.  A hooked name that
a later version does not define is skipped, and one that it no longer calls
records no spans; either way its time shows in the caller's self time.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (module, attribute, span name, what the span counts)
HOOKS = (
    ("maa32", "mac_bytes", "core.mac_bytes", None),
    ("maa32.core", "pad_message", "core.pad_message", "bytes"),
    ("maa32.core", "mac", "core.mac", None),
    ("maa32.core", "prelude", "core.prelude", None),
    ("maa32.core", "prelude_intermediate", "core.prelude_intermediate", None),
    ("maa32.core", "process_segment", "core.process_segment", "blocks"),
    ("maa32.cli", "main", "cli.main", None),
    ("maa32.cli", "mac", "core.mac", "read"),
    ("maa32.cli", "pad_message", "core.pad_message", "bytes"),
)

NAME, START, END, PARENT, MESSAGE, COUNT = range(6)


class Tracer:
    """Records spans [name, start, end, parent index, message id, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self.message = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name, counts in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if callable(original):
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, counts))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn, counts):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.message, 0]
            if counts == "bytes":
                span[COUNT] = len(args[0])
            elif counts == "blocks":
                span[COUNT] = len(args[-1])
            elif counts == "read":
                args = (args[0], _counted(args[1], span)) + args[2:]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced


def _counted(message, span):
    """Count the blocks the program reads; sized inputs pass through unchanged."""
    if hasattr(message, "__len__"):
        span[COUNT] = len(message)
        return message

    def reader():
        for m in message:
            span[COUNT] += 1
            yield m

    return reader()


def layer_totals(spans: list[list]) -> tuple[dict[str, dict[str, float]], float]:
    """Per span name: calls, inclusive seconds, self seconds and count; and root seconds.

    Self time is a span's duration minus the durations of its children;
    calls are sequential on one thread, so children never overlap.
    """
    child = [0.0] * len(spans)
    root = 0.0
    for s in spans:
        duration = s[END] - s[START]
        if s[PARENT] < 0:
            root += duration
        else:
            child[s[PARENT]] += duration
    totals: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        t = totals.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
        duration = s[END] - s[START]
        t["calls"] += 1
        t["s"] += duration
        t["self_s"] += duration - child[i]
        t["count"] += s[COUNT]
    return totals, root
