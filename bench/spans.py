"""In-memory span tracing around the public functions of each module.

``Tracer.install`` wraps every traced function and rebinds the wrapper
under every name that holds the original in any ``beamauction`` module:
``auction`` imports ``solve_rectangular`` by name and ``sim`` calls
``generate_scenario`` through its own globals, so patching only the
defining module would miss those calls. ``uninstall`` restores the
originals, so untraced requests run the unmodified package.

Spans are kept in a list as ``(name, start, end, parent, request, cells)``
and only summarised after the run.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "beamauction"
# module -> public functions traced in it; names are "module.function".
TRACED = {
    "assignment": ("solve_rectangular", "solve_rectangular_forbidden"),
    "auction": ("payment", "run_auction"),
    "model": ("build_bid_matrix",),
    "sim": ("generate_scenario", "run_experiment"),
    "baseline": ("greedy_allocate",),
    "cli": ("parse_bid_matrix", "main"),
}

# Work counted at a span boundary: cells of the bid matrices built.
_CELLS = {"model.build_bid_matrix": lambda result: result.values.size}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers = {}
        for module, names in TRACED.items():
            mod = sys.modules[f"{PACKAGE}.{module}"]
            for name in names:
                original = getattr(mod, name)
                self._wrappers[id(original)] = (
                    original,
                    self._wrap(f"{module}.{name}", original),
                )

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        cells = _CELLS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                work = cells(result) if cells and result is not None else 0
                spans[index] = (name, start, end, parent, self.request, work)

        return traced

    def install(self) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)


def summarise(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: total ``calls``, ``self_s`` and ``cells``.

    Self time is a span's duration minus the time its child spans cover;
    calls are synchronous on one thread, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _request, _cells in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "cells": 0}
    )
    for index, (name, start, end, _parent, _request, cells) in enumerate(spans):
        entry = totals[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[index]
        entry["cells"] += cells
    return dict(totals)
