"""Spans around the layers of hermsos, installed from outside the package.

``Tracer.install`` replaces the public functions of the layer modules, and
the ``HermitianForm`` methods named in ``FORM_METHODS``, with wrappers that
record one span per call: (id, parent id, name, job, start, end, book, counts).
``book`` is the time the wrapper spent counting after ``end``; it is charged
to no layer.  Every module attribute that holds an original is patched, so
``from .rankdecomp import inertia`` in another module is traced too.
``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict
from typing import Dict, List

LAYER_MODULES = ("cli", "documents", "polyalg", "rankdecomp", "isometry", "bounds")

# Public functions that share one span name; the rest are "<module>.<name>".
GROUPS = {
    "cli": "cli.main",  # argparse, the cmd_* handlers, printing, file I/O
    "bounds": "bounds.check",
}
DOCUMENT_GROUPS = {"parse_": "documents.parse", "serialize_": "documents.serialize"}

# A sort key that runs once per sorted element: a span would cost more than
# the call, so its time stays with the caller.
SKIP = {"grlex_key"}

FORM_METHODS = {
    "__init__": "polyalg.form_init",
    "__mul__": "polyalg.form_mul",
    "__add__": "polyalg.form_add",
    "__eq__": "polyalg.form_eq",
    "restrict": "polyalg.form_restrict",
}

_MARK = "__perfbench_wrapped__"


# Counters read forms through their public API (size, entries()), so a new
# representation inside HermitianForm does not break them.
def _nnz(form) -> int:
    return sum(1 for _ in form.entries())


def _count_form_init(args, result):
    size = args[0].size
    return {"cells": size * size, "nnz": _nnz(args[0])}


def _count_form_mul(args, result):
    if result is NotImplemented:
        return None
    return {"pairs": _nnz(args[0]) * _nnz(args[1])}


def _count_square(args, result):
    size = args[0].size
    return {"cells": size * size, "max_size": size}


COUNTERS = {
    "polyalg.form_init": _count_form_init,
    "polyalg.form_mul": _count_form_mul,
    "rankdecomp.inertia": _count_square,
    "rankdecomp.extract_sos": _count_square,
}


def span_name(module: str, func: str) -> str:
    if module in GROUPS:
        return GROUPS[module]
    if module == "documents":
        for prefix, name in DOCUMENT_GROUPS.items():
            if func.startswith(prefix):
                return name
    return f"{module}.{func}"


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self.job = 0
        self._stack: List[int] = []
        self._ids = itertools.count()
        self._patches: List[tuple] = []
        self.count_errors = set()

    def _wrap(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        count = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, tracer.job, start, end, 0.0, None))
                raise
            end = clock()
            stack.pop()
            counts = None
            if count:
                try:
                    counts = count(args, result)
                except Exception as exc:  # a counter must never fail the traced call
                    tracer.count_errors.add(f"{name}: {exc!r}")
            spans.append((sid, parent, name, tracer.job, start, end, clock() - end, counts))
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        wrappers = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"hermsos.{short}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and attr not in SKIP):
                    wrappers[obj] = self._wrap(span_name(short, attr), obj)
        for modname, module in list(sys.modules.items()):
            if modname != "hermsos" and not modname.startswith("hermsos."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        form = sys.modules["hermsos.polyalg"].HermitianForm
        for attr, name in FORM_METHODS.items():
            original = form.__dict__.get(attr)
            if original is None:
                continue
            self._patches.append((form, attr, original))
            setattr(form, attr, self._wrap(name, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_totals(self) -> Dict[str, dict]:
        """Per span name: calls, self seconds, and summed or maximal counts."""
        child_cost: Dict[int, float] = defaultdict(float)
        totals: Dict[str, dict] = defaultdict(lambda: defaultdict(float))
        # spans are appended when they end, so children precede parents
        for sid, parent, name, _, start, end, book, counts in self.spans:
            duration = end - start
            row = totals[name]
            row["calls"] += 1
            row["self_s"] += duration - child_cost.pop(sid, 0.0)
            child_cost[parent] += duration + book
            for key, value in (counts or {}).items():
                if key.startswith("max_"):
                    row[key] = max(row[key], value)
                else:
                    row[key] += value
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, job, start, end, book, counts in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "job": job,
                    "start": start, "end": end, "book": book, "counts": counts,
                }) + "\n")


def leaked_wrappers() -> List[str]:
    """Names of hermsos attributes that still hold a wrapper."""
    leaks = []
    for modname, module in list(sys.modules.items()):
        if modname == "hermsos" or modname.startswith("hermsos."):
            for attr, obj in vars(module).items():
                if getattr(obj, _MARK, False):
                    leaks.append(f"{modname}.{attr}")
    form = sys.modules["hermsos.polyalg"].HermitianForm
    leaks += [f"HermitianForm.{attr}" for attr, obj in vars(form).items() if getattr(obj, _MARK, False)]
    return leaks
