"""In-memory span recorder that wraps the package's public functions.

Modules bind names with ``from .x import y``, so one function object can
sit in several module namespaces (``analysis.minimal_polynomial`` and
``operator_algebra.minimal_polynomial``, say).  ``Tracer`` replaces it at
every binding site with one wrapper and puts the originals back on exit.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from collections import defaultdict

import numpy as np

#: functions whose first argument is a square matrix; we add m^3 for its order m
CUBIC_KERNELS = ("eigenvalues", "kernel_dim", "minimal_polynomial", "expm")


class Tracer:
    """Records one span per call: name, start, end, parent, operation, outcome.

    ``op`` is set by the caller before each operation, so the spans of one
    operation share it.  Span ``parent`` is the index of the enclosing span
    or -1.
    """

    def __init__(self, package, layers: tuple[str, ...]):
        self.package = package
        self.layers = layers
        self.spans: list[list] = []
        self.work_m3: dict[str, int] = defaultdict(int)
        self.design_rows = 0
        self.op = -1
        self.names: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _targets(self) -> dict[int, tuple[str, object]]:
        """id(function) -> (span name, function) for every public function of the layers."""
        found = {}
        for layer in self.layers:
            module = getattr(self.package, layer)
            for name in tuple(getattr(module, "__all__", ())) + ("main",):
                fn = getattr(module, name, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    found[id(fn)] = (f"{layer}.{name}", fn)
        return found

    def _wrap(self, span_name: str, fn):
        short = span_name.rsplit(".", 1)[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if short in CUBIC_KERNELS and args:
                self.work_m3[span_name] += int(np.shape(args[0])[0]) ** 3
            elif short == "reconstruct":
                record = args[2] if len(args) > 2 else kwargs["record"]
                self.design_rows += len(record.entries)
            index = len(self.spans)
            span = [span_name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op, True]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = False
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def __enter__(self):
        targets = self._targets()
        self.names = sorted(name for name, _fn in targets.values())
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        modules = [self.package] + [getattr(self.package, layer) for layer in self.layers]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is targets[id(value)][1]:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, failed calls, total inclusive and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _ok in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _parent, _op, ok), children in zip(self.spans, child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["failed"] += 0 if ok else 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children
        return dict(out)

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans directly under a ``parent_name`` span."""
        return sum(
            1 for name, _s, _e, parent, _op, _ok in self.spans
            if name == child_name and parent >= 0 and self.spans[parent][0] == parent_name
        )

    def write(self, path) -> None:
        """Write every span as one JSON line (gzip)."""
        fields = ("name", "start", "end", "parent", "op", "ok")
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")
