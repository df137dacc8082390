"""Span tracer that wraps transposim's public functions from outside the package.

`Tracer.install()` replaces every public function of the layer modules with a
timing wrapper, in every `transposim` namespace that binds it (the package
re-exports most names through `from .x import y`), and in
`acceptance.ALL_CRITERIA`.  `DensityMatrix` and `Operator` get a wrapped
`__init__` rather than a replaced name, so `isinstance` keeps working.  numpy's
eigensolvers and the scipy minimizer that `designs` resolves are wrapped as
counters only, so their time stays in the calling layer's self time.
`uninstall()` puts every original back.

A span's self time is its duration minus the durations of the spans it
encloses.  Statistics are keyed by phase ("setup" or "op") and kept in memory.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = (
    "linalg", "designs", "channels", "twostep", "optics",
    "witness", "estimator", "fileio", "acceptance", "cli",
)
WRAPPED_CLASSES = {"linalg": ("DensityMatrix", "Operator")}


class Tracer:
    def __init__(self):
        self.phase = "op"
        # (phase, name) -> [calls, total_ns, self_ns]
        self.spans = defaultdict(lambda: [0, 0, 0])
        # (phase, name) -> count
        self.counts = defaultdict(int)
        self._stack: list[list[int]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._criteria: list | None = None

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                s = spans[(self.phase, name)]
                s[0] += 1
                s[1] += dur
                s[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(self.phase, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _minimize(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            counts[(self.phase, "designs.minimize")] += 1
            counts[(self.phase, "designs.minimize.nit")] += int(res.nit)
            return res

        return wrapper

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            return
        import numpy

        mods = {layer: importlib.import_module(f"transposim.{layer}") for layer in LAYERS}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "transposim" or n.startswith("transposim.")]
        replace = {}  # id(original) -> wrapper
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    replace[id(obj)] = self._span(f"{layer}.{name}", obj)
            for cls_name in WRAPPED_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                self._set(cls, "__init__", self._span(f"{layer}.{cls_name}", cls.__init__))
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                w = replace.get(id(obj))
                if w is not None and w.__wrapped__ is obj:
                    self._set(ns, name, w)
        criteria = mods["acceptance"].ALL_CRITERIA
        self._criteria = list(criteria)
        criteria[:] = [replace.get(id(fn), fn) for fn in criteria]
        self._set(mods["designs"], "minimize", self._minimize(mods["designs"].minimize))
        for fn in ("eigvalsh", "eigh"):
            self._set(numpy.linalg, fn, self._counter(f"numpy.{fn}", getattr(numpy.linalg, fn)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._criteria is not None:
            sys.modules["transposim.acceptance"].ALL_CRITERIA[:] = self._criteria
            self._criteria = None

    # -- results ----------------------------------------------------------

    def dump(self) -> dict:
        """JSON-ready statistics: {"spans": {phase: {name: [...]}}, "counts": ...}."""
        spans: dict = defaultdict(dict)
        for (phase, name), v in self.spans.items():
            spans[phase][name] = list(v)
        counts: dict = defaultdict(dict)
        for (phase, name), v in self.counts.items():
            counts[phase][name] = v
        return {"spans": dict(spans), "counts": dict(counts)}


def merge(into: dict, part: dict) -> dict:
    """Add one dump() into an accumulated one."""
    for phase, names in part.get("spans", {}).items():
        dst = into.setdefault("spans", {}).setdefault(phase, {})
        for name, v in names.items():
            cur = dst.setdefault(name, [0, 0, 0])
            for i in range(3):
                cur[i] += v[i]
    for phase, names in part.get("counts", {}).items():
        dst = into.setdefault("counts", {}).setdefault(phase, {})
        for name, v in names.items():
            dst[name] = dst.get(name, 0) + v
    return into
