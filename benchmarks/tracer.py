"""Outside-in span tracer for the ``rankadapt`` package.

:func:`install` wraps every public function of the layer modules, every
public method of the classes they define, and ``numpy.linalg.svd``. Each
wrapper is rebound under every name that refers to the original in any
loaded ``rankadapt`` module (``from .spectral import decompose`` copies
included), so calls made through imports are traced too. Nothing under
``src/`` knows about the tracer; a public function added later is traced
without editing this file.

A span is ``[name, start, end, parent]`` where ``parent`` is the index of
the enclosing span or -1. Spans stay in memory until :meth:`Tracer.dump`.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "rankadapt"
# The layers of the pipeline. ``depthloss`` is left out: no CLI command
# reaches it. ``cli`` is not wrapped; its self time is what the top-level
# spans leave of the traced wall time.
LAYER_MODULES = ("spectral", "eranks", "stm", "adapter", "tensorio", "harness")


class Tracer:
    """Collects one span per wrapped call, with its parent span."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def dump(self, path, **extra) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "names": names,
                       "spans": [[ids[n], s, e, p] for n, s, e, p in self.spans]}, fh)


def load_spans(path) -> tuple[dict, list]:
    """Read a :meth:`Tracer.dump` file: (extra fields, spans with names)."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    names = data.pop("names")
    spans = [(names[n], s, e, p) for n, s, e, p in data.pop("spans")]
    return data, spans


def _public_functions(module):
    for attr, obj in vars(module).items():
        if not attr.startswith("_") and inspect.isfunction(obj) \
                and obj.__module__ == module.__name__:
            yield attr, obj


def install(tracer: Tracer) -> None:
    """Wrap the layer modules' public callables and numpy.linalg.svd."""
    import numpy as np

    originals = {}  # id(original function) -> wrapper

    def add(name, fn):
        wrapper = tracer.wrap(name, fn)
        originals[id(fn)] = wrapper
        return wrapper

    for short in LAYER_MODULES:
        module = importlib.import_module(f"{PACKAGE}.{short}")
        for attr, fn in list(_public_functions(module)):
            add(f"{short}.{attr}", fn)
        for cls_name, cls in list(vars(module).items()):
            if cls_name.startswith("_") or not inspect.isclass(cls) \
                    or cls.__module__ != module.__name__:
                continue
            for attr, fn in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(fn):
                    setattr(cls, attr, add(f"{short}.{cls_name}.{attr}", fn))
    np.linalg.svd = add("numpy.linalg.svd", np.linalg.svd)

    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, obj in list(vars(module).items()):
            wrapper = originals.get(id(obj))
            if wrapper is not None:
                setattr(module, attr, wrapper)


def layer_of(name: str) -> str:
    """``spectral.decompose`` -> ``spectral``; ``numpy.linalg.svd`` -> ``numpy``."""
    return name.split(".", 1)[0]


def aggregate(spans) -> dict:
    """Per span name: calls, total_s (sum of durations), self_s.

    A span's self time is its duration minus the durations of its direct
    children. Spans come from one thread, so children are disjoint and lie
    inside their parent.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, _) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
    return dict(stats)


def top_level_time(spans) -> float:
    return sum(end - start for _, start, end, parent in spans if parent < 0)
