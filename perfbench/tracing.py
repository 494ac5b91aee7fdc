"""Span tracing of riccstab from outside the package.

install() replaces every public function of the package's modules, in every
module namespace that binds it, by a wrapper that records a span; it also
wraps riccati.minimize, the SciPy Nelder-Mead entry point, as the span
"riccati.search". Calls that one package function makes to another go
through module globals, so they nest as child spans. restore() puts the
original objects back. Spans stay in memory as plain lists until the
caller reads them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("riccati", "pmatrix", "matcore", "classes", "transforms", "ddesim", "acceptance", "cli")
EXTRA = {("riccati", "minimize"): "riccati.search"}

# span fields, in list order
NAME, START, END, PARENT, ITEM, SIZE, INFO = range(7)


def _size(args) -> int | None:
    """Problem size of a call: pair.n, or the row count of a matrix argument."""
    if not args:
        return None
    first = args[0]
    n = getattr(first, "n", None)
    if isinstance(n, int):
        return n
    shape = getattr(first, "shape", None)
    if shape is not None and len(shape) == 2:
        return int(shape[0])
    return None


def _solve_info(args, out):
    margin = None
    if out.certificate is not None:
        pair = args[0]
        scale = float(np.linalg.norm(pair.a, 2) + np.linalg.norm(pair.b, 2))
        margin = out.certificate.margin / scale if scale > 0.0 else None
    return out.status, int(out.samples_tried), margin


# per-span facts the per-layer metrics read from results, kept instead of the results
INFO_FROM = {
    "riccati.solve_diagonal": _solve_info,
    "riccati.refute_by_sampling": lambda args, out: out[0] is not None,
    "ddesim.simulate": lambda args, out: (len(out.ts) - 1, float(out.tau)),
}


class Tracer:
    """Records spans [name, start, end, parent index, item, size, info].

    item is whatever the harness last assigned to the attribute of the same
    name, typically the key of the corpus input being processed.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.item = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        info_from = INFO_FROM.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.item, _size(args), None]
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if info_from is not None:
                span[INFO] = info_from(args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap the package; raises if already installed."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("riccstab")
        modules = {layer: importlib.import_module(f"riccstab.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for (layer, attr), name in EXTRA.items():
            obj = getattr(modules[layer], attr)
            wrappers.setdefault(id(obj), (obj, self._wrap(name, obj)))
        for namespace in (package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((namespace, attr, obj))
                    setattr(namespace, attr, hit[1])

    def restore(self) -> None:
        for namespace, attr, obj in reversed(self._patched):
            setattr(namespace, attr, obj)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover (they nest,
    one thread, so children never overlap)."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - child[i] for i, span in enumerate(spans)]


def to_records(spans: list[list]) -> list[dict]:
    """Spans as JSON-ready dicts, times relative to the first span."""
    origin = spans[0][START] if spans else 0.0
    return [
        {
            "id": i,
            "name": s[NAME],
            "start": s[START] - origin,
            "end": s[END] - origin,
            "parent": s[PARENT],
            "item": s[ITEM],
        }
        for i, s in enumerate(spans)
    ]
