"""Per-layer tracing for the benchmark, done from outside the program.

:func:`install` wraps the public functions of each ``legsum`` layer module
(plus the few methods named in :data:`METHODS`) and rebinds every module
attribute that refers to one of them, so a call through ``legsum.cli``,
``legsum.simplicity`` or the ``legsum`` namespace is seen as well as one
through the defining module.  :func:`uninstall` restores the originals.

A :class:`Tracer` keeps a span stack.  Each span's self time is its duration
minus the durations of its direct children; since the stack is strictly
nested, the self times of all spans under one root add up to the root's
duration.  Totals per span name are kept for every call; individual spans
are kept in memory for the shallow part of each op's tree and written out
at the end by :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("cli", "documents", "sums", "ranges", "poset", "simplicity", "paths", "render")

# (module, class, method) wrapped besides the module-level public functions.
METHODS = (
    ("ranges", "MountainRange", "point"),
    ("ranges", "MountainRange", "contains"),
    ("poset", "QuotientPoset", "__init__"),
)

# Spans up to this depth below an op's root are kept individually.
KEEP_DEPTH = 4


def _count_len(key):
    def observe(tracer, result):
        tracer.count(key, len(result))

    return observe


def _observe_quotient(tracer, poset):
    tracer.count("poset.nodes", len(poset))
    tracer.count("poset.edges", len(poset.edges))
    tracer.count("sums.classes", len(poset))


def _observe_path(tracer, word):
    tracer.count("paths.found", word is not None)


def _observe_json(tracer, text):
    tracer.count("documents.json_bytes", len(text.encode("utf-8")))


# Counters taken from results, by span name.
OBSERVERS = {
    "sums.relation_neighbors": _count_len("sums.neighbors"),
    "sums.build_quotient": _observe_quotient,
    "sums.enumerate_fiber": _count_len("sums.classes"),
    "paths.find_connecting_path": _observe_path,
    "documents.dump_json": _observe_json,
    "render.render": _count_len("render.figure_bytes"),
}


class Tracer:
    """Span stack plus per-name totals: ``stats[name] = [calls, inclusive_s, self_s]``.

    Inclusive time counts only the outermost of nested calls of one name,
    so recursion is not counted twice.
    """

    def __init__(self):
        self.active = False
        self.stack: list[list] = []  # [name, start, child_s, span id]
        self.open: dict[str, int] = {}
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []  # (op, id, parent id, name, start, end)
        self.op = 0
        self.next_id = 0

    def _stat(self, name: str) -> list:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
            self.open[name] = 0
        return st

    def call(self, name: str) -> None:
        """Count one call of ``name`` without opening a span."""
        self._stat(name)[0] += 1

    def push(self, name: str, count: bool = True) -> None:
        st = self._stat(name)
        if count:
            st[0] += 1
        self.open[name] += 1
        self.next_id += 1
        self.stack.append([name, perf_counter(), 0.0, self.next_id])

    def pop(self) -> float:
        end = perf_counter()
        name, start, child, span_id = self.stack.pop()
        dur = end - start
        st = self.stats[name]
        st[2] += dur - child
        self.open[name] -= 1
        if not self.open[name]:
            st[1] += dur
        parent = None
        if self.stack:
            self.stack[-1][2] += dur
            parent = self.stack[-1][3]
        if len(self.stack) < KEEP_DEPTH:
            self.spans.append((self.op, span_id, parent, name, start, end))
        return dur

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (_calls, _incl, own) in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own
        return out

    def write(self, path) -> None:
        """Write the kept spans as JSON lines, in the order they ended."""
        with open(path, "w", encoding="utf-8") as fh:
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "op": op, "id": span_id, "parent": parent, "name": name, "start": start, "end": end,
                }))
                fh.write("\n")


def _wrap(tracer: Tracer, name: str, fn):
    observe = OBSERVERS.get(name)
    if inspect.isgeneratorfunction(fn):
        def traced_gen(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.active:
                return gen
            tracer.call(name)
            return _traced_iter(tracer, name, gen)

        return functools.wraps(fn)(traced_gen)

    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.push(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.pop()
        if observe is not None:
            observe(tracer, result)
        return result

    return functools.wraps(fn)(traced)


def _traced_iter(tracer: Tracer, name: str, gen):
    """Time each step of a generator as a span; count what it yields."""
    while True:
        tracer.push(name, count=False)
        try:
            item = next(gen)
        except StopIteration:
            return
        finally:
            tracer.pop()
        tracer.count(name + ".items")
        yield item


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every traced function and rebind each name bound to one.

    Returns the ``(owner, attribute, original)`` list :func:`uninstall` needs.
    """
    modules = {layer: sys.modules[f"legsum.{layer}"] for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == mod.__name__:
                wrappers[obj] = _wrap(tracer, f"{layer}.{attr}", obj)
    patched = []
    owners = [m for n, m in sorted(sys.modules.items()) if n == "legsum" or n.startswith("legsum.")]
    for owner in owners:
        for attr, obj in list(vars(owner).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patched.append((owner, attr, obj))
                setattr(owner, attr, wrappers[obj])
    for layer, cls_name, meth in METHODS:
        cls = getattr(modules[layer], cls_name)
        orig = cls.__dict__[meth]
        patched.append((cls, meth, orig))
        setattr(cls, meth, _wrap(tracer, f"{layer}.{cls_name}.{meth}", orig))
    return patched


def uninstall(patched: list[tuple]) -> None:
    for owner, attr, orig in reversed(patched):
        setattr(owner, attr, orig)
