"""Span recorder for the traced benchmark run.

The recorder wraps public ctwin functions at run time; ctwin itself is
not edited. Modules inside ctwin import each other's functions by name
(``from .elimination import minfill_order``), so a wrapper is bound in
every ``ctwin.*`` namespace that holds the original function object, or
the calls made through those names would go unseen.

Spans are kept in flat arrays (name id, start, end, parent) so a traced
run of a few hundred thousand kernel calls stays within a few tens of MB,
and are turned into per-name self times only when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One public function to wrap: ``module.func`` recorded as ``span``.

    ``on_return(args, result, tracer)`` may add counters that belong to
    the call (for example, the entries of the factor it returned)."""

    module: str
    func: str
    span: str
    on_return: Callable | None = None


class Tracer:
    """Spans and counters of one thread, held in memory until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_of = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}

    def _id(self, name: str) -> int:
        i = self._name_id.get(name)
        if i is None:
            i = self._name_id[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_of.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(-1)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def peak(self, name: str, value: float) -> None:
        if value > self.counts.get(name, 0):
            self.counts[name] = value

    def wrap(self, fn: Callable, target: Target) -> Callable:
        open_, close = self.open, self.close
        span, hook = target.span, target.on_return

        def traced(*args, **kwargs):
            idx = open_(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                hook(args, result, self)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """Every span as JSON columns: span i is ``names[name[i]]``, runs
        from ``start_ns[i]`` to ``end_ns[i]`` and has parent span
        ``parent[i]`` (-1 for none). Written a column at a time, so a large
        run needs no per-span objects."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"names": ' + json.dumps(self.names))
            for key, column in (("name", self.name_of), ("start_ns", self.start),
                                ("end_ns", self.end), ("parent", self.parent)):
                fh.write(f', "{key}": ' + json.dumps(column.tolist()))
            fh.write("}\n")

    def self_ns_per_span(self) -> list[int]:
        return span_self_ns(self.start, self.end, self.parent)

    def self_ns(self) -> dict[str, int]:
        """Total self time per span name."""
        out = {name: 0 for name in self.names}
        for i, ns in enumerate(self.self_ns_per_span()):
            out[self.names[self.name_of[i]]] += ns
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for i in self.name_of:
            name = self.names[i]
            out[name] = out.get(name, 0) + 1
        return out


def span_self_ns(start, end, parent) -> list[int]:
    """Each span's duration minus the part of it its child spans cover.

    Spans come from one thread, so siblings never overlap and the covered
    part is the sum of the children's durations, each clipped to the
    parent's interval."""
    covered = [0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += max(0, min(end[i], end[p]) - max(start[i], start[p]))
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


class Patch:
    """Wrappers for ``targets`` bound in every ``ctwin.*`` namespace that
    holds the original function, while the ``with`` block runs. The
    namespaces are searched once, so entering and leaving is cheap."""

    def __init__(self, tracer: Tracer, targets: list[Target]):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "ctwin" or name.startswith("ctwin."))]
        self.sites: list[tuple[object, str, object, object]] = []
        for t in targets:
            original = getattr(sys.modules[t.module], t.func)
            wrapper = tracer.wrap(original, t)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is original:
                        self.sites.append((mod, attr, original, wrapper))

    def __enter__(self):
        for mod, attr, _, wrapper in self.sites:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original, _ in self.sites:
            setattr(mod, attr, original)
