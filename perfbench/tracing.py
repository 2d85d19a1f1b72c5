"""In-memory spans around calls into polymap's public functions.

A :class:`Tracer` replaces each target function, by identity, in every
``polymap`` module namespace that holds it, so ``from .nnet import
train`` aliases are caught as well as ``nnet.train`` itself.  Each call
records one :class:`Span` (name, start, end, parent span, run id) in
memory; :meth:`Tracer.uninstall` puts the original functions back.

A per-call hook may attach attributes (frame counts, file sizes,
digests).  Hooks run after the span has ended, and the time they take
is charged to no span, so tracing cost shows only as the difference
between a traced and an untraced run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: str
    start: float
    end: float = 0.0
    hidden: float = 0.0  # hook time of child spans, excluded from self time
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent, "run": self.run,
            "start": self.start, "end": self.end, "hidden": self.hidden,
            "attrs": self.attrs,
        }


# (span name, module name, attribute path inside the module, hook or None).
# A dotted attribute path names a method, which is patched on its class.
Target = tuple[str, str, str, Callable[[dict, object], dict] | None]


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self._next_id = 0

    def _new_span(self, name: str, start: float, parent: int | None) -> Span:
        self._next_id += 1
        return Span(self._next_id - 1, name, parent, self.run, start)

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "polymap" or name.startswith("polymap."))
        ]
        for span_name, module_name, attr, hook in self.targets:
            owner = sys.modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(span_name, original, hook)
            holders = [(owner, leaf)] if path else [
                (module, key)
                for module in modules
                for key, value in list(vars(module).items())
                if value is original
            ]
            for holder, key in holders:
                self._patched.append((holder, key, original))
                setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        signature = inspect.signature(fn) if hook is not None else None
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = self._new_span(name, time.perf_counter(), parent.id if parent else None)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if hook is not None:
                span.attrs = hook(signature.bind(*args, **kwargs).arguments, result)
                if parent is not None:
                    parent.hidden += time.perf_counter() - span.end
            return result

        return traced

    def record(self, name: str, start: float, end: float, attrs: dict | None = None) -> Span:
        """Add a span timed by the caller (for work done in another process)."""
        span = self._new_span(name, start, self._stack[-1].id if self._stack else None)
        span.end = end
        span.attrs = attrs or {}
        self.spans.append(span)
        return span

    def adopt(self, raw_spans: list[dict], parent: Span) -> None:
        """Attach spans recorded by a child process under ``parent``."""
        base = self._next_id
        self._next_id += len(raw_spans)
        for raw in raw_spans:
            span = Span(
                base + raw["id"], raw["name"],
                parent.id if raw["parent"] is None else base + raw["parent"],
                self.run, raw["start"], raw["end"], raw["hidden"], raw["attrs"],
            )
            self.spans.append(span)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time covered by its child spans."""
    children: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + span.duration
    return {s.id: s.duration - children.get(s.id, 0.0) - s.hidden for s in spans}
