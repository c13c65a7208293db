"""Spans around the public functions each sceneparse module calls into.

The tracer replaces a function by a timing wrapper in the namespace its
caller looks it up in (``parser.graph_segment``, ``tensor.conv2d`` through
``model``'s ``T``, ...), records one span per call, and puts the original
back on ``uninstall``.  Nothing in the package changes.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    round: int  # which timed round (or -1 for set-up) the span belongs to
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in memory; single-threaded callers only."""

    def __init__(self):
        self.spans: list[Span] = []
        self.round = -1
        self._stack: list[int] = []
        self._points: list[tuple[object, str, str, object]] = []
        self._saved: list[tuple[object, str, object]] = []

    def point(self, owner, attr: str, name: str, attrs_of=None) -> None:
        """Register ``owner.attr`` to be wrapped as span ``name``.  ``attrs_of``
        maps (args, kwargs, result) to a dict of counts stored on the span."""
        self._points.append((owner, attr, name, attrs_of))

    def install(self) -> None:
        for owner, attr, name, attrs_of in self._points:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attrs_of))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, attrs_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.round)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------ summaries

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def attr_sum(self, name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Duration of ``name`` spans minus the time their direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        return sum(s.duration - child[i] for i, s in enumerate(self.spans) if s.name == name)

    def dump(self, path: str) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "round": s.round, **s.attrs}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as f:
            json.dump(rows, f)
