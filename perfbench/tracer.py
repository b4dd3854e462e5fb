"""In-memory spans around the program's public functions.

``Tracer.wrap`` replaces a function on the module or class it is looked up
from with a wrapper that records one span per call: name, start, end and
parent.  Spans stay in memory until the run ends.  A wrapped name that
records no call is reported as missing, so a refactor that routes around a
wrapped function shows up by name rather than as a zero.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.wrapped: dict[str, str] = {}  # span name -> where it is wrapped

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))
        self.wrapped[name] = f"{getattr(owner, '__name__', owner)}.{attr}"

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def missing(self) -> list[str]:
        seen = {s.name for s in self.spans}
        return [name for name in self.wrapped if name not in seen]

    def ancestors(self, index: int) -> set[str]:
        names = set()
        parent = self.spans[index].parent
        while parent >= 0:
            names.add(self.spans[parent].name)
            parent = self.spans[parent].parent
        return names

    def self_times(self) -> list[float]:
        """Each span's duration less the time covered by its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.spans
        ]
