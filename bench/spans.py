"""Spans and counters recorded from the benchmark's side of each layer.

``Tracer.wrap`` replaces a module attribute with a timing wrapper, so every
call that looks the name up through the module (the package's own internal
calls included) records a span.  The original attribute is put back by
``restore``.  A name the module no longer has is recorded as missing and
the run goes on; its metrics then read zero.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        # Each span is [name, start, end, parent index or -1, op id].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self._op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op: int | None = None):
        if op is not None:
            self._op = op
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Record a span ``name`` around every call of ``module.attr``.

        ``after(args, kwargs, result)`` runs once the span is closed, so
        the bookkeeping it does is not charged to the layer.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                # A span of its own, so the caller's self time excludes it.
                with self.span("trace.bookkeeping"):
                    after(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- aggregation --------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def busy_ms(self, name: str) -> float:
        return 1e3 * sum(self.durations(name))

    def self_ms(self, name: str) -> float:
        """Span time minus the time its direct child spans cover."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])
        return 1e3 * sum(
            (s[2] - s[1]) - child_time.get(i, 0.0) for i, s in enumerate(self.spans) if s[0] == name
        )
