"""Spans recorded from outside the program, around calls into its layers.

A span is (name, start, end, parent, request): `parent` is the index of the
span that was open when this one started, and `request` is the number of
the query (or other request) it served.  Spans are kept in memory and
summarised when the run ends.  A span's self time is its duration minus the
durations of its direct children.

The program itself is not edited: `patched` swaps a module attribute for a
traced wrapper for the duration of a `with` block, at the import site the
caller resolves it through (e.g. `seaweeds.cli.build_meander`).
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.request])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return traced

    def by_name(self) -> dict[str, list[tuple[float, float, int]]]:
        """Span name -> [(inclusive seconds, self seconds, request), ...]."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _, request) in enumerate(self.spans):
            out.setdefault(name, []).append((end - start, end - start - child[i],
                                             request))
        return out


@contextmanager
def patched(tracer: Tracer, targets):
    """Trace each (module, attribute, span name) target inside the block."""
    saved = []
    try:
        for module, attr, name in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
