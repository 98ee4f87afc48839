"""Span tracer that wraps functions of the ddpp modules from outside.

``installed(patches)`` replaces module and class attributes with wrappers
that time every call, and restores the originals on exit; the program
itself is not changed.  Every span feeds a running aggregate per name:
calls, total time and self time, where self time is the span's duration
minus the durations of its direct children.  Calls nest on one thread, so
children never overlap and self time is never negative.

The first ``KEEP`` spans are also kept whole as ``(name, start, end,
parent index, op id)`` and written out by ``write``.  A solve generates
hundreds of thousands of spans, so keeping all of them would cost more
memory than the run being measured.  The op id is the number of
``OP_SPAN`` spans that had ended when a span started: every op of every
workload is one ``PairSearch.run``, so all spans of one op share an id.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

KEEP = 50_000
OP_SPAN = "search.run"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.totals: dict[str, list] = {}
        self.tallies: dict[str, list[int]] = {}
        self.op = 0
        self._stack: list[list] = []

    def reset(self) -> None:
        """Forget the spans and aggregates recorded so far."""
        self.spans.clear()
        for entry in self.totals.values():
            entry[:] = [0, 0.0, 0.0]
        for entry in self.tallies.values():
            entry[:] = [0] * len(entry)

    def wrap(self, name: str, fn, tally=None):
        """Wrap fn in a span; tally(result) returns counts summed per name."""
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        ends_op = name == OP_SPAN

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans) if len(spans) < KEEP else -1
            if index >= 0:
                spans.append(None)
            frame = [index, 0.0]
            op = self.op
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if index >= 0:
                    spans[index] = (name, start, end, parent, op)
                if ends_op:
                    self.op += 1
            if tally is not None:
                counts = tally(result)
                summed = self.tallies.setdefault(name, [0] * len(counts))
                for position, count in enumerate(counts):
                    summed[position] += count
            return result

        return traced

    @contextmanager
    def installed(self, patches):
        """Patch (owner, attribute, span name, tally) entries for the block."""
        saved = []
        try:
            for owner, attribute, name, tally in patches:
                original = vars(owner)[attribute]
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self.wrap(name, original, tally))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def total(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def write(self, path) -> None:
        """One JSON array per kept span: name, start, end, parent, op id."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(span) + "\n")
