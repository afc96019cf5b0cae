"""In-memory span tracer used by the traced benchmark run.

The tracer wraps functions by rebinding the attributes their callers look
up, so no code of the package under test changes. Each call becomes one
span (name, start, end, parent); self time is a span's duration minus the
time covered by its child spans. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: defaultdict = defaultdict(int)
        self._stack: list = []  # [name, start, child seconds, span index]
        self._restore: list = []

    def active(self, name: str) -> bool:
        """True when a span called ``name`` encloses the current call."""
        return any(frame[0] == name for frame in self._stack)

    def wrap(self, name, fn, hook=None):
        """Return ``fn`` traced as span ``name``.

        ``hook(tracer, args, kwargs, result)`` runs after the call, outside
        the span, to record counters taken from arguments or results.
        """
        tracer = self

        def traced(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1][3] if tracer._stack else -1
            frame = [name, time.perf_counter(), 0.0, index]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - frame[1]
                tracer.self_s[name] += duration - frame[2]
                if tracer._stack:
                    tracer._stack[-1][2] += duration
                tracer.spans[index] = (name, frame[1], end, parent)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def rebind(self, holders, attr: str, original, name: str, hook=None) -> None:
        """Replace ``original`` by its traced version wherever a holder binds it."""
        traced = self.wrap(name, original, hook)
        for holder in holders:
            if vars(holder).get(attr) is original:
                self._restore.append((holder, attr, original))
                setattr(holder, attr, traced)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        """Write every span as one JSON line, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_us": round((start - origin) * 1e6, 1),
                            "end_us": round((end - origin) * 1e6, 1),
                            "parent": parent,
                        }
                    )
                    + "\n"
                )
