"""In-memory spans recorded around calls into the vaporplate layers.

A span has a name of the form ``<layer>.<call>``, a start and end time, the
span that was open when it started (its parent) and a request id shared by
every span of one benchmark operation.  Spans stay in memory until the run
ends; ``write`` stores them as JSON lines and ``self_time_ms`` gives each
layer's time minus the part covered by its child spans, over the requests
it is asked for.
"""

from __future__ import annotations

import json
import time


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: list):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        self.tracer._stack.append(self.record[0])
        self.record[4] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.record[5] = time.perf_counter_ns()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Records spans when enabled; a disabled tracer costs one call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []     # [id, parent, name, request, t0, t1]
        self._stack: list[int] = []

    def span(self, name: str, request: str | None = None):
        if not self.enabled:
            return _NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = self.spans[parent][3]
        record = [len(self.spans), parent, name, request, 0, 0]
        self.spans.append(record)
        return _Span(self, record)

    def add(self, name: str, request: str, t0_ns: int, t1_ns: int) -> None:
        """Record a finished span measured elsewhere (e.g. a child process)."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            self.spans.append([len(self.spans), parent, name, request,
                               t0_ns, t1_ns])

    def self_time_ms(self, keep) -> dict[str, float]:
        """Per layer: span durations minus the time their children cover,
        over the spans whose request id satisfies `keep`."""
        children: dict[int, list[list]] = {}
        for rec in self.spans:
            if rec[1] is not None:
                children.setdefault(rec[1], []).append(rec)
        out: dict[str, float] = {}
        for rec in self.spans:
            if rec[3] is None or not keep(rec[3]):
                continue
            covered = 0
            end = rec[4]
            for child in sorted(children.get(rec[0], ()), key=lambda c: c[4]):
                lo, hi = max(child[4], end), min(child[5], rec[5])
                if hi > lo:
                    covered += hi - lo
                    end = hi
            layer = rec[2].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (rec[5] - rec[4] - covered) / 1e6
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, request, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "layer": name.split(".", 1)[0], "request": request,
                    "start_us": t0 / 1e3, "end_us": t1 / 1e3}) + "\n")
