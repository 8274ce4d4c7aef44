"""In-memory span recorder for the benchmark's traced runs.

Spans are taken only around the benchmark's own calls into public
`taanseg` functions; the library itself is not instrumented. Each span
has a name (`<module>.<function>`, the module being the layer), start
and end on the perf_counter clock, the id of the span that caused it,
and the counts recorded while it was the innermost open span.
"""

import json
import time
import tracemalloc
from contextlib import contextmanager


class Tracer:
    """Records spans when enabled; otherwise every call is a plain call."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, peak_mem=False):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1]["id"] if self._open else None,
               "start": 0.0, "end": 0.0, "counts": {}}
        self.spans.append(rec)
        self._open.append(rec)
        if peak_mem:
            tracemalloc.start()
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            if peak_mem:
                rec["counts"]["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            self._open.pop()

    def call(self, name, fn, *args, peak_mem=False, **kwargs):
        with self.span(name, peak_mem):
            return fn(*args, **kwargs)

    def count(self, name, value):
        """Add `value` to a count on the innermost open span."""
        if self.enabled:
            counts = self._open[-1]["counts"]
            counts[name] = counts.get(name, 0) + value

    def duration(self, rec):
        return rec["end"] - rec["start"]

    def self_time(self, rec):
        """Span duration minus the time its direct children cover."""
        children = sum(self.duration(s) for s in self.spans
                       if s["parent"] == rec["id"])
        return self.duration(rec) - children

    def roots(self, name):
        return [s for s in self.spans if s["parent"] is None and s["name"] == name]

    def under(self, root):
        """Every span below `root`."""
        ids = {root["id"]}
        out = []
        for s in self.spans:  # parents precede children
            if s["parent"] in ids:
                ids.add(s["id"])
                out.append(s)
        return out

    def write(self, path, info):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"info": info, "spans": self.spans}, fh, indent=1)
            fh.write("\n")


NULL = Tracer(enabled=False)
