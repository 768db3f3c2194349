"""In-memory spans around the package's public functions, installed from outside.

A Tracer replaces a function where its caller looks the name up (a module
attribute, or a method on a class) with a wrapper that records one span per
call: name, start, end, parent span and a few attributes. Self time is a
span's duration minus the durations of its direct children. Everything runs
on one thread, so a stack gives each span its parent.

Counters are updated after a span closes, from the call's arguments and
result, so their cost lands in the parent's self time, never in the layer's.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, attrs]
        self.counters = defaultdict(float)
        self.missing = {}  # wrap point that no longer exists -> metric stems it fed
        self._stack = []
        self._undo = []

    @contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, attrs]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, n=1) -> None:
        self.counters[key] += n

    def maximum(self, key: str, n) -> None:
        self.counters[key] = max(self.counters[key], n)

    def wrap(self, owner, attr: str, name: str, attrs=None, after=None, generator=False, counts=()):
        """Replace owner.attr with a traced wrapper. `attrs(args, kwargs)`
        gives span attributes; `after(result, record)` updates the counters
        whose metric stems are `counts`. A missing attribute is noted with
        the stems it would have fed, and skipped; it is never an error."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing[f"{getattr(owner, '__name__', owner)}.{attr}"] = (name,) + tuple(counts)
            return
        tracer = self

        if generator:
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    with tracer.span(name) as record:
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                    if after is not None:
                        after(item, record)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                with tracer.span(name, **(attrs(args, kwargs) if attrs else {})) as record:
                    result = fn(*args, **kwargs)
                if after is not None:
                    after(result, record)
                return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def self_times(self, start: int = 0) -> dict:
        """Summed self time per (name, sorted attrs) over spans[start:]."""
        child = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans[start:]:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for i, (name, t0, t1, _, attrs) in enumerate(self.spans[start:], start=start):
            key = (name,) + tuple(sorted(attrs.items()))
            out[key] += (t1 - t0) - child[i]
        return out

    def write(self, path) -> None:
        """All spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0 - origin, "end": t1 - origin,
                                     "parent": parent, **attrs}) + "\n")
