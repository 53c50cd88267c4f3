"""In-memory spans around calls into the library's layers.

A span is recorded by the benchmark around one call into a layer's public
function: name, layer (the xtrees module the function lives in), start, end,
the enclosing span and the id of the workload item it belongs to. Spans stay
in memory until the run ends. With tracing off the same call sites run the
library function directly and record nothing.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

_NULL = contextlib.nullcontext()


class Tracer:
    """Records spans and counts when enabled; a pass-through when not."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, layer, start, end, parent, item]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._item = None
        self._next_item = 0

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named ``name`` of ``layer``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self._span(layer, name):
            return fn(*args, **kwargs)

    def item(self, kind: str):
        """Context for one workload item: a root span that owns a new item id."""
        if not self.enabled:
            return _NULL
        return self._item_span(kind)

    def add(self, key: str, amount=1) -> None:
        if self.enabled:
            self.counts[key] += amount

    @contextlib.contextmanager
    def _item_span(self, kind: str):
        outer = self._item
        self._item = self._next_item
        self._next_item += 1
        try:
            with self._span("bench", kind):
                yield
        finally:
            self._item = outer

    @contextlib.contextmanager
    def _span(self, layer: str, name: str):
        rec = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else None, self._item]
        sid = len(self.spans)
        self.spans.append(rec)
        self._stack.append(sid)
        rec[2] = time.perf_counter()
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    # -- summaries ----------------------------------------------------------

    def busy(self, layer: str, names=None) -> tuple[int, float]:
        """(span count, summed inclusive seconds) of a layer, optionally by name."""
        calls, total = 0, 0.0
        for name, lay, start, end, _, _ in self.spans:
            if lay == layer and (names is None or name in names):
                calls += 1
                total += end - start
        return calls, total

    def self_time(self) -> dict[str, float]:
        """Seconds per layer not covered by that span's child spans."""
        child = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, (_, layer, start, end, _, _) in enumerate(self.spans):
            out[layer] += (end - start) - child[sid]
        return dict(out)

    def dump(self) -> list[dict]:
        return [
            {"name": n, "layer": lay, "start": s, "end": e, "parent": p, "item": i}
            for n, lay, s, e, p, i in self.spans
        ]
