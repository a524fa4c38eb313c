"""In-memory spans and counters for the traced benchmark run.

A span is ``[name, start, end, parent, phase]``; ``parent`` is the index of
the enclosing span or -1.  Spans stay in memory and are written out once,
when the run ends.  A span's self time is its duration minus the time its
direct children cover; the run is single-threaded, so children never overlap.

Probes are installed by rebinding a function where the program looks it up
(``tracer.patch(module, "name", make_wrapper)``) and are removed again by
``tracer.unpatch_all()``, so the untraced rounds run the program unchanged.
"""

from __future__ import annotations

import contextlib
import statistics
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.phase = "setup"
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.samples: dict[tuple[str, str], list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.phase])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def span(self, name: str):
        """Context manager around one span; a no-op when tracing is off."""
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def timed(self, name: str, fn):
        """``fn`` wrapped in a span called ``name``."""

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    # -- counters ------------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        self.counts[(self.phase, name)] += n

    def keep_max(self, name: str, value: float) -> None:
        key = (self.phase, name)
        self.counts[key] = max(self.counts[key], value)

    def sample(self, name: str, value: float) -> None:
        self.samples[(self.phase, name)].append(value)

    # -- probes --------------------------------------------------------------

    def patch(self, owner, attr: str, make_wrapper) -> None:
        """Rebind ``owner.attr`` to ``make_wrapper(original)`` until unpatch_all."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------------

    def self_times(self, phase: str) -> dict[str, float]:
        """Self time summed by span name over the spans opened in ``phase``."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, ph) in enumerate(self.spans):
            if ph == phase:
                totals[name] += (end - start) - child[i]
        return dict(totals)

    def counters(self, phase: str) -> dict[str, float]:
        return {name: v for (ph, name), v in self.counts.items() if ph == phase}

    def medians(self, phase: str) -> dict[str, float]:
        return {
            name: statistics.median(v) for (ph, name), v in self.samples.items() if ph == phase and v
        }

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "phase": ph}
                for n, s, e, p, ph in self.spans
            ],
            "counts": [{"phase": ph, "name": n, "value": v} for (ph, n), v in self.counts.items()],
        }
