"""Span recorder for the traced run.

The tracer replaces the names that each calling module looks up, for
example ``reviewfunnel.pipeline.expand_actor``, with a wrapper that records
a span: name, start, end, parent, wall time and process CPU time. Neighbour
queries are too many for one span each, so they are kept as a count and a
total time. Spans stay in memory and are written out when the run ends.
The recorder is not thread-safe; every wrapped call comes from the main
thread.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.phase = "setup"
        self.active = True
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._query_depth = 0

    def count(self, name: str, value: float) -> None:
        self.counters[(self.phase, name)] += value

    def call(self, name: str, fn, *args, count=None, **kwargs):
        """Call ``fn`` inside a span; ``count(result)`` adds to ``name + '.out'``."""
        if not self.active:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = {"name": name, "phase": self.phase, "parent": parent}
        self.spans.append(span)
        self._stack.append(index)
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            span.update(start=start, end=end, wall=end - start,
                        cpu=time.process_time() - cpu0)
            self._stack.pop()
        if count is not None:
            self.count(name + ".out", count(result))
        return result

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Record a span for every call of ``owner.attr``, if it exists."""
        original = getattr(owner, attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, count=count, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_queries(self, cls, attrs) -> None:
        """Count calls into ``cls`` methods, only the outermost when nested."""
        for attr in attrs:
            original = getattr(cls, attr, None)
            if original is None:
                continue

            def wrapper(*args, _original=original, **kwargs):
                if not self.active or self._query_depth:
                    return _original(*args, **kwargs)
                self._query_depth += 1
                start = time.perf_counter()
                try:
                    return _original(*args, **kwargs)
                finally:
                    self.count("simgraph.query_s", time.perf_counter() - start)
                    self.count("simgraph.queries", 1)
                    self._query_depth -= 1

            self._patched.append((cls, attr, original))
            setattr(cls, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def totals(self, reps: dict[str, int]) -> dict[str, dict[str, float]]:
        """Per span name: calls, wall, self and CPU seconds per repetition.

        ``reps`` gives the repetitions of each phase, so a set-up figure is
        per set-up and a run figure is per unit of work.
        """
        child_wall = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_wall[span["parent"]] += span["wall"]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0.0, "wall": 0.0, "self": 0.0, "cpu": 0.0}
        )
        for span, children in zip(self.spans, child_wall):
            share = 1.0 / reps[span["phase"]]
            row = out[span["name"]]
            row["calls"] += share
            row["wall"] += span["wall"] * share
            row["self"] += (span["wall"] - children) * share
            row["cpu"] += span["cpu"] * share
        return dict(out)

    def counter_totals(self, reps: dict[str, int]) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for (phase, name), value in self.counters.items():
            out[name] += value / reps[phase]
        return dict(out)

    def dump(self, path, meta: dict) -> None:
        doc = {"meta": meta, "spans": self.spans,
               "counters": [[p, n, v] for (p, n), v in sorted(self.counters.items())]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")


def self_time_table(totals: dict[str, dict[str, float]]) -> str:
    lines = [f"{'span':34s} {'calls':>8s} {'wall_s':>9s} {'self_s':>9s} {'cpu_s':>9s}"]
    for name, row in sorted(totals.items(), key=lambda kv: -kv[1]["self"]):
        lines.append(
            f"{name:34s} {row['calls']:8.1f} {row['wall']:9.4f} "
            f"{row['self']:9.4f} {row['cpu']:9.4f}"
        )
    return "\n".join(lines)
