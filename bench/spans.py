"""In-memory spans for the benchmark's traced runs, and the arithmetic on them.

A span is ``[name, start_ns, end_ns, parent]``, where ``parent`` is the index
of the enclosing span in the same list, or -1. Spans are opened by wrappers
that the benchmark installs around library functions in its own child
process; they stay in memory and are written out once the run has ended.

This module knows nothing about radlearn, so its rules are tested on their
own: self time is a span's duration minus the part of it that its children
cover, and a tail is reported at the highest percentile that still has at
least ``TAIL_MIN_BEYOND`` calls beyond it.
"""

from __future__ import annotations

import functools
import statistics
import time

TAIL_MIN_BEYOND = 10
# (label, d): the percentile leaves 1/d of the calls beyond it; highest first
_TAIL_LADDER = (("p99.99", 10000), ("p99.9", 1000), ("p99", 100), ("p90", 10),
                ("p50", 2))


class Tracer:
    """Nestable spans on ``time.perf_counter_ns`` plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(k)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        record = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(record)

    def wrap(self, fn, name: str, counter=None):
        """A function that runs ``fn`` in a span called ``name``.

        ``counter(tracer, args, kwargs, result)`` runs after the span has
        closed, inside a span of its own, so the time spent counting is
        charged to neither the wrapped call nor its caller's self time.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                self.call("bench.counters", counter, self, args, kwargs, result)
            return result

        return wrapper


def covered_ns(intervals) -> int:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times_ns(spans) -> list[int]:
    """Per span: its duration minus the part its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        clipped = [(max(start, spans[c][1]), min(end, spans[c][2])) for c in children[i]]
        out.append(end - start - covered_ns(clipped))
    return out


def tail_percentile(n_calls: int):
    """(label, d) of the highest ladder percentile that leaves at least
    ``TAIL_MIN_BEYOND`` of ``n_calls`` beyond it, or None below 20 calls."""
    for label, d in _TAIL_LADDER:
        if n_calls >= TAIL_MIN_BEYOND * d:
            return label, d
    return None


def tail_value(durations):
    """(label, value) of the tail: the nearest-rank value at the chosen
    percentile, or ("max", max) when fewer than 20 calls were made."""
    if not durations:
        return "none", 0
    ordered = sorted(durations)
    chosen = tail_percentile(len(ordered))
    if chosen is None:
        return "max", ordered[-1]
    label, d = chosen
    n = len(ordered)
    rank = n - n // d  # 1-based nearest rank; n // d calls lie beyond it
    return label, ordered[rank - 1]


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, total and self nanoseconds, per-call durations."""
    self_ns = self_times_ns(spans)
    out: dict[str, dict] = {}
    for (name, start, end, _), own in zip(spans, self_ns):
        entry = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0,
                                      "durations_ns": []})
        entry["calls"] += 1
        entry["total_ns"] += end - start
        entry["self_ns"] += own
        entry["durations_ns"].append(end - start)
    return out


def per_call_stats(durations_ns) -> dict:
    """Median and tail of per-call durations, in milliseconds."""
    label, tail = tail_value(durations_ns)
    return {
        "median_ms": statistics.median(durations_ns) / 1e6 if durations_ns else 0.0,
        "tail_ms": tail / 1e6,
        "tail_label": label,
    }
