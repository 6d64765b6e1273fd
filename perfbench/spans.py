"""In-memory span tracing for the benchmark.

Spans are recorded by the benchmark's own code around calls into the
program's layers: :meth:`Tracer.patch` replaces a function under the
name its caller binds (a module global such as
``repro.experiments.planner.run_fleet_walk``, or a class attribute such
as ``CSRGraph.count_target_edges``) and :meth:`Tracer.restore` puts the
originals back.  The program's source is never edited.

A span carries a name, start and end (``time.perf_counter`` seconds),
the index of the span that was open when it started (its parent, per
thread and per asyncio task, through a context variable) and a trace id
shared by every span of one query, batch, table or set-up.  Spans stay
in memory until :meth:`Tracer.dump` writes them out at the end.

A layer's *self time* is a span's duration minus the part of it that
its child spans cover (:func:`self_times`); children may overlap each
other, so the covered part is the length of the union of their
intervals, clipped to the parent.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: The tail percentile must leave at least this many samples beyond it.
TAIL_SAMPLES = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    trace_id: int
    index: int
    #: Start of the earliest child span (None while childless).
    first_child_start: Optional[float] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counters; a disabled tracer records nothing.

    ``overhead_s`` accumulates the time the tracer spends in its own
    bookkeeping (opening and closing spans, counting), measured around
    that code, so ``trace.overhead_ratio`` is a measurement rather than
    an estimate.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.overhead_s = 0.0
        self._current: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._trace_ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, new_trace: bool = False):
        if not self.enabled:
            yield None
            return
        entered = time.perf_counter()
        parent = self._current.get()
        with self._lock:
            trace_id = (
                next(self._trace_ids)
                if new_trace or parent is None
                else parent.trace_id
            )
            span = Span(
                name, 0.0, 0.0,
                parent.index if parent is not None else None,
                trace_id, len(self.spans),
            )
            self.spans.append(span)
        token = self._current.set(span)
        span.start = time.perf_counter()
        if parent is not None and parent.first_child_start is None:
            parent.first_child_start = span.start
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._current.reset(token)
            self._charge(entered, span.start, span.end)

    def _charge(self, entered: float, started: float, ended: float) -> None:
        with self._lock:
            self.overhead_s += (started - entered) + (time.perf_counter() - ended)

    def count(self, name: str, value: float = 1.0) -> None:
        if not self.enabled:
            return
        entered = time.perf_counter()
        with self._lock:
            self.counts[name] += value
            self.overhead_s += time.perf_counter() - entered

    def sample(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        entered = time.perf_counter()
        with self._lock:
            self.samples[name].append(value)
            self.overhead_s += time.perf_counter() - entered

    # -- wrapping ------------------------------------------------------
    def patch(self, owner: object, attr: str, replacement: Callable) -> Callable:
        """Bind *replacement* as ``owner.attr``; returns the original."""
        original = getattr(owner, attr)
        functools.update_wrapper(replacement, original)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))
        return original

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Record a span named *name* around every call of ``owner.attr``."""
        original = getattr(owner, attr)
        tracer = self
        if inspect.iscoroutinefunction(original):

            async def traced(*args, **kwargs):
                with tracer.span(name):
                    return await original(*args, **kwargs)

        else:

            def traced(*args, **kwargs):
                with tracer.span(name):
                    return original(*args, **kwargs)

        self.patch(owner, attr, traced)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------
    def by_name(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def dump(self, path: Path) -> None:
        """Write every span and counter as JSON (one file, at the end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "start", "end", "parent", "trace_id"],
            "spans": [
                [s.name, s.start, s.end, s.parent, s.trace_id] for s in self.spans
            ],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(payload))


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if min(end, hi) > max(start, lo)
    )
    total = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for start, end in clipped:
        if run_start is None or start > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_start is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span, keyed by span index."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.index: span.duration
        - covered_length(children.get(span.index, ()), span.start, span.end)
        for span in spans
    }


def tail_percentile(count: int, cap: float = 99.0) -> Optional[float]:
    """Highest percentile (≤ *cap*) with at least ten samples beyond it.

    With *count* samples, ``count · (1 − p/100)`` of them lie beyond the
    p-th percentile; ``None`` when no percentile leaves ten.
    """
    if count <= TAIL_SAMPLES:
        return None
    # Rounded down, so float error can never leave fewer than ten beyond.
    highest = math.floor(100.0 * (1.0 - TAIL_SAMPLES / count) * 1e9) / 1e9
    return min(cap, highest)


def percentile(values: Sequence[float], p: float) -> float:
    """The p-th percentile by linear interpolation (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def windowed_percentile(
    values: Sequence[float], times: Sequence[float], width: float, p: float
) -> float:
    """Median over *width*-long windows of *times* of each window's p-th percentile."""
    windows: Dict[int, List[float]] = defaultdict(list)
    for value, at in zip(values, times):
        windows[int(at // width)].append(value)
    return median([percentile(window, p) for window in windows.values()])


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)
