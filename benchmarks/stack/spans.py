"""Span recorder for the traced pass: wrap public methods, roll up self time.

The benchmark measures the layers from outside.  A :class:`SpanRecorder`
replaces public methods (on the classes of the objects the benchmark
itself built) with timing wrappers, keeps every span in memory, and puts
the originals back on :meth:`SpanRecorder.restore`.  Nothing under
``src/`` knows it is being traced.

Self time follows the choosing-metrics guide: a span's duration minus
the part of that interval its child spans cover.  Spans opened on
another thread (``Fabric(concurrency="threads")`` serves shards in a
thread pool) are children of the span the main thread is blocked in.
Such siblings overlap in time, so their subtrees are scaled by
``covered / sum of durations``: the scaled self times of the whole tree
then sum to the root span's wall exactly, so the self times of the
layers alone fall short of it by what no layer span covers.
"""

from __future__ import annotations

import functools
import threading
import time

__all__ = ["SpanRecorder", "Span", "NO_TRACE", "rollup", "chrome_trace"]

_MISSING = object()


class Span:
    """One timed call: name, start, end, the span that caused it."""

    __slots__ = ("name", "tid", "round", "start", "end", "parent")

    def __init__(self, name, tid, round_id, parent):
        self.name = name
        self.tid = tid
        self.round = round_id
        self.start = 0.0
        self.end = 0.0
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records spans around wrapped callables; restores them afterwards."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        #: Round id stamped on every span opened from now on.
        self.round = -1
        self._main = threading.get_ident()
        self._stacks: dict[int, list[Span]] = {self._main: []}
        self._spans: dict[int, list[Span]] = {self._main: []}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _open(self, name: str) -> Span:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
            self._spans[tid] = []
        if stack:
            parent = stack[-1]
        elif tid != self._main and self._stacks[self._main]:
            # A pool thread's first span: caused by whatever the main
            # thread is blocked in (it waits on the pool's futures).
            parent = self._stacks[self._main][-1]
        else:
            parent = None
        span = Span(name, tid, self.round, parent)
        stack.append(span)
        self._spans[tid].append(span)
        # The clock starts last and stops first, so the recorder's own
        # work lands in the parent's self time, not in this span.
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stacks[span.tid].pop()

    def call(self, name: str, func, *args, **kwargs):
        """Run ``func`` inside a span (for module-level functions the
        benchmark calls itself)."""
        span = self._open(name)
        try:
            return func(*args, **kwargs)
        finally:
            self._close(span)

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` and remember how to undo it."""
        self._patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a public method of a class or an
        instance, or a module-level function) with a span-recording
        wrapper."""
        func = getattr(owner, attr)
        open_span, close_span = self._open, self._close

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = open_span(name)
            try:
                return func(*args, **kwargs)
            finally:
                close_span(span)

        self.patch(owner, attr, traced)

    def restore(self) -> None:
        """Put every wrapped callable back."""
        while self._patched:
            owner, attr, own = self._patched.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    @property
    def spans(self) -> list[Span]:
        """Every recorded span, main thread first."""
        merged: list[Span] = []
        for tid in sorted(self._spans, key=lambda t: t != self._main):
            merged.extend(self._spans[tid])
        return merged


class _NoTrace:
    """The untraced pass's stand-in: calls go straight through."""

    round = -1

    def call(self, name: str, func, *args, **kwargs):
        return func(*args, **kwargs)


NO_TRACE = _NoTrace()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def rollup(
    spans: list[Span], root: str | None = None
) -> dict[str, dict[str, float]]:
    """Per-name ``{"self_s", "total_s", "calls"}`` over span trees.

    ``self_s`` is wall-attributed (scaled, see the module docstring);
    ``total_s`` is the summed raw duration of the name's outermost
    spans (a span nested in a same-named one is not counted twice).
    With ``root`` only the trees under root spans of that name count,
    and the ``self_s`` column then sums to those roots' wall.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    table: dict[str, dict[str, float]] = {}

    def visit(span: Span, scale: float, inside: frozenset) -> None:
        kids = children.get(id(span), ())
        covered = _covered([
            (max(k.start, span.start), min(k.end, span.end)) for k in kids
        ])
        row = table.get(span.name)
        if row is None:
            row = table[span.name] = {
                "self_s": 0.0, "total_s": 0.0, "calls": 0
            }
        row["self_s"] += max(span.duration - covered, 0.0) * scale
        row["calls"] += 1
        if span.name not in inside:
            row["total_s"] += span.duration
            inside = inside | {span.name}
        foreign = [k for k in kids if k.tid != span.tid]
        foreign_scale = scale
        if foreign:
            summed = sum(k.duration for k in foreign)
            if summed > 0:
                foreign_scale = scale * _covered(
                    [(k.start, k.end) for k in foreign]
                ) / summed
        for kid in kids:
            visit(
                kid,
                foreign_scale if kid.tid != span.tid else scale,
                inside,
            )

    for span in spans:
        if span.parent is None and root in (None, span.name):
            visit(span, 1.0, frozenset())
    return table


def chrome_trace(recorder: SpanRecorder, pid: int = 1) -> list[dict]:
    """Chrome trace-event list (opens in Perfetto / chrome://tracing).

    One process per workload, one track per thread; complete events
    (``ph: "X"``) in microseconds from the recorder's earliest span.
    """
    spans = recorder.spans
    origin = min((s.start for s in spans), default=0.0)
    events = [{
        "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
        "args": {"name": recorder.workload},
    }]
    tids: dict[int, int] = {}
    for span in spans:
        events.append({
            "ph": "X",
            "pid": pid,
            "tid": tids.setdefault(span.tid, len(tids)),
            "name": span.name,
            "cat": span.name.split(".")[0],
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "args": {
                "workload": recorder.workload,
                "round": span.round,
                "parent": span.parent.name if span.parent else None,
            },
        })
    return events
