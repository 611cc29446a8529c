"""A minimal discrete-event engine.

The large-scale simulator (§9) is event-driven: request arrivals, service
starts, and completions are events ordered by simulated time.  The engine
is a binary heap with a monotonic tiebreaker so same-time events pop in
schedule order, keeping runs deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from typing import Any, NamedTuple

__all__ = ["Event", "EventQueue"]


class Event(NamedTuple):
    """One scheduled event; ordering is (time, sequence number).

    ``seq`` is unique within a queue, so tuple comparison settles on
    the first two fields and never reaches ``kind`` or ``payload``.
    """

    time: float
    seq: int
    kind: str
    payload: Any = None


class EventQueue:
    """A time-ordered event queue with deterministic tie-breaking."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()
        self._now = 0.0

    @property
    def now(self) -> float:
        """Simulated time of the most recently popped event."""
        return self._now

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, kind: str, payload: Any = None) -> Event:
        """Schedule an event; times may not precede the current time."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule an event at {time} before current time "
                f"{self._now}"
            )
        event = Event(time, next(self._counter), kind, payload)
        heapq.heappush(self._heap, event)
        return event

    def pending(self, kind: str | None = None) -> list[Any]:
        """Payloads of not-yet-popped events, in schedule order.

        Optionally filtered to one event kind.  Used by consumers that
        stop early (``run(until=...)``) and must account for work still
        in the heap — e.g. the runtime counting requests that never
        arrived before a serve timeout.
        """
        events = sorted(self._heap)
        return [
            e.payload for e in events if kind is None or e.kind == kind
        ]

    def pop(self) -> Event:
        """Remove and return the earliest event, advancing the clock."""
        if not self._heap:
            raise RuntimeError("pop from an empty event queue")
        event = heapq.heappop(self._heap)
        self._now = event.time
        return event

    def run(
        self, handler: Callable[[Event], None], until: float | None = None
    ) -> int:
        """Dispatch events to ``handler`` until empty (or past ``until``).

        Returns the number of events processed.  Handlers may push new
        events while running.
        """
        processed = 0
        while self._heap:
            if until is not None and self._heap[0].time > until:
                break
            handler(self.pop())
            processed += 1
        return processed
