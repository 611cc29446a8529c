"""Bounded per-model admission queues with explicit drop policies.

The §9 simulator buffers overload in host DRAM without bound; a real
deployment cannot.  Each deployed model gets one
:class:`AdmissionQueue` with a hard capacity and a drop policy, so
overload sheds requests loudly (counted, traceable) instead of growing
memory or hanging:

* ``"drop-tail"`` — a full queue rejects the arriving request (classic
  tail drop, the default);
* ``"drop-head"`` — a full queue evicts its oldest request to admit
  the new one (freshest-first serving, useful when stale inference
  answers are worthless).

Queued entries carry their enqueue timestamp, which becomes the
request's t_q (DRAM queuing) component in the serve-time decomposition.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generic, NamedTuple, TypeVar

from ..core.stats import NICCounters
from .schedulers import ModelQueueView

__all__ = ["DROP_POLICIES", "QueueEntry", "AdmissionQueue"]

#: The supported overload policies.
DROP_POLICIES = ("drop-tail", "drop-head")

T = TypeVar("T")


class QueueEntry(NamedTuple):
    """One admitted request plus its admission timestamp."""

    item: Any
    enqueued_s: float


class AdmissionQueue(Generic[T]):
    """A bounded FIFO for one model's pending inference requests."""

    def __init__(
        self,
        model_id: int,
        capacity: int = 64,
        policy: str = "drop-tail",
        counters: NICCounters | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        if policy not in DROP_POLICIES:
            raise ValueError(
                f"unknown drop policy {policy!r}; choose from "
                f"{DROP_POLICIES}"
            )
        self.model_id = model_id
        self.capacity = capacity
        self.policy = policy
        #: Shared frame-level accounting: both overload policies charge
        #: their victim to the same ``counters.dropped`` field.
        self.counters = counters
        self._entries: deque[QueueEntry] = deque()
        self.admitted = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def depth(self) -> int:
        """Current number of queued requests."""
        return len(self._entries)

    @property
    def head_enqueued_s(self) -> float:
        """Admission time of the oldest queued request."""
        if not self._entries:
            raise ValueError("queue is empty")
        return self._entries[0].enqueued_s

    def view(self) -> ModelQueueView:
        """The scheduler-facing snapshot of this queue."""
        return ModelQueueView(
            self.model_id, len(self._entries), self.head_enqueued_s
        )

    def offer(self, item: T, now_s: float) -> T | None:
        """Admit one request, returning the victim dropped to make room.

        Returns ``None`` when the request was admitted without loss;
        under ``drop-tail`` a full queue returns the *offered* request
        (rejected), under ``drop-head`` it returns the evicted oldest
        request (the new one is admitted).
        """
        if len(self._entries) < self.capacity:
            self._entries.append(QueueEntry(item, now_s))
            self.admitted += 1
            return None
        self.dropped += 1
        if self.counters is not None:
            self.counters.dropped += 1
        if self.policy == "drop-tail":
            return item
        victim = self._entries.popleft()
        self._entries.append(QueueEntry(item, now_s))
        self.admitted += 1
        return victim.item

    def peek(self) -> QueueEntry:
        """The oldest queued entry, without removing it."""
        if not self._entries:
            raise ValueError("queue is empty")
        return self._entries[0]

    def pop(self) -> QueueEntry:
        """Remove and return the oldest queued entry."""
        if not self._entries:
            raise ValueError("queue is empty")
        return self._entries.popleft()

    def drain(self) -> deque[QueueEntry]:
        """Remove and return every queued entry, oldest first (the
        cumulative ``admitted`` / ``dropped`` counters stay)."""
        entries, self._entries = self._entries, deque()
        return entries
