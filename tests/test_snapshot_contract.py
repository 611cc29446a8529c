"""The control plane's small read-only types, as their users see them.

The event heap's ``Event``, the admission queue's ``QueueEntry`` and the
snapshots a scheduler or router reads (``ModelQueueView``,
``CoreHealthView``, ``ShardView``) are built on every request.  This
pins what callers rely on: field names and order, defaults,
properties, immutability, and an event order that never compares
payloads.
"""

from __future__ import annotations

import inspect

import pytest

from repro.fabric import ShardView
from repro.runtime import CoreHealthView, ModelQueueView, QueueEntry
from repro.sim import Event, EventQueue

_EMPTY = inspect.Parameter.empty

#: type -> ((field, default or _EMPTY), ...) in constructor order.
CONTRACT = {
    Event: (
        ("time", _EMPTY), ("seq", _EMPTY), ("kind", _EMPTY),
        ("payload", None),
    ),
    QueueEntry: (("item", _EMPTY), ("enqueued_s", _EMPTY)),
    ModelQueueView: (
        ("model_id", _EMPTY), ("depth", _EMPTY),
        ("head_enqueued_s", _EMPTY),
    ),
    CoreHealthView: (
        ("core", _EMPTY), ("state", "healthy"), ("error_rms", 0.0),
        ("busy_until_s", 0.0),
    ),
    ShardView: (
        ("shard", _EMPTY), ("num_cores", _EMPTY),
        ("macs_per_step", _EMPTY), ("routed", _EMPTY), ("queued", 0),
        ("queue_capacity", 0), ("usable_cores", None),
    ),
}

EXAMPLES = [
    Event(1.0, 0, "arrival", {"id": 1}),
    QueueEntry(object(), 2.5),
    ModelQueueView(3, 4, 0.5),
    CoreHealthView(1),
    ShardView(0, 2, 4, 3),
]


@pytest.mark.parametrize("cls", list(CONTRACT), ids=lambda c: c.__name__)
def test_fields_and_defaults_in_order(cls):
    params = inspect.signature(cls).parameters.values()
    assert tuple((p.name, p.default) for p in params) == CONTRACT[cls]


@pytest.mark.parametrize(
    "snapshot", EXAMPLES, ids=lambda s: type(s).__name__
)
def test_fields_cannot_be_assigned(snapshot):
    for name, _ in CONTRACT[type(snapshot)]:
        with pytest.raises(AttributeError):
            setattr(snapshot, name, 0)


def test_positional_and_keyword_builds_agree():
    assert ShardView(1, 2, 4, 5, 6, 7, 8) == ShardView(
        shard=1, num_cores=2, macs_per_step=4, routed=5, queued=6,
        queue_capacity=7, usable_cores=8,
    )
    assert CoreHealthView(2, "stalled", 1.5, 3.0) == CoreHealthView(
        core=2, state="stalled", error_rms=1.5, busy_until_s=3.0
    )


class TestProperties:
    def test_shard_view(self):
        view = ShardView(0, num_cores=2, macs_per_step=4, routed=6)
        assert view.capacity == 8
        assert view.normalized_load == 0.75
        assert view.queue_occupancy == 0.0
        assert view.alive
        loaded = ShardView(0, 2, 4, 6, queued=3, queue_capacity=12)
        assert loaded.queue_occupancy == 0.25
        assert ShardView(0, 2, 4, 6, usable_cores=1).alive
        assert not ShardView(0, 2, 4, 6, usable_cores=0).alive

    def test_core_health_view(self):
        assert CoreHealthView(0).usable
        for state in ("stalled", "quarantined", "crashed"):
            assert not CoreHealthView(0, state).usable


class TestEventOrder:
    PAYLOADS = [{"a": 1}, object(), None, {"b": 2}, object()]

    def test_same_time_events_pop_in_push_order(self):
        queue = EventQueue()
        for payload in self.PAYLOADS:
            queue.push(1.0, "arrival", payload)
        queue.push(0.5, "fault", {"early": True})
        popped = [queue.pop() for _ in range(len(queue))]
        assert [e.kind for e in popped] == ["fault"] + ["arrival"] * 5
        assert [e.payload for e in popped[1:]] == self.PAYLOADS
        assert [e.seq for e in popped[1:]] == sorted(
            e.seq for e in popped[1:]
        )

    def test_pending_sorts_without_comparing_payloads(self):
        queue = EventQueue()
        for payload in self.PAYLOADS:
            queue.push(2.0, "arrival", payload)
        queue.push(1.0, "probe", {"first": True})
        assert queue.pending() == [{"first": True}, *self.PAYLOADS]
        assert queue.pending("arrival") == self.PAYLOADS
