"""Unit tests for the windowed shared-memory ring transport.

The producer and consumer halves of one ring pair are exercised in a
single process (attached to the same segment and semaphores), which
makes every ordering and signalling property directly observable: how
many semaphore posts a window of submissions generated, what order
slots come out in, and what survives a wrap-around.  The cross-process
behaviour rides on exactly the same code paths and is covered by the
``execution="parallel"`` determinism suite in ``test_parallel.py``.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.runtime.rings import (
    MIN_PAYLOAD_BYTES,
    POLL_S,
    RingConsumer,
    RingGeometry,
    RingProducer,
    RingSems,
)

CTX = multiprocessing.get_context("fork")


def make_pair(capacity=8, request_bytes=4096, completion_bytes=2048,
              window=4):
    """An attached producer/consumer pair over one fresh segment."""
    geometry = RingGeometry(
        capacity=capacity,
        request_bytes=request_bytes,
        completion_bytes=completion_bytes,
    )
    sems = RingSems(CTX, capacity)
    producer = RingProducer(geometry, sems, window)
    consumer = RingConsumer(producer.segment_name, geometry, sems)
    return producer, consumer, sems


class TestRingGeometry:
    def test_rejects_empty_ring(self):
        with pytest.raises(ValueError, match="at least one slot"):
            RingGeometry(capacity=0, request_bytes=4096,
                         completion_bytes=4096)

    def test_rejects_undersized_payloads(self):
        with pytest.raises(ValueError, match="request slots"):
            RingGeometry(capacity=4, request_bytes=MIN_PAYLOAD_BYTES - 1,
                         completion_bytes=4096)
        with pytest.raises(ValueError, match="completion slots"):
            RingGeometry(capacity=4, request_bytes=4096,
                         completion_bytes=MIN_PAYLOAD_BYTES - 1)

    def test_strides_are_cache_aligned(self):
        geometry = RingGeometry(capacity=4, request_bytes=2050,
                                completion_bytes=2049)
        assert geometry.request_stride % 64 == 0
        assert geometry.completion_stride % 64 == 0
        assert geometry.segment_bytes == 4 * (
            geometry.request_stride + geometry.completion_stride
        )

    def test_fits(self):
        geometry = RingGeometry(capacity=4, request_bytes=4096,
                                completion_bytes=2048)
        assert geometry.fits(4096, 2048)
        assert not geometry.fits(4097, 2048)
        assert not geometry.fits(4096, 2049)

    def test_mismatched_semaphores_rejected(self):
        geometry = RingGeometry(capacity=4, request_bytes=4096,
                                completion_bytes=4096)
        sems = RingSems(CTX, 8)
        with pytest.raises(ValueError, match="semaphores sized for 8"):
            RingProducer(geometry, sems, window=1)

    def test_window_must_be_positive(self):
        geometry = RingGeometry(capacity=4, request_bytes=4096,
                                completion_bytes=4096)
        with pytest.raises(ValueError, match="window"):
            RingProducer(geometry, RingSems(CTX, 4), window=0)


class TestRoundTrip:
    def test_run_slot_round_trip(self):
        producer, consumer, _ = make_pair()
        try:
            block = np.arange(12, dtype=np.float64).reshape(3, 4)
            producer.submit_run(7, 2, block, 1.5e-6, (11, 3, 0, 9))
            producer.flush()
            kind, seq, model_id, received, now_s, key = consumer.next()
            assert kind == "run"
            assert (seq, model_id) == (7, 2)
            assert now_s == 1.5e-6
            assert key == (11, 3, 0, 9)
            np.testing.assert_array_equal(received, block)
        finally:
            consumer.close()
            producer.close()

    def test_one_dimensional_block_round_trip(self):
        producer, consumer, _ = make_pair()
        try:
            block = np.arange(5, dtype=np.float64)
            producer.submit_run(0, 1, block, 0.0, (0, 0, 0, 0))
            producer.flush()
            _, _, _, received, _, _ = consumer.next()
            assert received.ndim == 1
            np.testing.assert_array_equal(received, block)
        finally:
            consumer.close()
            producer.close()

    def test_prediction_round_trip(self):
        # Completions carry one int32 per row, no float64 payload.
        producer, consumer, _ = make_pair()
        try:
            consumer.post_predictions(7, [3, 0, 9])
            kind, seq, received = producer.collect()
            assert (kind, seq) == ("pred", 7)
            assert received == [3, 0, 9]
            assert all(isinstance(v, int) for v in received)
        finally:
            consumer.close()
            producer.close()

    def test_prediction_overflow_rejected(self):
        producer, consumer, _ = make_pair()
        try:
            too_many = list(range(1024))
            with pytest.raises(ValueError, match="completion slot"):
                consumer.post_predictions(0, too_many)
        finally:
            consumer.close()
            producer.close()

    def test_error_round_trip(self):
        producer, consumer, _ = make_pair()
        try:
            consumer.post_error(9, "Traceback: kaboom")
            assert producer.collect() == ("error", 9, "Traceback: kaboom")
        finally:
            consumer.close()
            producer.close()

    def test_long_traceback_keeps_its_tail(self):
        # The exception's type and message are a traceback's last
        # line: a 10 kB one through the 2 048-byte floor slot must
        # lose its head, not the line that says what went wrong.
        producer, consumer, _ = make_pair(completion_bytes=MIN_PAYLOAD_BYTES)
        try:
            frames = "".join(
                f'  File "plans.py", line {n}, in forward\n    step()\n'
                for n in range(250)
            )
            last = "ValueError: activation é levels out of range\n"
            text = "Traceback (most recent call last):\n" + frames + last
            assert len(text) > 10_000
            consumer.post_error(3, text)
            kind, seq, received = producer.collect()
            assert (kind, seq) == ("error", 3)
            assert received.startswith("[truncated]\n")
            assert received.endswith(last)
            assert text.endswith(received[len("[truncated]\n"):])
            # The slot is used, not halved away.
            assert len(received) > MIN_PAYLOAD_BYTES - 64
        finally:
            consumer.close()
            producer.close()

    def test_control_slots_stay_fifo_with_runs(self):
        # A fault submitted between two dispatches must come out
        # between them — the ordering the serial event loop relies on.
        producer, consumer, _ = make_pair()
        try:
            block = np.zeros(4)
            producer.submit_run(0, 1, block, 0.0, (0, 0, 0, 0))
            producer.submit_control(("fault", "mzm_bias_drift", 2))
            producer.submit_run(1, 1, block, 0.0, (0, 0, 0, 1))
            producer.flush()
            assert consumer.next()[0] == "run"
            assert consumer.next() == ("fault", "mzm_bias_drift", 2)
            assert consumer.next()[0] == "run"
        finally:
            consumer.close()
            producer.close()

    def test_wrap_around_preserves_contents(self):
        # Three full revolutions of a 4-slot ring, interleaved with
        # completions, never corrupt a slot.
        producer, consumer, _ = make_pair(capacity=4, window=2)
        try:
            for seq in range(12):
                block = np.full((2, 3), float(seq))
                producer.submit_run(seq, 1, block, seq * 1e-6,
                                    (0, 0, 0, seq))
                producer.flush()
                kind, got_seq, _, received, now_s, key = consumer.next()
                assert (kind, got_seq) == ("run", seq)
                assert now_s == seq * 1e-6
                assert key == (0, 0, 0, seq)
                np.testing.assert_array_equal(
                    received, np.full((2, 3), float(seq))
                )
                consumer.post_predictions(seq, [seq])
                assert producer.collect()[1] == seq
        finally:
            consumer.close()
            producer.close()


class TestWindowedSignalling:
    def test_submissions_below_window_post_nothing(self):
        producer, consumer, sems = make_pair(window=4)
        try:
            block = np.zeros(4)
            for seq in range(3):
                producer.submit_run(seq, 1, block, 0.0, (0, 0, 0, seq))
            assert producer.pending_signals == 3
            # The worker would still be asleep: no items were posted.
            assert not sems.request_items.acquire(False)
            producer.flush()
            assert producer.pending_signals == 0
            for _ in range(3):
                assert sems.request_items.acquire(False)
                sems.request_items.release()
                assert consumer.next()[0] == "run"
        finally:
            consumer.close()
            producer.close()

    def test_full_window_flushes_automatically(self):
        producer, consumer, sems = make_pair(window=2)
        try:
            block = np.zeros(4)
            producer.submit_run(0, 1, block, 0.0, (0, 0, 0, 0))
            assert producer.pending_signals == 1
            producer.submit_run(1, 1, block, 0.0, (0, 0, 0, 1))
            assert producer.pending_signals == 0  # window hit → flushed
            assert consumer.next()[1] == 0
            assert consumer.next()[1] == 1
        finally:
            consumer.close()
            producer.close()

    def test_control_flushes_immediately(self):
        producer, consumer, _ = make_pair(window=8)
        try:
            producer.submit_run(0, 1, np.zeros(4), 0.0, (0, 0, 0, 0))
            producer.submit_control(("stop",))
            # Both the deferred run and the control slot were signalled.
            assert producer.pending_signals == 0
            assert consumer.next()[0] == "run"
            assert consumer.next() == ("stop",)
        finally:
            consumer.close()
            producer.close()

    def test_collect_flushes_pending_window(self):
        # A blocking collect must first tell the worker about the
        # partial window, or both sides would wait forever.
        producer, consumer, _ = make_pair(window=8)
        try:
            producer.submit_run(0, 1, np.zeros(4), 0.0, (0, 0, 0, 0))
            assert producer.pending_signals == 1

            def on_stall():
                # Runs once collect() is already blocking — the flush
                # must have happened, so next() cannot block here.
                message = consumer.next()
                consumer.post_predictions(message[1], [0])

            # collect() flushes before blocking; the "worker" (the
            # stall callback here) then finds the slot and answers.
            assert producer.collect(on_stall=on_stall)[1] == 0
            assert producer.pending_signals == 0
            # The one (real) timer expiry that ran the callback is on
            # the counter; a completion already posted costs no wait.
            assert producer.poll_timeouts == 1
            consumer.post_predictions(1, [2])
            assert producer.collect()[1] == 1
            assert producer.poll_timeouts == 1
        finally:
            consumer.close()
            producer.close()


class _ScriptedSemaphore:
    """A semaphore whose every call lands in one shared, ordered log.

    ``acquire(False)`` answers from the counter like the real thing;
    a *timed* ``acquire`` never sleeps — it succeeds if the counter is
    positive and otherwise reports an expired wait at once.
    """

    def __init__(self, name: str, value: int, log: list) -> None:
        self.name = name
        self.value = value
        self.log = log

    def acquire(self, block=True, timeout=None) -> bool:
        self.log.append((self.name, "wait" if block else "try", timeout))
        if self.value > 0:
            self.value -= 1
            return True
        return False

    def release(self) -> None:
        self.log.append((self.name, "post", None))
        self.value += 1


class _ScriptedSems:
    """Duck-typed :class:`RingSems` over scripted semaphores."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.log: list = []
        self.request_items = _ScriptedSemaphore("request_items", 0, self.log)
        self.request_free = _ScriptedSemaphore(
            "request_free", capacity, self.log
        )
        self.completion_items = _ScriptedSemaphore(
            "completion_items", 0, self.log
        )
        self.completion_free = _ScriptedSemaphore(
            "completion_free", capacity, self.log
        )


class TestStallFreeFlowControl:
    """The parent never sleeps while a completion slot is readable.

    On a full request ring the producer must flush its window, run the
    stall callback (the pool's completion drain), and only then wait —
    the timer exists to notice a dead worker, never to break a
    flow-control cycle.  Scripted semaphores make the order, and the
    absence of an expired wait, exact rather than timing-dependent.
    """

    CAPACITY = 4

    def full_ring(self, window=CAPACITY):
        """A producer over scripted semaphores, every request slot taken."""
        geometry = RingGeometry(
            capacity=self.CAPACITY, request_bytes=4096,
            completion_bytes=2048,
        )
        sems = _ScriptedSems(self.CAPACITY)
        producer = RingProducer(geometry, sems, window=window)
        block = np.zeros(4)
        for seq in range(self.CAPACITY):
            producer.submit_run(seq, 1, block, 0.0, (0, 0, 0, seq))
        return producer, sems

    def test_full_ring_flushes_then_drains_then_waits(self):
        # window 3 on a 4-slot ring: slots 0-2 were posted, slot 3 is
        # still pending when the ring fills.
        producer, sems = self.full_ring(window=3)
        try:
            assert producer.pending_signals == 1
            del sems.log[:]

            def on_stall():
                sems.log.append(("on_stall", None, None))
                # The drain unparks the worker, which consumes a slot.
                sems.request_free.value += 1

            producer.submit_run(
                self.CAPACITY, 1, np.zeros(4), 0.0, (0, 0, 0, 0),
                on_stall=on_stall,
            )
            assert sems.log[:4] == [
                ("request_free", "try", None),    # ring is full
                ("request_items", "post", None),  # flush the window
                ("on_stall", None, None),         # drain completions
                ("request_free", "wait", POLL_S),  # only now sleep
            ]
            # That one wait was satisfied by the drain: no timer ran out.
            assert producer.poll_timeouts == 0
            waits = [e for e in sems.log if e[1] == "wait"]
            assert len(waits) == 1
        finally:
            producer.close()

    def test_expired_waits_are_counted_and_rerun_the_guard(self):
        # A peer that stays wedged: every expiry is counted and hands
        # control back to the guard, which is what detects a corpse.
        producer, sems = self.full_ring()
        try:
            calls = []

            def on_stall():
                calls.append(producer.poll_timeouts)
                if len(calls) == 3:
                    raise RuntimeError("worker 0 died")

            with pytest.raises(RuntimeError, match="died"):
                producer.submit_control(("stop",), on_stall=on_stall)
            # Guard before the first wait, then once per expiry.
            assert calls == [0, 1, 2]
            assert producer.poll_timeouts == 2
        finally:
            producer.close()


class TestOversizeAndLifecycle:
    def test_oversized_block_rejected(self):
        producer, consumer, _ = make_pair(request_bytes=2048)
        try:
            with pytest.raises(ValueError, match="exceeds"):
                producer.submit_run(
                    0, 1, np.zeros(4096), 0.0, (0, 0, 0, 0)
                )
        finally:
            consumer.close()
            producer.close()

    def test_oversized_control_rejected(self):
        producer, consumer, _ = make_pair(request_bytes=2048)
        try:
            with pytest.raises(ValueError, match="control message"):
                producer.submit_control(("blob", b"x" * 4096))
        finally:
            consumer.close()
            producer.close()

    def test_close_unlinks_segment_idempotently(self):
        producer, consumer, _ = make_pair()
        name = producer.segment_name
        consumer.close()
        producer.close()
        producer.close()  # second close must be harmless
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
