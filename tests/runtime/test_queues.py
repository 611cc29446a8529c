"""Tests for bounded admission queues and the batching coalescer."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.stats import NICCounters
from repro.runtime import AdmissionQueue, BatchingCoalescer


class TestAdmissionQueue:
    def test_fifo_order_and_timestamps(self):
        q = AdmissionQueue(model_id=1, capacity=4)
        for i in range(3):
            assert q.offer(f"r{i}", now_s=float(i)) is None
        assert q.depth == 3
        assert q.head_enqueued_s == 0.0
        first = q.pop()
        assert first.item == "r0" and first.enqueued_s == 0.0
        assert q.pop().item == "r1"

    def test_drop_tail_rejects_incoming(self):
        q = AdmissionQueue(model_id=1, capacity=2, policy="drop-tail")
        q.offer("old0", 0.0)
        q.offer("old1", 0.0)
        victim = q.offer("new", 1.0)
        assert victim == "new"
        assert [q.pop().item for _ in range(2)] == ["old0", "old1"]
        assert q.dropped == 1 and q.admitted == 2

    def test_drop_head_evicts_oldest(self):
        q = AdmissionQueue(model_id=1, capacity=2, policy="drop-head")
        q.offer("old0", 0.0)
        q.offer("old1", 0.0)
        victim = q.offer("new", 1.0)
        assert victim == "old0"
        assert [q.pop().item for _ in range(2)] == ["old1", "new"]
        assert q.dropped == 1 and q.admitted == 3

    def test_memory_stays_bounded_under_sustained_overload(self):
        q = AdmissionQueue(model_id=1, capacity=8)
        drops = sum(
            q.offer(i, float(i)) is not None for i in range(10_000)
        )
        assert q.depth == 8
        assert drops == 10_000 - 8

    def test_view_matches_state(self):
        q = AdmissionQueue(model_id=9, capacity=4)
        q.offer("a", 2.5)
        v = q.view()
        assert (v.model_id, v.depth, v.head_enqueued_s) == (9, 1, 2.5)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            AdmissionQueue(model_id=1, capacity=0)
        with pytest.raises(ValueError, match="drop policy"):
            AdmissionQueue(model_id=1, policy="random-early")

    def test_empty_queue_raises(self):
        q = AdmissionQueue(model_id=1)
        with pytest.raises(ValueError, match="empty"):
            q.pop()
        with pytest.raises(ValueError, match="empty"):
            _ = q.head_enqueued_s
        with pytest.raises(ValueError, match="empty"):
            q.peek()

    def test_peek_does_not_remove(self):
        q = AdmissionQueue(model_id=1, capacity=4)
        q.offer("a", 1.0)
        assert q.peek().item == "a"
        assert q.depth == 1

    def test_drain_empties_the_queue_and_keeps_the_counters(self):
        q = AdmissionQueue(model_id=1, capacity=2)
        for i in range(3):
            q.offer(f"r{i}", float(i))
        assert [e.item for e in q.drain()] == ["r0", "r1"]
        assert (q.depth, q.admitted, q.dropped) == (0, 2, 1)
        assert not q.drain()

    @pytest.mark.parametrize("policy", ["drop-tail", "drop-head"])
    def test_both_drop_policies_charge_the_same_nic_counter(self, policy):
        # Regression: drop-head evictions used to bypass the shared
        # NIC-level accounting that drop-tail rejections charged, so a
        # dashboard's dropped count depended on the configured policy.
        counters = NICCounters()
        q = AdmissionQueue(
            model_id=1, capacity=2, policy=policy, counters=counters
        )
        for i in range(5):
            q.offer(f"r{i}", float(i))
        assert counters.dropped == 3
        assert counters.dropped == q.dropped
        # A frame is seen once, at NIC ingress: offering it to a queue
        # (again on every crash retry) is not an arrival.
        assert counters.frames_seen == 0

    def test_counters_optional(self):
        q = AdmissionQueue(model_id=1, capacity=1)
        q.offer("a", 0.0)
        assert q.offer("b", 1.0) == "b"
        assert q.counters is None


class TestBatchingCoalescer:
    def test_takes_up_to_max_batch_in_fifo_order(self):
        q = AdmissionQueue(model_id=1, capacity=8)
        for i in range(5):
            q.offer(i, float(i))
        coalescer = BatchingCoalescer(max_batch=3)
        batch = coalescer.take(q)
        assert [e.item for e in batch] == [0, 1, 2]
        assert q.depth == 2

    def test_single_request_batches_allowed(self):
        q = AdmissionQueue(model_id=1, capacity=8)
        q.offer("only", 0.0)
        coalescer = BatchingCoalescer(max_batch=4)
        assert len(coalescer.take(q)) == 1
        assert coalescer.mean_batch_size == 1.0

    def test_counters(self):
        q = AdmissionQueue(model_id=1, capacity=8)
        coalescer = BatchingCoalescer(max_batch=2)
        for i in range(4):
            q.offer(i, 0.0)
        coalescer.take(q)
        coalescer.take(q)
        assert coalescer.batches_formed == 2
        assert coalescer.requests_coalesced == 4
        assert coalescer.mean_batch_size == 2.0

    def test_empty_queue_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            BatchingCoalescer().take(AdmissionQueue(model_id=1))

    def test_invalid_max_batch(self):
        with pytest.raises(ValueError, match="max_batch"):
            BatchingCoalescer(max_batch=0)
        with pytest.raises(ValueError, match="no batches"):
            _ = BatchingCoalescer().mean_batch_size


class TestStackLevels:
    def test_matches_np_stack(self):
        import numpy as np

        from repro.runtime import stack_levels

        rng = np.random.default_rng(0)
        vectors = [rng.uniform(0, 255, 12) for _ in range(4)]
        q = AdmissionQueue(model_id=1, capacity=8)
        for v in vectors:
            q.offer(SimpleNamespace(data_levels=v), 0.0)
        entries = BatchingCoalescer(max_batch=4).take(q)
        block = stack_levels(entries)
        assert block.dtype == np.float64
        np.testing.assert_array_equal(block, np.stack(vectors))

    def test_uint8_levels_stay_uint8(self):
        import numpy as np

        from repro.runtime import stack_levels

        rng = np.random.default_rng(1)
        wire = [rng.integers(0, 256, 12).astype(np.uint8) for _ in range(3)]

        def stacked(vectors):
            q = AdmissionQueue(model_id=1, capacity=8)
            for v in vectors:
                q.offer(SimpleNamespace(data_levels=v), 0.0)
            return stack_levels(BatchingCoalescer(max_batch=8).take(q))

        block = stacked(wire)
        assert block.dtype == np.uint8
        np.testing.assert_array_equal(block, np.stack(wire))
        # One request of float levels makes the whole block float64.
        mixed = stacked([*wire, wire[0].astype(np.float64)])
        assert mixed.dtype == np.float64
        np.testing.assert_array_equal(mixed, np.stack([*wire, wire[0]]))

    def test_empty_dispatch_rejected(self):
        from repro.runtime import stack_levels

        with pytest.raises(ValueError, match="empty"):
            stack_levels([])
