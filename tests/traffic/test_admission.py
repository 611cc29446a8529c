"""Admission-policy and controller tests."""

from __future__ import annotations

import pytest

from repro.fabric import ShardView
from repro.traffic import (
    AcceptAll,
    AdmissionController,
    QueueBackpressure,
    substream,
)
from repro.traffic.arrivals import ADMIT_RNG_DOMAIN


def view(shard: int, queued: int, capacity: int = 32) -> ShardView:
    return ShardView(
        shard=shard,
        num_cores=2,
        macs_per_step=8,
        routed=0,
        queued=queued,
        queue_capacity=capacity,
    )


def controller(policy, seed=0, stream=0) -> AdmissionController:
    return AdmissionController(policy, seed=seed, stream=stream)


class TestAcceptAll:
    def test_admits_everything_and_accounts(self):
        ctrl = controller(AcceptAll())
        for i in range(10):
            assert ctrl.admit(i * 1e-3, (view(0, 32),))
        assert (ctrl.offered, ctrl.admitted, ctrl.shed) == (10, 10, 0)
        assert ctrl.unconditional


class TestQueueBackpressure:
    def test_watermark_regions(self):
        policy = QueueBackpressure(low=0.25, high=0.75)
        rng = substream(0, ADMIT_RNG_DOMAIN, 0)
        # Below low: always admit; at/above high: always shed.
        assert policy.admit(0.0, (view(0, 0), view(1, 0)), rng)
        assert policy.admit(0.0, (view(0, 7), view(1, 8)), rng)
        assert not policy.admit(0.0, (view(0, 24), view(1, 24)), rng)
        assert not policy.admit(0.0, (view(0, 32), view(1, 32)), rng)

    def test_ramp_sheds_proportionally(self):
        policy = QueueBackpressure(low=0.0, high=1.0)
        rng = substream(3, ADMIT_RNG_DOMAIN, 0)
        shed = sum(
            not policy.admit_occupancy(0.5, rng) for _ in range(4000)
        )
        assert shed / 4000 == pytest.approx(0.5, abs=0.05)

    def test_occupancy_aggregates_across_shards(self):
        policy = QueueBackpressure()
        occ = policy.occupancy((view(0, 8, 32), view(1, 0, 32)))
        assert occ == pytest.approx(8 / 64)
        assert policy.occupancy(()) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="watermarks"):
            QueueBackpressure(low=0.5, high=0.5)
        with pytest.raises(ValueError, match="watermarks"):
            QueueBackpressure(low=-0.1, high=0.5)


class TestController:
    def test_accounting_sums_to_offered(self):
        ctrl = controller(QueueBackpressure(low=0.0, high=0.5), seed=9)
        for i in range(500):
            ctrl.admit_occupancy(i * 1e-4, 0.25)
        assert ctrl.offered == 500
        assert ctrl.admitted + ctrl.shed == ctrl.offered
        assert 0 < ctrl.shed < 500

    def test_tie_breaks_reproducible_across_reset(self):
        ctrl = controller(QueueBackpressure(low=0.0, high=1.0), seed=4)
        first = [ctrl.admit_occupancy(0.0, 0.5) for _ in range(200)]
        ctrl.reset()
        assert (ctrl.offered, ctrl.admitted, ctrl.shed) == (0, 0, 0)
        second = [ctrl.admit_occupancy(0.0, 0.5) for _ in range(200)]
        assert first == second

    def test_fast_path_follows_the_policy_across_reset(self):
        """The occupancy hook is resolved in reset(), not per arrival:
        a controller re-pointed at another policy serves it after the
        reset every serve starts with."""
        ctrl = controller(AcceptAll())
        assert ctrl.admit_occupancy(0.0, 1.0)
        ctrl.policy = QueueBackpressure()
        ctrl.reset()
        assert not ctrl.admit_occupancy(0.0, 1.0)
        ctrl.policy = AcceptAll()
        ctrl.reset()
        assert ctrl.admit_occupancy(0.0, 1.0)

    def test_distinct_streams_decorrelate(self):
        a = controller(QueueBackpressure(low=0.0, high=1.0), stream=0)
        b = controller(QueueBackpressure(low=0.0, high=1.0), stream=1)
        da = [a.admit_occupancy(0.0, 0.5) for _ in range(200)]
        db = [b.admit_occupancy(0.0, 0.5) for _ in range(200)]
        assert da != db


class TestShedAdmitted:
    def test_reclassifies_the_last_admit(self):
        ctrl = controller(AcceptAll())
        assert ctrl.admit(0.0, ())
        ctrl.shed_admitted()
        assert (ctrl.offered, ctrl.admitted, ctrl.shed) == (1, 0, 1)

    def test_refuses_with_nothing_admitted(self):
        ctrl = controller(AcceptAll())
        with pytest.raises(ValueError, match="no admitted"):
            ctrl.shed_admitted()
