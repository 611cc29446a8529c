"""Admission-policy and controller tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestShedProbability:
    def test_coin_band_includes_low_and_excludes_high(self):
        policy = QueueBackpressure(low=0.25, high=0.75)
        assert policy.shed_probability(0.2) is None
        assert policy.shed_probability(0.25) == 0.0
        assert policy.shed_probability(0.5) == 0.5
        assert policy.shed_probability(0.75) is None
        rng = substream(0, ADMIT_RNG_DOMAIN, 0)
        before = repr(rng.bit_generator.state)
        assert policy.admit_occupancy(0.2, rng)
        assert not policy.admit_occupancy(0.75, rng)
        assert repr(rng.bit_generator.state) == before
        # At the low watermark the shed probability is 0, and the
        # arrival still draws.
        assert policy.admit_occupancy(0.25, rng)
        assert repr(rng.bit_generator.state) != before

    @settings(max_examples=200, derandomize=True, deadline=None,
              database=None)
    @given(
        capacity=st.integers(1, 64),
        marks=st.tuples(st.integers(0, 64), st.integers(0, 64),
                        st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        on_depth=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_depth_table_decides_and_draws_like_the_policy(
        self, capacity, marks, on_depth, seed
    ):
        """At every depth the table makes the decision
        ``admit_occupancy`` makes, from the same number of draws."""
        a, b = (
            (marks[0] / 64, marks[1] / 64) if on_depth else marks[2:]
        )
        if a == b:
            return
        policy = QueueBackpressure(low=min(a, b), high=max(a, b))
        table = controller(policy).depth_table(capacity)
        assert len(table) == capacity + 1
        by_policy = np.random.default_rng(seed)
        by_table = np.random.default_rng(seed)
        for depth, verdict in enumerate(table):
            admitted = policy.admit_occupancy(depth / capacity, by_policy)
            if isinstance(verdict, bool):
                assert admitted is verdict
            else:
                assert admitted is not (by_table.random() < verdict)
            assert (
                by_policy.bit_generator.state
                == by_table.bit_generator.state
            )

    def test_accept_all_table_admits_without_a_draw(self):
        assert controller(AcceptAll()).depth_table(3) == [True] * 4

    def test_a_policy_without_the_ramp_has_no_table(self):
        class Coin:
            def admit(self, now_s, shards, rng):
                return True

            def reset(self):
                pass

        with pytest.raises(TypeError, match="shed_probability"):
            controller(Coin()).depth_table(4)


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
