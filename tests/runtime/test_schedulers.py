"""Tests for the scheduler policies shared by the runtime and §9 sim."""

from __future__ import annotations

import pytest

from repro.runtime import (
    CoreHealthView,
    HealthAwareScheduler,
    LeastLoadedScheduler,
    ModelQueueView,
    RoundRobinScheduler,
    Scheduler,
)
from repro.sim import RoundRobinScheduler as SimRoundRobinScheduler


def view(model_id, depth=1, head=0.0):
    return ModelQueueView(
        model_id=model_id, depth=depth, head_enqueued_s=head
    )


class TestProtocol:
    def test_sim_reexports_the_same_class(self):
        """The §9 simulator and the runtime share one scheduler type."""
        assert SimRoundRobinScheduler is RoundRobinScheduler

    @pytest.mark.parametrize(
        "policy",
        [
            RoundRobinScheduler(2),
            LeastLoadedScheduler(2),
            HealthAwareScheduler(2),
        ],
    )
    def test_policies_satisfy_protocol(self, policy):
        assert isinstance(policy, Scheduler)

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError, match="at least one core"):
            RoundRobinScheduler(0)


class TestRoundRobin:
    def test_cycles_without_load_information(self):
        sched = RoundRobinScheduler(num_cores=3)
        assert [sched.assign(None) for _ in range(5)] == [0, 1, 2, 0, 1]

    def test_cycles_over_idle_subset(self):
        """The runtime passes only idle cores; rotation follows along."""
        sched = RoundRobinScheduler(num_cores=4)
        picks = [sched.assign(None, [0.0, 0.0]) for _ in range(4)]
        assert picks == [0, 1, 0, 1]

    def test_reset(self):
        sched = RoundRobinScheduler(num_cores=2)
        sched.assign(None)
        sched.reset()
        assert sched.assign(None) == 0

    def test_fifo_model_selection(self):
        sched = RoundRobinScheduler(num_cores=2)
        picked = sched.next_model(
            [view(7, head=2.0), view(3, head=1.0), view(5, head=3.0)]
        )
        assert picked == 3

    def test_fifo_rejects_empty_candidates(self):
        with pytest.raises(ValueError, match="candidate"):
            RoundRobinScheduler(num_cores=1).next_model([])


class TestLeastLoaded:
    def test_picks_earliest_free_core(self):
        sched = LeastLoadedScheduler(num_cores=3)
        assert sched.assign(None, [5.0, 1.0, 3.0]) == 1

    def test_ties_break_to_lowest_index(self):
        sched = LeastLoadedScheduler(num_cores=3)
        assert sched.assign(None, [2.0, 2.0, 2.0]) == 0

    def test_requires_load_information(self):
        with pytest.raises(ValueError, match="load information"):
            LeastLoadedScheduler(num_cores=2).assign(None)


class TestHealthAware:
    def test_prefers_clean_cores(self):
        sched = HealthAwareScheduler(num_cores=3)
        sched.observe_health([
            CoreHealthView(core=0, error_rms=50.0),
            CoreHealthView(core=1, error_rms=0.5),
            CoreHealthView(core=2, state="recalibrating"),
        ])
        assert sched.assign(None, [0.0, 5.0, 0.0], now_s=10.0) == 1

    def test_prefers_least_backlog_among_clean(self):
        sched = HealthAwareScheduler(num_cores=3)
        sched.observe_health([
            CoreHealthView(core=i) for i in range(3)
        ])
        assert sched.assign(None, [3.0, 1.0, 2.0], now_s=0.0) == 1

    def test_rotates_among_tied_idle_cores(self):
        """All clean, all idle → round-robin via the rotation counter."""
        sched = HealthAwareScheduler(num_cores=3)
        picks = []
        for _ in range(5):
            sched.observe_health([
                CoreHealthView(core=i) for i in range(3)
            ])
            picks.append(sched.assign(None, [0.0, 0.0, 0.0], now_s=1.0))
        assert picks == [0, 1, 2, 0, 1]

    def test_falls_back_without_snapshot(self):
        """No observe_health → every core presumed clean."""
        sched = HealthAwareScheduler(num_cores=2)
        assert sched.assign(None, [5.0, 1.0], now_s=0.0) == 1

    def test_snapshot_is_single_use(self):
        sched = HealthAwareScheduler(num_cores=2)
        sched.observe_health([
            CoreHealthView(core=0, error_rms=99.0),
            CoreHealthView(core=1),
        ])
        assert sched.assign(None, [0.0, 0.0], now_s=0.0) == 1
        # The stale snapshot must not bias the next decision: core 0
        # has the smaller backlog, so a clean slate picks it even
        # though the previous snapshot called it drifting.
        assert sched.assign(None, [0.0, 6.0], now_s=5.0) == 0

    def test_drifting_core_still_used_when_alone(self):
        """Soft avoidance, not quarantine: a drifting core beats none."""
        sched = HealthAwareScheduler(num_cores=1)
        sched.observe_health([CoreHealthView(core=0, error_rms=50.0)])
        assert sched.assign(None, [0.0], now_s=0.0) == 0

    def test_reset_clears_rotation_and_snapshot(self):
        sched = HealthAwareScheduler(num_cores=2)
        sched.observe_health([CoreHealthView(core=0), CoreHealthView(core=1)])
        sched.assign(None, [0.0, 0.0])
        sched.reset()
        assert sched.assign(None, [0.0, 0.0]) == 0

    def test_requires_load_information(self):
        with pytest.raises(ValueError, match="load information"):
            HealthAwareScheduler(num_cores=2).assign(None)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError, match="positive"):
            HealthAwareScheduler(num_cores=1, error_soft_threshold=0.0)


class TestDeterministicTieBreaks:
    """Equal-key decisions must not depend on candidate ordering.

    Parallel-mode replay is bit-identical to serial only because every
    scheduling decision is a pure function of the queue contents — a
    dict-iteration or argsort instability here would silently reorder
    dispatches between runs.
    """

    def test_least_loaded_equal_keys_pick_lowest_index(self):
        sched = LeastLoadedScheduler(num_cores=5)
        for _ in range(10):
            assert sched.assign(None, [7.0] * 5) == 0

    def test_least_loaded_near_ties_are_exact_not_fuzzy(self):
        """Only *exact* equality ties; any strict minimum wins."""
        sched = LeastLoadedScheduler(num_cores=3)
        assert sched.assign(None, [7.0, 7.0 - 1e-15, 7.0]) == 1

    def test_fifo_equal_heads_tie_on_model_id(self):
        """Same head-of-line age → lowest model id, in every candidate
        permutation."""
        import itertools

        candidates = [view(m, head=1.0) for m in (9, 3, 7)]
        for perm in itertools.permutations(candidates):
            sched = RoundRobinScheduler(num_cores=1)
            assert sched.next_model(list(perm)) == 3

    def test_fifo_order_is_total(self):
        """Head age, then model id — a full total order."""
        sched = LeastLoadedScheduler(num_cores=1)
        # Model 1 waited longest; models 2 and 3 tie on head age →
        # model 2 by id once model 1 is gone.
        candidates = [view(3, head=0.5), view(1, head=0.0), view(2, head=0.5)]
        assert sched.next_model(candidates) == 1
        assert sched.next_model(candidates[:1] + candidates[2:]) == 2

    def test_health_aware_ties_rotate_deterministically(self):
        """Tied clean cores rotate by the counter, not dict order."""
        sched = HealthAwareScheduler(num_cores=4)
        picks = []
        for _ in range(8):
            sched.observe_health(
                [CoreHealthView(core=i) for i in range(4)]
            )
            picks.append(
                sched.assign(None, [2.0, 2.0, 2.0, 2.0], now_s=5.0)
            )
        assert picks == [0, 1, 2, 3, 0, 1, 2, 3]
