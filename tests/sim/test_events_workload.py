"""Tests for the event engine and workload generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dnn import SIMULATION_MODELS, alexnet_spec
from repro.sim import (
    EventQueue,
    PoissonWorkload,
    SimRequest,
    SimTrace,
    a100_gpu,
    lightning_chip,
    rate_for_utilization,
)

BAD_ARRIVALS = [float("nan"), -1e-9, float("inf"), float("-inf")]


class TestEventQueue:
    def test_events_pop_in_time_order(self):
        q = EventQueue()
        q.push(3.0, "c")
        q.push(1.0, "a")
        q.push(2.0, "b")
        assert [q.pop().kind for _ in range(3)] == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        q = EventQueue()
        q.push(1.0, "first")
        q.push(1.0, "second")
        assert q.pop().kind == "first"
        assert q.pop().kind == "second"

    def test_clock_advances(self):
        q = EventQueue()
        q.push(5.0, "x")
        q.pop()
        assert q.now == 5.0

    def test_scheduling_in_the_past_rejected(self):
        q = EventQueue()
        q.push(5.0, "x")
        q.pop()
        with pytest.raises(ValueError, match="before current time"):
            q.push(1.0, "y")

    def test_pop_empty_raises(self):
        with pytest.raises(RuntimeError, match="empty"):
            EventQueue().pop()

    def test_run_dispatches_all(self):
        q = EventQueue()
        seen = []
        for t in (1.0, 2.0, 3.0):
            q.push(t, "e", t)
        count = q.run(lambda e: seen.append(e.payload))
        assert count == 3
        assert seen == [1.0, 2.0, 3.0]

    def test_run_until_bound(self):
        q = EventQueue()
        for t in (1.0, 2.0, 3.0):
            q.push(t, "e")
        assert q.run(lambda e: None, until=2.0) == 2
        assert len(q) == 1

    def test_handler_may_push_events(self):
        q = EventQueue()
        q.push(1.0, "seed")

        def handler(event):
            if event.kind == "seed":
                q.push(event.time + 1.0, "child")

        assert q.run(handler) == 2


class TestPoissonWorkload:
    def test_trace_is_sorted_and_sized(self):
        workload = PoissonWorkload([alexnet_spec()], 100.0, seed=0)
        trace = workload.trace(50)
        arrivals = [r.arrival_s for r in trace]
        assert len(trace) == 50
        assert arrivals == sorted(arrivals)

    def test_mean_interarrival_matches_rate(self):
        workload = PoissonWorkload([alexnet_spec()], 1000.0, seed=0)
        trace = workload.trace(5000)
        mean_gap = trace[-1].arrival_s / len(trace)
        assert mean_gap == pytest.approx(1e-3, rel=0.05)

    def test_uniform_model_mix(self):
        models = SIMULATION_MODELS()
        workload = PoissonWorkload(models, 100.0, seed=1)
        trace = workload.trace(7000)
        counts = {m.name: 0 for m in models}
        for r in trace:
            counts[r.model.name] += 1
        fractions = np.array(list(counts.values())) / len(trace)
        assert np.allclose(fractions, 1 / 7, atol=0.02)

    def test_traces_independent_but_reproducible(self):
        workload = PoissonWorkload([alexnet_spec()], 100.0, seed=2)
        t0a = workload.trace(20, trace_index=0)
        t0b = workload.trace(20, trace_index=0)
        t1 = workload.trace(20, trace_index=1)
        assert [r.arrival_s for r in t0a] == [r.arrival_s for r in t0b]
        assert [r.arrival_s for r in t0a] != [r.arrival_s for r in t1]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            PoissonWorkload([], 1.0)
        with pytest.raises(ValueError):
            PoissonWorkload([alexnet_spec()], 0.0)
        with pytest.raises(ValueError):
            PoissonWorkload([alexnet_spec()], 1.0).trace(0)


class TestSimTrace:
    def test_a_trace_reads_as_its_requests(self):
        models = SIMULATION_MODELS()[:3]
        trace = SimTrace([7, 3, 9, 4], [0.0, 1e-3, 1e-3, 2e-3],
                         [2, 0, 2, 1], models)
        expected = [
            SimRequest(7, models[2], 0.0),
            SimRequest(3, models[0], 1e-3),
            SimRequest(9, models[2], 1e-3),
            SimRequest(4, models[1], 2e-3),
        ]
        assert len(trace) == 4
        assert list(trace) == expected
        assert [trace[i] for i in range(4)] == expected
        assert trace[-1] == expected[-1]
        assert list(trace[1:3]) == expected[1:3]
        assert list(trace.take(np.array([3, 0]))) == [
            expected[3], expected[0]
        ]
        assert isinstance(trace[0].request_id, int)
        assert isinstance(trace[0].arrival_s, float)
        with pytest.raises(IndexError):
            trace[4]

    def test_from_requests_round_trips(self):
        a, b = alexnet_spec(), SIMULATION_MODELS()[1]
        requests = [SimRequest(i, m, i * 1e-6) for i, m in
                    enumerate([b, a, b, b, a])]
        trace = SimTrace.from_requests(requests)
        # One model entry per distinct object, in first-use order.
        assert trace.models == (b, a)
        assert trace.picks.tolist() == [0, 1, 0, 0, 1]
        assert list(trace) == requests

    def test_columns_are_read_only(self):
        trace = PoissonWorkload([alexnet_spec()], 100.0).trace(5)
        with pytest.raises(ValueError):
            trace.arrivals[0] = -1.0

    def test_malformed_columns_rejected(self):
        models = [alexnet_spec()]
        with pytest.raises(ValueError, match="length"):
            SimTrace([0, 1], [0.0], [0, 0], models)
        with pytest.raises(ValueError, match="pick"):
            SimTrace([0], [0.0], [1], models)
        assert len(SimTrace([], [], [], models)) == 0

    @pytest.mark.parametrize("arrival", BAD_ARRIVALS)
    def test_non_finite_or_negative_arrival_rejected(self, arrival):
        """A NaN arrival used to be accepted and then served at the
        core's free time with a NaN queueing delay."""
        with pytest.raises(ValueError, match="finite and non-negative"):
            SimRequest(0, alexnet_spec(), arrival)

    @pytest.mark.parametrize("arrival", BAD_ARRIVALS)
    def test_trace_rejects_non_finite_or_negative_arrival(self, arrival):
        with pytest.raises(ValueError, match="finite and non-negative"):
            SimTrace([0, 1], [0.0, arrival], [0, 0], [alexnet_spec()])

    def test_poisson_trace_is_a_sim_trace(self):
        models = SIMULATION_MODELS()
        trace = PoissonWorkload(models, 100.0, seed=4).trace(50, 2)
        assert isinstance(trace, SimTrace)
        assert trace.request_ids.tolist() == list(range(50))
        assert trace.models == tuple(models)


class TestRateForUtilization:
    def test_rate_targets_most_congested(self):
        models = SIMULATION_MODELS()
        platforms = [a100_gpu(), lightning_chip()]
        rate = rate_for_utilization(platforms, models, 0.9)
        # Offered compute load on the A100 (the congested one) = 0.9.
        mean_compute = np.mean(
            [a100_gpu().compute_seconds(m) for m in models]
        )
        assert rate * mean_compute == pytest.approx(0.9)

    def test_lightning_underutilized_at_that_rate(self):
        models = SIMULATION_MODELS()
        rate = rate_for_utilization(
            [a100_gpu(), lightning_chip()], models, 0.9
        )
        lt_load = rate * np.mean(
            [lightning_chip().compute_seconds(m) for m in models]
        )
        assert lt_load < 0.3

    def test_bounds_checked(self):
        models = [alexnet_spec()]
        with pytest.raises(ValueError):
            rate_for_utilization([], models, 0.9)
        with pytest.raises(ValueError):
            rate_for_utilization([a100_gpu()], [], 0.9)
        with pytest.raises(ValueError):
            rate_for_utilization([a100_gpu()], models, 1.0)
