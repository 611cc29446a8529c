"""End-to-end fault scenarios on the serving cluster.

These are the acceptance tests of the resilience layer: deterministic
replay, full accounting under crashes, watchdog quarantine latency, and
graceful degradation — every request ends in exactly one of served /
dropped / failed / unfinished.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.stats import Outcome
from repro.core.trace import DatapathTracer
from repro.faults import (
    CalibrationWatchdog,
    DegradedCore,
    FaultSchedule,
    RetryPolicy,
    WireFrame,
)
from repro.net import InferenceRequest, build_inference_frame
from repro.runtime import Cluster, RuntimeRequest

from ..runtime.test_matmulless_cluster import (
    conv_dense_dag,
    inputs,
    prototype,
)
from .conftest import make_cluster, steady_trace


def accounted(result) -> int:
    return (
        result.served
        + result.dropped
        + result.failed
        + result.unfinished
    )


class TestFaultFreeEquivalence:
    def test_empty_schedule_changes_nothing(self, tiny_dag):
        trace = steady_trace(count=40)

        def run(**kwargs):
            cluster = make_cluster(num_cores=4)
            cluster.deploy(tiny_dag)
            return cluster.serve_trace(trace, **kwargs)

        baseline = run()
        with_schedule = run(fault_schedule=FaultSchedule(seed=1))
        assert [r.request.request_id for r in baseline.records] == [
            r.request.request_id for r in with_schedule.records
        ]
        assert [r.finish_s for r in baseline.records] == [
            r.finish_s for r in with_schedule.records
        ]
        assert baseline.busy_seconds == with_schedule.busy_seconds

    def test_identity_holds_under_every_fault(self, tiny_dag):
        schedule = (
            FaultSchedule(seed=2)
            .core_stall(at_s=20e-6, core=0, duration_s=30e-6)
            .core_crash(at_s=50e-6, core=1)
            .mzm_bias_drift(at_s=10e-6, core=2, volts_per_s=1e5)
        )
        cluster = make_cluster(num_cores=4)
        cluster.deploy(tiny_dag)
        result = cluster.serve_trace(
            steady_trace(count=60),
            fault_schedule=schedule,
            retry_policy=RetryPolicy(max_retries=2, backoff_s=1e-6),
        )
        for record in result.records:
            assert record.serve_time_s == pytest.approx(
                record.finish_s - record.request.arrival_s, abs=1e-15
            )


class TestDeterministicReplay:
    def test_two_runs_produce_identical_stats(self, tiny_dag):
        def run():
            schedule = (
                FaultSchedule(seed=7)
                .core_crash(at_s=25e-6, core=1)
                .core_stall(at_s=40e-6, core=0, duration_s=20e-6)
                .laser_drift(at_s=10e-6, core=2, fraction_per_s=5e3)
            )
            cluster = make_cluster(num_cores=4)
            cluster.deploy(tiny_dag)
            watchdog = CalibrationWatchdog(interval_s=30e-6)
            return cluster.serve_trace(
                steady_trace(count=80, spacing_s=1e-6),
                fault_schedule=schedule,
                watchdog=watchdog,
                retry_policy=RetryPolicy(max_retries=1, backoff_s=2e-6),
            )

        first = run()
        second = run()
        assert first.stats.summary() == second.stats.summary()
        assert first.stats.core_health == second.stats.core_health
        assert [r.request.request_id for r in first.records] == [
            r.request.request_id for r in second.records
        ]
        assert first.serve_times().tolist() == second.serve_times().tolist()
        assert [
            r.request_id for r in first.outcomes.requests(Outcome.FAILED)
        ] == [r.request_id for r in second.outcomes.requests(Outcome.FAILED)]


class TestCrashAccounting:
    def test_single_core_crash_accounts_every_request(self, tiny_dag):
        # One core, back-to-back arrivals: the crash is guaranteed to
        # catch a batch in flight, and nothing can serve afterwards.
        cluster = make_cluster(num_cores=1, queue_capacity=256)
        cluster.deploy(tiny_dag)
        trace = steady_trace(count=30, spacing_s=1e-7)
        schedule = FaultSchedule().core_crash(at_s=5e-6, core=0)
        result = cluster.serve_trace(
            trace,
            fault_schedule=schedule,
            retry_policy=RetryPolicy(max_retries=2, backoff_s=1e-6),
        )
        assert result.offered == 30
        assert accounted(result) == 30
        assert 0 < result.served < 30
        # The in-flight batch was retried, then failed with the core dead.
        assert result.stats.retries > 0
        assert result.stats.failed == result.failed > 0
        assert result.stats.core_health[0] == "crashed"

    def test_surviving_cores_absorb_a_crash(self, tiny_dag):
        cluster = make_cluster(num_cores=4, queue_capacity=256)
        cluster.deploy(tiny_dag)
        trace = steady_trace(count=100, spacing_s=5e-7)
        schedule = FaultSchedule().core_crash(at_s=25e-6, core=2)
        result = cluster.serve_trace(
            trace,
            fault_schedule=schedule,
            retry_policy=RetryPolicy(max_retries=2, backoff_s=1e-6),
        )
        assert accounted(result) == 100
        assert result.failed == 0
        assert result.served + result.dropped == 100
        assert result.stats.core_health[2] == "crashed"
        assert not any(
            r.core == 2 and r.finish_s > 25e-6 for r in result.records
        )

    def test_crash_emits_trace_events(self, tiny_dag):
        tracer = DatapathTracer()
        cluster = make_cluster(num_cores=2, tracer=tracer)
        cluster.deploy(tiny_dag)
        schedule = FaultSchedule().core_crash(at_s=10e-6, core=0)
        cluster.serve_trace(
            steady_trace(count=40, spacing_s=5e-7),
            fault_schedule=schedule,
        )
        kinds = {event.kind for event in tracer.events}
        assert "fault" in kinds
        assert "complete" in kinds


class TestWatchdogQuarantine:
    def test_drifted_core_quarantined_within_one_interval(self, tiny_dag):
        interval = 20e-6
        onset = 10e-6
        schedule = FaultSchedule().mzm_bias_drift(
            at_s=onset, core=1, volts_per_s=2e5
        )
        cluster = make_cluster(num_cores=4)
        cluster.deploy(tiny_dag)
        result = cluster.serve_trace(
            steady_trace(count=60),
            fault_schedule=schedule,
            watchdog=CalibrationWatchdog(interval_s=interval),
        )
        health = cluster.health[1]
        assert health.state == "quarantined"
        assert health.quarantined_at_s is not None
        assert health.quarantined_at_s - onset <= interval
        assert result.stats.quarantines == 1
        assert result.stats.core_health[1] == "quarantined"
        # No dispatches to the quarantined core after removal.
        assert not any(
            r.core == 1 and r.finish_s > health.quarantined_at_s
            for r in result.records
        )

    def test_healthy_cluster_is_never_quarantined(self, tiny_dag):
        cluster = make_cluster(num_cores=4)
        cluster.deploy(tiny_dag)
        result = cluster.serve_trace(
            steady_trace(count=60),
            watchdog=CalibrationWatchdog(interval_s=15e-6),
        )
        assert result.stats.quarantines == 0
        assert all(
            state == "healthy"
            for state in result.stats.core_health.values()
        )
        assert all(h.probes > 0 for h in cluster.health.values())

    def test_watched_matmulless_core_survives_a_device_fault(self):
        """Regression: the probe chose ``matmul`` by ``hasattr``, which
        a fault wrapper always passes, so the first probe of a degraded
        :class:`PrototypeCore` raised ``AttributeError`` mid-serve."""
        dag = conv_dense_dag()
        schedule = FaultSchedule(seed=1).mzm_bias_drift(
            at_s=2e-4, core=0, volts_per_s=3000.0
        )
        cluster = Cluster(num_cores=1, datapath_factory=prototype)
        cluster.deploy(dag)
        trace = [
            RuntimeRequest(
                request_id=i, model_id=dag.model_id, arrival_s=i * 1e-4,
                data_levels=x,
            )
            for i, x in enumerate(inputs(20))
        ]
        result = cluster.serve_trace(
            trace,
            fault_schedule=schedule,
            watchdog=CalibrationWatchdog(interval_s=3e-4, threshold=1e9),
        )
        assert result.served == result.offered == 20
        assert isinstance(cluster.datapaths[0].core, DegradedCore)
        assert cluster.health[0].probes > 0


class TestStalls:
    def test_stall_delays_inflight_batch_into_t_q(self, tiny_dag):
        def run(schedule=None):
            cluster = make_cluster(num_cores=1)
            cluster.deploy(tiny_dag)
            return cluster.serve_trace(
                steady_trace(count=20, spacing_s=1e-7),
                fault_schedule=schedule,
            )

        baseline = run()
        stall = 50e-6
        stalled = run(
            FaultSchedule().core_stall(at_s=2e-6, core=0, duration_s=stall)
        )
        assert stalled.served == baseline.served == 20
        # Everything after the stall finishes exactly the stall later.
        assert stalled.records[-1].finish_s == pytest.approx(
            baseline.records[-1].finish_s + stall
        )
        for record in stalled.records:
            assert record.serve_time_s == pytest.approx(
                record.finish_s - record.request.arrival_s, abs=1e-15
            )

    def test_core_recovers_after_stall(self, tiny_dag):
        cluster = make_cluster(num_cores=2)
        cluster.deploy(tiny_dag)
        schedule = FaultSchedule().core_stall(
            at_s=10e-6, core=0, duration_s=20e-6
        )
        result = cluster.serve_trace(
            steady_trace(count=60), fault_schedule=schedule
        )
        assert result.stats.core_health[0] == "healthy"
        assert any(r.core == 0 and r.finish_s > 30e-6 for r in result.records)


class TestSLODrops:
    def test_expired_requests_are_shed_loudly(self, tiny_dag):
        cluster = make_cluster(num_cores=1, queue_capacity=256)
        cluster.deploy(tiny_dag)
        result = cluster.serve_trace(
            steady_trace(count=50, spacing_s=1e-7),
            slo_s=5e-6,
        )
        assert result.stats.slo_dropped > 0
        assert accounted(result) == 50
        assert result.dropped == result.stats.dropped
        # Served requests were dispatched within their deadline.
        for record in result.records:
            dispatch_wait = (
                record.finish_s
                - record.request.arrival_s
                - record.datapath_s
                - record.compute_s
            )
            assert dispatch_wait <= 5e-6 + record.batch_size * 1e-4

    def test_slo_drops_count_on_nic_counters(self, tiny_dag):
        cluster = make_cluster(num_cores=1, queue_capacity=256)
        cluster.deploy(tiny_dag)
        result = cluster.serve_trace(
            steady_trace(count=50, spacing_s=1e-7), slo_s=5e-6
        )
        assert cluster.nic_counters.dropped >= result.stats.slo_dropped


class TestTimeout:
    def test_partial_stats_with_unfinished_accounting(self, tiny_dag):
        cluster = make_cluster(num_cores=2)
        cluster.deploy(tiny_dag)
        result = cluster.serve_trace(
            steady_trace(count=60), timeout_s=30e-6
        )
        assert 0 < result.served < 60
        assert result.unfinished > 0
        assert accounted(result) == 60
        assert all(r.finish_s <= 30e-6 for r in result.records)

    def test_generous_timeout_changes_nothing(self, tiny_dag):
        cluster = make_cluster(num_cores=2)
        cluster.deploy(tiny_dag)
        result = cluster.serve_trace(steady_trace(count=30), timeout_s=1.0)
        assert result.served == 30
        assert not result.unfinished

    def test_timeout_accounts_a_short_trace(self, tiny_dag):
        cluster = make_cluster(num_cores=2)
        cluster.deploy(tiny_dag)
        result = cluster.serve_trace(
            steady_trace(count=30), timeout_s=30e-6
        )
        assert accounted(result) == 30

    def test_rejects_nonpositive_timeout(self, tiny_dag, fault_cluster):
        with pytest.raises(ValueError, match="timeout"):
            fault_cluster.serve_trace(steady_trace(count=5), timeout_s=0.0)


class TestServeFrames:
    def query_frames(self, count=40, spacing_s=1e-6):
        rng = np.random.default_rng(3)
        frames = []
        for i in range(count):
            request = InferenceRequest(
                model_id=1, request_id=i, data=rng.random(12)
            )
            frames.append(
                WireFrame(
                    arrival_s=i * spacing_s,
                    raw=build_inference_frame(request),
                )
            )
        return frames

    def test_wire_and_core_faults_compose(self, tiny_dag):
        schedule = (
            FaultSchedule(seed=5)
            .frame_drop(at_s=0.0, duration_s=1e-3, probability=0.2)
            .frame_corrupt(at_s=0.0, duration_s=1e-3, probability=0.2)
            .core_crash(at_s=20e-6, core=1)
        )
        cluster = make_cluster(num_cores=2)
        cluster.deploy(tiny_dag)
        result, report = cluster.serve_frames(
            self.query_frames(), fault_schedule=schedule
        )
        assert report.offered == 40
        assert report.dropped > 0
        # Delivered frames are either parsed queries or punts ...
        assert (
            result.offered + cluster.nic_counters.punted
            == report.delivered
        )
        # ... and every parsed query is accounted by the serve loop.
        assert accounted(result) == result.offered
        assert cluster.nic_counters.frames_seen == report.delivered

    def test_clean_wire_serves_everything(self, tiny_dag):
        cluster = make_cluster(num_cores=2)
        cluster.deploy(tiny_dag)
        result, report = cluster.serve_frames(self.query_frames())
        assert report.delivered == report.offered == 40
        assert result.served == 40
        assert cluster.nic_counters.served == 40

    def hostile_frame(self, arrival_s, model_id=1, size=12):
        request = InferenceRequest(
            model_id=model_id, request_id=999, data=np.zeros(size)
        )
        return WireFrame(arrival_s, build_inference_frame(request))

    @pytest.mark.parametrize(
        "hostile", [{"model_id": 55}, {"size": 11}, {"size": 13}],
        ids=["unknown-model", "short-payload", "long-payload"],
    )
    def test_one_hostile_query_does_not_abort_the_serve(
        self, tiny_dag, hostile
    ):
        """Regression: an undeployed model id raised ``KeyError`` before
        the clock started, a payload of the wrong length ``ValueError``
        mid-serve; either took every other frame down with it."""
        cluster = make_cluster(num_cores=2)
        cluster.deploy(tiny_dag)
        frames = self.query_frames(count=10)
        frames.insert(5, self.hostile_frame(4.5e-6, **hostile))
        result, report = cluster.serve_frames(frames)
        assert report.delivered == 11
        assert result.offered == result.served == 10
        assert cluster.nic_counters.summary() == {
            "served": 10, "punted": 0, "dropped": 1, "frames_seen": 11,
        }

    def test_a_frame_is_seen_once_whatever_its_retries(self, tiny_dag):
        """Regression: each admission-queue offer — the first, and one
        more per crash retry — used to count the frame again."""
        schedule = FaultSchedule(seed=5).core_crash(at_s=3e-6, core=1)
        cluster = make_cluster(num_cores=2)
        cluster.deploy(tiny_dag)
        result, report = cluster.serve_frames(
            self.query_frames(count=20), fault_schedule=schedule
        )
        retried = cluster.stats.retries
        assert retried > 0
        assert cluster.nic_counters.frames_seen == report.delivered == 20
        # ... and handed over already parsed, once per offered request.
        trace = steady_trace(count=20, spacing_s=1e-6)
        again = cluster.serve_trace(trace, fault_schedule=schedule)
        assert cluster.stats.retries > retried
        assert cluster.nic_counters.frames_seen == 20 + again.offered
