"""One serve as an object: handlers in isolation, and what a serve
leaves behind.

``Cluster.serve_trace`` builds a ``_ServeRun`` and runs it.  The first
half of this file drives a run's handlers directly on a small real
cluster — transitions no end-to-end trace isolates.  The second half
pins the exit contract (a serve that raises, in the parent or in a
worker, leaves the cluster as a fresh one), the deadline partition at
dispatch, and the fault-schedule check that runs before the clock.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core import DatapathTracer
from repro.faults import (
    BiasRelockController,
    CalibrationWatchdog,
    FaultSchedule,
    RetryPolicy,
)
from repro.core.stats import Outcome, OutcomeReason
from repro.runtime import RuntimeRecord, RuntimeRequest, executor
from repro.runtime.cluster import _VOID, _ServeRun

from .test_cluster import make_cluster, request, second_dag


def build_run(
    cluster,
    trace,
    schedule=None,
    watchdog=None,
    policy=RetryPolicy(),
    slo_s=None,
    timeout_s=None,
) -> _ServeRun:
    faults = schedule.events if schedule is not None else ()
    return _ServeRun(
        cluster, trace, faults, watchdog, policy, slo_s, timeout_s
    )


def arrive(run, count=1, now=0.0) -> None:
    """Hand the clock's next ``count`` arrivals to their handler."""
    for _ in range(count):
        event = run.events.pop()
        assert event.kind == "arrival"
        run.on_arrival(event.payload, now)


def ids(requests) -> list[int]:
    return [r.request_id for r in requests]


def fated(run, fate) -> list:
    """The requests a run's rows so far gave ``fate``, in row order."""
    return run.rows.seal().requests(fate)


def event_kinds(tracer) -> list[str]:
    return [event.kind for event in tracer.events]


class TestHandlers:
    def test_stall_supersedes_the_inflight_completion(self, tiny_dag):
        cluster = make_cluster(num_cores=1)
        cluster.deploy(tiny_dag)
        run = build_run(cluster, [request(0)])
        arrive(run)
        run.dispatch(0.0)
        slot = run.slots[0]
        batch = slot.inflight
        stamp, finish, service = batch.epoch, batch.finish_s, batch.service_s
        (stall,) = FaultSchedule().core_stall(
            at_s=1e-6, core=0, duration_s=5e-6
        ).events
        run.on_fault(stall, 1e-6)
        assert slot.epoch == batch.epoch == stamp + 1
        assert batch.finish_s == finish + 5e-6
        assert batch.service_s == service + 5e-6
        assert slot.free_at == batch.finish_s
        assert (slot.health.state, slot.stalled_until) == ("stalled", 6e-6)
        assert run.events.pending("complete") == [
            (0, stamp), (0, stamp + 1)
        ]
        # The superseded completion fires first and changes nothing.
        assert run.on_complete((0, stamp), finish) is _VOID
        assert slot.inflight is batch
        assert (len(run.rows), run.busy_seconds, run.stats.served) == (0, 0, 0)
        assert run.on_complete((0, slot.epoch), batch.finish_s) is None
        assert slot.inflight is None
        (record,) = RuntimeRecord.rows(run.rows.seal())
        assert record.finish_s == finish + 5e-6
        assert record.queuing_s == pytest.approx(5e-6)  # the stall, in t_q
        assert run.busy_seconds == batch.service_s

    def test_crash_while_benched_readmits_nothing(
        self, tiny_dag, monkeypatch
    ):
        cluster = make_cluster(num_cores=2)
        cluster.deploy(tiny_dag)
        watchdog = CalibrationWatchdog(
            interval_s=20e-6, relock=BiasRelockController()
        )
        schedule = FaultSchedule().mzm_bias_drift(
            at_s=1e-6, core=1, volts_per_s=2e5
        ).core_crash(at_s=25e-6, core=1)
        drift, crash = schedule.events
        run = build_run(cluster, [request(0)], watchdog=watchdog)
        run.on_fault(drift, 1e-6)
        run.on_probe(None, 20e-6)
        slot = run.slots[1]
        assert slot.health.state == "recalibrating"
        assert run.events.pending("recalibrate") == [1]
        run.on_fault(crash, 25e-6)
        probes = slot.health.probes

        def unreachable(*args, **kwargs):
            raise AssertionError("a crashed core is not swept or probed")

        monkeypatch.setattr(watchdog, "check", unreachable)
        monkeypatch.setattr(watchdog.relock, "relock_core", unreachable)
        run.on_recalibrate(1, 40e-6)
        assert slot.health.state == "crashed"
        assert (slot.relock_attempts, slot.health.probes) == (0, probes)
        assert (slot.health.relocks, run.stats.relocks) == (0, 0)
        assert run.events.pending("recalibrate") == [1]  # nothing re-armed

    def test_probe_goes_quiet_once_the_trace_has_drained(
        self, tiny_dag, monkeypatch
    ):
        cluster = make_cluster(num_cores=2)
        cluster.deploy(tiny_dag)
        watchdog = CalibrationWatchdog(interval_s=20e-6)
        run = build_run(cluster, [request(0)], watchdog=watchdog)
        arrive(run)
        run.dispatch(0.0)
        (core,) = [i for i, s in enumerate(run.slots) if s.inflight]
        assert run.work_pending()
        run.on_complete((core, 0), run.slots[core].free_at)
        assert not run.work_pending()

        def unreachable(*args, **kwargs):
            raise AssertionError("nothing left for a probe to protect")

        monkeypatch.setattr(watchdog, "check", unreachable)
        armed = run.events.pending("probe")
        run.on_probe(None, 20e-6)
        assert run.probe_round == 0
        assert all(slot.health.probes == 0 for slot in run.slots)
        assert run.events.pending("probe") == armed

    def test_admission_is_one_path_for_arrivals_and_retries(self, tiny_dag):
        tracer = DatapathTracer()
        cluster = make_cluster(
            num_cores=1, queue_capacity=2, drop_policy="drop-head",
            tracer=tracer,
        )
        cluster.deploy(tiny_dag)
        trace = [request(i) for i in range(3)]
        run = build_run(cluster, trace)
        assert run.HANDLERS["retry"] is run.HANDLERS["arrival"]
        arrive(run, 3)
        # The full queue evicted its head to admit the third arrival.
        assert fated(run, Outcome.DROPPED) == [trace[0]]
        assert run.rows.seal().reason.tolist() == [
            OutcomeReason.QUEUE_OVERFLOW
        ]
        # The queue moves the NIC's counter; the stats wait for the fold.
        assert (run.stats.dropped, cluster.nic_counters.dropped) == (0, 1)
        assert ids(e.item for e in cluster._queues[1].drain()) == [1, 2]
        assert event_kinds(tracer) == ["enqueue", "enqueue", "drop"]
        assert run.unadmitted == 0
        # A retried request is admitted — and traced — as an arrival is.
        run._requeue(trace[1], 1e-6)
        assert (run.unadmitted, run.events.pending("retry")) == (1, [trace[1]])
        run.HANDLERS["retry"](run, trace[1], 2e-6)
        assert run.unadmitted == 0
        assert event_kinds(tracer)[-2:] == ["retry", "enqueue"]
        assert tracer.events[-1].detail == {"request_id": 1, "depth": 1}

    def test_crash_aborts_the_inflight_batch(self, tiny_dag, monkeypatch):
        cluster = make_cluster(num_cores=2, max_batch=2)
        cluster.deploy(tiny_dag)
        trace = [request(0), request(1)]
        run = build_run(
            cluster, trace, policy=RetryPolicy(max_retries=1, backoff_s=1e-6)
        )
        arrive(run, 2)
        run.dispatch(0.0)
        (core,) = [i for i, s in enumerate(run.slots) if s.inflight]
        slot = run.slots[core]
        assert ids(e.item for e in slot.inflight.entries) == [0, 1]
        (crash,) = FaultSchedule().core_crash(at_s=1e-7, core=core).events
        run.on_fault(crash, 1e-7)
        assert (slot.health.state, slot.inflight, slot.epoch) == (
            "crashed", None, 1,
        )
        # Wasted work is work; both entries went to the retry policy.
        assert run.busy_seconds == 1e-7
        assert (run.stats.retries, run.unadmitted) == (2, 2)
        assert run.events.pending("retry") == trace
        assert run.attempts == {0: 1, 1: 1}
        # Its executor handle is gone: serving the retries to the end
        # evaluates two rows, never the aborted batch's.
        rows = []
        evaluate = executor.evaluate

        def counting(datapath, model_id, dispatches):
            rows.extend(
                len(np.atleast_2d(levels)) for levels, _, _ in dispatches
            )
            return evaluate(datapath, model_id, dispatches)

        monkeypatch.setattr(executor, "evaluate", counting)
        run.events.run(run.step)
        result = run.result()
        assert sum(rows) == result.served == 2
        assert {r.core for r in result.records} == {1 - core}
        # Losing a request again exhausts the one retry it had.
        run._requeue(trace[0], 1.0)
        assert ids(fated(run, Outcome.FAILED)) == [0]

    def test_result_after_a_timeout_counts_each_leftover_once(
        self, tiny_dag
    ):
        cluster = make_cluster(num_cores=2)
        cluster.deploy(tiny_dag)
        trace = [request(0), request(1), request(2), request(3, arrival=1.0)]
        run = build_run(
            cluster,
            trace,
            policy=RetryPolicy(max_retries=1, backoff_s=0.5),
            timeout_s=1e-6,
        )
        for _ in range(3):  # both cores busy: request 2 stays queued
            arrive(run)
            run.dispatch(0.0)
        (lost,) = [
            i for i, s in enumerate(run.slots)
            if s.inflight.entries[0].item is trace[1]
        ]
        (crash,) = FaultSchedule().core_crash(at_s=1e-7, core=lost).events
        run.on_fault(crash, 1e-7)
        result = run.result()
        # In flight, queued, not yet arrived, awaiting its retry.
        assert ids(result.outcomes.requests(Outcome.UNFINISHED)) == [
            0, 2, 3, 1
        ]
        assert (result.served, result.dropped, result.failed) == (0, 0, 0)
        assert result.offered == result.unfinished == 4
        assert (run.stats.offered, run.stats.unfinished) == (4, 4)
        assert all(q.depth == 0 for q in cluster._queues.values())


class TestDeadlinePartition:
    """The SLO filter at dispatch sorts a batch by deadline alone."""

    def test_equal_requests_in_one_batch_are_served(self, tiny_dag):
        # A retransmitted frame: three requests equal in id, model and
        # arrival time (ids come off the wire in serve_frames).
        cluster = make_cluster(num_cores=1, max_batch=4)
        cluster.deploy(tiny_dag)
        trace = [request(0)] + [request(7, seed=s) for s in (1, 2, 3)]
        result = cluster.serve_trace(trace, slo_s=1.0)
        assert ids(r.request for r in result.records) == [0, 7, 7, 7]
        assert result.records[-1].batch_size == 3

    def test_expired_entries_drop_once_and_live_ones_keep_fifo_order(
        self, tiny_dag
    ):
        cluster = make_cluster(num_cores=1, max_batch=4)
        cluster.deploy(tiny_dag)
        # Retries re-enter at the tail, so expired requests can sit
        # behind a live head: queue order live, expired, live, expired.
        arrivals = (9e-6, 0.0, 9.5e-6, 1e-6)
        trace = [request(i, arrival=t) for i, t in enumerate(arrivals)]
        run = build_run(cluster, trace, slo_s=5e-6)
        for item in trace:
            run.on_arrival(item, 10e-6)
        run.dispatch(10e-6)
        assert ids(fated(run, Outcome.DROPPED)) == [1, 3]
        table = run.rows.seal()
        assert table.reason.tolist() == [OutcomeReason.SLO] * 2
        run.fold(table)
        assert (run.stats.slo_dropped, run.stats.dropped) == (2, 2)
        assert cluster.nic_counters.dropped == 2
        assert ids(e.item for e in run.slots[0].inflight.entries) == [0, 2]

    def test_a_queue_of_expired_requests_yields_to_the_next_ready_queue(
        self, tiny_dag
    ):
        cluster = make_cluster(num_cores=1, max_batch=4)
        cluster.deploy(tiny_dag)
        cluster.deploy(second_dag())
        stale = [request(i, model_id=1, arrival=i * 1e-7) for i in range(3)]
        fresh = request(9, model_id=2, arrival=9e-6)
        run = build_run(cluster, stale + [fresh], slo_s=5e-6)
        for item in stale + [fresh]:
            run.on_arrival(item, 10e-6)
        run.dispatch(10e-6)
        assert ids(fated(run, Outcome.DROPPED)) == [0, 1, 2]
        run.fold(run.rows.seal())
        assert run.stats.slo_dropped == 3
        assert ids(e.item for e in run.slots[0].inflight.entries) == [9]


def poisoned(count=6):
    """Six requests at t = 0, the second carrying a NaN."""
    trace = [request(i) for i in range(count)]
    levels = trace[1].data_levels.copy()
    levels[3] = np.nan
    trace[1] = RuntimeRequest(1, 1, 0.0, levels)
    return trace


def fingerprint(result) -> list[tuple]:
    return [
        (r.request.request_id, r.core, r.finish_s, r.queuing_s, r.prediction)
        for r in result.records
    ]


class TestExitContract:
    """Whatever ends a serve, the next one starts from a clean cluster."""

    @pytest.mark.parametrize("execution", ["serial", "parallel"])
    def test_a_failed_serve_does_not_poison_the_next(
        self, tiny_dag, execution
    ):
        follow_up = [request(100), request(101)]
        # The twin never fails.  A datapath's DRAM-jitter stream runs on
        # across serves, so it first replays as many ledgers as the
        # failed serve charged: the serial parent stopped at the NaN,
        # the parallel one charged all six before the join surfaced it.
        charged = 1 if execution == "serial" else 6
        with make_cluster(
            num_cores=1, execution=execution
        ) as twin, make_cluster(
            num_cores=1, execution=execution
        ) as cluster:
            twin.deploy(tiny_dag)
            twin.serve_trace([request(i) for i in range(charged)])
            cluster.deploy(tiny_dag)
            # Serial: the parent refuses the NaN at dispatch, mid-clock.
            # Parallel: the worker does, and the join re-raises it.
            error = ValueError if execution == "serial" else RuntimeError
            with pytest.raises(error, match="activations"):
                cluster.serve_trace(poisoned())
            # Counters remember the admitted frames; entries are gone.
            assert cluster.queue_counters() == {
                1: {"admitted": 6, "dropped": 0}
            }
            assert all(q.depth == 0 for q in cluster._queues.values())
            if execution == "parallel":
                assert not any(cluster._pool._outstanding)
            cluster.stats.accounted()
            assert cluster.stats.offered == 6
            result = cluster.serve_trace(follow_up)
            assert ids(r.request for r in result.records) == [100, 101]
            assert result.offered == 2
            result.stats.accounted()
            assert fingerprint(result) == fingerprint(
                twin.serve_trace(follow_up)
            )

    def test_a_finished_run_is_freed_without_the_collector(self, tiny_dag):
        # A run holds every record and dispatch of its serve; nothing
        # in it may point back at it, or they outlive serve_trace until
        # the cycle collector gets round to them.
        cluster = make_cluster(num_cores=2)
        cluster.deploy(tiny_dag)
        gc.disable()
        try:
            run = build_run(cluster, [request(i) for i in range(8)])
            assert run.run().served == 8
            alive = weakref.ref(run)
            del run
            assert alive() is None
        finally:
            gc.enable()

    def test_a_returned_serve_leaves_empty_queues(self, tiny_dag):
        # Crash the only core: leftovers are failed, never left queued.
        cluster = make_cluster(num_cores=1)
        cluster.deploy(tiny_dag)
        result = cluster.serve_trace(
            [request(i) for i in range(5)],
            fault_schedule=FaultSchedule().core_crash(at_s=1e-9, core=0),
            retry_policy=RetryPolicy(max_retries=0),
        )
        assert result.failed == 5
        assert all(q.depth == 0 for q in cluster._queues.values())
        assert cluster._executor._done == {}
        assert not any(cluster._executor._pending)


class TestFaultScheduleIsCheckedBeforeTheClockStarts:
    @pytest.mark.parametrize("build", [
        lambda s: s.core_stall(at_s=3e-6, core=5, duration_s=1e-6),
        lambda s: s.core_crash(at_s=3e-6, core=5),
        lambda s: s.laser_drift(at_s=3e-6, core=5, fraction_per_s=10.0),
        lambda s: s.mzm_bias_drift(at_s=3e-6, core=2, volts_per_s=1.0),
    ])
    def test_out_of_range_core_is_rejected_with_nothing_mutated(
        self, tiny_dag, build
    ):
        cluster = make_cluster(num_cores=2)
        cluster.deploy(tiny_dag)

        def observable():
            return (
                repr(cluster.nic_counters),
                cluster.queue_counters(),
                cluster.plan_stats(),
                cluster.stats.offered,
                cluster.stats.served,
            )

        before = observable()
        schedule = build(FaultSchedule())
        (fault,) = schedule.events
        with pytest.raises(ValueError) as raised:
            cluster.serve_trace(
                [request(i, arrival=i * 1e-6) for i in range(8)],
                fault_schedule=schedule,
            )
        message = str(raised.value)
        assert fault.kind in message
        assert f"core {fault.core}" in message and "2 cores" in message
        assert observable() == before

    def test_wire_faults_carry_no_core_and_pass(self, tiny_dag):
        cluster = make_cluster(num_cores=2)
        cluster.deploy(tiny_dag)
        schedule = FaultSchedule().frame_drop(
            at_s=0.0, duration_s=1e-3, probability=0.5
        )
        result = cluster.serve_trace(
            [request(i) for i in range(4)], fault_schedule=schedule
        )
        assert result.served == 4
