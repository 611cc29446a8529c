"""Determinism contract for process-parallel cluster serving.

``Cluster(execution="parallel")`` must be an *implementation detail*:
for a fixed seed, every observable of a serve — predictions, the
t_q/t_d/t_c decomposition of every record, drop/fail/retry accounting,
busy seconds, the horizon — must match the serial run bit for bit,
including under active fault schedules (crash mid-batch, stalls,
device drift, watchdog quarantine) and drop-head admission queues.

These tests run the *real* worker processes with a *noisy* core model
(Gaussian readout noise), so they exercise the keyed noise substream
contract, the DAG each worker is sent and compiles for itself, and the
fault-forwarding pipes — not just a degenerate noiseless path.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import (
    ComputationDAG,
    LayerTask,
    LightningDatapath,
    ReferenceDatapath,
)
from repro.core.dag import AttentionShape, ConvShape, PoolShape
from repro.core.stats import Outcome
from repro.faults import CalibrationWatchdog, FaultSchedule, RetryPolicy
from repro.photonics import BehavioralCore, CoreArchitecture, GaussianNoise
from repro.runtime import Cluster, RuntimeRequest, executor
from repro.runtime import parallel as parallel_module

from .worker_stream import ScriptedPipe


def make_cluster(execution, num_cores=4, hardware_batch=1, **kwargs):
    """A noisy, seeded cluster — per-core seeds shared by both modes."""
    arch = CoreArchitecture(
        accumulation_wavelengths=2, batch_size=hardware_batch
    )
    return Cluster(
        num_cores=num_cores,
        datapath_factory=lambda core: LightningDatapath(
            core=BehavioralCore(
                architecture=arch, noise=GaussianNoise(), seed=core
            ),
            seed=core,
        ),
        execution=execution,
        **kwargs,
    )


def dense_dag(model_id: int = 1, seed: int = 7) -> ComputationDAG:
    rng = np.random.default_rng(seed)
    return ComputationDAG(
        model_id,
        "tiny-mlp",
        [
            LayerTask(
                name="fc1", kind="dense", input_size=12, output_size=8,
                weights_levels=rng.integers(-4, 5, (8, 12)).astype(float),
                nonlinearity="relu",
            ),
            LayerTask(
                name="fc2", kind="dense", input_size=8, output_size=4,
                weights_levels=rng.integers(-4, 5, (4, 8)).astype(float),
                depends_on=("fc1",),
            ),
        ],
    )


def mixed_dag(model_id: int = 2, seed: int = 3) -> ComputationDAG:
    """Conv + pool + attention + dense: every plan class."""
    rng = np.random.default_rng(seed)
    conv = ConvShape(1, 6, 6, out_channels=2, kernel=3, padding=1)
    pool = PoolShape(channels=2, height=6, width=6, kernel=2)
    attn = AttentionShape(seq_len=3, d_model=6)
    return ComputationDAG(
        model_id,
        "mixed",
        [
            LayerTask(
                name="conv1", kind="conv",
                input_size=conv.input_size, output_size=conv.output_size,
                weights_levels=rng.integers(-200, 201, (2, 9)).astype(float),
                conv=conv, nonlinearity="relu", requant_divisor=8.0,
            ),
            LayerTask(
                name="pool1", kind="maxpool",
                input_size=pool.input_size, output_size=pool.output_size,
                pool=pool, depends_on=("conv1",),
            ),
            LayerTask(
                name="attn", kind="attention",
                input_size=attn.input_size, output_size=attn.output_size,
                weights_levels=rng.integers(
                    -200, 201, (4 * attn.d_model, attn.d_model)
                ).astype(float),
                attention=attn, depends_on=("pool1",),
                requant_divisor=4.0,
            ),
            LayerTask(
                name="fc", kind="dense",
                input_size=attn.output_size, output_size=3,
                weights_levels=rng.integers(
                    -200, 201, (3, attn.output_size)
                ).astype(float),
                depends_on=("attn",),
            ),
        ],
    )


def steady_trace(count=48, spacing_s=2e-6, model_id=1, size=12, seed=1):
    rng = np.random.default_rng(seed)
    return [
        RuntimeRequest(
            request_id=i,
            model_id=model_id,
            arrival_s=i * spacing_s,
            data_levels=rng.integers(0, 256, size=size).astype(np.float64),
        )
        for i in range(count)
    ]


def assert_bit_identical(serial, parallel) -> None:
    """Field-by-field equality of two ClusterResults — no tolerances."""
    assert serial.offered == parallel.offered
    assert len(serial.records) == len(parallel.records)
    for a, b in zip(serial.records, parallel.records):
        assert a.request.request_id == b.request.request_id
        assert a.core == b.core
        assert a.batch_size == b.batch_size
        assert a.queuing_s == b.queuing_s
        assert a.datapath_s == b.datapath_s
        assert a.compute_s == b.compute_s
        assert a.finish_s == b.finish_s
        assert a.prediction == b.prediction
    for fate in (Outcome.DROPPED, Outcome.FAILED, Outcome.UNFINISHED):
        assert [r.request_id for r in serial.outcomes.requests(fate)] == [
            r.request_id for r in parallel.outcomes.requests(fate)
        ]
    assert serial.busy_seconds == parallel.busy_seconds
    assert serial.horizon_s == parallel.horizon_s
    assert serial.stats.summary() == parallel.stats.summary()
    assert serial.stats.per_model_served == parallel.stats.per_model_served
    assert serial.stats.core_health == parallel.stats.core_health


def run_both(dag, trace, *, cluster_kwargs=None, **serve_kwargs):
    """Serve one trace serially and in parallel; return both results."""
    cluster_kwargs = cluster_kwargs or {}
    serial = make_cluster("serial", **cluster_kwargs)
    serial.deploy(dag)
    serial_result = serial.serve_trace(trace, **serve_kwargs)
    with make_cluster("parallel", **cluster_kwargs) as parallel:
        parallel.deploy(dag)
        parallel_result = parallel.serve_trace(trace, **serve_kwargs)
    return serial_result, parallel_result


class TestParallelDeterminism:
    def test_clean_trace_bit_identical(self):
        serial, parallel = run_both(dense_dag(), steady_trace())
        assert serial.served == serial.offered
        assert_bit_identical(serial, parallel)

    def test_every_plan_kind_replays_identically(self):
        dag = mixed_dag()
        trace = steady_trace(
            count=24, model_id=dag.model_id, size=dag.tasks[0].input_size
        )
        serial, parallel = run_both(dag, trace)
        assert serial.served == serial.offered
        assert_bit_identical(serial, parallel)

    def test_mixed_geometry_cores_bit_identical(self):
        # Cores 0 and 2 read out 2 wavelengths, core 1 reads out 4: the
        # parent compiles once per geometry, every worker for its own.
        def factory(core):
            arch = CoreArchitecture(
                accumulation_wavelengths=4 if core == 1 else 2
            )
            return LightningDatapath(
                core=BehavioralCore(
                    architecture=arch, noise=GaussianNoise(), seed=core
                ),
                seed=core,
            )

        dags = (dense_dag(), mixed_dag())
        rng = np.random.default_rng(5)
        trace = [
            RuntimeRequest(
                request_id=i,
                model_id=dags[i % 2].model_id,
                arrival_s=i * 2e-6,
                data_levels=rng.integers(
                    0, 256, dags[i % 2].tasks[0].input_size
                ).astype(np.float64),
            )
            for i in range(60)
        ]
        results = []
        for execution in ("serial", "parallel"):
            with Cluster(
                num_cores=3, datapath_factory=factory, execution=execution
            ) as cluster:
                assert len({d.plan_geometry for d in cluster.datapaths}) == 2
                for dag in dags:
                    cluster.deploy(dag)
                results.append(cluster.serve_trace(trace))
        serial, parallel = results
        assert serial.served == serial.offered == 60
        assert {record.core for record in serial.records} == {0, 1, 2}
        assert_bit_identical(serial, parallel)

    def test_coalesced_batches_bit_identical(self):
        # Arrivals far faster than service → real multi-request
        # batches, with two pipeline passes each (hardware_batch=2,
        # max_batch=4), through the broadcast batch path.
        trace = steady_trace(count=64, spacing_s=1e-7)
        serial, parallel = run_both(
            dense_dag(),
            trace,
            cluster_kwargs={"hardware_batch": 2, "max_batch": 4},
        )
        assert max(r.batch_size for r in serial.records) > 1
        assert_bit_identical(serial, parallel)

    def test_drop_head_overload_bit_identical(self):
        trace = steady_trace(count=96, spacing_s=5e-8)
        serial, parallel = run_both(
            dense_dag(),
            trace,
            cluster_kwargs={
                "num_cores": 2,
                "queue_capacity": 4,
                "drop_policy": "drop-head",
            },
        )
        assert serial.dropped  # the overload must actually bite
        assert_bit_identical(serial, parallel)

    def test_consecutive_traces_reproduce(self):
        # The keyed substreams reset per trace: the same cluster
        # serving the same trace twice gives the same predictions.
        with make_cluster("parallel") as cluster:
            cluster.deploy(dense_dag())
            first = cluster.serve_trace(steady_trace())
            second = cluster.serve_trace(steady_trace())
        assert [r.prediction for r in first.records] == [
            r.prediction for r in second.records
        ]


class TestParallelFaultDeterminism:
    def test_faulted_run_bit_identical(self):
        # Crash lands mid-batch on a busy core, a stall freezes
        # another, drift degrades a third until the watchdog
        # quarantines it — the full resilience machinery, both modes.
        schedule = (
            FaultSchedule(seed=2)
            .core_stall(at_s=20e-6, core=0, duration_s=30e-6)
            .core_crash(at_s=50e-6, core=1)
            .mzm_bias_drift(at_s=10e-6, core=2, volts_per_s=1e5)
        )
        trace = steady_trace(count=60)
        serial, parallel = run_both(
            dense_dag(),
            trace,
            fault_schedule=schedule,
            watchdog=CalibrationWatchdog(interval_s=15e-6),
            retry_policy=RetryPolicy(max_retries=2, backoff_s=1e-6),
        )
        assert serial.stats.retries > 0  # the crash voided a batch
        assert "quarantined" in serial.stats.core_health.values()
        assert_bit_identical(serial, parallel)

    def test_relock_cycle_bit_identical(self):
        # A drifted core is quarantined, bias-swept, re-probed on the
        # keyed re-lock substream, and readmitted — the full repair
        # loop must replay bit-identically: the worker re-bases its
        # fault replicas from the forwarded residuals, so post-re-lock
        # batches perturb identically in both modes.
        from repro.faults import BiasRelockController

        schedule = FaultSchedule(seed=9).mzm_bias_drift(
            at_s=1e-6, core=2, volts_per_s=3000.0
        )
        watchdog = CalibrationWatchdog(
            interval_s=100e-6, relock=BiasRelockController()
        )
        trace = steady_trace(count=80)
        serial, parallel = run_both(
            dense_dag(),
            trace,
            fault_schedule=schedule,
            watchdog=watchdog,
        )
        # The cycle actually ran and the core ended the trace in
        # service — otherwise this test would pass vacuously.
        assert serial.stats.quarantines >= 1
        assert serial.stats.relocks >= 1
        assert serial.stats.core_health[2] == "healthy"
        # The probe fires at 100 us and the sweep costs ~18 us, so any
        # core-2 completion after 120 us happened post-readmission.
        assert any(
            r.core == 2 and r.finish_s > 120e-6 for r in serial.records
        )
        assert_bit_identical(serial, parallel)

    def test_crash_mid_batch_discards_worker_result(self):
        # With one slow core and a crash timed inside its dispatch,
        # the worker's orphaned result must be dropped, the entries
        # retried, and accounting must still match serial exactly.
        schedule = FaultSchedule().core_crash(at_s=5e-6, core=0)
        trace = steady_trace(count=20, spacing_s=1e-6)
        serial, parallel = run_both(
            dense_dag(),
            trace,
            cluster_kwargs={"num_cores": 2},
            fault_schedule=schedule,
            retry_policy=RetryPolicy(max_retries=2, backoff_s=1e-6),
        )
        assert serial.served + serial.failed == serial.offered
        assert_bit_identical(serial, parallel)

    def test_timeout_drains_workers_cleanly(self):
        trace = steady_trace(count=40)
        serial, parallel = run_both(
            dense_dag(), trace, timeout_s=30e-6
        )
        assert serial.unfinished  # the timeout must actually bite
        assert_bit_identical(serial, parallel)


class TestWorkerLifecycle:
    def test_close_stops_every_worker(self):
        cluster = make_cluster("parallel")
        cluster.deploy(dense_dag())
        procs = cluster._pool._procs
        assert all(proc.is_alive() for proc in procs)
        cluster.close()
        assert not any(proc.is_alive() for proc in procs)
        assert [proc.exitcode for proc in procs] == [0] * len(procs)

    def test_close_is_idempotent(self):
        cluster = make_cluster("parallel")
        cluster.deploy(dense_dag())
        cluster.close()
        cluster.close()

    def test_serial_cluster_has_no_workers(self):
        before = set(multiprocessing.active_children())
        cluster = make_cluster("serial")
        cluster.deploy(dense_dag())
        assert set(multiprocessing.active_children()) <= before
        cluster.close()  # must be a harmless no-op


class TestWindowInvariance:
    """The signalling window is pure mechanism: W must never leak.

    Dispatch slots are ordered by the ring and every batch's noise is
    keyed by its dispatch sequence, so how many batches share one
    semaphore post cannot change a served bit — predictions, timing
    decompositions, busy-seconds ledgers, or the accounting identity.
    """

    @given(
        window=st.sampled_from([1, 4, 16]),
        spacing_s=st.sampled_from([5e-8, 2e-6]),
    )
    @settings(max_examples=6, deadline=None)
    def test_window_never_changes_observables(self, window, spacing_s):
        trace = steady_trace(count=32, spacing_s=spacing_s)
        serial, parallel = run_both(
            dense_dag(),
            trace,
            cluster_kwargs={"window": window, "max_batch": 4},
        )
        accounted = (
            parallel.served
            + parallel.dropped
            + parallel.failed
            + parallel.unfinished
        )
        assert accounted == parallel.offered
        assert_bit_identical(serial, parallel)

    @pytest.mark.parametrize("window", [1, 16])
    def test_faulted_trace_window_invariant(self, window):
        # The full resilience machinery — crash retries, a stall, a
        # drifting core that gets quarantined, swept, and relocked —
        # at the window extremes, against the windowless serial loop.
        from repro.faults import BiasRelockController

        schedule = (
            FaultSchedule(seed=2)
            .core_stall(at_s=20e-6, core=0, duration_s=30e-6)
            .core_crash(at_s=50e-6, core=1)
            .mzm_bias_drift(at_s=10e-6, core=2, volts_per_s=1e5)
        )
        trace = steady_trace(count=60)
        serial, parallel = run_both(
            dense_dag(),
            trace,
            cluster_kwargs={"window": window},
            fault_schedule=schedule,
            watchdog=CalibrationWatchdog(
                interval_s=15e-6, relock=BiasRelockController()
            ),
            retry_policy=RetryPolicy(max_retries=2, backoff_s=1e-6),
        )
        assert serial.stats.retries > 0
        assert serial.stats.quarantines >= 1
        assert_bit_identical(serial, parallel)


class TestCompletionModes:
    """Completion slots carry one ``int32`` prediction per row.

    The worker's ``np.argmax`` is the exact reduction the serial loop
    runs on the same float64 outputs, so both must agree bit for bit.
    """

    def test_predictions_match_serial(self):
        serial, parallel = run_both(
            dense_dag(),
            steady_trace(),
            cluster_kwargs={"max_batch": 4},
        )
        assert serial.served == serial.offered
        assert_bit_identical(serial, parallel)


class TestStallFreeDispatch:
    """Deep serves never wait out the poll timer.

    ``serve_trace`` defers every join until the virtual clock drains,
    so each worker is sent many windows before the parent reads an
    answer.  With ``POLL_S`` raised to 30 s any wait the timer has to
    break (a worker that never evaluates its backlog, or a parent and
    worker each blocked sending to the other) blows the 10 s budget,
    so a pass cannot be a lucky schedule.
    """

    @pytest.mark.parametrize("num_cores", [1, 2])
    def test_deep_serve_never_sleeps_on_the_timer(
        self, monkeypatch, num_cores
    ):
        monkeypatch.setattr(parallel_module, "POLL_S", 30.0)
        kwargs = {"num_cores": num_cores, "window": 8}
        dag = dense_dag()
        with make_cluster("parallel", **kwargs) as cluster:
            cluster.deploy(dag)
            depth = 8 * cluster._pool.window
            # Slow enough that nothing queues past the admission
            # bound: every request is its own single-row dispatch.
            trace = steady_trace(
                count=5 * depth * num_cores // 4, spacing_s=8e-6
            )
            started = time.perf_counter()
            parallel = cluster.serve_trace(trace)
            elapsed = time.perf_counter() - started
            assert cluster._pool.poll_timeouts == 0
        assert elapsed < 10.0
        assert parallel.served == parallel.offered
        per_core = Counter(r.core for r in parallel.records)
        assert all(r.batch_size == 1 for r in parallel.records)
        assert min(per_core[core] for core in range(num_cores)) >= depth
        serial = make_cluster("serial", **kwargs)
        serial.deploy(dag)
        assert_bit_identical(serial.serve_trace(trace), parallel)

    def test_join_on_one_core_drains_its_siblings(self):
        # Blocking for core 0's next answer must first take in what
        # worker 1 already answered, or it would sit in worker 1's
        # pipe until the join order got round to it.
        with make_cluster("parallel", num_cores=2) as cluster:
            dag = dense_dag()
            cluster.deploy(dag)
            pool = cluster._pool
            burst = 2 * pool.window
            for i in range(burst):
                pool.run(1, dag.model_id, np.zeros(12), 0.0, (0, 0, 0, i))
            pool.flush()
            pipe = pool._pipes[1]
            deadline = time.monotonic() + 10.0
            while not (pool._stash[1] or pipe.poll()):
                assert time.monotonic() < deadline, "worker 1 never answered"
                time.sleep(0.001)
            # Below the window, so worker 0 only hears of this batch
            # when result() flushes — after the cross-core drain.
            seq = pool.run(0, dag.model_id, np.zeros(12), 0.0, (0, 0, 0, 0))
            pool.result(0, seq)
            assert len(pool._stash[1]) == burst
            assert not pipe.poll()
            pool.drain()
            assert pool.poll_timeouts == 0


LIVENESS_REQUESTS = 45_000

#: One parallel core serving a width-2, one-output dense model, with
#: a forward block of ~20 000 rows that takes 0.5 s to evaluate: while
#: the worker evaluates, the parent fills the worker's pipe, and the
#: answer to a block outgrows the parent's.  Both patches land before
#: the fork, so the worker inherits them.
LIVENESS_SCRIPT = f"""
import time

import numpy as np

from repro.core import ComputationDAG, LayerTask
from repro.runtime import Cluster, RuntimeRequest, executor

executor.BLOCK_BYTES = 640_000
evaluate = executor.evaluate


def slow(*args):
    time.sleep(0.5)
    return evaluate(*args)


executor.evaluate = slow
dag = ComputationDAG(1, "width-2", [LayerTask(
    name="fc", kind="dense", input_size=2, output_size=1,
    weights_levels=np.ones((1, 2)),
)])
levels = np.ones(2)
requests = [
    RuntimeRequest(index, 1, index * 1e-9, levels)
    for index in range({LIVENESS_REQUESTS})
]
with Cluster(
    num_cores=1, execution="parallel", queue_capacity={LIVENESS_REQUESTS}
) as cluster:
    cluster.deploy(dag)
    print(cluster.serve_trace(requests).served)
"""


def test_a_worker_busy_past_both_pipe_buffers_still_serves():
    """A worker never blocks sending while the parent blocks sending
    to it: a serve whose traffic outgrows both pipe buffers during one
    long evaluation completes.  Run in a session of its own, so a
    deadlock fails on the timeout, and its worker dies with it, instead
    of hanging the suite."""
    src = Path(repro.__file__).resolve().parents[1]
    with subprocess.Popen(
        [sys.executable, "-c", LIVENESS_SCRIPT],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        start_new_session=True,
    ) as serve:
        try:
            out, err = serve.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(serve.pid, signal.SIGKILL)
            raise
    assert serve.returncode == 0, err
    assert int(out) == LIVENESS_REQUESTS


class TestWorkerHeapFrozen:
    def test_worker_freezes_the_heap_it_inherited(self):
        assert gc.get_freeze_count() == 0
        try:
            # Run the worker loop inline: the empty script ends it at
            # once, after the datapath was built and the heap frozen.
            parallel_module._worker_main(
                0, lambda core: object(), ScriptedPipe()
            )
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()

    def test_first_serve_after_a_build_never_trips_the_poll_timer(self):
        # A worker forks with the parent's whole heap; unfrozen, its
        # first full collection walks all of it mid-batch (65-100 ms
        # measured around batch 12), longer than POLL_S, and the parent
        # sits out a timer expiry.  The stack benchmark's parallel
        # shape: LeNet- and GPT-2-class models, one request per
        # dispatch, window 8, a light Poisson load.  A pause the
        # worker owes to its heap shows on every build; a 50 ms hiccup
        # of a shared host does not, so one clean build in three passes.
        from repro.perf.bench import gpt2_class_dag, lenet_class_dag
        from repro.runtime.workload import poisson_trace

        dags = [
            lenet_class_dag(0, model_id=1), gpt2_class_dag(0, model_id=2)
        ]
        trace = poisson_trace(dags, 6_000.0, 160, seed=0)
        expired = []
        for _ in range(3):
            cluster = Cluster(
                num_cores=2,
                datapath_factory=lambda core: LightningDatapath(
                    core=BehavioralCore(seed=core), seed=core
                ),
                execution="parallel",
                queue_capacity=1024,
                max_batch=1,
                window=8,
            )
            with cluster:
                for dag in dags:
                    cluster.deploy(dag)
                result = cluster.serve_trace(trace)
                expired.append(cluster._pool.poll_timeouts)
            assert result.served == result.offered == len(trace)
            if expired[-1] == 0:
                break
        assert expired[-1] == 0, f"poll timer expired on every build: {expired}"


def test_a_poll_timer_during_a_collect_keeps_the_join_order(monkeypatch):
    # Each evaluation outlasts many poll timers, so the answers land
    # while the parent waits with expired timers behind it; they still
    # join in dispatch order.
    evaluate = executor.evaluate

    def slow(*args):
        time.sleep(0.2)
        return evaluate(*args)

    monkeypatch.setattr(executor, "evaluate", slow)  # before the fork
    monkeypatch.setattr(parallel_module, "POLL_S", 0.01)
    with make_cluster("parallel", num_cores=1) as cluster:
        dag = dense_dag()
        cluster.deploy(dag)
        pool = cluster._pool
        dispatches = [
            (np.full(12, 20.0 * k), 0.0, (0, 0, 0, k)) for k in range(2)
        ]
        seqs = [pool.run(0, dag.model_id, *d) for d in dispatches]
        expected = evaluate(cluster.datapaths[0], dag.model_id, dispatches)
        assert [pool.result(0, seq) for seq in seqs] == expected
        assert pool.poll_timeouts > 0


def refuse_in_workers(monkeypatch, refuses) -> None:
    """Have a worker refuse to register a DAG when ``refuses(dag,
    worker_name)`` says so (patched before the fork, so each worker
    has its own copy of any state ``refuses`` keeps; the parent's own
    registrations pass through)."""
    register = LightningDatapath.register_model

    def refusing(self, dag, plan=None):
        worker = multiprocessing.current_process().name
        if worker.startswith("lightning-core-") and refuses(dag, worker):
            raise ValueError(f"model {dag.model_id} refused")
        register(self, dag, plan)

    monkeypatch.setattr(LightningDatapath, "register_model", refusing)


def assert_no_worker_serves(pool, model_id: int, input_size: int) -> None:
    """Every worker answers a run of ``model_id`` with an error naming
    the model: none has it registered."""
    for core in range(pool.num_cores):
        seq = pool.run(
            core, model_id, np.zeros(input_size), 0.0, (0, core, 0, 0)
        )
        with pytest.raises(RuntimeError) as raised:
            pool.result(core, seq)
        assert str(raised.value).rstrip().endswith(
            f"KeyError: 'no DAG registered for model id {model_id}'"
        )


class TestWorkerCrashHardening:
    def test_dead_worker_raises_instead_of_hanging(self):
        # A worker killed while the parent awaits its window must
        # surface as a loud error from the stall guard, not a hang.
        with make_cluster("parallel", num_cores=2) as cluster:
            dag = dense_dag()
            cluster.deploy(dag)
            pool = cluster._pool
            os.kill(pool._procs[0].pid, signal.SIGKILL)
            pool._procs[0].join(timeout=10.0)
            seq = pool.run(
                0, dag.model_id, np.zeros(12), 0.0, (0, 0, 0, 0)
            )
            with pytest.raises(RuntimeError, match="worker 0 died"):
                pool.result(0, seq)

    def test_worker_death_names_where_the_worker_was(self):
        # One batch answered, the worker SIGKILLed, two more sent: the
        # error names the awaited and last dispatched seqs, how many
        # were outstanding, and the exit code.
        with make_cluster("parallel", num_cores=2) as cluster:
            dag = dense_dag()
            cluster.deploy(dag)
            pool = cluster._pool

            def send(batch):
                key = (0, 0, 0, batch)
                return pool.run(0, dag.model_id, np.zeros(12), 0.0, key)

            assert len(pool.result(0, send(0))) == 1
            os.kill(pool._procs[0].pid, signal.SIGKILL)
            pool._procs[0].join(timeout=10.0)
            last = [send(batch) for batch in (1, 2)][-1]
            with pytest.raises(RuntimeError) as raised:
                pool.result(0, last)
            message = str(raised.value)
            assert message.startswith("worker 0 died")
            for field in (
                "awaited seq 1", "last dispatched seq 2", "2 outstanding",
                "exitcode -9",
            ):
                assert field in message, message

    def test_worker_failure_surfaces_the_exception_in_the_parent(self):
        # An out-of-range input fails the worker's forward pass; the
        # parent's error must end with the exception's type and
        # message, whatever the completion slot cut from the traceback.
        with make_cluster("parallel", num_cores=1) as cluster:
            dag = dense_dag()
            cluster.deploy(dag)
            pool = cluster._pool
            seq = pool.run(
                0, dag.model_id, np.full(12, 300.0), 0.0, (0, 0, 0, 0)
            )
            with pytest.raises(RuntimeError) as raised:
                pool.result(0, seq)
            message = str(raised.value)
            assert message.startswith("worker 0 failed on batch 0")
            # Where the worker was: awaited and last dispatched seq, and
            # how many were outstanding when its answer surfaced.
            assert message.splitlines()[0] == (
                "worker 0 failed on batch 0 (awaited seq 0, last "
                "dispatched seq 0, 1 outstanding):"
            )
            assert message.rstrip().endswith(
                "ValueError: activations must be non-negative 0..255 "
                "levels (signs are carried by the weights after sign "
                "separation)"
            )
            # The worker survives its failed batch.
            seq = pool.run(
                0, dag.model_id, np.zeros(12), 0.0, (0, 0, 0, 1)
            )
            assert len(pool.result(0, seq)) == 1
            # An answer the parent did not await names the same fields.
            first, second = (
                pool.run(0, dag.model_id, np.zeros(12), 0.0, (0, 0, 0, k))
                for k in (2, 3)
            )
            with pytest.raises(RuntimeError) as raised:
                pool.result(0, second)
            assert str(raised.value) == (
                f"worker 0 answered batch {first} while the parent awaited "
                f"another (awaited seq {second}, last dispatched seq "
                f"{second}, 2 outstanding)"
            )
            assert len(pool.result(0, second)) == 1

    def test_a_failed_deploy_leaves_no_ack_behind(self, monkeypatch):
        # Every worker refuses model 9: the deploy raises for worker 0,
        # and worker 1's refusal must not be taken for its answer to
        # the next deploy.
        refuse_in_workers(monkeypatch, lambda dag, _: dag.model_id == 9)
        with make_cluster("parallel", num_cores=2) as cluster:
            with pytest.raises(RuntimeError) as raised:
                cluster.deploy(dense_dag(model_id=9))
            message = str(raised.value)
            assert message.startswith("worker 0 failed to deploy model 9")
            assert message.rstrip().endswith("ValueError: model 9 refused")
            cluster.deploy(dense_dag())
            parallel = cluster.serve_trace(steady_trace())
        serial = make_cluster("serial", num_cores=2)
        serial.deploy(dense_dag())
        assert_bit_identical(serial.serve_trace(steady_trace()), parallel)

    def test_a_deploy_a_worker_refuses_is_undone_everywhere(
        self, monkeypatch
    ):
        # Worker 0 refuses model 9 once (each worker keeps its own
        # count), worker 1 takes it: the deploy must leave no model in
        # the parent or in either worker.
        refused = []

        def nine_once_on_worker_0(dag, worker):
            if dag.model_id != 9 or worker != "lightning-core-0" or refused:
                return False
            refused.append(dag.model_id)
            return True

        refuse_in_workers(monkeypatch, nine_once_on_worker_0)
        dag = dense_dag(model_id=9)
        trace = steady_trace(model_id=9)
        with make_cluster("parallel", num_cores=2) as cluster:
            with pytest.raises(RuntimeError) as raised:
                cluster.deploy(dag)
            assert str(raised.value).startswith(
                "worker 0 failed to deploy model 9"
            )
            assert cluster.model_ids == ()
            assert all(d.timing_plan(9) is None for d in cluster.datapaths)
            assert all(d.model_plan(9) is None for d in cluster.datapaths)
            assert_no_worker_serves(cluster._pool, 9, input_size=12)
            cluster.deploy(dag)  # worker 1 let the model go again
            parallel = cluster.serve_trace(trace)
        serial = make_cluster("serial", num_cores=2)
        serial.deploy(dag)
        assert_bit_identical(serial.serve_trace(trace), parallel)

    def test_a_deploy_the_parent_refuses_is_undone_in_the_workers(self):
        dag = dense_dag(model_id=9)
        trace = steady_trace(model_id=9)
        with make_cluster("parallel", num_cores=2) as cluster:
            second = cluster.datapaths[1]

            def refuse(dag, plan=None):
                raise ValueError("core 1 refused")

            second.register_model = refuse
            with pytest.raises(ValueError, match="core 1 refused"):
                cluster.deploy(dag)
            del second.register_model
            assert cluster.datapaths[0].model_plan(9) is None
            assert_no_worker_serves(cluster._pool, 9, input_size=12)
            cluster.deploy(dag)  # both workers let the model go again
            parallel = cluster.serve_trace(trace)
        serial = make_cluster("serial", num_cores=2)
        serial.deploy(dag)
        assert_bit_identical(serial.serve_trace(trace), parallel)

    def test_close_after_worker_kill_stops_all(self):
        # SIGKILL one worker, then send it two windows of runs (its
        # pipe refuses them): close() must give up on the graceful
        # stop yet return with every worker gone.
        cluster = make_cluster("parallel", num_cores=2)
        dag = dense_dag()
        cluster.deploy(dag)
        pool = cluster._pool
        os.kill(pool._procs[0].pid, signal.SIGKILL)
        pool._procs[0].join(timeout=10.0)
        for _ in range(2 * pool.window):
            pool.run(0, dag.model_id, np.zeros(12), 0.0, (0, 0, 0, 0))
        pool.close(join_timeout_s=0.5)
        cluster.close()  # must stay a harmless no-op afterwards
        assert not any(proc.is_alive() for proc in pool._procs)
        assert pool._procs[0].exitcode == -signal.SIGKILL


class TestParallelValidation:
    def test_unknown_execution_mode_rejected(self):
        with pytest.raises(ValueError, match="execution mode"):
            make_cluster("speculative")

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError, match="dispatch window"):
            make_cluster("parallel", window=0)

    def test_loop_fidelity_rejected_at_deploy(self):
        cluster = Cluster(
            num_cores=2,
            datapath_factory=lambda core: ReferenceDatapath(),
            execution="parallel",
        )
        with pytest.raises(ValueError, match="ReferenceDatapath"):
            cluster.deploy(dense_dag())
        cluster.close()
