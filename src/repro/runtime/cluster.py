"""A multi-core serving cluster over real Lightning datapaths.

:class:`Cluster` is the runtime the paper's §9 simulator abstracts: N
photonic cores (independent
:class:`~repro.core.datapath.LightningDatapath` instances sharing the
same deployed DAGs), a pluggable
:class:`~repro.runtime.schedulers.Scheduler`, bounded per-model
admission queues with explicit drop policies, and an opportunistic
:class:`~repro.runtime.batching.BatchingCoalescer`.  A virtual-clock
event loop (the same discrete-event engine as the simulator) serves a
request trace through the *real* cycle-accounted datapath, so every
served request carries the paper's serve-time decomposition:

* ``t_q`` (queuing) — waiting in the bounded admission queue plus any
  pipeline-pass staggering inside a coalesced batch (the DRAM-buffered
  time of §9), plus any core-stall time the request rode out;
* ``t_d`` (datapath) — the digital datapath and memory-streaming cost
  of one pipeline pass, from the datapath's own cycle ledger;
* ``t_c`` (compute) — photonic dot products, adders, non-linearities.

The identity ``finish - arrival == t_q + t_d + t_c`` holds exactly for
every record, faults or no faults.

Resilience: ``serve_trace`` accepts a
:class:`~repro.faults.schedule.FaultSchedule` whose device and core
faults replay on the same virtual clock as arrivals — device faults
wrap the target datapath's core in a
:class:`~repro.faults.device.DegradedCore` mid-run, stalls freeze a
core (extending its in-flight batch), and crashes remove it for good,
sending the lost batch through the
:class:`~repro.faults.resilience.RetryPolicy`.  A
:class:`~repro.faults.resilience.CalibrationWatchdog` probes healthy
cores on its interval and quarantines any whose analog error drifts
past threshold; an ``slo_s`` deadline sheds requests that can no longer
answer in time; ``timeout_s`` bounds the virtual clock so a mis-sized
trace terminates with partial stats instead of spinning.  Every request
ends in exactly one bucket — ``served + dropped + failed + unfinished
== offered`` — so degraded runs stay fully accounted.

Energy: each served request is priced by the cluster's
:class:`~repro.core.energy.EnergyModel` from the same t_q/t_d/t_c
decomposition its record carries, and lands in the
:class:`~repro.core.stats.ServerStats` energy ledger.  The charge
happens parent-side at finalization — in parallel execution the timing
was already fixed by the dispatch-time dry run — so serial and parallel
serves charge bit-identical joules in both completion modes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..core.datapath import LightningDatapath, TimingEstimate
from ..core.dag import ComputationDAG
from ..core.energy import EnergyModel
from ..core.plans import export_model_plan, import_model_plan
from ..core.stats import NICCounters, ServerStats
from ..core.trace import DatapathTracer
from ..faults.device import DegradedCore, device_fault_from_event
from ..faults.resilience import CalibrationWatchdog, CoreHealth, RetryPolicy
from ..faults.schedule import (
    DEVICE_FAULT_KINDS,
    WIRE_FAULT_KINDS,
    FaultSchedule,
)
from ..faults.wire import (
    WireFaultInjector,
    WireFaultReport,
    WireFrame,
    requests_from_frames,
)
from ..net.parser import PacketParser
from ..sim.events import EventQueue
from .batching import BatchingCoalescer, stack_levels
from .executor import InlineExecutor
from .parallel import CoreWorkerPool, pool_finalizer
from .queues import DROP_POLICIES, AdmissionQueue, QueueEntry
from .schedulers import CoreHealthView, RoundRobinScheduler, Scheduler

__all__ = ["RuntimeRequest", "RuntimeRecord", "ClusterResult", "Cluster"]

#: Domain separators for the keyed readout-noise substreams.  Every
#: batch draws from ``Philox(seed, BATCH, core, epoch, batch)``, every
#: watchdog probe from ``Philox(seed, PROBE, core, round)``, and every
#: post-re-lock confirmation probe from ``Philox(seed, RELOCK, core,
#: attempt)``, in both execution modes — so the draws a dispatch
#: consumes depend only on its key, never on scheduling order, and
#: ``execution="parallel"`` reproduces the serial run bit for bit.
_BATCH_RNG_DOMAIN = 0xB0
_PROBE_RNG_DOMAIN = 0xA5
_RELOCK_RNG_DOMAIN = 0x9C


@dataclass(frozen=True)
class RuntimeRequest:
    """One inference query offered to the cluster."""

    request_id: int
    model_id: int
    arrival_s: float
    data_levels: np.ndarray

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError("arrival time cannot be negative")


@dataclass(frozen=True)
class RuntimeRecord:
    """One served request with its t_q/t_d/t_c decomposition."""

    request: RuntimeRequest
    core: int
    batch_size: int
    queuing_s: float
    datapath_s: float
    compute_s: float
    finish_s: float
    prediction: int

    @property
    def serve_time_s(self) -> float:
        """Arrival to result (t_q + t_d + t_c == finish - arrival)."""
        return self.queuing_s + self.datapath_s + self.compute_s


@dataclass
class _Dispatch:
    """One in-flight batch on one core, finalized at completion time.

    Records are *not* written at dispatch: a stall can push the finish
    out and a crash can void the batch entirely, so the outcome is only
    known when the completion event (carrying a matching ``epoch``)
    fires.

    On the compiled path the numerics are the executor's (a worker
    process, or the in-process backlog): ``outputs`` stays ``None``
    and the predictions are collected by ``worker_seq`` after the
    event loop (timing was already fixed at dispatch by the ledger
    replay, so event ordering never depends on them).
    """

    core: int
    model_id: int
    entries: Sequence[QueueEntry]
    start_s: float
    finish_s: float
    service_s: float
    pass_datapath_s: float
    pass_compute_s: float
    outputs: list[np.ndarray] | None
    epoch: int = 0
    worker_seq: int = -1

    @classmethod
    def charged(
        cls,
        core: int,
        model_id: int,
        entries: Sequence[QueueEntry],
        start_s: float,
        timing: TimingEstimate,
        outputs: list[np.ndarray] | None,
        worker_seq: int = -1,
    ) -> "_Dispatch":
        """A dispatch billed from its datapath timing.

        Each request's t_d/t_c is one pipeline pass's worth; any extra
        passes a large batch needs land in t_q (the request is
        DRAM-buffered while earlier passes stream), keeping the
        decomposition identity exact.
        """
        service_s = timing.total_seconds
        return cls(
            core=core,
            model_id=model_id,
            entries=list(entries),
            start_s=start_s,
            finish_s=start_s + service_s,
            service_s=service_s,
            pass_datapath_s=(
                timing.datapath_seconds + timing.memory_seconds
            ) / timing.passes,
            pass_compute_s=timing.compute_seconds / timing.passes,
            outputs=outputs,
            worker_seq=worker_seq,
        )


@dataclass(frozen=True)
class ClusterResult:
    """Everything one trace produced on the cluster."""

    records: tuple[RuntimeRecord, ...]
    dropped: tuple[RuntimeRequest, ...]
    stats: ServerStats
    num_cores: int
    busy_seconds: float
    horizon_s: float
    #: Requests abandoned after exhausting retries or stranded with no
    #: usable core left.
    failed: tuple[RuntimeRequest, ...] = ()
    #: Requests still queued, in flight, or not yet arrived when a
    #: ``timeout_s`` cut the run short.
    unfinished: tuple[RuntimeRequest, ...] = ()
    #: Requests in the offered trace (0 for results predating faults).
    offered: int = 0

    @property
    def served(self) -> int:
        """Requests that completed with a prediction."""
        return len(self.records)

    @property
    def shed(self) -> int:
        """Requests the cluster gave up on, loudly (dropped + failed)."""
        return len(self.dropped) + len(self.failed)

    @property
    def throughput_rps(self) -> float:
        """Sustained completions per second over the trace horizon."""
        if self.horizon_s <= 0:
            raise ValueError("no requests finished")
        return self.served / self.horizon_s

    def utilization(self) -> float:
        """Fraction of total core-time the datapaths were occupied."""
        if self.horizon_s <= 0:
            return 0.0
        return self.busy_seconds / (self.num_cores * self.horizon_s)

    def serve_times(self) -> np.ndarray:
        """Every request's serve time, in completion order."""
        return np.array([r.serve_time_s for r in self.records])

    def decomposition(self) -> dict[str, float]:
        """Mean t_q / t_d / t_c over all served requests, in seconds."""
        if not self.records:
            raise ValueError("no requests served")
        return {
            "t_q": float(np.mean([r.queuing_s for r in self.records])),
            "t_d": float(np.mean([r.datapath_s for r in self.records])),
            "t_c": float(np.mean([r.compute_s for r in self.records])),
        }

    @property
    def mean_batch_size(self) -> float:
        """Average coalesced batch size across served requests."""
        if not self.records:
            raise ValueError("no requests served")
        return float(np.mean([r.batch_size for r in self.records]))


class Cluster:
    """N photonic cores behind schedulers, queues, and a coalescer."""

    def __init__(
        self,
        num_cores: int = 4,
        datapath_factory: Callable[[int], LightningDatapath] | None = None,
        scheduler: Scheduler | None = None,
        queue_capacity: int = 64,
        drop_policy: str = "drop-tail",
        max_batch: int = 1,
        tracer: DatapathTracer | None = None,
        execution: str = "serial",
        window: int = 8,
        energy_model: EnergyModel | str | None = "lightning",
    ) -> None:
        if num_cores < 1:
            raise ValueError("a cluster needs at least one core")
        if isinstance(energy_model, str):
            if energy_model != "lightning":
                raise ValueError(
                    f"unknown energy model {energy_model!r}; pass an "
                    "EnergyModel, 'lightning', or None to disable "
                    "energy accounting"
                )
            energy_model = EnergyModel.lightning()
        #: Prices each served request's t_q/t_d/t_c into joules on the
        #: stats energy ledger; ``None`` disables energy accounting.
        self.energy_model = energy_model
        if window < 1:
            raise ValueError("dispatch window must be at least 1")
        if execution not in ("serial", "parallel"):
            raise ValueError(
                f"unknown execution mode {execution!r}; "
                "choose 'serial' or 'parallel'"
            )
        # Validate queue parameters eagerly so a misconfigured cluster
        # fails at construction, not at the first deploy().
        if queue_capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        if drop_policy not in DROP_POLICIES:
            raise ValueError(
                f"unknown drop policy {drop_policy!r}; "
                f"choose from {DROP_POLICIES}"
            )
        factory = (
            datapath_factory
            if datapath_factory is not None
            else lambda core: LightningDatapath(seed=core)
        )
        self.datapaths: tuple[LightningDatapath, ...] = tuple(
            factory(core) for core in range(num_cores)
        )
        self.scheduler: Scheduler = (
            scheduler
            if scheduler is not None
            else RoundRobinScheduler(num_cores)
        )
        self.queue_capacity = queue_capacity
        self.drop_policy = drop_policy
        self.coalescer = BatchingCoalescer(max_batch=max_batch)
        #: Dispatch-signalling window for parallel execution (batches
        #: per worker wake-up); irrelevant to results, which are
        #: bit-identical at any window size.
        self.window = window
        self.tracer = tracer
        self.stats = ServerStats()
        #: Frame-level accounting shared with every admission queue, so
        #: both drop policies (and SLO sheds) charge the same counter.
        self.nic_counters = NICCounters()
        #: Per-core monitored condition, refreshed by each serve.
        self.health: dict[int, CoreHealth] = {
            i: CoreHealth() for i in range(num_cores)
        }
        self._dags: dict[int, ComputationDAG] = {}
        self._queues: dict[int, AdmissionQueue[RuntimeRequest]] = {}
        self.execution = execution
        self._pool: CoreWorkerPool | None = None
        self._pool_finalizer = None
        if execution == "parallel":
            # Workers adopt the one plan the parent publishes per
            # model, so a parallel cluster must be geometry-uniform;
            # heterogeneous core architectures belong on separate
            # shards of a repro.fabric.Fabric instead.
            geometries = {d.plan_geometry for d in self.datapaths}
            if len(geometries) > 1:
                raise ValueError(
                    "execution='parallel' needs every core to share "
                    "one plan geometry; split heterogeneous cores "
                    "across Fabric shards (repro.fabric)"
                )
            # Fork the workers before any model state accumulates so
            # each child starts from a lean image; the factory crosses
            # by fork inheritance (it is commonly an unpicklable
            # closure).  Plans ship later, at deploy, via shared
            # memory; dispatches ride per-worker ring buffers signalled
            # once per ``window`` batches.
            self._pool = CoreWorkerPool(
                num_cores,
                factory,
                window=window,
                max_batch=max_batch,
            )
            self._pool_finalizer = pool_finalizer(self, self._pool)
        #: Where compiled-path dispatches' numerics run (see
        #: :mod:`~repro.runtime.executor`).
        self._executor = (
            self._pool
            if self._pool is not None
            else InlineExecutor(self.datapaths)
        )

    # ------------------------------------------------------------------
    # Model management
    # ------------------------------------------------------------------
    @property
    def num_cores(self) -> int:
        return len(self.datapaths)

    @property
    def model_ids(self) -> tuple[int, ...]:
        """Models deployed on every core, in deployment order."""
        return tuple(self._dags)

    @property
    def deployed_dags(self) -> tuple[ComputationDAG, ...]:
        """The shared DAGs, one registration per core."""
        return tuple(self._dags.values())

    def deploy(self, dag: ComputationDAG, warmup: int = 1) -> None:
        """Register one DAG on every core and create its queue.

        Plan compilation is keyed per architecture: the first core of
        each distinct :class:`~repro.core.plans.PlanGeometry` compiles
        the DAG, and every later core with the same geometry adopts a
        re-imported view over the compiled arrays (the in-process
        analogue of the worker pool's shared-memory adoption) — so a
        heterogeneous cluster pays one compile per architecture, not
        one per core, while each datapath keeps private plan scratch
        and replay counters.

        Warm-up executes a few zero queries per core so first live
        requests do not pay one-time costs (sign-separation caching).
        """
        compiled: dict[object, tuple] = {}
        for datapath in self.datapaths:
            geometry = datapath.plan_geometry
            donor = compiled.get(geometry)
            if donor is not None:
                arrays, meta, donor_path = donor
                datapath.register_model(
                    dag,
                    plan=import_model_plan(
                        dag,
                        geometry,
                        arrays,
                        meta,
                        donor=donor_path.model_plan(dag.model_id),
                    ),
                )
                datapath.adopt_sign_separation(donor_path, dag.model_id)
                continue
            datapath.register_model(dag)
            plan = datapath.model_plan(dag.model_id)
            if plan is not None:
                arrays, meta = export_model_plan(plan)
                compiled[geometry] = (arrays, meta, datapath)
        if self._pool is not None:
            plan = self.datapaths[0].model_plan(dag.model_id)
            if plan is None:
                raise ValueError(
                    "execution='parallel' replays compiled plans; "
                    "build the cluster's datapaths with "
                    "fidelity='fast'"
                )
            # Publish the compiled state once into shared memory and
            # let every worker rebuild its plan from read-only views.
            self._pool.deploy(dag, plan)
        self._dags[dag.model_id] = dag
        self._queues[dag.model_id] = AdmissionQueue(
            model_id=dag.model_id,
            capacity=self.queue_capacity,
            policy=self.drop_policy,
            counters=self.nic_counters,
        )
        zeros = np.zeros(dag.tasks[0].input_size, dtype=np.float64)
        for datapath in self.datapaths:
            for _ in range(max(warmup, 0)):
                datapath.execute(dag.model_id, zeros)

    def undeploy(self, model_id: int) -> None:
        """Remove one deployed model from every core.

        Releases the model's compiled plans, sign caches, and admission
        queue; on parallel clusters the model's shared-memory segment
        is unlinked (worker mappings linger until the workers exit —
        live plan views forbid closing them earlier).  The queue must
        be empty: undeploying mid-trace is a control-plane bug, not a
        shedding mechanism.
        """
        if model_id not in self._dags:
            raise KeyError(f"model {model_id} is not deployed")
        queue = self._queues[model_id]
        if queue.depth:
            raise ValueError(
                f"model {model_id} still has {queue.depth} queued "
                "requests; drain or serve them before undeploying"
            )
        for datapath in self.datapaths:
            datapath.unregister_model(model_id)
        if self._pool is not None:
            self._pool.undeploy(model_id)
        del self._dags[model_id]
        del self._queues[model_id]

    def shared_segment_names(self) -> tuple[str, ...]:
        """Live shared-memory segments (empty for serial clusters).

        Exposed so tests can assert the unlink guarantee: after
        :meth:`close`, attaching any of these names must fail.
        """
        if self._pool is None:
            return ()
        return self._pool.segment_names

    def close(self) -> None:
        """Stop worker processes and unlink shared segments.

        Serial clusters have nothing to release; parallel clusters must
        be closed (or used as a context manager) so their segments do
        not outlive the process.  A garbage-collected cluster is also
        cleaned up via ``weakref.finalize``, but relying on the
        collector keeps segments around longer than needed.
        """
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def queue_counters(self) -> dict[int, dict[str, int]]:
        """Per-model admission/drop counters for operator dashboards."""
        return {
            model_id: {"admitted": q.admitted, "dropped": q.dropped}
            for model_id, q in self._queues.items()
        }

    def plan_stats(self) -> dict[int, dict[int, dict[str, int]]]:
        """Per-core compiled-plan cache statistics.

        Maps core index to the datapath's per-model plan stats (tasks
        compiled, requests replayed).  Cores serving on the fast path
        show replay counts climbing while the task counts stay flat —
        the compile-once, replay-many contract made observable.
        ``replays`` is cumulative since the deploy: a quarantine and
        re-lock keep a core's plans (no compiled constant reads its
        calibration state), so the count runs on across them.
        """
        return {
            core: datapath.plan_stats()
            for core, datapath in enumerate(self.datapaths)
        }

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(
        self,
        requests: Iterable[RuntimeRequest],
        **kwargs,
    ) -> ClusterResult:
        """Serve one arrival trace (alias of :meth:`serve_trace`).

        Accepts the same keywords, notably ``timeout_s`` to bound the
        virtual clock on a mis-sized trace.
        """
        return self.serve_trace(requests, **kwargs)

    def serve_trace(
        self,
        requests: Iterable[RuntimeRequest],
        *,
        fault_schedule: FaultSchedule | None = None,
        watchdog: CalibrationWatchdog | None = None,
        retry_policy: RetryPolicy | None = None,
        slo_s: float | None = None,
        timeout_s: float | None = None,
    ) -> ClusterResult:
        """Serve one arrival trace to completion on the virtual clock.

        ``fault_schedule`` replays device and core faults at their
        scheduled virtual times (wire faults are ingress-side — see
        :meth:`serve_frames`).  ``watchdog`` probes healthy cores every
        ``interval_s`` and quarantines drifted ones; a watchdog carrying
        a :class:`~repro.faults.resilience.BiasRelockController` then
        sweeps the quarantined core's modulator biases and returns it
        to service once a confirmation probe passes.  ``retry_policy``
        bounds re-enqueues of batches lost to crashes (default:
        :class:`~repro.faults.resilience.RetryPolicy`).  ``slo_s`` sheds
        requests whose deadline passed before dispatch.  ``timeout_s``
        stops the virtual clock early, returning partial stats with the
        leftovers in ``unfinished``.
        """
        if slo_s is not None and slo_s <= 0:
            raise ValueError("slo must be positive")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout must be positive")
        trace = sorted(requests, key=lambda r: r.arrival_s)
        if not trace:
            raise ValueError("cannot serve an empty trace")
        for request in trace:
            if request.model_id not in self._dags:
                raise KeyError(
                    f"model {request.model_id} is not deployed"
                )
        policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.scheduler.reset()
        events = EventQueue()
        health = {i: CoreHealth() for i in range(self.num_cores)}
        self.health = health
        core_free_at = [0.0] * self.num_cores
        core_busy = [False] * self.num_cores
        stalled_until = [0.0] * self.num_cores
        epoch = [0] * self.num_cores
        #: Per-core dispatch ordinal and global probe round — the
        #: "batch" components of the keyed noise substreams.  Reset per
        #: trace so a fixed seed reproduces a fixed trace exactly.
        dispatch_seq = [0] * self.num_cores
        probe_round = 0
        relock_attempts = [0] * self.num_cores
        relocker = watchdog.relock if watchdog is not None else None
        #: Health-aware policies receive a per-candidate snapshot right
        #: before each assign; everyone else skips the view building.
        wants_health = getattr(self.scheduler, "uses_health", False)
        inflight: dict[int, _Dispatch] = {}
        #: Finalized batches whose predictions are still the
        #: executor's: ``(first record index, dispatch)`` in
        #: finalization order.  Records are written with a placeholder
        #: prediction during the loop and patched after it, so the
        #: virtual clock never waits on numerics — a worker's compute
        #: overlaps the parent's ledger replays for later windows, and
        #: the in-process backlog runs in blocks.
        pending_joins: list[tuple[int, _Dispatch]] = []
        records: list[RuntimeRecord] = []
        dropped: list[RuntimeRequest] = []
        failed: list[RuntimeRequest] = []
        attempts: dict[int, int] = {}
        busy_seconds = 0.0
        remaining_arrivals = len(trace)
        pending_retries = 0
        for request in trace:
            events.push(request.arrival_s, "arrival", request)
        if fault_schedule is not None:
            for fault in fault_schedule.events:
                if fault.kind in WIRE_FAULT_KINDS:
                    continue  # ingress-side; see serve_frames
                events.push(fault.time_s, "fault", fault)
        if watchdog is not None:
            events.push(watchdog.interval_s, "probe")

        def emit(kind: str, label: str, detail: dict, now: float) -> None:
            if self.tracer is not None:
                self.tracer.emit(kind, label, detail, time_s=now)

        def set_core_time(core: int, now: float) -> None:
            wrapped = self.datapaths[core].core
            if isinstance(wrapped, DegradedCore):
                wrapped.set_time(now)

        def reseed_core(core: int, *key: int) -> None:
            # Rebase the core's readout-noise stream onto the keyed
            # Philox substream (no-op for cores without one, e.g. the
            # hardware prototype).  DegradedCore forwards to its inner
            # core.
            reseed = getattr(self.datapaths[core].core, "reseed_noise", None)
            if reseed is not None:
                reseed(*key)

        def work_pending() -> bool:
            if remaining_arrivals or pending_retries or inflight:
                return True
            queued = any(q.depth for q in self._queues.values())
            # A recalibrating core is out of service but expected back,
            # so queued work behind it still counts as pending.
            alive = any(
                health[i].state in ("healthy", "stalled", "recalibrating")
                for i in range(self.num_cores)
            )
            return queued and alive

        def fail(request: RuntimeRequest, now: float, reason: str) -> None:
            failed.append(request)
            self.stats.failed += 1
            emit(
                "fail",
                f"model:{request.model_id}",
                {"request_id": request.request_id, "reason": reason},
                now,
            )

        def slo_drop(request: RuntimeRequest, now: float) -> None:
            dropped.append(request)
            self.stats.dropped += 1
            self.stats.slo_dropped += 1
            self.nic_counters.dropped += 1
            emit(
                "slo_drop",
                f"model:{request.model_id}",
                {"request_id": request.request_id, "slo_s": slo_s},
                now,
            )

        def purge_expired(now: float) -> None:
            if slo_s is None:
                return
            for queue in self._queues.values():
                while (
                    queue.depth
                    and now - queue.peek().item.arrival_s > slo_s
                ):
                    slo_drop(queue.pop().item, now)

        def requeue(request: RuntimeRequest, now: float) -> None:
            nonlocal pending_retries
            count = attempts.get(request.request_id, 0) + 1
            attempts[request.request_id] = count
            if count > policy.max_retries:
                fail(request, now, "retries_exhausted")
                return
            self.stats.retries += 1
            pending_retries += 1
            events.push(now + policy.delay(count), "retry", request)
            emit(
                "retry",
                f"model:{request.model_id}",
                {"request_id": request.request_id, "attempt": count},
                now,
            )

        def abort_inflight(core: int, now: float) -> None:
            nonlocal busy_seconds
            batch = inflight.pop(core, None)
            if batch is None:
                return
            epoch[core] += 1
            core_busy[core] = False
            if batch.outputs is None:
                # A doomed batch's result is dropped (a worker computes
                # it anyway; the in-process backlog never does).
                self._executor.discard(core, batch.worker_seq)
            # The crashed dispatch's partial occupancy still counts
            # against the core — wasted work is work.
            busy_seconds += now - batch.start_s
            for entry in batch.entries:
                requeue(entry.item, now)

        def finalize(core: int, now: float) -> None:
            nonlocal busy_seconds
            batch = inflight.pop(core)
            core_busy[core] = False
            busy_seconds += batch.service_s
            if batch.outputs is None:
                # The timing was fixed at dispatch, so the record is
                # complete except for its prediction.  Defer the join
                # until the event loop drains — the placeholder is
                # patched in completion order, which per core is
                # dispatch order (a core serializes), so a worker's
                # strict-order collect still matches.
                pending_joins.append((len(records), batch))
            outputs = (
                batch.outputs
                if batch.outputs is not None
                else [None] * len(batch.entries)
            )
            for entry, output in zip(batch.entries, outputs):
                queuing_s = (
                    batch.finish_s
                    - entry.item.arrival_s
                    - batch.pass_datapath_s
                    - batch.pass_compute_s
                )
                record = RuntimeRecord(
                    request=entry.item,
                    core=core,
                    batch_size=len(batch.entries),
                    queuing_s=queuing_s,
                    datapath_s=batch.pass_datapath_s,
                    compute_s=batch.pass_compute_s,
                    finish_s=batch.finish_s,
                    prediction=(
                        -1 if output is None else int(np.argmax(output))
                    ),
                )
                records.append(record)
                self.stats.record(batch.model_id, record.serve_time_s)
                if self.energy_model is not None:
                    # Parent-side pricing of the decomposition the
                    # record carries: identical in serial and parallel
                    # execution, whose timings agree bit for bit.
                    self.stats.record_energy(
                        batch.model_id,
                        self.energy_model.energy(
                            datapath_s=batch.pass_datapath_s,
                            queuing_s=queuing_s,
                            compute_s=batch.pass_compute_s,
                        ),
                    )
                self.nic_counters.served += 1
            emit(
                "complete",
                f"core:{core}",
                {"model_id": batch.model_id, "batch": len(batch.entries)},
                now,
            )

        def apply_fault(fault, now: float) -> None:
            core = fault.core
            if fault.kind in DEVICE_FAULT_KINDS:
                # What the core was already sent it answers as it was.
                self._executor.settle(core)
                wrapper = DegradedCore.ensure(self.datapaths[core])
                wrapper.set_time(now)
                wrapper.install(device_fault_from_event(fault))
                if self._pool is not None:
                    # The worker's request ring is FIFO, so the fault
                    # lands between exactly the dispatches it separated
                    # on the virtual clock — same prefix a serial run
                    # would have applied.
                    self._pool.fault(core, fault, now)
                emit("fault", f"core:{core}", {"kind": fault.kind}, now)
                return
            if fault.kind == "core_crash":
                if health[core].state == "crashed":
                    return
                health[core].state = "crashed"
                emit("fault", f"core:{core}", {"kind": "core_crash"}, now)
                abort_inflight(core, now)
                return
            # core_stall: a dead or benched core cannot stall further.
            if health[core].state in (
                "crashed", "quarantined", "recalibrating"
            ):
                return
            stalled_until[core] = max(
                stalled_until[core], now + fault.duration_s
            )
            if health[core].state == "healthy":
                health[core].state = "stalled"
            batch = inflight.get(core)
            if batch is not None:
                # The frozen batch finishes late: invalidate its old
                # completion and push the delayed one.  The stall time
                # lands in each request's t_q, keeping the identity.
                epoch[core] += 1
                batch.epoch = epoch[core]
                batch.finish_s += fault.duration_s
                batch.service_s += fault.duration_s
                core_free_at[core] = batch.finish_s
                events.push(batch.finish_s, "complete", (core, batch.epoch))
            events.push(stalled_until[core], "stall_clear", core)
            emit(
                "fault",
                f"core:{core}",
                {"kind": "core_stall", "duration_s": fault.duration_s},
                now,
            )

        def run_probes(now: float) -> None:
            nonlocal probe_round
            if not work_pending():
                # The trace has drained; a probe (and any quarantine /
                # re-lock cycle it would start) can no longer affect a
                # request, so the watchdog goes quiet with the clock.
                return
            probe_round += 1
            for i in range(self.num_cores):
                if health[i].state != "healthy":
                    continue
                set_core_time(i, now)
                # Probes always run on the parent's core — its faults
                # and keyed noise stream match the workers', so the
                # quarantine decision is identical in both modes.
                reseed_core(i, _PROBE_RNG_DOMAIN, i, probe_round)
                result = watchdog.check(i, self.datapaths[i].core)
                health[i].error_rms = result.error_rms
                health[i].probes += 1
                emit(
                    "probe",
                    f"core:{i}",
                    {"error_rms": result.error_rms},
                    now,
                )
                if result.healthy:
                    continue
                health[i].state = "quarantined"
                health[i].quarantined_at_s = now
                self.stats.quarantines += 1
                emit(
                    "quarantine",
                    f"core:{i}",
                    {
                        "error_rms": result.error_rms,
                        "threshold": watchdog.threshold,
                    },
                    now,
                )
                schedule_relock(i, now)
            if work_pending():
                events.push(now + watchdog.interval_s, "probe")

        def relock_sweep_s(core: int) -> float:
            """Virtual time the core's bias sweeps will occupy."""
            wrapped = self.datapaths[core].core
            faults = (
                len(wrapped.relockable_faults())
                if isinstance(wrapped, DegradedCore)
                else 0
            )
            return relocker.sweep_duration_s * max(faults, 1)

        def schedule_relock(core: int, now: float) -> None:
            """Queue a re-lock attempt for a just-quarantined core."""
            if relocker is None:
                return
            if relock_attempts[core] >= relocker.max_attempts:
                return
            health[core].state = "recalibrating"
            events.push(now + relock_sweep_s(core), "recalibrate", core)
            emit(
                "recalibrate",
                f"core:{core}",
                {"attempt": relock_attempts[core] + 1},
                now,
            )

        def run_relock(core: int, now: float) -> None:
            """Finish a bias sweep: re-base faults, re-probe, readmit.

            The sweep's virtual time already elapsed (the recalibrate
            event was scheduled ``relock_sweep_s`` after quarantine);
            what remains is applying the found biases, mirroring them
            into the core's worker, and letting the watchdog decide
            whether the core rejoins the healthy set.
            """
            if health[core].state != "recalibrating":
                return  # crashed while benched; nothing to readmit
            relock_attempts[core] += 1
            self._executor.settle(core)
            set_core_time(core, now)
            report = relocker.relock_core(
                core, self.datapaths[core].core, now
            )
            if self._pool is not None and report.relocked:
                # Ring FIFO: the mirror lands after every batch the
                # worker was sent pre-quarantine, exactly where the
                # serial timeline re-based its own faults.
                self._pool.relock(core, now, report.residual_volts)
            reseed_core(core, _RELOCK_RNG_DOMAIN, core, relock_attempts[core])
            result = watchdog.check(core, self.datapaths[core].core)
            health[core].error_rms = result.error_rms
            health[core].probes += 1
            if result.healthy:
                health[core].state = "healthy"
                health[core].relocks += 1
                health[core].relocked_at_s = now
                self.stats.relocks += 1
                core_free_at[core] = now
                emit(
                    "relock",
                    f"core:{core}",
                    {
                        "error_rms": result.error_rms,
                        "relocked": report.relocked,
                        "uncorrectable": report.uncorrectable,
                    },
                    now,
                )
                return
            if relock_attempts[core] < relocker.max_attempts:
                # Another sweep may still help (e.g. the bias walked
                # during the confirmation probe); stay benched and try
                # again after one more sweep's worth of time.
                events.push(now + relock_sweep_s(core), "recalibrate", core)
                emit(
                    "relock_failed",
                    f"core:{core}",
                    {
                        "error_rms": result.error_rms,
                        "attempt": relock_attempts[core],
                    },
                    now,
                )
                return
            health[core].state = "quarantined"
            emit(
                "relock_failed",
                f"core:{core}",
                {"error_rms": result.error_rms, "permanent": True},
                now,
            )

        def dispatch(now: float) -> None:
            while True:
                purge_expired(now)
                idle = [
                    i
                    for i in range(self.num_cores)
                    if not core_busy[i] and health[i].state == "healthy"
                ]
                ready = [
                    q.view() for q in self._queues.values() if q.depth
                ]
                if not idle or not ready:
                    return
                if wants_health:
                    self.scheduler.observe_health([
                        CoreHealthView(
                            core=i,
                            state=health[i].state,
                            error_rms=health[i].error_rms,
                            busy_until_s=core_free_at[i],
                        )
                        for i in idle
                    ])
                model_id = self.scheduler.next_model(ready)
                entries = self.coalescer.take(self._queues[model_id])
                if slo_s is not None:
                    # Retries re-enter at the tail, so an expired
                    # request can hide behind a live head.
                    live = [
                        e
                        for e in entries
                        if now - e.item.arrival_s <= slo_s
                    ]
                    for entry in entries:
                        if entry not in live:
                            slo_drop(entry.item, now)
                    if not live:
                        continue
                    entries = live
                pick = self.scheduler.assign(
                    entries[0].item,
                    [core_free_at[i] for i in idle],
                    now_s=now,
                )
                core = idle[pick]
                key = (
                    _BATCH_RNG_DOMAIN,
                    core,
                    epoch[core],
                    dispatch_seq[core],
                )
                dispatch_seq[core] += 1
                if self.datapaths[core].fidelity == "fast":
                    batch = self._dispatch(core, model_id, entries, now, key)
                else:
                    set_core_time(core, now)
                    reseed_core(core, *key)
                    batch = self._run_batch(core, model_id, entries, now)
                batch.epoch = epoch[core]
                inflight[core] = batch
                core_busy[core] = True
                core_free_at[core] = batch.finish_s
                self.scheduler.account(model_id, batch.service_s)
                events.push(
                    batch.finish_s, "complete", (core, batch.epoch)
                )
                emit(
                    "dispatch",
                    f"core:{core}",
                    {
                        "model_id": model_id,
                        "batch": len(entries),
                        "service_us": batch.service_s * 1e6,
                    },
                    now,
                )

        def handle(event) -> None:
            nonlocal remaining_arrivals, pending_retries
            now = events.now
            if event.kind == "arrival":
                remaining_arrivals -= 1
                request: RuntimeRequest = event.payload
                queue = self._queues[request.model_id]
                victim = queue.offer(request, now)
                if victim is not None:
                    dropped.append(victim)
                    self.stats.dropped += 1
                    emit(
                        "drop",
                        f"model:{request.model_id}",
                        {
                            "request_id": victim.request_id,
                            "policy": queue.policy,
                        },
                        now,
                    )
                else:
                    emit(
                        "enqueue",
                        f"model:{request.model_id}",
                        {
                            "request_id": request.request_id,
                            "depth": queue.depth,
                        },
                        now,
                    )
            elif event.kind == "retry":
                pending_retries -= 1
                request = event.payload
                queue = self._queues[request.model_id]
                victim = queue.offer(request, now)
                if victim is not None:
                    dropped.append(victim)
                    self.stats.dropped += 1
                    emit(
                        "drop",
                        f"model:{request.model_id}",
                        {
                            "request_id": victim.request_id,
                            "policy": queue.policy,
                        },
                        now,
                    )
            elif event.kind == "complete":
                core, stamp = event.payload
                batch = inflight.get(core)
                if batch is None or batch.epoch != stamp:
                    return  # voided by a crash or superseded by a stall
                finalize(core, now)
            elif event.kind == "fault":
                apply_fault(event.payload, now)
            elif event.kind == "stall_clear":
                core = event.payload
                if (
                    health[core].state == "stalled"
                    and now >= stalled_until[core]
                ):
                    health[core].state = "healthy"
            elif event.kind == "probe":
                run_probes(now)
            elif event.kind == "recalibrate":
                run_relock(event.payload, now)
            dispatch(now)

        events.run(handle, until=timeout_s)

        # The event loop never waited on numerics; now join.  Batches
        # cut off by a timeout were never finalized: their results are
        # nobody's.  Then collect every finalized batch's predictions
        # in completion order (per core that is dispatch order) and
        # patch the placeholders — everything else in the record was
        # already exact at finalization — and leave the executor quiet
        # for the next serve (a worker's aborted batches still finish
        # in the background).
        for batch in inflight.values():
            if batch.outputs is None:
                self._executor.discard(batch.core, batch.worker_seq)
        for base, batch in pending_joins:
            batch.outputs = self._executor.result(
                batch.core, batch.worker_seq
            )
            for offset, value in enumerate(batch.outputs):
                records[base + offset] = dataclasses.replace(
                    records[base + offset],
                    prediction=int(value),
                )
        self._executor.drain()

        unfinished: list[RuntimeRequest] = []
        timed_out = timeout_s is not None and len(events) > 0
        if timed_out:
            for batch in inflight.values():
                unfinished.extend(e.item for e in batch.entries)
            for queue in self._queues.values():
                while queue.depth:
                    unfinished.append(queue.pop().item)
            unfinished.extend(events.pending("arrival"))
            unfinished.extend(events.pending("retry"))
        else:
            # A fully drained clock with queued leftovers means no
            # usable core remained — strand them loudly.
            for queue in self._queues.values():
                while queue.depth:
                    fail(queue.pop().item, events.now, "no_usable_core")
        self.stats.core_health = {
            i: health[i].state for i in range(self.num_cores)
        }
        # The cumulative ledger carries the trace's fate counters too,
        # so cross-serve aggregation (fabric shard merges) can check
        # the accounting invariant without re-deriving it.
        self.stats.offered += len(trace)
        self.stats.unfinished += len(unfinished)
        horizon = max((r.finish_s for r in records), default=0.0)
        return ClusterResult(
            records=tuple(records),
            dropped=tuple(dropped),
            stats=self.stats,
            num_cores=self.num_cores,
            busy_seconds=busy_seconds,
            horizon_s=horizon,
            failed=tuple(failed),
            unfinished=tuple(unfinished),
            offered=len(trace),
        )

    def serve_frames(
        self,
        frames: Sequence[WireFrame],
        *,
        fault_schedule: FaultSchedule | None = None,
        parser: PacketParser | None = None,
        **kwargs,
    ) -> tuple[ClusterResult, WireFaultReport]:
        """Serve raw timestamped frames through the faulty wire.

        The schedule's wire faults (drop/corrupt/reorder) act on the
        frame stream first; survivors parse through the real
        :class:`~repro.net.parser.PacketParser` (corrupted queries
        degrade to punts on :attr:`nic_counters`, never crashes), and
        the resulting requests serve through :meth:`serve_trace` with
        the same schedule's device/core faults.  Returns the serve
        result plus the wire's injection report.
        """
        schedule = (
            fault_schedule
            if fault_schedule is not None
            else FaultSchedule()
        )
        delivered, report = WireFaultInjector(schedule).apply(list(frames))
        requests, _ = requests_from_frames(
            delivered, parser=parser, counters=self.nic_counters
        )
        if not requests:
            raise ValueError(
                "no inference requests survived NIC ingress"
            )
        result = self.serve_trace(
            requests, fault_schedule=fault_schedule, **kwargs
        )
        return result, report

    def _run_batch(
        self,
        core: int,
        model_id: int,
        entries: Sequence[QueueEntry],
        start_s: float,
    ) -> _Dispatch:
        """Run one dispatch inline on a core that walks its layers.

        ``fidelity="loop"``/``"device"`` datapaths have no compiled
        programs to split a request into, so numerics and ledger are
        one ``execute`` here; a multi-request dispatch goes through the
        broadcast batch path.  Records are only finalized when the
        completion event fires — see :class:`_Dispatch`.
        """
        datapath = self.datapaths[core]
        if len(entries) == 1:
            execution = datapath.execute(
                model_id, entries[0].item.data_levels
            )
            outputs = [execution.output_levels]
        else:
            execution = datapath.execute_batch(
                model_id, stack_levels(entries)
            )
            outputs = list(execution.output_levels)
        return _Dispatch.charged(
            core, model_id, entries, start_s, execution.timing, outputs
        )

    def _dispatch(
        self,
        core: int,
        model_id: int,
        entries: Sequence[QueueEntry],
        start_s: float,
        key: tuple[int, ...],
    ) -> _Dispatch:
        """Charge one dispatch and hand its numerics to the executor.

        The request block and the noise key go to the executor — a
        worker's request ring (one semaphore post per window of
        dispatches) or the in-process backlog, which validates the
        levels first and raises before anything is charged.  Then the
        datapath replays the ledger half of a serial execute off the
        model's compiled :class:`~repro.core.datapath.TimingPlan`, so
        the virtual clock's event ordering is fixed here and never
        waits on the numerics; the predictions are joined after the
        event loop drains (see :class:`_Dispatch`).
        """
        datapath = self.datapaths[core]
        single = len(entries) == 1
        block = (
            np.asarray(entries[0].item.data_levels).ravel()
            if single
            else stack_levels(entries)
        )
        seq = self._executor.run(core, model_id, block, start_s, key)
        timing = (
            datapath.execute_timing(model_id)
            if single
            else datapath.execute_batch_timing(model_id, len(entries))
        )
        return _Dispatch.charged(
            core, model_id, entries, start_s, timing, None, worker_seq=seq
        )
