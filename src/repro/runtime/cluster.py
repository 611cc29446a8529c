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
every served row, faults or no faults.

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
trace terminates with partial stats instead of spinning.  A serve
returns one :class:`~repro.core.stats.Outcomes` row per offered
request, so degraded runs stay fully accounted by construction.

Energy: each served row is priced by the cluster's
:class:`~repro.core.energy.EnergyModel` from its own t_q/t_d/t_c, and
the table is folded into the :class:`~repro.core.stats.ServerStats`
ledgers once, parent-side, when the serve ends — in parallel execution
the timing was already fixed by the dispatch-time dry run — so serial
and parallel serves charge bit-identical joules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from ..core.datapath import LightningDatapath
from ..core.dag import ComputationDAG
from ..core.energy import EnergyModel
from ..core.plans import export_model_plan, import_model_plan
from ..core.stats import (
    NICCounters,
    Outcome,
    OutcomeReason,
    OutcomeRows,
    Outcomes,
    ServedRecord,
    ServerStats,
    Tallied,
)
from ..core.trace import DatapathTracer
from ..faults.device import DegradedCore, device_fault_from_event
from ..faults.resilience import CalibrationWatchdog, CoreHealth, RetryPolicy
from ..faults.schedule import (
    DEVICE_FAULT_KINDS,
    WIRE_FAULT_KINDS,
    FaultEvent,
    FaultSchedule,
)
from ..faults.wire import WireFaultInjector, WireFaultReport, WireFrame
from ..net import ingress
from ..net.ingress import IngressRequest as RuntimeRequest
from ..net.parser import PacketParser
from ..sim.events import Event, EventQueue
from .batching import BatchingCoalescer, stack_levels
from .executor import InlineExecutor, rebase
from .parallel import CoreWorkerPool, pool_finalizer
from .queues import DROP_POLICIES, AdmissionQueue, QueueEntry
from .schedulers import CoreHealthView, RoundRobinScheduler, Scheduler

__all__ = ["RuntimeRequest", "ClusterResult", "Cluster"]

#: Domain separators for the keyed readout-noise substreams
#: (``BehavioralCore.noise_stream``: SFC64 over the ``SeedSequence`` of
#: the key).  Every batch draws from the stream of ``(seed, BATCH,
#: core, epoch, batch)``, every watchdog probe from ``(seed, PROBE,
#: core, round)``, and every post-re-lock confirmation probe from
#: ``(seed, RELOCK, core, attempt)``, in both execution modes — so the
#: draws a dispatch consumes depend only on its key, never on
#: scheduling order, and ``execution="parallel"`` reproduces the serial
#: run bit for bit.
_BATCH_RNG_DOMAIN = 0xB0
_PROBE_RNG_DOMAIN = 0xA5
_RELOCK_RNG_DOMAIN = 0x9C


@dataclass
class _Dispatch:
    """One in-flight batch on one core, finalized at completion time.

    Rows are *not* written at dispatch: a stall can push the finish
    out and a crash can void the batch entirely, so the outcome is only
    known when the completion event (carrying a matching ``epoch``)
    fires.  The numerics are the executor's (a worker process, or the
    in-process backlog): the predictions are collected by
    ``worker_seq`` after the event loop — timing was already fixed at
    dispatch by the ledger replay, so event ordering never depends on
    them.
    """

    core: int
    model_id: int
    entries: Sequence[QueueEntry]
    start_s: float
    finish_s: float
    service_s: float
    pass_datapath_s: float
    pass_compute_s: float
    worker_seq: int
    epoch: int
    #: Position among the run's dispatches, all cores together.
    ordinal: int


@dataclass
class _CoreSlot:
    """Everything one serve knows about one core."""

    health: CoreHealth
    #: When the core's current batch finishes (or last finished).
    free_at: float = 0.0
    stalled_until: float = 0.0
    #: Bumped whenever the in-flight batch's completion is voided (a
    #: crash) or superseded (a stall); a completion event only counts
    #: if it carries the current value.
    epoch: int = 0
    #: Dispatch ordinal within the run — the "batch" component of the
    #: keyed noise substream, so a fixed seed reproduces a fixed trace.
    dispatches: int = 0
    relock_attempts: int = 0
    #: The batch the core is working on; the core is busy iff set.
    inflight: _Dispatch | None = None


@dataclass(frozen=True)
class ClusterResult(Tallied):
    """Everything one trace produced on the cluster: an outcomes row
    per offered request (local core indices, ``shard`` -1), and what
    reduces from it (:class:`~repro.core.stats.Tallied`)."""

    outcomes: Outcomes
    stats: ServerStats
    num_cores: int
    busy_seconds: float

    @cached_property
    def records(self) -> tuple[ServedRecord, ...]:
        """The served rows in completion order, as records."""
        return self.outcomes.records()

    def utilization(self) -> float:
        """Fraction of total core-time the datapaths were occupied."""
        if self.horizon_s <= 0:
            return 0.0
        return self.busy_seconds / (self.num_cores * self.horizon_s)

    def decomposition(self) -> dict[str, float]:
        """Mean t_q / t_d / t_c over all served requests, in seconds."""
        if not self.served:
            raise ValueError("no requests served")
        served, keys = self.outcomes.served(), ("t_q", "t_d", "t_c")
        return {key: float(np.mean(getattr(served, key))) for key in keys}

    @property
    def mean_batch_size(self) -> float:
        """Average coalesced batch size across served requests."""
        if not self.served:
            raise ValueError("no requests served")
        return float(np.mean(self.outcomes.served().batch))


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
            else lambda core: LightningDatapath()
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
            # memory; dispatches ride each worker's pipe, ``window``
            # batches a message.
            self._pool = CoreWorkerPool(num_cores, factory, window=window)
            self._pool_finalizer = pool_finalizer(self, self._pool)
        #: Where dispatches' numerics run (:mod:`~repro.runtime.executor`).
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
    def macs_per_step(self) -> int:
        """Photonic MACs per time step of core 0's architecture — with
        :attr:`num_cores`, the capacity proxy routers and placements
        compare shards by."""
        return self.datapaths[0].core.architecture.macs_per_step

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
        requests do not pay one-time costs (noise-tape layout, scratch
        growth).

        A cluster serves compiled plans only (a dispatch is a ledger
        replay plus a forward program): any other datapath — the
        per-row reference — is refused before any core registers the
        model.
        """
        for datapath in self.datapaths:
            if not isinstance(datapath, LightningDatapath):
                raise ValueError(
                    "a cluster replays compiled plans; it cannot serve "
                    f"a {type(datapath).__name__}"
                )
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
                continue
            datapath.register_model(dag)
            arrays, meta = export_model_plan(
                datapath.model_plan(dag.model_id)
            )
            compiled[geometry] = (arrays, meta, datapath)
        if self._pool is not None:
            # Publish the compiled state once into shared memory and
            # let every worker rebuild its plan from read-only views.
            self._pool.deploy(
                dag, self.datapaths[0].model_plan(dag.model_id)
            )
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

        Releases the model's compiled plans and admission
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
        leftovers' rows ``unfinished``.

        Arguments are checked before the clock starts, so a rejected
        call changes nothing.  After that, returning or raising, the
        serve leaves every admission queue empty, the executor drained
        and the cumulative :attr:`stats` balanced (see
        :class:`_ServeRun`): the next serve on this cluster is the one
        a fresh cluster would run.
        """
        run = self._checked_run(
            requests, fault_schedule, watchdog, retry_policy, slo_s, timeout_s
        )
        ingress.admit(self.nic_counters, run.offered)
        return run.run()

    def _checked_run(
        self,
        requests: Iterable[RuntimeRequest],
        fault_schedule: FaultSchedule | None = None,
        watchdog: CalibrationWatchdog | None = None,
        retry_policy: RetryPolicy | None = None,
        slo_s: float | None = None,
        timeout_s: float | None = None,
    ) -> "_ServeRun":
        """Check one serve's arguments and build its run."""
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
        faults = () if fault_schedule is None else [
            fault
            for fault in fault_schedule.events
            if fault.kind not in WIRE_FAULT_KINDS  # ingress-side
        ]
        for fault in faults:
            if fault.core >= self.num_cores:
                raise ValueError(
                    f"{fault.kind} targets core {fault.core}, but the "
                    f"cluster has {self.num_cores} cores"
                )
        policy = retry_policy if retry_policy is not None else RetryPolicy()
        return _ServeRun(
            self, trace, faults, watchdog, policy, slo_s, timeout_s
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
        frame stream first; every survivor moves :attr:`nic_counters`
        once at NIC ingress (:mod:`repro.net.ingress` — hostile frames
        get a fate there, never an exception), and the queries for
        deployed models serve as in :meth:`serve_trace`, under the same
        schedule's device/core faults.  Returns the serve result plus
        the wire's injection report.
        """
        schedule = (
            fault_schedule
            if fault_schedule is not None
            else FaultSchedule()
        )
        delivered, report = WireFaultInjector(schedule).apply(list(frames))
        requests, _ = ingress.ingest(
            delivered,
            parser if parser is not None else PacketParser(),
            self.nic_counters,
            {m: dag.tasks[0].input_size for m, dag in self._dags.items()},
        )
        if not requests:
            raise ValueError(
                "no inference requests survived NIC ingress"
            )
        run = self._checked_run(requests, fault_schedule, **kwargs)
        return run.run(), report


#: What :meth:`_ServeRun.on_complete` answers for a completion a crash
#: voided or a stall superseded: nothing moved, so the loop skips the
#: dispatch pass (whose SLO purge reads the clock) for that event.
_VOID = object()


class _ServeRun:
    """One ``serve_trace`` call: its state, and a handler per event.

    The :class:`Cluster` keeps what outlives a serve — datapaths,
    plans, scheduler, coalescer, cumulative ``stats`` / ``nic_counters``
    and the admission queues' ``admitted`` / ``dropped`` counters.  A
    run owns everything else: one :class:`_CoreSlot` per core and the
    :attr:`rows` of its outcomes table, written as requests meet their
    fates.  :meth:`run` pops events off the virtual clock, hands each to
    the handler :attr:`HANDLERS` names for its kind (``on_arrival``,
    ``on_complete``, ``on_fault``, ``on_stall_clear``, ``on_probe``,
    ``on_recalibrate``) and then calls :meth:`dispatch`; :meth:`result`
    classifies what is left, joins the predictions and folds the table.

    Exit contract, on every path out of :meth:`run` (return or raise):
    the admission queues are empty, the executor is drained, the
    cumulative ``stats`` balance (requests without a row when a serve
    raised count as ``unfinished``), and the only thing of the run the
    cluster still holds is ``cluster.health`` — the slots'
    :class:`~repro.faults.resilience.CoreHealth` records, published as
    the serve's outcome.
    """

    def __init__(
        self,
        cluster: Cluster,
        trace: Sequence[RuntimeRequest],
        faults: Sequence[FaultEvent],
        watchdog: CalibrationWatchdog | None,
        policy: RetryPolicy,
        slo_s: float | None,
        timeout_s: float | None,
    ) -> None:
        self.offered = len(trace)
        self.watchdog = watchdog
        self.policy = policy
        self.slo_s = slo_s
        self.timeout_s = timeout_s
        # The cluster's long-lived parts, named once.
        self.datapaths = cluster.datapaths
        self.queues = cluster._queues
        self.executor = cluster._executor
        self.pool = cluster._pool
        self.scheduler = cluster.scheduler
        self.coalescer = cluster.coalescer
        self.energy_model = cluster.energy_model
        self.stats = cluster.stats
        self.nic_counters = cluster.nic_counters
        self.tracer = cluster.tracer
        self.scheduler.reset()
        #: Health-aware policies receive a per-candidate snapshot right
        #: before each assign; everyone else skips the view building.
        self.wants_health = getattr(self.scheduler, "uses_health", False)
        self.slots = [_CoreSlot(CoreHealth()) for _ in self.datapaths]
        cluster.health = {
            core: slot.health for core, slot in enumerate(self.slots)
        }
        self.events = EventQueue()
        self.rows = OutcomeRows()
        #: Crash-retry attempts so far, by request id.
        self.attempts: dict[int, int] = {}
        #: Finalized batches whose predictions are still the
        #: executor's: ``(first row, dispatch)`` in finalization order
        #: (see :meth:`on_complete`).
        self.pending_joins: list[tuple[int, _Dispatch]] = []
        self.busy_seconds = 0.0
        #: Arrival and retry events still on the clock.
        self.unadmitted = self.offered
        self.dispatched = 0
        #: Global probe round — the "batch" component of the probes'
        #: keyed noise substreams.
        self.probe_round = 0
        for request in trace:
            self.events.push(request.arrival_s, "arrival", request)
        for fault in faults:
            self.events.push(fault.time_s, "fault", fault)
        if watchdog is not None:
            self.events.push(watchdog.interval_s, "probe")

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def run(self) -> ClusterResult:
        """Serve the trace; honour the exit contract however it ends."""
        try:
            self.events.run(self.step, until=self.timeout_s)
            return self.result()
        except BaseException:
            # Keep the cumulative ledger balanced: the rows so far are
            # charged, and whatever had no row yet never finished.
            self.fold(self.rows.seal(self.energy_model))
            rest = self.offered - len(self.rows)
            self.stats.offered += rest
            self.stats.unfinished += rest
            raise
        finally:
            for queue in self.queues.values():
                queue.drain()
            self.executor.drain()

    def step(self, event: Event) -> None:
        """One event: its kind's handler, then a dispatch pass."""
        now = event.time
        if self.HANDLERS[event.kind](self, event.payload, now) is not _VOID:
            self.dispatch(now)

    def dispatch(self, now: float) -> None:
        """Start batches until the idle healthy cores or the ready
        queues run out."""
        slots = self.slots
        queues = self.queues
        scheduler = self.scheduler
        slo_s = self.slo_s
        while True:
            if slo_s is not None:
                # Shed every queue head whose deadline has passed.
                for queue in queues.values():
                    while (
                        queue.depth
                        and now - queue.peek().item.arrival_s > slo_s
                    ):
                        self._slo_drop(queue.pop().item, now)
            idle = [
                i
                for i, slot in enumerate(slots)
                if slot.inflight is None and slot.health.state == "healthy"
            ]
            ready = [q.view() for q in queues.values() if q.depth]
            if not idle or not ready:
                return
            if self.wants_health:
                scheduler.observe_health([
                    CoreHealthView(
                        core=i,
                        state=slots[i].health.state,
                        error_rms=slots[i].health.error_rms,
                        busy_until_s=slots[i].free_at,
                    )
                    for i in idle
                ])
            model_id = scheduler.next_model(ready)
            entries = self.coalescer.take(queues[model_id])
            if slo_s is not None:
                # Retries re-enter at the tail, so an expired request
                # can hide behind a live head.
                live = []
                for entry in entries:
                    if now - entry.item.arrival_s <= slo_s:
                        live.append(entry)
                    else:
                        self._slo_drop(entry.item, now)
                if not live:
                    continue
                entries = live
            pick = scheduler.assign(
                entries[0].item,
                [slots[i].free_at for i in idle],
                now_s=now,
            )
            self._start(idle[pick], model_id, entries, now)

    def _start(
        self,
        core: int,
        model_id: int,
        entries: Sequence[QueueEntry],
        now: float,
    ) -> None:
        """Charge one batch to ``core`` and hand its numerics over.

        The request block and the noise key go to the executor — a
        worker's outbox, or the in-process backlog, which
        validates the levels and raises before anything is charged.
        Then the datapath replays the model's compiled
        :class:`~repro.core.datapath.TimingPlan` (the ledger half of an
        ``execute``), so event ordering is fixed here and never waits
        on the numerics (see :class:`_Dispatch`).
        """
        slot = self.slots[core]
        key = (_BATCH_RNG_DOMAIN, core, slot.epoch, slot.dispatches)
        slot.dispatches += 1
        datapath = self.datapaths[core]
        single = len(entries) == 1
        block = (
            np.asarray(entries[0].item.data_levels).ravel()
            if single
            else stack_levels(entries)
        )
        seq = self.executor.run(core, model_id, block, now, key)
        timing = (
            datapath.execute_timing(model_id)
            if single
            else datapath.execute_batch_timing(model_id, len(entries))
        )
        service_s = timing.total_seconds
        # Each request's t_d/t_c is one pipeline pass's worth; any
        # extra passes a large batch needs land in t_q (the request is
        # DRAM-buffered while earlier passes stream), keeping the
        # decomposition identity exact.
        batch = _Dispatch(
            core=core,
            model_id=model_id,
            entries=entries,
            start_s=now,
            finish_s=now + service_s,
            service_s=service_s,
            pass_datapath_s=(
                timing.datapath_seconds + timing.memory_seconds
            ) / timing.passes,
            pass_compute_s=timing.compute_seconds / timing.passes,
            worker_seq=seq,
            epoch=slot.epoch,
            ordinal=self.dispatched,
        )
        self.dispatched += 1
        slot.inflight = batch
        slot.free_at = batch.finish_s
        self.events.push(batch.finish_s, "complete", (core, batch.epoch))
        detail = {
            "model_id": model_id,
            "batch": len(entries),
            "service_us": service_s * 1e6,
        }
        self._emit("dispatch", f"core:{core}", detail, now)

    # ------------------------------------------------------------------
    # Handlers, one per event kind (the table follows the last of them)
    # ------------------------------------------------------------------
    def on_arrival(self, request: RuntimeRequest, now: float) -> None:
        """Admit an arriving — or retried — request to its queue."""
        self.unadmitted -= 1
        queue = self.queues[request.model_id]
        victim = queue.offer(request, now)
        if victim is not None:
            reason = OutcomeReason.QUEUE_OVERFLOW
            self.rows.add(victim, Outcome.DROPPED, reason)
            self._emit(
                "drop",
                f"model:{request.model_id}",
                {"request_id": victim.request_id, "policy": queue.policy},
                now,
            )
        else:
            self._emit(
                "enqueue",
                f"model:{request.model_id}",
                {"request_id": request.request_id, "depth": queue.depth},
                now,
            )

    def on_complete(
        self, payload: tuple[int, int], now: float
    ) -> object | None:
        """Finalize a core's batch: one block of rows."""
        core, stamp = payload
        slot = self.slots[core]
        batch = slot.inflight
        if batch is None or batch.epoch != stamp:
            return _VOID  # voided by a crash or superseded by a stall
        slot.inflight = None
        self.busy_seconds += batch.service_s
        # The timing was fixed at dispatch; the prediction is joined
        # once the loop has drained (see result), in completion order
        # — per core that is dispatch order, as a worker collects.
        self.pending_joins.append((len(self.rows), batch))
        self.rows.add_served(
            [entry.item for entry in batch.entries],
            core,
            batch.finish_s,
            batch.pass_datapath_s,
            batch.pass_compute_s,
        )
        self._emit(
            "complete",
            f"core:{core}",
            {"model_id": batch.model_id, "batch": len(batch.entries)},
            now,
        )

    def on_fault(self, fault: FaultEvent, now: float) -> None:
        """A scheduled device fault, crash or stall reaches its core."""
        if fault.kind in DEVICE_FAULT_KINDS:
            self._degrade(fault, now)
        elif fault.kind == "core_crash":
            self._crash(fault.core, now)
        else:
            self._stall(fault.core, fault.duration_s, now)

    def _degrade(self, fault: FaultEvent, now: float) -> None:
        """Install a device fault on the core's photonic path."""
        core = fault.core
        # What the core was already sent it answers as it was.
        self.executor.settle(core)
        wrapper = DegradedCore.ensure(self.datapaths[core])
        wrapper.set_time(now)
        wrapper.install(device_fault_from_event(fault))
        if self.pool is not None:
            # The worker's stream is FIFO, so the fault lands
            # between exactly the dispatches it separated on the
            # virtual clock — same prefix a serial run would have
            # applied.
            self.pool.fault(core, fault, now)
        self._emit("fault", f"core:{core}", {"kind": fault.kind}, now)

    def _crash(self, core: int, now: float) -> None:
        """Remove a core for good; its batch goes to the retry policy."""
        slot = self.slots[core]
        if slot.health.state == "crashed":
            return
        slot.health.state = "crashed"
        self._emit("fault", f"core:{core}", {"kind": "core_crash"}, now)
        batch = slot.inflight
        if batch is None:
            return
        slot.inflight = None
        slot.epoch += 1
        # A doomed batch's result is dropped (a worker computes it
        # anyway; the in-process backlog never does).
        self.executor.discard(core, batch.worker_seq)
        # The crashed dispatch's partial occupancy still counts
        # against the core — wasted work is work.
        self.busy_seconds += now - batch.start_s
        for entry in batch.entries:
            self._requeue(entry.item, now)

    def _stall(self, core: int, duration_s: float, now: float) -> None:
        """Freeze a core; its in-flight batch finishes late."""
        slot = self.slots[core]
        # A dead or benched core cannot stall further.
        if slot.health.state in ("crashed", "quarantined", "recalibrating"):
            return
        slot.stalled_until = max(slot.stalled_until, now + duration_s)
        if slot.health.state == "healthy":
            slot.health.state = "stalled"
        batch = slot.inflight
        if batch is not None:
            # Invalidate the frozen batch's old completion and push the
            # delayed one.  The stall time lands in each request's t_q,
            # keeping the identity.
            slot.epoch += 1
            batch.epoch = slot.epoch
            batch.finish_s += duration_s
            batch.service_s += duration_s
            slot.free_at = batch.finish_s
            self.events.push(batch.finish_s, "complete", (core, batch.epoch))
        self.events.push(slot.stalled_until, "stall_clear", core)
        detail = {"kind": "core_stall", "duration_s": duration_s}
        self._emit("fault", f"core:{core}", detail, now)

    def on_stall_clear(self, core: int, now: float) -> None:
        """A stall's end: back to healthy unless a later one extends it."""
        slot = self.slots[core]
        if slot.health.state == "stalled" and now >= slot.stalled_until:
            slot.health.state = "healthy"

    def on_probe(self, _payload: None, now: float) -> None:
        """One watchdog round over the healthy cores."""
        if not self.work_pending():
            # The trace has drained; a probe (and any quarantine /
            # re-lock cycle it would start) can no longer affect a
            # request, so the watchdog goes quiet with the clock.
            return
        watchdog = self.watchdog
        relocker = watchdog.relock
        self.probe_round += 1
        for core, slot in enumerate(self.slots):
            health = slot.health
            if health.state != "healthy":
                continue
            # Probes always run on the parent's core — its faults and
            # keyed noise stream match the workers', so the quarantine
            # decision is identical in both modes.
            result = self._probe(
                core, now, (_PROBE_RNG_DOMAIN, core, self.probe_round)
            )
            self._emit(
                "probe", f"core:{core}", {"error_rms": result.error_rms}, now
            )
            if result.healthy:
                continue
            health.state = "quarantined"
            health.quarantined_at_s = now
            self.stats.quarantines += 1
            detail = {
                "error_rms": result.error_rms,
                "threshold": watchdog.threshold,
            }
            self._emit("quarantine", f"core:{core}", detail, now)
            if relocker is None:
                continue
            if slot.relock_attempts < relocker.max_attempts:
                # Bench the core for the sweep instead.
                health.state = "recalibrating"
                self.events.push(
                    now + self._relock_sweep_s(core), "recalibrate", core
                )
                self._emit(
                    "recalibrate",
                    f"core:{core}",
                    {"attempt": slot.relock_attempts + 1},
                    now,
                )
        if self.work_pending():
            self.events.push(now + watchdog.interval_s, "probe")

    def on_recalibrate(self, core: int, now: float) -> None:
        """Finish a bias sweep: re-base faults, re-probe, readmit.

        The sweep's virtual time already elapsed (the recalibrate
        event was scheduled ``_relock_sweep_s`` after quarantine);
        what remains is applying the found biases, mirroring them into
        the core's worker, and letting the watchdog decide whether the
        core rejoins the healthy set.
        """
        slot = self.slots[core]
        health = slot.health
        if health.state != "recalibrating":
            return  # crashed while benched; nothing to readmit
        relocker = self.watchdog.relock
        slot.relock_attempts += 1
        self.executor.settle(core)
        report = relocker.relock_core(core, self.datapaths[core].core, now)
        if self.pool is not None and report.relocked:
            # Stream FIFO: the mirror lands after every batch the worker
            # was sent pre-quarantine, exactly where the serial
            # timeline re-based its own faults.
            self.pool.relock(core, now, report.residual_volts)
        result = self._probe(
            core, now, (_RELOCK_RNG_DOMAIN, core, slot.relock_attempts)
        )
        if result.healthy:
            health.state = "healthy"
            health.relocks += 1
            health.relocked_at_s = now
            self.stats.relocks += 1
            slot.free_at = now
            detail = {
                "error_rms": result.error_rms,
                "relocked": report.relocked,
                "uncorrectable": report.uncorrectable,
            }
            self._emit("relock", f"core:{core}", detail, now)
        elif slot.relock_attempts < relocker.max_attempts:
            # Another sweep may still help (e.g. the bias walked during
            # the confirmation probe); stay benched and try again after
            # one more sweep's worth of time.
            self.events.push(
                now + self._relock_sweep_s(core), "recalibrate", core
            )
            detail = {
                "error_rms": result.error_rms,
                "attempt": slot.relock_attempts,
            }
            self._emit("relock_failed", f"core:{core}", detail, now)
        else:
            health.state = "quarantined"
            detail = {"error_rms": result.error_rms, "permanent": True}
            self._emit("relock_failed", f"core:{core}", detail, now)

    #: Which handler an event kind goes to.  Plain functions on the
    #: class, so a finished run holds no reference to itself and is
    #: freed — rows, dispatches and all — when ``serve_trace`` returns.
    HANDLERS = {
        "arrival": on_arrival,
        "retry": on_arrival,
        "complete": on_complete,
        "fault": on_fault,
        "stall_clear": on_stall_clear,
        "probe": on_probe,
        "recalibrate": on_recalibrate,
    }

    def result(self) -> ClusterResult:
        """Classify the leftovers, join the predictions, fold, report.

        Batches a timeout cut off were never finalized: their results
        are nobody's.  Each finalized batch's predictions land in its
        block of rows with one slice assignment.
        """
        cut = sorted(
            (s.inflight for s in self.slots if s.inflight is not None),
            key=lambda batch: batch.ordinal,
        )
        for batch in cut:
            self.executor.discard(batch.core, batch.worker_seq)
        if self.timeout_s is not None and len(self.events) > 0:
            leftovers = [e.item for batch in cut for e in batch.entries]
            for queue in self.queues.values():
                leftovers.extend(e.item for e in queue.drain())
            pending = self.events.pending
            for request in leftovers + pending("arrival") + pending("retry"):
                self.rows.add(request, Outcome.UNFINISHED)
        else:
            # A fully drained clock with queued leftovers means no
            # usable core remained — strand them loudly.
            for queue in self.queues.values():
                for entry in queue.drain():
                    self._fail(entry.item, self.events.now, "no_usable_core")
        table = self.rows.seal(self.energy_model)
        for first, batch in self.pending_joins:
            table.prediction[first : first + len(batch.entries)] = (
                self.executor.result(batch.core, batch.worker_seq)
            )
        self.stats.core_health = {
            core: slot.health.state for core, slot in enumerate(self.slots)
        }
        result = ClusterResult(
            outcomes=table,
            stats=self.stats,
            num_cores=len(self.slots),
            busy_seconds=self.busy_seconds,
        )
        self.fold(table)
        return result

    def fold(self, table: Outcomes) -> None:
        """Charge the rows to the cumulative stats and NIC counters."""
        self.stats.fold(table)
        self.nic_counters.served += int(
            np.count_nonzero(table.fate == Outcome.SERVED)
        )
        self.nic_counters.dropped += int(
            np.count_nonzero(table.reason == OutcomeReason.SLO)
        )

    def work_pending(self) -> bool:
        """Whether anything on or off the clock can still be served."""
        slots = self.slots
        if self.unadmitted or any(s.inflight is not None for s in slots):
            return True
        queued = any(q.depth for q in self.queues.values())
        # A recalibrating core is out of service but expected back, so
        # queued work behind it still counts as pending.
        alive = any(
            s.health.state in ("healthy", "stalled", "recalibrating")
            for s in slots
        )
        return queued and alive

    def _emit(self, kind: str, label: str, detail: dict, now: float) -> None:
        if self.tracer is not None:
            self.tracer.emit(kind, label, detail, time_s=now)

    def _fail(self, request: RuntimeRequest, now: float, reason: str) -> None:
        self.rows.add(request, Outcome.FAILED, OutcomeReason[reason.upper()])
        self._emit(
            "fail",
            f"model:{request.model_id}",
            {"request_id": request.request_id, "reason": reason},
            now,
        )

    def _slo_drop(self, request: RuntimeRequest, now: float) -> None:
        self.rows.add(request, Outcome.DROPPED, OutcomeReason.SLO)
        self._emit(
            "slo_drop",
            f"model:{request.model_id}",
            {"request_id": request.request_id, "slo_s": self.slo_s},
            now,
        )

    def _requeue(self, request: RuntimeRequest, now: float) -> None:
        """Send a request lost to a crash back through the retry policy."""
        count = self.attempts.get(request.request_id, 0) + 1
        self.attempts[request.request_id] = count
        if count > self.policy.max_retries:
            self._fail(request, now, "retries_exhausted")
            return
        self.stats.retries += 1
        self.unadmitted += 1
        self.events.push(now + self.policy.delay(count), "retry", request)
        self._emit(
            "retry",
            f"model:{request.model_id}",
            {"request_id": request.request_id, "attempt": count},
            now,
        )

    def _probe(self, core: int, now: float, key: tuple[int, ...]):
        """One watchdog check of a core at ``now``, its readout noise
        on the keyed SFC64 substream."""
        wrapped = self.datapaths[core].core
        rebase(wrapped, now, key)
        result = self.watchdog.check(core, wrapped)
        health = self.slots[core].health
        health.error_rms = result.error_rms
        health.probes += 1
        return result

    def _relock_sweep_s(self, core: int) -> float:
        """Virtual time the core's bias sweeps will occupy."""
        wrapped = self.datapaths[core].core
        faults = getattr(wrapped, "relockable_faults", tuple)()
        return self.watchdog.relock.sweep_duration_s * max(len(faults), 1)
