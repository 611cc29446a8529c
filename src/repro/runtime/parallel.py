"""Process-parallel core execution with shared-memory plan replay.

Lightning's count-action datapath keeps every photonic core busy at
once; a Python serving loop that executes core batches serially does
not.  This module gives :class:`~repro.runtime.cluster.Cluster` real
execution parallelism while preserving its virtual-clock determinism:

* :class:`CoreWorkerPool` — one persistent worker process per photonic
  core.  Each worker owns a full :class:`~repro.core.datapath.
  LightningDatapath` built by the cluster's own ``datapath_factory``,
  so a worker computes exactly what the serial path would have computed
  on that core.
* **Shared-memory plan publication** — at ``deploy()`` time the parent
  copies every compiled plan's immutable replay state (each dense
  row's readout count and net sign, im2col gather maps — what
  :meth:`~repro.core.plans.ExecutionPlan.shared_arrays` returns) plus
  each task's weight matrix into one
  :class:`multiprocessing.shared_memory.SharedMemory` segment per
  model.  Workers map the segment read-only and rebuild their plans as
  views (:func:`~repro.core.plans.import_model_plan`) — compiled state
  is published once and never re-pickled.
* **Windowed ring dispatch** — per-batch traffic rides the
  :mod:`~repro.runtime.rings` transport: the parent writes dispatch
  slots (raw input block, virtual time, Philox substream key) into a
  per-worker shared-memory request ring and posts the worker once per
  ``window`` batches; results come back through a mirrored completion
  ring as one int32 prediction per row.  No per-batch pickling, no
  per-batch pipe syscalls — one semaphore post amortizes over W
  dispatches.

Determinism contract: the parent reseeds nothing here — the cluster
keys every batch's readout-noise stream by ``(domain, core, epoch,
batch)`` and ships the key with the dispatch, and the worker rebases
its core's Philox substream on that key before executing
(:meth:`~repro.photonics.core.BehavioralCore.reseed_noise`).  Because
the draws a batch consumes depend only on its key, the worker's outputs
are bit-identical to the serial path's regardless of real scheduling
order.  Device faults and bias re-locks travel as control slots in the
*same* request ring as dispatches, so a worker observes exactly the
fault-prefix a serial execution at that virtual time would have — FIFO
ordering by construction, windowing or not.  A worker copies each
dispatch out of its slot into a backlog and evaluates the backlog when
it holds one forward block (:data:`~repro.runtime.executor.
BLOCK_BYTES` of row bytes) or a barrier arrives — any control slot,
including the ``flush`` slot the parent sends before it waits on a
completion — grouped by model, through the batch-major forward program
(:func:`~repro.runtime.executor.evaluate`), so it cuts the blocks the
in-process executor cuts; completions are posted in slot order.

Lifecycle: model segments are created by :meth:`CoreWorkerPool.deploy`,
ring segments lazily at the first deploy (sized to the widest deployed
model), and all of them are unlinked by :meth:`CoreWorkerPool.close`
even when a worker died mid-window (the cluster also arranges a
``weakref.finalize`` so a dropped cluster cannot leak segments across
test runs).
"""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import traceback
import weakref
from collections import deque
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..core.dag import ComputationDAG, LayerTask
from ..core.plans import ModelPlan, PlanGeometry, import_model_plan
from ..faults.device import DegradedCore, device_fault_from_event
from ..faults.schedule import FaultEvent
from . import executor
from .rings import (
    MIN_PAYLOAD_BYTES,
    POLL_S,
    RingConsumer,
    RingGeometry,
    RingProducer,
    RingSems,
    attach_segment,
)

__all__ = [
    "SharedArrayRef",
    "PublishedModel",
    "CoreWorkerPool",
    "publish_model",
    "attach_array",
]

#: Byte alignment of every array inside a shared segment (cache line).
_ALIGN = 64

#: Default signalling window: semaphore posts per W dispatches.
DEFAULT_WINDOW = 8


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


@dataclass(frozen=True)
class SharedArrayRef:
    """Where one array lives inside a named shared-memory segment."""

    segment: str
    offset: int
    shape: tuple[int, ...]
    dtype: str


@dataclass
class PublishedModel:
    """One model's compiled state, resident in a shared segment."""

    model_id: int
    segment: shared_memory.SharedMemory
    geometry: PlanGeometry
    #: Per-task weight matrices (``None`` for weightless tasks).
    weight_refs: dict[str, SharedArrayRef | None]
    #: Per-task plan arrays keyed by the plan's own slot names.
    plan_refs: dict[str, dict[str, SharedArrayRef]]
    #: Per-task picklable plan metadata (kind, ledger, step counts).
    plan_meta: dict[str, dict]

    @property
    def segment_name(self) -> str:
        return self.segment.name


def attach_array(
    segment: shared_memory.SharedMemory, ref: SharedArrayRef
) -> np.ndarray:
    """A read-only view of one published array (no copy)."""
    view = np.ndarray(
        ref.shape,
        dtype=np.dtype(ref.dtype),
        buffer=segment.buf,
        offset=ref.offset,
    )
    view.setflags(write=False)
    return view


def publish_model(
    dag: ComputationDAG, model_plan: ModelPlan
) -> PublishedModel:
    """Copy one model's compiled replay state into shared memory.

    Lays out, 64-byte aligned in one segment: each weighted task's
    untransposed weight matrix (workers re-derive the transposed views
    locally, so the worker-side BLAS sees the exact memory layout the
    parent's compile produced) followed by each plan's shared arrays.
    Paid once per deploy; per-batch dispatch never touches this again.
    """
    entries: list[tuple[str, str, np.ndarray]] = []
    for task in dag.tasks:
        if task.weights_levels is not None:
            entries.append((task.name, "__weights__", task.weights_levels))
        for slot, array in model_plan.tasks[task.name].shared_arrays().items():
            entries.append((task.name, slot, array))
    total = 0
    offsets: list[int] = []
    for _, _, array in entries:
        total = _aligned(total)
        offsets.append(total)
        total += array.nbytes
    segment = shared_memory.SharedMemory(create=True, size=max(total, 1))
    weight_refs: dict[str, SharedArrayRef | None] = {
        task.name: None for task in dag.tasks
    }
    plan_refs: dict[str, dict[str, SharedArrayRef]] = {
        task.name: {} for task in dag.tasks
    }
    for (task_name, slot, array), offset in zip(entries, offsets):
        ref = SharedArrayRef(
            segment=segment.name,
            offset=offset,
            shape=tuple(array.shape),
            dtype=np.dtype(array.dtype).str,
        )
        dest = np.ndarray(
            array.shape,
            dtype=array.dtype,
            buffer=segment.buf,
            offset=offset,
        )
        dest[...] = array
        if slot == "__weights__":
            weight_refs[task_name] = ref
        else:
            plan_refs[task_name][slot] = ref
    return PublishedModel(
        model_id=dag.model_id,
        segment=segment,
        geometry=model_plan.geometry,
        weight_refs=weight_refs,
        plan_refs=plan_refs,
        plan_meta={
            name: plan.shared_meta()
            for name, plan in model_plan.tasks.items()
        },
    )


def _task_spec(task: LayerTask) -> dict:
    """A task's constructor kwargs with the weight matrix stripped.

    The geometry dataclasses (``ConvShape`` etc.) and the small bias
    vector pickle through the pipe; the weights travel as a
    :class:`SharedArrayRef` instead.
    """
    spec = {
        f.name: getattr(task, f.name) for f in dataclasses.fields(task)
    }
    spec.pop("weights_levels")
    return spec


def _deploy_spec(dag: ComputationDAG, published: PublishedModel) -> dict:
    return {
        "segment": published.segment_name,
        "geometry": published.geometry,
        "model_id": dag.model_id,
        "name": dag.name,
        "tasks": [_task_spec(task) for task in dag.tasks],
        "weight_refs": published.weight_refs,
        "plan_refs": published.plan_refs,
        "plan_meta": published.plan_meta,
    }


def _worker_deploy(datapath, spec: dict, segments: list) -> None:
    """Rebuild one model inside a worker from a deploy spec."""
    segment = attach_segment(spec["segment"])
    segments.append(segment)  # keep the mapping alive
    tasks = []
    for task_spec in spec["tasks"]:
        ref = spec["weight_refs"][task_spec["name"]]
        weights = (
            attach_array(segment, ref) if ref is not None else None
        )
        tasks.append(LayerTask(weights_levels=weights, **task_spec))
    dag = ComputationDAG(spec["model_id"], spec["name"], tasks)
    arrays = {
        name: {
            slot: attach_array(segment, ref)
            for slot, ref in refs.items()
        }
        for name, refs in spec["plan_refs"].items()
    }
    plan = import_model_plan(
        dag, spec["geometry"], arrays, spec["plan_meta"]
    )
    datapath.register_model(dag, plan=plan)


class _WorkerState:
    """Mutable bag threaded through one worker's message handlers."""

    def __init__(self, datapath, conn, sems: RingSems) -> None:
        self.datapath = datapath
        self.conn = conn
        self.sems = sems
        self.consumer: RingConsumer | None = None
        self.segments: list[shared_memory.SharedMemory] = []
        #: ``run`` slots read off the ring but not yet evaluated, in
        #: slot order, and the forward-block bytes their rows take.
        self.backlog: list[tuple] = []
        self.backlog_bytes = 0


def _worker_pipe_message(state: _WorkerState, message: tuple) -> bool:
    """Handle one control-plane pipe message; False stops the worker.

    The pipe carries only rare, variably sized control traffic: deploy
    specs, undeploys, ring (re)attachment, and pre-ring shutdown.  Each
    is acknowledged so the parent can sequence against it.
    """
    kind = message[0]
    if kind == "deploy":
        try:
            _worker_deploy(state.datapath, message[1], state.segments)
            state.conn.send(("ok", "deploy"))
        except Exception:
            state.conn.send(("error", -1, traceback.format_exc()))
    elif kind == "undeploy":
        try:
            # Unregister the model but keep its segment mapped: numpy
            # views over the buffer may still be referenced (plan
            # scratch), and closing a mapped segment raises
            # BufferError.  The parent owns the unlink; this worker's
            # mapping dies with the process.
            state.datapath.unregister_model(message[1])
            state.conn.send(("ok", "undeploy"))
        except Exception:
            state.conn.send(("error", -1, traceback.format_exc()))
    elif kind == "ring":
        # Attach (or swap to) the ring pair at ``name``.  The parent
        # only swaps while the rings are drained, so the shared
        # semaphores are at their baseline and the fresh consumer's
        # ordinal 0 lines up with the fresh producer's.
        _, name, geometry = message
        try:
            if state.consumer is not None:
                state.consumer.close()
            state.consumer = RingConsumer(name, geometry, state.sems)
            state.conn.send(("ok", "ring"))
        except Exception:
            state.conn.send(("error", -1, traceback.format_exc()))
    elif kind == "stop":
        return False
    return True


def _worker_take(state: _WorkerState, run: tuple) -> None:
    """File one ``run`` slot in the backlog; evaluate the backlog once
    it holds a forward block (:data:`~repro.runtime.executor.
    BLOCK_BYTES` of row bytes).

    A dispatch that would overflow the block evaluates what is already
    there first, and the backlog goes as soon as another row of the
    dispatch's model would not fit.  So each model's share of a
    backlog is at most one of :func:`~repro.runtime.executor.evaluate`'s
    blocks — one program invocation per model — and no evaluation runs
    longer than a block takes (the parent's ``POLL_S`` timer is for
    dead workers).
    """
    _, _, model_id, block, _, _ = run
    try:
        row_bytes = state.datapath.row_bytes(model_id)
    except KeyError:
        row_bytes = 0  # not deployed here: its evaluation posts the error
    cost = row_bytes * (len(block) if block.ndim == 2 else 1)
    if state.backlog and state.backlog_bytes + cost > executor.BLOCK_BYTES:
        _worker_evaluate(state)
    state.backlog.append(run)
    state.backlog_bytes += cost
    if state.backlog_bytes + row_bytes > executor.BLOCK_BYTES:
        _worker_evaluate(state)


def _worker_evaluate(state: _WorkerState) -> None:
    """Evaluate and answer everything in the backlog."""
    runs = state.backlog
    if runs:
        state.backlog, state.backlog_bytes = [], 0
        _worker_run(state, runs)


def _answers(datapath, model_id: int, runs: list[tuple]) -> dict[int, list]:
    """``seq -> predictions`` of one model's ``run`` slots."""
    results = executor.evaluate(
        datapath,
        model_id,
        [(block, now_s, key) for _, _, _, block, now_s, key in runs],
    )
    return {run[1]: predictions for run, predictions in zip(runs, results)}


def _worker_run(state: _WorkerState, runs: list[tuple]) -> None:
    """Evaluate ``run`` slots and post each one's predictions (or
    error), in slot order.

    Numerics only — the parent owns (and already charged) the ledger.
    Records carry a prediction, never outputs, so the reduction to one
    int32 per row happens here; ``argmax`` over the identical float64
    outputs is the reduction the serial path runs, so predictions stay
    bit-identical to it.  Slots of one model evaluate together; if
    that raises they run again one by one, so the error lands on the
    slot that caused it and its neighbours still answer (a dispatch's
    numerics depend on nothing a failed attempt could have moved).
    """
    by_model: dict[int, list[tuple]] = {}
    for run in runs:
        by_model.setdefault(run[2], []).append(run)
    answers: dict[int, list | str] = {}
    for model_id, group in by_model.items():
        try:
            answers.update(_answers(state.datapath, model_id, group))
        except Exception:
            for run in group:
                try:
                    answers.update(_answers(state.datapath, model_id, [run]))
                except Exception:
                    answers[run[1]] = traceback.format_exc()
    for _, seq, *_ in runs:
        answer = answers[seq]
        if isinstance(answer, str):
            state.consumer.post_error(seq, answer)
        else:
            state.consumer.post_predictions(seq, answer)


def _worker_control(state: _WorkerState, message: tuple) -> bool:
    """Handle one in-ring control slot; False stops the worker.

    The caller has already evaluated the backlog: every control slot
    is a barrier, taking effect after the runs submitted before it.  A
    ``flush`` slot is nothing but that barrier.
    """

    kind = message[0]
    if kind == "fault":
        _, (time_s, fkind, fcore, duration_s, params), now_s = message
        event = FaultEvent(
            time_s=time_s,
            kind=fkind,
            core=fcore,
            duration_s=duration_s,
            params=params,
        )
        wrapper = DegradedCore.ensure(state.datapath)
        wrapper.set_time(now_s)
        wrapper.install(device_fault_from_event(event))
    elif kind == "relock":
        _, now_s, residuals = message
        core = state.datapath.core
        if isinstance(core, DegradedCore):
            core.relock(now_s, residuals)
    elif kind == "pipe":
        # The parent queued a control-plane message behind everything
        # already in the ring; fetch and handle it now.
        try:
            return _worker_pipe_message(state, state.conn.recv())
        except EOFError:
            return False
    elif kind == "stop":
        return False
    return True


def _worker_main(
    core_index: int,
    datapath_factory,
    conn,
    sems,
) -> None:
    """One photonic core's worker loop.

    Until the first deploy the worker blocks on its pipe; once the
    parent attaches the rings it blocks on the request ring instead,
    and all further pipe traffic is announced by an in-ring ``pipe``
    control slot.  Either way messages are handled strictly in
    submission order, which is what makes fault forwarding
    deterministic: a device fault sent at virtual time T lands between
    the dispatches it separated in virtual time.  ``run`` slots wait in
    the backlog until it holds a forward block or a control slot
    arrives (:func:`_worker_take`).
    """
    datapath = datapath_factory(core_index)
    # Everything alive now was inherited from the parent at fork and
    # lives as long as the worker: keep it out of the collector's
    # generations, or the first full collection walks the whole forked
    # heap mid-batch (65-100 ms, and it dirties the shared pages).
    gc.freeze()
    state = _WorkerState(datapath, conn, sems)
    running = True
    while running:
        if state.consumer is None:
            try:
                message = conn.recv()
            except EOFError:
                break
            running = _worker_pipe_message(state, message)
            continue
        message = state.consumer.next()
        if message[0] == "run":
            _worker_take(state, message)
        else:
            _worker_evaluate(state)
            running = _worker_control(state, message)
    if state.consumer is not None:
        state.consumer.close()
    for segment in state.segments:
        segment.close()
    conn.close()


class _CloseTimeout(Exception):
    """Internal: a best-effort shutdown submit could not land."""


class CoreWorkerPool:
    """A persistent worker process per photonic core.

    Workers fork at construction so the cluster's ``datapath_factory``
    — commonly a closure — transfers by inheritance, never by pickle.
    All later traffic is small: deploy specs carry shared-memory refs
    over the pipe; dispatches and results ride per-worker shared-memory
    ring buffers (:mod:`~repro.runtime.rings`), with the request-ring
    semaphore posted once per ``window`` dispatches.

    ``capacity`` bounds each ring (default ``max(2 * window, 8)``
    slots).  Deep traces flow through the shallow rings on one
    invariant: the parent never sleeps on a semaphore while any
    completion slot is readable.  Every submit moves the core's
    already-posted completions into a parent-side stash, and before
    the parent blocks — on a full request ring, or on one core's next
    completion — it drains *every* core's ring, so no worker stays
    parked on a full completion ring (and a worker reads every posted
    request slot before it parks, see
    :class:`~repro.runtime.rings.RingConsumer`).  Workers evaluate
    whole forward blocks, so before the parent waits on a completion
    it sends a ``flush`` slot to every core that has runs since its
    last barrier.  The ``POLL_S`` timer on those waits is for liveness
    only (a dead worker raises instead of hanging); :attr:`poll_timeouts`
    counts its expiries, which flow control never causes.
    ``max_batch`` sizes the ring slots for the widest coalesced block
    the cluster may dispatch.
    """

    def __init__(
        self,
        num_cores: int,
        datapath_factory,
        *,
        window: int = DEFAULT_WINDOW,
        capacity: int | None = None,
        max_batch: int = 1,
    ) -> None:
        if window < 1:
            raise ValueError("window must be at least one batch")
        if capacity is None:
            capacity = max(2 * window, 8)
        if capacity < window:
            raise ValueError(
                f"ring capacity {capacity} cannot be smaller than the "
                f"signalling window {window}"
            )
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX hosts
            raise RuntimeError(
                "execution='parallel' needs the fork start method"
            ) from exc
        self.window = window
        self.capacity = capacity
        self._max_batch = max(max_batch, 1)
        self._pipes = []
        self._procs = []
        self._sems: list[RingSems] = []
        for core in range(num_cores):
            parent_conn, child_conn = ctx.Pipe()
            sems = RingSems(ctx, capacity)
            proc = ctx.Process(
                target=_worker_main,
                args=(core, datapath_factory, child_conn, sems),
                daemon=True,
                name=f"lightning-core-{core}",
            )
            proc.start()
            child_conn.close()
            self._pipes.append(parent_conn)
            self._procs.append(proc)
            self._sems.append(sems)
        self._seq = [0] * num_cores
        #: Per core: whether runs went out since its last control slot
        #: (so its worker may hold an unevaluated backlog).
        self._backlogged = [False] * num_cores
        #: Dispatched-but-uncollected sequence numbers, per core.
        self._outstanding: list[set[int]] = [set() for _ in range(num_cores)]
        #: Sequence numbers whose results must be dropped (aborted
        #: batches): the worker computes them anyway, the parent skips
        #: them when they surface.
        self._discarded: list[set[int]] = [set() for _ in range(num_cores)]
        #: Completions already read off the rings (after each submit
        #: and before every blocking wait), held in worker order until
        #: ``result``/``drain`` consume them.
        self._stash: list[deque] = [deque() for _ in range(num_cores)]
        #: One ``on_stall`` callback per core, built once: the blocking
        #: ring helpers take one on every dispatch.
        self._guards = [self._stall_guard(core) for core in range(num_cores)]
        #: The same for a wait on a core's own completion ring, which
        #: drains only the siblings: a completion stashed behind the
        #: wait's back would leave it waiting for one that never comes.
        self._collect_guards = [
            self._stall_guard(core, collecting=True)
            for core in range(num_cores)
        ]
        self._rings: list[RingProducer] | None = None
        self._published: list[PublishedModel] = []
        self._closed = False

    @property
    def num_cores(self) -> int:
        return len(self._procs)

    @property
    def segment_names(self) -> tuple[str, ...]:
        """Names of every live shared-memory segment (leak guard)."""
        names = [p.segment_name for p in self._published]
        if self._rings is not None:
            names.extend(ring.segment_name for ring in self._rings)
        return tuple(names)

    @property
    def poll_timeouts(self) -> int:
        """Timed ring waits that expired, summed over the live rings.

        The timer only guards liveness, so anything above 0 means the
        parent sat out a whole ``POLL_S``: a worker was dead, parked,
        or busy that long with one batch (a GC pause, a huge model).
        """
        return sum(ring.poll_timeouts for ring in self._rings or ())

    # ------------------------------------------------------------------
    # Ring management
    # ------------------------------------------------------------------
    def _stall_guard(self, core: int, collecting: bool = False):
        """An ``on_stall`` callback: drain completions, check liveness.

        Runs before the parent blocks on ``core`` and on every timer
        expiry while it waits.  Draining every core's ring releases
        any worker parked on a full completion ring — this core's,
        whose progress the parent is waiting for, and its siblings',
        which would otherwise idle until the wait ends; the liveness
        check turns a worker crash into a loud error instead of an
        indefinite wait.
        """

        def on_stall() -> None:
            for each in range(self.num_cores):
                if not (collecting and each == core):
                    self._drain_ready(each)
            if not self._procs[core].is_alive():
                raise self._died(core)

        return on_stall

    def _died(self, core: int) -> RuntimeError:
        """The error for a dead worker, naming where it was: the
        awaited seq (the oldest outstanding — a worker answers in
        dispatch order), the last dispatched seq, how many were
        outstanding, and the process exit code."""
        outstanding = self._outstanding[core]
        return RuntimeError(
            f"worker {core} died while the parent awaited a result "
            f"(awaited seq {min(outstanding, default=None)}, last "
            f"dispatched seq {self._seq[core] - 1}, {len(outstanding)} "
            f"outstanding, exitcode {self._procs[core].exitcode})"
        )

    def _drain_ready(self, core: int) -> None:
        """Move one core's already-posted completions into its stash."""
        while True:
            message = self._rings[core].poll()
            if message is None:
                return
            self._stash[core].append(message)

    def _drain_all(self) -> None:
        """Empty every core's completion ring into its stash."""
        for core in range(self.num_cores):
            self._drain_ready(core)

    def _next_completion(self, core: int) -> tuple:
        """The next completion in worker order (stash, then ring)."""
        stash = self._stash[core]
        if not stash:
            # About to block on this core: empty every ring first, so
            # siblings keep computing while the join order is here.
            self._drain_all()
        if stash:
            return stash.popleft()
        # A worker evaluates a partial block only at a barrier: flush
        # this core, whose answer the parent is about to wait for, and
        # its siblings, whose tails then evaluate during the wait.
        for each in range(self.num_cores):
            self._flush_backlog(each)
        return self._rings[core].collect(
            on_stall=self._collect_guards[core]
        )

    def _control(self, core: int, message: tuple) -> None:
        """Submit one control slot: a barrier, behind which the worker
        evaluates every run it was sent before."""
        self._backlogged[core] = False
        self._rings[core].submit_control(message, on_stall=self._guards[core])

    def _flush_backlog(self, core: int) -> None:
        """Send ``core`` a flush slot if it may hold a backlog."""
        if self._backlogged[core]:
            self._control(core, ("flush",))

    def _pipe_recv(self, core: int):
        """Receive a control-plane ack, watching for a dead worker."""
        conn = self._pipes[core]
        while not conn.poll(POLL_S):
            if not self._procs[core].is_alive():
                raise self._died(core)
        return conn.recv()

    def _pipe_message(self, core: int, message: tuple) -> None:
        """Queue one pipe message behind the core's in-ring traffic."""
        if self._rings is not None:
            self._control(core, ("pipe",))
        self._pipes[core].send(message)

    def _ensure_rings(self, request_bytes: int) -> None:
        """Create (or grow) the per-worker ring pairs.

        Called only from :meth:`deploy`, i.e. between serves while the
        rings are drained — the shared semaphores are at baseline, so a
        freshly attached ring starts both sides at ordinal 0.
        Completions carry one int32 per row, so their slots never grow
        with a model's output width.
        """
        request_bytes = max(request_bytes, MIN_PAYLOAD_BYTES)
        completion_bytes = max(self._max_batch * 4, MIN_PAYLOAD_BYTES)
        if self._rings is not None and self._rings[0].geometry.fits(
            request_bytes, completion_bytes
        ):
            return
        old = self._rings
        geometry = RingGeometry(
            capacity=self.capacity,
            request_bytes=request_bytes,
            completion_bytes=completion_bytes,
        )
        fresh: list[RingProducer] = []
        for core in range(self.num_cores):
            producer = RingProducer(geometry, self._sems[core], self.window)
            self._pipe_message(
                core, ("ring", producer.segment_name, geometry)
            )
            fresh.append(producer)
        # The swap message itself travelled through the *old* rings (or
        # the bare pipe on first deploy); only after every worker acks
        # its new attachment do the old segments unlink.
        self._rings = fresh
        for core in range(self.num_cores):
            message = self._pipe_recv(core)
            if message[0] != "ok":
                raise RuntimeError(
                    f"worker {core} failed to attach its dispatch "
                    f"rings:\n{message[2]}"
                )
        if old is not None:
            for producer in old:
                producer.close()

    # ------------------------------------------------------------------
    # Deploy
    # ------------------------------------------------------------------
    def deploy(self, dag: ComputationDAG, model_plan: ModelPlan) -> None:
        """Publish one model's plan and register it in every worker."""
        widest_in = max(task.input_size for task in dag.tasks)
        self._ensure_rings(self._max_batch * widest_in * 8)
        published = publish_model(dag, model_plan)
        self._published.append(published)
        spec = _deploy_spec(dag, published)
        for core in range(self.num_cores):
            self._pipe_message(core, ("deploy", spec))
        for core in range(self.num_cores):
            message = self._pipe_recv(core)
            if message[0] != "ok":
                raise RuntimeError(
                    f"worker {core} failed to deploy model "
                    f"{dag.model_id}:\n{message[2]}"
                )

    def undeploy(self, model_id: int) -> None:
        """Unregister one model in every worker and release its segment.

        Workers drop their plans but keep the segment mapped (live
        numpy views forbid closing it); the parent closes and unlinks,
        so the segment's backing store is reclaimed once the last
        worker mapping disappears.
        """
        for core in range(self.num_cores):
            self._pipe_message(core, ("undeploy", model_id))
        for core in range(self.num_cores):
            message = self._pipe_recv(core)
            if message[0] != "ok":
                raise RuntimeError(
                    f"worker {core} failed to undeploy model "
                    f"{model_id}:\n{message[2]}"
                )
        keep: list[PublishedModel] = []
        for published in self._published:
            if published.model_id != model_id:
                keep.append(published)
                continue
            try:
                published.segment.close()
                published.segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._published = keep

    # ------------------------------------------------------------------
    # Dispatch / collect
    # ------------------------------------------------------------------
    def run(
        self,
        core: int,
        model_id: int,
        block: np.ndarray,
        now_s: float,
        key: tuple[int, ...],
    ) -> int:
        """Write one batch into a core's request ring; returns its seq.

        ``block`` is a single request vector (1-D) or a coalesced
        ``(batch, input)`` stack; the worker mirrors the serial path's
        ``execute`` / ``execute_batch`` split on its dimensionality.
        The ring semaphore is only posted once ``window`` dispatches
        have accumulated, so W batches cost one wake-up, and the worker
        evaluates once it holds a forward block or meets a barrier (a
        control slot; the parent sends a flush slot before it waits on
        a completion).  Completions the worker has already posted move
        to the stash on the way out (one uncontended ``sem_trywait``
        when there are none), which keeps its completion ring shallow
        however deep the serve runs.
        """
        if self._rings is None:
            raise RuntimeError("no model deployed; rings not attached")
        seq = self._seq[core]
        self._seq[core] += 1
        self._outstanding[core].add(seq)
        self._backlogged[core] = True
        self._rings[core].submit_run(
            seq,
            model_id,
            block,
            now_s,
            key,
            on_stall=self._guards[core],
        )
        self._drain_ready(core)
        return seq

    def flush(self) -> None:
        """Have every worker evaluate the runs it holds now, not at its
        next full block (end-of-burst nudge): a flush slot to each core
        sent runs since its last barrier, its pending window posted."""
        if self._rings is None:
            return
        for core in range(self.num_cores):
            self._flush_backlog(core)

    def result(self, core: int, seq: int) -> list[int]:
        """Block until ``seq``'s predictions arrive (skipping discards).

        The worker answers strictly in dispatch order, so anything that
        surfaces before ``seq`` is a previously discarded batch.
        """
        while True:
            message = self._next_completion(core)
            kind, got = message[0], message[1]
            if kind == "error":
                self._outstanding[core].discard(got)
                self._discarded[core].discard(got)
                raise RuntimeError(
                    f"worker {core} failed on batch {got}:\n{message[2]}"
                )
            self._outstanding[core].discard(got)
            if got == seq:
                return message[2]
            if got in self._discarded[core]:
                self._discarded[core].discard(got)
                continue
            raise RuntimeError(
                f"worker {core} answered batch {got} while the parent "
                f"awaited {seq}"
            )

    def discard(self, core: int, seq: int) -> None:
        """Mark an aborted batch: its result is dropped on arrival."""
        if seq in self._outstanding[core]:
            self._discarded[core].add(seq)

    def fault(self, core: int, event, now_s: float) -> None:
        """Forward a device fault into a core's worker (FIFO-ordered).

        The event travels as a plain tuple — its ``params`` mapping is
        an unpicklable ``mappingproxy`` — and is rebuilt worker-side.
        Riding the request ring places it between exactly the
        dispatches it separated on the virtual clock.
        """
        self._control(
            core,
            (
                "fault",
                (
                    event.time_s,
                    event.kind,
                    event.core,
                    event.duration_s,
                    dict(event.params),
                ),
                now_s,
            ),
        )

    def relock(
        self, core: int, now_s: float, residual_volts: tuple[float, ...]
    ) -> None:
        """Mirror a parent-side bias re-lock into a core's worker.

        The parent ran the sweeps; the worker just re-bases its fault
        replicas at the same residuals so both copies keep perturbing
        future batches identically.  Ring FIFO ordering places the
        re-lock after every batch dispatched before it on the virtual
        clock.
        """
        self._control(core, ("relock", now_s, tuple(residual_volts)))

    def settle(self, core: int) -> None:
        """Nothing to do before a core's numerics state changes: the
        change travels as a control slot behind every dispatch the
        worker was already sent (see :meth:`fault`, :meth:`relock`)."""

    def drain(self) -> None:
        """Consume every outstanding result so the next serve starts
        clean (aborted and timed-out batches finish in the background).
        """
        for core in range(self.num_cores):
            while self._outstanding[core]:
                seq = self._next_completion(core)[1]
                self._outstanding[core].discard(seq)
                self._discarded[core].discard(seq)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def _stop_worker(self, core: int, give_up_ticks: int) -> None:
        """Best-effort graceful stop for one worker.

        A live worker drains its ring, so the stop slot lands; a dead
        or wedged one is detected by the bounded stall guard and left
        for ``terminate``.  Either way ``close`` keeps going — segment
        unlinking never depends on worker cooperation.
        """
        if self._rings is None:
            self._pipes[core].send(("stop",))
            return
        ticks = 0

        def on_stall() -> None:
            nonlocal ticks
            ticks += 1
            try:
                self._drain_ready(core)
            except Exception:  # pragma: no cover - corrupt ring
                raise _CloseTimeout
            # The first call precedes the first wait, so ``ticks - 1``
            # timers have expired by now.
            if ticks > give_up_ticks or not self._procs[core].is_alive():
                raise _CloseTimeout

        self._rings[core].submit_control(("stop",), on_stall=on_stall)

    def close(self, join_timeout_s: float = 5.0) -> None:
        """Stop workers and unlink every shared segment (idempotent).

        Hardened against a worker that crashed mid-window: the stop
        submit gives up after ``join_timeout_s`` (or as soon as the
        worker is seen dead), the process is terminated, and every
        model and ring segment is closed and unlinked regardless.
        """
        if self._closed:
            return
        self._closed = True
        give_up_ticks = max(int(join_timeout_s / POLL_S), 1)
        for core in range(self.num_cores):
            try:
                self._stop_worker(core, give_up_ticks)
            except (_CloseTimeout, BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=join_timeout_s)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=join_timeout_s)
        for conn in self._pipes:
            conn.close()
        if self._rings is not None:
            for producer in self._rings:
                producer.close()
            self._rings = None
        for published in self._published:
            try:
                published.segment.close()
                published.segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._published.clear()


def pool_finalizer(owner, pool: CoreWorkerPool) -> weakref.finalize:
    """Tie a pool's cleanup to its owner's garbage collection.

    Segments must never outlive the cluster that published them — a
    leaked segment persists in ``/dev/shm`` across test runs.
    """
    return weakref.finalize(owner, pool.close)
