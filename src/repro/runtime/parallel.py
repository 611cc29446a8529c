"""Process-parallel core execution: one worker process per core.

Lightning's count-action datapath keeps every photonic core busy at
once; a Python serving loop that executes core batches serially does
not.  This module gives :class:`~repro.runtime.cluster.Cluster` real
execution parallelism while preserving its virtual-clock determinism:

* :class:`CoreWorkerPool` — one persistent worker process per photonic
  core.  Each worker owns a full :class:`~repro.core.datapath.
  LightningDatapath` built by the cluster's own ``datapath_factory``,
  so a worker computes exactly what the serial path would have computed
  on that core.
* **A worker loads its own models** — like a Lightning NIC loading a
  model's weights into its own DRAM, a worker receives the model's
  :class:`~repro.core.dag.ComputationDAG`, weights included, as a
  ``("deploy", dag)`` item and registers it like any datapath: it
  compiles its own plans, for its own core's geometry, while the
  parent compiles its.  Plans are never shipped.
* **One ordered stream per worker** — everything travels over the
  worker's one pipe, in order, both ways.  The parent queues
  ``("run", seq, model_id, block, now_s, key)`` dispatches in a
  per-core outbox and sends the outbox as one message once ``window``
  runs have built up, or at once when a control item joins it
  (``fault``, ``relock``, ``flush``, ``deploy``, ``undeploy``,
  ``stop``).  Blocks travel as given; the forward program widens them.
  The worker answers one message per evaluation, a list of
  ``("pred", seq, [ints])`` / ``("error", seq, traceback)`` entries, and
  one ``("ack", error)`` per deploy or undeploy.  :meth:`CoreWorkerPool.
  deploy` only sends; :meth:`~CoreWorkerPool.confirm` takes the acks,
  and if a worker failed it undeploys the model from the others, so a
  deploy lands everywhere or nowhere.

Determinism contract: the parent reseeds nothing here — the cluster
keys every batch's readout-noise stream by ``(domain, core, epoch,
batch)`` and ships the key with the dispatch, and the worker rebases
its core's SFC64 substream on that key before executing
(:meth:`~repro.photonics.core.BehavioralCore.reseed_noise`).  Because
the draws a batch consumes depend only on its key, the worker's outputs
are bit-identical to the serial path's regardless of real scheduling
order.  Device faults and bias re-locks are control items in the *same*
stream as dispatches, so a worker observes exactly the fault-prefix a
serial execution at that virtual time would have — FIFO ordering by
construction, windowing or not.  A worker files each ``run`` in a
backlog and evaluates the backlog when it holds one forward block
(:data:`~repro.runtime.executor.BLOCK_BYTES` of row bytes) or a control
item arrives — every control item is a barrier, and ``flush``, which
the parent sends before it waits on an answer, is nothing else —
grouped by model, through the batch-major forward program
(:func:`~repro.runtime.executor.evaluate`), so it cuts the blocks the
in-process executor cuts; answers come back in dispatch order.

No deadlock: a worker's loop never blocks on a send.  It hands each
answer to a sender thread through a :class:`queue.SimpleQueue`, so it
keeps reading its pipe while the parent is blocked sending to it.
Every parent-side wait is ``conn.poll(POLL_S)`` plus a liveness check,
so a dead worker raises instead of hanging.

Lifecycle: :meth:`CoreWorkerPool.close` stops the workers, even when
one died mid-stream; the cluster also arranges a ``weakref.finalize``
so a dropped cluster leaves no worker running.
"""

from __future__ import annotations

import gc
import multiprocessing
import pickle
import queue
import threading
import time
import traceback
import weakref
from collections import deque

import numpy as np

from ..core.dag import ComputationDAG
from ..faults.device import DegradedCore, device_fault_from_event
from ..faults.schedule import FaultEvent
from . import executor

__all__ = ["CoreWorkerPool"]

#: Default window: dispatches per worker wake-up.
DEFAULT_WINDOW = 8

#: Parent-side waits re-check worker liveness at this cadence (wall
#: seconds).  Progress never depends on it.
POLL_S = 0.05


class _WorkerState:
    """Mutable bag threaded through one worker's item handlers."""

    def __init__(self, datapath, answers: queue.SimpleQueue) -> None:
        self.datapath = datapath
        #: Messages for the sender thread, in the order they go out.
        self.answers = answers
        #: ``run`` items received but not yet evaluated, in dispatch
        #: order, and the forward-block bytes their rows take.
        self.backlog: list[tuple] = []
        self.backlog_bytes = 0


def _worker_take(state: _WorkerState, run: tuple) -> None:
    """File one ``run`` item in the backlog; evaluate the backlog once
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
    """``seq -> predictions`` of one model's ``run`` items."""
    results = executor.evaluate(
        datapath,
        model_id,
        [(block, now_s, key) for _, _, _, block, now_s, key in runs],
    )
    return {run[1]: predictions for run, predictions in zip(runs, results)}


def _worker_run(state: _WorkerState, runs: list[tuple]) -> None:
    """Evaluate ``run`` items and answer them as one message, each
    one's predictions (or error) in dispatch order.

    Numerics only — the parent owns (and already charged) the ledger.
    Records carry a prediction, never outputs, so the reduction to one
    int per row happens here; ``argmax`` over the identical float64
    outputs is the reduction the serial path runs, so predictions stay
    bit-identical to it.  Items of one model evaluate together; if
    that raises they run again one by one, so the error lands on the
    item that caused it and its neighbours still answer (a dispatch's
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
    message = []
    for _, seq, *_ in runs:
        answer = answers[seq]
        kind = "error" if isinstance(answer, str) else "pred"
        message.append((kind, seq, answer))
    state.answers.put(message)


def _worker_control(state: _WorkerState, item: tuple) -> bool:
    """Handle one control item; False stops the worker.

    The caller has already evaluated the backlog: every control item
    is a barrier, taking effect after the runs sent before it.  A
    ``flush`` is nothing but that barrier.
    """
    kind = item[0]
    if kind == "fault":
        _, (time_s, fkind, fcore, duration_s, params), now_s = item
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
        _, now_s, residuals = item
        core = state.datapath.core
        if isinstance(core, DegradedCore):
            core.relock(now_s, residuals)
    elif kind in ("deploy", "undeploy"):
        try:
            if kind == "deploy":
                state.datapath.register_model(item[1])
            else:
                state.datapath.unregister_model(item[1])
            error = None
        except Exception:
            error = traceback.format_exc()
        state.answers.put([("ack", error)])
    elif kind == "stop":
        return False
    return True


def _worker_sender(conn, answers: queue.SimpleQueue) -> None:
    """Send a worker's answers in order until the ``None`` that ends
    them, or until the parent is gone."""
    while (message := answers.get()) is not None:
        try:
            conn.send(message)
        except OSError:
            return


def _worker_loop(state: _WorkerState, conn) -> None:
    """Handle every received item in order until ``stop`` or EOF."""
    while True:
        try:
            items = conn.recv()
        except EOFError:
            return
        for item in items:
            if item[0] == "run":
                _worker_take(state, item)
                continue
            _worker_evaluate(state)  # every control item is a barrier
            if not _worker_control(state, item):
                return


def _worker_main(core_index: int, datapath_factory, conn) -> None:
    """One photonic core's worker.

    Items are handled strictly in the order the parent sent them,
    which is what makes fault forwarding deterministic: a device fault
    sent at virtual time T lands between the dispatches it separated
    in virtual time.  ``run`` items wait in the backlog until it holds
    a forward block or a control item arrives (:func:`_worker_take`).
    Answers go out through a sender thread, so this loop never blocks
    on a send while the parent may be blocked sending to it.
    """
    datapath = datapath_factory(core_index)
    # Everything alive now was inherited from the parent at fork and
    # lives as long as the worker: keep it out of the collector's
    # generations, or the first full collection walks the whole forked
    # heap mid-batch (65-100 ms, and it dirties the shared pages).
    gc.freeze()
    answers: queue.SimpleQueue = queue.SimpleQueue()
    sender = threading.Thread(
        target=_worker_sender, args=(conn, answers), daemon=True
    )
    sender.start()
    state = _WorkerState(datapath, answers)
    _worker_loop(state, conn)
    answers.put(None)
    sender.join()
    conn.close()


class CoreWorkerPool:
    """A persistent worker process per photonic core.

    Workers fork at construction so the cluster's ``datapath_factory``
    — commonly a closure — transfers by inheritance, never by pickle.
    Everything, a deploy's DAG and weights included, travels over the
    worker's one pipe, the parent's items in messages of ``window``
    runs (or fewer, ended by a control item), the worker's answers one
    message per evaluation.  Workers evaluate whole forward blocks, so
    before the parent waits on an answer it takes in every core's
    ready answers and sends a ``flush`` to every core that has runs
    since its last barrier.  The ``POLL_S`` timer on its waits is for
    liveness only (a dead worker raises instead of hanging);
    :attr:`poll_timeouts` counts its expiries.
    """

    def __init__(
        self,
        num_cores: int,
        datapath_factory,
        *,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        if window < 1:
            raise ValueError("window must be at least one batch")
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX hosts
            raise RuntimeError(
                "execution='parallel' needs the fork start method"
            ) from exc
        self.window = window
        self._pipes = []
        self._procs = []
        for core in range(num_cores):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(core, datapath_factory, child_conn),
                daemon=True,
                name=f"lightning-core-{core}",
            )
            proc.start()
            child_conn.close()
            self._pipes.append(parent_conn)
            self._procs.append(proc)
        self._seq = [0] * num_cores
        #: Items queued for each core and not yet sent.
        self._outbox: list[list[tuple]] = [[] for _ in range(num_cores)]
        #: Per core: whether runs went out since its last control item
        #: (so its worker may hold an unevaluated backlog).
        self._backlogged = [False] * num_cores
        #: Dispatched-but-uncollected sequence numbers, per core.
        self._outstanding: list[set[int]] = [set() for _ in range(num_cores)]
        #: Sequence numbers whose results must be dropped (aborted
        #: batches): the worker computes them anyway, the parent skips
        #: them when they surface.
        self._discarded: list[set[int]] = [set() for _ in range(num_cores)]
        #: Answer entries already read off the pipes, held in worker
        #: order until ``result``/``drain`` consume them.
        self._stash: list[deque] = [deque() for _ in range(num_cores)]
        self._expired = 0
        self._closed = False

    @property
    def num_cores(self) -> int:
        return len(self._procs)

    @property
    def poll_timeouts(self) -> int:
        """Timed waits that expired.

        The timer only guards liveness, so anything above 0 means the
        parent sat out a whole ``POLL_S``: a worker was dead, or busy
        that long with one block (a GC pause, a huge model).
        """
        return self._expired

    # ------------------------------------------------------------------
    # The stream
    # ------------------------------------------------------------------
    def _whereabouts(self, core: int, awaited: int | None) -> str:
        """Where a misbehaving worker's dispatch stream stood: the seq
        the parent awaited, the last dispatched seq and how many were
        outstanding."""
        return (
            f"awaited seq {awaited}, last dispatched seq "
            f"{self._seq[core] - 1}, {len(self._outstanding[core])} "
            "outstanding"
        )

    def _died(self, core: int) -> RuntimeError:
        """The error for a dead worker, naming where it was (the
        awaited seq is the oldest outstanding — a worker answers in
        dispatch order) and the process exit code."""
        awaited = min(self._outstanding[core], default=None)
        return RuntimeError(
            f"worker {core} died while the parent awaited a result "
            f"({self._whereabouts(core, awaited)}, exitcode "
            f"{self._procs[core].exitcode})"
        )

    def _send(self, core: int) -> None:
        """Send ``core``'s outbox as one message, then take in its
        ready answers, so they never pile up in the worker while the
        parent dispatches.  A dead worker's pipe refuses the send; the
        next wait on that core reports the death."""
        items, self._outbox[core] = self._outbox[core], []
        try:
            # Protocol 5 pickles a deploy's weight arrays without the
            # copies the connection's default protocol makes, which
            # would add a fifth to a parallel shard's build time.
            self._pipes[core].send_bytes(
                pickle.dumps(items, protocol=pickle.HIGHEST_PROTOCOL)
            )
        except OSError:
            pass
        self._drain_ready(core)

    def _control(self, core: int, item: tuple) -> None:
        """Send one control item now, behind the core's outbox: a
        barrier, behind which the worker evaluates every run it was
        sent before."""
        self._backlogged[core] = False
        self._outbox[core].append(item)
        self._send(core)

    def _drain_ready(self, core: int) -> None:
        """Move one core's ready answers into its stash (no wait; a
        dead worker's EOF is left for the waits to report)."""
        conn, stash = self._pipes[core], self._stash[core]
        try:
            while conn.poll():
                stash.extend(conn.recv())
        except EOFError:
            pass

    def _receive(self, core: int) -> None:
        """Block for one core's next message, watching for a dead
        worker."""
        conn = self._pipes[core]
        while not conn.poll(POLL_S):
            self._expired += 1
            if not self._procs[core].is_alive():
                raise self._died(core)
        try:
            self._stash[core].extend(conn.recv())
        except EOFError:
            raise self._died(core) from None

    def _next_entry(self, core: int) -> tuple:
        """The next answer entry in worker order."""
        stash = self._stash[core]
        if not stash:
            # About to block on this core: take in every core's ready
            # answers, and flush every backlog — this core's, whose
            # answer the parent waits for, and its siblings', whose
            # tails then evaluate during the wait.
            for each in range(self.num_cores):
                self._drain_ready(each)
            if not stash:
                self.flush()
            while not stash:
                self._receive(core)
        return stash.popleft()

    def _acks(self, cores) -> list[str | None]:
        """Each of ``cores``' ack of the deploy or undeploy it was sent
        last — ``None`` or the worker's traceback — all taken before
        anyone raises, so none is left in a stream."""
        errors = []
        for core in cores:
            stash = self._stash[core]
            while not stash or stash[-1][0] != "ack":
                self._receive(core)
            errors.append(stash.pop()[1])
        return errors

    def _undeploy(self, model_id: int, cores) -> list[str | None]:
        for core in cores:
            self._control(core, ("undeploy", model_id))
        return self._acks(cores)

    def _roll_back(self, model_id: int, errors: list[str | None]) -> None:
        """Undo the latest :meth:`deploy`: undeploy its model from the
        workers whose ack in ``errors`` was clean."""
        self._undeploy(
            model_id, [core for core, error in enumerate(errors) if not error]
        )

    # ------------------------------------------------------------------
    # Deploy
    # ------------------------------------------------------------------
    def deploy(self, dag: ComputationDAG) -> None:
        """Send one model's DAG, weights included, to every worker,
        which registers and compiles it while the caller goes on;
        :meth:`confirm` (or :meth:`withdraw`) takes the acks."""
        for core in range(self.num_cores):
            self._control(core, ("deploy", dag))

    def confirm(self, model_id: int) -> None:
        """Take every worker's ack of :meth:`deploy`.  If one failed,
        the model leaves the workers that took it before the first
        failure raises."""
        errors = self._acks(range(self.num_cores))
        if any(errors):
            self._roll_back(model_id, errors)
        _raise_first(errors, f"deploy model {model_id}")

    def withdraw(self, model_id: int) -> None:
        """Take every worker's ack of :meth:`deploy` and undo it: the
        parent could not register the model."""
        self._roll_back(model_id, self._acks(range(self.num_cores)))

    def undeploy(self, model_id: int) -> None:
        """Unregister one model in every worker, as the parent's
        datapaths do: a run of it then answers the loader's
        ``KeyError``."""
        _raise_first(
            self._undeploy(model_id, range(self.num_cores)),
            f"undeploy model {model_id}",
        )

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
        """Queue one batch for a core; returns its seq.

        ``block`` is a single request vector (1-D) or a coalesced
        ``(batch, input)`` stack, sent as given; the worker mirrors the
        serial path's ``execute`` / ``execute_batch`` split on its
        dimensionality.  The core's outbox goes out as one message
        once ``window`` runs have built up, so W batches cost one
        wake-up, and the worker evaluates once it holds a forward
        block or meets a barrier (a control item; the parent sends a
        flush before it waits on an answer).
        """
        seq = self._seq[core]
        self._seq[core] += 1
        self._outstanding[core].add(seq)
        self._backlogged[core] = True
        outbox = self._outbox[core]
        outbox.append(("run", seq, model_id, block, now_s, key))
        if len(outbox) >= self.window:
            self._send(core)
        return seq

    def flush(self) -> None:
        """Have every worker evaluate the runs it holds now, not at its
        next full block (end-of-burst nudge): a flush item, with the
        outbox ahead of it, to each core sent runs since its last
        barrier."""
        for core in range(self.num_cores):
            if self._backlogged[core]:
                self._control(core, ("flush",))

    def result(self, core: int, seq: int) -> list[int]:
        """Block until ``seq``'s predictions arrive (skipping discards).

        The worker answers strictly in dispatch order, so anything that
        surfaces before ``seq`` is a previously discarded batch.
        """
        while True:
            entry = self._next_entry(core)
            kind, got = entry[0], entry[1]
            # Errors name the stream as it stood before this answer.
            if kind == "error":
                error = RuntimeError(
                    f"worker {core} failed on batch {got} "
                    f"({self._whereabouts(core, seq)}):\n{entry[2]}"
                )
            elif got != seq and got not in self._discarded[core]:
                error = RuntimeError(
                    f"worker {core} answered batch {got} while the parent "
                    f"awaited another ({self._whereabouts(core, seq)})"
                )
            else:
                error = None
            self._outstanding[core].discard(got)
            self._discarded[core].discard(got)
            if error is not None:
                raise error
            if got == seq:
                return entry[2]

    def discard(self, core: int, seq: int) -> None:
        """Mark an aborted batch: its result is dropped on arrival."""
        if seq in self._outstanding[core]:
            self._discarded[core].add(seq)

    def fault(self, core: int, event, now_s: float) -> None:
        """Forward a device fault into a core's worker (FIFO-ordered).

        The event travels as a plain tuple — its ``params`` mapping is
        an unpicklable ``mappingproxy`` — and is rebuilt worker-side.
        Riding the dispatch stream places it between exactly the
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
        future batches identically.  Stream order places the re-lock
        after every batch dispatched before it on the virtual clock.
        """
        self._control(core, ("relock", now_s, tuple(residual_volts)))

    def settle(self, core: int) -> None:
        """Nothing to do before a core's numerics state changes: the
        change travels as a control item behind every dispatch the
        worker was already sent (see :meth:`fault`, :meth:`relock`)."""

    def drain(self) -> None:
        """Consume every outstanding result so the next serve starts
        clean (aborted and timed-out batches finish in the background).
        """
        for core in range(self.num_cores):
            while self._outstanding[core]:
                seq = self._next_entry(core)[1]
                self._outstanding[core].discard(seq)
                self._discarded[core].discard(seq)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self, join_timeout_s: float = 5.0) -> None:
        """Stop every worker (idempotent).

        Hardened against a worker that died mid-stream: the stop is
        best-effort, answers keep being read while the workers exit
        (so none is held up sending), and a worker still alive after
        ``join_timeout_s`` is terminated.
        """
        if self._closed:
            return
        self._closed = True
        for core in range(self.num_cores):
            self._control(core, ("stop",))
        deadline = time.monotonic() + join_timeout_s
        for core, proc in enumerate(self._procs):
            while proc.is_alive() and time.monotonic() < deadline:
                self._drain_ready(core)
                proc.join(POLL_S)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(join_timeout_s)
        for conn in self._pipes:
            conn.close()


def _raise_first(errors: list[str | None], what: str) -> None:
    """Raise the first worker's failure to do ``what``, if any."""
    for core, error in enumerate(errors):
        if error is not None:
            raise RuntimeError(f"worker {core} failed to {what}:\n{error}")


def pool_finalizer(owner, pool: CoreWorkerPool) -> weakref.finalize:
    """Tie a pool's cleanup to its owner's garbage collection, so no
    worker process outlives the cluster that forked it."""
    return weakref.finalize(owner, pool.close)
