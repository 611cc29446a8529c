"""Shared-memory ring buffers for windowed worker dispatch.

The original parallel executor shipped every batch to its worker as a
pickled pipe message — one ``send`` syscall, one pickle, and one
context switch per batch, in each direction.  At LeNet-class batch
sizes that transport overhead rivals the compute it dispatches, which
is how ``execution="parallel"`` ended up *slower* than serial in
wall-clock while winning in virtual time.

This module replaces the pipe with a pair of fixed-capacity
single-producer/single-consumer ring buffers per worker, both living
in one :class:`multiprocessing.shared_memory.SharedMemory` segment:

* the **request ring** carries dispatch slots written by the parent —
  the raw input block (no pickling; a bounded ``float64`` copy into the
  slot), the virtual dispatch time, the noise substream key, and the
  sequence number — plus small pickled *control* slots (device faults,
  bias re-locks, pipe hand-offs) that ride the
  same ring so FIFO ordering between faults and the batches they
  separate is preserved **by construction**;
* the **completion ring** mirrors it with prediction slots (one
  ``int32`` argmax per row) and error slots (pickled tracebacks).

Synchronisation is four POSIX semaphores per worker (items/free for
each ring).  The parent *windows* its submissions: slot writes are
plain shared-memory stores, and the items semaphore is only posted
when ``window`` slots have accumulated (or a blocking point forces a
flush) — so one wake-up amortises over a whole window of batches
instead of one syscall round-trip per batch.  The free semaphores
bound both rings at ``capacity`` slots, which doubles as flow control:
a parent that races too far ahead blocks on the request ring, and a
worker that computes too far ahead blocks on the completion ring.

Determinism is untouched by any of this: slot *order* is fixed by the
ring (the semaphores only gate progress, never reorder), every batch's
noise is keyed by its dispatch sequence, and outputs are matched back
by sequence number — so window size and scheduling jitter cannot
change a single served bit.

Flow control is a cycle — the parent fills the request ring, the
worker fills the completion ring, and each blocks on the other's free
semaphore — so two rules keep it from stalling.  **The parent never
sleeps on a semaphore while a completion slot is readable**: on a full
request ring :class:`RingProducer` flushes its window, runs the
caller's ``on_stall`` callback (which drains completions, unblocking a
worker parked on a full completion ring), and only then waits.  **The
worker never sleeps on a full completion ring while a request slot is
posted**: :class:`RingConsumer` first reads every posted slot into its
inbox, which wakes a parent blocked on the request ring — and the
parent drains completions after each submit.

Crash safety: the parent creates, owns, and unlinks every ring
segment.  A worker that dies holding a slot leaves the semaphores
wedged, never the memory — so the parent's waits are timed, and each
``POLL_S`` expiry re-runs ``on_stall``, which also checks worker
liveness.  The timer is for liveness only:
:attr:`RingProducer.poll_timeouts` counts the waits that ran it out,
and only a worker that is dead — or spends longer than ``POLL_S`` on
one batch — makes it move.  :meth:`RingProducer.close` unlinks the
segment unconditionally.
"""

from __future__ import annotations

import pickle
from collections import deque
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable

import numpy as np

__all__ = [
    "RingGeometry",
    "RingSems",
    "RingProducer",
    "RingConsumer",
    "PeerDiedError",
    "attach_segment",
]

#: Byte alignment of every slot (cache line, like the plan segments).
_ALIGN = 64
#: Fixed header bytes reserved at the front of each slot.
REQUEST_HEADER_BYTES = 96
COMPLETION_HEADER_BYTES = 64
#: Control pickles and error tracebacks must always fit a slot.
MIN_PAYLOAD_BYTES = 2048
#: Blocking helpers re-check liveness at this cadence (wall seconds).
#: Progress never depends on it — see the module docstring.
POLL_S = 0.05

#: Request-slot kinds.
KIND_RUN = 1
KIND_CONTROL = 2
#: Completion-slot kinds: an error, or one ``int32`` argmax per row.
KIND_ERROR = 4
KIND_PRED = 5


class PeerDiedError(RuntimeError):
    """The process on the other end of a ring died mid-transfer."""


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) & ~(_ALIGN - 1)


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting its lifetime.

    The creator owns unlinking; before Python 3.13 a plain attach also
    registers the segment with the resource tracker (which would
    double-unlink it, or — with a fork-shared tracker — erase the
    creator's own registration), so registration is suppressed for the
    duration of the attach.  Callers are single-threaded message
    loops, so the temporary patch cannot race.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def register(rt_name, rtype):  # pragma: no cover - trivial
            if rtype != "shared_memory":
                original(rt_name, rtype)

        resource_tracker.register = register
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


@dataclass(frozen=True)
class RingGeometry:
    """Slot count and payload sizes of one request/completion pair.

    ``capacity`` is pinned for the lifetime of a worker (the free
    semaphores are initialised to it), but payload sizes may grow:
    deploying a wider model swaps in a freshly sized segment while the
    rings are drained (see ``CoreWorkerPool._ensure_rings``).
    """

    capacity: int
    request_bytes: int
    completion_bytes: int

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("a ring needs at least one slot")
        if self.request_bytes < MIN_PAYLOAD_BYTES:
            raise ValueError(
                f"request slots need >= {MIN_PAYLOAD_BYTES} payload "
                "bytes (control pickles must always fit)"
            )
        if self.completion_bytes < MIN_PAYLOAD_BYTES:
            raise ValueError(
                f"completion slots need >= {MIN_PAYLOAD_BYTES} payload "
                "bytes (error tracebacks must always fit)"
            )

    @property
    def request_stride(self) -> int:
        return _aligned(REQUEST_HEADER_BYTES + self.request_bytes)

    @property
    def completion_stride(self) -> int:
        return _aligned(COMPLETION_HEADER_BYTES + self.completion_bytes)

    @property
    def completion_base(self) -> int:
        return self.capacity * self.request_stride

    @property
    def segment_bytes(self) -> int:
        return self.capacity * (
            self.request_stride + self.completion_stride
        )

    def fits(self, request_bytes: int, completion_bytes: int) -> bool:
        """Whether both payload sizes fit this geometry's slots."""
        return (
            self.request_bytes >= request_bytes
            and self.completion_bytes >= completion_bytes
        )


class RingSems:
    """The four semaphores synchronising one worker's ring pair.

    Created once per worker before the fork (POSIX semaphores cross by
    inheritance, not pickling) and reused across ring resizes — which
    is why ``capacity`` is fixed per worker.
    """

    def __init__(self, ctx, capacity: int) -> None:
        self.capacity = capacity
        self.request_items = ctx.Semaphore(0)
        self.request_free = ctx.Semaphore(capacity)
        self.completion_items = ctx.Semaphore(0)
        self.completion_free = ctx.Semaphore(capacity)


class _RingView:
    """Typed views over one ring segment (shared by both halves)."""

    def __init__(
        self, segment: shared_memory.SharedMemory, geometry: RingGeometry
    ) -> None:
        self.segment = segment
        self.geometry = geometry
        self._u8 = np.frombuffer(segment.buf, dtype=np.uint8)

    def _i64(self, offset: int, count: int) -> np.ndarray:
        return np.ndarray(
            (count,), dtype="<i8", buffer=self.segment.buf, offset=offset
        )

    def _f64(self, offset: int, count: int) -> np.ndarray:
        return np.ndarray(
            (count,), dtype="<f8", buffer=self.segment.buf, offset=offset
        )

    def _i32(self, offset: int, count: int) -> np.ndarray:
        return np.ndarray(
            (count,), dtype="<i4", buffer=self.segment.buf, offset=offset
        )

    def request_offset(self, ordinal: int) -> int:
        slot = ordinal % self.geometry.capacity
        return slot * self.geometry.request_stride

    def completion_offset(self, ordinal: int) -> int:
        slot = ordinal % self.geometry.capacity
        return (
            self.geometry.completion_base
            + slot * self.geometry.completion_stride
        )

    def close(self) -> None:
        # Views must die before the mapping may close.
        self._u8 = None
        self.segment.close()


class RingProducer:
    """The parent's half: write request slots, read completion slots.

    ``window`` is the signalling batch size — slot writes accumulate
    silently and the request-items semaphore is posted once per window
    (or at any blocking point).  ``on_stall`` callbacks passed to the
    blocking helpers are where the pool drains completions and checks
    worker liveness: a full request ring runs the callback *before*
    its first wait, so a worker parked on a full completion ring is
    released at once, and every :data:`POLL_S` expiry (counted in
    :attr:`poll_timeouts`) runs it again to catch a dead worker.
    """

    def __init__(
        self, geometry: RingGeometry, sems: RingSems, window: int
    ) -> None:
        if sems.capacity != geometry.capacity:
            raise ValueError(
                f"semaphores sized for {sems.capacity} slots cannot "
                f"drive a {geometry.capacity}-slot ring"
            )
        if window < 1:
            raise ValueError("window must be at least one batch")
        self.geometry = geometry
        self.window = min(window, geometry.capacity)
        self._sems = sems
        self._view = _RingView(
            shared_memory.SharedMemory(
                create=True, size=geometry.segment_bytes
            ),
            geometry,
        )
        self._submitted = 0
        self._collected = 0
        self._pending_signals = 0
        #: Timed waits that ran out their :data:`POLL_S` (observable
        #: for tests and the pool's counter).  Flow control never
        #: causes one; a worker stuck on one batch that long does.
        self.poll_timeouts = 0
        self._closed = False

    @property
    def segment_name(self) -> str:
        return self._view.segment.name

    @property
    def pending_signals(self) -> int:
        """Submitted-but-unsignalled slots (observable for tests)."""
        return self._pending_signals

    # -- submission ----------------------------------------------------
    def _acquire_request_slot(
        self, on_stall: Callable[[], None] | None
    ) -> None:
        if self._sems.request_free.acquire(False):
            return
        # The ring is full: the worker is a whole capacity behind, so
        # make sure it has been told about everything submitted (a
        # deferred window would deadlock here), then drain completions
        # *before* sleeping — the worker may itself be parked on a
        # full completion ring, and nothing else would wake it.
        self.flush()
        while True:
            if on_stall is not None:
                on_stall()
            if self._sems.request_free.acquire(True, POLL_S):
                return
            self.poll_timeouts += 1

    def submit_run(
        self,
        seq: int,
        model_id: int,
        block: np.ndarray,
        now_s: float,
        key: tuple[int, ...],
        on_stall: Callable[[], None] | None = None,
    ) -> None:
        """Write one dispatch slot (raw copy, no pickling)."""
        block = np.ascontiguousarray(block, dtype=np.float64)
        if block.nbytes > self.geometry.request_bytes:
            raise ValueError(
                f"block of {block.nbytes} bytes exceeds the "
                f"{self.geometry.request_bytes}-byte request slots"
            )
        rows, cols = (
            (0, block.shape[0]) if block.ndim == 1 else block.shape
        )
        self._acquire_request_slot(on_stall)
        base = self._view.request_offset(self._submitted)
        header = self._view._i64(base, 10)
        header[0] = KIND_RUN
        header[1] = seq
        header[2] = model_id
        header[3] = rows
        header[4] = cols
        header[5] = block.nbytes
        header[6:10] = key
        self._view._f64(base + 80, 1)[0] = now_s
        payload = self._view._f64(
            base + REQUEST_HEADER_BYTES, block.size
        )
        payload[:] = block.ravel()
        self._submitted += 1
        self._pending_signals += 1
        if self._pending_signals >= self.window:
            self.flush()

    def submit_control(
        self,
        message: tuple,
        on_stall: Callable[[], None] | None = None,
    ) -> None:
        """Write one pickled control slot and flush immediately.

        Control slots ride the request ring so they land in FIFO order
        between exactly the dispatches they separated on the virtual
        clock — the fault-ordering contract, by construction.
        """
        payload = pickle.dumps(message)
        if len(payload) > self.geometry.request_bytes:
            raise ValueError(
                f"control message of {len(payload)} bytes exceeds the "
                f"{self.geometry.request_bytes}-byte request slots"
            )
        self._acquire_request_slot(on_stall)
        base = self._view.request_offset(self._submitted)
        header = self._view._i64(base, 6)
        header[0] = KIND_CONTROL
        header[1] = -1
        header[2] = 0
        header[3] = 0
        header[4] = 0
        header[5] = len(payload)
        start = base + REQUEST_HEADER_BYTES
        self._view._u8[start : start + len(payload)] = np.frombuffer(
            payload, dtype=np.uint8
        )
        self._submitted += 1
        self._pending_signals += 1
        self.flush()

    def flush(self) -> None:
        """Post the accumulated window (the one sync per W batches)."""
        pending, self._pending_signals = self._pending_signals, 0
        for _ in range(pending):
            self._sems.request_items.release()

    # -- collection ----------------------------------------------------
    def _read_completion(self) -> tuple:
        base = self._view.completion_offset(self._collected)
        header = self._view._i64(base, 5)
        kind, seq, rows, _, nbytes = (int(v) for v in header[:5])
        if kind == KIND_PRED:
            flat = self._view._i32(
                base + COMPLETION_HEADER_BYTES, max(rows, 1)
            )
            message = ("pred", seq, [int(v) for v in flat[:rows]])
        elif kind == KIND_ERROR:
            start = base + COMPLETION_HEADER_BYTES
            message = (
                "error",
                seq,
                pickle.loads(bytes(self._view._u8[start : start + nbytes])),
            )
        else:
            raise RuntimeError(
                f"corrupt completion slot kind {kind} at ordinal "
                f"{self._collected}"
            )
        self._collected += 1
        self._sems.completion_free.release()
        return message

    def poll(self) -> tuple | None:
        """A completed slot if one is ready, else ``None`` (no wait)."""
        if not self._sems.completion_items.acquire(False):
            return None
        return self._read_completion()

    def collect(self, on_stall: Callable[[], None] | None = None) -> tuple:
        """Block for the next completion (flushing first — the worker
        cannot finish a window it was never told about)."""
        self.flush()
        while not self._sems.completion_items.acquire(True, POLL_S):
            self.poll_timeouts += 1
            if on_stall is not None:
                on_stall()
        return self._read_completion()

    def close(self) -> None:
        """Unlink the segment (idempotent; works on a wedged ring)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._view.close()
            self._view.segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class RingConsumer:
    """The worker's half: read request slots, write completion slots.

    A consumer never sleeps on a full completion ring while request
    slots are posted: it first reads them into an inbox (which
    :meth:`next` hands out before the ring's own slots).  Freeing those
    slots wakes a parent blocked on a full request ring, and the parent
    drains completions after every submit — so flow control never
    waits out a timer on this side either.
    """

    def __init__(
        self, name: str, geometry: RingGeometry, sems: RingSems
    ) -> None:
        if sems.capacity != geometry.capacity:
            raise ValueError(
                f"semaphores sized for {sems.capacity} slots cannot "
                f"drive a {geometry.capacity}-slot ring"
            )
        self.geometry = geometry
        self._sems = sems
        self._view = _RingView(attach_segment(name), geometry)
        self._consumed = 0
        self._posted = 0
        #: Request slots read ahead while the completion ring was full.
        self._inbox: deque[tuple] = deque()

    def next(self) -> tuple:
        """Block for the next request slot, copy it out, free it.

        Returns ``("run", seq, model_id, block, now_s, key)`` or the
        control message tuple verbatim.  The slot is freed as soon as
        its contents are copied, so the parent can refill the ring
        while this worker computes.
        """
        if self._inbox:
            return self._inbox.popleft()
        self._sems.request_items.acquire()
        return self._read_request()

    def poll(self) -> tuple | None:
        """The next posted request slot off the ring if there is one,
        else ``None`` (no wait)."""
        if not self._sems.request_items.acquire(False):
            return None
        return self._read_request()

    def _acquire_completion_slot(self) -> None:
        """Take a free completion slot, reading every posted request
        slot into the inbox before each wait (see the class doc)."""
        free = self._sems.completion_free
        while not free.acquire(False):
            while (message := self.poll()) is not None:
                self._inbox.append(message)
            if free.acquire(True, POLL_S):
                return

    def _read_request(self) -> tuple:
        base = self._view.request_offset(self._consumed)
        header = self._view._i64(base, 10)
        kind = int(header[0])
        if kind == KIND_RUN:
            seq, model_id, rows, cols = (int(v) for v in header[1:5])
            key = tuple(int(v) for v in header[6:10])
            now_s = float(self._view._f64(base + 80, 1)[0])
            flat = self._view._f64(
                base + REQUEST_HEADER_BYTES, max(rows, 1) * cols
            )
            block = np.array(flat)
            if rows > 0:
                block = block.reshape(rows, cols)
            message = ("run", seq, model_id, block, now_s, key)
        elif kind == KIND_CONTROL:
            nbytes = int(header[5])
            start = base + REQUEST_HEADER_BYTES
            message = pickle.loads(
                bytes(self._view._u8[start : start + nbytes])
            )
        else:
            raise RuntimeError(
                f"corrupt request slot kind {kind} at ordinal "
                f"{self._consumed}"
            )
        self._consumed += 1
        self._sems.request_free.release()
        return message

    def post_predictions(self, seq: int, predictions) -> None:
        """Write one prediction slot: one ``int32`` per row.

        The worker reduces each output row to its argmax and the
        parent patches records without ever copying output rows back
        across the ring.
        """
        preds = np.ascontiguousarray(predictions, dtype=np.int32).ravel()
        rows = int(preds.shape[0])
        if rows * 4 > self.geometry.completion_bytes:
            raise ValueError(
                f"{rows} predictions exceed the "
                f"{self.geometry.completion_bytes}-byte completion slots"
            )
        self._acquire_completion_slot()
        base = self._view.completion_offset(self._posted)
        header = self._view._i64(base, 5)
        header[0] = KIND_PRED
        header[1] = seq
        header[2] = rows
        header[3] = 1
        header[4] = rows * 4
        flat = self._view._i32(
            base + COMPLETION_HEADER_BYTES, max(rows, 1)
        )
        flat[:rows] = preds
        self._posted += 1
        self._sems.completion_items.release()

    def post_error(self, seq: int, traceback_text: str) -> None:
        """Write one error slot (traceback truncated to fit).

        The exception's type and message are the traceback's last
        line, so truncation keeps the tail.
        """
        payload = pickle.dumps(traceback_text)
        excess = len(payload) - self.geometry.completion_bytes
        if excess > 0:
            # Every character dropped frees at least one byte.
            marker = "[truncated]\n"
            payload = pickle.dumps(
                marker + traceback_text[excess + len(marker):]
            )
        self._acquire_completion_slot()
        base = self._view.completion_offset(self._posted)
        header = self._view._i64(base, 5)
        header[0] = KIND_ERROR
        header[1] = seq
        header[2] = 0
        header[3] = 0
        header[4] = len(payload)
        start = base + COMPLETION_HEADER_BYTES
        self._view._u8[start : start + len(payload)] = np.frombuffer(
            payload, dtype=np.uint8
        )
        self._posted += 1
        self._sems.completion_items.release()

    def close(self) -> None:
        """Close this mapping (the producer owns the unlink)."""
        self._view.close()
