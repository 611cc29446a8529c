"""Where a dispatch's numerics run, and when.

A dispatch's *timing* comes from its model's compiled
:class:`~repro.core.datapath.TimingPlan` and its noise from an SFC64
stream keyed by the dispatch, so on a core whose forward program tapes
the noise (:attr:`~repro.core.datapath.LightningDatapath.defers_numerics`)
the *numerics* are a function of the plan, the request levels, the key,
the dispatch time and the core's seed, noise model and installed
faults — nothing the event loop moves between a dispatch and its
evaluation, as long as a core's backlog is settled before its faults
change (a fault install, a bias re-lock).  Healthy and drifted
behavioural cores alike defer; only cores without a tape law (the
device-accurate :class:`~repro.photonics.core.PrototypeCore`, noise
models other than a Gaussian or none, overridden noise sites) compute
at dispatch, row by row.  The cluster therefore charges a dispatch
when it happens and hands ``(model, block, time, key)`` to an
executor; predictions are patched into the records after the loop.
Two executors share that contract:

* :class:`~repro.runtime.parallel.CoreWorkerPool` ships dispatches to
  worker processes, each of which evaluates its backlog once it holds
  one forward block or the parent sends a barrier;
* :class:`InlineExecutor` keeps them in the serving process and
  evaluates each core's pending dispatches, grouped by model, when a
  result is first asked for.

Both evaluate through :func:`evaluate`, so a dispatch's prediction does
not depend on which executor ran it, with which neighbours, or when.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.datapath import LightningDatapath
from ..faults.device import DegradedCore

__all__ = ["BLOCK_BYTES", "evaluate", "rebase", "InlineExecutor"]

#: Bytes of draws and activations one forward block may keep live,
#: sized to a last-level cache slice.  A GPT-2-class request is ~90 kB,
#: so it rides in blocks of two dozen rows — per-request cost is flat
#: from a dozen up, every numpy call being amortised by then — and a
#: two-layer toy model rides thousands of rows deep.  Results never
#: depend on it.
BLOCK_BYTES = 2 << 20

#: One dispatch: the request levels (one ``(n,)`` vector or a coalesced
#: ``(rows, n)`` stack), the virtual dispatch time, the noise key.
Dispatch = tuple[np.ndarray, float, tuple[int, ...]]


def evaluate(
    datapath: LightningDatapath, model_id: int, dispatches: Sequence[Dispatch]
) -> list[list[int]]:
    """Each dispatch's argmax predictions, one per request row.

    On a core that defers its numerics — a taped behavioural core,
    bare or wrapped in faults — the dispatches run through the
    batch-major forward program, as many at a time as
    :data:`BLOCK_BYTES` holds, every dispatch on its own keyed stream
    and, on a fault wrapper, perturbed at its own dispatch time.  A
    core without a tape law takes them one by one in dispatch order:
    clock, reseed, one forward per row.
    """
    if not datapath.defers_numerics:
        return [
            _walk(datapath, model_id, *dispatch) for dispatch in dispatches
        ]
    limit = max(BLOCK_BYTES // datapath.row_bytes(model_id), 1)
    chunks: list[list[Dispatch]] = [[]]
    rows = 0
    for levels, now_s, key in dispatches:
        levels = np.atleast_2d(levels)
        if chunks[-1] and rows + len(levels) > limit:
            chunks.append([])
            rows = 0
        chunks[-1].append((levels, now_s, key))
        rows += len(levels)
    return [
        predictions
        for chunk in chunks
        if chunk
        for predictions in _forward_chunk(datapath, model_id, chunk)
    ]


def _forward_chunk(datapath, model_id, chunk) -> list[list[int]]:
    """One program invocation over a chunk of keyed dispatches."""
    blocks = [levels for levels, _, _ in chunk]
    outputs = datapath.forward_keyed(
        model_id,
        blocks[0] if len(blocks) == 1 else np.concatenate(blocks),
        [(key, len(levels)) for levels, _, key in chunk],
        [now_s for _, now_s, _ in chunk],
    )
    # ``argmax`` along the row axis is the scalar reduction per row.
    flat = iter(outputs.argmax(axis=-1).tolist())
    return [[next(flat) for _ in levels] for levels in blocks]


def rebase(core, now_s: float, key: tuple[int, ...]) -> None:
    """Put a core at virtual time ``now_s`` on its keyed noise
    substream; each half is a no-op for a core without one (only a
    fault wrapper reads a clock, the prototype has no keyed stream)."""
    if isinstance(core, DegradedCore):
        core.set_time(now_s)
    reseed = getattr(core, "reseed_noise", None)
    if reseed is not None:
        reseed(*key)


def _walk(datapath, model_id, levels, now_s, key) -> list[int]:
    """One dispatch on a core without a tape law, at its own time on
    the core's own stream."""
    rebase(datapath.core, now_s, key)
    return [
        int(np.argmax(datapath.forward(model_id, row)))
        for row in np.atleast_2d(levels)
    ]


class InlineExecutor:
    """The in-process executor of a serial cluster.

    ``run`` validates a dispatch's levels (raising before the caller
    charges anything, as an inline ``execute`` would) and files it
    under its core; nothing is computed until a result is asked for or
    :meth:`settle` says the core is about to change, and a dispatch
    discarded before then — aborted by a crash, cut off by a timeout —
    is never computed at all.  A core without a tape law (see
    :func:`evaluate`) computes in ``run``.
    """

    def __init__(self, datapaths: Sequence[LightningDatapath]) -> None:
        self._datapaths = datapaths
        self._next_seq = 0
        #: Per core: ``seq -> (model, dispatch)``, in dispatch order.
        self._pending: list[dict[int, tuple[int, Dispatch]]] = [
            {} for _ in datapaths
        ]
        self._done: dict[int, list[int]] = {}

    def run(
        self,
        core: int,
        model_id: int,
        block: np.ndarray,
        now_s: float,
        key: tuple[int, ...],
    ) -> int:
        """File one dispatch; returns the handle ``result`` takes."""
        datapath = self._datapaths[core]
        datapath.check_request(model_id, block)
        seq = self._next_seq
        self._next_seq += 1
        dispatch = (block, now_s, key)
        if datapath.defers_numerics:
            self._pending[core][seq] = (model_id, dispatch)
        else:
            (self._done[seq],) = evaluate(datapath, model_id, [dispatch])
        return seq

    def discard(self, core: int, seq: int) -> None:
        """Forget an aborted dispatch (uncomputed, if still pending)."""
        if self._pending[core].pop(seq, None) is None:
            self._done.pop(seq, None)

    def settle(self, core: int) -> None:
        """Evaluate everything pending on ``core``, on the core as it
        is now: called before its numerics state changes (a fault
        install, a bias re-lock)."""
        pending, self._pending[core] = self._pending[core], {}
        by_model: dict[int, list[int]] = {}
        for seq, (model_id, _) in pending.items():
            by_model.setdefault(model_id, []).append(seq)
        for model_id, seqs in by_model.items():
            results = evaluate(
                self._datapaths[core],
                model_id,
                [pending[seq][1] for seq in seqs],
            )
            self._done.update(zip(seqs, results))

    def result(self, core: int, seq: int) -> list[int]:
        """One dispatch's predictions, evaluating its core's backlog
        on first demand."""
        if seq not in self._done:
            self.settle(core)
        return self._done.pop(seq)

    def drain(self) -> None:
        """Drop whatever the last serve left uncollected."""
        for pending in self._pending:
            pending.clear()
        self._done.clear()
