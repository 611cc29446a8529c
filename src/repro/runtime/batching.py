"""Opportunistic batching of queued same-model requests.

Appendix E's photonic weight broadcast serves ``B`` queries per pipeline
pass by optically fanning the encoded weights out to ``B`` input lanes.
The :class:`BatchingCoalescer` exploits it at the serving layer: when a
core frees up and a model's admission queue holds several requests, it
pops up to ``max_batch`` of them and the cluster serves them through one
:meth:`~repro.core.datapath.LightningDatapath.execute_batch` call —
``ceil(batch / B)`` pipeline passes instead of ``batch`` sequential
pipelines.

Batching is purely opportunistic: nothing waits for a batch to fill, so
an idle system keeps single-request latency while a loaded system gains
throughput exactly when it needs it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .queues import AdmissionQueue, QueueEntry

__all__ = ["BatchingCoalescer", "stack_levels"]


def stack_levels(entries: Sequence[QueueEntry]) -> np.ndarray:
    """Stack coalesced requests' level vectors into one operand block.

    Writes each request's ``data_levels`` straight into a preallocated
    ``(batch, input_size)`` block — the layout
    :meth:`~repro.core.datapath.LightningDatapath.execute_batch` and the
    compiled plans consume — instead of materializing a list of arrays
    for ``np.stack`` on every dispatch.  The block is ``uint8`` when
    every request's levels are (as every request off the wire is), so
    its range needs no scan; else ``float64``.
    """
    if not entries:
        raise ValueError("cannot stack an empty dispatch")
    rows = [entry.item.data_levels for entry in entries]
    dtype = (
        np.uint8
        if all(getattr(row, "dtype", None) == np.uint8 for row in rows)
        else np.float64
    )
    first = np.asarray(rows[0], dtype=dtype)
    block = np.empty((len(rows), first.shape[-1]), dtype=dtype)
    block[0] = first
    for i, row in enumerate(rows[1:], start=1):
        block[i] = row
    return block


class BatchingCoalescer:
    """Forms one dispatch from the head of a model's admission queue."""

    def __init__(self, max_batch: int = 1) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.max_batch = max_batch
        self.batches_formed = 0
        self.requests_coalesced = 0

    def take(self, queue: AdmissionQueue) -> list[QueueEntry]:
        """Pop up to ``max_batch`` queued requests for one dispatch.

        The queue must be non-empty; the returned entries preserve FIFO
        order, so coalescing never reorders a model's requests.
        """
        entries: list[QueueEntry] = []
        while queue.depth and len(entries) < self.max_batch:
            entries.append(queue.pop())
        if not entries:
            raise ValueError("cannot coalesce from an empty queue")
        self.batches_formed += 1
        self.requests_coalesced += len(entries)
        return entries

    @property
    def mean_batch_size(self) -> float:
        """Average requests per formed batch (1.0 with no batching)."""
        if self.batches_formed == 0:
            raise ValueError("no batches formed yet")
        return self.requests_coalesced / self.batches_formed
