"""The fleet engine's arrival loop as it stood before admission became a
per-depth table and completions were handled inline: one
``AdmissionController.admit_occupancy`` call per arrival and one
``complete`` closure call per completion.

Kept verbatim as the oracle of ``test_fleet_oracle.py``, with the
backpressure decision as it stood then: the engine must make the same
decisions, draws and rows.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count

import numpy as np

from repro.core.energy import EnergyModel
from repro.core.stats import Outcome, OutcomeFlag, OutcomeReason
from repro.core.stats import ServerStats
from repro.sim.simulator import StreamedSummary
from repro.traffic.admission import (
    AcceptAll,
    AdmissionController,
    QueueBackpressure,
)
from repro.traffic.fleet import (
    FleetResult,
    FleetSpec,
    _seal,
    mean_service_seconds,
)
from repro.traffic.mix import OpenLoopTraffic

#: The engine's landing block; the oracle test patches it together with
#: ``repro.traffic.fleet._LANDING_BLOCK``.
_LANDING_BLOCK = 4096


class ReferenceBackpressure(QueueBackpressure):
    """:class:`QueueBackpressure` deciding by its earlier formula."""

    def admit_occupancy(self, occupancy, rng) -> bool:
        if occupancy < self.low:
            return True
        if occupancy >= self.high:
            return False
        shed_p = (occupancy - self.low) / (self.high - self.low)
        return float(rng.random()) >= shed_p


def serve_open_loop(
    traffic: OpenLoopTraffic,
    total: int,
    spec: FleetSpec,
    admission: AdmissionController | None = None,
    slo_s: float | None = None,
    slo_factor: float = 5.0,
    chunk_size: int = 65_536,
) -> FleetResult:
    """Serve ``total`` open-loop requests through the fleet.

    Traffic streams chunk-by-chunk (O(chunk) memory) and every arrival's
    row lands with its block (O(block) memory), so the request count
    can be arbitrarily large.  Everything — arrivals, model draws,
    admission tie-breaks — comes from keyed substreams, so a rerun with
    the same seeds is bit-identical.

    ``slo_s`` defaults to ``slo_factor`` times the mix-weighted
    uncontended service time: a served request may pay up to
    ``slo_factor - 1`` services of queueing before it stops counting
    toward goodput.
    """
    if admission is None:
        admission = AdmissionController(AcceptAll())
    admission.reset()
    mix = traffic.mix
    models = mix.models
    if slo_s is None:
        slo_s = slo_factor * mean_service_seconds(spec, mix)

    accelerator = spec.accelerator
    datapath = [accelerator.datapath_seconds(m) for m in models]
    compute = [accelerator.compute_seconds(m) for m in models]
    names = [m.name for m in models]
    energy_model = EnergyModel.from_accelerator(accelerator)
    datapath_of = np.array(datapath)
    compute_of = np.array(compute)

    num_shards = spec.num_shards
    shard_range = range(num_shards)
    queue_cap = spec.queue_capacity
    total_queue_cap = float(spec.total_queue_capacity)
    steal = spec.steal and num_shards > 1

    idle = [spec.cores_per_shard] * num_shards
    # Queue entries: (arrival_s, model, request ordinal).
    queues: list[deque] = [deque() for _ in shard_range]
    total_queued = 0
    # Completion heap entries: (finish_s, seq, shard).  ``seq`` makes
    # simultaneous completions pop in dispatch order — deterministic.
    heap: list[tuple[float, int, int]] = []
    seq = 0

    stats = ServerStats()
    summary = StreamedSummary()
    slo_served = 0
    # The landing block's rows, flat: (request, model, shard, flags,
    # arrival, start) per dispatch, in dispatch order, and (request,
    # model, fate, reason, arrival) per arrival that will not be served.
    served: list = []
    lost: list = []
    serve, lose = served.extend, lost.extend
    STOLEN = OutcomeFlag.STOLEN
    SHED, ADMISSION = Outcome.SHED, OutcomeReason.ADMISSION
    DROPPED, OVERFLOW = Outcome.DROPPED, OutcomeReason.QUEUE_OVERFLOW
    admit = admission.admit_occupancy
    ordinals = count()

    def land() -> int:
        """Seal the block's rows and reduce them into the fates, the
        summary and the energy ledger; returns its SLO hits."""
        block, rows = _seal(
            served, lost, datapath_of, compute_of, energy_model
        )
        served.clear()
        lost.clear()
        stats.add_counts(block)
        summary.observe_many(
            names, rows.model, rows.t_d, rows.t_q, rows.t_c, rows.finish
        )
        stats.energy.charge_many(names, rows.model, rows.joules)
        return int(np.count_nonzero(rows.finish - rows.arrival <= slo_s))

    def complete(finish_s: float, shard: int) -> None:
        """A core on ``shard`` freed: serve its queue, else steal."""
        nonlocal seq, total_queued
        queue = queues[shard]
        flags = 0
        if not queue and steal and total_queued:
            # The deepest queue, lowest index on ties.
            depths = list(map(len, queues))
            queue = queues[depths.index(max(depths))]
            flags = STOLEN
        if not queue:
            idle[shard] += 1
            return
        arrival_s, model, request = queue.popleft()
        total_queued -= 1
        ready = arrival_s + datapath[model]
        start = ready if ready > finish_s else finish_s
        heappush(heap, (start + compute[model], seq, shard))
        seq += 1
        serve((request, model, shard, flags, arrival_s, start))

    for chunk in traffic.chunks(total, chunk_size):
        times = chunk.times.tolist()
        picks = chunk.models.tolist()
        for block in range(0, len(times), _LANDING_BLOCK):
            block_end = block + _LANDING_BLOCK
            # ``ordinals`` last: zip stops at the block's end without
            # drawing from it.
            for t, model, request in zip(
                times[block:block_end], picks[block:block_end], ordinals
            ):
                while heap and heap[0][0] <= t:
                    finish_s, _, shard = heappop(heap)
                    complete(finish_s, shard)
                if not admit(t, total_queued / total_queue_cap):
                    lose((request, model, SHED, ADMISSION, t))
                    continue
                # Join-idlest-then-shortest placement, lowest index on
                # ties.
                best = -1
                for s in shard_range:
                    if idle[s]:
                        best = s
                        break
                if best >= 0:
                    idle[best] -= 1
                    ready = t + datapath[model]
                    heappush(heap, (ready + compute[model], seq, best))
                    seq += 1
                    serve((request, model, best, 0, t, ready))
                    continue
                depths = list(map(len, queues))
                depth = min(depths)
                if depth >= queue_cap:
                    lose((request, model, DROPPED, OVERFLOW, t))
                    continue
                queues[depths.index(depth)].append((t, model, request))
                total_queued += 1
            slo_served += land()
    # Arrivals have stopped; run every pending completion.  Each one
    # frees a core that pulls from the queues (stealing if enabled),
    # and every shard with queued work has busy cores — so the drain
    # empties the queues too.  Whatever it left is an UNFINISHED row.
    while heap:
        finish_s, _, shard = heappop(heap)
        complete(finish_s, shard)
    for queue in queues:
        for t, model, request in queue:
            lose((request, model, Outcome.UNFINISHED, 0, t))
    slo_served += land()

    result = FleetResult(
        spec=spec,
        policy=type(admission.policy).__name__,
        stats=stats,
        slo_s=slo_s,
        slo_served=slo_served,
        summary=summary,
    )
    result.check_invariant()
    return result
