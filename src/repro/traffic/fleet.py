"""The open-loop fleet engine — load campaigns at 10^6-request scale.

:class:`~repro.fabric.fabric.Fabric` serves *runnable* traces: every
request carries a payload, every layer executes on emulated photonic
cores.  That fidelity costs milliseconds per request — fine for
correctness, hopeless for sweeping offered load across millions of
arrivals.  This module is the analytic twin: shards are modeled as
``cores_per_shard`` symmetric servers fed by one FIFO admission queue,
and per-model service times come straight from the
:class:`~repro.sim.accelerators.AcceleratorSpec` characterization the
§9 simulator uses (datapath + compute).  Cores are interchangeable, so
the engine tracks only an idle-core *count* per shard and a single
completion heap — no per-core identity.

The serving discipline, per admitted request:

1. **Admission** — the :class:`~repro.traffic.admission.
   AdmissionController` sees fleet-wide queue occupancy and sheds or
   admits.  A shed request's row is ``SHED``, reason ``ADMISSION``.
2. **Placement** — join-idlest-then-shortest: a shard with an idle
   core wins; otherwise the shortest admission queue (lowest index on
   ties, the fabric's deterministic tie-break contract).
3. **Queueing** — drop-tail: a full shard queue drops the request
   (``DROPPED``, reason ``QUEUE_OVERFLOW``), exactly like the DRAM ring
   buffer overflowing.
4. **Work stealing** — when a core completes and its own shard queue
   is empty, it pulls the head of the *deepest* other queue (the
   served row carries the ``STOLEN`` flag), so one backlogged shard
   cannot starve the fleet.

Every offered arrival gets one :class:`~repro.core.stats.Outcomes` row
— ``SERVED`` with its shard and t_q/t_d/t_c, or ``SHED``, ``DROPPED``
or (still queued after the drain) ``UNFINISHED`` — keyed by its
ordinal in the offered stream.  Rows are written a landing block at a
time and each block is reduced once, then dropped: its counts add to a
:class:`~repro.core.stats.ServerStats` (so ``served + shed + dropped +
unfinished == offered`` holds by construction), and its served rows, in
dispatch order, feed a :class:`~repro.sim.simulator.StreamedSummary`
(whose reservoir tracks exact tail order statistics, so a
million-request sweep reports true p999), the stats' energy ledger and
the SLO-hit count.  Memory stays O(1) in the request count, and every
sum is bit-identical to landing the rows one by one.  Goodput is *SLO
goodput*: served requests whose serve time met the SLO, per second of
horizon — the metric under which accept-all collapses at overload while
backpressure degrades gracefully.

Each served row's joules come from the accelerator's
:class:`~repro.core.energy.EnergyModel` (the paper's three-source
formula), so each campaign point reports exact joules-per-inference and
tail-exact energy percentiles alongside its latency curve — the raw
material of the fleet-level energy–latency Pareto frontier.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from typing import TYPE_CHECKING

import numpy as np

from ..core.energy import EnergyModel
from ..core.stats import EnergyLedger, Outcome, OutcomeFlag, OutcomeReason
from ..core.stats import Outcomes, ServerStats
from ..sim.accelerators import AcceleratorSpec
from ..sim.simulator import StreamedSummary
from .admission import AcceptAll, AdmissionController
from .mix import ModelMix, OpenLoopTraffic

if TYPE_CHECKING:  # pragma: no cover
    from ..dnn.model import ModelSpec

__all__ = [
    "FleetSpec",
    "FleetResult",
    "fleet_capacity_rps",
    "serve_open_loop",
]

#: Arrivals between two landings of rows.  A block holds at most this
#: many arrivals' rows plus one fleet queue of backlog dispatched in it,
#: so memory stays O(1) in the request count.
_LANDING_BLOCK = 4096


@dataclass(frozen=True)
class FleetSpec:
    """Shape of the analytic serving fleet."""

    accelerator: AcceleratorSpec
    num_shards: int = 4
    cores_per_shard: int = 2
    #: Admission-queue slots per shard (drop-tail beyond this).  The
    #: default is sized to the default SLO: a full fleet queue of
    #: ``4 x 32`` requests costs ~16 mean services of wait — several
    #: times the default 5x-service SLO, so an uncontrolled full queue
    #: is visibly past the knee without being bottomless.
    queue_capacity: int = 32
    #: Idle cores pull from backlogged sibling queues.
    steal: bool = True

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("a fleet needs at least one shard")
        if self.cores_per_shard < 1:
            raise ValueError("a shard needs at least one core")
        if self.queue_capacity < 1:
            raise ValueError("shard queues need at least one slot")

    @property
    def total_cores(self) -> int:
        return self.num_shards * self.cores_per_shard

    @property
    def total_queue_capacity(self) -> int:
        return self.num_shards * self.queue_capacity


def fleet_capacity_rps(spec: FleetSpec, mix: ModelMix) -> float:
    """Saturation throughput of the fleet under a model mix.

    Cores are busy for the *compute* stage only (the datapath is
    pipelined ahead of the core), so capacity is total cores over the
    mix-weighted mean compute time.
    """
    mean_compute = float(
        sum(
            p * spec.accelerator.compute_seconds(m)
            for p, m in zip(mix.probabilities, mix.models)
        )
    )
    if mean_compute <= 0:
        raise ValueError("mix has zero mean compute time")
    return spec.total_cores / mean_compute


def mean_service_seconds(spec: FleetSpec, mix: ModelMix) -> float:
    """Mix-weighted uncontended service time (datapath + compute)."""
    return float(
        sum(
            p * spec.accelerator.service_seconds(m)
            for p, m in zip(mix.probabilities, mix.models)
        )
    )


@dataclass(frozen=True)
class FleetResult:
    """Outcome of one open-loop serve, with full accounting.

    Keeps no rows: ``offered`` ... ``unfinished`` read :attr:`stats`,
    the sum of every landing block's :meth:`Outcomes.tally
    <repro.core.stats.Outcomes.tally>`, and ``slo_served`` and
    :attr:`summary` are reductions over the same blocks' served rows.
    ``shed`` counts arrivals refused by admission before touching a
    queue, ``dropped`` admitted ones lost to drop-tail overflow, and
    ``stolen`` served ones a core pulled from a sibling shard's queue
    (a subset of ``served``, not a separate fate).  ``served + shed +
    dropped + unfinished == offered`` holds by construction (every
    arrival is one row); :meth:`check_invariant` checks the counters.
    """

    spec: FleetSpec
    policy: str
    #: Fate counts plus the served rows' energy ledger
    #: (``stats.energy``), priced by the accelerator's EnergyModel.
    stats: ServerStats
    slo_s: float
    #: Served requests whose serve time met the SLO.
    slo_served: int
    summary: StreamedSummary

    offered = property(lambda self: self.stats.offered)
    served = property(lambda self: self.stats.served)
    shed = property(lambda self: self.stats.shed)
    dropped = property(lambda self: self.stats.dropped)
    stolen = property(lambda self: self.stats.stolen)
    unfinished = property(lambda self: self.stats.unfinished)

    @property
    def horizon_s(self) -> float:
        """Last completion time (seconds on the virtual clock)."""
        return self.summary.horizon_s

    @property
    def energy(self) -> EnergyLedger:
        """Per-request joules (exact totals per model + tail-exact
        percentiles)."""
        return self.stats.energy

    def check_invariant(self) -> None:
        """Every offered request has exactly one fate
        (:meth:`ServerStats.accounted`; the fleet engine has no
        failed/failed-over fates — analytic cores never crash)."""
        self.stats.accounted()

    @property
    def throughput_rps(self) -> float:
        """Served requests per second of horizon."""
        if self.horizon_s <= 0:
            return 0.0
        return self.served / self.horizon_s

    @property
    def goodput_rps(self) -> float:
        """SLO-compliant served requests per second of horizon."""
        if self.horizon_s <= 0:
            return 0.0
        return self.slo_served / self.horizon_s

    @property
    def slo_attainment(self) -> float:
        """Fraction of *offered* traffic served within SLO."""
        if self.offered == 0:
            return 0.0
        return self.slo_served / self.offered

    def percentiles(self, qs: list[float]) -> list[float]:
        """Serve-time percentiles (tail-exact where covered)."""
        return self.summary.reservoir.percentiles(qs)

    @property
    def energy_per_inference_j(self) -> float:
        """Exact mean joules per served request."""
        return self.energy.mean_joules

    @property
    def total_energy_j(self) -> float:
        """Exact total joules charged across every served request."""
        return self.energy.total_joules

    def energy_percentiles(self, qs: list[float]) -> list[float]:
        """Per-request energy percentiles (tail-exact where covered)."""
        return self.energy.percentiles(qs)


def _columns(values: list, width: int) -> np.ndarray:
    """A flat list of ``width``-value rows as ``width`` float columns."""
    return np.fromiter(values, np.float64, len(values)).reshape(-1, width).T


def _seal(
    served: list, lost: list, datapath_of: np.ndarray,
    compute_of: np.ndarray, energy_model: EnergyModel,
) -> tuple[Outcomes, Outcomes]:
    """A landing block's rows as a table, and its served rows (the
    table's head, in dispatch order) as one of their own.

    A served row's t_q and finish are computed from its start exactly
    as the loop computed them: ``start - (arrival + t_d)`` and ``start +
    t_c``."""
    served, lost = _columns(served, 6), _columns(lost, 5)
    request, model, shard, flags = served[:4].astype(np.int64)
    arrival, start = served[4:]
    t_d, t_c = datapath_of[model], compute_of[model]
    t_q = start - (arrival + t_d)
    head = Outcomes(
        request=request, model=model, shard=shard, flags=flags,
        fate=np.broadcast_to(np.int64(Outcome.SERVED), len(model)),
        arrival=arrival, t_q=t_q, t_d=t_d, t_c=t_c, finish=start + t_c,
        joules=energy_model.energy(
            datapath_s=t_d, queuing_s=t_q, compute_s=t_c
        ),
    )
    request, model, fate, reason = lost[:4].astype(np.int64)
    unserved = np.full(len(fate), np.nan)
    tail = Outcomes(
        request=request, model=model, fate=fate, reason=reason,
        arrival=lost[4], t_q=unserved, t_d=unserved, t_c=unserved,
        finish=unserved, joules=unserved,
    )
    return Outcomes.concat([head, tail]), head


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
