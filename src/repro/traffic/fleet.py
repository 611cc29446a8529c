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
   Occupancy is the queued count over a fixed capacity, so the policy
   is resolved once per serve into a table by depth
   (:meth:`~repro.traffic.admission.AdmissionController.depth_table`):
   admit, shed, or draw once from the tie-break stream and shed with
   the ramp's probability.
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

Completions are handled inline, in arrival order: before each arrival
one body runs every completion due by then (its own queue, else a
steal, else the core goes idle), and after the last arrival the same
body drains the heap — the stream ends with one arrival at
:data:`_DRAIN`, later than every completion.  The loop keeps the next
completion time, an idle-core total and the queue depths as locals, so
an arrival reads the heap only when a completion is due and scans the
shards' idle counts only when some core is idle.

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

import sys
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
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

#: The next completion time while no completion is pending.
_NEVER = float("inf")
#: The drain's arrival time: after every arrival and every (finite)
#: completion, and before :data:`_NEVER`.
_DRAIN = sys.float_info.max


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


def _landing_blocks(
    traffic: OpenLoopTraffic, total: int, chunk_size: int
) -> Iterator[tuple[list[float], list[int]]]:
    """The offered stream as ``(times, models)`` lists of at most
    :data:`_LANDING_BLOCK` arrivals, then the drain: one arrival at
    :data:`_DRAIN`."""
    for chunk in traffic.chunks(total, chunk_size):
        times = chunk.times.tolist()
        picks = chunk.models.tolist()
        for start in range(0, len(times), _LANDING_BLOCK):
            end = start + _LANDING_BLOCK
            yield times[start:end], picks[start:end]
    yield [_DRAIN], [-1]


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
    queue_cap = spec.queue_capacity
    steal = spec.steal and num_shards > 1
    # The admission decision at each fleet-wide queue depth, and the
    # tie-break stream's draw for the coin band.
    admit_at = admission.depth_table(spec.total_queue_capacity)
    draw = admission._rng.random

    idle = [spec.cores_per_shard] * num_shards
    idle_total = spec.total_cores
    # Queue entries: (arrival_s, model, request ordinal).
    queues: list[deque] = [deque() for _ in range(num_shards)]
    # Each queue's length, kept beside it for placement and steals.
    depths = [0] * num_shards
    total_queued = 0
    # Completion heap entries: (finish_s, seq, shard).  ``seq`` makes
    # simultaneous completions pop in dispatch order — deterministic.
    heap: list[tuple[float, int, int]] = []
    next_done = _NEVER  # heap[0][0], or _NEVER when the heap is empty
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
    ordinals = count()

    for times, picks in _landing_blocks(traffic, total, chunk_size):
        # ``ordinals`` last: zip stops at the block's end without
        # drawing from it.
        for t, model, request in zip(times, picks, ordinals):
            # Every completion due by now: the freed core serves its
            # own queue, else steals the head of the deepest other
            # queue (lowest index on ties), else goes idle.
            while next_done <= t:
                finish_s, _, shard = heap[0]
                source = shard
                flags = 0
                if not depths[shard] and steal and total_queued:
                    source = depths.index(max(depths))
                    flags = STOLEN
                if depths[source]:
                    depths[source] -= 1
                    arrival_s, pick, ordinal = queues[source].popleft()
                    total_queued -= 1
                    ready = arrival_s + datapath[pick]
                    start = ready if ready > finish_s else finish_s
                    heapreplace(heap, (start + compute[pick], seq, shard))
                    seq += 1
                    serve((ordinal, pick, shard, flags, arrival_s, start))
                    next_done = heap[0][0]
                else:
                    heappop(heap)
                    idle[shard] += 1
                    idle_total += 1
                    next_done = heap[0][0] if heap else _NEVER
            if t == _DRAIN:
                # The drain ran every pending completion; each pulled
                # from the queues, and every shard with queued work has
                # busy cores, so the queues are empty too.  Whatever it
                # left is an UNFINISHED row.
                for queue in queues:
                    for arrival_s, pick, ordinal in queue:
                        lose((ordinal, pick, Outcome.UNFINISHED, 0,
                              arrival_s))
                break
            verdict = admit_at[total_queued]
            if verdict is not True and (verdict is False or draw() < verdict):
                lose((request, model, SHED, ADMISSION, t))
                continue
            # Join-idlest-then-shortest placement, lowest index on ties.
            if idle_total:
                best = 0
                while not idle[best]:
                    best += 1
                idle[best] -= 1
                idle_total -= 1
                ready = t + datapath[model]
                done = ready + compute[model]
                heappush(heap, (done, seq, best))
                seq += 1
                if done < next_done:
                    next_done = done
                serve((request, model, best, 0, t, ready))
                continue
            depth = min(depths)
            if depth >= queue_cap:
                lose((request, model, DROPPED, OVERFLOW, t))
                continue
            shortest = depths.index(depth)
            depths[shortest] += 1
            queues[shortest].append((t, model, request))
            total_queued += 1
        # Seal the block's rows and reduce them into the fates, the
        # summary, the energy ledger and the SLO hits.
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
        slo_served += int(
            np.count_nonzero(rows.finish - rows.arrival <= slo_s)
        )
    admission.record_serve(stats.offered, stats.shed)

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
