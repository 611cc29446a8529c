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
completion heap — no per-core identity, no per-request objects.

The serving discipline, per admitted request:

1. **Admission** — the :class:`~repro.traffic.admission.
   AdmissionController` sees fleet-wide queue occupancy and sheds or
   admits.  Sheds are charged to the accounting invariant
   (``served + shed + dropped + unfinished == offered``).
2. **Placement** — join-idlest-then-shortest: a shard with an idle
   core wins; otherwise the shortest admission queue (lowest index on
   ties, the fabric's deterministic tie-break contract).
3. **Queueing** — drop-tail: a full shard queue drops the request
   (``dropped``), exactly like the DRAM ring buffer overflowing.
4. **Work stealing** — when a core completes and its own shard queue
   is empty, it pulls the head of the *deepest* other queue
   (``stolen``), so one backlogged shard cannot starve the fleet.

Latency streams through the PR-4 O(1)-memory path: a
:class:`~repro.sim.simulator.StreamedSummary` whose reservoir tracks
exact tail order statistics, so a million-request sweep reports true
p999 without retaining records.  Served requests land there (and in
the energy ledger) a bounded block at a time, bit-identical to landing
them one by one.  Goodput is *SLO goodput*: served
requests whose serve time met the SLO, per second of horizon — the
metric under which accept-all collapses at overload while backpressure
degrades gracefully.

Energy rides the same spine: every served request is priced by the
accelerator's :class:`~repro.core.energy.EnergyModel` (the paper's
three-source formula) into an
:class:`~repro.core.stats.EnergyLedger`, so each campaign point
reports exact joules-per-inference and tail-exact energy percentiles
alongside its latency curve — the raw material of the fleet-level
energy–latency Pareto frontier.  The fates and that ledger sit on a
:class:`~repro.core.stats.ServerStats`, whose shared
:meth:`~repro.core.stats.ServerStats.accounted` enforces the
accounting invariant.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import TYPE_CHECKING

import numpy as np

from ..core.energy import EnergyModel
from ..core.stats import EnergyLedger, ServerStats
from ..sim.accelerators import AcceleratorSpec
from ..sim.simulator import StreamedSummary
from .admission import AdmissionController
from .mix import ModelMix, OpenLoopTraffic

if TYPE_CHECKING:  # pragma: no cover
    from ..dnn.model import ModelSpec

__all__ = [
    "FleetSpec",
    "FleetResult",
    "fleet_capacity_rps",
    "serve_open_loop",
]

#: Arrivals between two landings of served requests into the summary
#: and the energy ledger.  A dispatch appends ``(model, t_q, done)`` and
#: the block is folded with one ``observe_many`` + ``charge_many``; the
#: buffer holds at most this many arrivals' dispatches plus one fleet
#: queue of backlog, so memory stays O(1) in the request count.
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

    The fates live on :attr:`stats`, the same
    :class:`~repro.core.stats.ServerStats` ledger the cluster, fabric
    and gateway report through; ``offered`` ... ``unfinished`` read it.
    The global invariant — every offered request is accounted for
    exactly once — is ``served + shed + dropped + unfinished ==
    offered``; :meth:`check_invariant` enforces it.  ``stolen`` counts
    served requests that migrated shards (a subset of ``served``, not
    a separate fate).
    """

    spec: FleetSpec
    policy: str
    #: Fate counters plus the per-request energy ledger
    #: (``stats.energy``), priced by the accelerator's EnergyModel.
    stats: ServerStats
    slo_s: float
    #: Served requests whose serve time met the SLO.
    slo_served: int
    summary: StreamedSummary

    @property
    def offered(self) -> int:
        return self.stats.offered

    @property
    def served(self) -> int:
        return self.stats.served

    @property
    def shed(self) -> int:
        """Rejected by admission control before touching a queue."""
        return self.stats.shed

    @property
    def dropped(self) -> int:
        """Admitted but lost to drop-tail queue overflow."""
        return self.stats.dropped

    @property
    def stolen(self) -> int:
        """Served requests pulled from a sibling shard's queue."""
        return self.stats.stolen

    @property
    def unfinished(self) -> int:
        return self.stats.unfinished

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
        """Every offered request has exactly one fate, and the three
        ledgers a served request lands in agree on how many there were.

        Delegates to :meth:`ServerStats.accounted`, the invariant spine
        shared with the cluster, fabric, and gateway (the fleet engine
        has no failed/failed-over fates — analytic cores never crash).
        """
        self.stats.accounted()
        if not self.summary.count == self.energy.count == self.served:
            raise ValueError(
                f"{self.served} served, but the summary landed "
                f"{self.summary.count} and the energy ledger "
                f"{self.energy.count}"
            )

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

    Traffic streams chunk-by-chunk (O(chunk) memory) and latency
    streams through a fixed-capacity reservoir (O(1) memory), so the
    request count can be arbitrarily large.  Everything — arrivals,
    model draws, admission tie-breaks — comes from keyed substreams,
    so a rerun with the same seeds is bit-identical.

    ``slo_s`` defaults to ``slo_factor`` times the mix-weighted
    uncontended service time: a served request may pay up to
    ``slo_factor - 1`` services of queueing before it stops counting
    toward goodput.
    """
    if admission is None:
        from .admission import AcceptAll

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
    # A model's datapath and compute energy are fixed; only queuing
    # varies per request.  ``base + t_q * dram`` is bit-identical to
    # ``EnergyModel.energy(t_d, t_q, t_c)`` (x + 0.0 == x), so the hot
    # loop charges the shared formula without re-pricing the constants.
    base_energy = [
        energy_model.energy(d, 0.0, c)
        for d, c in zip(datapath, compute)
    ]
    dram_watts = energy_model.dram_power_watts
    datapath_of = np.array(datapath)
    compute_of = np.array(compute)
    base_energy_of = np.array(base_energy)

    num_shards = spec.num_shards
    shard_range = range(num_shards)
    queue_cap = spec.queue_capacity
    total_queue_cap = float(spec.total_queue_capacity)
    steal = spec.steal and num_shards > 1

    idle = [spec.cores_per_shard] * num_shards
    queues: list[deque] = [deque() for _ in shard_range]
    total_queued = 0
    # Completion heap entries: (finish_s, seq, shard).  ``seq`` makes
    # simultaneous completions pop in dispatch order — deterministic.
    heap: list[tuple[float, int, int]] = []
    seq = 0

    dropped = 0
    stolen = 0
    slo_served = 0
    stats = ServerStats()
    summary = StreamedSummary()
    # One (model, t_q, done) per dispatch, in dispatch order.
    landing: list[tuple[int, float, float]] = []
    land = landing.append
    admit = admission.admit_occupancy

    def flush() -> None:
        """Land the dispatched block: summary, energy, served count."""
        if not landing:
            return
        picked, waits, dones = zip(*landing)
        landing.clear()
        codes = np.array(picked)
        queuing = np.array(waits)
        summary.observe_many(
            names,
            codes,
            datapath_of[codes],
            queuing,
            compute_of[codes],
            np.array(dones),
        )
        stats.energy.charge_many(
            names, codes, base_energy_of[codes] + queuing * dram_watts
        )
        stats.served += len(codes)

    def complete(finish_s: float, shard: int) -> None:
        """A core on ``shard`` freed: serve its queue, else steal."""
        nonlocal seq, stolen, slo_served, total_queued
        queue = queues[shard]
        migrated = False
        if not queue and steal and total_queued:
            # The deepest queue, lowest index on ties.
            depths = list(map(len, queues))
            queue = queues[depths.index(max(depths))]
            migrated = True
        if not queue:
            idle[shard] += 1
            return
        arrival_s, model = queue.popleft()
        total_queued -= 1
        ready = arrival_s + datapath[model]
        start = ready if ready > finish_s else finish_s
        done = start + compute[model]
        heappush(heap, (done, seq, shard))
        seq += 1
        if migrated:
            stolen += 1
        if done - arrival_s <= slo_s:
            slo_served += 1
        land((model, start - ready, done))

    for chunk in traffic.chunks(total, chunk_size):
        times = chunk.times.tolist()
        picks = chunk.models.tolist()
        for block in range(0, len(times), _LANDING_BLOCK):
            block_end = block + _LANDING_BLOCK
            for t, model in zip(
                times[block:block_end], picks[block:block_end]
            ):
                while heap and heap[0][0] <= t:
                    finish_s, _, shard = heappop(heap)
                    complete(finish_s, shard)
                if not admit(t, total_queued / total_queue_cap):
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
                    done = t + datapath[model] + compute[model]
                    heappush(heap, (done, seq, best))
                    seq += 1
                    if done - t <= slo_s:
                        slo_served += 1
                    land((model, 0.0, done))
                    continue
                depths = list(map(len, queues))
                depth = min(depths)
                if depth >= queue_cap:
                    dropped += 1
                    continue
                queues[depths.index(depth)].append((t, model))
                total_queued += 1
            flush()
    # Arrivals have stopped; run every pending completion.  Each one
    # frees a core that pulls from the queues (stealing if enabled),
    # and every shard with queued work has busy cores — so the drain
    # empties the queues too, and nothing is left unfinished.
    while heap:
        finish_s, _, shard = heappop(heap)
        complete(finish_s, shard)
    flush()

    stats.offered = admission.offered
    stats.shed = admission.shed
    stats.dropped = dropped
    stats.stolen = stolen
    stats.unfinished = total_queued
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
