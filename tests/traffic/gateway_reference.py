"""The gateway's estimate-based pre-pass as it stood before it did per
arrival only what an arrival changed: every projection advanced on
every arrival, every shard view rebuilt (each with its own usable-core
bisection), occupancy summed over the views, and the failover router
evaluating a lambda per shard and a ``calm`` closure per route.

Kept verbatim as the oracle of ``test_gateway_oracle.py``: the pre-pass
loop, its routing step (without the serve: :meth:`ReferenceRouting.
serve` hands the routing itself back), the per-shard outage steps, the
two routers and the backpressure decision as they stood then.  The
gateway must make the same decisions, rows, heals and draws.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from heapq import heappop, heappush
from typing import Sequence

import numpy as np

from repro.core.energy import EnergyModel
from repro.core.stats import Outcome, OutcomeFlag, OutcomeReason, OutcomeRows
from repro.fabric import Fabric, ShardView
from repro.fabric.lifecycle import FAILOVER_DROP, ModelPlacement
from repro.faults.schedule import FaultSchedule
from repro.runtime.cluster import RuntimeRequest
from repro.traffic.admission import (
    AcceptAll,
    AdmissionController,
    QueueBackpressure,
)
from repro.traffic.gateway import probe_service_estimates
from repro.traffic.slo import SLOBook


# ----------------------------------------------------------------------
# Health, routers and admission as they stood
# ----------------------------------------------------------------------
class ReferenceOutageBook:
    """The usable-core half of ``OutageBook``: one step function per
    shard, one bisection per (shard, query)."""

    def __init__(self, num_shards: int) -> None:
        self._edges: list[list[float]] = [[] for _ in range(num_shards)]
        self._usable: list[list[int]] = [[0] for _ in range(num_shards)]

    @classmethod
    def from_schedule(
        cls, fabric: Fabric, schedule: FaultSchedule | None
    ) -> "ReferenceOutageBook":
        book = cls(fabric.num_shards)
        # Per shard: ``core -> [(down_from_s, up_again_s), ...]``.
        down: list[dict[int, list[tuple[float, float]]]] = [
            {} for _ in fabric.shards
        ]
        for event in () if schedule is None else schedule.events:
            if event.core is None:
                continue
            shard, local = fabric.shard_of_core(event.core)
            if event.kind == "core_crash":
                up_again_s = float("inf")
            elif event.kind == "core_stall":
                up_again_s = event.time_s + event.duration_s
            else:
                continue
            down[shard].setdefault(local, []).append(
                (event.time_s, up_again_s)
            )
        for shard, cores in enumerate(down):
            # A core is down at t when any of its windows holds t, and
            # that answer only changes at an edge.
            edges = sorted({t for spans in cores.values()
                            for span in spans for t in span})
            num_cores = fabric.shards[shard].num_cores
            book._edges[shard] = edges
            book._usable[shard] = [num_cores] + [
                num_cores - sum(
                    any(start <= t < end for start, end in spans)
                    for spans in cores.values()
                )
                for t in edges
            ]
        return book

    def usable_cores(self, shard: int, now_s: float) -> int:
        """Cores of ``shard`` not crashed or stalled at ``now_s``."""
        return self._usable[shard][bisect_right(self._edges[shard], now_s)]


def _least_loaded(shards: Sequence[ShardView]) -> int:
    """Lowest normalized load, stable lowest-index on ties."""
    return min(
        range(len(shards)),
        key=lambda i: (shards[i].normalized_load, i),
    )


class ReferenceLeastLoaded:
    """``LeastLoadedShardRouter`` as it stood."""

    def route(
        self, request: RuntimeRequest, shards: Sequence[ShardView]
    ) -> int:
        if not shards:
            raise ValueError("cannot route with no shards")
        return _least_loaded(shards)

    def reset(self) -> None:
        pass


def _replicas_at(
    placement: ModelPlacement, model_id: int, now_s: float
) -> tuple[int, ...]:
    """``ModelPlacement.replicas_at`` as it stood."""
    homes = placement._homes.get(model_id)
    if homes is None:
        return ()
    return tuple(
        home.shard for home in homes if home.active_from_s <= now_s
    )


class ReferenceFailover:
    """``FailoverRouter`` as it stood (the fabric hands it its
    placement, as it does the real one)."""

    def __init__(
        self,
        inner=None,
        placement: ModelPlacement | None = None,
        queue_watermark: float = 0.95,
    ) -> None:
        self.inner = inner if inner is not None else ReferenceLeastLoaded()
        self.placement = placement
        self.queue_watermark = queue_watermark
        self.failovers = 0
        self.dropped = 0

    def _replicas(
        self, request: RuntimeRequest, shards: Sequence[ShardView]
    ) -> tuple[int, ...]:
        if self.placement is not None and self.placement.is_placed(
            request.model_id
        ):
            return _replicas_at(
                self.placement, request.model_id, request.arrival_s
            )
        return tuple(range(len(shards)))

    @staticmethod
    def _best(
        candidates: Sequence[int], shards: Sequence[ShardView]
    ) -> int:
        return min(
            candidates,
            key=lambda s: (
                shards[s].normalized_load,
                shards[s].queue_occupancy,
                s,
            ),
        )

    def route(
        self, request: RuntimeRequest, shards: Sequence[ShardView]
    ) -> int:
        if not shards:
            raise ValueError("cannot route with no shards")
        replicas = self._replicas(request, shards)
        if not replicas:
            self.dropped += 1
            return FAILOVER_DROP
        preferred = self.inner.route(request, shards)
        primary = (
            preferred
            if preferred in replicas
            else self._best(replicas, shards)
        )

        def calm(s: int) -> bool:
            return (
                shards[s].alive
                and shards[s].queue_occupancy < self.queue_watermark
            )

        if calm(primary):
            return primary
        alternates = [s for s in replicas if s != primary and calm(s)]
        if alternates:
            self.failovers += 1
            return self._best(alternates, shards)
        if shards[primary].alive:
            return primary
        alive = [s for s in replicas if shards[s].alive]
        if alive:
            self.failovers += 1
            return self._best(alive, shards)
        self.dropped += 1
        return FAILOVER_DROP

    def reset(self) -> None:
        self.inner.reset()
        self.failovers = 0
        self.dropped = 0


class ReferenceBackpressure(QueueBackpressure):
    """:class:`QueueBackpressure` summing occupancy as it stood."""

    def occupancy(self, shards: Sequence[ShardView]) -> float:
        capacity = sum(v.queue_capacity for v in shards)
        if capacity <= 0:
            return 0.0
        return sum(v.queued for v in shards) / capacity


# ----------------------------------------------------------------------
# The routing step, without its serve
# ----------------------------------------------------------------------
class ReferenceRouting:
    """``fabric._Routing`` as it stood; :meth:`serve` returns itself."""

    def __init__(
        self, fabric: Fabric, health: ReferenceOutageBook | None = None
    ) -> None:
        self.fabric = fabric
        self.health = health
        self.router = fabric.router
        self.router.reset()
        self._shards = [
            (shard.num_cores, shard.macs_per_step, shard.queue_capacity)
            for shard in fabric.shards
        ]
        self.counts = [0] * fabric.num_shards
        self.trace: list[RuntimeRequest] = []
        self.routed: list[int] = []
        self.flags: list[int] = []
        self.rows = OutcomeRows()

    def views(
        self, now_s: float = 0.0, queued: Sequence[int] | None = None
    ) -> tuple[ShardView, ...]:
        health = self.health
        counts = self.counts
        return tuple(
            ShardView(
                i,
                num_cores,
                macs,
                counts[i],
                0 if queued is None else queued[i],
                0 if queued is None else capacity,
                None if health is None else health.usable_cores(i, now_s),
            )
            for i, (num_cores, macs, capacity) in enumerate(self._shards)
        )

    def route(
        self, request: RuntimeRequest, views: Sequence[ShardView]
    ) -> tuple[int, OutcomeFlag] | None:
        failovers = getattr(self.router, "failovers", 0)
        target = self.router.route(request, views)
        placement = self.fabric.placement
        if (
            target == FAILOVER_DROP
            and self.health is not None
            and placement is not None
            and placement.auto_heal
            and placement.is_placed(request.model_id)
        ):
            placement.re_replicate(
                request.model_id,
                request.arrival_s,
                [v.shard for v in views if v.alive],
            )
            target = self.router.route(request, views)
        if target == FAILOVER_DROP:
            self.rows.add(request, Outcome.FAILED_OVER)
            return None
        if not 0 <= target < len(views):
            raise ValueError(
                f"router returned shard {target} for request "
                f"{request.request_id}; fabric has "
                f"{len(views)} shards"
            )
        moved = getattr(self.router, "failovers", 0) != failovers
        return target, OutcomeFlag.REROUTED if moved else OutcomeFlag(0)

    def place(
        self, request: RuntimeRequest, shard: int, flags: int = 0
    ) -> None:
        self.counts[shard] += 1
        self.trace.append(request)
        self.routed.append(shard)
        self.flags.append(flags)

    def shed(
        self, request: RuntimeRequest, reason: OutcomeReason, flags: int = 0
    ) -> None:
        self.rows.add(request, Outcome.SHED, reason, flags)

    def serve(self, **serve_kwargs) -> "ReferenceRouting":
        return self


# ----------------------------------------------------------------------
# The pre-pass
# ----------------------------------------------------------------------
def _service_pricer(fabric: Fabric):
    estimates = probe_service_estimates(fabric)
    fleet_mean = float(
        np.mean([s for per in estimates for s in per.values()])
    )
    fallbacks = [
        sum(per_model.values()) / len(per_model)
        if per_model
        else fleet_mean
        for per_model in estimates
    ]
    return lambda shard, model_id: estimates[shard].get(
        model_id, fallbacks[shard]
    )


class _ShardProjection:
    """Forward-projected queue state of one shard (pre-pass only)."""

    __slots__ = ("idle", "busy", "queue", "num_cores")

    def __init__(self, num_cores: int) -> None:
        self.idle = num_cores
        self.num_cores = num_cores
        self.busy: list[float] = []
        self.queue: deque[tuple[float, float]] = deque()

    def advance(self, now_s: float) -> None:
        busy = self.busy
        queue = self.queue
        while busy and busy[0] <= now_s:
            finish = heappop(busy)
            if queue:
                arrival, service = queue.popleft()
                start = arrival if arrival > finish else finish
                heappush(busy, start + service)
            else:
                self.idle += 1

    def charge(self, now_s: float, service_s: float) -> None:
        if self.idle:
            self.idle -= 1
            heappush(self.busy, now_s + service_s)
        else:
            self.queue.append((now_s, service_s))

    def wait_estimate(self, now_s: float) -> float:
        if self.idle > 0:
            return 0.0
        wait = max(self.busy[0] - now_s, 0.0) if self.busy else 0.0
        if self.queue:
            backlog = sum(service for _, service in self.queue)
            wait += backlog / self.num_cores
        return wait


def _steal_target(
    fabric: Fabric,
    request: RuntimeRequest,
    target: int,
    views: Sequence[ShardView],
    projections: Sequence[_ShardProjection],
) -> int:
    if projections[target].idle or not projections[target].queue:
        return target
    placement = fabric.placement
    if placement is not None and placement.is_placed(request.model_id):
        hosts = _replicas_at(placement, request.model_id, request.arrival_s)
    else:
        hosts = range(fabric.num_shards)
    return min(
        (
            i
            for i in hosts
            if projections[i].idle > 0 and views[i].alive
        ),
        default=target,
    )


def _shed_reason(
    slo_book: SLOBook | None,
    energy_model: EnergyModel | None,
    request: RuntimeRequest,
    service_s: float,
    projection: _ShardProjection,
) -> str | None:
    if slo_book is None:
        return None
    deadline = slo_book.deadline_for(request.model_id)
    budget = slo_book.energy_budget_for(request.model_id)
    if deadline is None and budget is None:
        return None
    wait_s = projection.wait_estimate(request.arrival_s)
    if deadline is not None and wait_s + service_s > deadline:
        return "deadline"
    if budget is not None and energy_model is not None:
        projected_j = (
            service_s * energy_model.power_watts
            + wait_s * energy_model.dram_power_watts
        )
        if projected_j > budget:
            return "energy_budget"
    return None


def serve_fabric_open_loop(
    fabric: Fabric,
    requests: list[RuntimeRequest],
    admission: AdmissionController | None = None,
    steal: bool = True,
    slo_book: SLOBook | None = None,
    energy_model: EnergyModel | None = None,
    **serve_kwargs,
) -> ReferenceRouting:
    """The pre-pass as it stood; returns its routing (placed trace,
    flags, rows) instead of serving it."""
    if admission is None:
        admission = AdmissionController(AcceptAll())
    admission.reset()
    trace = sorted(
        requests, key=lambda r: (r.arrival_s, r.request_id)
    )
    if not trace:
        raise ValueError("cannot serve an empty trace")
    service_of = _service_pricer(fabric)
    projections = [
        _ShardProjection(shard.num_cores) for shard in fabric.shards
    ]
    routing = ReferenceRouting(
        fabric,
        ReferenceOutageBook.from_schedule(
            fabric, serve_kwargs.get("fault_schedule")
        ),
    )
    for request in trace:
        now_s = request.arrival_s
        for projection in projections:
            projection.advance(now_s)
        views = routing.views(
            now_s, [len(projection.queue) for projection in projections]
        )
        if not admission.admit(now_s, views):
            routing.shed(request, OutcomeReason.ADMISSION)
            continue
        routed = routing.route(request, views)
        if routed is None:
            continue
        shard, flags = routed
        target = (
            _steal_target(fabric, request, shard, views, projections)
            if steal
            else shard
        )
        service = service_of(target, request.model_id)
        reason = _shed_reason(
            slo_book, energy_model, request, service, projections[target]
        )
        if reason is not None:
            admission.shed_admitted(reason)
            routing.shed(request, OutcomeReason[reason.upper()], flags)
            continue
        if target != shard:
            flags |= OutcomeFlag.STOLEN
        routing.place(request, target, flags)
        projections[target].charge(now_s, service)
    return routing.serve(**serve_kwargs)
