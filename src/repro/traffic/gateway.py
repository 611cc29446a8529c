"""The open-loop gateway: admission + queue-aware routing for a Fabric.

The :mod:`~repro.traffic.fleet` engine sweeps millions of *analytic*
requests; this gateway runs the same admission discipline in front of
a real :class:`~repro.fabric.fabric.Fabric`, whose shards execute
every layer on emulated photonic cores.  The fabric serves closed
traces shard-by-shard (each shard replays its sub-trace on its own
virtual clock), so the gateway cannot observe true queue depths *during*
the serve — instead it runs an **estimate-based pre-pass**:

1. **Probe** each shard once per deployed model to learn real
   per-shard service times: one ledger replay on core 0
   (:func:`~repro.runtime.workload.probe_service_times`), no forward
   pass — a request's cost never depends on its activations.
2. **Project** every shard's queue forward in arrival order — idle
   cores, busy-until heap, FIFO backlog — using those estimates, and
   read shard *health* off the fault schedule's
   :class:`~repro.fabric.lifecycle.OutageBook` (a crash the schedule
   will inject at time T makes the shard dead to every request
   arriving after T, exactly as fleet telemetry would).
3. **Admit or shed** each request against the projected occupancy via
   an :class:`~repro.traffic.admission.AdmissionController`.
4. **Route** through the fabric's one routing step (the same one
   :meth:`~repro.fabric.fabric.Fabric.serve_trace` uses), here fed
   the projected queue depths and the schedule's health.  A
   :class:`~repro.fabric.lifecycle.FailoverRouter` re-routes requests
   off dead replicas; when *every* replica is dead the routing step
   asks the placement to re-replicate (auto-heal) and fates the
   request ``failed_over`` if the heal has not activated yet.
5. **Steal**: when the routed shard is backlogged and another usable
   shard hosting the model has an idle core, the request is re-placed
   there — the pre-pass form of an idle core pulling from a deep
   queue.
6. **Shed late**: a request whose class deadline or energy budget
   (:class:`~repro.traffic.slo.SLOBook`) is already blown by the
   projected wait on the shard it would land on is shed at the NIC.
   Only requests that survive this are placed — and flagged
   ``stolen`` when step 5 moved them.

The admitted trace then replays through
:meth:`~repro.fabric.fabric.Fabric.serve_routed` with the gateway's
placement and flags.  Each request the pre-pass shed (with its reason:
admission, deadline or energy budget) or failed over gets its row
there too, so the returned
:class:`~repro.fabric.fabric.FabricResult` holds one row per offered
request (see :class:`~repro.core.stats.Outcomes`).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Sequence

import numpy as np

from ..core.energy import EnergyModel
from ..core.stats import OutcomeFlag, OutcomeReason
from ..fabric.fabric import Fabric, FabricResult, _Routing
from ..fabric.lifecycle import OutageBook
from ..fabric.router import ShardView
from ..runtime.cluster import RuntimeRequest
from ..runtime.workload import probe_service_times
from .admission import AcceptAll, AdmissionController
from .slo import SLOBook

__all__ = ["probe_service_estimates", "serve_fabric_open_loop"]


def probe_service_estimates(fabric: Fabric) -> list[dict[int, float]]:
    """Per-shard ``model_id -> estimated service seconds``.

    One ledger replay per (shard, model) on the shard's core 0
    (:func:`~repro.runtime.workload.probe_service_times`): the
    compiled timing plan prices the request, and no forward pass
    runs.  Under a :class:`~repro.fabric.lifecycle.ModelPlacement` a
    shard hosts
    only its replicas' models — shards with no models return empty
    estimate maps (the gateway prices foreign requests with the fleet
    mean), but a fabric with *no* deployed model anywhere is a
    configuration error.
    """
    estimates = [probe_service_times(shard) for shard in fabric.shards]
    if not any(estimates):
        raise ValueError(
            "no shard has a deployed model; deploy before open-loop "
            "serving"
        )
    return estimates


def _service_prices(
    fabric: Fabric, model_ids: set[int]
) -> list[dict[int, float]]:
    """Per shard, ``model_id -> estimated service seconds`` for every
    model of the trace: the probed time where the shard hosts the
    model, else the shard's mean, else the fleet mean."""
    estimates = probe_service_estimates(fabric)
    fleet_mean = float(
        np.mean([s for per in estimates for s in per.values()])
    )
    prices = []
    for per_model in estimates:
        fallback = (
            sum(per_model.values()) / len(per_model)
            if per_model
            else fleet_mean
        )
        prices.append({
            model_id: per_model.get(model_id, fallback)
            for model_id in model_ids
        })
    return prices


def _shed_limits(
    slo_book: SLOBook | None, model_ids: set[int]
) -> dict[int, tuple[float | None, float | None]]:
    """``model_id -> (deadline, energy budget)`` for every model of the
    trace whose class carries either; the rest are never shed late."""
    if slo_book is None:
        return {}
    limits = {}
    for model_id in model_ids:
        deadline = slo_book.deadline_for(model_id)
        budget = slo_book.energy_budget_for(model_id)
        if deadline is not None or budget is not None:
            limits[model_id] = (deadline, budget)
    return limits


class _ShardProjection:
    """Forward-projected queue state of one shard (pre-pass only).

    The FIFO backlog is two parallel queues, arrivals and services, so
    its depth is ``len(services)`` and its demand one ``sum``.
    """

    __slots__ = ("idle", "busy", "arrivals", "services", "num_cores")

    def __init__(self, num_cores: int) -> None:
        self.idle = num_cores
        self.num_cores = num_cores
        self.busy: list[float] = []
        self.arrivals: deque[float] = deque()
        self.services: deque[float] = deque()

    def advance(self, now_s: float) -> None:
        """Retire completions up to ``now_s``, starting queued work."""
        busy = self.busy
        services = self.services
        while busy and busy[0] <= now_s:
            finish = heappop(busy)
            if services:
                arrival = self.arrivals.popleft()
                start = arrival if arrival > finish else finish
                heappush(busy, start + services.popleft())
            else:
                self.idle += 1

    def charge(self, now_s: float, service_s: float) -> None:
        """Place one admitted request on this shard's projection."""
        if self.idle:
            self.idle -= 1
            heappush(self.busy, now_s + service_s)
        else:
            self.arrivals.append(now_s)
            self.services.append(service_s)

    def wait_estimate(self, now_s: float) -> float:
        """Projected queuing delay a request admitted now would pay:
        zero with an idle core, else the earliest completion plus the
        backlog's service demand spread over the shard's cores."""
        if self.idle > 0:
            return 0.0
        wait = max(self.busy[0] - now_s, 0.0) if self.busy else 0.0
        if self.services:
            wait += sum(self.services) / self.num_cores
        return wait


def _steal_target(
    fabric: Fabric,
    request: RuntimeRequest,
    target: int,
    views: Sequence[ShardView],
    projections: Sequence[_ShardProjection],
) -> int:
    """The shard that takes ``request``: an idle, usable sibling
    hosting its model when the routed shard is backlogged (lowest
    index on ties), else the routed shard."""
    if projections[target].idle or not projections[target].services:
        return target
    placement = fabric.placement
    if placement is not None and placement.is_placed(request.model_id):
        hosts = placement.replicas_at(request.model_id, request.arrival_s)
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
    limits: tuple[float | None, float | None] | None,
    energy_model: EnergyModel | None,
    now_s: float,
    service_s: float,
    projection: _ShardProjection,
) -> str | None:
    """Why a request routed at ``now_s`` is not worth a queue slot on
    the shard behind ``projection`` under its class's ``(deadline,
    energy budget)`` limits, or ``None``."""
    if limits is None:
        return None
    deadline, budget = limits
    wait_s = projection.wait_estimate(now_s)
    if deadline is not None and wait_s + service_s > deadline:
        return "deadline"
    if budget is not None and energy_model is not None:
        # The pre-pass sees no t_d/t_c split, so the whole projected
        # service is priced at accelerator power and the projected wait
        # at DRAM power — the same three-source formula the shard will
        # charge.
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
) -> FabricResult:
    """Serve an open-loop trace through a fabric behind admission.

    ``serve_kwargs`` pass through to
    :meth:`~repro.fabric.fabric.Fabric.serve_routed` (fault schedule,
    watchdog, retry policy, SLO, timeout); the fault schedule is also
    read *here*, as the :class:`~repro.fabric.lifecycle.OutageBook`
    health feed behind the routing views.  ``slo_book`` enables
    deadline-aware shedding: a request whose projected wait already
    blows its class deadline is shed at admission.  With an
    ``energy_model`` too, requests whose class carries an energy
    budget are additionally priced forward — projected service at
    accelerator power plus projected wait at DRAM power — and shed
    when the budget is already blown (tallied under
    ``admission.shed_reasons["energy_budget"]``).  The returned
    result's table covers the *full* open-loop trace; ``shed`` and
    ``failed_over`` rows never reach a shard — when that is all of
    them, every shard result is ``None`` and the table holds only
    those rows.

    Per arrival the pre-pass does only what the arrival changed: it
    advances the projections with a completion due, and the routing
    step rebuilds only the views whose routed count, projected depth
    or usable cores moved.  Service prices and each model's shed
    limits are resolved once per serve.
    """
    if admission is None:
        admission = AdmissionController(AcceptAll())
    admission.reset()
    trace = sorted(
        requests, key=lambda r: (r.arrival_s, r.request_id)
    )
    if not trace:
        raise ValueError("cannot serve an empty trace")
    model_ids = {request.model_id for request in trace}
    prices = _service_prices(fabric, model_ids)
    limits = _shed_limits(slo_book, model_ids)
    projections = [
        _ShardProjection(shard.num_cores) for shard in fabric.shards
    ]
    depths = [0] * fabric.num_shards
    routing = _Routing(
        fabric,
        OutageBook.from_schedule(
            fabric, serve_kwargs.get("fault_schedule")
        ),
    )
    for request in trace:
        now_s = request.arrival_s
        for i, projection in enumerate(projections):
            busy = projection.busy
            if busy and busy[0] <= now_s:
                projection.advance(now_s)
                depths[i] = len(projection.services)
        views = routing.views(now_s, depths)
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
        projection = projections[target]
        service = prices[target][request.model_id]
        limit = limits.get(request.model_id)
        reason = _shed_reason(limit, energy_model, now_s, service, projection)
        if reason is not None:
            # Admitted by the policy, not worth a queue slot: shed at the
            # NIC (a steal that ends here moved nothing).
            admission.shed_admitted(reason)
            routing.shed(request, OutcomeReason[reason.upper()], flags)
            continue
        if target != shard:
            flags |= OutcomeFlag.STOLEN
        routing.place(request, target, flags)
        projection.charge(now_s, service)
        depths[target] = len(projection.services)
    return routing.serve(**serve_kwargs)
