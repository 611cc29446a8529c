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
   asks the placement to re-replicate (auto-heal) and charges the
   request to ``failed_over`` if the heal has not activated yet.
5. **Steal**: when the routed shard is backlogged and another usable
   shard hosting the model has an idle core, the request is re-placed
   there — the pre-pass form of an idle core pulling from a deep
   queue.
6. **Shed late**: a request whose class deadline or energy budget
   (:class:`~repro.traffic.slo.SLOBook`) is already blown by the
   projected wait on the shard it would land on is shed at the NIC.
   Only requests that survive this are placed — and counted as
   ``stolen`` when step 5 moved them.

The admitted trace then replays through
:meth:`~repro.fabric.fabric.Fabric.serve_routed` with the gateway's
placement, and sheds are charged into the returned
:class:`~repro.fabric.fabric.FabricResult`, whose invariant becomes
``served + dropped + failed + unfinished + shed + failed_over ==
offered``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Sequence

import numpy as np

from ..core.energy import EnergyModel
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


def _service_pricer(fabric: Fabric):
    """``(shard, model_id) -> estimated service seconds``: the probed
    time where the shard hosts the model, else the shard's mean, else
    the fleet mean."""
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
        """Retire completions up to ``now_s``, starting queued work."""
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
        """Place one admitted request on this shard's projection."""
        if self.idle:
            self.idle -= 1
            heappush(self.busy, now_s + service_s)
        else:
            self.queue.append((now_s, service_s))

    def wait_estimate(self, now_s: float) -> float:
        """Projected queuing delay a request admitted now would pay:
        zero with an idle core, else the earliest completion plus the
        backlog's service demand spread over the shard's cores."""
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
    """The shard that takes ``request``: an idle, usable sibling
    hosting its model when the routed shard is backlogged (lowest
    index on ties), else the routed shard."""
    if projections[target].idle or not projections[target].queue:
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
    slo_book: SLOBook | None,
    energy_model: EnergyModel | None,
    request: RuntimeRequest,
    service_s: float,
    projection: _ShardProjection,
) -> str | None:
    """Why a routed request is not worth a queue slot on the shard
    behind ``projection``, or ``None``."""
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
    result's ``offered`` counts the *full* open-loop trace; ``shed``
    and ``failed_over`` requests never reach a shard and are charged
    to the invariant — when that is all of them, every shard result is
    ``None`` and the result still balances.
    """
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
    routing = _Routing(
        fabric,
        OutageBook.from_schedule(
            fabric, serve_kwargs.get("fault_schedule")
        ),
    )
    stolen = 0
    for request in trace:
        now_s = request.arrival_s
        for projection in projections:
            projection.advance(now_s)
        views = routing.views(
            now_s, [len(projection.queue) for projection in projections]
        )
        if not admission.admit(now_s, views):
            continue
        routed = routing.route(request, views)
        if routed is None:
            continue
        target = (
            _steal_target(fabric, request, routed, views, projections)
            if steal
            else routed
        )
        service = service_of(target, request.model_id)
        reason = _shed_reason(
            slo_book, energy_model, request, service, projections[target]
        )
        if reason is not None:
            # Admitted by the policy, not worth a queue slot: shed at the
            # NIC (a steal that ends here moved nothing).
            admission.shed_admitted(reason)
            continue
        stolen += target != routed
        routing.place(request, target)
        projections[target].charge(now_s, service)
    return routing.serve(
        offered=admission.offered,
        shed=admission.shed,
        stolen=stolen,
        **serve_kwargs,
    )
