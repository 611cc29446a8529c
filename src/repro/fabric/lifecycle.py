"""Model lifecycle on the fabric: placement, failover, blue/green.

The fabric (PR 5) gave shards health states and permanent quarantine,
but no story for *what happens to a model* when its shard degrades —
one drifting shard silently took every model pinned to it down with
it.  This module is the missing control plane:

* :class:`ModelPlacement` — N-way replication with capacity planning.
  Each deployed model is weighed by its **compiled-plan step count**
  (:func:`~repro.core.plans.compile_model` against each shard's
  :class:`~repro.core.plans.PlanGeometry`; heavier models cost more of
  a shard's ``cores x macs_per_step`` capacity) and its N replicas
  land on the least-loaded shards.  When every replica of a model has
  died, the placement can *re-replicate* it onto a surviving shard
  after a configurable redeploy latency (``auto_heal``).
* :class:`FailoverRouter` — wraps any existing
  :class:`~repro.fabric.router.ShardRouter`.  The inner router's pick
  is honored while it is a live, un-backlogged replica of the
  request's model; otherwise the request *fails over* to the best
  usable replica.  When no usable replica exists the router returns
  :data:`FAILOVER_DROP` and the request is charged to the
  ``failed_over`` term of the global accounting invariant
  (``served + dropped + failed + unfinished + shed + failed_over ==
  offered``).
* :class:`ModelVersions` — blue/green deploys.  ``Fabric.deploy(dag,
  version="v2")`` registers v2's compiled plans (in the workers too,
  on parallel shards) under a private *version alias*
  id while v1 keeps serving; :meth:`~repro.fabric.fabric.Fabric.
  cutover` atomically switches which alias serves the public model id
  from a virtual-clock instant onward, and :meth:`~repro.fabric.
  fabric.Fabric.rollback` restores the previous version — whose plans
  were never touched — bit-identically.
* :class:`OutageBook` — one walk of a global
  :class:`~repro.faults.schedule.FaultSchedule` into what the shards
  see: each shard's local schedule, and "how many of shard *s*'s cores
  are usable at time *t*", which is what lets the open-loop pre-pass
  route around a shard the moment the schedule kills it.
  :func:`kill_shard` builds the rolling-failure schedules the chaos
  benchmark replays.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

from ..core.dag import ComputationDAG
from ..core.plans import PlanGeometry, compile_model
from ..faults.schedule import FaultSchedule
from ..runtime.cluster import RuntimeRequest
from .router import LeastLoadedShardRouter, ShardRouter, ShardView

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .fabric import Fabric

__all__ = [
    "FAILOVER_DROP",
    "ReplicaHome",
    "HealEvent",
    "ModelPlacement",
    "FailoverRouter",
    "ModelVersion",
    "ModelVersions",
    "OutageBook",
    "kill_shard",
]

#: Sentinel a :class:`FailoverRouter` returns when no usable replica
#: exists; the serving layer charges the request to ``failed_over``.
FAILOVER_DROP = -1

#: Version ordinals are packed above this bit of the alias id, so
#: public model ids must stay below ``1 << _VERSION_SHIFT``.
_VERSION_SHIFT = 20


@dataclass(frozen=True)
class ReplicaHome:
    """One shard hosting one model's replica."""

    shard: int
    #: Virtual time from which the replica serves (0 for planned
    #: placement; heal time + redeploy latency for re-replications).
    active_from_s: float = 0.0


@dataclass(frozen=True)
class HealEvent:
    """One auto-heal re-replication, for observability."""

    model_id: int
    shard: int
    at_s: float
    active_from_s: float


class ModelPlacement:
    """N-way replicated placement driven by compiled-plan step counts.

    The placement is the capacity planner: each model's cost on a
    shard is its compiled plan's total stream cycles against that
    shard's geometry, normalized by the shard's ``num_cores x
    macs_per_step`` capacity proxy, and the N replicas go to the
    shards with the least accumulated normalized load (stable
    lowest-index tie-breaks, so placement is a pure function of the
    deploy order).
    """

    def __init__(
        self,
        replicas: int = 2,
        redeploy_latency_s: float = 0.0,
        auto_heal: bool = True,
    ) -> None:
        if replicas < 1:
            raise ValueError("replication factor must be at least 1")
        if redeploy_latency_s < 0:
            raise ValueError("redeploy latency cannot be negative")
        self.replicas = replicas
        self.redeploy_latency_s = redeploy_latency_s
        self.auto_heal = auto_heal
        self.fabric: "Fabric | None" = None
        self._homes: dict[int, list[ReplicaHome]] = {}
        #: Per model: every home's shard, and the time from which all
        #: of them serve (what :meth:`replicas_at` answers from then on).
        self._settled: dict[int, tuple[tuple[int, ...], float]] = {}
        self._loads: list[float] = []
        self._weights: dict[tuple[int, PlanGeometry], int] = {}
        self.heals: list[HealEvent] = []

    # ------------------------------------------------------------------
    # Binding and capacity planning
    # ------------------------------------------------------------------
    def bind(self, fabric: "Fabric") -> None:
        """Attach to the fabric whose shards this placement plans."""
        if self.fabric is not None and self.fabric is not fabric:
            raise ValueError("placement is already bound to a fabric")
        if self.replicas > fabric.num_shards:
            raise ValueError(
                f"replication factor {self.replicas} exceeds the "
                f"fabric's {fabric.num_shards} shards"
            )
        self.fabric = fabric
        if not self._loads:
            self._loads = [0.0] * fabric.num_shards

    def _require_fabric(self) -> "Fabric":
        if self.fabric is None:
            raise ValueError(
                "placement is not bound to a fabric; construct the "
                "Fabric with placement=... first"
            )
        return self.fabric

    def plan_weight(self, dag: ComputationDAG, shard: int) -> int:
        """One model's compiled step count on one shard's geometry.

        Compiled once per (model, geometry) and cached — the same
        plans the shard will compile at deploy, so the capacity
        planner and the datapaths agree on what "heavy" means.
        """
        fabric = self._require_fabric()
        geometry = fabric.shards[shard].datapaths[0].plan_geometry
        key = (dag.model_id, geometry)
        weight = self._weights.get(key)
        if weight is None:
            plan = compile_model(dag, geometry)
            weight = max(
                1,
                sum(p.stream_cycles for p in plan.tasks.values()),
            )
            self._weights[key] = weight
        return weight

    def _capacity(self, shard: int) -> int:
        cluster = self._require_fabric().shards[shard]
        return cluster.num_cores * cluster.macs_per_step

    def _normalized_cost(self, dag: ComputationDAG, shard: int) -> float:
        return self.plan_weight(dag, shard) / self._capacity(shard)

    def place(self, dag: ComputationDAG) -> tuple[int, ...]:
        """Choose (and record) the N home shards for one model."""
        fabric = self._require_fabric()
        if dag.model_id in self._homes:
            raise ValueError(
                f"model {dag.model_id} is already placed on shards "
                f"{self.shards_for(dag.model_id)}"
            )
        costs = [
            self._normalized_cost(dag, shard)
            for shard in range(fabric.num_shards)
        ]
        order = sorted(
            range(fabric.num_shards),
            key=lambda s: (self._loads[s] + costs[s], s),
        )
        chosen = tuple(sorted(order[: self.replicas]))
        for shard in chosen:
            self._loads[shard] += costs[shard]
        self._homes[dag.model_id] = [
            ReplicaHome(shard=shard) for shard in chosen
        ]
        self._settle(dag.model_id)
        return chosen

    def _settle(self, model_id: int) -> None:
        homes = self._homes[model_id]
        self._settled[model_id] = (
            tuple(home.shard for home in homes),
            max(home.active_from_s for home in homes),
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def model_ids(self) -> tuple[int, ...]:
        return tuple(self._homes)

    def is_placed(self, model_id: int) -> bool:
        return model_id in self._homes

    def shards_for(self, model_id: int) -> tuple[int, ...]:
        """Every home shard of one model, re-replications included."""
        try:
            homes = self._homes[model_id]
        except KeyError:
            raise KeyError(
                f"model {model_id} has no placement"
            ) from None
        return tuple(home.shard for home in homes)

    def replicas_at(self, model_id: int, now_s: float) -> tuple[int, ...]:
        """Home shards whose replica is live at ``now_s`` (a healed
        replica only counts once its redeploy latency has elapsed)."""
        settled = self._settled.get(model_id)
        if settled is None:
            return ()
        shards, settled_s = settled
        if now_s >= settled_s:
            return shards
        return tuple(
            home.shard
            for home in self._homes[model_id]
            if home.active_from_s <= now_s
        )

    def loads(self) -> tuple[float, ...]:
        """Accumulated normalized load per shard (planner's view)."""
        return tuple(self._loads)

    # ------------------------------------------------------------------
    # Auto-heal
    # ------------------------------------------------------------------
    def re_replicate(
        self, model_id: int, now_s: float, usable: Sequence[int]
    ) -> None:
        """Start (or continue) healing a model with no live replica.

        Deploys every registered version of the model onto the
        least-loaded usable shard that is not already a home; the new
        replica becomes routable ``redeploy_latency_s`` after
        ``now_s``.  Idempotent while a heal is pending: requests
        arriving inside the latency window neither stack deploys nor
        reset the clock — they are charged to ``failed_over`` by the
        router until the replica activates.
        """
        fabric = self._require_fabric()
        homes = self._homes.get(model_id)
        if homes is None:
            raise KeyError(f"model {model_id} has no placement")
        usable_set = set(usable)
        for home in homes:
            if home.shard in usable_set and home.active_from_s > now_s:
                return  # a heal is already warming up on a live shard
        candidates = [s for s in usable_set if s not in
                      {home.shard for home in homes}]
        if not candidates:
            return  # nowhere left to heal to
        target = min(candidates, key=lambda s: (self._loads[s], s))
        dag = fabric.deploy_versions_to_shard(model_id, target)
        self._loads[target] += self._normalized_cost(dag, target)
        active_from = now_s + self.redeploy_latency_s
        self._homes[model_id].append(
            ReplicaHome(shard=target, active_from_s=active_from)
        )
        self._settle(model_id)
        self.heals.append(
            HealEvent(
                model_id=model_id,
                shard=target,
                at_s=now_s,
                active_from_s=active_from,
            )
        )

    def forget(self, model_id: int) -> None:
        """Drop a model's placement (fabric-level undeploy), returning
        its capacity charge to each home shard so later placements see
        the freed headroom."""
        homes = self._homes.pop(model_id, None)
        self._settled.pop(model_id, None)
        if homes is None or self.fabric is None:
            return
        for home in homes:
            shard = self.fabric.shards[home.shard]
            geometry = shard.datapaths[0].plan_geometry
            weight = self._weights.get((model_id, geometry))
            if weight is not None:
                self._loads[home.shard] -= weight / self._capacity(
                    home.shard
                )


class FailoverRouter:
    """Health- and placement-aware wrapper around any shard router.

    The inner router proposes; this router disposes.  A request goes
    to the inner router's pick while that pick is a live replica of
    the request's model below the queue-depth watermark.  Otherwise
    the request **fails over** to the best usable replica (least
    normalized load, then least queue occupancy, then lowest index).
    With every replica dead the router returns :data:`FAILOVER_DROP`
    and the serving layer charges the request to the invariant's
    ``failed_over`` term.

    Without a placement every shard counts as a replica, which makes
    this a pure health/queue failover layer; without health in the
    views (the closed-loop ``serve_trace`` pre-pass) it reduces to
    placement-constrained routing.
    """

    def __init__(
        self,
        inner: ShardRouter | None = None,
        placement: ModelPlacement | None = None,
        queue_watermark: float = 0.95,
    ) -> None:
        if not 0.0 < queue_watermark <= 1.0:
            raise ValueError(
                "queue watermark must be in (0, 1]"
            )
        self.inner: ShardRouter = (
            inner if inner is not None else LeastLoadedShardRouter()
        )
        self.placement = placement
        self.queue_watermark = queue_watermark
        #: Requests re-routed off their primary this serve.
        self.failovers = 0
        #: Requests abandoned because no usable replica existed.
        self.dropped = 0

    def _replicas(
        self, request: RuntimeRequest, shards: Sequence[ShardView]
    ) -> Sequence[int]:
        if self.placement is not None and self.placement.is_placed(
            request.model_id
        ):
            # Empty while every replica is still warming up (mid-heal):
            # nothing is routable, which the caller sees as
            # FAILOVER_DROP.
            return self.placement.replicas_at(
                request.model_id, request.arrival_s
            )
        return range(len(shards))

    @staticmethod
    def _best(
        candidates: Sequence[int], shards: Sequence[ShardView]
    ) -> int:
        # Keys end in the shard index, so no two tie.
        return min([
            (shards[s].normalized_load, shards[s].queue_occupancy, s)
            for s in candidates
        ])[2]

    def _calm(self, view: ShardView) -> bool:
        return view.alive and view.queue_occupancy < self.queue_watermark

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
        calm = self._calm
        if calm(shards[primary]):
            return primary
        alternates = [
            s for s in replicas if s != primary and calm(shards[s])
        ]
        if alternates:
            self.failovers += 1
            return self._best(alternates, shards)
        if shards[primary].alive:
            # Every replica is past the watermark; stay home rather
            # than shuffle load between equally-backlogged shards.
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


# ----------------------------------------------------------------------
# Blue/green versioned deploys
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ModelVersion:
    """One registered version of one model."""

    name: str
    dag: ComputationDAG
    #: The private model id this version's plans are registered under
    #: (equal to the public id for the initial version).
    alias: int
    ordinal: int


@dataclass
class _VersionState:
    versions: dict[str, ModelVersion] = field(default_factory=dict)
    #: Activation history: ``(at_s, version name)``, append-ordered;
    #: the active version at time t is the last entry with at_s <= t.
    history: list[tuple[float, str]] = field(default_factory=list)


class ModelVersions:
    """The blue/green version registry one fabric owns.

    Every version of a model registers its compiled plans under a
    deterministic *alias* id (``public_id + ordinal << 20``); the
    registry maps each request's public model id to the alias that is
    active at its arrival time.  Cutover appends an activation record
    — v1's plans are never touched — and rollback pops it, which is
    what makes rollback bit-identical to never having cut over.
    """

    def __init__(self) -> None:
        self._models: dict[int, _VersionState] = {}
        self._public: dict[int, tuple[int, str]] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self, dag: ComputationDAG, version: str | None
    ) -> ModelVersion:
        """Record one deploy; returns the version (with its alias)."""
        state = self._models.get(dag.model_id)
        if state is None:
            name = version if version is not None else "v1"
            model_version = ModelVersion(
                name=name, dag=dag, alias=dag.model_id, ordinal=0
            )
            self._models[dag.model_id] = _VersionState(
                versions={name: model_version},
                history=[(0.0, name)],
            )
            self._public[dag.model_id] = (dag.model_id, name)
            return model_version
        if version is None:
            raise ValueError(
                f"model {dag.model_id} is already deployed; pass "
                "version=... to stage a new version"
            )
        if version in state.versions:
            raise ValueError(
                f"model {dag.model_id} already has a version "
                f"{version!r}"
            )
        if dag.model_id >= 1 << _VERSION_SHIFT:
            raise ValueError(
                "versioned deploys need public model ids below "
                f"{1 << _VERSION_SHIFT} (got {dag.model_id})"
            )
        ordinal = len(state.versions)
        alias = dag.model_id + (ordinal << _VERSION_SHIFT)
        model_version = ModelVersion(
            name=version, dag=dag, alias=alias, ordinal=ordinal
        )
        state.versions[version] = model_version
        self._public[alias] = (dag.model_id, version)
        return model_version

    def is_registered(self, model_id: int) -> bool:
        """True once the public model id has any registered version."""
        return model_id in self._models

    # ------------------------------------------------------------------
    # Activation
    # ------------------------------------------------------------------
    def _state(self, model_id: int) -> _VersionState:
        try:
            return self._models[model_id]
        except KeyError:
            raise KeyError(
                f"model {model_id} has no registered versions"
            ) from None

    def cutover(
        self, model_id: int, version: str, at_s: float = 0.0
    ) -> None:
        """Activate a staged version from virtual time ``at_s`` on."""
        state = self._state(model_id)
        if version not in state.versions:
            raise KeyError(
                f"model {model_id} has no version {version!r}"
            )
        last_at, active = state.history[-1]
        if version == active:
            raise ValueError(
                f"version {version!r} is already active for model "
                f"{model_id}"
            )
        if at_s < last_at:
            raise ValueError(
                f"cutover at {at_s} predates the active version's "
                f"activation at {last_at}"
            )
        state.history.append((at_s, version))

    def rollback(self, model_id: int) -> str:
        """Undo the most recent cutover; returns the restored name.

        The rolled-back version stays registered (its plans and
        segments are intact), so it can be cut over to again.
        """
        state = self._state(model_id)
        if len(state.history) < 2:
            raise ValueError(
                f"model {model_id} has no cutover to roll back"
            )
        state.history.pop()
        return state.history[-1][1]

    # ------------------------------------------------------------------
    # Request mapping
    # ------------------------------------------------------------------
    def active_version(
        self, model_id: int, now_s: float = float("inf")
    ) -> str:
        """The version serving ``model_id`` at virtual time ``now_s``."""
        state = self._state(model_id)
        name = state.history[0][1]
        for at_s, version in state.history:
            if at_s <= now_s:
                name = version
        return name

    def alias_at(self, model_id: int, now_s: float) -> int:
        state = self._models.get(model_id)
        if state is None:
            return model_id
        name = self.active_version(model_id, now_s)
        return state.versions[name].alias

    def is_versioned(self, model_id: int) -> bool:
        """True when requests for the model may need alias rewriting."""
        state = self._models.get(model_id)
        return state is not None and len(state.versions) > 1

    def versions_of(self, model_id: int) -> tuple[ModelVersion, ...]:
        state = self._state(model_id)
        return tuple(state.versions.values())

    def public(self, alias: int) -> tuple[int, str]:
        """Map an alias id back to ``(public model id, version name)``."""
        try:
            return self._public[alias]
        except KeyError:
            raise KeyError(
                f"{alias} is not a registered model or version alias"
            ) from None

    def forget(self, model_id: int) -> None:
        state = self._models.pop(model_id, None)
        if state is None:
            return
        for version in state.versions.values():
            self._public.pop(version.alias, None)

    def forget_version(self, model_id: int, version: str) -> ModelVersion:
        state = self._state(model_id)
        if version not in state.versions:
            raise KeyError(
                f"model {model_id} has no version {version!r}"
            )
        if self.active_version(model_id) == version:
            raise ValueError(
                f"version {version!r} is active for model {model_id}; "
                "cut over or roll back before undeploying it"
            )
        model_version = state.versions.pop(version)
        self._public.pop(model_version.alias, None)
        return model_version


# ----------------------------------------------------------------------
# Schedule-driven shard death
# ----------------------------------------------------------------------
def kill_shard(
    schedule: FaultSchedule,
    fabric: "Fabric",
    shard: int,
    at_s: float,
) -> FaultSchedule:
    """Crash every core of one shard at ``at_s`` (a rolling-failure
    building block: the chaos benchmark kills a different shard each
    quarter of the trace)."""
    if not 0 <= shard < fabric.num_shards:
        raise ValueError(
            f"shard {shard} out of range; fabric has "
            f"{fabric.num_shards} shards"
        )
    offset = fabric.core_offsets[shard]
    for local in range(fabric.shards[shard].num_cores):
        schedule.core_crash(at_s, core=offset + local)
    return schedule


class OutageBook:
    """One fault schedule as the fabric's shards see it.

    A single walk of the global schedule yields both halves of the
    fabric's health record: :attr:`schedules`, each shard's own faults
    on local core indices (what its cluster replays), and the
    usable-core timeline behind :meth:`usable_cores` — the gateway
    routes in a pre-pass, before any shard serves, so "is this shard
    dead yet?" must come from the schedule, exactly as a real control
    plane learns of NIC death from its telemetry.  Crashes remove a
    core permanently from their event time; stalls remove it for their
    duration.  Device-level faults (drift et al.) do not null a core
    here — whether they end in quarantine is the watchdog's runtime
    decision, handled after the serve by the fabric's recovery pass.
    Wire faults belong to neither half: they act on frames at ingress,
    before any shard.
    """

    def __init__(self, num_shards: int) -> None:
        #: Per shard: its device and core faults re-indexed to local
        #: cores, or ``None`` when the schedule holds none for it.
        self.schedules: list[FaultSchedule | None] = [None] * num_shards
        #: One step function for every shard: the sorted edges of any
        #: core's down windows, and each shard's usable-core count
        #: before the first edge and from each edge on.
        self._edges: list[float] = []
        self._steps: list[tuple[int, ...]] = [(0,) * num_shards]
        #: The step last asked for and the ``[from, until)`` interval it
        #: holds on (empty until the first query).
        self._span = (0.0, 0.0)
        self._step = self._steps[0]

    @classmethod
    def from_schedule(
        cls, fabric: "Fabric", schedule: FaultSchedule | None
    ) -> "OutageBook":
        book = cls(fabric.num_shards)
        # Per shard: ``core -> [(down_from_s, up_again_s), ...]``.
        down: list[dict[int, list[tuple[float, float]]]] = [
            {} for _ in fabric.shards
        ]
        for event in () if schedule is None else schedule.events:
            if event.core is None:
                continue
            shard, local = fabric.shard_of_core(event.core)
            if book.schedules[shard] is None:
                book.schedules[shard] = FaultSchedule(seed=schedule.seed)
            book.schedules[shard].add(
                replace(event, core=local, params=dict(event.params))
            )
            if event.kind == "core_crash":
                up_again_s = float("inf")
            elif event.kind == "core_stall":
                up_again_s = event.time_s + event.duration_s
            else:
                continue
            down[shard].setdefault(local, []).append(
                (event.time_s, up_again_s)
            )
        # A core is down at t when any of its windows holds t, and that
        # answer only changes at an edge.
        book._edges = sorted({t for cores in down for spans in
                              cores.values() for span in spans
                              for t in span})
        book._steps = [
            tuple(
                shard.num_cores - sum(
                    any(start <= t < end for start, end in spans)
                    for spans in cores.values()
                )
                for shard, cores in zip(fabric.shards, down)
            )
            for t in [float("-inf")] + book._edges
        ]
        return book

    def usable_at(self, now_s: float) -> tuple[int, ...]:
        """Every shard's cores not crashed or stalled at ``now_s``.

        The step is kept until a query falls outside its interval, so a
        run of arrivals between two edges costs one bisection.
        """
        start, until = self._span
        if not start <= now_s < until:
            edges = self._edges
            index = bisect_right(edges, now_s)
            self._span = (
                edges[index - 1] if index else float("-inf"),
                edges[index] if index < len(edges) else float("inf"),
            )
            self._step = self._steps[index]
        return self._step

    def usable_cores(self, shard: int, now_s: float) -> int:
        """Cores of ``shard`` not crashed or stalled at ``now_s``."""
        return self.usable_at(now_s)[shard]
