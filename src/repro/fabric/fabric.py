"""The sharded serving fabric — N clusters behind one control plane.

A :class:`Fabric` composes N shards, each an independent
:class:`~repro.runtime.cluster.Cluster` with its own core count, core
architecture, per-core scheduler, queues, and execution mode (serial
or process-parallel).  Shards are the unit of placement: a fabric
happily mixes a 4-core 8-wavelength shard with a 2-core 1-wavelength
one — each shard (each of its workers, on a parallel shard) compiles
its own :class:`~repro.core.plans.ExecutionPlan` per architecture at
deploy.

Placement is two-level.  At admission time a
:class:`~repro.fabric.router.ShardRouter` places each request on a
shard using only :class:`~repro.fabric.router.ShardView` snapshots
(capacity-normalized routed load), so routing is a pure deterministic
function of the arrival order.  At dispatch time the shard's own
scheduler — health-aware or not — picks the core.

The model lifecycle is versioned and replicated
(:mod:`~repro.fabric.lifecycle`): a :class:`~repro.fabric.lifecycle.
ModelPlacement` spreads each model's N replicas by compiled-plan step
counts, ``deploy(dag, version=...)`` stages blue/green versions under
alias ids with :meth:`Fabric.cutover`/:meth:`Fabric.rollback`
switching them atomically on the virtual clock, and a
:class:`~repro.fabric.lifecycle.FailoverRouter` re-routes requests
whose primary shard is dead.  Requests the failover layer could not
place anywhere are fated ``failed_over``.

Faults and health are global: a
:class:`~repro.faults.schedule.FaultSchedule` addresses cores by
*global* index (shard offsets concatenated in shard order), and one
walk (:class:`~repro.fabric.lifecycle.OutageBook`) turns it into
per-shard schedules with local core indices plus the health record
routing and recovery read.  Results merge back the other way:
:class:`~repro.core.stats.ServerStats.merge` remaps each shard's core
health into the global namespace and folds latency reservoirs, and a
:class:`FabricResult` is one :class:`~repro.core.stats.Outcomes`
table — a row per offered request, global core indices — that every
count reduces from.
"""

from __future__ import annotations

from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np

from ..core.dag import ComputationDAG
from ..core.datapath import LightningDatapath
from ..core.energy import EnergyModel
from ..core.stats import (
    Outcome,
    OutcomeFlag,
    OutcomeReason,
    OutcomeRows,
    Outcomes,
    ServedRecord,
    ServerStats,
    Tallied,
)
from ..faults.resilience import CalibrationWatchdog, RetryPolicy
from ..faults.schedule import FaultSchedule
from ..runtime.cluster import Cluster, ClusterResult, RuntimeRequest
from ..runtime.schedulers import Scheduler
from .lifecycle import (
    FAILOVER_DROP,
    FailoverRouter,
    ModelPlacement,
    ModelVersions,
    OutageBook,
)
from .router import LeastLoadedShardRouter, ShardRouter, ShardView

__all__ = ["ShardSpec", "FabricResult", "Fabric"]


@dataclass(frozen=True)
class ShardSpec:
    """Constructor recipe for one shard's cluster.

    A spec, not a cluster, so the fabric owns construction order and a
    single spec can be reused (each :meth:`build` call makes fresh
    datapaths).  ``datapath_factory`` is where heterogeneity lives: it
    receives the *local* core index and returns that core's
    :class:`~repro.core.datapath.LightningDatapath`, so different
    shards may return cores with different architectures and
    samples-per-cycle.
    """

    num_cores: int = 4
    datapath_factory: Callable[[int], LightningDatapath] | None = None
    scheduler_factory: Callable[[int], Scheduler] | None = None
    queue_capacity: int = 64
    drop_policy: str = "drop-tail"
    max_batch: int = 1
    execution: str = "serial"
    #: Dispatch-signalling window for ``execution="parallel"`` shards
    #: (batches per worker wake-up; results are window-invariant).
    window: int = 8
    #: Per-request energy pricing for this shard's cluster (see
    #: :class:`~repro.runtime.cluster.Cluster`); ``None`` disables it.
    energy_model: EnergyModel | str | None = "lightning"

    def build(self) -> Cluster:
        """Construct this shard's cluster."""
        return Cluster(
            num_cores=self.num_cores,
            datapath_factory=self.datapath_factory,
            scheduler=(
                self.scheduler_factory(self.num_cores)
                if self.scheduler_factory is not None
                else None
            ),
            queue_capacity=self.queue_capacity,
            drop_policy=self.drop_policy,
            max_batch=self.max_batch,
            execution=self.execution,
            window=self.window,
            energy_model=self.energy_model,
        )


@dataclass(frozen=True)
class FabricResult(Tallied):
    """Everything one trace produced across all shards.

    ``outcomes`` holds every shard's rows — primary passes, then
    recovery passes, each in shard order — with the shard and the
    *global* core filled in, then the rows the routing step fated
    before any shard.  Counts reduce from it
    (:class:`~repro.core.stats.Tallied`), plus ``shed`` and
    ``failed_over`` and the flag counts ``stolen`` (served rows a steal
    placed off the router's answer) and ``failovers`` (router re-routes
    plus recovery hand-offs: a request that had both counts twice).
    Per-shard
    :class:`~repro.runtime.cluster.ClusterResult` objects are kept
    verbatim (``None`` for shards the router never used).
    """

    shard_results: tuple[ClusterResult | None, ...]
    #: Shard index each placed request was routed to, arrival order.
    routed: tuple[int, ...]
    #: Cross-shard merged counters, latency percentiles, and the
    #: per-request energy ledger (``stats.energy``).  Shard stats are
    #: cumulative across a fabric's serves, so this reflects the
    #: fabric's lifetime — equal to this serve for a fresh fabric.
    stats: ServerStats
    outcomes: Outcomes
    #: Per-shard recovery serves: requests stranded by a mid-trace
    #: shard death re-served on a healthy replica (``None`` when the
    #: shard ran no recovery pass).
    recovery_results: tuple[ClusterResult | None, ...] = ()

    shed = property(lambda self: self.tally["shed"])
    failed_over = property(lambda self: self.tally["failed_over"])
    stolen = property(lambda self: self.tally["stolen"])
    failovers = property(lambda self: self.tally["failovers"])

    @property
    def goodput(self) -> float:
        """Served fraction of everything offered (sheds and failed-over
        requests count against it — they were offered too)."""
        if self.offered <= 0:
            raise ValueError("nothing was offered")
        return self.served / self.offered

    def records(self) -> tuple[ServedRecord, ...]:
        """All served records with *global* core indices, ordered by
        ``(finish_s, request_id)`` — the cross-shard completion order.
        Recovery-pass records are included: a failed-over request's
        record carries the replica's core."""
        served = self.outcomes.served()
        ids = [request.request_id for request in served.request]
        return served.take(np.lexsort((ids, served.finish))).records()

    def accounted(self) -> bool:
        """Whether every offered request met exactly one fate: true of
        every built result, whose construction ran
        :func:`repro.core.stats.check_accounting` on its table."""
        return True


class Fabric:
    """N cluster shards behind a two-level scheduler.

    ``shards`` may mix :class:`ShardSpec` recipes and pre-built
    :class:`~repro.runtime.cluster.Cluster` instances.  ``router``
    defaults to :class:`~repro.fabric.router.LeastLoadedShardRouter`.
    ``placement`` opts into the replicated model lifecycle: deploys go
    to the placement's chosen shards instead of everywhere, and serves
    run a post-pass that re-routes requests stranded by a dead shard
    onto a live replica.  ``concurrency`` (default ``"threads"``)
    serves busy shards concurrently — one thread per shard, so with
    parallel-execution shards the whole fabric's worker processes
    compute at once and wall-clock tracks the slowest shard instead of
    the sum; ``"serial"`` restores the one-shard-at-a-time loop
    (identical results, for debugging and A/B timing).
    """

    def __init__(
        self,
        shards: Sequence[ShardSpec | Cluster],
        router: ShardRouter | None = None,
        placement: ModelPlacement | None = None,
        concurrency: str = "threads",
    ) -> None:
        if not shards:
            raise ValueError("a fabric needs at least one shard")
        if concurrency not in ("threads", "serial"):
            raise ValueError(
                f"unknown concurrency mode {concurrency!r}; "
                "choose 'threads' or 'serial'"
            )
        #: ``"threads"`` or ``"serial"``: how busy shards serve relative
        #: to each other (:meth:`_ShardPass.serve` — results are
        #: bit-identical either way).
        self.concurrency = concurrency
        self.shards: tuple[Cluster, ...] = tuple(
            spec.build() if isinstance(spec, ShardSpec) else spec
            for spec in shards
        )
        self.router: ShardRouter = (
            router if router is not None else LeastLoadedShardRouter()
        )
        sizes = [shard.num_cores for shard in self.shards]
        self._core_offsets = tuple(accumulate(sizes, initial=0))[:-1]
        self._total_cores = sum(sizes)
        self.placement = placement
        if placement is not None:
            placement.bind(self)
        if (
            isinstance(self.router, FailoverRouter)
            and self.router.placement is None
        ):
            self.router.placement = placement
        #: Blue/green version registry (always present; a fabric that
        #: never stages a second version pays one dict miss per serve).
        self.versions = ModelVersions()
        #: Cross-shard merged statistics, refreshed by each serve.
        self.stats = ServerStats()

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def total_cores(self) -> int:
        """Cores across all shards (the global core namespace)."""
        return self._total_cores

    @property
    def core_offsets(self) -> tuple[int, ...]:
        """Global index of each shard's local core 0."""
        return self._core_offsets

    def shard_of_core(self, global_core: int) -> tuple[int, int]:
        """Map a global core index to ``(shard, local core)``."""
        if not 0 <= global_core < self._total_cores:
            raise ValueError(
                f"core {global_core} out of range "
                f"(fabric has {self._total_cores} cores)"
            )
        shard = bisect_right(self._core_offsets, global_core) - 1
        return shard, global_core - self._core_offsets[shard]

    # ------------------------------------------------------------------
    # Model management
    # ------------------------------------------------------------------
    def _aliased_dag(self, dag: ComputationDAG, alias: int) -> ComputationDAG:
        if alias == dag.model_id:
            return dag
        return ComputationDAG(alias, dag.name, list(dag.tasks))

    def deploy(
        self,
        dag: ComputationDAG,
        warmup: int = 1,
        version: str | None = None,
    ) -> tuple[int, ...]:
        """Register one DAG (compiled per architecture inside each
        shard's geometry-keyed deploy) and return its home shards.

        Without a placement the model lands on every shard; with one,
        on the placement's N chosen shards.  ``version`` stages a
        blue/green version of an already-deployed model: its plans
        (in the workers too, on parallel shards) register
        under a private alias id on the same home shards while the
        active version keeps serving — nothing routes to it until
        :meth:`cutover`.
        """
        staging = (
            version is not None
            and self.versions.is_registered(dag.model_id)
        )
        model_version = self.versions.register(dag, version)
        if self.placement is not None:
            homes = (
                self.placement.shards_for(dag.model_id)
                if staging
                else self.placement.place(dag)
            )
        else:
            homes = tuple(range(self.num_shards))
        target = self._aliased_dag(dag, model_version.alias)
        if staging:
            # A staged version must be invisible to the live version's
            # timing: warm-up executes consume the memory controller's
            # sequential DRAM-jitter draws, which would make a post-
            # rollback serve diverge from a fresh deploy.  Staging
            # registers plans only; the new version pays
            # its (value-neutral) one-time costs after cutover.
            warmup = 0
        for shard_index in homes:
            self.shards[shard_index].deploy(target, warmup=warmup)
        return homes

    def deploy_versions_to_shard(
        self, model_id: int, shard: int
    ) -> ComputationDAG:
        """Deploy every registered version of one model onto one shard
        (the auto-heal re-replication path).  Returns the active
        version's DAG so the caller can weigh the new replica."""
        versions = self.versions.versions_of(model_id)
        cluster = self.shards[shard]
        for model_version in versions:
            if model_version.alias in cluster.model_ids:
                continue
            cluster.deploy(
                self._aliased_dag(model_version.dag, model_version.alias)
            )
        active = self.versions.active_version(model_id)
        for model_version in versions:
            if model_version.name == active:
                return model_version.dag
        raise AssertionError("unreachable: active version missing")

    def undeploy(self, model_id: int, version: str | None = None) -> None:
        """Remove a model — or one non-active version of it — from
        every shard hosting it, releasing its compiled plans (in the
        workers too, on parallel shards)."""
        if version is not None:
            model_version = self.versions.forget_version(
                model_id, version
            )
            aliases: tuple[int, ...] = (model_version.alias,)
        else:
            aliases = tuple(
                v.alias for v in self.versions.versions_of(model_id)
            )
            self.versions.forget(model_id)
            if self.placement is not None:
                self.placement.forget(model_id)
        for shard in self.shards:
            for alias in aliases:
                if alias in shard.model_ids:
                    shard.undeploy(alias)

    def cutover(
        self, model_id: int, version: str, at_s: float = 0.0
    ) -> None:
        """Atomically switch a model to a staged version.

        The switch is a pointer flip on the virtual clock: requests
        arriving at or after ``at_s`` serve the new version's plans,
        earlier ones the old — no plans are recompiled, moved, or
        dropped, which is what keeps :meth:`rollback` bit-identical.
        """
        self.versions.cutover(model_id, version, at_s=at_s)

    def rollback(self, model_id: int) -> str:
        """Undo the latest cutover; the restored version's plans were
        never touched, so subsequent serves are bit-identical to never
        having cut over.  Returns the restored version name."""
        return self.versions.rollback(model_id)

    def active_version(self, model_id: int) -> str:
        """The version name currently serving ``model_id``."""
        return self.versions.active_version(model_id)

    def _rewrite_versioned(
        self, trace: Sequence[RuntimeRequest]
    ) -> list[RuntimeRequest]:
        """Map public model ids to the version alias active at each
        request's arrival (identity for unversioned models)."""
        rewritten: list[RuntimeRequest] = []
        for request in trace:
            if not self.versions.is_versioned(request.model_id):
                rewritten.append(request)
                continue
            alias = self.versions.alias_at(
                request.model_id, request.arrival_s
            )
            rewritten.append(
                request
                if alias == request.model_id
                else replace(request, model_id=alias)
            )
        return rewritten

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve_trace(
        self,
        requests: Iterable[RuntimeRequest],
        *,
        fault_schedule: FaultSchedule | None = None,
        watchdog: CalibrationWatchdog | None = None,
        retry_policy: RetryPolicy | None = None,
        slo_s: float | None = None,
        timeout_s: float | None = None,
    ) -> FabricResult:
        """Serve one global trace across the shards.

        Requests are routed in arrival order (ties by request id) —
        the router sees each shard's capacity-normalized routed load,
        nothing else, so placement is deterministic.  Each shard then
        serves its sub-trace on its own virtual clock; shard clocks
        are independent but share origin 0, so per-request timings are
        directly comparable and the fabric makespan is the slowest
        shard's horizon.  ``watchdog`` (with or without a re-lock
        controller) is probe-stateless and is shared by every shard.

        A :class:`~repro.fabric.lifecycle.FailoverRouter` may return
        :data:`~repro.fabric.lifecycle.FAILOVER_DROP` for a request
        with no usable replica; its row is ``failed_over``.
        """
        trace = sorted(
            requests, key=lambda r: (r.arrival_s, r.request_id)
        )
        if not trace:
            raise ValueError("cannot serve an empty trace")
        routing = _Routing(self)
        for request in trace:
            routed = routing.route(request, routing.views())
            if routed is not None:
                routing.place(request, *routed)
        return routing.serve(
            fault_schedule=fault_schedule,
            watchdog=watchdog,
            retry_policy=retry_policy,
            slo_s=slo_s,
            timeout_s=timeout_s,
        )

    def serve_routed(
        self,
        trace: Sequence[RuntimeRequest],
        routed: Sequence[int],
        *,
        fault_schedule: FaultSchedule | None = None,
        watchdog: CalibrationWatchdog | None = None,
        retry_policy: RetryPolicy | None = None,
        slo_s: float | None = None,
        timeout_s: float | None = None,
        flags: Sequence[int] | None = None,
        upstream: Outcomes | None = None,
    ) -> FabricResult:
        """Serve a trace whose shard placement is already decided.

        The execution half of :meth:`serve_trace`, and the seam the
        open-loop gateway (``repro.traffic``) executes through.
        ``flags`` holds each placed request's routing
        :class:`~repro.core.stats.OutcomeFlag` bits (stolen,
        re-routed), parallel to ``routed``; they land on the request's
        row in its shard's table.  ``upstream`` holds the rows the
        caller fated before any shard (shed, failed over), which join
        the result's table as they are.  An empty ``trace`` is refused
        unless ``upstream`` has rows.

        With a placement attached, a **recovery pass** runs after the
        primary serves: requests a shard *failed* (crashed cores,
        permanent quarantine — the "no usable core" fate) are handed
        to a replica shard (:meth:`_ShardPass.strand`) and re-served
        there without faults, so a mid-trace shard death moves
        requests instead of losing them.  Each hand-over flags its
        row, and counts in the result's ``failovers``.
        """
        flags = [0] * len(routed) if flags is None else flags
        if not len(trace) == len(routed) == len(flags):
            raise ValueError(
                f"{len(trace)} requests but {len(routed)} placements "
                f"and {len(flags)} flags"
            )
        upstream = OutcomeRows().seal() if upstream is None else upstream
        if not trace and not len(upstream):
            raise ValueError("cannot serve an empty trace")
        shard_pass = _ShardPass(
            self,
            fault_schedule,
            dict(
                watchdog=watchdog,
                retry_policy=retry_policy,
                slo_s=slo_s,
                timeout_s=timeout_s,
            ),
        )
        results = shard_pass.serve(
            shard_pass.split(self._rewrite_versioned(trace), routed, flags),
            faults=True,
        )
        handed = shard_pass.strand(results)
        recovery_results = shard_pass.serve(handed, faults=False)
        merged = ServerStats()
        for shard_index, shard in enumerate(self.shards):
            # The replica's serve_trace already counted the handed
            # requests as offers; annotate how many of its serves were
            # failover recoveries (energy was charged there normally —
            # a failed attempt charges nothing).
            shard.stats.failovers += len(handed[shard_index])
            if (
                results[shard_index] is None
                and recovery_results[shard_index] is None
            ):
                continue
            # One merge per shard: the cluster's stats accumulate over
            # its primary and recovery serves within this call.
            merged.merge(
                shard.stats,
                core_offset=self._core_offsets[shard_index],
            )
        self.stats = merged
        return FabricResult(
            shard_results=tuple(results),
            routed=tuple(routed),
            stats=merged,
            outcomes=shard_pass.merge(results, recovery_results, upstream),
            recovery_results=tuple(recovery_results),
        )


#: The flags of a placement nobody moved.
_UNFLAGGED = OutcomeFlag(0)


class _Routing:
    """One serve's routing step: views in, a shard or a fate out.

    Both serve loops route through this object — the closed-loop
    :meth:`Fabric.serve_trace` with load-only views, the open-loop
    gateway with queue depths and a health feed — so the views, the
    failover fates, the heal and the range check exist once.  It
    collects the placed trace with each placement's flags, writes a
    row for each request it fates itself (:attr:`rows`: shed or failed
    over) and hands both to :meth:`Fabric.serve_routed`.
    """

    def __init__(
        self, fabric: Fabric, health: OutageBook | None = None
    ) -> None:
        self.fabric = fabric
        #: Schedule-driven shard health; ``None`` routes health-blind.
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
        #: Each placement's :class:`~repro.core.stats.OutcomeFlag` bits.
        self.flags: list[int] = []
        self.rows = OutcomeRows()
        # The last views handed out, the queue depths (``None``: not
        # projected) and usable counts they show, and the shards placed
        # on since: only those views are stale.
        self._unknown = (None,) * fabric.num_shards
        self._depths = self._usable = self._unknown
        self._moved = set(range(fabric.num_shards))
        self._views: tuple[ShardView, ...] = ()

    def views(
        self, now_s: float = 0.0, queued: Sequence[int] | None = None
    ) -> tuple[ShardView, ...]:
        """One snapshot per shard: routed load always, usable cores at
        ``now_s`` with a health feed, queue depth against the shard's
        queue capacity when the caller projects ``queued``.

        Only the views whose routed count, queue depth or usable count
        moved since the last call are rebuilt; the rest are the last
        call's.
        """
        usable = (
            self._unknown if self.health is None
            else self.health.usable_at(now_s)
        )
        depths = self._unknown if queued is None else tuple(queued)
        moved = self._moved
        if depths != self._depths or usable is not self._usable:
            moved.update(
                i
                for i, (depth, seen) in enumerate(zip(depths, self._depths))
                if depth != seen or usable[i] != self._usable[i]
            )
            self._depths, self._usable = depths, usable
        if moved:
            views = list(self._views or self._unknown)
            for i in moved:
                num_cores, macs, capacity = self._shards[i]
                depth = depths[i]
                views[i] = ShardView(
                    i,
                    num_cores,
                    macs,
                    self.counts[i],
                    0 if depth is None else depth,
                    0 if depth is None else capacity,
                    usable[i],
                )
            self._views = tuple(views)
            moved.clear()
        return self._views

    def route(
        self, request: RuntimeRequest, views: Sequence[ShardView]
    ) -> tuple[int, OutcomeFlag] | None:
        """The router's shard for one request with its flags
        (``REROUTED`` when the router moved it off its primary
        replica), or ``None`` when every replica is dead and the
        request's row is ``failed_over``.

        With a health feed and an auto-healing placement, a dropped
        request first asks the placement to re-replicate its model on
        a surviving shard and retries once; requests arriving inside
        the redeploy-latency window still fail over.
        """
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
        return target, OutcomeFlag.REROUTED if moved else _UNFLAGGED

    def place(
        self, request: RuntimeRequest, shard: int, flags: int = 0
    ) -> None:
        """Commit one request to ``shard`` (the routed shard, or the
        one a steal moved it to — ``flags`` then has ``STOLEN``); its
        fate is the shard's to decide."""
        self.counts[shard] += 1
        self._moved.add(shard)
        self.trace.append(request)
        self.routed.append(shard)
        self.flags.append(flags)

    def shed(
        self, request: RuntimeRequest, reason: OutcomeReason, flags: int = 0
    ) -> None:
        """Fate one request ``shed`` before any shard."""
        self.rows.add(request, Outcome.SHED, reason, flags)

    def serve(self, **serve_kwargs) -> FabricResult:
        """Execute everything placed, with this routing's rows."""
        return self.fabric.serve_routed(
            self.trace,
            self.routed,
            flags=self.flags,
            upstream=self.rows.seal(),
            **serve_kwargs,
        )


class _ShardPass:
    """One ``serve_routed`` call: busy shards serve their sub-traces,
    then replicas re-serve what a dead shard stranded."""

    def __init__(
        self,
        fabric: Fabric,
        fault_schedule: FaultSchedule | None,
        serve_kwargs: dict,
    ) -> None:
        self.fabric = fabric
        #: The global schedule as the shards see it: each shard's own
        #: faults on local core indices, and who is usable when.
        self.health = OutageBook.from_schedule(fabric, fault_schedule)
        self.serve_kwargs = serve_kwargs
        #: Routing flags of the placed requests that have any, by
        #: request id (:meth:`split` fills it, :meth:`merge` applies it).
        self.flags: dict[int, int] = {}

    def split(
        self,
        trace: Sequence[RuntimeRequest],
        routed: Sequence[int],
        flags: Sequence[int],
    ) -> list[list[RuntimeRequest]]:
        """Per-shard sub-traces, arrival order preserved."""
        num_shards = self.fabric.num_shards
        sub_traces: list[list[RuntimeRequest]] = [
            [] for _ in range(num_shards)
        ]
        for request, target, flag in zip(trace, routed, flags):
            if not 0 <= target < num_shards:
                raise ValueError(
                    f"placement {target} for request "
                    f"{request.request_id} out of range; fabric has "
                    f"{num_shards} shards"
                )
            sub_traces[target].append(request)
            if flag:
                self.flags[request.request_id] = flag
        return sub_traces

    def serve(
        self, sub_traces: Sequence[list[RuntimeRequest]], faults: bool
    ) -> list[ClusterResult | None]:
        """Serve every non-empty sub-trace on its shard, under the
        shard's local fault schedule when ``faults``.  Idle shards are
        skipped (faults on an idle shard have no observable effect)
        and read ``None``.

        Busy shards run as one job each — concurrently under
        ``concurrency="threads"``, so the fabric's wall-clock is the
        slowest shard, not the sum.  Wall-clock is the only thing that
        changes: every job touches exactly one shard's state (clusters
        share nothing mutable — the shared watchdog is probe-stateless
        and the re-lock controller serializes its sweep mount
        internally), and results are read in fixed shard order either
        way.  The first shard exception propagates after all serves
        finish, so no cluster is abandoned mid-trace.
        """
        fabric = self.fabric
        busy = [i for i, requests in enumerate(sub_traces) if requests]
        jobs = [
            partial(
                fabric.shards[i].serve_trace,
                sub_traces[i],
                fault_schedule=(
                    self.health.schedules[i] if faults else None
                ),
                **self.serve_kwargs,
            )
            for i in busy
        ]
        if fabric.concurrency != "threads" or len(jobs) <= 1:
            served = [job() for job in jobs]
        else:
            with ThreadPoolExecutor(
                max_workers=len(jobs),
                thread_name_prefix="lightning-shard",
            ) as pool:
                futures = [pool.submit(job) for job in jobs]
                served = [future.result() for future in futures]
        results: list[ClusterResult | None] = [None] * len(sub_traces)
        for i, result in zip(busy, served):
            results[i] = result
        return results

    def strand(
        self, results: list[ClusterResult | None]
    ) -> list[list[RuntimeRequest]]:
        """Take each shard's failed rows that a replica can re-serve
        out of ``results`` and return their requests per replica
        shard, in arrival order."""
        fabric = self.fabric
        handed: list[list[RuntimeRequest]] = [[] for _ in results]
        if fabric.placement is None:
            return handed
        for shard_index, result in enumerate(results):
            if result is None or not result.failed:
                continue
            table = result.outcomes
            moved = np.zeros(len(table), dtype=bool)
            for row in np.flatnonzero(table.fate == Outcome.FAILED).tolist():
                request = table.request[row]
                target = self._replica_for(request, shard_index, handed)
                if target is not None:
                    handed[target].append(request)
                    moved[row] = True
            count = int(np.count_nonzero(moved))
            if count:
                results[shard_index] = replace(
                    result, outcomes=table.take(~moved)
                )
                # The moved requests are re-homed wholesale: the
                # failing shard gives up both the offer and the failed
                # fate, the replica's recovery serve counts them as its
                # own offers and serves — so every shard's *cumulative*
                # ledger stays individually balanced, not just the
                # merge.
                stats = fabric.shards[shard_index].stats
                stats.failed -= count
                stats.offered -= count
        for requests in handed:
            requests.sort(key=lambda r: (r.arrival_s, r.request_id))
        return handed

    def merge(
        self,
        results: Sequence[ClusterResult | None],
        recovery_results: Sequence[ClusterResult | None],
        upstream: Outcomes,
    ) -> Outcomes:
        """The fabric's table: the shard tables (primary, then recovery
        passes, in shard order) with shard, global core and flags filled
        in, then the rows fated upstream."""
        handed = OutcomeFlag.HANDED
        passes = [
            (shard, flag, result.outcomes)
            for flag, each in ((0, results), (handed, recovery_results))
            for shard, result in enumerate(each)
            if result is not None
        ]
        shard, flags, tables = zip(*passes) if passes else ((), (), ())
        count = sum(map(len, tables))
        table = Outcomes.concat([*tables, upstream])
        table.shard[:count] = np.repeat(shard, [len(t) for t in tables])
        table.flags[:count] |= np.repeat(
            np.array(flags, dtype=np.int8), [len(t) for t in tables]
        )
        if self.flags:
            placed = table.request[:count]
            marks = [self.flags.get(r.request_id, 0) for r in placed]
            table.flags[:count] |= np.array(marks, dtype=np.int8)
        served = table.fate == Outcome.SERVED
        offsets = np.asarray(self.fabric.core_offsets)
        table.core[served] += offsets[table.shard[served]]
        return table

    def _replica_for(
        self,
        request: RuntimeRequest,
        failed_shard: int,
        handed: Sequence[Sequence[RuntimeRequest]],
    ) -> int | None:
        """The replica shard that re-serves one stranded request.

        Eligible shards are homes of the request's model that host its
        version alias, have no device or core fault of their own in
        the schedule, and ended the primary pass with at least one
        usable core.  Deterministic: fewest requests already handed
        over, then lowest index.
        """
        fabric = self.fabric
        try:
            public = fabric.versions.public(request.model_id)[0]
        except KeyError:
            public = request.model_id
        if not fabric.placement.is_placed(public):
            return None
        candidates = [
            shard_index
            for shard_index in fabric.placement.shards_for(public)
            if shard_index != failed_shard
            and request.model_id in fabric.shards[shard_index].model_ids
            and self.health.schedules[shard_index] is None
            and any(
                h.usable
                for h in fabric.shards[shard_index].health.values()
            )
        ]
        return min(
            candidates, key=lambda s: (len(handed[s]), s), default=None
        )
