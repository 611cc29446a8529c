"""Shard routers — the fabric's first-level scheduler.

A :class:`~repro.fabric.fabric.Fabric` serves one global arrival trace
across N shards (each an independent
:class:`~repro.runtime.cluster.Cluster`, possibly with its own core
count and :class:`~repro.photonics.core.CoreArchitecture`).  Placement
is two-level: a :class:`ShardRouter` picks the shard at admission
time, then the shard's own per-core scheduler picks the core at
dispatch time.  Routers see only :class:`ShardView` snapshots — shard
index, capacity proxy, and work routed so far — so routing is a pure
function of the arrival order and is bit-reproducible across runs.

Three routers cover the design space:

* :class:`SwitchShardRouter` — switch-style model→shard affinity
  built on the L2 learning-table state machine
  (:class:`~repro.net.switch.LearningForwardingTable`): the first
  request for a model "floods" to the least-loaded shard and the
  binding is learned; later requests forward to the learned shard,
  keeping each model's weights hot on one NIC, until that shard's
  normalized load exceeds the fabric minimum by ``spill_factor`` — a
  station move — at which point the model re-learns onto the
  least-loaded shard.
* :class:`HashShardRouter` — stateless modulo placement by model id.
* :class:`LeastLoadedShardRouter` — pure load balancing, ignoring
  affinity; normalized load with stable lowest-index tie-breaks.

Capacity is heterogeneity-aware: a shard's proxy is ``num_cores x
macs_per_step``, so a 2-core 8-wavelength shard absorbs more routed
work than a 2-core 1-wavelength shard before it counts as loaded.
"""

from __future__ import annotations

from typing import NamedTuple, Protocol, Sequence, runtime_checkable

from ..net.switch import LearningForwardingTable
from ..runtime.cluster import RuntimeRequest

__all__ = [
    "ShardView",
    "ShardRouter",
    "SwitchShardRouter",
    "HashShardRouter",
    "LeastLoadedShardRouter",
]


class ShardView(NamedTuple):
    """Read-only snapshot of one shard, built per routing decision."""

    shard: int
    num_cores: int
    #: Photonic MACs per time step of this shard's core architecture —
    #: the heterogeneity term in the capacity proxy.
    macs_per_step: int
    #: Requests already routed to this shard this trace.
    routed: int
    #: Requests sitting in this shard's admission queue right now
    #: (0 on the closed-loop ``serve_trace`` path, where routing is a
    #: pre-pass with no live clock; populated by the open-loop path so
    #: admission policies can observe backpressure).
    queued: int = 0
    #: Capacity of that queue (0 when unknown/not applicable).
    queue_capacity: int = 0
    #: Cores currently able to serve (``None`` when unknown — the
    #: closed-loop pre-pass has no health feed; the open-loop gateway
    #: fills this from the fault schedule's :class:`~repro.fabric.
    #: lifecycle.OutageBook` so a :class:`~repro.fabric.lifecycle.
    #: FailoverRouter` can route around a dead shard).
    usable_cores: int | None = None

    @property
    def capacity(self) -> int:
        """Relative service capacity (cores x MACs per step)."""
        return self.num_cores * self.macs_per_step

    @property
    def normalized_load(self) -> float:
        """Routed work per unit of capacity — the balancing key."""
        return self.routed / self.capacity

    @property
    def queue_occupancy(self) -> float:
        """Queue fill fraction (0 when the queue capacity is unknown)."""
        if self.queue_capacity <= 0:
            return 0.0
        return self.queued / self.queue_capacity

    @property
    def alive(self) -> bool:
        """False only when the health feed reports zero usable cores."""
        return self.usable_cores is None or self.usable_cores > 0


@runtime_checkable
class ShardRouter(Protocol):
    """First-level placement: one shard index per admitted request."""

    def route(
        self, request: RuntimeRequest, shards: Sequence[ShardView]
    ) -> int:
        """Pick the shard that admits ``request``."""
        ...

    def reset(self) -> None:
        """Clear learned state before replaying a new trace."""
        ...


def _least_loaded(shards: Sequence[ShardView]) -> int:
    """Lowest normalized load, stable lowest-index on ties (``index``
    finds the first shard at the minimum)."""
    loads = [view.normalized_load for view in shards]
    return loads.index(min(loads))


class LeastLoadedShardRouter:
    """Route every request to the least-loaded shard (no affinity).

    Heterogeneity-aware: load is normalized by each shard's capacity
    proxy, so bigger shards take proportionally more of the trace.
    Ties break on the lowest shard index, matching the deterministic
    tie-break contract of the per-core schedulers.
    """

    def route(
        self, request: RuntimeRequest, shards: Sequence[ShardView]
    ) -> int:
        if not shards:
            raise ValueError("cannot route with no shards")
        return _least_loaded(shards)

    def reset(self) -> None:
        pass


class HashShardRouter:
    """Stateless modulo placement by model id.

    Every request for a model lands on the same shard regardless of
    load — the cheapest affinity scheme, and the baseline the learning
    router improves on under skewed workloads.
    """

    def route(
        self, request: RuntimeRequest, shards: Sequence[ShardView]
    ) -> int:
        if not shards:
            raise ValueError("cannot route with no shards")
        return request.model_id % len(shards)

    def reset(self) -> None:
        pass


class SwitchShardRouter:
    """Model→shard affinity with the L2 learning-switch state machine.

    Uses a :class:`~repro.net.switch.LearningForwardingTable` with one
    "port" per shard.  A model id plays the role of a MAC address:

    * **miss** — the first request for a model has no binding; it is
      placed on the least-loaded shard and the binding is learned
      (flood-then-learn, collapsed because the fabric knows load).
    * **hit** — later requests forward to the learned shard, keeping
      the model's compiled plan and sign cache hot on one NIC.
    * **move** — when the bound shard's normalized load exceeds the
      fabric-wide minimum by more than ``spill_factor``, the model
      re-learns onto the least-loaded shard (last writer wins, exactly
      as when a station moves ports on a real switch).

    ``spill_factor`` is in normalized-load units; ``0`` re-balances on
    any imbalance, ``inf`` never spills (pure sticky affinity).
    """

    def __init__(self, num_shards: int, spill_factor: float = 2.0) -> None:
        if num_shards < 1:
            raise ValueError("a shard router needs at least one shard")
        if spill_factor < 0:
            raise ValueError("spill factor cannot be negative")
        self.spill_factor = spill_factor
        self._table = LearningForwardingTable(num_shards)
        self.hits = 0
        self.misses = 0
        self.moves = 0

    @property
    def bindings(self) -> dict[object, int]:
        """Learned model→shard bindings."""
        return self._table.entries()

    def route(
        self, request: RuntimeRequest, shards: Sequence[ShardView]
    ) -> int:
        if len(shards) != self._table.num_ports:
            raise ValueError(
                f"router learned {self._table.num_ports} shards but "
                f"was offered {len(shards)}"
            )
        lightest = _least_loaded(shards)
        bound = self._table.lookup(request.model_id)
        if bound is None:
            self.misses += 1
            self._table.learn(request.model_id, lightest)
            return lightest
        overload = (
            shards[bound].normalized_load
            - shards[lightest].normalized_load
        )
        if overload > self.spill_factor:
            self.moves += 1
            self._table.learn(request.model_id, lightest)
            return lightest
        self.hits += 1
        return bound

    def reset(self) -> None:
        self._table.clear()
        self.hits = 0
        self.misses = 0
        self.moves = 0
