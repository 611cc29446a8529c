"""Pluggable request-to-core schedulers.

One :class:`Scheduler` protocol is shared by the §9 event-driven
simulator (:mod:`repro.sim.simulator`) and the serving runtime
(:mod:`repro.runtime.cluster`), so a placement policy validated in the
abstract simulator carries the same semantics when it drives real
:class:`~repro.core.datapath.LightningDatapath` cores.

A scheduler makes two kinds of decisions:

* :meth:`Scheduler.assign` — which core executes a request, given the
  per-core busy-until times (the simulator's round-robin placement over
  FIFO queues is the paper's §9 policy);
* :meth:`Scheduler.next_model` — when a core frees up and several model
  queues hold work, which model is served next: global FIFO (earliest
  head-of-line enqueue wins, then the lower model id), matching the
  simulator's FIFO semantics.

Placement can additionally consume a read-only health snapshot: hosts
that track core health (the runtime's calibration watchdog, or the
simulator's all-healthy default) publish one :class:`CoreHealthView`
per candidate core via :meth:`Scheduler.observe_health` immediately
before each :meth:`Scheduler.assign` call.  Policies opt in by setting
``uses_health = True`` (see :class:`HealthAwareScheduler`); hosts skip
building the views otherwise so load-oblivious policies pay nothing.

Every decision in this module breaks ties deterministically (stable
lowest-index / lowest-id order on equal keys) — parallel-mode replay is
bit-identical to serial only because placement never depends on dict or
argsort iteration order.

This module is dependency-free (numpy only) so both the simulator and
the runtime can import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

__all__ = [
    "CoreHealthView",
    "ModelQueueView",
    "Scheduler",
    "SchedulerBase",
    "RoundRobinScheduler",
    "LeastLoadedScheduler",
    "HealthAwareScheduler",
    "DEFAULT_ERROR_SOFT_THRESHOLD",
]

#: Probe-error level (8-bit output levels, RMS) above which
#: :class:`HealthAwareScheduler` steers traffic away from a core even
#: though the watchdog has not quarantined it yet.  2x the prototype's
#: calibrated readout-noise sigma (~1.65 levels, Fig. 18): a healthy
#: core's probe error sits near one sigma, while a drifting MZM pushes
#: it past two sigmas well before the 3-sigma quarantine threshold.
DEFAULT_ERROR_SOFT_THRESHOLD = 3.3


@dataclass(frozen=True)
class ModelQueueView:
    """A scheduler's read-only view of one model's admission queue."""

    model_id: int
    depth: int
    head_enqueued_s: float


@dataclass(frozen=True)
class CoreHealthView:
    """A scheduler's read-only view of one candidate core's health.

    Hosts publish one view per candidate core (aligned with the
    ``core_free_at`` sequence passed to :meth:`Scheduler.assign`) via
    :meth:`Scheduler.observe_health`.  ``core`` is the host's core
    index, ``error_rms`` the last calibration-probe error in output
    levels, and ``busy_until_s`` the core's busy-until time on the
    host's clock.
    """

    core: int
    state: str = "healthy"
    error_rms: float = 0.0
    busy_until_s: float = 0.0

    @property
    def usable(self) -> bool:
        """Whether the core may be given new work at all."""
        return self.state == "healthy"


@runtime_checkable
class Scheduler(Protocol):
    """The placement policy shared by the simulator and the runtime."""

    num_cores: int
    #: Whether the host must publish :class:`CoreHealthView` snapshots
    #: through :meth:`observe_health` before each :meth:`assign` call.
    uses_health: bool

    def observe_health(self, views: Sequence["CoreHealthView"]) -> None:
        """Receive the health snapshot for the next :meth:`assign`."""
        ...

    def assign(
        self,
        request: object,
        core_free_at: Sequence[float] | None = None,
        now_s: float = 0.0,
    ) -> int:
        """Pick the core index that executes ``request``.

        ``core_free_at`` holds each candidate core's busy-until time
        (the runtime passes only its idle cores; the simulator passes
        all of them).  Policies that ignore load, like round-robin, may
        be called without it.
        """
        ...

    def next_model(self, candidates: Sequence[ModelQueueView]) -> int:
        """Pick the ``model_id`` whose queue is served next."""
        ...

    def reset(self) -> None:
        """Forget all placement state (rotation, snapshots, ...)."""
        ...


class SchedulerBase:
    """Shared behaviour: FIFO model selection."""

    #: Load-oblivious policies ignore health snapshots; hosts check this
    #: flag and skip building :class:`CoreHealthView` lists entirely.
    uses_health = False

    def __init__(self, num_cores: int = 1) -> None:
        if num_cores < 1:
            raise ValueError("need at least one core")
        self.num_cores = num_cores

    def observe_health(self, views: Sequence[CoreHealthView]) -> None:
        """Default: discard the snapshot (``uses_health`` is False)."""

    def next_model(self, candidates: Sequence[ModelQueueView]) -> int:
        """Global FIFO: serve the model whose head waited longest."""
        if not candidates:
            raise ValueError("no candidate queues to pick from")
        best = min(
            candidates, key=lambda c: (c.head_enqueued_s, c.model_id)
        )
        return best.model_id

    def reset(self) -> None:
        """Base schedulers are stateless between traces."""


class RoundRobinScheduler(SchedulerBase):
    """Round-robin task placement over compute cores with FIFO queues.

    This is the §9 simulator's scheduler; the rotation ignores load
    entirely.  When the runtime passes a subset of (idle) cores, the
    rotation cycles over that subset.
    """

    def __init__(self, num_cores: int = 1) -> None:
        super().__init__(num_cores)
        self._next = 0

    def assign(
        self,
        _request: object,
        core_free_at: Sequence[float] | None = None,
        now_s: float = 0.0,
    ) -> int:
        """Pick the next core in round-robin order."""
        n = (
            len(core_free_at)
            if core_free_at is not None
            else self.num_cores
        )
        if n < 1:
            raise ValueError("no cores to assign to")
        core = self._next % n
        self._next = (core + 1) % n
        return core

    def reset(self) -> None:
        """Restart the rotation at core 0."""
        self._next = 0


class LeastLoadedScheduler(SchedulerBase):
    """Join-the-shortest-backlog placement.

    Each request goes to the core that frees up earliest; ties break to
    the lowest core index so runs stay deterministic.
    """

    def assign(
        self,
        _request: object,
        core_free_at: Sequence[float] | None = None,
        now_s: float = 0.0,
    ) -> int:
        """Pick the core with the earliest busy-until time."""
        if not core_free_at:
            raise ValueError(
                "least-loaded scheduling needs per-core load information"
            )
        # The explicit (load, index) key pins equal-load ties to the
        # lowest candidate index regardless of how the host ordered or
        # produced the sequence (list, ndarray, generator output).
        return min(
            range(len(core_free_at)),
            key=lambda i: (core_free_at[i], i),
        )


class HealthAwareScheduler(SchedulerBase):
    """Placement that prefers healthy, lightly loaded cores.

    Consumes the :class:`CoreHealthView` snapshot published by the host
    before each assignment and ranks candidates by a three-part key:

    1. *clean before drifting* — cores whose last calibration-probe
       error exceeds ``error_soft_threshold`` (or that are not in the
       "healthy" state) are avoided while any clean candidate exists;
    2. *least backlog* — remaining busy time ``max(free_at - now, 0)``;
    3. *rotation* — among candidates tied on both, an internal counter
       rotates placement round-robin so idle clean cores share warm-up
       and wear evenly.

    The rotation counter advances once per assignment, which makes the
    policy deterministic and identical between the event-driven
    simulator and the runtime cluster (validated by the parity tests).
    Without a snapshot (e.g. a host that never probes) every core is
    presumed clean and the policy degrades to rotating least-backlog.
    """

    uses_health = True

    def __init__(
        self,
        num_cores: int = 1,
        error_soft_threshold: float = DEFAULT_ERROR_SOFT_THRESHOLD,
    ) -> None:
        super().__init__(num_cores)
        if error_soft_threshold <= 0:
            raise ValueError("error_soft_threshold must be positive")
        self.error_soft_threshold = error_soft_threshold
        self._views: tuple[CoreHealthView, ...] | None = None
        self._next = 0

    def observe_health(self, views: Sequence[CoreHealthView]) -> None:
        """Snapshot the candidate cores for the next assignment."""
        self._views = tuple(views)

    def assign(
        self,
        _request: object,
        core_free_at: Sequence[float] | None = None,
        now_s: float = 0.0,
    ) -> int:
        """Pick a clean, lightly loaded core (see class docstring)."""
        if not core_free_at:
            raise ValueError(
                "health-aware scheduling needs per-core load information"
            )
        n = len(core_free_at)
        views = self._views if (
            self._views is not None and len(self._views) == n
        ) else None

        def drifting(i: int) -> bool:
            if views is None:
                return False
            view = views[i]
            return (
                not view.usable
                or view.error_rms > self.error_soft_threshold
            )

        def key(i: int) -> tuple[bool, float]:
            return (drifting(i), max(core_free_at[i] - now_s, 0.0))

        best = min(range(n), key=lambda i: (*key(i), i))
        tied = [i for i in range(n) if key(i) == key(best)]
        pick = tied[self._next % len(tied)]
        self._next += 1
        # Views are good for exactly one assignment; a stale snapshot
        # must never leak into the next decision.
        self._views = None
        return pick

    def reset(self) -> None:
        """Forget the rotation and any pending health snapshot."""
        self._views = None
        self._next = 0
