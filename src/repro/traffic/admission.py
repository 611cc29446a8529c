"""Admission control in front of the serving fabric.

An open-loop workload does not stop offering requests when the fleet
saturates — something must decide, request by request, whether to admit
or shed.  Admission is the *first* line of defense, ahead of the shard
router and the per-model queues: a shed request costs nothing
downstream, while an admitted-then-dropped request has already crossed
the NIC.  Sheds are charged to the global accounting invariant
(``served + dropped + failed + unfinished == offered``) as admission
drops, never lost silently.

Two policies span the design space:

* :class:`AcceptAll` — the §9 baseline: infinite-buffer optimism.
  Under overload the queues fill, every admitted request pays the full
  queue delay, and goodput (SLO-compliant completions) collapses.
* :class:`QueueBackpressure` — closed-loop shedding from observed
  shard queue depths (:class:`~repro.fabric.router.ShardView`): admit
  below the low watermark, shed above the high watermark, and shed
  probabilistically in between (RED-style), with the tie-break drawn
  from a keyed substream so runs stay bit-reproducible.

:class:`AdmissionController` wraps a policy with offered/admitted/shed
accounting and owns the tie-break substream
(:data:`~repro.traffic.arrivals.ADMIT_RNG_DOMAIN`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from ..fabric.router import ShardView
from .arrivals import ADMIT_RNG_DOMAIN, substream

__all__ = [
    "AdmissionPolicy",
    "AcceptAll",
    "QueueBackpressure",
    "AdmissionController",
]


@runtime_checkable
class AdmissionPolicy(Protocol):
    """One admit/shed decision per offered request."""

    def admit(
        self,
        now_s: float,
        shards: Sequence[ShardView],
        rng: np.random.Generator,
    ) -> bool:
        """Admit (True) or shed (False) the request arriving now."""
        ...

    def reset(self) -> None:
        """Clear internal state before a new trace."""
        ...


class AcceptAll:
    """Admit everything; overload lands on the queues (the baseline)."""

    #: Controllers skip view construction entirely for this policy —
    #: the hot path of a million-request accept-all campaign.
    unconditional = True

    def admit(self, now_s, shards, rng) -> bool:
        return True

    def reset(self) -> None:
        pass


class QueueBackpressure:
    """Shed-on-overload from observed shard queue occupancy.

    Occupancy is total queued over total queue capacity across the
    shard views.  Below ``low`` everything is admitted; above ``high``
    everything is shed; in between the shed probability ramps linearly
    (RED-style early dropping), with the coin flip drawn from the
    controller's keyed substream — the "admission tie-break" stream, so
    identical campaigns make identical coin flips.

    At a sustained overload factor ``L`` the queue settles where the
    shed probability balances the excess, i.e. occupancy near ``low +
    (1 - 1/L) * (high - low)``, and every served request then waits
    roughly ``occupancy x total_queue_slots / total_cores`` mean
    services.  The watermarks must therefore be *tight* relative to
    the SLO — the defaults hold the steady-state backlog near a
    quarter of the (already SLO-sized) fleet queue, which keeps queue
    delay inside a 5x-service SLO; queues half full are already
    multiple SLOs deep.
    """

    unconditional = False

    def __init__(self, low: float = 0.05, high: float = 0.25) -> None:
        if not 0.0 <= low < high <= 1.0:
            raise ValueError(
                "watermarks must satisfy 0 <= low < high <= 1"
            )
        self.low = low
        self.high = high

    def reset(self) -> None:
        pass

    def occupancy(self, shards: Sequence[ShardView]) -> float:
        """Fleet-wide queue occupancy from the shard views."""
        queued = capacity = 0
        for view in shards:
            queued += view.queued
            capacity += view.queue_capacity
        if capacity <= 0:
            return 0.0
        return queued / capacity

    def shed_probability(self, occupancy: float) -> float | None:
        """The RED ramp: the chance that an arrival at ``occupancy`` is
        shed, decided by one draw.  ``None`` outside the coin band
        ``[low, high)``, where the decision takes no draw (admit below
        ``low``, shed from ``high`` up).  At ``low`` itself the ramp
        reads 0 and the arrival still draws."""
        if occupancy < self.low or occupancy >= self.high:
            return None
        return (occupancy - self.low) / (self.high - self.low)

    def admit_occupancy(
        self, occupancy: float, rng: np.random.Generator | None
    ) -> bool:
        """The decision given a precomputed occupancy.  Outside the
        coin band it draws nothing, so ``rng`` may be ``None`` there."""
        shed_p = self.shed_probability(occupancy)
        if shed_p is None:
            return occupancy < self.low
        return float(rng.random()) >= shed_p

    def admit(self, now_s, shards, rng) -> bool:
        return self.admit_occupancy(self.occupancy(shards), rng)


@dataclass
class AdmissionController:
    """A policy plus accounting plus the tie-break substream.

    One controller fronts one serve: :meth:`reset` rewinds both the
    counters and the keyed tie-break stream, so replaying the same
    trace through the same controller reproduces every decision.
    """

    policy: AdmissionPolicy
    seed: int = 0
    stream: int | tuple[int, ...] = 0

    def __post_init__(self) -> None:
        if not isinstance(self.stream, tuple):
            self.stream = (self.stream,)
        self.reset()

    def reset(self) -> None:
        self.offered = 0
        self.admitted = 0
        self.shed = 0
        #: Post-admission shed counts by cause (``"deadline"``,
        #: ``"energy_budget"``, ...) — every count here is also inside
        #: ``shed``, never a separate fate.
        self.shed_reasons: dict[str, int] = {}
        self._rng = substream(self.seed, ADMIT_RNG_DOMAIN, *self.stream)
        self.policy.reset()
        # What admit_occupancy asks of the policy, resolved once per
        # serve instead of probed on every arrival.
        self._always_admits = self.unconditional
        self._policy_by_occupancy = getattr(
            self.policy, "admit_occupancy", None
        )

    @property
    def unconditional(self) -> bool:
        """True when the policy never sheds (skip view construction)."""
        return getattr(self.policy, "unconditional", False)

    def admit(self, now_s: float, shards: Sequence[ShardView]) -> bool:
        """Account and delegate one admit/shed decision."""
        self.offered += 1
        ok = self.policy.admit(now_s, shards, self._rng)
        if ok:
            self.admitted += 1
        else:
            self.shed += 1
        return ok

    def shed_admitted(self, reason: str = "deadline") -> None:
        """Reclassify the most recent admit as a shed.

        The gateway's deadline- and energy-aware paths admit first
        (the policy must observe the request)
        and shed after routing, once the projected queue wait shows
        the deadline is unmeetable or the projected serve blows the
        class's energy budget.  ``reason`` tallies the cause into
        :attr:`shed_reasons` without changing the invariant — a
        reclassified request is charged to ``shed`` either way.
        """
        if self.admitted <= 0:
            raise ValueError("no admitted request to reclassify")
        self.admitted -= 1
        self.shed += 1
        self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + 1

    def admit_occupancy(self, now_s: float, occupancy: float) -> bool:
        """Account one decision from a precomputed queue occupancy; the
        policy must be unconditional or decide by occupancy
        (``admit_occupancy``)."""
        self.offered += 1
        ok = self._always_admits or self._policy_by_occupancy(
            occupancy, self._rng
        )
        if ok:
            self.admitted += 1
        else:
            self.shed += 1
        return ok

    def depth_table(self, capacity: int) -> list[bool | float]:
        """The policy resolved once for ``capacity`` queue slots: entry
        ``d`` decides an arrival that finds ``d`` requests queued
        (occupancy ``d / capacity``).  ``True`` admits and ``False``
        sheds without a draw; a float ``p`` draws ``u`` once from the
        tie-break stream and sheds iff ``u < p``.  These are the
        decisions and draws :meth:`admit_occupancy` makes at the same
        occupancies; the caller reports the counts
        (:meth:`record_serve`)."""
        if self._always_admits:
            return [True] * (capacity + 1)
        shed_probability = getattr(self.policy, "shed_probability", None)
        if shed_probability is None:
            raise TypeError(
                f"{type(self.policy).__name__} neither admits "
                "unconditionally nor has a shed_probability(occupancy)"
            )
        table: list[bool | float] = []
        for depth in range(capacity + 1):
            occupancy = depth / float(capacity)
            shed_p = shed_probability(occupancy)
            # Outside the coin band the policy decides without a draw.
            table.append(
                self.policy.admit_occupancy(occupancy, None)
                if shed_p is None else shed_p
            )
        return table

    def record_serve(self, offered: int, shed: int) -> None:
        """Set the counters from a serve decided by :meth:`depth_table`:
        ``offered`` arrivals, ``shed`` of them refused."""
        self.offered = offered
        self.shed = shed
        self.admitted = offered - shed
