"""Admission control in front of the serving fabric.

An open-loop workload does not stop offering requests when the fleet
saturates — something must decide, request by request, whether to admit
or shed.  Admission is the *first* line of defense, ahead of the shard
router and the per-model queues: a shed request costs nothing
downstream, while an admitted-then-dropped request has already crossed
the NIC.  Sheds are charged to the global accounting invariant
(``served + dropped + failed + unfinished == offered``) as admission
drops, never lost silently.

Three policies cover the design space:

* :class:`AcceptAll` — the §9 baseline: infinite-buffer optimism.
  Under overload the queues fill, every admitted request pays the full
  queue delay, and goodput (SLO-compliant completions) collapses.
* :class:`TokenBucket` — open-loop rate limiting: admit while tokens
  last, refilled at a configured rate with a burst allowance.  Shields
  the fleet from sustained overload but is blind to what the fleet is
  actually doing.
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
    "TokenBucket",
    "QueueBackpressure",
    "TenantQuotas",
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


class TokenBucket:
    """Classic token-bucket rate limiting (open-loop).

    ``rate_rps`` tokens per second accrue up to ``burst`` tokens; each
    admitted request spends one.  Deterministic — no tie-break draws.
    """

    unconditional = False

    def __init__(self, rate_rps: float, burst: float = 32.0) -> None:
        if rate_rps <= 0:
            raise ValueError("token rate must be positive")
        if burst < 1:
            raise ValueError("burst must allow at least one token")
        self.rate_rps = rate_rps
        self.burst = float(burst)
        self.reset()

    def reset(self) -> None:
        self._tokens = self.burst
        self._last_s = 0.0

    def admit(self, now_s, shards, rng) -> bool:
        if now_s > self._last_s:
            self._tokens = min(
                self.burst,
                self._tokens + (now_s - self._last_s) * self.rate_rps,
            )
            self._last_s = now_s
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


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
        capacity = sum(v.queue_capacity for v in shards)
        if capacity <= 0:
            return 0.0
        return sum(v.queued for v in shards) / capacity

    def admit_occupancy(
        self, occupancy: float, rng: np.random.Generator
    ) -> bool:
        """The decision given a precomputed occupancy (fast path —
        the fleet engine maintains running depth counters and skips
        building views)."""
        if occupancy < self.low:
            return True
        if occupancy >= self.high:
            return False
        shed_p = (occupancy - self.low) / (self.high - self.low)
        return float(rng.random()) >= shed_p

    def admit(self, now_s, shards, rng) -> bool:
        return self.admit_occupancy(self.occupancy(shards), rng)


class TenantQuotas:
    """Per-tenant admission quotas with weighted fairness.

    Multi-tenant serving needs two guarantees the fleet-wide policies
    cannot give: a tenant's burst must not starve its neighbors, and a
    tenant's unused allocation should not go to waste while others
    queue.  This policy keeps one token bucket per tenant, refilled at
    ``share x rate_rps`` (shares normalized over the configured
    tenants), under one *global* bucket refilled at ``rate_rps``:

    * a request is admitted from its tenant's own bucket when a token
      is there — the guaranteed share;
    * otherwise it may **borrow**, but only from genuine surplus: the
      global bucket must hold at least one token *more than the sum
      of all tenant balances*, i.e. refill the other tenants banked
      but have not spent and cannot bank further.  Borrowing is
      work-conserving without ever dipping into a neighbor's saved
      quota.

    ``tenant_of`` maps a request to its tenant key (default: the
    request's model id — "one tenant per model" is the zoo's natural
    multi-tenancy).  Requests from unconfigured tenants are shed:
    quotas are an allow-list.  Deterministic — no tie-break draws.
    """

    unconditional = False

    def __init__(
        self,
        rate_rps: float,
        shares: dict[object, float],
        burst_s: float = 1e-3,
        tenant_of=None,
    ) -> None:
        if rate_rps <= 0:
            raise ValueError("quota rate must be positive")
        if not shares:
            raise ValueError("quotas need at least one tenant share")
        if any(share <= 0 for share in shares.values()):
            raise ValueError("tenant shares must be positive")
        if burst_s <= 0:
            raise ValueError("burst window must be positive")
        self.rate_rps = rate_rps
        total = sum(shares.values())
        self.shares: dict[object, float] = {
            tenant: share / total for tenant, share in shares.items()
        }
        #: Burst allowance expressed as seconds of each bucket's own
        #: refill rate, so every tenant gets the same burst *duration*
        #: regardless of share (min 1 token so any tenant can ever
        #: admit).
        self.burst_s = burst_s
        self.tenant_of = (
            tenant_of if tenant_of is not None
            else lambda request: request.model_id
        )
        self.reset()

    def reset(self) -> None:
        self._last_s = 0.0
        self._global = self._global_burst()
        self._tokens = {
            tenant: self._tenant_burst(tenant)
            for tenant in self.shares
        }
        #: Per-tenant offered/admitted/shed/borrowed counters.
        self.tenants: dict[object, dict[str, int]] = {
            tenant: {
                "offered": 0, "admitted": 0, "shed": 0, "borrowed": 0
            }
            for tenant in self.shares
        }

    def _global_burst(self) -> float:
        return max(self.rate_rps * self.burst_s, 1.0)

    def _tenant_burst(self, tenant) -> float:
        return max(
            self.shares[tenant] * self.rate_rps * self.burst_s, 1.0
        )

    def _refill(self, now_s: float) -> None:
        if now_s <= self._last_s:
            return
        elapsed = now_s - self._last_s
        self._last_s = now_s
        self._global = min(
            self._global_burst(),
            self._global + elapsed * self.rate_rps,
        )
        for tenant, share in self.shares.items():
            self._tokens[tenant] = min(
                self._tenant_burst(tenant),
                self._tokens[tenant] + elapsed * share * self.rate_rps,
            )

    def admit_request(
        self,
        now_s: float,
        request,
        shards: Sequence[ShardView],
        rng: np.random.Generator,
    ) -> bool:
        tenant = self.tenant_of(request)
        counters = self.tenants.get(tenant)
        if counters is None:
            return False  # unconfigured tenant: quota is an allow-list
        counters["offered"] += 1
        self._refill(now_s)
        if self._global < 1.0:
            counters["shed"] += 1
            return False
        if self._tokens[tenant] >= 1.0:
            self._tokens[tenant] -= 1.0
            self._global -= 1.0
            counters["admitted"] += 1
            return True
        banked = sum(self._tokens.values())
        if self._global - banked >= 1.0:
            # Genuine surplus: spend global headroom no tenant has
            # banked — work-conserving borrowing.
            self._global -= 1.0
            counters["admitted"] += 1
            counters["borrowed"] += 1
            return True
        counters["shed"] += 1
        return False

    def admit(self, now_s, shards, rng) -> bool:
        raise TypeError(
            "TenantQuotas decides per request; serve through a "
            "gateway that passes request=... to AdmissionController"
            ".admit"
        )


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

    def admit(
        self,
        now_s: float,
        shards: Sequence[ShardView],
        request=None,
    ) -> bool:
        """Account and delegate one admit/shed decision.

        Request-aware policies (per-tenant quotas) receive the request
        via their ``admit_request`` hook; classic fleet-level policies
        ignore it.
        """
        self.offered += 1
        per_request = getattr(self.policy, "admit_request", None)
        if per_request is not None and request is not None:
            ok = per_request(now_s, request, shards, self._rng)
        else:
            ok = self.policy.admit(now_s, shards, self._rng)
        if ok:
            self.admitted += 1
        else:
            self.shed += 1
        return ok

    def shed_admitted(self, reason: str = "deadline") -> None:
        """Reclassify the most recent admit as a shed.

        The gateway's deadline- and energy-aware paths admit first
        (the policy and its token accounting must observe the request)
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
        """Fast-path decision from a precomputed queue occupancy.

        Policies that only need occupancy (backpressure) skip view
        construction; policies that only need the clock (token bucket)
        get ``now_s`` with an empty view tuple.
        """
        self.offered += 1
        if self._always_admits:
            ok = True
        elif self._policy_by_occupancy is not None:
            ok = self._policy_by_occupancy(occupancy, self._rng)
        else:
            ok = self.policy.admit(now_s, (), self._rng)
        if ok:
            self.admitted += 1
        else:
            self.shed += 1
        return ok
