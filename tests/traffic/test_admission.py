"""Admission-policy and controller tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fabric import ShardView
from repro.runtime import RuntimeRequest
from repro.traffic import (
    AcceptAll,
    AdmissionController,
    QueueBackpressure,
    TenantQuotas,
    TokenBucket,
    substream,
)
from repro.traffic.arrivals import ADMIT_RNG_DOMAIN


def view(shard: int, queued: int, capacity: int = 32) -> ShardView:
    return ShardView(
        shard=shard,
        num_cores=2,
        macs_per_step=8,
        routed=0,
        queued=queued,
        queue_capacity=capacity,
    )


def controller(policy, seed=0, stream=0) -> AdmissionController:
    return AdmissionController(policy, seed=seed, stream=stream)


class TestAcceptAll:
    def test_admits_everything_and_accounts(self):
        ctrl = controller(AcceptAll())
        for i in range(10):
            assert ctrl.admit(i * 1e-3, (view(0, 32),))
        assert (ctrl.offered, ctrl.admitted, ctrl.shed) == (10, 10, 0)
        assert ctrl.unconditional


class TestTokenBucket:
    def test_burst_then_starve(self):
        ctrl = controller(TokenBucket(rate_rps=10.0, burst=3.0))
        decisions = [ctrl.admit(0.0, ()) for _ in range(5)]
        assert decisions == [True, True, True, False, False]

    def test_refill_at_rate(self):
        ctrl = controller(TokenBucket(rate_rps=10.0, burst=1.0))
        assert ctrl.admit(0.0, ())
        assert not ctrl.admit(0.01, ())  # only 0.1 tokens accrued
        assert ctrl.admit(0.2, ())  # 2 tokens accrued, capped at 1

    def test_fast_path_threads_clock(self):
        """The occupancy fast path must still refill by wall clock."""
        ctrl = controller(TokenBucket(rate_rps=10.0, burst=1.0))
        assert ctrl.admit_occupancy(0.0, 0.0)
        assert not ctrl.admit_occupancy(0.01, 0.0)
        assert ctrl.admit_occupancy(0.5, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(rate_rps=0.0)
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(rate_rps=1.0, burst=0.5)


class TestQueueBackpressure:
    def test_watermark_regions(self):
        policy = QueueBackpressure(low=0.25, high=0.75)
        rng = substream(0, ADMIT_RNG_DOMAIN, 0)
        # Below low: always admit; at/above high: always shed.
        assert policy.admit(0.0, (view(0, 0), view(1, 0)), rng)
        assert policy.admit(0.0, (view(0, 7), view(1, 8)), rng)
        assert not policy.admit(0.0, (view(0, 24), view(1, 24)), rng)
        assert not policy.admit(0.0, (view(0, 32), view(1, 32)), rng)

    def test_ramp_sheds_proportionally(self):
        policy = QueueBackpressure(low=0.0, high=1.0)
        rng = substream(3, ADMIT_RNG_DOMAIN, 0)
        shed = sum(
            not policy.admit_occupancy(0.5, rng) for _ in range(4000)
        )
        assert shed / 4000 == pytest.approx(0.5, abs=0.05)

    def test_occupancy_aggregates_across_shards(self):
        policy = QueueBackpressure()
        occ = policy.occupancy((view(0, 8, 32), view(1, 0, 32)))
        assert occ == pytest.approx(8 / 64)
        assert policy.occupancy(()) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="watermarks"):
            QueueBackpressure(low=0.5, high=0.5)
        with pytest.raises(ValueError, match="watermarks"):
            QueueBackpressure(low=-0.1, high=0.5)


class TestController:
    def test_accounting_sums_to_offered(self):
        ctrl = controller(QueueBackpressure(low=0.0, high=0.5), seed=9)
        for i in range(500):
            ctrl.admit_occupancy(i * 1e-4, 0.25)
        assert ctrl.offered == 500
        assert ctrl.admitted + ctrl.shed == ctrl.offered
        assert 0 < ctrl.shed < 500

    def test_tie_breaks_reproducible_across_reset(self):
        ctrl = controller(QueueBackpressure(low=0.0, high=1.0), seed=4)
        first = [ctrl.admit_occupancy(0.0, 0.5) for _ in range(200)]
        ctrl.reset()
        assert (ctrl.offered, ctrl.admitted, ctrl.shed) == (0, 0, 0)
        second = [ctrl.admit_occupancy(0.0, 0.5) for _ in range(200)]
        assert first == second

    def test_fast_path_follows_the_policy_across_reset(self):
        """The occupancy hook is resolved in reset(), not per arrival:
        a controller re-pointed at another policy serves it after the
        reset every serve starts with."""
        ctrl = controller(AcceptAll())
        assert ctrl.admit_occupancy(0.0, 1.0)
        ctrl.policy = QueueBackpressure()
        ctrl.reset()
        assert not ctrl.admit_occupancy(0.0, 1.0)
        ctrl.policy = TokenBucket(rate_rps=10.0, burst=1.0)
        ctrl.reset()
        assert ctrl.admit_occupancy(0.0, 1.0)
        assert not ctrl.admit_occupancy(0.01, 0.0)

    def test_distinct_streams_decorrelate(self):
        a = controller(QueueBackpressure(low=0.0, high=1.0), stream=0)
        b = controller(QueueBackpressure(low=0.0, high=1.0), stream=1)
        da = [a.admit_occupancy(0.0, 0.5) for _ in range(200)]
        db = [b.admit_occupancy(0.0, 0.5) for _ in range(200)]
        assert da != db


def tenant_request(tenant: int, now_s: float) -> RuntimeRequest:
    return RuntimeRequest(
        request_id=0,
        model_id=tenant,
        arrival_s=now_s,
        data_levels=np.zeros(1),
    )


class TestTenantQuotas:
    """Per-tenant weighted fairness with surplus-only borrowing."""

    def quotas(self, **overrides) -> TenantQuotas:
        config = dict(
            rate_rps=4000.0, shares={1: 3.0, 2: 1.0}, burst_s=1e-3
        )
        config.update(overrides)
        return TenantQuotas(**config)

    def offer(self, ctrl, tenant, now_s):
        return ctrl.admit(now_s, (), request=tenant_request(tenant, now_s))

    def test_configuration_validated(self):
        with pytest.raises(ValueError, match="positive"):
            self.quotas(rate_rps=0.0)
        with pytest.raises(ValueError, match="at least one"):
            self.quotas(shares={})
        with pytest.raises(ValueError, match="positive"):
            self.quotas(shares={1: 0.0})
        with pytest.raises(ValueError, match="positive"):
            self.quotas(burst_s=0.0)

    def test_quota_is_an_allow_list(self):
        ctrl = controller(self.quotas())
        assert not self.offer(ctrl, 7, 0.0)
        assert (ctrl.offered, ctrl.shed) == (1, 1)
        assert 7 not in ctrl.policy.tenants

    def test_weighted_fairness_under_contention(self):
        """Both tenants offer at 2x their share; admits split 3:1."""
        ctrl = controller(self.quotas())
        dt = 1.0 / 8000.0
        for i in range(1600):
            now = i * dt
            self.offer(ctrl, 1, now)
            self.offer(ctrl, 2, now)
        t1 = ctrl.policy.tenants[1]
        t2 = ctrl.policy.tenants[2]
        assert t1["offered"] == t2["offered"] == 1600
        ratio = t1["admitted"] / t2["admitted"]
        assert 2.5 < ratio < 3.5
        assert t1["shed"] > 0 and t2["shed"] > 0
        assert ctrl.admitted + ctrl.shed == ctrl.offered

    def test_idle_neighbor_surplus_is_borrowed(self):
        """With tenant 2 silent, tenant 1 runs past its 75% share on
        genuine surplus — work-conserving, never wasted."""
        ctrl = controller(self.quotas())
        dt = 1.0 / 4000.0
        window = 1600
        for i in range(window):
            self.offer(ctrl, 1, i * dt)
        t1 = ctrl.policy.tenants[1]
        assert t1["borrowed"] > 100
        # Own share alone would cap near 75% of the window.
        assert t1["admitted"] > 0.9 * window

    def test_borrowing_never_drains_banked_quota(self):
        """Tenant 2 goes quiet, tenant 1 borrows the surplus; when
        tenant 2 returns, its banked burst is still there."""
        ctrl = controller(self.quotas())
        dt = 1.0 / 4000.0
        for i in range(400):
            self.offer(ctrl, 1, i * dt)
        comeback = 400 * dt
        assert self.offer(ctrl, 2, comeback)
        assert ctrl.policy.tenants[2]["borrowed"] == 0

    def test_decisions_deterministic_across_reset(self):
        def run(ctrl):
            out = []
            for i in range(800):
                now = i * 1.7e-4
                out.append(self.offer(ctrl, 1 + i % 3, now))
            return out

        ctrl = controller(self.quotas(shares={1: 2.0, 2: 1.0, 3: 1.0}))
        first = run(ctrl)
        ctrl.reset()
        second = run(ctrl)
        assert first == second
        assert any(first) and not all(first)

    def test_requires_a_request_aware_gateway(self):
        quotas = self.quotas()
        with pytest.raises(TypeError, match="request"):
            quotas.admit(0.0, (), None)
        ctrl = controller(quotas)
        with pytest.raises(TypeError, match="request"):
            ctrl.admit(0.0, ())

    def test_custom_tenant_key(self):
        quotas = TenantQuotas(
            rate_rps=1000.0,
            shares={"gold": 1.0},
            tenant_of=lambda request: "gold",
        )
        ctrl = controller(quotas)
        assert self.offer(ctrl, 99, 0.0)
        assert quotas.tenants["gold"]["admitted"] == 1


class TestShedAdmitted:
    def test_reclassifies_the_last_admit(self):
        ctrl = controller(AcceptAll())
        assert ctrl.admit(0.0, ())
        ctrl.shed_admitted()
        assert (ctrl.offered, ctrl.admitted, ctrl.shed) == (1, 0, 1)

    def test_refuses_with_nothing_admitted(self):
        ctrl = controller(AcceptAll())
        with pytest.raises(ValueError, match="no admitted"):
            ctrl.shed_admitted()
