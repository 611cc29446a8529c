"""Failover routing, the recovery pass, and extended accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ComputationDAG, LayerTask, LightningDatapath
from repro.core.stats import ServerStats
from repro.fabric import (
    FAILOVER_DROP,
    Fabric,
    FabricResult,
    FailoverRouter,
    HashShardRouter,
    ModelPlacement,
    ShardSpec,
    ShardView,
    kill_shard,
)
from repro.faults import (
    BiasRelockController,
    CalibrationWatchdog,
    FaultSchedule,
    RetryPolicy,
)
from repro.photonics import BehavioralCore, CoreArchitecture, NoiselessModel
from repro.runtime import RuntimeRequest


def make_dag(model_id: int, seed: int = 5) -> ComputationDAG:
    rng = np.random.default_rng(seed)
    return ComputationDAG(
        model_id,
        f"model-{model_id}",
        [
            LayerTask(
                name="fc1", kind="dense", input_size=12, output_size=6,
                weights_levels=rng.integers(-200, 201, (6, 12)).astype(
                    float
                ),
                nonlinearity="relu", requant_divisor=12.0,
            ),
            LayerTask(
                name="fc2", kind="dense", input_size=6, output_size=3,
                weights_levels=rng.integers(-200, 201, (3, 6)).astype(
                    float
                ),
                depends_on=("fc1",),
            ),
        ],
    )


def factory(wavelengths: int = 2):
    def build(core: int) -> LightningDatapath:
        return LightningDatapath(
            core=BehavioralCore(
                architecture=CoreArchitecture(
                    accumulation_wavelengths=wavelengths
                ),
                noise=NoiselessModel(),
            ),
            seed=core,
        )

    return build


def spec(num_cores: int = 1, **kwargs) -> ShardSpec:
    return ShardSpec(
        num_cores=num_cores, datapath_factory=factory(), **kwargs
    )


def trace(count=40, spacing_s=2e-6, models=(1,), seed=1):
    rng = np.random.default_rng(seed)
    return [
        RuntimeRequest(
            request_id=i,
            model_id=models[i % len(models)],
            arrival_s=i * spacing_s,
            data_levels=rng.integers(0, 256, size=12).astype(
                np.float64
            ),
        )
        for i in range(count)
    ]


def view(
    shard: int,
    routed: int = 0,
    queued: int = 0,
    capacity: int = 10,
    usable: int | None = None,
) -> ShardView:
    return ShardView(
        shard=shard,
        num_cores=2,
        macs_per_step=8,
        routed=routed,
        queued=queued,
        queue_capacity=capacity,
        usable_cores=usable,
    )


def request(model_id: int = 1, arrival_s: float = 0.0) -> RuntimeRequest:
    return RuntimeRequest(
        request_id=0,
        model_id=model_id,
        arrival_s=arrival_s,
        data_levels=np.zeros(12),
    )


class TestFailoverRouter:
    """Pure routing semantics over hand-built views (no placement:
    every shard is a replica, making this a health/queue layer)."""

    def test_honors_calm_inner_pick(self):
        router = FailoverRouter()
        views = (view(0, routed=5), view(1, routed=0))
        assert router.route(request(), views) == 1
        assert router.failovers == 0

    def test_dead_primary_fails_over(self):
        router = FailoverRouter()
        views = (view(0, usable=0), view(1, usable=2))
        assert router.route(request(), views) == 1
        assert router.failovers == 1

    def test_watermark_diverts_to_calm_replica(self):
        router = FailoverRouter(queue_watermark=0.5)
        views = (
            view(0, queued=6, capacity=10),
            view(1, routed=3, queued=1, capacity=10),
        )
        assert router.route(request(), views) == 1
        assert router.failovers == 1

    def test_all_backlogged_stays_home(self):
        """Every replica past the watermark: shuffling load between
        equally-drowned shards buys nothing, so the primary keeps it."""
        router = FailoverRouter(queue_watermark=0.5)
        views = (
            view(0, queued=8, capacity=10),
            view(1, routed=3, queued=9, capacity=10),
        )
        assert router.route(request(), views) == 0
        assert router.failovers == 0

    def test_backlogged_but_alive_beats_dead(self):
        router = FailoverRouter(queue_watermark=0.5)
        views = (view(0, usable=0), view(1, queued=9, capacity=10))
        assert router.route(request(), views) == 1

    def test_all_dead_drops(self):
        router = FailoverRouter()
        views = (view(0, usable=0), view(1, usable=0))
        assert router.route(request(), views) == FAILOVER_DROP
        assert router.dropped == 1

    def test_reset_clears_counters(self):
        router = FailoverRouter()
        router.route(request(), (view(0, usable=0), view(1)))
        router.route(
            request(), (view(0, usable=0), view(1, usable=0))
        )
        assert (router.failovers, router.dropped) == (1, 1)
        router.reset()
        assert (router.failovers, router.dropped) == (0, 0)

    def test_watermark_validated(self):
        with pytest.raises(ValueError, match="watermark"):
            FailoverRouter(queue_watermark=0.0)

    def test_empty_views_rejected(self):
        with pytest.raises(ValueError, match="no shards"):
            FailoverRouter().route(request(), ())


class TestPlacementConstrainedRouting:
    def test_requests_stay_on_home_shards(self):
        fabric = Fabric(
            [spec() for _ in range(4)],
            router=FailoverRouter(),
            placement=ModelPlacement(replicas=2),
        )
        homes = set(fabric.deploy(make_dag(1)))
        result = fabric.serve_trace(trace(count=24))
        assert set(result.routed) <= homes
        assert result.served == 24
        assert result.accounted()

    def test_inner_pick_outside_replicas_is_overridden(self):
        # Hash routing would spread model 1 anywhere; the failover
        # wrapper constrains it to the placement's replicas.
        fabric = Fabric(
            [spec() for _ in range(4)],
            router=FailoverRouter(inner=HashShardRouter()),
            placement=ModelPlacement(replicas=2),
        )
        homes = set(fabric.deploy(make_dag(1)))
        result = fabric.serve_trace(trace(count=24))
        assert set(result.routed) <= homes


class TestRecoveryPass:
    def crash_fabric(self):
        fabric = Fabric(
            [spec(), spec()],
            placement=ModelPlacement(replicas=2),
        )
        fabric.deploy(make_dag(1))
        return fabric

    def test_stranded_requests_move_to_the_replica(self):
        fabric = self.crash_fabric()
        requests = trace(count=40)
        horizon = requests[-1].arrival_s
        # Kill shard 1's only core halfway: its later requests hit the
        # "no usable core" fate and must re-serve on shard 0.
        schedule = FaultSchedule(seed=3).core_crash(
            horizon / 2, core=1
        )
        result = fabric.serve_trace(
            requests,
            fault_schedule=schedule,
            retry_policy=RetryPolicy(max_retries=1, backoff_s=1e-6),
        )
        assert result.failed == 0
        assert result.failovers > 0
        assert result.recovery_results[0] is not None
        assert result.recovery_results[1] is None
        assert result.accounted()
        assert result.served == 40
        served_ids = {
            r.request.request_id for r in result.records()
        }
        assert served_ids == {r.request_id for r in requests}

    @pytest.mark.parametrize("wire_window", [False, True])
    def test_a_wire_window_does_not_switch_recovery_off(self, wire_window):
        """Wire faults are ingress-side: one in the schedule must not
        make every replica look faulty to the recovery pass."""
        fabric = Fabric(
            [spec(), spec(), spec()],
            router=FailoverRouter(),
            placement=ModelPlacement(replicas=2),
        )
        homes = fabric.deploy(make_dag(1))
        requests = trace(count=120)
        schedule = kill_shard(
            FaultSchedule(seed=3), fabric, homes[0], requests[40].arrival_s
        )
        if wire_window:
            schedule.frame_drop(at_s=0.0, duration_s=1e-6, probability=0.0)
        result = fabric.serve_trace(requests, fault_schedule=schedule)
        assert (result.served, result.failed) == (120, 0)
        assert result.failovers == 40
        assert result.recovery_results[homes[1]].served == 40
        assert result.accounted()

    def test_recovered_records_carry_the_replica_core(self):
        fabric = self.crash_fabric()
        requests = trace(count=40)
        schedule = FaultSchedule(seed=3).core_crash(
            requests[-1].arrival_s / 2, core=1
        )
        result = fabric.serve_trace(
            requests, fault_schedule=schedule
        )
        # Shard 1 is global core 1; every record must come off core 0
        # or a recovery serve on core 0 — none off the dead core after
        # its own failures were moved.
        recovery = result.recovery_results[0]
        assert recovery is not None
        assert all(r.core == 0 for r in recovery.records)
        assert fabric.stats.failed == 0

    def test_without_placement_failures_stay_failed(self):
        fabric = Fabric([spec(), spec()])
        fabric.deploy(make_dag(1))
        requests = trace(count=40)
        schedule = FaultSchedule(seed=3).core_crash(
            requests[-1].arrival_s / 2, core=1
        )
        result = fabric.serve_trace(
            requests, fault_schedule=schedule
        )
        assert result.failed > 0
        assert result.recovery_results == (None, None)
        assert result.accounted()

    def test_no_recovery_when_replica_also_scheduled_faulty(self):
        fabric = self.crash_fabric()
        requests = trace(count=40)
        horizon = requests[-1].arrival_s
        schedule = (
            FaultSchedule(seed=3)
            .core_crash(horizon / 2, core=1)
            .core_crash(horizon * 2, core=0)
        )
        # Shard 0 has its own scheduled fault (even if it fires after
        # the horizon), so it is not a safe recovery target.
        result = fabric.serve_trace(
            requests, fault_schedule=schedule
        )
        assert result.failed > 0
        assert result.recovery_results == (None, None)
        assert result.accounted()


class TestQuarantineFailover:
    def test_relock_exhaustion_reroutes_instead_of_losing(self):
        """A drift too fast to hold exhausts the relock budget and
        permanently quarantines shard 1's only core mid-trace; the
        recovery pass must move the stranded requests to the replica
        on shard 0 — permanent quarantine is re-routing, not loss."""
        fabric = Fabric(
            [spec(), spec()],
            placement=ModelPlacement(replicas=2),
        )
        fabric.deploy(make_dag(1))
        requests = trace(count=80, spacing_s=2e-6)
        schedule = FaultSchedule(seed=5).mzm_bias_drift(
            at_s=20e-6, core=1, volts_per_s=2e5
        )
        watchdog = CalibrationWatchdog(
            interval_s=20e-6,
            relock=BiasRelockController(max_attempts=2),
        )
        result = fabric.serve_trace(
            requests,
            fault_schedule=schedule,
            watchdog=watchdog,
            retry_policy=RetryPolicy(max_retries=1, backoff_s=1e-6),
        )
        health = fabric.shards[1].health[0]
        assert not health.usable
        assert health.relocks == 2
        assert result.failed == 0
        assert result.failovers > 0
        assert result.recovery_results[0] is not None
        assert result.accounted()
        served_ids = {
            r.request.request_id for r in result.records()
        }
        dropped_ids = {
            r.request_id
            for shard in result.shard_results
            if shard is not None
            for r in shard.dropped
        }
        assert served_ids | dropped_ids == {
            r.request_id for r in requests
        }


def synthetic_result(**overrides) -> FabricResult:
    """A hand-built result for accounting-identity edge cases."""
    fabric = Fabric([spec()])
    fabric.deploy(make_dag(1))
    base = fabric.serve_trace(trace(count=4))
    fields = dict(
        shard_results=base.shard_results,
        routed=base.routed,
        stats=ServerStats(),
        offered=base.offered,
        total_cores=base.total_cores,
        core_offsets=base.core_offsets,
    )
    fields.update(overrides)
    return FabricResult(**fields)


class TestExtendedAccounting:
    """Satellite regression: `accounted` must treat every term of
    ``served+dropped+failed+unfinished+shed+failed_over == offered``
    symmetrically, and bound the subset annotations."""

    def test_shed_and_failed_over_enter_symmetrically(self):
        assert synthetic_result(offered=6, shed=2).accounted()
        assert synthetic_result(offered=6, failed_over=2).accounted()
        assert synthetic_result(
            offered=8, shed=2, failed_over=2
        ).accounted()
        assert not synthetic_result(offered=6).accounted()

    def test_negative_terms_rejected(self):
        assert not synthetic_result(offered=2, shed=-2).accounted()
        assert not synthetic_result(
            offered=2, failed_over=-2
        ).accounted()
        assert not synthetic_result(stolen=-1).accounted()
        assert not synthetic_result(failovers=-1).accounted()

    def test_stolen_bounded_by_served(self):
        assert synthetic_result(stolen=4).accounted()
        assert not synthetic_result(stolen=5).accounted()

    def test_serve_routed_validates_upstream_accounting(self):
        fabric = Fabric([spec()])
        fabric.deploy(make_dag(1))
        requests = trace(count=4)
        routed = [0] * 4
        with pytest.raises(ValueError, match="negative"):
            fabric.serve_routed(requests, routed, shed=-1)
        with pytest.raises(ValueError, match="exceeds"):
            fabric.serve_routed(requests, routed, stolen=5)
        with pytest.raises(ValueError, match="inconsistent"):
            fabric.serve_routed(requests, routed, offered=9, shed=1)

    def test_serve_routed_threads_failover_terms_through(self):
        fabric = Fabric([spec()])
        fabric.deploy(make_dag(1))
        result = fabric.serve_routed(
            trace(count=4), [0] * 4, shed=1, failed_over=2
        )
        assert result.offered == 7
        assert result.shed == 1
        assert result.failed_over == 2
        assert result.accounted()
        assert result.goodput == pytest.approx(4 / 7)
