"""End-to-end tests for the sharded serving fabric."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ComputationDAG, LayerTask, LightningDatapath
from repro.fabric import (
    Fabric,
    HashShardRouter,
    LeastLoadedShardRouter,
    OutageBook,
    ShardSpec,
    SwitchShardRouter,
)
from repro.faults import (
    BiasRelockController,
    CalibrationWatchdog,
    FaultSchedule,
)
from repro.perf.bench import lenet_class_dag
from repro.photonics import BehavioralCore, CoreArchitecture, NoiselessModel
from repro.runtime import (
    Cluster,
    HealthAwareScheduler,
    RuntimeRequest,
    poisson_trace,
)


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


def factory(wavelengths: int):
    """A datapath factory for one shard's core architecture."""

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


def spec(num_cores: int, wavelengths: int = 2, **kwargs) -> ShardSpec:
    return ShardSpec(
        num_cores=num_cores,
        datapath_factory=factory(wavelengths),
        **kwargs,
    )


def trace(count=40, spacing_s=2e-6, models=(1,), seed=1):
    rng = np.random.default_rng(seed)
    return [
        RuntimeRequest(
            request_id=i,
            model_id=models[i % len(models)],
            arrival_s=i * spacing_s,
            data_levels=rng.integers(0, 256, size=12).astype(np.float64),
        )
        for i in range(count)
    ]


class TestConstruction:
    def test_core_namespace(self):
        fabric = Fabric([spec(2), spec(3), spec(1)])
        assert fabric.num_shards == 3
        assert fabric.total_cores == 6
        assert fabric.core_offsets == (0, 2, 5)
        assert fabric.shard_of_core(0) == (0, 0)
        assert fabric.shard_of_core(4) == (1, 2)
        assert fabric.shard_of_core(5) == (2, 0)

    def test_out_of_range_core_rejected(self):
        fabric = Fabric([spec(2)])
        with pytest.raises(ValueError, match="out of range"):
            fabric.shard_of_core(2)

    def test_rejects_no_shards(self):
        with pytest.raises(ValueError, match="at least one"):
            Fabric([])

    def test_accepts_prebuilt_clusters(self):
        cluster = Cluster(num_cores=2, datapath_factory=factory(2))
        fabric = Fabric([cluster, spec(1)])
        assert fabric.shards[0] is cluster
        assert fabric.total_cores == 3

    def test_default_router_is_least_loaded(self):
        assert isinstance(Fabric([spec(1)]).router, LeastLoadedShardRouter)


class TestServing:
    def test_invariant_and_merged_stats(self):
        fabric = Fabric([spec(2), spec(2)])
        fabric.deploy(make_dag(1))
        result = fabric.serve_trace(trace(count=40))
        assert result.offered == 40
        assert result.accounted()
        assert result.served == 40
        assert result.stats.served == 40
        assert result.stats.per_model_served == {1: 40}
        # Both shards took work under the least-loaded router.
        assert set(result.routed) == {0, 1}

    def test_records_remap_to_global_cores(self):
        fabric = Fabric([spec(2), spec(2)])
        fabric.deploy(make_dag(1))
        result = fabric.serve_trace(trace(count=40))
        cores = {r.core for r in result.records()}
        assert cores <= {0, 1, 2, 3}
        assert max(cores) >= 2  # shard 1's cores appear as 2..3
        finishes = [r.finish_s for r in result.records()]
        assert finishes == sorted(finishes)

    def test_heterogeneous_shards_serve_one_model(self):
        """Shards with different wavelength counts (hence different
        plan geometries) each compile their own plan and agree on
        noiseless predictions."""
        fabric = Fabric([spec(2, wavelengths=8), spec(2, wavelengths=1)])
        fabric.deploy(make_dag(1))
        result = fabric.serve_trace(trace(count=30))
        assert result.accounted()
        by_request = {}
        for record in result.records():
            by_request.setdefault(
                record.request.request_id, record.prediction
            )
        # Noiseless photonics: both architectures compute the same
        # digital answer for the same payload.
        single = Cluster(num_cores=1, datapath_factory=factory(2))
        single.deploy(make_dag(1))
        reference = {
            r.request.request_id: r.prediction
            for r in single.serve_trace(trace(count=30)).records
        }
        assert by_request == reference

    def test_empty_shards_are_skipped(self):
        fabric = Fabric(
            [spec(2), spec(2)], router=HashShardRouter()
        )
        fabric.deploy(make_dag(2))
        # Model 2 hashes to shard 0 of 2; shard 1 never serves.
        result = fabric.serve_trace(trace(count=10, models=(2,)))
        assert result.shard_results[1] is None
        assert result.routed == (0,) * 10
        assert result.accounted()

    def test_switch_router_keeps_model_affinity(self):
        fabric = Fabric(
            [spec(2), spec(2)],
            router=SwitchShardRouter(num_shards=2, spill_factor=10.0),
        )
        fabric.deploy(make_dag(1))
        fabric.deploy(make_dag(2))
        result = fabric.serve_trace(trace(count=40, models=(1, 2)))
        # Sticky affinity: each model stays on the shard it learned.
        by_model = {1: set(), 2: set()}
        for req, shard in zip(
            sorted(trace(count=40, models=(1, 2)), key=lambda r: r.arrival_s),
            result.routed,
        ):
            by_model[req.model_id].add(shard)
        assert all(len(shards) == 1 for shards in by_model.values())
        assert by_model[1] != by_model[2]

    def test_replay_is_deterministic(self):
        def run():
            fabric = Fabric(
                [spec(2), spec(2)],
                router=SwitchShardRouter(num_shards=2),
            )
            fabric.deploy(make_dag(1))
            fabric.deploy(make_dag(2))
            result = fabric.serve_trace(trace(count=40, models=(1, 2)))
            return (
                result.routed,
                [
                    (r.request.request_id, r.core, r.finish_s, r.prediction)
                    for r in result.records()
                ],
            )

        assert run() == run()

    def test_empty_trace_rejected(self):
        fabric = Fabric([spec(1)])
        with pytest.raises(ValueError, match="empty"):
            fabric.serve_trace([])

    def test_bad_router_target_rejected(self):
        class Wild:
            def route(self, request, shards):
                return 5

            def reset(self):
                pass

        fabric = Fabric([spec(1)], router=Wild())
        fabric.deploy(make_dag(1))
        with pytest.raises(ValueError, match="router returned"):
            fabric.serve_trace(trace(count=2))


class TestFaultSplitting:
    def test_global_core_faults_land_on_owning_shard(self):
        fabric = Fabric([spec(2), spec(2)])
        fabric.deploy(make_dag(1))
        # Global core 3 = shard 1, local core 1.
        schedule = FaultSchedule(seed=4).mzm_bias_drift(
            at_s=1e-6, core=3, volts_per_s=2e5
        )
        result = fabric.serve_trace(
            trace(count=60),
            fault_schedule=schedule,
            watchdog=CalibrationWatchdog(interval_s=20e-6),
        )
        assert result.accounted()
        assert result.stats.quarantines == 1
        # Merged health is keyed by *global* core index.
        assert result.stats.core_health[3] == "quarantined"
        assert fabric.shards[1].health[1].state == "quarantined"
        assert fabric.shards[0].health[0].state == "healthy"

    def test_out_of_range_global_core_never_reaches_a_shard(self):
        fabric = Fabric([spec(2), spec(2)])
        fabric.deploy(make_dag(1))
        schedule = FaultSchedule(seed=4).core_crash(at_s=1e-6, core=4)
        with pytest.raises(ValueError, match="core 4 out of range"):
            fabric.serve_trace(trace(count=8), fault_schedule=schedule)
        for shard in fabric.shards:
            assert shard.stats.offered == 0
            assert shard.nic_counters.frames_seen == 0

    def test_split_schedules_stay_inside_their_shard(self):
        # Uneven shards: every global core maps to a local index its
        # shard has, so a shard's own range check never fires.
        fabric = Fabric([spec(1), spec(3)])
        fabric.deploy(make_dag(1))
        schedule = FaultSchedule(seed=4)
        for core in range(fabric.total_cores):
            schedule.core_stall(
                at_s=(core + 1) * 1e-6, core=core, duration_s=2e-6
            )
        split = OutageBook.from_schedule(fabric, schedule).schedules
        assert [[e.core for e in s.events] for s in split] == [
            [0], [0, 1, 2]
        ]
        result = fabric.serve_trace(trace(count=30), fault_schedule=schedule)
        assert result.accounted()
        assert result.served == 30
        # The wire is ingress-side: a shard with only wire faults in
        # the global schedule has no schedule of its own.
        wired = (
            FaultSchedule(seed=4)
            .frame_drop(at_s=0.0, duration_s=1e-3, probability=0.5)
            .core_stall(at_s=1e-6, core=1, duration_s=2e-6)
        )
        split = OutageBook.from_schedule(fabric, wired).schedules
        assert split[0] is None
        assert [e.kind for e in split[1].events] == ["core_stall"]

    def test_relock_under_fabric(self):
        fabric = Fabric(
            [spec(2), spec(2)],
            router=LeastLoadedShardRouter(),
        )
        fabric.deploy(make_dag(1))
        schedule = FaultSchedule(seed=4).mzm_bias_drift(
            at_s=1e-6, core=2, volts_per_s=3000.0
        )
        watchdog = CalibrationWatchdog(
            interval_s=100e-6, relock=BiasRelockController()
        )
        result = fabric.serve_trace(
            trace(count=75),
            fault_schedule=schedule,
            watchdog=watchdog,
        )
        assert result.accounted()
        assert result.stats.relocks == 1
        assert result.stats.core_health[2] == "healthy"

    def test_wire_faults_replicate_without_error(self):
        fabric = Fabric([spec(1), spec(1)])
        fabric.deploy(make_dag(1))
        schedule = FaultSchedule(seed=2).frame_drop(
            at_s=0.0, duration_s=1e-3, probability=0.5
        )
        # serve_trace ignores ingress-side faults.
        result = fabric.serve_trace(
            trace(count=10), fault_schedule=schedule
        )
        assert result.served == 10


class TestHealthAwareFabric:
    def test_health_aware_shards_avoid_drifting_core(self):
        """With per-shard HealthAwareSchedulers, a core whose probe
        error crosses the soft threshold stops receiving work even
        before quarantine."""
        fabric = Fabric(
            [
                spec(
                    2,
                    scheduler_factory=lambda n: HealthAwareScheduler(n),
                ),
                spec(
                    2,
                    scheduler_factory=lambda n: HealthAwareScheduler(n),
                ),
            ]
        )
        fabric.deploy(make_dag(1))
        result = fabric.serve_trace(trace(count=40))
        assert result.accounted()
        assert result.served == 40


class TestShardConcurrency:
    """``concurrency="threads"`` is pure wall-clock mechanism.

    Each shard serves its own sub-trace on its own virtual clock, so
    running the shard serves on threads instead of a loop must not
    change one routed bit — records, horizons, merged stats, or the
    recovery pass included.
    """

    @staticmethod
    def assert_identical(a, b) -> None:
        assert a.routed == b.routed
        assert a.stats.summary() == b.stats.summary()
        for ra, rb in zip(
            a.shard_results + a.recovery_results,
            b.shard_results + b.recovery_results,
        ):
            assert (ra is None) == (rb is None)
            if ra is None:
                continue
            assert ra.horizon_s == rb.horizon_s
            assert ra.busy_seconds == rb.busy_seconds
            assert [
                (r.request.request_id, r.core, r.prediction, r.finish_s)
                for r in ra.records
            ] == [
                (r.request.request_id, r.core, r.prediction, r.finish_s)
                for r in rb.records
            ]

    def serve_both(self, shard_cores, count=48, fault_schedule=None,
                   make_placement=None, **serve_kwargs):
        results = {}
        for concurrency in ("threads", "serial"):
            fabric = Fabric(
                [spec(cores) for cores in shard_cores],
                # A placement binds to one fabric, so each mode gets
                # an identically configured fresh one.
                placement=make_placement() if make_placement else None,
                concurrency=concurrency,
            )
            fabric.deploy(make_dag(1))
            results[concurrency] = fabric.serve_trace(
                trace(count=count),
                fault_schedule=fault_schedule,
                **serve_kwargs,
            )
        return results["threads"], results["serial"]

    def test_clean_trace_bit_identical(self):
        threads, serial = self.serve_both((2, 2, 2))
        assert threads.served == 48
        self.assert_identical(threads, serial)

    def test_recovery_pass_bit_identical(self):
        from repro.fabric import ModelPlacement
        from repro.faults import RetryPolicy

        requests = trace(count=48)
        # Three single-core shards, the model placed on all of them;
        # crashing shards 1 and 2 halfway strands two sub-traces, so
        # the *recovery* loop also runs with more than one job — the
        # threaded path, not its single-job serial shortcut.
        schedule = (
            FaultSchedule(seed=3)
            .core_crash(requests[-1].arrival_s / 2, core=1)
            .core_crash(requests[-1].arrival_s / 2, core=2)
        )
        threads, serial = self.serve_both(
            (1, 1, 1),
            fault_schedule=schedule,
            make_placement=lambda: ModelPlacement(replicas=3),
            retry_policy=RetryPolicy(max_retries=1, backoff_s=1e-6),
        )
        # The crashes must actually strand work onto the recovery pass,
        # or the threaded recovery loop went untested.
        assert any(r is not None for r in threads.recovery_results)
        self.assert_identical(threads, serial)

    def test_unknown_concurrency_rejected(self):
        with pytest.raises(ValueError, match="concurrency"):
            Fabric([spec(1)], concurrency="fibers")


class TestShardScaling:
    """The control plane's scaling, on the virtual clock.

    One full-load LeNet-class trace served by 1, 2 and 4 identical
    two-core shards behind the least-loaded router: the makespan
    (``horizon_s``) shrinks only if the router balances the load.  It
    is virtual time — the same on every host and every run — so it is
    asserted here rather than gated by ``repro.perf.bench``, whose
    cases are wall-clock ratios.
    """

    REQUESTS = 96

    def serve(self, num_shards: int, execution: str = "serial"):
        dag = lenet_class_dag(0)
        fabric = Fabric(
            [
                ShardSpec(
                    num_cores=2,
                    datapath_factory=lambda core: LightningDatapath(
                        core=BehavioralCore(seed=core), seed=core
                    ),
                    # Full load on one shard must queue, not drop: the
                    # makespans compare only if every request is served.
                    queue_capacity=max(4 * self.REQUESTS, 64),
                    max_batch=4,
                    execution=execution,
                )
                for _ in range(num_shards)
            ]
        )
        try:
            fabric.deploy(dag)
            result = fabric.serve_trace(
                poisson_trace([dag], 2_000_000.0, self.REQUESTS, seed=0)
            )
        finally:
            for shard in fabric.shards:
                shard.close()
        assert result.served == self.REQUESTS
        return result

    def test_makespan_shrinks_with_shards_and_replays(self):
        results = {shards: self.serve(shards) for shards in (1, 2, 4)}
        horizon = {n: result.horizon_s for n, result in results.items()}
        # Recorded 1.959x and 3.765x; the floors are 0.8x those (the
        # 4-shard one is the perf harness's old 20% regression band).
        assert horizon[1] / horizon[2] >= 1.5
        assert horizon[1] / horizon[4] >= 3.02
        again = self.serve(4)
        assert again.horizon_s == horizon[4]
        assert again.routed == results[4].routed

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_live_shards_keep_the_serial_makespan(self, num_shards):
        """Worker processes per core and a thread per shard change the
        wall clock only."""
        live = self.serve(num_shards, execution="parallel")
        serial = self.serve(num_shards)
        assert live.horizon_s == serial.horizon_s
        assert live.routed == serial.routed
