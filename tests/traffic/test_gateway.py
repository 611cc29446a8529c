"""Open-loop gateway tests against a real (emulated) fabric."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ComputationDAG, LayerTask, LightningDatapath
from repro.core.stats import Outcome, OutcomeFlag, OutcomeReason, OutcomeRows
from repro.fabric import (
    Fabric,
    FailoverRouter,
    HashShardRouter,
    ModelPlacement,
    ShardSpec,
    kill_shard,
)
from repro.faults import DegradedCore, FaultSchedule, MZMBiasDrift, RetryPolicy
from repro.photonics import BehavioralCore, CoreArchitecture, NoiselessModel
from repro.runtime.workload import poisson_trace, probe_service_times
from repro.traffic import (
    AcceptAll,
    AdmissionController,
    ModelMix,
    OpenLoopTraffic,
    PoissonProcess,
    QueueBackpressure,
    SLOBook,
    SLOClass,
    probe_service_estimates,
    serve_fabric_open_loop,
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


def shard_spec(num_cores: int = 2) -> ShardSpec:
    def factory(core: int) -> LightningDatapath:
        return LightningDatapath(
            core=BehavioralCore(
                architecture=CoreArchitecture(
                    accumulation_wavelengths=2
                ),
                noise=NoiselessModel(),
            ),
            seed=core,
        )

    return ShardSpec(num_cores=num_cores, datapath_factory=factory)


def build_fabric(router=None) -> Fabric:
    fabric = Fabric([shard_spec(), shard_spec()], router=router)
    for model_id in (1, 2):
        fabric.deploy(make_dag(model_id))
    return fabric


@pytest.fixture(scope="module")
def overload_trace():
    """~2x-capacity open-loop trace for the two-model fabric."""
    fabric = build_fabric()
    estimates = probe_service_estimates(fabric)
    mean_service = float(
        np.mean([v for shard in estimates for v in shard.values()])
    )
    capacity = fabric.total_cores / mean_service
    mix = ModelMix([make_dag(1), make_dag(2)])
    traffic = OpenLoopTraffic(
        PoissonProcess(2.0 * capacity), mix, seed=17
    )
    return traffic.runtime_trace(250)


class TestProbe:
    def test_estimates_cover_deployed_models(self):
        fabric = build_fabric()
        estimates = probe_service_estimates(fabric)
        assert len(estimates) == fabric.num_shards
        for per_model in estimates:
            assert set(per_model) == {1, 2}
            assert all(v > 0 for v in per_model.values())


class TestAccounting:
    def test_accept_all_serves_everything(self, overload_trace):
        result = serve_fabric_open_loop(
            build_fabric(),
            overload_trace,
            AdmissionController(AcceptAll()),
        )
        assert result.offered == len(overload_trace)
        assert result.shed == 0
        assert result.accounted()

    def test_sheds_charged_to_invariant(self, overload_trace):
        result = serve_fabric_open_loop(
            build_fabric(),
            overload_trace,
            AdmissionController(QueueBackpressure(), seed=17),
        )
        assert result.offered == len(overload_trace)
        assert result.shed > 0
        assert result.served < len(overload_trace)
        assert (
            result.served
            + result.dropped
            + result.failed
            + result.unfinished
            + result.shed
            == result.offered
        )
        assert result.accounted()

    def test_deterministic_rerun(self, overload_trace):
        def run():
            return serve_fabric_open_loop(
                build_fabric(),
                overload_trace,
                AdmissionController(QueueBackpressure(), seed=17),
            )

        a, b = run(), run()
        assert (a.served, a.shed, a.stolen) == (b.served, b.shed, b.stolen)
        assert a.routed == b.routed


class TestStealing:
    def test_affinity_hotspot_steals_to_idle_shard(self):
        """A hash router pins the single hot model to one shard; with
        stealing, the idle shard absorbs the overflow instead of the
        queue dropping it."""
        mix = ModelMix([make_dag(2)])
        traffic = OpenLoopTraffic(
            PoissonProcess(6_000_000.0), mix, seed=5
        )
        trace = traffic.runtime_trace(200)

        def run(steal: bool):
            return serve_fabric_open_loop(
                build_fabric(router=HashShardRouter()),
                trace,
                AdmissionController(AcceptAll()),
                steal=steal,
            )

        stolen = run(steal=True)
        pinned = run(steal=False)
        assert stolen.stolen > 0
        assert pinned.stolen == 0
        assert stolen.dropped < pinned.dropped
        assert stolen.served > pinned.served
        assert stolen.accounted() and pinned.accounted()

    def test_a_steal_onto_a_shard_that_then_dies_is_not_counted(self):
        """Model 2 hashes to shard 0, dead from the start; shard 1 takes
        steals until it dies too, with no replica to recover them.  The
        stolen rows keep their flag and fail; ``stolen`` counts served
        rows only, so it stays within ``served`` and the serve returns
        its result."""

        def build() -> Fabric:
            fabric = Fabric(
                [shard_spec(), shard_spec()], router=HashShardRouter()
            )
            fabric.deploy(make_dag(2))
            return fabric

        trace = OpenLoopTraffic(
            PoissonProcess(6_000_000.0), ModelMix([make_dag(2)]), seed=5
        ).runtime_trace(200)
        clean = serve_fabric_open_loop(build(), trace).outcomes
        first = np.flatnonzero(clean.flags & OutcomeFlag.STOLEN)[0]
        # Shard 1 dies while the first stolen request is in flight.
        crash_at = (clean.arrival[first] + clean.finish[first]) / 2
        fabric = build()
        schedule = kill_shard(FaultSchedule(seed=1), fabric, 0, 0.0)
        kill_shard(schedule, fabric, 1, crash_at)
        result = serve_fabric_open_loop(
            fabric, trace, fault_schedule=schedule
        )
        table = result.outcomes
        flagged = (table.flags & OutcomeFlag.STOLEN) != 0
        assert flagged.any()
        assert (table.fate[flagged] == Outcome.FAILED).all()
        assert result.served == result.stolen == 0
        assert result.accounted()


class TestServeRouted:
    def test_placement_length_mismatch_rejected(self, overload_trace):
        fabric = build_fabric()
        with pytest.raises(ValueError, match="placements"):
            fabric.serve_routed(overload_trace[:5], [0, 1])

    def test_offered_counts_the_rows(self, overload_trace):
        """``offered`` is the placed trace plus the upstream rows — it
        has no second source that could disagree with them."""
        rows = OutcomeRows()
        for request in overload_trace[4:6]:
            rows.add(request, Outcome.SHED, OutcomeReason.ADMISSION)
        result = build_fabric().serve_routed(
            overload_trace[:4], [0, 0, 1, 1], upstream=rows.seal()
        )
        assert (result.offered, result.shed) == (6, 2)
        assert len(result.outcomes) == 6

    def test_closed_loop_serve_trace_unchanged(self, overload_trace):
        """serve_trace still reports shed=0 and the legacy invariant."""
        result = build_fabric().serve_trace(overload_trace[:40])
        assert result.shed == 0
        assert result.stolen == 0
        assert result.offered == 40
        assert result.accounted()


def paced_trace(fabric, count=240, load=0.4, seed=29):
    """Open-loop trace at ``load`` x the fabric's healthy capacity."""
    estimates = probe_service_estimates(fabric)
    mean_service = float(
        np.mean([v for per in estimates for v in per.values()])
    )
    capacity = fabric.total_cores / mean_service
    mix = ModelMix([make_dag(1), make_dag(2)])
    traffic = OpenLoopTraffic(
        PoissonProcess(load * capacity), mix, seed=seed
    )
    return traffic.runtime_trace(count)


class TestFailoverGateway:
    def replicated_fabric(
        self, shards=2, replicas=2, auto_heal=True, latency=0.0
    ) -> Fabric:
        fabric = Fabric(
            [shard_spec() for _ in range(shards)],
            router=FailoverRouter(),
            placement=ModelPlacement(
                replicas=replicas,
                redeploy_latency_s=latency,
                auto_heal=auto_heal,
            ),
        )
        for model_id in (1, 2):
            fabric.deploy(make_dag(model_id))
        return fabric

    def test_dead_shard_reroutes_to_the_replica(self):
        fabric = self.replicated_fabric()
        requests = paced_trace(fabric)
        horizon = max(r.arrival_s for r in requests)
        schedule = kill_shard(
            FaultSchedule(seed=7), fabric, shard=1, at_s=horizon / 2
        )
        result = serve_fabric_open_loop(
            fabric,
            requests,
            AdmissionController(AcceptAll()),
            fault_schedule=schedule,
            retry_policy=RetryPolicy(max_retries=2, backoff_s=1e-6),
        )
        assert result.accounted()
        # A live replica existed throughout: nobody was abandoned.
        assert result.failed_over == 0
        assert result.failovers > 0
        assert result.goodput >= 0.95
        ordered = sorted(
            requests, key=lambda r: (r.arrival_s, r.request_id)
        )
        for request, target in zip(ordered, result.routed):
            if request.arrival_s >= horizon / 2:
                assert target == 0

    def test_total_replica_loss_auto_heals(self):
        fabric = self.replicated_fabric(shards=4, replicas=1)
        placement = fabric.placement
        requests = paced_trace(fabric, count=300)
        horizon = max(r.arrival_s for r in requests)
        placement.redeploy_latency_s = horizon / 5
        victim = placement.shards_for(1)[0]
        schedule = kill_shard(
            FaultSchedule(seed=7), fabric, victim, horizon / 3
        )
        result = serve_fabric_open_loop(
            fabric,
            requests,
            AdmissionController(AcceptAll()),
            fault_schedule=schedule,
            retry_policy=RetryPolicy(max_retries=2, backoff_s=1e-6),
        )
        assert result.accounted()
        assert len(placement.heals) == 1
        heal = placement.heals[0]
        assert heal.model_id == 1
        assert heal.shard != victim
        # Requests inside the redeploy window were charged, not lost
        # silently; post-heal model-1 traffic serves again.
        assert result.failed_over > 0
        healed_home = heal.shard
        served_model_1_after = [
            r
            for r in result.records()
            if r.request.model_id == 1
            and r.request.arrival_s >= heal.active_from_s
        ]
        assert served_model_1_after
        assert placement.shards_for(1) == (victim, healed_home)

    def test_without_auto_heal_the_model_goes_dark(self):
        fabric = self.replicated_fabric(
            shards=4, replicas=1, auto_heal=False
        )
        requests = paced_trace(fabric, count=300)
        horizon = max(r.arrival_s for r in requests)
        victim = fabric.placement.shards_for(1)[0]
        schedule = kill_shard(
            FaultSchedule(seed=7), fabric, victim, horizon / 3
        )
        result = serve_fabric_open_loop(
            fabric,
            requests,
            AdmissionController(AcceptAll()),
            fault_schedule=schedule,
            retry_policy=RetryPolicy(max_retries=2, backoff_s=1e-6),
        )
        assert result.accounted()
        assert fabric.placement.heals == []
        # Roughly a third of the trace is post-kill model-1 traffic
        # with nowhere to go.
        assert result.failed_over > 0.15 * len(requests)
        assert result.goodput < 0.9


class TestSLOGateway:
    def test_deadline_shedding_raises_attainment(
        self, overload_trace
    ):
        estimates = probe_service_estimates(build_fabric())
        mean_service = float(
            np.mean([v for per in estimates for v in per.values()])
        )
        book = SLOBook()
        slo_class = SLOClass("interactive", 4.0 * mean_service)
        book.assign(1, slo_class)
        book.assign(2, slo_class)

        baseline = serve_fabric_open_loop(
            build_fabric(),
            overload_trace,
            AdmissionController(AcceptAll()),
        )
        shedding = serve_fabric_open_loop(
            build_fabric(),
            overload_trace,
            AdmissionController(AcceptAll()),
            slo_book=book,
        )
        assert shedding.accounted()
        assert shedding.shed > 0
        with_book = book.grade(shedding)["interactive"].attainment
        without = book.grade(baseline)["interactive"].attainment
        assert with_book > without
        assert with_book > 0.9

    def test_a_steal_that_is_then_shed_is_not_counted(self):
        """Both models hash to shard 0; model 2's deadline is
        unmeetable anywhere, so its steals end as sheds.  ``stolen``
        counts only the requests that landed on shard 1."""
        fabric = Fabric(
            [shard_spec(), shard_spec()], router=HashShardRouter()
        )
        for model_id in (2, 4):
            fabric.deploy(make_dag(model_id))
        service = probe_service_estimates(fabric)[0][2]
        book = SLOBook()
        book.assign(2, SLOClass("doomed", 0.5 * service))
        mix = ModelMix([make_dag(2), make_dag(4)])
        trace = OpenLoopTraffic(
            PoissonProcess(6_000_000.0), mix, seed=5
        ).runtime_trace(120)
        admission = AdmissionController(AcceptAll())
        result = serve_fabric_open_loop(
            fabric, trace, admission, slo_book=book
        )
        assert admission.shed_reasons["deadline"] > 0
        assert result.routed.count(1) > 0
        assert result.stolen == result.routed.count(1)
        assert result.accounted()


class ShedAll:
    """An admission policy that refuses everything."""

    def admit(self, now_s, shards, rng) -> bool:
        return False

    def reset(self) -> None:
        pass


class TestNothingAdmitted:
    def balanced_and_empty(self, result, offered):
        assert result.offered == offered
        assert result.served == 0
        assert result.routed == ()
        assert all(r is None for r in result.shard_results)
        assert all(r is None for r in result.recovery_results)
        assert result.accounted()

    def test_admission_sheds_the_whole_trace(self, overload_trace):
        result = serve_fabric_open_loop(
            build_fabric(), overload_trace, AdmissionController(ShedAll())
        )
        assert result.shed == len(overload_trace)
        self.balanced_and_empty(result, len(overload_trace))

    def test_every_request_fails_over(self):
        fabric = Fabric(
            [shard_spec(), shard_spec()],
            router=FailoverRouter(),
            placement=ModelPlacement(replicas=1, auto_heal=False),
        )
        (home,) = fabric.deploy(make_dag(1))
        requests = [r for r in paced_trace(fabric, 60) if r.model_id == 1]
        schedule = kill_shard(FaultSchedule(seed=1), fabric, home, 0.0)
        result = serve_fabric_open_loop(
            fabric, requests, fault_schedule=schedule
        )
        assert result.failed_over == len(requests)
        self.balanced_and_empty(result, len(requests))

    def test_serve_routed_balances_an_empty_admitted_trace(
        self, overload_trace
    ):
        fabric = build_fabric()
        rows = OutcomeRows()
        for i, request in enumerate(overload_trace[:7]):
            rows.add(request, Outcome.SHED if i < 4 else Outcome.FAILED_OVER)
        result = fabric.serve_routed([], [], upstream=rows.seal())
        self.balanced_and_empty(result, offered=7)
        assert (result.shed, result.failed_over) == (4, 3)
        with pytest.raises(ValueError, match="empty"):
            fabric.serve_routed([], [])

    def test_empty_offered_trace_stays_an_error(self):
        with pytest.raises(ValueError, match="empty"):
            serve_fabric_open_loop(build_fabric(), [])


class TestProbeIsOneLedgerReplay:
    """``probe_service_times`` prices a (shard, model) with the ledger
    alone.  The zero query's forward pass it no longer runs drew only
    from the probed core's own noise stream, and nothing served reads
    that stream — every served dispatch and watchdog probe reseeds onto
    a keyed stream first — so estimates, ledgers and every served bit
    stay where the forward probe left them."""

    @staticmethod
    def noisy_fabric(drift: bool) -> Fabric:
        def factory(core: int) -> LightningDatapath:
            return LightningDatapath(core=BehavioralCore(seed=11 + core))

        fabric = Fabric([
            ShardSpec(num_cores=2, datapath_factory=factory)
            for _ in range(2)
        ])
        for model_id in (1, 2):
            fabric.deploy(make_dag(model_id))
        if drift:
            for shard in fabric.shards:
                DegradedCore.ensure(shard.datapaths[0]).install(
                    MZMBiasDrift(0.0, volts_per_s=2e4)
                )
        return fabric

    @staticmethod
    def forward_probe(cluster) -> dict[int, float]:
        """The probe as it was: one zero query's full ``execute``."""
        services = {}
        for dag in cluster.deployed_dags:
            zeros = np.zeros(dag.tasks[0].input_size, dtype=np.float64)
            execution = cluster.datapaths[0].execute(dag.model_id, zeros)
            services[dag.model_id] = execution.total_seconds
        return services

    @staticmethod
    def ledger(datapath) -> tuple:
        memory = datapath.memory
        return (
            memory._rng.bit_generator.state,
            memory.dram_reads,
            memory.cache_hits,
            memory.total_read_latency_s.hex(),
            datapath.loader.loads,
            datapath.plan_stats(),
            datapath.registers._registers,
        )

    @staticmethod
    def fingerprint(result) -> tuple:
        return (
            result.routed,
            [
                None if shard is None else (
                    [
                        (
                            r.request.request_id, r.core, r.batch_size,
                            r.prediction, r.finish_s.hex(),
                            r.queuing_s.hex(), r.datapath_s.hex(),
                            r.compute_s.hex(),
                        )
                        for r in shard.records
                    ],
                    [
                        r.request_id
                        for fate in (Outcome.DROPPED, Outcome.FAILED)
                        for r in shard.outcomes.requests(fate)
                    ],
                )
                for shard in result.shard_results
            ],
            result.stats.energy.total_joules.hex(),
            result.stats.energy.count,
        )

    @pytest.mark.parametrize(
        "drift", [False, True], ids=["healthy", "mzm-bias-drift"]
    )
    def test_probe_moves_no_served_bit(self, drift):
        replayed, forwarded = (self.noisy_fabric(drift) for _ in range(2))
        estimates = [probe_service_times(s) for s in replayed.shards]
        assert estimates == [
            self.forward_probe(s) for s in forwarded.shards
        ]
        for ours, theirs in zip(replayed.shards, forwarded.shards):
            assert self.ledger(ours.datapaths[0]) == self.ledger(
                theirs.datapaths[0]
            )
        # The forward probe did draw from core 0's own stream.
        noise = [
            getattr(s.datapaths[0].core, "core", s.datapaths[0].core)._rng
            for s in (replayed.shards[0], forwarded.shards[0])
        ]
        assert noise[0].bit_generator.state != noise[1].bit_generator.state
        dags = [make_dag(1), make_dag(2)]
        trace = poisson_trace(dags, 2_000_000.0, 80, seed=4)
        served = [f.serve_trace(trace) for f in (replayed, forwarded)]
        assert served[0].served > 0
        assert len({r.prediction for r in served[0].records()}) > 1
        assert self.fingerprint(served[0]) == self.fingerprint(served[1])
