"""Benchmark: goodput under injected faults, and the control plane.

Three campaigns share this module:

* a 4-core cluster sized to 0.8 utilization loses one core halfway
  through the trace.  The resilience layer (retry-with-backoff plus
  bounded queues) must keep the degraded cluster's goodput at >= 70 %
  of the healthy baseline while accounting for every offered request —
  ``served + dropped + failed == offered``, nothing lost silently;
* the same cluster under a slow MZM bias drift, served once with the
  health-blind :class:`RoundRobinScheduler` and once with the
  :class:`HealthAwareScheduler`.  The health-aware policy must turn
  the calibration-probe telemetry into measurably higher goodput
  (predictions matching a fault-free reference run);
* a 4-shard heterogeneous :class:`~repro.fabric.Fabric` under an
  active fault schedule serving a mixed two-model workload.  The
  global accounting invariant must hold across shards, and a drifted
  core must be *re-locked* — swept, re-probed, and serving again — by
  the end of the trace rather than left in quarantine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import format_table
from repro.core import LightningDatapath
from repro.dnn import quantize_mlp, synthetic_flows, train_mlp
from repro.fabric import Fabric, LeastLoadedShardRouter, ShardSpec
from repro.faults import (
    BiasRelockController,
    CalibrationWatchdog,
    FaultSchedule,
    RetryPolicy,
)
from repro.photonics import (
    BehavioralCore,
    CoreArchitecture,
    NoiselessModel,
)
from repro.runtime import (
    Cluster,
    HealthAwareScheduler,
    LeastLoadedScheduler,
    RoundRobinScheduler,
    RuntimeRequest,
    poisson_trace,
    rate_for_cluster_utilization,
)

NUM_REQUESTS = 800
NUM_CORES = 4
UTILIZATION = 0.8


def make_cluster() -> Cluster:
    arch = CoreArchitecture(accumulation_wavelengths=2, batch_size=8)
    return Cluster(
        num_cores=NUM_CORES,
        datapath_factory=lambda core: LightningDatapath(
            core=BehavioralCore(
                architecture=arch, noise=NoiselessModel()
            ),
            seed=core,
        ),
        scheduler=LeastLoadedScheduler(NUM_CORES),
        queue_capacity=64,
        max_batch=8,
    )


@pytest.fixture(scope="module")
def dag():
    train, _ = synthetic_flows(1200, seed=70).split()
    model = train_mlp(
        [16, 48, 16, 2], train, epochs=8, use_bias=False
    ).model
    return quantize_mlp(model, train.x[:128], model_id=1)


@pytest.fixture(scope="module")
def campaign(dag):
    """The same 0.8-utilization trace, healthy and with a crash."""
    probe = make_cluster()
    probe.deploy(dag)
    rate = rate_for_cluster_utilization(probe, UTILIZATION)
    trace = poisson_trace([dag], rate, NUM_REQUESTS, seed=71)
    crash_at = trace[-1].arrival_s * 0.5

    def run(schedule=None):
        cluster = make_cluster()
        cluster.deploy(dag)
        result = cluster.serve_trace(
            trace,
            fault_schedule=schedule,
            retry_policy=RetryPolicy(max_retries=2, backoff_s=1e-6),
        )
        return cluster, result

    _, healthy = run()
    crashed_cluster, crashed = run(
        FaultSchedule(seed=72).core_crash(at_s=crash_at, core=1)
    )
    return healthy, crashed, crashed_cluster, crash_at


def test_fault_resilience_report(campaign, report_writer):
    healthy, crashed, _, crash_at = campaign
    rows = []
    for label, result in (("healthy", healthy), ("1 core crashed", crashed)):
        rows.append(
            [
                label,
                result.served,
                result.dropped,
                result.failed,
                result.stats.retries,
                100.0 * result.served / result.offered,
                result.throughput_rps / 1e6,
                result.stats.latency_percentile(99) * 1e6,
            ]
        )
    report_writer(
        "fault_resilience",
        format_table(
            [
                "Scenario", "Served", "Dropped", "Failed", "Retries",
                "Goodput (%)", "Tput (M req/s)", "p99 (us)",
            ],
            rows,
            title=(
                f"Fault resilience — {NUM_CORES}-core cluster at "
                f"{UTILIZATION:.1f} utilization, core 1 crashed at "
                f"t={crash_at * 1e6:.1f} us (50% of trace)"
            ),
        ),
    )


def test_goodput_survives_a_crash(campaign):
    """Acceptance: degraded goodput stays >= 70% of the healthy run."""
    healthy, crashed, _, _ = campaign
    assert healthy.served == NUM_REQUESTS
    assert crashed.served >= 0.7 * healthy.served


def test_every_request_accounted_under_crash(campaign):
    """Acceptance: served + dropped + failed == offered, exactly."""
    _, crashed, cluster, crash_at = campaign
    assert crashed.offered == NUM_REQUESTS
    assert (
        crashed.served + crashed.dropped + crashed.failed == NUM_REQUESTS
    )
    assert not crashed.unfinished
    assert crashed.stats.core_health[1] == "crashed"
    # The dead core served nothing after the crash instant.
    assert not any(
        r.core == 1 and r.finish_s > crash_at for r in crashed.records
    )


# --------------------------------------------------------------------
# Health-aware placement vs round-robin under a slow bias drift.
# --------------------------------------------------------------------

#: Drift onset and rate sized against the ~1.47 ms trace horizon: the
#: bias error crosses the scheduler's soft threshold (0.15 V) at
#: ~82 us, starts corrupting argmax predictions near 2 V (~475 us),
#: and only trips the deliberately lax watchdog threshold near 4.45 V
#: (~1 ms) — a long window in which a health-blind policy keeps
#: feeding the corrupting core.
DRIFT_ONSET_S = 5e-5
DRIFT_VOLTS_PER_S = 4700.0
DRIFT_CORE = 2
#: Just under the worst-case probe error at 2 wavelengths
#: (255 * sqrt(32) ~ 1443), so quarantine happens late.
LAX_THRESHOLD = 1400.0


def make_scheduled_cluster(scheduler) -> Cluster:
    arch = CoreArchitecture(accumulation_wavelengths=2, batch_size=8)
    return Cluster(
        num_cores=NUM_CORES,
        datapath_factory=lambda core: LightningDatapath(
            core=BehavioralCore(
                architecture=arch, noise=NoiselessModel()
            ),
            seed=core,
        ),
        scheduler=scheduler,
        queue_capacity=64,
        max_batch=8,
    )


@pytest.fixture(scope="module")
def drift_campaign(dag):
    """One drifting core, served health-blind and health-aware.

    Goodput is the fraction of offered requests whose prediction
    matches a fault-free reference run — with noiseless photonics the
    reference is exact, so every divergence is drift corruption.
    """
    probe = make_scheduled_cluster(LeastLoadedScheduler(NUM_CORES))
    probe.deploy(dag)
    rate = rate_for_cluster_utilization(probe, 0.5)
    trace = poisson_trace([dag], rate, NUM_REQUESTS, seed=81)

    def run(scheduler_factory, with_fault: bool):
        cluster = make_scheduled_cluster(scheduler_factory(NUM_CORES))
        cluster.deploy(dag)
        schedule = None
        if with_fault:
            schedule = FaultSchedule(seed=82).mzm_bias_drift(
                at_s=DRIFT_ONSET_S,
                core=DRIFT_CORE,
                volts_per_s=DRIFT_VOLTS_PER_S,
            )
        result = cluster.serve_trace(
            trace,
            fault_schedule=schedule,
            watchdog=CalibrationWatchdog(
                interval_s=2e-5, threshold=LAX_THRESHOLD
            ),
        )
        return cluster, result

    _, clean = run(RoundRobinScheduler, with_fault=False)
    reference = {
        r.request.request_id: r.prediction for r in clean.records
    }

    def goodput(result) -> float:
        good = sum(
            1
            for r in result.records
            if r.prediction == reference[r.request.request_id]
        )
        return good / result.offered

    _, blind = run(RoundRobinScheduler, with_fault=True)
    _, aware = run(HealthAwareScheduler, with_fault=True)
    return blind, aware, goodput


def test_health_aware_report(drift_campaign, report_writer):
    blind, aware, goodput = drift_campaign
    rows = []
    for label, result in (
        ("round-robin", blind),
        ("health-aware", aware),
    ):
        on_drifted = sum(1 for r in result.records if r.core == DRIFT_CORE)
        rows.append(
            [
                label,
                result.served,
                on_drifted,
                100.0 * goodput(result),
                result.stats.quarantines,
            ]
        )
    report_writer(
        "health_aware_goodput",
        format_table(
            [
                "Scheduler", "Served", "On drifted core",
                "Goodput (%)", "Quarantines",
            ],
            rows,
            title=(
                f"Health-aware placement — core {DRIFT_CORE} drifting "
                f"at {DRIFT_VOLTS_PER_S:.0f} V/s under a lax watchdog"
            ),
        ),
    )


def test_health_aware_scheduler_beats_round_robin(drift_campaign):
    """Acceptance: the probe telemetry buys real accuracy.

    Both policies serve every request (the drift corrupts answers, it
    does not slow the core), but the health-aware policy routes around
    the drifting core as soon as its probe error crosses the soft
    threshold, long before the lax watchdog benches it.
    """
    blind, aware, goodput = drift_campaign
    assert blind.served == NUM_REQUESTS
    assert aware.served == NUM_REQUESTS
    # Measurably higher goodput: at least three points of the trace.
    assert goodput(aware) >= goodput(blind) + 0.03
    # The gap comes from placement: the health-aware run put strictly
    # less work on the drifting core.
    blind_on_core = sum(1 for r in blind.records if r.core == DRIFT_CORE)
    aware_on_core = sum(1 for r in aware.records if r.core == DRIFT_CORE)
    assert aware_on_core < blind_on_core


# --------------------------------------------------------------------
# The sharded control plane under an active fault schedule.
# --------------------------------------------------------------------

FABRIC_REQUESTS = 160
#: Global core 3 = shard 1, local core 1 (a 2-wavelength shard, where
#: the re-lock sweep's residual bound is tightest).
FABRIC_DRIFT_CORE = 3
#: Global core 6 = shard 2, local core 2.
FABRIC_CRASH_CORE = 6


def shard_spec(num_cores: int, wavelengths: int) -> ShardSpec:
    arch = CoreArchitecture(accumulation_wavelengths=wavelengths)
    return ShardSpec(
        num_cores=num_cores,
        datapath_factory=lambda core: LightningDatapath(
            core=BehavioralCore(
                architecture=arch, noise=NoiselessModel()
            ),
            seed=core,
        ),
        scheduler_factory=lambda n: HealthAwareScheduler(n),
    )


@pytest.fixture(scope="module")
def second_dag():
    train, _ = synthetic_flows(1200, seed=90).split()
    model = train_mlp(
        [16, 32, 16, 2], train, epochs=8, use_bias=False
    ).model
    return quantize_mlp(model, train.x[:128], model_id=2)


@pytest.fixture(scope="module")
def fabric_campaign(dag, second_dag):
    """Four heterogeneous shards, two models, a drift and a crash.

    The drifted core's watchdog carries a re-lock controller: the
    first probe (100 us) quarantines it, the bias sweep re-locks it at
    ~118 us, and it serves again for the rest of the trace.
    """
    fabric = Fabric(
        [
            shard_spec(2, wavelengths=8),
            shard_spec(2, wavelengths=2),
            shard_spec(3, wavelengths=2),
            shard_spec(1, wavelengths=1),
        ],
        router=LeastLoadedShardRouter(),
    )
    fabric.deploy(dag)
    fabric.deploy(second_dag)
    rng = np.random.default_rng(91)
    trace = [
        RuntimeRequest(
            request_id=i,
            model_id=1 + (i % 2),
            arrival_s=i * 1e-6,
            data_levels=rng.integers(0, 256, size=16).astype(np.float64),
        )
        for i in range(FABRIC_REQUESTS)
    ]
    schedule = (
        FaultSchedule(seed=92)
        .mzm_bias_drift(
            at_s=1e-6, core=FABRIC_DRIFT_CORE, volts_per_s=3000.0
        )
        .core_crash(at_s=8e-5, core=FABRIC_CRASH_CORE)
    )
    result = fabric.serve_trace(
        trace,
        fault_schedule=schedule,
        watchdog=CalibrationWatchdog(
            interval_s=100e-6, relock=BiasRelockController()
        ),
        retry_policy=RetryPolicy(max_retries=2, backoff_s=1e-6),
    )
    return fabric, result


def test_fabric_report(fabric_campaign, report_writer):
    fabric, result = fabric_campaign
    rows = []
    for shard, (cluster, shard_result) in enumerate(
        zip(fabric.shards, result.shard_results)
    ):
        served = shard_result.served if shard_result else 0
        rows.append(
            [
                shard,
                cluster.num_cores,
                cluster.datapaths[0].core.architecture
                .accumulation_wavelengths,
                sum(1 for s in result.routed if s == shard),
                served,
            ]
        )
    table = format_table(
        ["Shard", "Cores", "Wavelengths", "Routed", "Served"],
        rows,
        title=(
            f"Fabric control plane — {fabric.num_shards} shards / "
            f"{fabric.total_cores} cores, drift on core "
            f"{FABRIC_DRIFT_CORE} (re-locked), crash on core "
            f"{FABRIC_CRASH_CORE}; global goodput "
            f"{100.0 * result.served / result.offered:.1f}%"
        ),
    )
    report_writer("fabric_control_plane", table)


def test_fabric_accounts_globally_under_faults(fabric_campaign):
    """Acceptance: served + dropped + failed + unfinished == offered
    across all shards, with both models served on every shard the
    router used."""
    _, result = fabric_campaign
    assert result.offered == FABRIC_REQUESTS
    assert result.accounted()
    assert set(result.stats.per_model_served) == {1, 2}
    # The heterogeneous shards all took work.
    assert set(result.routed) == {0, 1, 2, 3}
    # The crashed core is benched and reported globally.
    assert result.stats.core_health[FABRIC_CRASH_CORE] == "crashed"


def test_fabric_relocks_drifted_core(fabric_campaign):
    """Acceptance: the drifted core ends the trace re-locked and
    serving — repaired, not quarantined."""
    fabric, result = fabric_campaign
    assert result.stats.relocks == 1
    assert result.stats.core_health[FABRIC_DRIFT_CORE] == "healthy"
    shard, local = fabric.shard_of_core(FABRIC_DRIFT_CORE)
    health = fabric.shards[shard].health[local]
    assert health.state == "healthy"
    assert health.relocked_at_s is not None
    # It served after readmission — in the *global* core namespace.
    post_relock = [
        r
        for r in result.records()
        if r.core == FABRIC_DRIFT_CORE
        and r.finish_s > health.relocked_at_s
    ]
    assert post_relock


# --------------------------------------------------------------------
# Chaos campaign: rolling shard failures under open-loop load.
# --------------------------------------------------------------------

#: 10^5 open-loop arrivals per scenario (the acceptance scale).
CHAOS_REQUESTS = 100_000
CHAOS_SHARDS = 4
CHAOS_CORES_PER_SHARD = 2
#: Offered load as a fraction of ONE shard's healthy capacity — sized
#: so the lone survivor of the last quarter is not itself overloaded.
CHAOS_LOAD = 0.6
#: Serving stand-ins for the 7-model zoo: the simulation specs are
#: analytic (too large to execute), so each zoo entry maps to a small
#: dense DAG whose relative width tracks its relative heft.
CHAOS_WIDTHS = (8, 12, 16, 16, 20, 24, 12)


def chaos_dag(model_id: int, width: int, name: str) -> "ComputationDAG":
    from repro.core import ComputationDAG, LayerTask

    rng = np.random.default_rng(1000 + model_id)
    half = width // 2
    return ComputationDAG(
        model_id,
        name,
        [
            LayerTask(
                name="fc1", kind="dense",
                input_size=width, output_size=half,
                weights_levels=rng.integers(
                    -200, 201, (half, width)
                ).astype(float),
                nonlinearity="relu", requant_divisor=float(width),
            ),
            LayerTask(
                name="fc2", kind="dense",
                input_size=half, output_size=4,
                weights_levels=rng.integers(
                    -200, 201, (4, half)
                ).astype(float),
                depends_on=("fc1",),
            ),
        ],
    )


def chaos_zoo():
    from repro.dnn import SIMULATION_MODELS

    return [
        chaos_dag(model_id, width, spec.name)
        for model_id, (width, spec) in enumerate(
            zip(CHAOS_WIDTHS, SIMULATION_MODELS()), start=1
        )
    ]


def chaos_run(replicas: int, auto_heal: bool):
    """One rolling-failure campaign: shards 1..3 die at the quarter
    marks of a 10^5-request open-loop trace."""
    from repro.fabric import (
        Fabric,
        FailoverRouter,
        ModelPlacement,
        kill_shard,
    )
    from repro.traffic import (
        AcceptAll,
        AdmissionController,
        ModelMix,
        OpenLoopTraffic,
        PoissonProcess,
        probe_service_estimates,
        serve_fabric_open_loop,
    )

    arch = CoreArchitecture(accumulation_wavelengths=2)
    fabric = Fabric(
        [
            ShardSpec(
                num_cores=CHAOS_CORES_PER_SHARD,
                datapath_factory=lambda core: LightningDatapath(
                    core=BehavioralCore(
                        architecture=arch, noise=NoiselessModel()
                    ),
                    seed=core,
                ),
            )
            for _ in range(CHAOS_SHARDS)
        ],
        router=FailoverRouter(),
        placement=ModelPlacement(
            replicas=replicas, auto_heal=auto_heal
        ),
    )
    zoo = chaos_zoo()
    for dag in zoo:
        fabric.deploy(dag)
    estimates = probe_service_estimates(fabric)
    mean_service = float(
        np.mean([v for per in estimates for v in per.values()])
    )
    shard_capacity = CHAOS_CORES_PER_SHARD / mean_service
    traffic = OpenLoopTraffic(
        PoissonProcess(CHAOS_LOAD * shard_capacity),
        ModelMix(zoo),
        seed=23,
    )
    trace = traffic.runtime_trace(CHAOS_REQUESTS)
    horizon = max(r.arrival_s for r in trace)
    schedule = FaultSchedule(seed=7)
    for quarter, shard in enumerate((1, 2, 3), start=1):
        kill_shard(schedule, fabric, shard, horizon * quarter / 4.0)
    result = serve_fabric_open_loop(
        fabric,
        trace,
        AdmissionController(AcceptAll()),
        fault_schedule=schedule,
        retry_policy=RetryPolicy(max_retries=2, backoff_s=1e-6),
    )
    return fabric, result


@pytest.fixture(scope="module")
def chaos_campaign():
    return {
        "replicated": chaos_run(replicas=2, auto_heal=True),
        "unreplicated": chaos_run(replicas=1, auto_heal=False),
    }


def test_chaos_report(chaos_campaign, report_writer):
    rows = []
    for label, (fabric, result) in chaos_campaign.items():
        rows.append(
            [
                label,
                result.offered,
                result.served,
                result.failed_over,
                result.failovers,
                len(fabric.placement.heals),
                100.0 * result.goodput,
            ]
        )
    report_writer(
        "chaos_failover",
        format_table(
            [
                "Scenario", "Offered", "Served", "Failed over",
                "Failovers", "Heals", "Goodput (%)",
            ],
            rows,
            title=(
                f"Rolling shard failures — {CHAOS_SHARDS} shards, "
                f"{len(CHAOS_WIDTHS)}-model zoo, "
                f"{CHAOS_REQUESTS} open-loop requests, one shard "
                "killed at each quarter mark"
            ),
        ),
    )


def test_replicated_failover_sustains_goodput(chaos_campaign):
    """Acceptance: N=2 replication + failover routing holds >= 95%
    goodput through three rolling shard deaths."""
    fabric, result = chaos_campaign["replicated"]
    assert result.offered == CHAOS_REQUESTS
    assert result.goodput >= 0.95
    assert result.failovers > 0


def test_unreplicated_fleet_collapses(chaos_campaign):
    """The ablation: without replicas the same fault schedule strands
    every model homed on a dead shard."""
    _, result = chaos_campaign["unreplicated"]
    assert result.offered == CHAOS_REQUESTS
    assert result.goodput < 0.75
    assert result.failed_over > 0
    # Replication's goodput gain reads 1.653x here (virtual clock: the
    # same on every host); 1.32 is 0.8x the 1.640x the perf harness's
    # 20 000-request copy of this campaign used to hold to a baseline.
    _, replicated = chaos_campaign["replicated"]
    assert replicated.goodput / result.goodput >= 1.32


def test_chaos_extended_invariant_exact(chaos_campaign):
    """Acceptance: served + dropped + failed + unfinished + shed +
    failed_over == offered, term by term, in both scenarios."""
    for _, result in chaos_campaign.values():
        assert result.accounted()
        total = (
            result.served
            + result.dropped
            + result.failed
            + result.unfinished
            + result.shed
            + result.failed_over
        )
        assert total == result.offered == CHAOS_REQUESTS
