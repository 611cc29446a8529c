"""Which public methods the traced pass wraps, and the per-layer ledger.

Span names are the layer's module path (``photonics.core.noise``,
``runtime.cluster`` ...).  :func:`wrap_setup` covers what a *build*
calls (and is applied before the stack exists, so forked workers
inherit only those wrappers); :func:`wrap_serving` covers what a
*serve* calls and is applied after the build.  Calls cheaper than
~20 us (register writes, queue push/pop, the fleet engine's per-request
``observe``/``charge``/``admit_occupancy``) are not wrapped — the
tracer would measure itself — they are counted from result objects.

:data:`PER_LAYER` is the one table of per-layer metrics: name, unit,
direction, and the end-to-end metric and workload each should move
(``BENCHMARK.json`` carries the first three, the README the rest).
"""

from __future__ import annotations

from repro.core import plans
from repro.core.dag import DAGConfigurationLoader
from repro.core.datapath import LightningDatapath
from repro.core.memory import MemoryController
from repro.core.stats import ServerStats
from repro.fabric import Fabric
from repro.net.parser import PacketParser
from repro.photonics import BehavioralCore
from repro.runtime import Cluster
from repro.runtime.parallel import CoreWorkerPool
from repro.traffic import (
    AdmissionController,
    ModelMix,
    MMPPProcess,
    PoissonProcess,
    gateway,
)

from spans import SpanRecorder

__all__ = ["PER_LAYER", "wrap_setup", "wrap_serving", "per_layer_metrics"]

#: (name, unit, better, moves, on) — the contract's per-layer metrics.
PER_LAYER = [
    ("photonics.core.noise_us_per_req", "us", "lower",
     "host_rps, host_cpu_us_per_req", "stack_compute"),
    ("photonics.core.accumulate_us_per_req", "us", "lower",
     "host_rps, host_cpu_us_per_req", "stack_compute"),
    ("photonics.core.matmul_us_per_req", "us", "lower",
     "host_rps, host_cpu_us_per_req", "stack_compute"),
    ("photonics.core.calls_per_req", "count", "lower",
     "host_rps", "stack_compute"),
    ("core.plans.self_us_per_layer", "us", "lower",
     "host_rps, host_cpu_us_per_req", "stack_compute"),
    ("core.plans.replays", "count", "higher", "host_rps", "stack_compute"),
    ("core.datapath.exec_self_us_per_req", "us", "lower",
     "host_rps", "stack_compute, stack_control"),
    ("core.datapath.dryrun_us_per_dispatch", "us", "lower",
     "host_rps", "stack_parallel"),
    ("core.datapath.register_ms", "ms", "lower", "setup_s", "stack_*"),
    ("core.dag.configure_us_per_layer", "us", "lower",
     "host_rps", "stack_control"),
    ("core.memory.stream_us_per_layer", "us", "lower",
     "host_rps", "stack_control"),
    ("core.memory.cache_hit_share", "share", "higher",
     "sim_p50_us", "stack_control"),
    ("core.memory.dram_reads_per_req", "count", "lower",
     "sim_p50_us", "stack_control"),
    ("core.datapath.sim_td_us", "us", "lower",
     "sim_p50_us, sim_energy_mj_per_inf", "stack_compute"),
    ("core.datapath.sim_tc_us", "us", "lower",
     "sim_p50_us, sim_energy_mj_per_inf", "stack_compute"),
    ("core.stats.record_us_per_req", "us", "lower",
     "host_rps", "stack_control, model_sweep"),
    ("net.parser.us_per_frame", "us", "lower", "host_rps", "stack_control"),
    ("net.parser.frames", "count", "higher", "host_rps", "stack_control"),
    ("net.parser.punt_share", "share", "lower", "host_rps", "stack_control"),
    ("faults.wire.ingest_self_us_per_frame", "us", "lower",
     "host_rps", "stack_control"),
    ("traffic.mix.gen_us_per_req", "us", "lower", "host_rps", "model_sweep"),
    ("traffic.arrivals.take_us_per_req", "us", "lower",
     "host_rps", "model_sweep"),
    ("traffic.admission.calls", "count", "lower",
     "host_rps", "stack_control, model_sweep"),
    ("traffic.admission.us_per_call", "us", "lower",
     "host_rps", "stack_control"),
    ("traffic.admission.shed_share", "share", "lower",
     "sim_goodput, sim_p99_us", "stack_control, model_sweep"),
    ("traffic.gateway.self_us_per_req", "us", "lower",
     "host_rps", "stack_control"),
    ("traffic.gateway.probe_ms", "ms", "lower", "setup_s", "stack_*"),
    ("traffic.gateway.stolen_share", "share", "higher",
     "sim_p99_us", "stack_control"),
    ("fabric.router.calls", "count", "lower", "host_rps", "stack_control"),
    ("fabric.router.us_per_call", "us", "lower",
     "host_rps", "stack_control"),
    ("fabric.router.failover_share", "share", "lower",
     "sim_p99_us, sim_goodput", "stack_control"),
    ("fabric.fabric.shard_imbalance", "share", "lower",
     "sim_p99_us, sim_goodput", "stack_control"),
    ("fabric.fabric.self_us_per_req", "us", "lower",
     "host_rps", "stack_control"),
    ("fabric.fabric.recovered", "count", "higher",
     "sim_goodput", "stack_control"),
    ("fabric.lifecycle.heals", "count", "higher",
     "sim_goodput", "stack_control"),
    ("fabric.lifecycle.deploy_ms", "ms", "lower", "setup_s", "stack_*"),
    ("runtime.cluster.self_us_per_req", "us", "lower",
     "host_rps", "stack_control, stack_parallel"),
    ("runtime.cluster.dispatches", "count", "lower",
     "host_rps", "stack_control"),
    ("runtime.cluster.mean_batch", "count", "higher",
     "host_rps", "stack_control"),
    ("runtime.cluster.retries", "count", "lower",
     "sim_p99_us", "stack_control"),
    ("runtime.cluster.sim_tq_share", "share", "lower",
     "sim_p99_us, sim_goodput", "stack_control"),
    ("runtime.cluster.sim_utilization", "share", "higher",
     "sim_p99_us, sim_goodput", "stack_control"),
    ("runtime.parallel.fork_ms", "ms", "lower", "setup_s", "stack_parallel"),
    ("runtime.parallel.publish_ms", "ms", "lower",
     "setup_s", "stack_parallel"),
    ("runtime.parallel.submit_us_per_dispatch", "us", "lower",
     "host_rps, host_cpu_us_per_req", "stack_parallel"),
    ("runtime.parallel.join_us_per_dispatch", "us", "lower",
     "host_rps, host_cpu_us_per_req", "stack_parallel"),
    ("runtime.parallel.parent_wait_share", "share", "lower",
     "host_rps", "stack_parallel"),
    ("runtime.parallel.worker_cpu_us_per_req", "us", "lower",
     "host_cpu_us_per_req", "stack_parallel"),
    ("runtime.parallel.wall_ratio_vs_serial", "ratio", "higher",
     "host_rps", "stack_parallel"),
    ("traffic.fleet.self_us_per_req", "us", "lower",
     "host_rps", "model_sweep"),
    ("traffic.fleet.shed_share", "share", "lower",
     "sim_goodput", "model_sweep"),
    ("traffic.fleet.stolen_share", "share", "higher",
     "sim_goodput", "model_sweep"),
    ("sim.simulator.us_per_req", "us", "lower", "host_rps", "model_sweep"),
    ("sim.workload.gen_us_per_req", "us", "lower",
     "host_rps", "model_sweep"),
    ("host.burn_ms", "ms", "lower", "context for every host metric", "all"),
    ("host.parallel_capacity", "ratio", "higher",
     "bounds wall_ratio_vs_serial", "all"),
    ("trace.overhead_share", "share", "lower",
     "context for every per-layer time", "all"),
    ("trace.ledger_share", "share", "higher",
     "layer self times (root span excluded) / traced serve wall, "
     "checked within 5%", "all"),
]


def wrap_setup(recorder: SpanRecorder) -> None:
    """Wrap what a build calls.  Apply before the stack is built."""
    recorder.wrap(
        LightningDatapath, "register_model", "core.datapath.register"
    )
    recorder.wrap(Fabric, "deploy", "fabric.lifecycle.deploy")
    recorder.wrap(CoreWorkerPool, "__init__", "runtime.parallel.fork")
    recorder.wrap(CoreWorkerPool, "deploy", "runtime.parallel.publish")


def _wrap_samplers(recorder: SpanRecorder, process_class) -> None:
    """Time ``take`` on every sampler the arrival process hands out
    (samplers are private classes; their factory is the public seam)."""
    original = process_class.sampler

    def sampler(self, rng):
        made = original(self, rng)
        recorder.wrap(made, "take", "traffic.arrivals.take")
        return made

    recorder.patch(process_class, "sampler", sampler)


def wrap_serving(recorder: SpanRecorder, router=None) -> None:
    """Wrap what a serve calls.  Apply after the stack is built, so
    worker processes forked by the build run unwrapped code."""
    wrap = recorder.wrap
    wrap(BehavioralCore, "readout_noise_into", "photonics.core.noise")
    wrap(BehavioralCore, "accumulate_into", "photonics.core.accumulate")
    wrap(BehavioralCore, "matmul", "photonics.core.matmul")
    for plan_class in (
        plans.DensePlan, plans.ConvPlan, plans.AttentionPlan, plans.PoolPlan
    ):
        wrap(plan_class, "execute", "core.plans")
    wrap(LightningDatapath, "execute", "core.datapath.exec")
    wrap(LightningDatapath, "execute_batch", "core.datapath.exec")
    wrap(LightningDatapath, "execute_timing", "core.datapath.dryrun")
    wrap(LightningDatapath, "execute_batch_timing", "core.datapath.dryrun")
    wrap(DAGConfigurationLoader, "configure_layer", "core.dag.configure")
    wrap(MemoryController, "stream_weights", "core.memory.stream")
    wrap(MemoryController, "load_kernel", "core.memory.stream")
    wrap(ServerStats, "record", "core.stats.record")
    wrap(ServerStats, "record_energy", "core.stats.record")
    wrap(ServerStats, "merge", "core.stats.record")
    wrap(PacketParser, "parse", "net.parser")
    wrap(AdmissionController, "admit", "traffic.admission")
    wrap(gateway, "probe_service_estimates", "traffic.gateway.probe")
    if router is not None:
        wrap(type(router), "route", "fabric.router")
    wrap(Fabric, "serve_routed", "fabric.fabric")
    wrap(Cluster, "serve_trace", "runtime.cluster")
    wrap(CoreWorkerPool, "run", "runtime.parallel.submit")
    wrap(CoreWorkerPool, "flush", "runtime.parallel.submit")
    wrap(CoreWorkerPool, "result", "runtime.parallel.join")
    wrap(CoreWorkerPool, "drain", "runtime.parallel.join")
    wrap(ModelMix, "sample", "traffic.mix.gen")
    for process_class in (PoissonProcess, MMPPProcess):
        _wrap_samplers(recorder, process_class)


def per_layer_metrics(
    ledger: dict[str, dict[str, float]],
    setup: dict[str, dict[str, float]],
    counters: dict[str, float],
    extra: dict[str, float],
) -> dict[str, float]:
    """Every :data:`PER_LAYER` value for one traced round.

    ``ledger`` and ``setup`` are :func:`spans.rollup` tables of the
    traced serve and the traced build, ``counters`` the round's result
    counts (see ``workloads.py``), ``extra`` the values the runner
    measures itself (``host.*``, ``trace.*``, worker CPU, wall ratio).
    Metrics of layers a workload never enters are 0.
    """

    def row(name: str, table=ledger) -> dict[str, float]:
        return table.get(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})

    def per(seconds: float, count: float) -> float:
        return seconds * 1e6 / count if count else 0.0

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    c = counters.get
    requests = c("offered", 0) or c("fleet_offered", 0)
    served = c("served", 0)
    frames = c("frames", 0)
    core_calls = sum(
        row(f"photonics.core.{kind}")["calls"]
        for kind in ("noise", "accumulate", "matmul")
    )
    dryruns = row("core.datapath.dryrun")["calls"]
    submits = row("runtime.parallel.submit")["calls"]
    reads, hits = c("dram_reads", 0), c("cache_hits", 0)
    fleet_offered = c("fleet_offered", 0)
    values = {
        "photonics.core.noise_us_per_req": per(
            row("photonics.core.noise")["self_s"], requests),
        "photonics.core.accumulate_us_per_req": per(
            row("photonics.core.accumulate")["self_s"], requests),
        "photonics.core.matmul_us_per_req": per(
            row("photonics.core.matmul")["self_s"], requests),
        "photonics.core.calls_per_req": share(core_calls, requests),
        "core.plans.self_us_per_layer": per(
            row("core.plans")["self_s"], row("core.plans")["calls"]),
        "core.plans.replays": c("replays", 0),
        "core.datapath.exec_self_us_per_req": per(
            row("core.datapath.exec")["self_s"], requests),
        "core.datapath.dryrun_us_per_dispatch": per(
            row("core.datapath.dryrun")["total_s"], dryruns),
        "core.datapath.register_ms": row(
            "core.datapath.register", setup)["total_s"] * 1e3,
        "core.dag.configure_us_per_layer": per(
            row("core.dag.configure")["total_s"],
            row("core.dag.configure")["calls"]),
        "core.memory.stream_us_per_layer": per(
            row("core.memory.stream")["total_s"],
            row("core.memory.stream")["calls"]),
        "core.memory.cache_hit_share": share(hits, hits + reads),
        "core.memory.dram_reads_per_req": share(reads, served),
        "core.datapath.sim_td_us": per(c("td_s", 0.0), served),
        "core.datapath.sim_tc_us": per(c("tc_s", 0.0), served),
        "core.stats.record_us_per_req": extra.get(
            "core.stats.record_us_per_req",
            per(row("core.stats.record")["total_s"], requests)),
        "net.parser.us_per_frame": per(row("net.parser")["total_s"], frames),
        "net.parser.frames": frames,
        "net.parser.punt_share": share(c("punted", 0), frames),
        "faults.wire.ingest_self_us_per_frame": per(
            row("faults.wire.ingest")["self_s"], frames),
        "traffic.mix.gen_us_per_req": per(
            row("traffic.mix.gen")["total_s"], requests),
        "traffic.arrivals.take_us_per_req": per(
            row("traffic.arrivals.take")["total_s"], requests),
        "traffic.admission.calls": (
            row("traffic.admission")["calls"] or fleet_offered),
        "traffic.admission.us_per_call": per(
            row("traffic.admission")["total_s"],
            row("traffic.admission")["calls"]),
        "traffic.admission.shed_share": share(c("shed", 0), requests),
        "traffic.gateway.self_us_per_req": per(
            row("traffic.gateway")["self_s"], requests),
        "traffic.gateway.probe_ms": row(
            "traffic.gateway.probe", setup)["total_s"] * 1e3,
        "traffic.gateway.stolen_share": (
            share(c("stolen", 0), served) if frames else 0.0),
        "fabric.router.calls": row("fabric.router")["calls"],
        "fabric.router.us_per_call": per(
            row("fabric.router")["total_s"], row("fabric.router")["calls"]),
        "fabric.router.failover_share": share(c("failovers", 0), requests),
        "fabric.fabric.shard_imbalance": c("shard_imbalance", 0.0),
        "fabric.fabric.self_us_per_req": per(
            row("fabric.fabric")["self_s"], requests),
        "fabric.fabric.recovered": c("recovered", 0),
        "fabric.lifecycle.heals": c("heals", 0),
        "fabric.lifecycle.deploy_ms": row(
            "fabric.lifecycle.deploy", setup)["total_s"] * 1e3,
        "runtime.cluster.self_us_per_req": per(
            row("runtime.cluster")["self_s"], requests),
        "runtime.cluster.dispatches": c("dispatches", 0.0),
        "runtime.cluster.mean_batch": share(c("batch_sum", 0.0), served),
        "runtime.cluster.retries": c("retries", 0),
        "runtime.cluster.sim_tq_share": share(
            c("tq_s", 0.0),
            c("tq_s", 0.0) + c("td_s", 0.0) + c("tc_s", 0.0)),
        "runtime.cluster.sim_utilization": share(
            c("busy_s", 0.0), c("core_horizon_s", 0.0)),
        "runtime.parallel.fork_ms": row(
            "runtime.parallel.fork", setup)["total_s"] * 1e3,
        "runtime.parallel.publish_ms": row(
            "runtime.parallel.publish", setup)["total_s"] * 1e3,
        "runtime.parallel.submit_us_per_dispatch": per(
            row("runtime.parallel.submit")["total_s"], submits),
        "runtime.parallel.join_us_per_dispatch": per(
            row("runtime.parallel.join")["total_s"], submits),
        # Wall-attributed (scaled) self time: shard threads overlap, so
        # raw thread time would count the same wall twice.
        "runtime.parallel.parent_wait_share": share(
            row("runtime.parallel.submit")["self_s"]
            + row("runtime.parallel.join")["self_s"],
            extra["serve_wall_s"] if submits else 0.0),
        "traffic.fleet.self_us_per_req": per(
            row("traffic.fleet")["self_s"], fleet_offered),
        "traffic.fleet.shed_share": (
            share(c("shed", 0), fleet_offered) if fleet_offered else 0.0),
        "traffic.fleet.stolen_share": (
            share(c("stolen", 0), c("fleet_served", 0))
            if fleet_offered else 0.0),
        "sim.simulator.us_per_req": per(
            row("sim.simulator")["total_s"], c("sim_requests", 0)),
        "sim.workload.gen_us_per_req": per(
            row("sim.workload.gen")["total_s"], c("sim_requests", 0)),
    }
    for name, _, _, _, _ in PER_LAYER:
        if name not in values:
            values[name] = extra.get(name, 0.0)
    return values
