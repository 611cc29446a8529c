"""The perf benchmark harness: fast path vs loop path, and the cluster.

Seven benchmarks, all emitting machine-readable JSON so the performance
trajectory is tracked PR over PR:

* **Emulator** (``BENCH_emulator.json``) — a LeNet-class dense DAG
  (784-300-100-10) served request by request on two identically seeded
  datapaths, one replaying compiled plans (``fidelity="fast"``) and one
  walking the per-row loops (``fidelity="loop"``).  Reports wall-clock
  throughput for both, the speedup, and verifies the contract: bit-
  identical predictions and bit-identical cycle ledgers.
* **Cluster** (``BENCH_cluster.json``) — a multi-core
  :class:`~repro.runtime.cluster.Cluster` serving a Poisson trace,
  reporting wall-clock serve time, requests per wall second, the
  plan-cache replay counters, and the gated ratio to the per-row loop
  walk over the same requests (bare ``fidelity="loop"`` datapaths).
* **Parallel** (``BENCH_parallel.json``) — the same cluster workload
  served twice per core count (1/2/4), once on the serial event loop
  and once with ``execution="parallel"`` (one worker process per core
  replaying shared-memory plans, dispatched through windowed ring
  buffers).  Reports the serial/parallel wall-clock speedup per core
  count and asserts the determinism contract: both modes must produce
  bit-identical :class:`~repro.runtime.cluster.ClusterResult` records.
  Every row carries a ``wall_meaningful`` flag (workers fit the host's
  *effective* CPUs — ``os.cpu_count()`` capped by scheduler affinity),
  and the gated ``parallel_speedup_4c`` ratio is only emitted when at
  least four effective CPUs exist — on fewer the worker processes
  time-slice one socket and the scaling number is meaningless.
* **Fabric** (``BENCH_fabric.json``) — the same full-load trace served
  by a :class:`~repro.fabric.Fabric` of 1, 2, and 4 two-core shards.
  The gated ``fabric_speedup_4s`` is the ratio of *virtual-clock*
  makespans (one shard's horizon over four shards'), so it measures
  the control plane's scaling — how well the shard router spreads the
  load — and is exactly reproducible on any host.  On hosts with at
  least four effective CPUs a second, wall-clock pass runs the same
  trace on fabrics of *parallel-execution* shards (long-lived worker
  processes, thread-concurrent shard serving) and emits
  ``fabric_wall_ratio_4s`` — one-shard wall over four-shard wall,
  which must exceed 1.0 for the fabric to scale in real time.
* **Traffic** (``BENCH_traffic.json``) — open-loop Poisson campaigns
  through the :mod:`~repro.traffic` fleet engine at three offered
  loads (0.8x, 2x, 3x capacity), each served under accept-all and
  queue-backpressure admission.  Reports SLO goodput and p99 per
  (load, policy), engine wall-clock throughput, and process peak RSS.
  The gated ``backpressure_goodput_gain_2x`` — backpressure goodput
  over accept-all goodput at 2x overload — runs on the virtual clock,
  so it is bit-identical on every host.
* **Failover** (``BENCH_failover.json``) — rolling shard failures on
  an emulated fabric: a 7-model stand-in zoo served open-loop while
  one shard dies at each quarter of the horizon, once with N=2
  replication behind a :class:`~repro.fabric.FailoverRouter`
  (auto-heal on) and once with bare N=1 placement.  The gated
  ``failover_goodput_gain`` is the replicated/unreplicated goodput
  ratio — virtual clock, bit-identical everywhere.
* **Energy** (``BENCH_energy.json``) — the energy spine's two
  numbers.  The same cluster trace served with the per-request energy
  ledger on and off must stay within a 5% wall-clock overhead budget
  (hard-asserted, median of alternated on/off rounds).  The 4-shard fleet
  engine then serves the same Zipf traffic on Lightning, A100, and P4
  platform models and reports joules-per-inference per platform; the
  gated ``energy_per_inference_ratio`` (A100 over Lightning) is
  virtual-clock, bit-identical everywhere.

Run from a checkout::

    PYTHONPATH=src python -m repro.perf.bench --out-dir reports/
    PYTHONPATH=src python -m repro.perf.bench --check benchmarks/baselines

``--check`` compares fresh numbers against checked-in baselines and
exits non-zero on a throughput regression beyond
:data:`REGRESSION_THRESHOLD` (CI's perf gate).  Absolute throughput
varies across machines, so the gate compares *ratios* measured on the
same host in the same run: the fast/loop speedup for the emulator and
the per-request wall cost normalized by the loop path's for the cluster.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import sys
import time

import numpy as np

from ..core.dag import ComputationDAG
from ..core.datapath import LightningDatapath
from ..dnn import build_lenet_300_100, quantize_mlp
from ..photonics import BehavioralCore
from ..runtime import Cluster
from ..runtime.workload import poisson_trace
from .timers import PhaseTimer

__all__ = [
    "REGRESSION_THRESHOLD",
    "effective_cpus",
    "lenet_class_dag",
    "gpt2_class_dag",
    "bench_emulator",
    "bench_cluster",
    "bench_parallel",
    "bench_fabric",
    "bench_traffic",
    "bench_failover",
    "bench_energy",
    "write_report",
    "check_regression",
    "main",
]

#: CI fails when a gated metric regresses by more than this fraction.
REGRESSION_THRESHOLD = 0.20


def effective_cpus() -> int:
    """CPUs this process can actually run on.

    ``os.cpu_count()`` reports the host's sockets even inside a
    container or cgroup pinned to fewer — which is how a "1 CPU"
    baseline once recorded a meaningless 0.58x four-worker "speedup".
    Scheduler affinity caps the count where the platform exposes it.
    """
    cpus = os.cpu_count() or 1
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        affinity = cpus
    return max(min(cpus, affinity), 1)

#: The metrics the CI gate compares, per benchmark.  Machine-relative
#: ratios only — absolute throughput is not comparable across hosts.
GATED_METRICS = {
    "BENCH_emulator": ["speedup"],
    "BENCH_cluster": ["fast_loop_serve_ratio"],
    # Only present when the measuring host has >= 4 *effective* CPUs;
    # the gate skips it otherwise (same-host ratios only, like the
    # rest).
    "BENCH_parallel": ["parallel_speedup_4c"],
    # Virtual-clock makespan ratio: machine-independent by design.
    # (fabric_wall_ratio_4s is reported but CI-gated by the dedicated
    # wall-clock job, not the regression gate — wall ratios on shared
    # runners are too noisy for a 20% band.)
    "BENCH_fabric": ["fabric_speedup_4s"],
    # Virtual-clock goodput ratio at 2x overload: machine-independent.
    "BENCH_traffic": ["backpressure_goodput_gain_2x"],
    # Replicated-vs-unreplicated goodput under rolling shard kills:
    # virtual clock again, bit-identical everywhere.
    "BENCH_failover": ["failover_goodput_gain"],
    # A100-over-Lightning joules per inference on the virtual-clock
    # fleet engine: bit-identical across hosts, zero-noise gate.  (The
    # <5% serve-path overhead budget is hard-asserted inside the
    # benchmark itself, not threshold-gated.)
    "BENCH_energy": ["energy_per_inference_ratio"],
}


def lenet_class_dag(seed: int = 0, model_id: int = 1) -> ComputationDAG:
    """A LeNet-300-100-class dense DAG with random weights.

    Random (untrained) weights keep the harness fast and deterministic;
    the perf profile depends only on layer shapes, which match the
    paper's LeNet benchmark exactly (784-300-100-10, 266,200 MACs).
    """
    rng = np.random.default_rng(seed)
    model = build_lenet_300_100(rng)
    calibration = rng.uniform(0.0, 255.0, size=(64, 784))
    return quantize_mlp(
        model, calibration, model_id=model_id, name="lenet-class"
    )


def gpt2_class_dag(
    seed: int = 0,
    model_id: int = 1,
    blocks: int = 12,
    seq_len: int = 8,
    d_model: int = 16,
) -> ComputationDAG:
    """A GPT-2-class transformer stand-in: attention + MLP blocks.

    Twelve blocks of one self-attention task (stacked
    ``[Wq; Wk; Wv; Wo]`` projections) followed by one dense MLP task,
    capped by a dense classifier head — 25 layers at the defaults.
    The geometry is scaled down (the timing dry-run's cost is per
    *layer*, not per MAC, so layer count is what the dry-run benchmark
    must match), but the layer mix is the paper's §9 GPT-2 shape:
    alternating attention and feed-forward, classifier last.
    """
    from ..core.dag import AttentionShape, LayerTask

    rng = np.random.default_rng(seed)
    width = seq_len * d_model
    attn = AttentionShape(seq_len=seq_len, d_model=d_model)
    tasks: list[LayerTask] = []
    previous: tuple[str, ...] = ()
    for block in range(blocks):
        attn_name = f"block{block}.attn"
        mlp_name = f"block{block}.mlp"
        tasks.append(
            LayerTask(
                name=attn_name, kind="attention",
                input_size=attn.input_size,
                output_size=attn.output_size,
                weights_levels=rng.integers(
                    -200, 201, (4 * d_model, d_model)
                ).astype(float),
                attention=attn,
                depends_on=previous,
                requant_divisor=4.0,
            )
        )
        tasks.append(
            LayerTask(
                name=mlp_name, kind="dense",
                input_size=width, output_size=width,
                weights_levels=rng.integers(
                    -200, 201, (width, width)
                ).astype(float),
                nonlinearity="relu",
                depends_on=(attn_name,),
                requant_divisor=float(width),
            )
        )
        previous = (mlp_name,)
    tasks.append(
        LayerTask(
            name="head", kind="dense",
            input_size=width, output_size=10,
            weights_levels=rng.integers(
                -200, 201, (10, width)
            ).astype(float),
            depends_on=previous,
        )
    )
    return ComputationDAG(model_id, "gpt2-class", tasks)


def _datapath(fidelity: str, seed: int) -> LightningDatapath:
    return LightningDatapath(
        core=BehavioralCore(seed=seed), fidelity=fidelity, seed=seed
    )


def _ledger(execution) -> list[int]:
    return [layer.compute_cycles for layer in execution.layers]


def bench_emulator(
    requests: int = 64, seed: int = 0, dag: ComputationDAG | None = None
) -> dict:
    """Fast path vs loop path on a LeNet-class emulation benchmark.

    Both datapaths share one seed, so the compiled path must reproduce
    the loop path's predictions and per-layer cycle ledgers bit for bit
    (asserted here, not just reported).
    """
    if requests < 1:
        raise ValueError("need at least one request")
    dag = dag if dag is not None else lenet_class_dag(seed)
    inputs = np.random.default_rng(seed + 1).integers(
        0, 256, size=(requests, dag.tasks[0].input_size)
    ).astype(np.float64)

    timer = PhaseTimer()
    datapaths: dict[str, LightningDatapath] = {}
    results: dict[str, dict] = {}
    for fidelity in ("fast", "loop"):
        datapaths[fidelity] = _datapath(fidelity, seed)
        with timer.phase(f"register:{fidelity}"):
            datapaths[fidelity].register_model(dag)
        # One warm-up request outside the timed window (first-touch
        # costs: sign-separation cache on the loop path, scratch pages
        # on the fast path).
        datapaths[fidelity].execute(dag.model_id, inputs[0])
        results[fidelity] = {
            "wall_s": 0.0,
            "round_walls": [],
            "predictions": np.empty(requests, dtype=np.int64),
            "ledgers": [],
        }
    # Interleave small alternating rounds so CPU frequency drift during
    # the run biases neither side of the ratio; per-round walls let the
    # throughput metric reject rounds disturbed by OS noise.
    round_size = 8
    for lo in range(0, requests, round_size):
        hi = min(lo + round_size, requests)
        for fidelity in ("fast", "loop"):
            datapath = datapaths[fidelity]
            record = results[fidelity]
            start = time.perf_counter()
            for i in range(lo, hi):
                execution = datapath.execute(dag.model_id, inputs[i])
                record["predictions"][i] = execution.prediction
                record["ledgers"].append(_ledger(execution))
            elapsed = time.perf_counter() - start
            record["wall_s"] += elapsed
            record["round_walls"].append((elapsed, hi - lo))
    for fidelity, record in results.items():
        # Mean throughput answers "what did this run sustain"; the
        # best interleaved round answers "what can this machine do" —
        # the standard min-of-N estimator that rejects scheduler and
        # frequency-scaling noise, and the one the speedup ratio uses
        # (both paths' best rounds come from the same machine regime).
        best_per_request = min(
            wall / count for wall, count in record["round_walls"]
        )
        record["best_round_rps"] = 1.0 / best_per_request
        record["throughput_rps"] = requests / record["wall_s"]
        timer.add(f"serve:{fidelity}", record["wall_s"], requests)

    fast, loop = results["fast"], results["loop"]
    predictions_identical = bool(
        np.array_equal(fast["predictions"], loop["predictions"])
    )
    ledgers_identical = fast["ledgers"] == loop["ledgers"]
    if not predictions_identical:
        raise AssertionError(
            "fast-path predictions diverged from the loop path"
        )
    if not ledgers_identical:
        raise AssertionError(
            "fast-path cycle ledgers diverged from the loop path"
        )
    return {
        "benchmark": "emulator",
        "model": dag.name,
        "requests": requests,
        "seed": seed,
        "fast_throughput_rps": fast["throughput_rps"],
        "loop_throughput_rps": loop["throughput_rps"],
        "fast_best_round_rps": fast["best_round_rps"],
        "loop_best_round_rps": loop["best_round_rps"],
        "fast_wall_s": fast["wall_s"],
        "loop_wall_s": loop["wall_s"],
        "speedup": fast["best_round_rps"] / loop["best_round_rps"],
        "mean_speedup": fast["throughput_rps"] / loop["throughput_rps"],
        "predictions_identical": predictions_identical,
        "cycle_ledgers_identical": ledgers_identical,
        "compile_s": timer.seconds("register:fast"),
        "phases": timer.summary(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def bench_cluster(
    requests: int = 128,
    num_cores: int = 4,
    max_batch: int = 4,
    seed: int = 0,
) -> dict:
    """Cluster serving wall-clock against the per-row loop walk.

    Serves one Poisson trace on a cluster, then runs the requests it
    served through ``execute`` on bare ``fidelity="loop"`` datapaths
    (each on the core index that served it), and reports the wall-clock
    ratio — the machine-independent gated metric — plus the cluster's
    absolute numbers and plan-cache replay counters.
    """
    if requests < 1:
        raise ValueError("need at least one request")
    dag = lenet_class_dag(seed)
    fast_cluster = Cluster(
        num_cores=num_cores,
        datapath_factory=lambda core: _datapath("fast", core),
        max_batch=max_batch,
    )
    fast_cluster.deploy(dag)
    rate = 2_000_000.0  # arrivals much faster than service: full load
    trace = poisson_trace([dag], rate, requests, seed=seed)
    start = time.perf_counter()
    result = fast_cluster.serve_trace(trace)
    fast_wall = time.perf_counter() - start
    walkers = [_datapath("loop", core) for core in range(num_cores)]
    zeros = np.zeros(dag.tasks[0].input_size)
    for walker in walkers:
        walker.register_model(dag)
        walker.execute(dag.model_id, zeros)  # warm, as deploy does
    start = time.perf_counter()
    for record in result.records:
        walkers[record.core].execute(
            dag.model_id, record.request.data_levels
        )
    loop_wall = time.perf_counter() - start
    replays = sum(
        stats.get(dag.model_id, {}).get("replays", 0)
        for stats in fast_cluster.plan_stats().values()
    )
    return {
        "benchmark": "cluster",
        "model": dag.name,
        "requests": requests,
        "served": len(result.records),
        "num_cores": num_cores,
        "max_batch": max_batch,
        "seed": seed,
        "fast_wall_s": fast_wall,
        "loop_wall_s": loop_wall,
        "fast_requests_per_wall_s": requests / fast_wall,
        # >1.0 means serving beats the walk over the same requests; the
        # gate watches this ratio, not absolute throughput.
        "fast_loop_serve_ratio": loop_wall / fast_wall,
        "plan_replays": replays,
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def _results_identical(serial, parallel) -> bool:
    """Bit-exact comparison of two :class:`ClusterResult` objects.

    The determinism contract the parallel executor guarantees: every
    served record (assignment, timing, prediction), every drop, and the
    aggregate accounting must match the serial event loop exactly — not
    approximately.
    """
    if len(serial.records) != len(parallel.records):
        return False
    for s, p in zip(serial.records, parallel.records):
        if (
            s.request.request_id != p.request.request_id
            or s.core != p.core
            or s.batch_size != p.batch_size
            or s.queuing_s != p.queuing_s
            or s.datapath_s != p.datapath_s
            or s.compute_s != p.compute_s
            or s.finish_s != p.finish_s
            or s.prediction != p.prediction
        ):
            return False

    def ids(requests) -> list[int]:
        return [request.request_id for request in requests]

    return (
        ids(serial.dropped) == ids(parallel.dropped)
        and ids(serial.failed) == ids(parallel.failed)
        and sorted(ids(serial.unfinished)) == sorted(ids(parallel.unfinished))
        and serial.busy_seconds == parallel.busy_seconds
        and serial.horizon_s == parallel.horizon_s
    )


def bench_parallel(
    requests: int = 96,
    core_counts: tuple[int, ...] = (1, 2, 4),
    max_batch: int = 4,
    window: int = 8,
    seed: int = 0,
) -> dict:
    """Process-parallel serving vs the serial event loop, per core count.

    For each core count the same Poisson trace is served twice on
    identically seeded fast-fidelity clusters — once serially, once
    with ``execution="parallel"`` (windowed ring dispatch) — and the
    results are required to be bit-identical (the determinism contract
    is asserted, not just reported).  The wall-clock ratio per core
    count is the scaling curve; each row's ``wall_meaningful`` flag
    says whether that many workers actually fit the host
    (``num_cores <= effective_cpus``), and ``parallel_speedup_4c`` is
    emitted only on hosts with at least four effective CPUs, where the
    four worker processes genuinely run concurrently.
    """
    if requests < 1:
        raise ValueError("need at least one request")
    dag = lenet_class_dag(seed)
    rate = 2_000_000.0  # arrivals much faster than service: full load
    cpus = os.cpu_count() or 1
    effective = effective_cpus()
    scaling: list[dict] = []
    for num_cores in core_counts:
        trace = poisson_trace([dag], rate, requests, seed=seed)
        results = {}
        walls: dict[str, float] = {}
        for execution in ("serial", "parallel"):
            cluster = Cluster(
                num_cores=num_cores,
                datapath_factory=lambda core: LightningDatapath(
                    core=BehavioralCore(seed=core),
                    fidelity="fast",
                    seed=core,
                ),
                max_batch=max_batch,
                execution=execution,
                window=window,
            )
            try:
                cluster.deploy(dag)
                start = time.perf_counter()
                results[execution] = cluster.serve_trace(trace)
                walls[execution] = time.perf_counter() - start
            finally:
                cluster.close()
        if not _results_identical(results["serial"], results["parallel"]):
            raise AssertionError(
                f"parallel results diverged from serial at "
                f"{num_cores} cores"
            )
        scaling.append(
            {
                "num_cores": num_cores,
                "served": len(results["serial"].records),
                "serial_wall_s": walls["serial"],
                "parallel_wall_s": walls["parallel"],
                "speedup": walls["serial"] / walls["parallel"],
                # Workers beyond the effective CPU count time-slice
                # one socket; their wall ratio is recorded for trend
                # context but must never gate.
                "wall_meaningful": num_cores <= effective,
            }
        )
    report = {
        "benchmark": "parallel",
        "model": dag.name,
        "requests": requests,
        "max_batch": max_batch,
        "window": window,
        "seed": seed,
        "cpus": cpus,
        "effective_cpus": effective,
        "core_counts": list(core_counts),
        "deterministic": True,  # asserted above, per core count
        "scaling": scaling,
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
    if effective >= 4:
        for row in scaling:
            if row["num_cores"] == 4:
                report["parallel_speedup_4c"] = row["speedup"]
    return report


def bench_fabric(
    requests: int = 96,
    shard_counts: tuple[int, ...] = (1, 2, 4),
    cores_per_shard: int = 2,
    max_batch: int = 4,
    seed: int = 0,
) -> dict:
    """Shard-scaling on the virtual clock: 1 vs 2 vs 4 shards.

    The same full-load Poisson trace is served by fabrics of one, two,
    and four identical two-core shards behind the least-loaded shard
    router.  The virtual-time makespan (``horizon_s``) shrinks as
    shards are added only if the router actually balances the load, so
    the gated ``fabric_speedup_4s`` ratio measures the control plane,
    not the host CPU — it is bit-identical on every machine.  The
    four-shard configuration is served twice and asserted to replay
    exactly (routing decisions included).

    On hosts with at least four effective CPUs a second, wall-clock
    pass serves the same trace through parallel-execution shards
    (thread-per-shard fabric over process-per-core clusters) at one and
    four shards and reports ``fabric_wall_ratio_4s`` — real elapsed
    seconds, gated by the dedicated wall-clock CI job rather than the
    regression gate.
    """
    if requests < 1:
        raise ValueError("need at least one request")
    from ..fabric import Fabric, ShardSpec

    dag = lenet_class_dag(seed)
    rate = 2_000_000.0  # arrivals much faster than service: full load
    trace = poisson_trace([dag], rate, requests, seed=seed)

    def serve(num_shards: int, execution: str = "serial"):
        fabric = Fabric(
            [
                ShardSpec(
                    num_cores=cores_per_shard,
                    datapath_factory=lambda core: LightningDatapath(
                        core=BehavioralCore(seed=core),
                        fidelity="fast",
                        seed=core,
                    ),
                    # Full load on one shard must queue, not drop: the
                    # makespan comparison needs every request served.
                    queue_capacity=max(4 * requests, 64),
                    max_batch=max_batch,
                    execution=execution,
                )
                for _ in range(num_shards)
            ]
        )
        try:
            fabric.deploy(dag)
            start = time.perf_counter()
            result = fabric.serve_trace(list(trace))
            wall = time.perf_counter() - start
        finally:
            if execution == "parallel":
                for shard in fabric.shards:
                    shard.close()
        if result.served != requests:
            raise AssertionError(
                f"{num_shards}-shard fabric served {result.served} of "
                f"{requests} requests; the scaling ratio is meaningless"
            )
        return result, wall

    scaling: list[dict] = []
    horizons: dict[int, float] = {}
    for num_shards in shard_counts:
        result, wall = serve(num_shards)
        horizons[num_shards] = result.horizon_s
        per_shard = [
            sum(1 for s in result.routed if s == shard)
            for shard in range(num_shards)
        ]
        scaling.append(
            {
                "num_shards": num_shards,
                "total_cores": num_shards * cores_per_shard,
                "served": result.served,
                "horizon_s": result.horizon_s,
                "wall_s": wall,
                "routed_per_shard": per_shard,
            }
        )
    repeat, _ = serve(max(shard_counts))
    replayed = (
        repeat.horizon_s == horizons[max(shard_counts)]
        and repeat.served == requests
    )
    if not replayed:
        raise AssertionError("fabric replay diverged between runs")
    effective = effective_cpus()
    report = {
        "benchmark": "fabric",
        "model": dag.name,
        "requests": requests,
        "cores_per_shard": cores_per_shard,
        "max_batch": max_batch,
        "seed": seed,
        "cpus": os.cpu_count() or 1,
        "effective_cpus": effective,
        "shard_counts": list(shard_counts),
        "deterministic": True,  # asserted above on the widest fabric
        "scaling": scaling,
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
    base = min(shard_counts)
    for num_shards in shard_counts:
        if num_shards != base:
            report[f"fabric_speedup_{num_shards}s"] = (
                horizons[base] / horizons[num_shards]
            )
    # Wall-clock pass: real elapsed time through live shard workers.
    # Four parallel single-core shards want four CPUs; on narrower
    # hosts the ratio would measure time-slicing, so it is omitted.
    if effective >= 4 and max(shard_counts) >= 4:
        wall_scaling: list[dict] = []
        walls: dict[int, float] = {}
        for num_shards in (1, 4):
            result, wall = serve(num_shards, execution="parallel")
            walls[num_shards] = wall
            wall_scaling.append(
                {
                    "num_shards": num_shards,
                    "served": result.served,
                    "horizon_s": result.horizon_s,
                    "wall_s": wall,
                }
            )
            if result.horizon_s != horizons.get(
                num_shards, result.horizon_s
            ):
                raise AssertionError(
                    "parallel-execution fabric diverged from the "
                    f"serial pass at {num_shards} shards"
                )
        report["wall_scaling"] = wall_scaling
        report["fabric_wall_ratio_4s"] = walls[1] / walls[4]
    return report


def bench_traffic(
    requests: int = 100_000,
    loads: tuple[float, ...] = (0.8, 2.0, 3.0),
    seed: int = 0,
) -> dict:
    """Open-loop fleet campaigns: goodput and p99 per (load, policy).

    A 4-shard, 8-core Lightning fleet serves ``requests`` Poisson
    arrivals per point over the Zipf-skewed §9 model mix, once behind
    accept-all and once behind queue backpressure.  Everything runs on
    the virtual clock from keyed substreams, so every number except the
    wall-clock throughput and RSS is bit-identical across hosts; the
    gated ``backpressure_goodput_gain_2x`` ratio (shedding early vs
    queueing everything, at 2x capacity) is therefore gated at the
    standard threshold with zero measurement noise.

    Peak RSS comes from ``getrusage`` and is a *process-wide*
    high-water mark — meaningful in CI, where this benchmark runs in
    its own process; the interesting signal is that it stays flat as
    ``requests`` grows (the O(1)-memory streaming path).
    """
    if requests < 1:
        raise ValueError("need at least one request")
    import resource

    from ..dnn import SIMULATION_MODELS
    from ..sim.accelerators import lightning_chip
    from ..traffic import (
        AcceptAll,
        AdmissionController,
        FleetSpec,
        ModelMix,
        OpenLoopTraffic,
        PoissonProcess,
        QueueBackpressure,
        fleet_capacity_rps,
        serve_open_loop,
    )

    mix = ModelMix.zipf(SIMULATION_MODELS(), exponent=1.2)
    spec = FleetSpec(
        lightning_chip(), num_shards=4, cores_per_shard=2
    )
    capacity = fleet_capacity_rps(spec, mix)
    policies = {
        "accept_all": AcceptAll,
        "backpressure": QueueBackpressure,
    }
    points: list[dict] = []
    goodputs: dict[tuple[float, str], float] = {}
    wall_total = 0.0
    for load_index, load in enumerate(loads):
        for policy_name, policy_factory in policies.items():
            stream = (load_index,)
            traffic = OpenLoopTraffic(
                PoissonProcess(load * capacity),
                mix,
                seed=seed,
                stream=stream,
            )
            admission = AdmissionController(
                policy_factory(), seed=seed, stream=stream
            )
            start = time.perf_counter()
            result = serve_open_loop(
                traffic, requests, spec, admission=admission
            )
            wall = time.perf_counter() - start
            wall_total += wall
            result.check_invariant()
            p50, p99 = result.percentiles([50, 99])
            goodputs[(load, policy_name)] = result.goodput_rps
            points.append(
                {
                    "load": load,
                    "policy": policy_name,
                    "offered": result.offered,
                    "served": result.served,
                    "shed": result.shed,
                    "dropped": result.dropped,
                    "stolen": result.stolen,
                    "goodput_rps": result.goodput_rps,
                    "slo_attainment": result.slo_attainment,
                    "p50_s": p50,
                    "p99_s": p99,
                    "wall_s": wall,
                }
            )
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {
        "benchmark": "traffic",
        "requests": requests,
        "loads": list(loads),
        "seed": seed,
        "capacity_rps": capacity,
        "num_shards": spec.num_shards,
        "cores_per_shard": spec.cores_per_shard,
        "queue_capacity": spec.queue_capacity,
        "points": points,
        "engine_requests_per_wall_s": (
            len(points) * requests / wall_total
        ),
        "wall_s": wall_total,
        # ru_maxrss is KB on Linux; the flat-with-requests property is
        # the O(1)-memory claim this report tracks.
        "peak_rss_mb": rss_kb / 1024.0,
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
    if (2.0, "accept_all") in goodputs:
        accept_2x = goodputs[(2.0, "accept_all")]
        if accept_2x > 0:
            report["backpressure_goodput_gain_2x"] = (
                goodputs[(2.0, "backpressure")] / accept_2x
            )
    return report


def bench_failover(
    requests: int = 20_000,
    num_shards: int = 4,
    cores_per_shard: int = 2,
    load: float = 0.6,
    seed: int = 0,
) -> dict:
    """Rolling shard failures: replicated failover vs bare placement.

    A small dense stand-in zoo (one model per §9 simulation entry,
    widths tracking relative heft) serves a Poisson open-loop trace on
    an emulated fabric while one shard is killed at each quarter of
    the horizon — by the last quarter a single shard survives, which
    is why the offered load is sized against *one* shard's capacity.
    The campaign runs twice: N=2 replication behind a
    :class:`~repro.fabric.FailoverRouter` with auto-heal, and N=1
    placement with no failover.  Both runs sit on the virtual clock,
    so the gated ``failover_goodput_gain`` (replicated goodput over
    unreplicated) is bit-identical on every host; wall-clock
    throughput is reported for trend tracking only.
    """
    if requests < 1:
        raise ValueError("need at least one request")
    from ..core.dag import LayerTask
    from ..dnn import SIMULATION_MODELS
    from ..fabric import (
        Fabric,
        FailoverRouter,
        ModelPlacement,
        ShardSpec,
        kill_shard,
    )
    from ..faults import FaultSchedule, RetryPolicy
    from ..photonics import (
        BehavioralCore as _Core,
        CoreArchitecture,
        NoiselessModel,
    )
    from ..traffic import (
        AcceptAll,
        AdmissionController,
        ModelMix,
        OpenLoopTraffic,
        PoissonProcess,
        probe_service_estimates,
        serve_fabric_open_loop,
    )

    widths = (8, 12, 16, 16, 20, 24, 12)

    def zoo_dag(model_id: int, width: int, name: str) -> ComputationDAG:
        rng = np.random.default_rng(1000 + model_id + seed)
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
                    nonlinearity="relu",
                    requant_divisor=float(width),
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

    zoo = [
        zoo_dag(model_id, width, spec.name)
        for model_id, (width, spec) in enumerate(
            zip(widths, SIMULATION_MODELS()), start=1
        )
    ]
    arch = CoreArchitecture(accumulation_wavelengths=2)

    def run(replicas: int, auto_heal: bool) -> dict:
        fabric = Fabric(
            [
                ShardSpec(
                    num_cores=cores_per_shard,
                    datapath_factory=lambda core: LightningDatapath(
                        core=_Core(
                            architecture=arch, noise=NoiselessModel()
                        ),
                        seed=core,
                    ),
                )
                for _ in range(num_shards)
            ],
            router=FailoverRouter(),
            placement=ModelPlacement(
                replicas=replicas, auto_heal=auto_heal
            ),
        )
        for dag in zoo:
            fabric.deploy(dag)
        estimates = probe_service_estimates(fabric)
        mean_service = float(
            np.mean([v for per in estimates for v in per.values()])
        )
        traffic = OpenLoopTraffic(
            PoissonProcess(load * cores_per_shard / mean_service),
            ModelMix(zoo),
            seed=seed + 23,
        )
        trace = traffic.runtime_trace(requests)
        horizon = max(r.arrival_s for r in trace)
        schedule = FaultSchedule(seed=seed + 7)
        for quarter, shard in enumerate(
            range(1, num_shards), start=1
        ):
            kill_shard(
                schedule, fabric, shard, horizon * quarter / 4.0
            )
        start = time.perf_counter()
        result = serve_fabric_open_loop(
            fabric,
            trace,
            AdmissionController(AcceptAll()),
            fault_schedule=schedule,
            retry_policy=RetryPolicy(
                max_retries=2, backoff_s=1e-6
            ),
        )
        wall = time.perf_counter() - start
        if not result.accounted():
            raise AssertionError(
                "failover benchmark broke the accounting invariant"
            )
        return {
            "replicas": replicas,
            "auto_heal": auto_heal,
            "offered": result.offered,
            "served": result.served,
            "failed_over": result.failed_over,
            "failovers": result.failovers,
            "heals": len(fabric.placement.heals),
            "goodput": result.goodput,
            "wall_s": wall,
            "requests_per_wall_s": requests / wall,
        }

    replicated = run(replicas=2, auto_heal=True)
    unreplicated = run(replicas=1, auto_heal=False)
    report = {
        "benchmark": "failover",
        "requests": requests,
        "num_shards": num_shards,
        "cores_per_shard": cores_per_shard,
        "load_fraction_of_one_shard": load,
        "seed": seed,
        "replicated": replicated,
        "unreplicated": unreplicated,
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
    if unreplicated["goodput"] > 0:
        report["failover_goodput_gain"] = (
            replicated["goodput"] / unreplicated["goodput"]
        )
    return report


def bench_energy(
    cluster_requests: int = 2048,
    fleet_requests: int = 40_000,
    rounds: int = 41,
    num_cores: int = 4,
    load: float = 0.8,
    seed: int = 0,
) -> dict:
    """The energy spine's cost and its headline ratio.

    Two legs:

    * **Overhead** — the same Poisson trace served on two identically
      seeded clusters, one charging the energy ledger (the default
      ``energy_model="lightning"``) and one with energy accounting
      disabled.  Each round serves both legs back to back, swapping
      which goes first, and the ratio is the median of the per-round
      on/off ratios; the serve path must stay within 5% of the
      energy-off wall clock, asserted here — a regression in the
      per-request charge shows up as a failed benchmark, not a slow
      fleet.  Since dense rows draw one Gaussian each a LeNet-class
      request is ~35 us of control-plane Python, whose wall wanders
      +-8% from one serve to the next on a shared host: the trace is
      sized for a ~70 ms serve, the collector is quiesced around each
      timed serve (as ``timeit`` does), and 41 paired rounds bring the
      ratio's spread under 1% (best-of-5 walls spread 3.4% and
      tripped the gate one run in twelve).
    * **Fleet ratio** — the 4-shard open-loop fleet engine serves the
      same Zipf traffic on Lightning, A100, and P4 platform models;
      the gated ``energy_per_inference_ratio`` (A100 joules per
      inference over Lightning's) runs on the virtual clock, so it is
      bit-identical across hosts and gates with zero noise.
    """
    if cluster_requests < rounds:
        raise ValueError("need at least one request per round")
    from ..dnn import SIMULATION_MODELS
    from ..sim.accelerators import a100_gpu, lightning_chip, p4_gpu
    from ..traffic import (
        FleetSpec,
        ModelMix,
        OpenLoopTraffic,
        PoissonProcess,
        fleet_capacity_rps,
        serve_open_loop,
    )

    dag = lenet_class_dag(seed)
    rate = 2_000_000.0  # arrivals much faster than service: full load
    trace = poisson_trace([dag], rate, cluster_requests, seed=seed)
    clusters: dict[str, Cluster] = {}
    walls: dict[str, list[float]] = {"on": [], "off": []}
    for leg, energy_model in (("on", "lightning"), ("off", None)):
        cluster = Cluster(
            num_cores=num_cores,
            datapath_factory=lambda core: LightningDatapath(
                core=BehavioralCore(seed=core), seed=core
            ),
            energy_model=energy_model,
        )
        cluster.deploy(dag)
        # Warm-up serve outside the timed rounds (plan compilation,
        # first-touch scratch pages).
        cluster.serve_trace(trace[:8])
        clusters[leg] = cluster
    # Pair the legs round by round, alternating which serves first, so
    # neither frequency drift nor serve order biases a side.
    for index in range(rounds):
        order = ("on", "off") if index % 2 == 0 else ("off", "on")
        for leg in order:
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                result = clusters[leg].serve_trace(trace)
                walls[leg].append(time.perf_counter() - start)
            finally:
                gc.enable()
            if leg == "on" and result.stats.energy.count == 0:
                raise AssertionError(
                    "energy leg served without charging the ledger"
                )
    overhead_ratio = float(
        np.median(np.array(walls["on"]) / np.array(walls["off"]))
    )
    if overhead_ratio > 1.05:
        raise AssertionError(
            f"energy accounting costs {overhead_ratio:.3f}x the "
            "energy-off serve path; the <5% overhead budget is blown"
        )

    mix = ModelMix.zipf(SIMULATION_MODELS(), exponent=1.2)
    platforms = {}
    for accelerator in (lightning_chip(), a100_gpu(), p4_gpu()):
        spec = FleetSpec(
            accelerator, num_shards=4, cores_per_shard=2
        )
        capacity = fleet_capacity_rps(spec, mix)
        traffic = OpenLoopTraffic(
            PoissonProcess(load * capacity), mix, seed=seed
        )
        result = serve_open_loop(traffic, fleet_requests, spec)
        result.check_invariant()
        p50_j, p99_j = result.energy_percentiles([50, 99])
        p99_s = result.percentiles([99])[0]
        platforms[accelerator.name] = {
            "served": result.served,
            "energy_per_inference_j": result.energy_per_inference_j,
            "total_energy_j": result.total_energy_j,
            "p50_energy_j": p50_j,
            "p99_energy_j": p99_j,
            "p99_s": p99_s,
        }
    lightning_j = platforms["Lightning"]["energy_per_inference_j"]
    report = {
        "benchmark": "energy",
        "cluster_requests": cluster_requests,
        "fleet_requests": fleet_requests,
        "rounds": rounds,
        "num_cores": num_cores,
        "load": load,
        "seed": seed,
        "energy_on_wall_s": min(walls["on"]),
        "energy_off_wall_s": min(walls["off"]),
        # <=1.05 by construction (hard-asserted above); tracked so the
        # trend is visible long before the assertion trips.
        "energy_overhead_ratio": overhead_ratio,
        "platforms": platforms,
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
    if lightning_j > 0:
        report["energy_per_inference_ratio"] = (
            platforms["A100 GPU"]["energy_per_inference_j"]
            / lightning_j
        )
        report["energy_per_inference_ratio_p4"] = (
            platforms["P4 GPU"]["energy_per_inference_j"] / lightning_j
        )
    return report


def write_report(result: dict, path: pathlib.Path | str) -> pathlib.Path:
    """Write one benchmark result as pretty-printed JSON."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path


def check_regression(
    current: dict,
    baseline: dict,
    metrics: list[str],
    threshold: float = REGRESSION_THRESHOLD,
) -> list[str]:
    """Compare gated metrics against a baseline report.

    Returns a list of human-readable failure strings (empty = pass).  A
    metric regresses when it falls more than ``threshold`` below the
    baseline value; improvements never fail.
    """
    failures = []
    for metric in metrics:
        if metric not in baseline:
            continue  # baselines predating a metric don't gate it
        if metric not in current:
            continue  # cpu-gated metrics vanish on small hosts
        base = float(baseline[metric])
        now = float(current[metric])
        floor = base * (1.0 - threshold)
        if now < floor:
            failures.append(
                f"{metric}: {now:.3f} is below {floor:.3f} "
                f"(baseline {base:.3f} - {threshold:.0%})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.perf.bench",
        description="Run the emulator/cluster perf benchmarks.",
    )
    parser.add_argument(
        "--out-dir",
        type=pathlib.Path,
        default=pathlib.Path("."),
        help="directory for BENCH_emulator.json / BENCH_cluster.json",
    )
    parser.add_argument(
        "--requests", type=int, default=64,
        help="emulator benchmark request count",
    )
    parser.add_argument(
        "--cluster-requests", type=int, default=128,
        help="cluster benchmark request count",
    )
    parser.add_argument(
        "--parallel-requests", type=int, default=96,
        help="parallel-scaling benchmark request count (per core count)",
    )
    parser.add_argument(
        "--fabric-requests", type=int, default=96,
        help="fabric shard-scaling benchmark request count",
    )
    parser.add_argument(
        "--traffic-requests", type=int, default=100_000,
        help="open-loop traffic benchmark request count (per point)",
    )
    parser.add_argument(
        "--failover-requests", type=int, default=20_000,
        help="rolling-shard-failure benchmark request count",
    )
    parser.add_argument(
        "--energy-requests", type=int, default=40_000,
        help="energy benchmark fleet request count (per platform)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--check",
        type=pathlib.Path,
        default=None,
        help="baseline directory; exit 1 on >20%% regression",
    )
    args = parser.parse_args(argv)

    reports = {
        "BENCH_emulator": bench_emulator(
            requests=args.requests, seed=args.seed
        ),
        "BENCH_cluster": bench_cluster(
            requests=args.cluster_requests, seed=args.seed
        ),
        "BENCH_parallel": bench_parallel(
            requests=args.parallel_requests, seed=args.seed
        ),
        "BENCH_fabric": bench_fabric(
            requests=args.fabric_requests, seed=args.seed
        ),
        "BENCH_traffic": bench_traffic(
            requests=args.traffic_requests, seed=args.seed
        ),
        "BENCH_failover": bench_failover(
            requests=args.failover_requests, seed=args.seed
        ),
        "BENCH_energy": bench_energy(
            fleet_requests=args.energy_requests, seed=args.seed
        ),
    }
    failures: list[str] = []
    for name, result in reports.items():
        path = write_report(result, args.out_dir / f"{name}.json")
        print(f"wrote {path}")
        if args.check is not None:
            baseline_path = args.check / f"{name}.json"
            if not baseline_path.exists():
                print(f"no baseline {baseline_path}; skipping gate")
                continue
            baseline = json.loads(baseline_path.read_text())
            for failure in check_regression(
                result, baseline, GATED_METRICS[name]
            ):
                failures.append(f"{name}: {failure}")
    print(
        "emulator: fast {:.1f} rps vs loop {:.1f} rps "
        "(best-round speedup {:.2f}x, mean {:.2f}x)".format(
            reports["BENCH_emulator"]["fast_best_round_rps"],
            reports["BENCH_emulator"]["loop_best_round_rps"],
            reports["BENCH_emulator"]["speedup"],
            reports["BENCH_emulator"]["mean_speedup"],
        )
    )
    print(
        "cluster: {:.1f} req/wall-s on {} cores "
        "(fast/loop serve ratio {:.2f}x)".format(
            reports["BENCH_cluster"]["fast_requests_per_wall_s"],
            reports["BENCH_cluster"]["num_cores"],
            reports["BENCH_cluster"]["fast_loop_serve_ratio"],
        )
    )
    parallel = reports["BENCH_parallel"]
    curve = ", ".join(
        "{num_cores}c {speedup:.2f}x".format(**row)
        for row in parallel["scaling"]
    )
    gate_note = (
        "gated speedup_4c {:.2f}x".format(parallel["parallel_speedup_4c"])
        if "parallel_speedup_4c" in parallel
        else "speedup_4c not gated "
        f"({parallel['effective_cpus']} effective cpu host)"
    )
    print(f"parallel: deterministic, serial/parallel {curve}; {gate_note}")
    fabric = reports["BENCH_fabric"]
    fabric_curve = ", ".join(
        "{num_shards}s {horizon_s:.2e}s".format(**row)
        for row in fabric["scaling"]
    )
    wall_note = (
        "; wall_ratio_4s {:.2f}x".format(fabric["fabric_wall_ratio_4s"])
        if "fabric_wall_ratio_4s" in fabric
        else f"; wall pass skipped ({fabric['effective_cpus']} effective cpus)"
    )
    print(
        "fabric: virtual-clock makespans {curve}; gated speedup_4s "
        "{speedup:.2f}x{wall}".format(
            curve=fabric_curve,
            speedup=fabric["fabric_speedup_4s"],
            wall=wall_note,
        )
    )
    traffic = reports["BENCH_traffic"]
    traffic_curve = ", ".join(
        "{load}x/{policy} {goodput_rps:.0f}/s".format(**row)
        for row in traffic["points"]
    )
    print(
        "traffic: goodput {curve}; engine {rps:.0f} req/wall-s, "
        "peak RSS {rss:.0f} MB; gated goodput_gain_2x {gain:.2f}x".format(
            curve=traffic_curve,
            rps=traffic["engine_requests_per_wall_s"],
            rss=traffic["peak_rss_mb"],
            gain=traffic.get(
                "backpressure_goodput_gain_2x", float("nan")
            ),
        )
    )
    failover = reports["BENCH_failover"]
    print(
        "failover: replicated {rep:.1%} vs unreplicated {bare:.1%} "
        "goodput under rolling kills; gated goodput_gain "
        "{gain:.2f}x".format(
            rep=failover["replicated"]["goodput"],
            bare=failover["unreplicated"]["goodput"],
            gain=failover.get("failover_goodput_gain", float("nan")),
        )
    )
    energy = reports["BENCH_energy"]
    print(
        "energy: ledger overhead {overhead:.3f}x (<1.05 asserted); "
        "Lightning {lj:.2f} mJ/inf vs A100 {aj:.2f} mJ/inf; gated "
        "energy_per_inference_ratio {ratio:.2f}x".format(
            overhead=energy["energy_overhead_ratio"],
            lj=energy["platforms"]["Lightning"][
                "energy_per_inference_j"
            ] * 1e3,
            aj=energy["platforms"]["A100 GPU"][
                "energy_per_inference_j"
            ] * 1e3,
            ratio=energy.get(
                "energy_per_inference_ratio", float("nan")
            ),
        )
    )
    if failures:
        for failure in failures:
            print(f"REGRESSION {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
