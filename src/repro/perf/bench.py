"""The perf gate: a table of wall-clock ratio cases over one runner.

Every speed claim gated here is a *ratio of two wall clocks measured on
one host in one run*; absolute throughput is not comparable across
machines.  A :class:`Case` is data — a name, a setup that builds two
legs (zero-argument callables that each serve the case's trace once),
a round count, the effective CPUs the legs need, an optional absolute
bound, whether the ratio is also held to the checked-in baseline — and
the runner owns the rest: skipping a case the host is too small for,
the statistic (:func:`paired_ratio`), the case's verify hook, one
``BENCH_perf.json`` report, one baseline of the same shape, and
:func:`check_regression`.

The rule for what is a case is the clock.  Numbers on the *virtual*
clock (shard-scaling makespans, goodput under overload or shard kills,
joules per inference) are identical on every host and every run, so
they are assertions in the test suite, not cases here.

Run from a checkout::

    PYTHONPATH=src python -m repro.perf.bench --out-dir reports/
    PYTHONPATH=src python -m repro.perf.bench --check benchmarks/baselines

The exit status is 1 when a case breaks its bound, was due on this host
and produced no finite ratio, or — under ``--check`` — fell more than
:data:`REGRESSION_THRESHOLD` below the baseline (CI's perf gate).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pathlib
import platform
import statistics
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, NamedTuple

import numpy as np

from ..core.dag import (
    ComputationDAG,
    LayerTask,
    SignSeparatedRow,
    sign_separate_row,
)
from ..core.datapath import LightningDatapath
from ..core.plans import compile_model
from ..core.reference import ReferenceDatapath
from ..core.stats import NICCounters
from ..dnn import build_lenet_300_100, quantize_mlp
from ..fabric import Fabric, ShardSpec
from ..faults import DegradedCore, MZMBiasDrift, WireFrame
from ..net import (
    LIGHTNING_UDP_PORT,
    InferenceRequest,
    PacketParser,
    ParsedInferenceQuery,
    build_inference_frame,
)
from ..net.ingress import IngressRequest, ingest, receive
from ..photonics import BehavioralCore, CoreArchitecture
from ..runtime import Cluster, executor
from ..runtime.workload import poisson_trace

__all__ = [
    "REGRESSION_THRESHOLD",
    "REPORT_NAME",
    "CASES",
    "Case",
    "Legs",
    "effective_cpus",
    "lenet_class_dag",
    "gpt2_class_dag",
    "paired_ratio",
    "run_case",
    "run_cases",
    "check_regression",
    "main",
]

#: A baseline-held case fails when it falls more than this fraction
#: below the checked-in ratio.
REGRESSION_THRESHOLD = 0.20

#: The one report the runner writes and the one baseline it reads.
REPORT_NAME = "BENCH_perf.json"

# Trace sizes.  Constants, not options: the gate has one configuration
# (the tier-1 smoke patches them down to prove every case still runs).
EMULATOR_REQUESTS = 32  #: requests per leg of ``emulator_speedup``
CLUSTER_REQUESTS = 128  #: trace the ``fast_loop_serve_ratio`` cluster serves
LOOP_WALK = 16  #: of those, how many the per-row walk repeats
ENERGY_REQUESTS = 2048  #: sized for a ~70 ms serve (see ``_energy_ledger``)
SERVE_REQUESTS = 96  #: parallel-vs-serial and shard-scaling traces
DEEP_TRACE_REQUESTS = 160  #: single-request dispatches over two workers
DEEP_TRACE_WINDOWS = 4  #: full windows that trace must send each worker
#: The deep-trace GPT-2-class stand-in: ~2 ms of worker compute a request.
DEEP_TRACE_GPT2 = {"seq_len": 16, "d_model": 32}
INGEST_FRAMES = 5000  #: frames each leg of ``ingest_speedup`` takes in
DEGRADED_DISPATCHES = 200  #: drifted-core dispatches ``degraded_batch_ratio`` evaluates


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


class Legs(NamedTuple):
    """What a case's setup hands the runner.

    The ratio is ``numerator`` wall over ``denominator`` wall, times
    ``scale`` (the legs' request-count ratio, where a case compares
    per-request walls of legs serving different trace lengths).
    ``verify`` receives the two legs' last results and returns why they
    are not the work the ratio claims, or ``None`` when they are.
    """

    numerator: Callable[[], Any]
    denominator: Callable[[], Any]
    verify: Callable[[Any, Any], str | None]
    scale: float = 1.0


@dataclass(frozen=True)
class Case:
    """One gated wall-clock ratio.

    ``setup`` builds the stacks once, registers what must be closed
    (worker pools) on the :class:`~contextlib.ExitStack` it is given
    and returns the :class:`Legs`.  The case is skipped on a host with
    fewer than ``min_cpus`` effective CPUs.  ``floor`` / ``ceiling``
    bound the ratio absolutely; a ``baseline`` case is also held to the
    checked-in ratio at -:data:`REGRESSION_THRESHOLD`.
    """

    name: str
    setup: Callable[[ExitStack], Legs]
    rounds: int = 9
    min_cpus: int = 1
    floor: float | None = None
    ceiling: float | None = None
    baseline: bool = False


def _datapath(core: int) -> LightningDatapath:
    return LightningDatapath(core=BehavioralCore(seed=core))


def _full_load_trace(dag: ComputationDAG, requests: int):
    # Arrivals much faster than service: every core stays busy.
    return poisson_trace([dag], 2_000_000.0, requests, seed=0)


def _cluster(stack: ExitStack, dag: ComputationDAG, **options) -> Cluster:
    """A deployed cluster of seeded cores; ``stack`` closes its workers."""
    cluster = Cluster(datapath_factory=_datapath, **options)
    stack.callback(cluster.close)
    cluster.deploy(dag)
    return cluster


def _fabric(
    stack: ExitStack, dag: ComputationDAG, shards: int, execution: str, **spec
) -> Fabric:
    """A deployed fabric of identical shards; ``stack`` closes their workers.

    Parallel-execution shards (a worker process per core) are each
    served on a thread of their own.
    """
    fabric = Fabric(
        [
            ShardSpec(datapath_factory=_datapath, execution=execution, **spec)
            for _ in range(shards)
        ],
        concurrency="threads" if execution == "parallel" else "serial",
    )
    for shard in fabric.shards:
        stack.callback(shard.close)
    fabric.deploy(dag)
    return fabric


def _emulator(stack: ExitStack) -> Legs:
    """The per-row loop walk over compiled plans, request by request.

    Both datapaths share one seed and serve the same requests, so the
    compiled path must reproduce the walk's predictions and per-layer
    cycle ledgers bit for bit.
    """
    dag = lenet_class_dag(0)
    inputs = np.random.default_rng(1).integers(
        0, 256, size=(EMULATOR_REQUESTS, dag.tasks[0].input_size)
    ).astype(np.float64)

    def leg(datapath):
        datapath.register_model(dag)

        def serve() -> list[tuple[int, list[int]]]:
            executions = [
                datapath.execute(dag.model_id, row) for row in inputs
            ]
            return [
                (int(e.prediction), [x.compute_cycles for x in e.layers])
                for e in executions
            ]

        return serve

    def verify(loop, fast) -> str | None:
        if loop != fast:
            return (
                "fast-path predictions or cycle ledgers diverged from "
                "the loop path"
            )

    return Legs(
        leg(ReferenceDatapath(core=BehavioralCore(seed=0))),
        leg(_datapath(0)),
        verify,
    )


def _cluster_vs_walk(stack: ExitStack) -> Legs:
    """Per-request wall of the loop walk over the cluster's.

    A four-core cluster serves the trace; a bare
    :class:`~repro.core.reference.ReferenceDatapath` (a cluster refuses
    one) repeats :data:`LOOP_WALK` of its requests through ``execute``.
    The walk costs ~150x the cluster's wall per request, so it covers a
    sample and ``scale`` makes the ratio per request.
    """
    dag = lenet_class_dag(0)
    trace = _full_load_trace(dag, CLUSTER_REQUESTS)
    # Full load must queue, not drop: the per-request wall is over
    # requests the cluster served.
    cluster = _cluster(
        stack, dag, num_cores=4, max_batch=4, queue_capacity=len(trace)
    )
    walker = ReferenceDatapath(core=BehavioralCore(seed=0))
    walker.register_model(dag)
    walked = trace[:LOOP_WALK]

    def walk() -> None:
        for request in walked:
            walker.execute(dag.model_id, request.data_levels)

    def verify(_, result) -> str | None:
        if result.served != len(trace):
            return (
                f"cluster served {result.served} of {len(trace)} "
                "requests; the per-request wall is meaningless"
            )

    return Legs(
        walk,
        partial(cluster.serve_trace, trace),
        verify,
        scale=len(trace) / len(walked),
    )


def _energy_ledger(stack: ExitStack) -> Legs:
    """One trace served with the per-request energy ledger on and off.

    A LeNet-class request is ~35 us of control-plane Python whose wall
    wanders +-8% from one serve to the next on a shared host, so the
    trace is sized for a ~70 ms serve and the case runs 41 rounds, which
    bring the median ratio's spread under 1%.
    """
    dag = lenet_class_dag(0)
    trace = _full_load_trace(dag, ENERGY_REQUESTS)
    on, off = (
        _cluster(stack, dag, num_cores=4, energy_model=energy_model)
        for energy_model in ("lightning", None)
    )

    def verify(charged, _) -> str | None:
        if charged.stats.energy.count == 0:
            return "energy leg served without charging the ledger"

    return Legs(
        partial(on.serve_trace, trace), partial(off.serve_trace, trace), verify
    )


def _compile(stack: ExitStack) -> Legs:
    """Offline sign separation, row by row over layer at once.

    The numerator is :class:`~repro.core.reference.ReferenceDatapath`'s
    per-row copy — one :func:`~repro.core.dag.sign_separate_row` per
    dense weight row — of the LeNet-class and GPT-2-class DAGs; the
    denominator compiles the same DAGs into plans, every dense layer in
    one array pass.  The plans' readout counts must be the rows'.
    """
    dags = (lenet_class_dag(0), gpt2_class_dag(0))
    geometry = _datapath(0).plan_geometry
    dense = [task for dag in dags for task in dag.tasks if task.kind == "dense"]

    def per_row() -> list[list[SignSeparatedRow]]:
        return [
            [
                sign_separate_row(row, geometry.num_wavelengths)
                for row in task.weights_levels
            ]
            for task in dense
        ]

    def verify(rows, plans) -> str | None:
        compiled = [
            plan.tasks[task.name]
            for plan, dag in zip(plans, dags)
            for task in dag.tasks
            if task.kind == "dense"
        ]
        for plan, layer in zip(compiled, rows):
            steps = [row.num_steps for row in layer]
            signs = [row.group_signs.sum() for row in layer]
            cycles = sum(geometry.step_cycles(step) for step in steps)
            if (
                plan.steps.tolist() != steps
                or plan.net_signs.tolist() != signs
                or plan.stream_cycles != cycles
            ):
                return f"{plan.task_name}: compiled counts diverged from its rows"

    return Legs(
        per_row,
        lambda: [compile_model(dag, geometry) for dag in dags],
        verify,
    )


def _results_identical(serial, parallel) -> bool:
    """Bit-exact comparison of two :class:`ClusterResult` objects.

    The determinism contract the parallel executor guarantees: every
    outcomes row (fate, assignment, timing, prediction, joules) and the
    aggregate accounting must match the serial event loop exactly — not
    approximately.
    """

    def fingerprint(result) -> tuple:
        table = result.outcomes
        return (
            [request.request_id for request in table.request],
            *(getattr(table, name).tobytes() for name in table.COLUMNS[1:]),
            result.busy_seconds,
            result.horizon_s,
        )

    return fingerprint(serial) == fingerprint(parallel)


def _parallel(stack: ExitStack, cores: int) -> Legs:
    """The serial event loop over ``execution="parallel"`` at ``cores`` cores.

    Identically seeded twins serve the same trace round after round, so
    the determinism contract is checked on the last timed serve, not
    only on a first one.
    """
    dag = lenet_class_dag(0)
    trace = _full_load_trace(dag, SERVE_REQUESTS)
    serial, parallel = (
        _cluster(
            stack, dag, num_cores=cores, max_batch=4, execution=execution
        )
        for execution in ("serial", "parallel")
    )

    def verify(serial_result, parallel_result) -> str | None:
        if not _results_identical(serial_result, parallel_result):
            return f"parallel results diverged from serial at {cores} cores"

    return Legs(
        partial(serial.serve_trace, trace),
        partial(parallel.serve_trace, trace),
        verify,
    )


def _deep_trace(
    stack: ExitStack, model: Callable[[], ComputationDAG]
) -> Legs:
    """Two single-core serial shards over their worker-fed parallel twin.

    Single-request dispatches with every join deferred to the end of
    the serve, on a trace that must send each worker
    :data:`DEEP_TRACE_WINDOWS` full windows: a stall between parent and
    worker reads as a ratio near 1.0 and as poll timers expiring.  The
    timers are read over every timed serve: a worker evaluates at most
    one forward block per program invocation (a few ms of compute,
    well under ``POLL_S``), so any expiry after the untimed warm-up
    serve is a stall, not a long batch.
    """
    dag = model()
    trace = _full_load_trace(dag, DEEP_TRACE_REQUESTS)
    serial, live = (
        _fabric(
            stack, dag, 2, execution,
            num_cores=1, queue_capacity=4 * len(trace),
        )
        for execution in ("serial", "parallel")
    )
    pools = [shard._pool for shard in live.shards]
    warmed: list[int] = []

    def worker_fed():
        result = live.serve_trace(trace)
        if not warmed:  # the runner's untimed warm-up serve
            warmed.append(sum(pool.poll_timeouts for pool in pools))
        return result

    def verify(twin, fed) -> str | None:
        identical = map(
            _results_identical, twin.shard_results, fed.shard_results
        )
        if twin.served != len(trace) or not all(identical):
            return "worker-fed shards diverged from their serial twin"
        windows = min(
            fed.routed.count(shard) // pool.window
            for shard, pool in enumerate(pools)
        )
        if windows < DEEP_TRACE_WINDOWS:
            return (
                f"a worker received {windows} full windows, not "
                f"{DEEP_TRACE_WINDOWS}"
            )
        expired = sum(pool.poll_timeouts for pool in pools) - warmed[0]
        if expired:
            return f"{expired} poll timers expired: a stall"

    return Legs(partial(serial.serve_trace, trace), worker_fed, verify)


def _ingest(stack: ExitStack) -> Legs:
    """A loop of per-frame ``receive`` over the block-checked ``ingest``.

    The frames are shaped like the stack benchmark's control-plane
    workload: queries for seven tiny models of 8-24 levels, ~5 % of
    them on a non-inference port (those take ``receive`` on both legs).
    Both legs must leave the same requests, rejected count and counters.
    """
    rng = np.random.default_rng(0)
    widths = (8, 12, 16, 16, 20, 24, 12)
    frames = []
    for index in range(INGEST_FRAMES):
        model = int(rng.integers(len(widths)))
        levels = rng.integers(0, 256, widths[model]).astype(np.uint8)
        raw = build_inference_frame(
            InferenceRequest(model + 1, index, levels),
            dst_port=9999 if rng.random() < 0.05 else LIGHTNING_UDP_PORT,
        )
        frames.append(WireFrame(index * 1e-6, raw))
    parser = PacketParser()

    def loop() -> tuple:
        counters = NICCounters()
        requests, rejected = [], 0
        for frame in frames:
            packet = receive(frame.raw, parser, counters)
            if isinstance(packet, ParsedInferenceQuery):
                request = packet.request
                requests.append(IngressRequest(
                    request.request_id, request.model_id, frame.arrival_s,
                    packet.data_levels,
                ))
            else:
                rejected += 1
        return requests, rejected, counters.summary()

    def block() -> tuple:
        counters = NICCounters()
        return (*ingest(frames, parser, counters), counters.summary())

    def verify(looped, blocked) -> str | None:
        def rows(result) -> tuple:
            requests, rejected, summary = result
            ids = [(r.request_id, r.model_id, r.arrival_s) for r in requests]
            data = [r.data_levels.tobytes() for r in requests]
            return ids, data, rejected, summary

        if rows(looped) != rows(blocked):
            return "block ingest diverged from the per-frame receive loop"

    return Legs(loop, block, verify)


def _degraded_batch(stack: ExitStack) -> Legs:
    """A drifted core's dispatches one by one over the executor's blocks.

    The core and the model are the control-plane workload's: a
    width-24 two-layer MLP on a two-wavelength core whose modulator
    bias drifts, dispatches of one to four rows (its ``max_batch``).  The numerator takes each dispatch the way a core
    without a tape law does — ``rebase`` onto its key and time, then
    the per-layer walk through the core's own entry points, row by row
    — and the denominator hands the same dispatches to
    :func:`~repro.runtime.executor.evaluate`, which runs them through
    the batch-major program.  Predictions must be equal.
    """
    rng = np.random.default_rng(3)
    width, half = 24, 12
    dag = ComputationDAG(1, "drifted-mlp", [
        LayerTask(
            name="fc1", kind="dense", input_size=width, output_size=half,
            weights_levels=rng.integers(-200, 201, (half, width)).astype(float),
            nonlinearity="relu", requant_divisor=float(width),
        ),
        LayerTask(
            name="fc2", kind="dense", input_size=half, output_size=4,
            weights_levels=rng.integers(-200, 201, (4, half)).astype(float),
            depends_on=("fc1",),
        ),
    ])
    core = DegradedCore(
        BehavioralCore(
            architecture=CoreArchitecture(
                accumulation_wavelengths=2, batch_size=8
            ),
            seed=5,
        ),
        [MZMBiasDrift(onset_s=1e-4, volts_per_s=3000.0)],
    )
    datapath = LightningDatapath(core=core)
    datapath.register_model(dag)
    dispatches = [
        (
            rng.integers(0, 256, (int(rows), width)).astype(float),
            index * 2e-6,
            (0xB0, 0, 0, index),
        )
        for index, rows in enumerate(
            rng.integers(1, 5, DEGRADED_DISPATCHES)
        )
    ]
    plan = datapath.model_plan(dag.model_id)

    def walk() -> list[list[int]]:
        answers = []
        for levels, now_s, key in dispatches:
            executor.rebase(core, now_s, key)
            answers.append([
                int(np.argmax(plan._walk(core, row)[-1])) for row in levels
            ])
        return answers

    def verify(walked, evaluated) -> str | None:
        if walked != evaluated:
            return "the drifted core's blocks diverged from its walk"

    return Legs(
        walk,
        partial(executor.evaluate, datapath, dag.model_id, dispatches),
        verify,
    )


#: The gate.  Floors and ceilings are absolute; ``baseline`` cases are
#: also held to ``benchmarks/baselines/BENCH_perf.json``.
CASES: tuple[Case, ...] = (
    Case("emulator_speedup", _emulator, floor=5.0, baseline=True),
    Case("fast_loop_serve_ratio", _cluster_vs_walk, baseline=True),
    Case("energy_overhead_ratio", _energy_ledger, rounds=41, ceiling=1.05),
    Case("compile_speedup", _compile, floor=10.0),
    Case("ingest_speedup", _ingest, floor=4.0),
    # Walking the dispatches instead reads ~1x.  The blocks read
    # 4.7-7.4x on a 2-vCPU host, most of what is left being the keyed
    # noise set-up a healthy core pays too, so the floor leaves room
    # for a runner of another speed.
    Case("degraded_batch_ratio", _degraded_batch, floor=3.0),
    Case("parallel_speedup_1c", partial(_parallel, cores=1)),
    Case("parallel_speedup_2c", partial(_parallel, cores=2), min_cpus=2),
    Case(
        "deep_trace_ratio_gpt2",
        partial(
            _deep_trace, model=lambda: gpt2_class_dag(0, **DEEP_TRACE_GPT2)
        ),
        min_cpus=2, floor=1.2,
    ),
    # A LeNet-class request is about as much worker compute as the
    # parent's per-dispatch work: seven runs on a 2-vCPU host read
    # 0.88-1.06x with nothing stalled, so the ratio is recorded and
    # only the hook's stall checks are hard.
    Case(
        "deep_trace_ratio_lenet",
        partial(_deep_trace, model=lambda: lenet_class_dag(0)),
        min_cpus=2,
    ),
)


def paired_ratio(
    numerator: Callable[[], Any], denominator: Callable[[], Any], rounds: int
) -> tuple[float, list[float], tuple[Any, Any]]:
    """Median of per-round wall ratios over alternated, paired rounds.

    Each round times both legs back to back, swapping which goes first,
    so neither frequency drift nor serve order biases a side, and a
    background burst costs one pair, not the verdict; the collector is
    quiesced around each timed serve (as ``timeit`` does).  Returns the
    median ratio, every round's ratio, and the legs' last results
    ``(numerator's, denominator's)``.
    """
    legs = (numerator, denominator)
    ratios: list[float] = []
    results: list[Any] = [None, None]
    for index in range(rounds):
        walls = [0.0, 0.0]
        for side in (0, 1) if index % 2 == 0 else (1, 0):
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                results[side] = legs[side]()
                walls[side] = time.perf_counter() - start
            finally:
                gc.enable()
        ratios.append(walls[0] / walls[1] if walls[1] > 0 else math.nan)
    return statistics.median(ratios), ratios, tuple(results)


def run_case(case: Case) -> dict:
    """Build, warm, time and verify one case; returns its report entry.

    A complaint from the verify hook fails the case by name
    (``{"error": ...}``) instead of ending the run.
    """
    with ExitStack() as stack:
        legs = case.setup(stack)
        # One untimed serve each: plan compilation, first-touch scratch
        # pages, sign-separation caches.
        legs.numerator()
        legs.denominator()
        ratio, ratios, results = paired_ratio(
            legs.numerator, legs.denominator, case.rounds
        )
        complaint = legs.verify(*results)
    if complaint:
        return {"error": complaint}
    return {
        "ratio": ratio * legs.scale,
        "ratios": [each * legs.scale for each in ratios],
    }


def run_cases(cases: tuple[Case, ...]) -> dict:
    """Run every case this host has the CPUs for; returns the report."""
    cpus = effective_cpus()
    report: dict = {
        "effective_cpus": cpus,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cases": {},
        "skipped": {},
    }
    for case in cases:
        if cpus < case.min_cpus:
            report["skipped"][case.name] = (
                f"needs {case.min_cpus} effective CPUs, host has {cpus}"
            )
        else:
            report["cases"][case.name] = run_case(case)
    return report


def check_regression(
    report: dict, baseline: dict | None, cases: tuple[Case, ...]
) -> list[str]:
    """Judge a report; returns ``"<case>: <why>"`` failures (empty = pass).

    A case this host was due to run (``min_cpus`` met) fails when it
    recorded an error or no finite ratio, or broke its floor or
    ceiling.  Given a ``baseline`` (a report of the same shape), a
    ``baseline`` case also fails when it falls more than
    :data:`REGRESSION_THRESHOLD` below the baseline's ratio, or when the
    baseline has no finite ratio for it although its host had the CPUs
    to record one.  Only a case the host is too small for, or one
    absent from a baseline recorded on a smaller host, goes unjudged,
    and ``report["skipped"]`` says which (:func:`run_cases` notes the
    former, this function the latter).
    """
    failures: list[str] = []
    for case in cases:
        if report["effective_cpus"] < case.min_cpus:
            continue
        entry = report["cases"].get(case.name, {})
        ratio = float(entry.get("ratio", math.nan))
        why = None
        if "error" in entry:
            why = entry["error"]
        elif not math.isfinite(ratio):
            why = f"was due on this host but has no finite ratio ({ratio})"
        elif case.floor is not None and ratio < case.floor:
            why = f"{ratio:.3f} is below the floor {case.floor:.3f}"
        elif case.ceiling is not None and ratio > case.ceiling:
            why = f"{ratio:.3f} is above the ceiling {case.ceiling:.3f}"
        elif case.baseline and baseline is not None:
            base = float(
                baseline["cases"].get(case.name, {}).get("ratio", math.nan)
            )
            recorded_on = baseline["effective_cpus"]
            if math.isfinite(base):
                held = base * (1.0 - REGRESSION_THRESHOLD)
                if ratio < held:
                    why = (
                        f"{ratio:.3f} is below {held:.3f} (baseline "
                        f"{base:.3f} - {REGRESSION_THRESHOLD:.0%})"
                    )
            elif recorded_on >= case.min_cpus:
                why = (
                    "no finite ratio in a baseline recorded on "
                    f"{recorded_on} effective CPUs"
                )
            else:
                report["skipped"][case.name] = (
                    f"not compared: the baseline was recorded on "
                    f"{recorded_on} effective CPUs, the case needs "
                    f"{case.min_cpus}"
                )
        if why:
            failures.append(f"{case.name}: {why}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.perf.bench",
        description="Run the wall-clock ratio cases and gate them.",
    )
    parser.add_argument(
        "--out-dir", type=pathlib.Path, default=pathlib.Path("."),
        help=f"directory for {REPORT_NAME}",
    )
    parser.add_argument(
        "--check", type=pathlib.Path, default=None,
        help=f"directory holding the baseline {REPORT_NAME}; also exit 1 "
        "on a >20%% regression against it",
    )
    args = parser.parse_args(argv)

    report = run_cases(CASES)
    baseline, failures = None, []
    if args.check is not None:
        baseline_path = args.check / REPORT_NAME
        if baseline_path.exists():
            baseline = json.loads(baseline_path.read_text())
        else:
            failures.append(f"baseline: {baseline_path} does not exist")
    failures += check_regression(report, baseline, CASES)
    report["failures"] = failures
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / REPORT_NAME
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    for name, entry in report["cases"].items():
        if "ratio" in entry:
            print(f"{name:24s}{entry['ratio']:10.3f}x")
    for name, why in report["skipped"].items():
        print(f"{name:24s}skipped: {why}")
    for failure in failures:
        print(f"REGRESSION {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
