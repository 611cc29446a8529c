"""Deferred, batch-major numerics under the event loop: the cluster
level of the contract.

A serial cluster dispatches as a parallel one
does — validate, charge the ledger, hand ``(model, block, key)`` to an
executor, patch predictions after the loop — and both executors
evaluate through the batch-major forward program, in blocks.  That must
be invisible: fault-laden serves equal digests recorded at the commit
before numerics were deferred (when every dispatch ran ``execute``
inline), at any block cap, in the serving process or a worker, and at
any dispatch window; aborted and timed-out dispatches never
compute in the serving process; and a healthy serve stays within its
program-invocation budget — workers included — so a silent fall-back
to one forward
per row (or to computing at dispatch what was meant to be deferred)
fails here instead of passing every digest ~2x slower, unseen by any
ratio gate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from repro.core import LightningDatapath
from repro.core.plans import ModelPlan
from repro.core.stats import Outcome
from repro.faults import (
    BiasRelockController,
    CalibrationWatchdog,
    FaultSchedule,
    RetryPolicy,
)
from repro.photonics import BehavioralCore, CoreArchitecture
from repro.runtime import Cluster, RuntimeRequest

from ..core.test_timing_plans import mixed, tiny_mlp

ARCHITECTURE = CoreArchitecture(accumulation_wavelengths=2, batch_size=8)
NUM_CORES = 3


def build_cluster(
    execution: str, max_batch: int, window: int = 4
) -> Cluster:
    """Noisy broadcast cores serving a dense and a conv+pool+attention
    model, so dispatches of two models interleave on every core."""
    cluster = Cluster(
        num_cores=NUM_CORES,
        datapath_factory=lambda core: LightningDatapath(
            core=BehavioralCore(architecture=ARCHITECTURE, seed=40 + core),
            seed=core,
        ),
        max_batch=max_batch,
        execution=execution,
        window=window,
    )
    cluster.deploy(tiny_mlp(1))
    cluster.deploy(mixed(2))
    return cluster


def trace(count: int = 96, spacing_s: float = 0.6e-6, seed: int = 5):
    """Arrivals a little faster than three cores serve, so queues hold
    a few requests and ``max_batch=4`` coalesces."""
    rng = np.random.default_rng(seed)
    sizes = {1: 12, 2: 36}
    requests = []
    for index in range(count):
        model_id = 1 + int(rng.integers(0, 2))
        requests.append(RuntimeRequest(
            request_id=index,
            model_id=model_id,
            arrival_s=index * spacing_s,
            data_levels=rng.integers(
                0, 256, size=sizes[model_id]
            ).astype(np.float64),
        ))
    return requests


def crash_mid_batch() -> dict:
    return {
        "fault_schedule": FaultSchedule(seed=3).core_crash(
            at_s=11.3e-6, core=1
        ),
        "retry_policy": RetryPolicy(max_retries=2, backoff_s=1e-6),
    }


def stall() -> dict:
    return {
        "fault_schedule": FaultSchedule(seed=3).core_stall(
            at_s=9.7e-6, core=0, duration_s=6e-6
        ),
    }


def drift_and_relock() -> dict:
    return {
        "fault_schedule": FaultSchedule(seed=3).mzm_bias_drift(
            at_s=2.2e-6, core=1, volts_per_s=30_000.0
        ).laser_drift(at_s=20.4e-6, core=2, fraction_per_s=100.0),
        "watchdog": CalibrationWatchdog(
            interval_s=10e-6,
            relock=BiasRelockController(point_time_s=40e-9),
        ),
    }


def timeout_cut() -> dict:
    return {"timeout_s": 30.2e-6}


SCENARIOS = {
    scenario.__name__: scenario
    for scenario in (crash_mid_batch, stall, drift_and_relock, timeout_cut)
}


def digest(result) -> str:
    """Everything a serve decided, bit for bit."""
    sha = hashlib.sha256()
    for record in result.records:
        sha.update(repr((
            record.request.request_id, record.core, record.batch_size,
            record.prediction, record.finish_s.hex(),
            record.queuing_s.hex(), record.datapath_s.hex(),
            record.compute_s.hex(),
        )).encode())
    for fate in (Outcome.DROPPED, Outcome.FAILED, Outcome.UNFINISHED):
        requests = result.outcomes.requests(fate)
        sha.update(repr([r.request_id for r in requests]).encode())
    stats = result.stats
    sha.update(repr((
        stats.quarantines, stats.relocks, stats.retries,
        sorted(stats.core_health.items()),
        stats.energy.total_joules.hex(),
    )).encode())
    return sha.hexdigest()[:16]


def serve(name: str, execution: str, max_batch: int, window: int = 4):
    with build_cluster(execution, max_batch, window) as cluster:
        return cluster.serve_trace(trace(), **SCENARIOS[name]())


#: ``digest(serve(name, "serial", max_batch))``, re-pinned on top of
#: 0d671dd when the keyed readout-noise stream changed generator
#: (Philox to SFC64) and each noise site went to one factor per draw.
#: Serial and parallel serves gave these same digests; until then they
#: held the values recorded at b7aa51d, the commit before numerics were
#: deferred.
PARENT_DIGESTS = {
    ("crash_mid_batch", 1): "0bc496243807d720",
    ("crash_mid_batch", 4): "ba405755b34e0b0a",
    ("stall", 1): "b5747d716461b266",
    ("stall", 4): "01956674e8dd45c7",
    ("drift_and_relock", 1): "a3f1e7cf6178384c",
    ("drift_and_relock", 4): "13e7fb6c0910a8d5",
    ("timeout_cut", 1): "57e6c77458d28c92",
    ("timeout_cut", 4): "96fc0d9988481122",
}

CASES = [
    (name, max_batch) for name in SCENARIOS for max_batch in (1, 4)
]


class TestFaultLadenServesEqualTheInlineServe:
    @pytest.mark.parametrize("name, max_batch", CASES)
    @pytest.mark.parametrize("execution", ["serial", "parallel"])
    def test_digest_equals_the_parent_commit(
        self, name, max_batch, execution
    ):
        result = serve(name, execution, max_batch)
        assert digest(result) == PARENT_DIGESTS[name, max_batch]

    @pytest.mark.parametrize("execution", ["serial", "parallel"])
    def test_uint8_levels_serve_like_float64(self, monkeypatch, execution):
        """Requests off the wire carry ``uint8`` levels, and a coalesced
        block of them stays ``uint8``: the serve decides what the same
        levels as ``float64`` do, degraded walks and re-locks included."""
        from repro.runtime import cluster as cluster_module

        dtypes = []
        stack = cluster_module.stack_levels

        def spy(entries):
            block = stack(entries)
            dtypes.append(block.dtype)
            return block

        monkeypatch.setattr(cluster_module, "stack_levels", spy)
        wire = [
            dataclasses.replace(
                request, data_levels=request.data_levels.astype(np.uint8)
            )
            for request in trace()
        ]
        with build_cluster(execution, 4) as cluster:
            result = cluster.serve_trace(wire, **drift_and_relock())
        assert set(dtypes) == {np.dtype(np.uint8)}
        assert digest(result) == PARENT_DIGESTS["drift_and_relock", 4]

    def test_the_scenarios_do_what_their_names_say(self):
        crashed = serve("crash_mid_batch", "serial", 4)
        assert crashed.stats.retries > 0
        assert crashed.stats.core_health[1] == "crashed"
        drifted = serve("drift_and_relock", "serial", 4)
        assert drifted.stats.quarantines >= 1
        assert drifted.stats.relocks >= 1
        assert any(
            r.core == 1 and r.finish_s > 40e-6 for r in drifted.records
        )
        cut = serve("timeout_cut", "serial", 4)
        assert cut.unfinished and cut.records
        assert max(r.batch_size for r in cut.records) > 1

    @pytest.mark.parametrize("rows", [1, 10_000])
    @pytest.mark.parametrize("name, max_batch", CASES)
    def test_block_cap_never_shows(self, monkeypatch, name, max_batch, rows):
        from repro.runtime import executor

        # Rows per block is ``cap // row_bytes``, at least one: a
        # one-byte cap is one row per invocation, a terabyte one every
        # pending row of a (core, model).
        cap = 1 if rows == 1 else 1 << 40
        assert (cap // _registered().row_bytes(2) >= 10_000) == (rows > 1)
        monkeypatch.setattr(executor, "BLOCK_BYTES", cap)
        result = serve(name, "serial", max_batch)
        assert digest(result) == PARENT_DIGESTS[name, max_batch]

    @pytest.mark.parametrize(
        "window", [1, 64], ids=["one run a message", "deep windows"]
    )
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_worker_drain_depth_never_shows(self, name, window):
        # How many dispatches a worker takes in per message: every run
        # its own, or windows deeper than a serve's bursts, so only
        # barriers (faults, re-locks, the flush before a join) send.
        result = serve(name, "parallel", 4, window=window)
        assert digest(result) == PARENT_DIGESTS[name, 4]

    @pytest.mark.parametrize("cap", [1, 1 << 40], ids=["one-row", "no-cap"])
    @pytest.mark.parametrize("name", ["crash_mid_batch", "drift_and_relock"])
    def test_worker_block_cap_never_shows(self, monkeypatch, name, cap):
        from repro.runtime import executor

        # Patched before the fork: a one-byte block evaluates every
        # dispatch as it arrives, an unbounded one only at barriers
        # (faults, re-locks, the parent's flush before it joins).
        monkeypatch.setattr(executor, "BLOCK_BYTES", cap)
        result = serve(name, "parallel", 4)
        assert digest(result) == PARENT_DIGESTS[name, 4]


def _registered() -> LightningDatapath:
    datapath = LightningDatapath(
        core=BehavioralCore(architecture=ARCHITECTURE)
    )
    datapath.register_model(tiny_mlp(1))
    datapath.register_model(mixed(2))
    return datapath


class _Spy:
    """Counts program invocations, the rows they carried and per-row
    step walks, process-wide, while installed."""

    def __init__(self, monkeypatch):
        self.blocks: list[int] = []
        self.walks = 0
        forward_block, walk = ModelPlan.forward_block, ModelPlan._walk
        spy = self

        def counted_block(self, core, block, streams=None, clock=None):
            spy.blocks.append(len(block))
            return forward_block(self, core, block, streams, clock)

        def counted_walk(self, core, activations):
            spy.walks += 1
            return walk(self, core, activations)

        monkeypatch.setattr(ModelPlan, "forward_block", counted_block)
        monkeypatch.setattr(ModelPlan, "_walk", counted_walk)


class TestAbortedDispatchesNeverCompute:
    @pytest.mark.parametrize("name", ["crash_mid_batch", "timeout_cut"])
    @pytest.mark.parametrize("max_batch", [1, 4])
    def test_rows_evaluated_equal_rows_served(
        self, monkeypatch, name, max_batch
    ):
        with build_cluster("serial", max_batch) as cluster:
            spy = _Spy(monkeypatch)
            result = cluster.serve_trace(trace(), **SCENARIOS[name]())
        # Every core is healthy: nothing walks, and what the programs
        # carried is exactly what was served — not the batch the crash
        # voided, not the ones the timeout left in flight.
        assert result.stats.retries or result.unfinished
        assert spy.walks == 0
        assert sum(spy.blocks) == len(result.records)


class TestCallBudget:
    def test_healthy_serve_runs_in_blocks(self, monkeypatch):
        from repro.runtime import executor

        with build_cluster("serial", max_batch=1) as cluster:
            spy = _Spy(monkeypatch)
            result = cluster.serve_trace(trace(count=64))
            block = min(
                executor.BLOCK_BYTES // datapath.row_bytes(model_id)
                for datapath in cluster.datapaths
                for model_id in cluster.model_ids
            )
        assert result.served == 64
        assert spy.walks == 0
        assert sum(spy.blocks) == 64
        models, cores = len(cluster.model_ids), cluster.num_cores
        assert len(spy.blocks) <= math.ceil(64 / block) + models * cores

    def test_a_one_row_cap_costs_one_invocation_per_request(
        self, monkeypatch
    ):
        """The budget test's own control: the count above does measure
        the blocking."""
        from repro.runtime import executor

        monkeypatch.setattr(executor, "BLOCK_BYTES", 1)
        with build_cluster("serial", max_batch=1) as cluster:
            spy = _Spy(monkeypatch)
            cluster.serve_trace(trace(count=64))
        assert spy.blocks == [1] * 64

    def test_workers_evaluate_forward_blocks(self, monkeypatch, tmp_path):
        """A worker evaluates its backlog once it holds a forward block
        or meets a barrier — never whatever one message carried — so
        single-row dispatches cost the inline executor's invocation
        count, not one per message."""
        from repro.perf.bench import gpt2_class_dag
        from repro.runtime import executor

        dag = gpt2_class_dag(0, model_id=1)
        rng = np.random.default_rng(8)
        requests = [
            RuntimeRequest(
                request_id=index, model_id=1, arrival_s=index * 1e-6,
                data_levels=rng.integers(
                    0, 256, size=dag.tasks[0].input_size
                ).astype(np.float64),
            )
            for index in range(64)
        ]

        def cluster(execution: str) -> Cluster:
            built = Cluster(
                num_cores=1,
                datapath_factory=lambda core: LightningDatapath(
                    core=BehavioralCore(seed=6)
                ),
                execution=execution,
                queue_capacity=len(requests),
            )
            built.deploy(dag)
            return built

        serial = cluster("serial").serve_trace(requests)
        # Installed before the fork, so the worker inherits the spy;
        # each call appends its dispatch count to the log.
        log = tmp_path / "evaluate.log"
        evaluate = executor.evaluate

        def spied(datapath, model_id, dispatches):
            with open(log, "a") as out:
                out.write(f"{len(dispatches)}\n")
            return evaluate(datapath, model_id, dispatches)

        monkeypatch.setattr(executor, "evaluate", spied)
        with cluster("parallel") as pool:
            parallel = pool.serve_trace(requests)
            limit = executor.BLOCK_BYTES // pool.datapaths[0].row_bytes(1)
        calls = [int(line) for line in log.read_text().split()]
        assert limit < 64 and sum(calls) == 64
        assert len(calls) <= math.ceil(64 / limit) + 1
        assert max(calls) <= limit
        assert [
            (r.request.request_id, r.prediction, r.finish_s)
            for r in parallel.records
        ] == [
            (r.request.request_id, r.prediction, r.finish_s)
            for r in serial.records
        ]

    def test_worker_posts_a_full_window_from_one_invocation_per_model(
        self, monkeypatch
    ):
        from .worker_stream import run_worker

        worker, serial = _registered(), _registered()
        window = [
            ("run", seq, request.model_id, request.data_levels, 0.0,
             (0xB0, 0, 0, seq))
            for seq, request in enumerate(trace(count=8))
        ]
        assert {run[2] for run in window} == {1, 2}
        spy = _Spy(monkeypatch)
        (answered,) = run_worker(worker, [*window, ("flush",)])
        assert len(spy.blocks) == 2 and sum(spy.blocks) == 8
        assert spy.walks == 0
        for (_, seq, model_id, levels, _, key), entry in zip(
            window, answered, strict=True
        ):
            serial.core.reseed_noise(*key)
            assert entry == (
                "pred", seq, [serial.execute(model_id, levels).prediction]
            )


class TestNonFiniteRequestsAreRejected:
    def poisoned(self):
        requests = trace(count=12)
        levels = requests[7].data_levels.copy()
        levels[3] = np.nan
        requests[7] = RuntimeRequest(
            request_id=7, model_id=requests[7].model_id,
            arrival_s=requests[7].arrival_s, data_levels=levels,
        )
        return requests

    def test_serial_serve_raises_before_charging(self):
        with build_cluster("serial", max_batch=1) as cluster:
            with pytest.raises(ValueError, match="0..255 levels"):
                cluster.serve_trace(self.poisoned())
            # Seven requests were charged; the poisoned one was not.
            replays = sum(
                stats["replays"]
                for per_core in cluster.plan_stats().values()
                for stats in per_core.values()
            )
            warmups = NUM_CORES * len(cluster.model_ids)
            assert replays - warmups == 7

    def test_parallel_serve_surfaces_the_workers_error(self):
        with build_cluster("parallel", max_batch=1) as cluster:
            with pytest.raises(RuntimeError) as raised:
                cluster.serve_trace(self.poisoned())
            assert "ValueError: activations must be non-negative" in str(
                raised.value
            )
            # The workers survive, and the failed serve left nothing
            # behind: a clean trace serves afterwards.
            result = cluster.serve_trace(trace(count=12))
            assert result.served == 12


class TestQuarantineKeepsThePlans:
    @pytest.mark.parametrize("execution", ["serial", "parallel"])
    def test_same_plan_object_and_cumulative_replays(self, execution):
        with build_cluster(execution, max_batch=4) as cluster:
            plans_before = [
                [datapath.model_plan(model_id) for model_id in (1, 2)]
                for datapath in cluster.datapaths
            ]
            replays_before = cluster.plan_stats()
            result = cluster.serve_trace(trace(), **drift_and_relock())
            assert result.stats.quarantines >= 1
            assert result.stats.relocks >= 1
            for datapath, before in zip(cluster.datapaths, plans_before):
                for model_id, plan in zip((1, 2), before):
                    assert datapath.model_plan(model_id) is plan
            replays_after = cluster.plan_stats()
            for core in range(NUM_CORES):
                for model_id in (1, 2):
                    assert (
                        replays_after[core][model_id]["replays"]
                        >= replays_before[core][model_id]["replays"]
                    )
            # Every served request is a replay on some core's plan,
            # the quarantined core's included: nothing was reset.
            grown = sum(
                replays_after[core][model_id]["replays"]
                - replays_before[core][model_id]["replays"]
                for core in range(NUM_CORES)
                for model_id in (1, 2)
            )
            assert grown >= result.served
            assert digest(result) == PARENT_DIGESTS["drift_and_relock", 4]
