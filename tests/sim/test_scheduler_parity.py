"""Scheduler parity between the §9 simulator and the runtime cluster.

The simulator and the cluster share one scheduler protocol; these
tests pin the stronger claim that a given policy makes *identical
placement decisions* in both hosts.  One arrival trace replays through
:class:`~repro.sim.simulator.EventDrivenSimulator` and through a
noiseless :class:`~repro.runtime.cluster.Cluster` with the same
policy; the two hosts' outcomes tables, joined on request id, must
give every request the same model and the same core.

Arrivals are spaced wider than any service time, so every request is
dispatched alone with all cores idle — the regime where both hosts
offer the scheduler the same candidate set.  (Under sustained load the
cluster offers only the *idle* subset while the simulator offers every
core, so index-rotating policies legitimately diverge; load-keyed and
health-keyed policies are the parity surface.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ComputationDAG, LayerTask
from repro.core.datapath import LightningDatapath
from repro.dnn.model import LayerSpec, ModelSpec
from repro.photonics import BehavioralCore, NoiselessModel
from repro.runtime import (
    Cluster,
    HealthAwareScheduler,
    LeastLoadedScheduler,
    RoundRobinScheduler,
    RuntimeRequest,
)
from repro.sim import EventDrivenSimulator, lightning_chip
from repro.sim.workload import SimRequest

NUM_CORES = 3
#: Wider than any tiny-model service time in either host.
SPACING_S = 1e-3


def _dag(model_id: int) -> ComputationDAG:
    gen = np.random.default_rng(40 + model_id)
    w = gen.integers(-200, 201, size=(4, 8)).astype(np.float64)
    return ComputationDAG(
        model_id=model_id,
        name=f"parity-{model_id}",
        tasks=[
            LayerTask(
                name="fc",
                kind="dense",
                input_size=8,
                output_size=4,
                weights_levels=w,
            )
        ],
    )


def _spec(model_id: int) -> ModelSpec:
    return ModelSpec(
        name=f"parity-{model_id}",
        layers=(LayerSpec("l1", 1_000_000, 1_000_000),),
        model_bytes=1024,
        query_bytes=128,
    )


def _noiseless(core: int) -> LightningDatapath:
    return LightningDatapath(
        core=BehavioralCore(noise=NoiselessModel()), seed=core
    )


def _joined(request_ids, model_names, cores) -> list[tuple[int, str, int]]:
    """``(request_id, model name, core)`` per row of one host's table,
    sorted on the request id the two tables join on."""
    return sorted(zip(request_ids, model_names, cores))


def _run_both(scheduler_factory, model_pattern):
    """One trace through both hosts; returns (sim, cluster) outcomes
    as lists of (request_id, model name, core) joined on request id."""
    gen = np.random.default_rng(77)
    dags = {m: _dag(m) for m in sorted(set(model_pattern))}
    specs = {m: _spec(m) for m in dags}

    sim = EventDrivenSimulator(
        lightning_chip(), scheduler_factory(NUM_CORES)
    )
    sim_trace = [
        SimRequest(i, specs[m], i * SPACING_S)
        for i, m in enumerate(model_pattern)
    ]
    sim_result = sim.run(sim_trace)
    sim_table = sim_result.outcomes

    cluster = Cluster(
        num_cores=NUM_CORES,
        datapath_factory=_noiseless,
        scheduler=scheduler_factory(NUM_CORES),
    )
    for dag in dags.values():
        cluster.deploy(dag)
    runtime_trace = [
        RuntimeRequest(
            request_id=i,
            model_id=m,
            arrival_s=i * SPACING_S,
            data_levels=gen.integers(0, 256, size=8).astype(np.float64),
        )
        for i, m in enumerate(model_pattern)
    ]
    cluster_result = cluster.serve_trace(runtime_trace)
    assert cluster_result.served == len(model_pattern)
    cluster_table = cluster_result.outcomes
    # Spaced arrivals: nothing waits for a core in either host.  The
    # cluster's t_q is the remainder ``finish - arrival - t_d - t_c``,
    # so it is zero up to that subtraction's rounding.
    assert (sim_table.t_q == 0.0).all()
    assert np.abs(cluster_table.t_q).max() < 1e-15
    # The simulator's request column holds ids, the cluster's the
    # request objects.
    return (
        _joined(
            sim_table.request.tolist(),
            [r.request.model.name for r in sim_result.records],
            sim_table.core.tolist(),
        ),
        _joined(
            [r.request_id for r in cluster_table.request.tolist()],
            [f"parity-{m}" for m in cluster_table.model.tolist()],
            cluster_table.core.tolist(),
        ),
    )


MIXED = [0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 1, 1]
SINGLE = [0] * 12


class TestSchedulerParity:
    @pytest.mark.parametrize(
        "factory",
        [HealthAwareScheduler, LeastLoadedScheduler, RoundRobinScheduler],
        ids=["health-aware", "least-loaded", "round-robin"],
    )
    def test_single_model_assignments_match(self, factory):
        sim, cluster = _run_both(factory, SINGLE)
        assert sim == cluster

    @pytest.mark.parametrize(
        "factory",
        [HealthAwareScheduler, RoundRobinScheduler],
        ids=["health-aware", "round-robin"],
    )
    def test_mixed_model_service_order_and_cores_match(self, factory):
        """Same cores *and* the same model per request, two models."""
        sim, cluster = _run_both(factory, MIXED)
        assert sim == cluster

    def test_health_aware_rotates_in_both_hosts(self):
        """The shared rotation makes placement round-robin when all
        cores are clean and idle — pinned so a host-side change to the
        snapshot protocol cannot silently skew placement."""
        sim, cluster = _run_both(HealthAwareScheduler, SINGLE)
        cores = [core for (_, _, core) in sim]
        assert cores == [i % NUM_CORES for i in range(len(SINGLE))]
        assert cores == [core for (_, _, core) in cluster]
