"""Poisson traces for the runtime, reusing the §9 workload generator.

The simulator's :class:`~repro.sim.workload.PoissonWorkload` draws
exponential inter-arrival gaps over a uniform model mix;
:func:`poisson_trace` drives the same generator over *deployed DAGs*
and attaches random 8-bit query levels, producing
:class:`~repro.runtime.cluster.RuntimeRequest` traces the cluster
serves through real datapaths.  :func:`rate_for_cluster_utilization`
is the runtime counterpart of the simulator's
:func:`~repro.sim.workload.rate_for_utilization`: it probes each
deployed model's real service time and sizes the arrival rate so the
cluster's cores run at a target compute occupancy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.dag import ComputationDAG
from ..sim.workload import PoissonWorkload
from .cluster import Cluster, RuntimeRequest

__all__ = [
    "poisson_trace",
    "probe_service_times",
    "rate_for_cluster_utilization",
]


def poisson_trace(
    dags: Sequence[ComputationDAG],
    arrival_rate_per_s: float,
    num_requests: int,
    seed: int = 0,
    trace_index: int = 0,
) -> list[RuntimeRequest]:
    """One Poisson-arrival trace of real inference queries.

    Arrival times and the uniform model mix come from
    :class:`~repro.sim.workload.PoissonWorkload` (identical statistics
    to the §9 simulations); each request carries fresh random 0..255
    activation levels sized to its model's input layer.
    """
    if not dags:
        raise ValueError("need at least one deployed DAG")
    workload = PoissonWorkload(
        list(dags), arrival_rate_per_s, seed=seed
    )
    trace = workload.trace(num_requests, trace_index)
    rng = np.random.default_rng((seed, trace_index, 0xDA7A))
    requests = []
    for request_id, arrival, pick in zip(
        trace.request_ids.tolist(), trace.arrivals.tolist(),
        trace.picks.tolist(),
    ):
        dag: ComputationDAG = trace.models[pick]
        levels = rng.integers(
            0, 256, size=dag.tasks[0].input_size
        ).astype(np.float64)
        requests.append(
            RuntimeRequest(
                request_id=request_id,
                model_id=dag.model_id,
                arrival_s=arrival,
                data_levels=levels,
            )
        )
    return requests


def probe_service_times(cluster: Cluster) -> dict[int, float]:
    """``model_id -> service seconds`` of one query per deployed model
    on core 0.

    A probe is one ledger replay
    (:meth:`~repro.core.datapath.LightningDatapath.execute_timing`):
    what a request costs never depends on its activations, so no
    forward pass runs.  The replay charges core 0's ledger — counters,
    registers, DRAM-jitter draws — as serving one query would.
    """
    datapath = cluster.datapaths[0]
    return {
        dag.model_id: datapath.execute_timing(dag.model_id).total_seconds
        for dag in cluster.deployed_dags
    }


def rate_for_cluster_utilization(
    cluster: Cluster, utilization: float
) -> float:
    """Arrival rate putting the cluster at a target compute occupancy.

    Probes each deployed model's real service time
    (:func:`probe_service_times`) and scales the mean by core count:
    ``rate = utilization * num_cores / mean_service``.
    """
    if not 0.0 < utilization:
        raise ValueError("utilization must be positive")
    services = probe_service_times(cluster)
    if not services:
        raise ValueError("deploy at least one model first")
    mean_service = float(np.mean(list(services.values())))
    return utilization * cluster.num_cores / mean_service
