#!/usr/bin/env python3
"""Serving runtime: a 4-core cluster under live Poisson traffic.

The §9 simulator models multi-core scheduling, FIFO queuing, and
DRAM-buffered overload abstractly; this demo runs the same behaviours
through the *real* cycle-accounted datapath with `repro.runtime`:

1. deploy two quantized models on a 4-core Cluster,
2. serve a Poisson trace sized to ~90 % utilization and print the
   paper's t_q/t_d/t_c serve-time decomposition,
3. overload the cluster 2x and show batching coalescing raising
   sustained throughput while bounded queues shed load instead of
   growing without bound.

Run:  python examples/serving_runtime.py
"""

from __future__ import annotations

import numpy as np

from repro.core import LightningDatapath
from repro.dnn import quantize_mlp, synthetic_flows, train_mlp
from repro.photonics import BehavioralCore, CoreArchitecture
from repro.runtime import (
    Cluster,
    LeastLoadedScheduler,
    poisson_trace,
    rate_for_cluster_utilization,
)


def train_dags() -> list:
    """Two small security-style MLPs quantized for the datapath."""
    dags = []
    for model_id, width in ((1, 48), (2, 24)):
        train, _ = synthetic_flows(900, seed=model_id).split()
        model = train_mlp(
            [16, width, 2],
            train,
            epochs=6,
            use_bias=False,
            name=f"security-{width}",
        ).model
        dags.append(quantize_mlp(model, train.x[:128], model_id=model_id))
    return dags


def make_cluster(num_cores: int, max_batch: int) -> Cluster:
    """A cluster of broadcast-capable photonic cores (Appendix E)."""
    architecture = CoreArchitecture(
        accumulation_wavelengths=2, batch_size=8
    )
    return Cluster(
        num_cores=num_cores,
        datapath_factory=lambda core: LightningDatapath(
            core=BehavioralCore(architecture=architecture, seed=core),
            seed=core,
        ),
        scheduler=LeastLoadedScheduler(num_cores),
        queue_capacity=32,
        max_batch=max_batch,
    )


def main() -> None:
    dags = train_dags()

    print("== 4-core cluster at ~90 % utilization ==")
    cluster = make_cluster(num_cores=4, max_batch=8)
    for dag in dags:
        cluster.deploy(dag)
    rate = rate_for_cluster_utilization(cluster, 0.9)
    trace = poisson_trace(dags, rate, num_requests=600, seed=42)
    result = cluster.serve_trace(trace)
    decomposition = result.decomposition()
    print(f"  served               : {result.served}")
    print(f"  dropped              : {result.dropped}")
    print(f"  utilization          : {result.utilization():.2f}")
    print(f"  throughput           : {result.throughput_rps:,.0f} req/s")
    print(f"  mean t_q (queuing)   : {decomposition['t_q'] * 1e6:8.3f} us")
    print(f"  mean t_d (datapath)  : {decomposition['t_d'] * 1e6:8.3f} us")
    print(f"  mean t_c (compute)   : {decomposition['t_c'] * 1e6:8.3f} us")
    p50 = result.stats.latency_percentile(50) * 1e6
    p99 = result.stats.latency_percentile(99) * 1e6
    print(f"  serve time p50/p99   : {p50:.3f} / {p99:.3f} us")

    print("\n== Overload: batching vs the synchronous single core ==")
    overload_rate = rate * 2.0
    rows = []
    for label, cores, max_batch in (
        ("1-core synchronous", 1, 1),
        ("4-core, no batching", 4, 1),
        ("4-core + coalescer", 4, 8),
    ):
        c = make_cluster(num_cores=cores, max_batch=max_batch)
        for dag in dags:
            c.deploy(dag)
        r = c.serve_trace(
            poisson_trace(dags, overload_rate, num_requests=600, seed=42)
        )
        rows.append((label, r))
    print(
        f"  {'configuration':<22} {'throughput':>12} {'served':>7} "
        f"{'dropped':>8} {'mean batch':>11}"
    )
    for label, r in rows:
        print(
            f"  {label:<22} {r.throughput_rps:>10,.0f}/s {r.served:>7} "
            f"{r.dropped:>8} {r.mean_batch_size:>11.2f}"
        )
    speedup = rows[2][1].throughput_rps / rows[0][1].throughput_rps
    print(
        f"\n  coalesced 4-core cluster sustains {speedup:.1f}x the "
        "synchronous loop's throughput;"
    )
    print(
        "  bounded queues dropped "
        f"{rows[0][1].dropped} requests on the overloaded single "
        "core instead of hanging."
    )


if __name__ == "__main__":
    np.set_printoptions(precision=3)
    main()
