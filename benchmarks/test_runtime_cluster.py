"""Benchmark: the multi-core serving runtime under Poisson overload.

The §9 simulator predicts that multiple cores plus request batching
sustain higher throughput at high utilization; this benchmark replays
the same Poisson arrival process through the *real* cycle-accounted
datapath via ``repro.runtime.Cluster`` and reports the serve-time
decomposition (t_q queuing / t_d datapath / t_c compute) per
configuration.  Acceptance: the 4-core coalescing cluster measurably
beats the 1-core synchronous loop, and bounded queues shed load
instead of hanging.
"""

from __future__ import annotations

import pytest

from repro.analysis import format_table
from repro.core import LightningDatapath
from repro.dnn import quantize_mlp, synthetic_flows, train_mlp
from repro.photonics import (
    BehavioralCore,
    CoreArchitecture,
    NoiselessModel,
)
from repro.runtime import (
    Cluster,
    LeastLoadedScheduler,
    poisson_trace,
    rate_for_cluster_utilization,
)

NUM_REQUESTS = 800
HARDWARE_BATCH = 8


def make_cluster(num_cores: int, max_batch: int) -> Cluster:
    arch = CoreArchitecture(
        accumulation_wavelengths=2, batch_size=HARDWARE_BATCH
    )
    return Cluster(
        num_cores=num_cores,
        datapath_factory=lambda core: LightningDatapath(
            core=BehavioralCore(
                architecture=arch, noise=NoiselessModel()
            ),
            seed=core,
        ),
        scheduler=LeastLoadedScheduler(num_cores),
        queue_capacity=32,
        max_batch=max_batch,
    )


@pytest.fixture(scope="module")
def dag():
    train, _ = synthetic_flows(1200, seed=60).split()
    model = train_mlp(
        [16, 48, 16, 2], train, epochs=8, use_bias=False
    ).model
    return quantize_mlp(model, train.x[:128], model_id=1)


@pytest.fixture(scope="module")
def campaign(dag):
    """Serve the same 2x-overload trace through three configurations.

    The rate is 2x the full 4-core no-batching capacity, so every
    configuration is past saturation and the differences below come
    from parallelism and coalescing, not slack.
    """
    probe = make_cluster(num_cores=4, max_batch=1)
    probe.deploy(dag)
    rate = rate_for_cluster_utilization(probe, 1.0) * 2.0
    trace = poisson_trace([dag], rate, NUM_REQUESTS, seed=61)
    rows = []
    for label, num_cores, max_batch in (
        ("1-core synchronous", 1, 1),
        ("4-core, no batching", 4, 1),
        ("4-core + coalescer", 4, 8),
    ):
        cluster = make_cluster(num_cores, max_batch)
        cluster.deploy(dag)
        result = cluster.serve_trace(trace)
        rows.append((label, num_cores, max_batch, result))
    return rows


def test_runtime_cluster_report(campaign, report_writer):
    table = []
    for label, _, max_batch, result in campaign:
        decomposition = result.decomposition()
        table.append(
            [
                label,
                max_batch,
                result.throughput_rps / 1e6,
                result.served,
                result.dropped,
                result.mean_batch_size,
                decomposition["t_q"] * 1e6,
                decomposition["t_d"] * 1e6,
                decomposition["t_c"] * 1e6,
            ]
        )
    report_writer(
        "runtime_cluster",
        format_table(
            [
                "Configuration", "Coalesce", "Tput (M req/s)",
                "Served", "Dropped", "Mean batch",
                "t_q (us)", "t_d (us)", "t_c (us)",
            ],
            table,
            title=(
                "Serving runtime — 2x-overload Poisson trace through "
                "the real datapath"
            ),
        ),
    )


def test_coalescer_beats_synchronous_loop(campaign):
    """Acceptance: batching sustains measurably higher throughput."""
    by_label = {label: result for label, _, _, result in campaign}
    single = by_label["1-core synchronous"]
    quad = by_label["4-core, no batching"]
    coalesced = by_label["4-core + coalescer"]
    assert quad.throughput_rps > 2.0 * single.throughput_rps
    assert coalesced.throughput_rps > 1.3 * quad.throughput_rps
    assert coalesced.throughput_rps > 4.0 * single.throughput_rps
    assert coalesced.mean_batch_size > 1.5


def test_bounded_queues_drop_not_hang(campaign):
    """Acceptance: overload sheds load; every request is accounted."""
    for _, num_cores, _, result in campaign:
        assert result.served + result.dropped == NUM_REQUESTS
        if num_cores == 1:
            assert result.dropped > 0
            assert result.stats.dropped == result.dropped


def test_decomposition_identity_under_load(campaign):
    """t_q + t_d + t_c == serve time, request by request, even with
    multi-pass coalesced batches in flight."""
    for _, _, _, result in campaign:
        for record in result.records:
            assert record.serve_time_s == pytest.approx(
                record.queuing_s + record.datapath_s + record.compute_s,
                abs=1e-12,
            )


def test_cluster_serve_benchmark(benchmark, dag):
    """Wall-clock cost of serving a 200-request trace on 4 cores."""
    cluster = make_cluster(num_cores=4, max_batch=8)
    cluster.deploy(dag)
    rate = rate_for_cluster_utilization(cluster, 0.9)
    trace = poisson_trace([dag], rate, 200, seed=62)
    benchmark(lambda: cluster.serve_trace(trace))
