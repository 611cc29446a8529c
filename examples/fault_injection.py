#!/usr/bin/env python3
"""Fault injection: breaking a photonic serving cluster on purpose.

Analog accelerators fail quietly — a drifting modulator bias shifts
every readout without raising a single digital alarm.  This demo drives
a 4-core cluster through three deterministic failure scenarios with
`repro.faults` and shows the resilience layer keeping the run
accounted:

1. a core crashes mid-trace: the in-flight batch retries on surviving
   cores and goodput degrades gracefully instead of collapsing;
2. a modulator bias drifts on one core: the calibration watchdog's
   probe vectors catch the growing analog error and quarantine the
   core within one probe interval;
3. a lossy, corrupting wire: frames drop and payloads flip at NIC
   ingress, and corrupted queries degrade to punts — never crashes.

Every scenario replays bit-exactly under its schedule seed.

Run:  python examples/fault_injection.py
"""

from __future__ import annotations

import numpy as np

from repro.core import LightningDatapath
from repro.dnn import quantize_mlp, synthetic_flows, train_mlp
from repro.faults import (
    CalibrationWatchdog,
    FaultSchedule,
    RetryPolicy,
    WireFrame,
)
from repro.net import InferenceRequest, build_inference_frame
from repro.photonics import BehavioralCore, CoreArchitecture
from repro.runtime import (
    Cluster,
    LeastLoadedScheduler,
    poisson_trace,
    rate_for_cluster_utilization,
)


def train_dag():
    """A small security-style MLP quantized for the datapath."""
    train, _ = synthetic_flows(900, seed=1).split()
    model = train_mlp(
        [16, 48, 2], train, epochs=6, use_bias=False, name="security"
    ).model
    return quantize_mlp(model, train.x[:128], model_id=1)


def make_cluster(num_cores: int = 4) -> Cluster:
    """A cluster of broadcast-capable photonic cores."""
    architecture = CoreArchitecture(accumulation_wavelengths=2, batch_size=8)
    return Cluster(
        num_cores=num_cores,
        datapath_factory=lambda core: LightningDatapath(
            core=BehavioralCore(architecture=architecture, seed=core),
            seed=core,
        ),
        scheduler=LeastLoadedScheduler(num_cores),
        queue_capacity=64,
        max_batch=8,
    )


def summarize(label: str, result) -> None:
    accounted = (
        result.served
        + result.dropped
        + result.failed
        + result.unfinished
    )
    print(f"  {label}")
    print(
        f"    served {result.served} / dropped {result.dropped}"
        f" / failed {result.failed} (offered {result.offered},"
        f" accounted {accounted})"
    )
    print(
        f"    retries {result.stats.retries}, "
        f"slo drops {result.stats.slo_dropped}, "
        f"quarantines {result.stats.quarantines}"
    )
    print(f"    core health: {result.stats.core_health}")


def main() -> None:
    dag = train_dag()

    probe = make_cluster()
    probe.deploy(dag)
    rate = rate_for_cluster_utilization(probe, 0.8)
    trace = poisson_trace([dag], rate, num_requests=400, seed=42)
    horizon = trace[-1].arrival_s

    print("== Scenario 1: a core crashes halfway through the trace ==")
    cluster = make_cluster()
    cluster.deploy(dag)
    schedule = FaultSchedule(seed=7).core_crash(
        at_s=horizon * 0.5, core=1
    )
    result = cluster.serve_trace(
        trace,
        fault_schedule=schedule,
        retry_policy=RetryPolicy(max_retries=2, backoff_s=1e-6),
    )
    summarize("crash at 50% of the trace, retries on survivors:", result)

    print("\n== Scenario 2: modulator bias drift vs the watchdog ==")
    cluster = make_cluster()
    cluster.deploy(dag)
    onset = horizon * 0.25
    interval = horizon * 0.1
    # Drift fast enough to walk ~2 V off the extinction point within
    # one probe interval — an unmistakable analog error.
    schedule = FaultSchedule(seed=7).mzm_bias_drift(
        at_s=onset, core=2, volts_per_s=2.0 / interval
    )
    result = cluster.serve_trace(
        trace,
        fault_schedule=schedule,
        watchdog=CalibrationWatchdog(interval_s=interval),
    )
    summarize("bias drift on core 2, probing every 10% of the trace:",
              result)
    health = cluster.health[2]
    if health.quarantined_at_s is not None:
        lag = health.quarantined_at_s - onset
        print(
            f"    quarantined {lag * 1e6:.1f} us after onset "
            f"(probe interval {interval * 1e6:.1f} us), "
            f"probe error {health.error_rms:.2f} levels"
        )

    print("\n== Scenario 3: a lossy, corrupting wire ==")
    rng = np.random.default_rng(3)
    frames = [
        WireFrame(
            arrival_s=request.arrival_s,
            raw=build_inference_frame(
                InferenceRequest(
                    model_id=1,
                    request_id=request.request_id,
                    data=rng.random(16),
                )
            ),
        )
        for request in trace
    ]
    cluster = make_cluster()
    cluster.deploy(dag)
    schedule = (
        FaultSchedule(seed=11)
        .frame_drop(at_s=0.0, duration_s=horizon, probability=0.1)
        .frame_corrupt(at_s=0.0, duration_s=horizon, probability=0.15)
    )
    result, report = cluster.serve_frames(frames, fault_schedule=schedule)
    print(f"  wire damage: {report.summary()}")
    print(
        f"  NIC counters: {cluster.nic_counters.summary()} "
        "(corrupted queries punt, they never crash the parser)"
    )
    summarize("served through the faulty wire:", result)

    print(
        "\nEvery scenario above replays bit-exactly under its schedule "
        "seed — rerun this script and diff the output."
    )


if __name__ == "__main__":
    np.set_printoptions(precision=3)
    main()
