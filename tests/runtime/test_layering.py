"""The serving stack never reaches the reference walk.

``LightningDatapath.execute_layers`` / ``execute_layer`` are the
per-layer instrument: the tracer, the ``loop`` / ``device`` fidelities
and the equivalence tests walk them.  A ``Cluster`` refuses any
datapath that would (see ``test_cluster`` / ``test_parallel``), so
nothing a serve can be handed gets there: cluster, fabric and gateway
complete a fault-laden serve with both methods patched to raise, and
``repro.runtime.cluster`` does not so much as name them.
"""

from __future__ import annotations

import inspect

import pytest

from repro.core import LightningDatapath
from repro.fabric import Fabric
from repro.faults import (
    BiasRelockController,
    CalibrationWatchdog,
    FaultSchedule,
)
from repro.runtime import cluster as cluster_module
from repro.traffic import serve_fabric_open_loop

from ..fabric.test_fabric import make_dag, spec, trace
from .test_cluster import make_cluster


def drifted_core_with_relock() -> dict:
    """Core 1 drifts, is quarantined, swept and readmitted."""
    return {
        "fault_schedule": FaultSchedule(seed=4).mzm_bias_drift(
            at_s=1e-6, core=1, volts_per_s=3000.0
        ),
        "watchdog": CalibrationWatchdog(
            interval_s=100e-6, relock=BiasRelockController()
        ),
    }


@pytest.fixture()
def no_walk(monkeypatch):
    """Any layer walk from here on is a failure (forked workers
    inherit the patch, so build parallel clusters after it)."""

    def walked(self, *args, **kwargs):
        raise AssertionError("the serving stack walked the layers")

    monkeypatch.setattr(LightningDatapath, "execute_layers", walked)
    monkeypatch.setattr(LightningDatapath, "execute_layer", walked)


@pytest.mark.parametrize("execution", ["serial", "parallel"])
def test_cluster_serves_without_the_walk(no_walk, execution):
    with make_cluster(num_cores=2, execution=execution) as cluster:
        cluster.deploy(make_dag(1))
        result = cluster.serve_trace(
            trace(count=300), **drifted_core_with_relock()
        )
    assert result.served == 300
    assert result.stats.quarantines >= 1 and result.stats.relocks >= 1


def test_fabric_and_gateway_serve_without_the_walk(no_walk):
    for serve in (Fabric.serve_trace, serve_fabric_open_loop):
        fabric = Fabric([spec(2), spec(2)])
        fabric.deploy(make_dag(1))
        result = serve(
            fabric, trace(count=300), **drifted_core_with_relock()
        )
        assert result.accounted()
        assert result.served == 300
        assert result.stats.quarantines >= 1 and result.stats.relocks >= 1


def test_the_cluster_module_does_not_name_the_walk():
    source = inspect.getsource(cluster_module)
    assert "execute_layer" not in source
