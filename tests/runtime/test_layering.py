"""The serving stack never reaches the reference walk.

``repro.core.reference`` holds the per-layer instrument — ``walk`` /
``walk_layer`` and the ``ReferenceDatapath`` — which the tracer, the
equivalence tests and the perf gate's walk legs use.  A ``Cluster``
refuses a ``ReferenceDatapath`` (see ``test_cluster`` /
``test_parallel``), so nothing a serve can be handed gets there:
cluster, fabric and gateway complete a fault-laden serve with both
functions patched to raise, no serving module so much as names the
reference, and ``core/datapath.py`` names none of its parts.
"""

from __future__ import annotations

import pathlib

import pytest

import repro
from repro.core import reference
from repro.fabric import Fabric
from repro.faults import (
    BiasRelockController,
    CalibrationWatchdog,
    FaultSchedule,
)
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

    def walked(*args, **kwargs):
        raise AssertionError("the serving stack walked the layers")

    monkeypatch.setattr(reference, "walk", walked)
    monkeypatch.setattr(reference, "walk_layer", walked)


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


def test_serving_modules_do_not_name_the_reference():
    root = pathlib.Path(repro.__file__).parent
    for layer in ("runtime", "fabric", "traffic", "faults"):
        for module in sorted((root / layer).glob("*.py")):
            source = module.read_text()
            for name in ("core.reference", "ReferenceDatapath"):
                assert name not in source, (module.name, name)
    compiled = (root / "core" / "datapath.py").read_text()
    for name in (
        "execute_layer", "_reduce_row", "PreambleDetector",
        "CrossCycleAdderSubtractor",
    ):
        assert name not in compiled, name
