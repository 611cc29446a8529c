"""A convolution served by cores without a native matmul.

A device-accurate :class:`~repro.photonics.PrototypeCore` replays a conv
layer through the plan's stacked per-readout block.  In a cluster only
the first core of a geometry compiles; every other core registers a
replica of that plan, which carries no per-row state, and every worker
process compiles its own from the DAG it is sent down its pipe.  Each
must build the block from the task's weights and replay exactly what a
plan compiled on its own core would.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import ComputationDAG, LayerTask, LightningDatapath
from repro.core import datapath as datapath_module
from repro.core.dag import ConvShape
from repro.photonics import PrototypeCore
from repro.runtime import Cluster, RuntimeRequest

CONV = ConvShape(1, 5, 5, out_channels=2, kernel=3, padding=1)


def conv_dense_dag(model_id: int = 4) -> ComputationDAG:
    rng = np.random.default_rng(0)
    return ComputationDAG(
        model_id,
        "conv-dense",
        [
            LayerTask(
                name="conv", kind="conv",
                input_size=CONV.input_size, output_size=CONV.output_size,
                weights_levels=rng.integers(-200, 201, (2, 9)).astype(float),
                conv=CONV, nonlinearity="relu", requant_divisor=8.0,
            ),
            LayerTask(
                name="fc", kind="dense",
                input_size=CONV.output_size, output_size=3,
                weights_levels=rng.integers(
                    -200, 201, (3, CONV.output_size)
                ).astype(float),
                depends_on=("conv",),
            ),
        ],
    )


def prototype(core: int) -> LightningDatapath:
    return LightningDatapath(core=PrototypeCore(seed=core))


def self_compiled(dag: ComputationDAG, core: int) -> LightningDatapath:
    datapath = prototype(core)
    datapath.register_model(dag)
    return datapath


def inputs(count: int = 3) -> np.ndarray:
    return np.random.default_rng(1).integers(
        0, 256, (count, CONV.input_size)
    ).astype(float)


def assert_same_executions(ours, theirs, dag) -> None:
    """Every request: output levels, per-layer levels and ledger equal."""
    for x in inputs():
        a = ours.execute(dag.model_id, x)
        b = theirs.execute(dag.model_id, x)
        np.testing.assert_array_equal(a.output_levels, b.output_levels)
        for layer_a, layer_b in zip(a.layers, b.layers):
            np.testing.assert_array_equal(
                layer_a.output_levels, layer_b.output_levels
            )
            assert layer_a.compute_cycles == layer_b.compute_cycles
        assert a.timing == b.timing


class TestAdoptedConvPlan:
    def test_every_core_equals_a_self_compiled_twin(self, monkeypatch):
        dag = conv_dense_dag()
        compiles = []
        compile_model = datapath_module.compile_model
        monkeypatch.setattr(
            datapath_module,
            "compile_model",
            lambda *args: compiles.append(1) or compile_model(*args),
        )
        cluster = Cluster(num_cores=2, datapath_factory=prototype)
        cluster.deploy(dag)  # warms every core up on one zero query
        assert len(compiles) == 1  # core 1 adopted core 0's plan
        monkeypatch.undo()
        first, second = (
            datapath.model_plan(dag.model_id) for datapath in cluster.datapaths
        )
        assert all(
            a is b for a, b in zip(first.tasks.values(), second.tasks.values())
        )
        zeros = np.zeros(CONV.input_size)
        for core, datapath in enumerate(cluster.datapaths):
            twin = self_compiled(dag, core)
            twin.execute(dag.model_id, zeros)
            assert_same_executions(datapath, twin, dag)
        cluster.datapaths[0].execute(dag.model_id, zeros)
        assert (first.replays, second.replays) == (5, 4)  # per core

    def test_worker_compile_replays_like_a_parent(self):
        """A compile over the DAG as a worker process receives it —
        pickled down its pipe, weights included — replays like a
        compile over the parent's."""
        dag = conv_dense_dag()
        worker = self_compiled(pickle.loads(pickle.dumps(dag)), 1)
        assert_same_executions(worker, self_compiled(dag, 1), dag)

    @pytest.mark.parametrize("execution", ["serial", "parallel"])
    def test_cluster_deploys_and_serves(self, execution):
        dag = conv_dense_dag()
        trace = [
            RuntimeRequest(
                request_id=i, model_id=dag.model_id, arrival_s=i * 5e-6,
                data_levels=x,
            )
            for i, x in enumerate(inputs(8))
        ]
        with Cluster(
            num_cores=2, datapath_factory=prototype, execution=execution
        ) as cluster:
            cluster.deploy(dag)
            result = cluster.serve_trace(trace)
        assert result.served == result.offered == len(trace)
        assert {record.core for record in result.records} == {0, 1}
