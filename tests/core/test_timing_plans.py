"""Bit-identity contract for compiled timing plans.

The vectorized dry-run (``execute_timing`` / ``execute_batch_timing``
reducing a frozen :class:`~repro.core.datapath.TimingPlan`) must be an
*implementation detail*: for every model shape and batch size, the
estimates, the memory controller's cycle ledger (reads, cache hits,
accumulated latency), the jitter-RNG stream position, and the register
end state must match the per-layer walk
(``repro.core.reference.walk``) bit for bit — on degraded cores too: an
installed analog fault changes the values a core returns, never what a
layer costs, so a faulted core replays the plan it compiled while
healthy.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ComputationDAG,
    LayerTask,
    LightningDatapath,
    ReferenceDatapath,
)
from repro.core.dag import AttentionShape, ConvShape, PoolShape
from repro.core.datapath import TimingEstimate, TimingPlan
from repro.core.reference import walk
from repro.faults import DegradedCore, FaultSchedule, LaserPowerDrift
from repro.photonics import BehavioralCore, CoreArchitecture
from repro.runtime import Cluster, RuntimeRequest

HARDWARE_BATCH = 4

#: Batches the issue's contract names: one, a partial pass, exactly one
#: hardware pass, and a ragged multi-pass (2 x hardware_batch + 1).
BATCHES = (1, 3, HARDWARE_BATCH, 2 * HARDWARE_BATCH + 1)


def _dense(name, rng, n_in, n_out, **kwargs):
    return LayerTask(
        name=name, kind="dense", input_size=n_in, output_size=n_out,
        weights_levels=rng.integers(-200, 201, (n_out, n_in)).astype(float),
        **kwargs,
    )


def tiny_mlp(model_id: int) -> ComputationDAG:
    rng = np.random.default_rng(10 + model_id)
    return ComputationDAG(model_id, "tiny-mlp", [
        _dense("fc1", rng, 12, 8, nonlinearity="relu", requant_divisor=8.0),
        _dense("fc2", rng, 8, 4, depends_on=("fc1",)),
    ])


def single_layer(model_id: int) -> ComputationDAG:
    rng = np.random.default_rng(10 + model_id)
    return ComputationDAG(model_id, "one-layer", [
        _dense("only", rng, 16, 5),
    ])


def deep_mlp(model_id: int) -> ComputationDAG:
    rng = np.random.default_rng(10 + model_id)
    widths = [24, 20, 16, 12, 8, 4]
    tasks, previous = [], ()
    for i, (n_in, n_out) in enumerate(zip(widths, widths[1:])):
        tasks.append(_dense(
            f"fc{i}", rng, n_in, n_out, depends_on=previous,
            nonlinearity="relu" if i % 2 == 0 else "identity",
            requant_divisor=float(n_in),
        ))
        previous = (f"fc{i}",)
    return ComputationDAG(model_id, "deep-mlp", tasks)


def mixed(model_id: int) -> ComputationDAG:
    """Conv + pool + attention + dense: every timing class at once."""
    rng = np.random.default_rng(10 + model_id)
    conv = ConvShape(1, 6, 6, out_channels=2, kernel=3, padding=1)
    pool = PoolShape(channels=2, height=6, width=6, kernel=2)
    attn = AttentionShape(seq_len=3, d_model=6)
    return ComputationDAG(model_id, "mixed", [
        LayerTask(
            name="conv1", kind="conv",
            input_size=conv.input_size, output_size=conv.output_size,
            weights_levels=rng.integers(-200, 201, (2, 9)).astype(float),
            conv=conv, nonlinearity="relu", requant_divisor=8.0,
        ),
        LayerTask(
            name="pool1", kind="maxpool",
            input_size=pool.input_size, output_size=pool.output_size,
            pool=pool, depends_on=("conv1",),
        ),
        LayerTask(
            name="attn", kind="attention",
            input_size=attn.input_size, output_size=attn.output_size,
            weights_levels=rng.integers(
                -200, 201, (4 * attn.d_model, attn.d_model)
            ).astype(float),
            attention=attn, depends_on=("pool1",), requant_divisor=4.0,
        ),
        _dense("fc", rng, attn.output_size, 3, depends_on=("attn",)),
    ])


def conv_stack(model_id: int) -> ComputationDAG:
    """Two conv layers (cacheable kernels) feeding a classifier."""
    rng = np.random.default_rng(10 + model_id)
    conv1 = ConvShape(1, 8, 8, out_channels=2, kernel=3, padding=1)
    conv2 = ConvShape(2, 8, 8, out_channels=2, kernel=3, padding=1)
    return ComputationDAG(model_id, "conv-stack", [
        LayerTask(
            name="conv1", kind="conv",
            input_size=conv1.input_size, output_size=conv1.output_size,
            weights_levels=rng.integers(-200, 201, (2, 9)).astype(float),
            conv=conv1, nonlinearity="relu", requant_divisor=8.0,
        ),
        LayerTask(
            name="conv2", kind="conv",
            input_size=conv2.input_size, output_size=conv2.output_size,
            weights_levels=rng.integers(-200, 201, (2, 18)).astype(float),
            conv=conv2, depends_on=("conv1",), requant_divisor=8.0,
        ),
        _dense("fc", rng, conv2.output_size, 4, depends_on=("conv2",)),
    ])


def attention_tower(model_id: int) -> ComputationDAG:
    rng = np.random.default_rng(10 + model_id)
    attn = AttentionShape(seq_len=4, d_model=8)
    tasks, previous = [], ()
    for i in range(2):
        tasks.append(LayerTask(
            name=f"attn{i}", kind="attention",
            input_size=attn.input_size, output_size=attn.output_size,
            weights_levels=rng.integers(
                -200, 201, (4 * attn.d_model, attn.d_model)
            ).astype(float),
            attention=attn, depends_on=previous, requant_divisor=4.0,
        ))
        previous = (f"attn{i}",)
    tasks.append(_dense("fc", rng, attn.output_size, 6, depends_on=previous))
    return ComputationDAG(model_id, "attn-tower", tasks)


def grouped_heads(model_id: int) -> ComputationDAG:
    """Parallel-group heads: the datapath charge dedups to one."""
    rng = np.random.default_rng(10 + model_id)
    return ComputationDAG(model_id, "heads", [
        _dense("q", rng, 8, 8, parallel_group="attn", requant_divisor=8.0),
        _dense("k", rng, 8, 8, parallel_group="attn", requant_divisor=8.0),
        _dense("v", rng, 8, 8, parallel_group="attn", requant_divisor=8.0),
        _dense("fc", rng, 8, 2, depends_on=("q", "k", "v")),
    ])


#: The 7-model zoo the bit-identity contract quantifies over.
ZOO = (
    tiny_mlp,
    single_layer,
    deep_mlp,
    mixed,
    conv_stack,
    attention_tower,
    grouped_heads,
)


def make_datapath(seed: int = 0) -> LightningDatapath:
    arch = CoreArchitecture(
        accumulation_wavelengths=2, batch_size=HARDWARE_BATCH
    )
    return LightningDatapath(core=BehavioralCore(architecture=arch, seed=seed))


def walk_timing(datapath: LightningDatapath, model_id: int) -> TimingEstimate:
    """One request's ledger off the reference walk (a zero query: what
    a layer costs never depends on its activations)."""
    zeros = np.zeros(datapath.loader.dag(model_id).tasks[0].input_size)
    return walk(datapath, model_id, zeros).timing


def loop_batch_estimate(
    datapath: LightningDatapath, model_id: int, batch: int
) -> TimingEstimate:
    """A batch's cost the long way: one walk per sample."""
    hardware = datapath.core.architecture.batch_size
    passes = math.ceil(batch / hardware)
    first = walk_timing(datapath, model_id)
    for _ in range(batch - 1):
        walk_timing(datapath, model_id)
    return TimingEstimate(
        compute_seconds=first.compute_seconds * passes,
        datapath_seconds=first.datapath_seconds * passes,
        memory_seconds=first.memory_seconds * passes,
        passes=passes,
    )


def ledger(datapath: LightningDatapath) -> tuple:
    memory = datapath.memory
    return (
        memory.dram_reads,
        memory.cache_hits,
        memory.total_read_latency_s,
    )


def assert_streams_aligned(a: LightningDatapath, b: LightningDatapath):
    """Ledger, register end state, and RNG position must all agree."""
    assert ledger(a) == ledger(b)
    a_regs = a.memory._register_file
    b_regs = b.memory._register_file
    assert sorted(a_regs) == sorted(b_regs)
    # Consuming one probe draw from each stream proves the generators
    # sit at the same position — the strongest RNG-alignment check.
    assert a.memory._rng.uniform(0.0, 1.0) == b.memory._rng.uniform(0.0, 1.0)


class TestVectorizedBitIdentity:
    @settings(deadline=None, max_examples=40)
    @given(
        model_index=st.integers(min_value=0, max_value=len(ZOO) - 1),
        batch=st.sampled_from(BATCHES),
    )
    def test_batch_matches_loop(self, model_index, batch):
        dag = ZOO[model_index](model_id=model_index + 1)
        loop_dp = make_datapath(seed=model_index)
        plan_dp = make_datapath(seed=model_index)
        loop_dp.register_model(dag)
        plan_dp.register_model(dag)
        # Two consecutive dispatches: the first pays the kernel-cache
        # misses, the second must replay against a warm cache.
        for _ in range(2):
            expected = loop_batch_estimate(loop_dp, dag.model_id, batch)
            actual = plan_dp.execute_batch_timing(dag.model_id, batch)
            assert actual == expected
        assert_streams_aligned(loop_dp, plan_dp)

    @settings(deadline=None, max_examples=20)
    @given(model_index=st.integers(min_value=0, max_value=len(ZOO) - 1))
    def test_single_dry_run_matches_loop(self, model_index):
        dag = ZOO[model_index](model_id=model_index + 1)
        loop_dp = make_datapath(seed=model_index)
        plan_dp = make_datapath(seed=model_index)
        loop_dp.register_model(dag)
        plan_dp.register_model(dag)
        for _ in range(3):
            assert plan_dp.execute_timing(dag.model_id) == (
                walk_timing(loop_dp, dag.model_id)
            )
        assert_streams_aligned(loop_dp, plan_dp)

    def test_plan_compiled_at_register(self):
        dag = mixed(model_id=4)
        dp = make_datapath()
        assert dp.timing_plan(dag.model_id) is None
        dp.register_model(dag)
        tplan = dp.timing_plan(dag.model_id)
        assert isinstance(tplan, TimingPlan)
        assert tplan.num_layers == dag.num_layers
        # maxpool contributes no memory read; the other three do.
        assert len(tplan.read_names) == 3
        assert tplan.needs_matmul is True

    def test_grouped_heads_dedup_in_mask(self):
        dag = grouped_heads(model_id=7)
        dp = make_datapath()
        dp.register_model(dag)
        tplan = dp.timing_plan(dag.model_id)
        # q charges the group's 193 ns once; k and v ride along free.
        assert tplan.datapath_mask.tolist() == [True, False, False, True]

    def test_unregister_drops_timing_plan(self):
        dag = tiny_mlp(model_id=1)
        dp = make_datapath()
        dp.register_model(dag)
        assert dp.timing_plan(dag.model_id) is not None
        dp.unregister_model(dag.model_id)
        assert dp.timing_plan(dag.model_id) is None

    def test_loop_fidelity_rejected(self):
        """Only the compiled datapath has a ledger to dry-run: the
        per-row loop is not a fidelity of it any more."""
        with pytest.raises(ValueError, match="ReferenceDatapath"):
            LightningDatapath(core=BehavioralCore(seed=0), fidelity="loop")
        assert not hasattr(ReferenceDatapath, "execute_timing")


class TestDegradedReplay:
    @staticmethod
    def _degrade(datapath, now_s: float = 2.0):
        wrapper = DegradedCore.ensure(datapath)
        wrapper.set_time(now_s)
        wrapper.install(LaserPowerDrift(onset_s=0.0, fraction_per_s=0.02))
        return wrapper

    def test_fault_keeps_cached_plan(self):
        dag = mixed(model_id=4)
        dp = make_datapath()
        dp.register_model(dag)
        dp.execute_timing(dag.model_id)
        tplan = dp.timing_plan(dag.model_id)
        assert tplan is not None
        self._degrade(dp)
        dp.execute_timing(dag.model_id)
        assert dp.timing_plan(dag.model_id) is tplan

    @pytest.mark.parametrize("batch", BATCHES)
    def test_degraded_batch_matches_loop(self, batch):
        dag = mixed(model_id=4)
        loop_dp = make_datapath(seed=2)
        plan_dp = make_datapath(seed=2)
        for dp in (loop_dp, plan_dp):
            dp.register_model(dag)
            self._degrade(dp)
        tplan = plan_dp.timing_plan(dag.model_id)
        expected = loop_batch_estimate(loop_dp, dag.model_id, batch)
        actual = plan_dp.execute_batch_timing(dag.model_id, batch)
        assert actual == expected
        assert plan_dp.timing_plan(dag.model_id) is tplan
        assert_streams_aligned(loop_dp, plan_dp)

    def test_cluster_fault_mid_trace_keeps_plan(self):
        """A device fault landing mid-trace leaves the ledger alone.

        Parallel execution dry-runs on the parent datapaths while the
        workers compute: the faulted core keeps replaying the plan it
        compiled while healthy, and the records equal the serial
        cluster's, which runs the numerics on the degraded core itself.
        """
        dag = tiny_mlp(model_id=1)
        rng = np.random.default_rng(1)
        trace = [
            RuntimeRequest(
                request_id=i, model_id=1, arrival_s=i * 2e-6,
                data_levels=rng.integers(0, 256, size=12).astype(np.float64),
            )
            for i in range(24)
        ]
        schedule = FaultSchedule(seed=5).mzm_bias_drift(
            at_s=20e-6, core=0, volts_per_s=1e4
        )

        def build(execution):
            return Cluster(
                num_cores=2,
                datapath_factory=lambda core: make_datapath(seed=core),
                execution=execution,
            )

        serial = build("serial")
        serial.deploy(dag)
        expected = serial.serve_trace(trace, fault_schedule=schedule)
        with build("parallel") as cluster:
            cluster.deploy(dag)
            plans = [dp.timing_plan(dag.model_id) for dp in cluster.datapaths]
            assert all(plan is not None for plan in plans)
            result = cluster.serve_trace(trace, fault_schedule=schedule)
            assert result.served > 0
            assert isinstance(cluster.datapaths[0].core, DegradedCore)
            for dp, plan in zip(cluster.datapaths, plans):
                assert dp.timing_plan(dag.model_id) is plan
        assert result.records == expected.records
