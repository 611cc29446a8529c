"""Property-based equivalence tests for the datapath.

The load-bearing invariant of the whole reproduction: the cycle-level
datapath (both fidelities), the vectorized executor, and a plain numpy
mirror of the quantized arithmetic all compute the same function, for
*arbitrary* small DAGs and inputs.
"""

from __future__ import annotations

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
from repro.dnn import QuantizedNetwork
from repro.photonics import BehavioralCore, CoreArchitecture, NoiselessModel


@st.composite
def random_dense_dag(draw):
    """A random 1-3 layer dense DAG with random requant/nonlinearity."""
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    num_layers = draw(st.integers(1, 3))
    sizes = [draw(st.integers(1, 12)) for _ in range(num_layers + 1)]
    tasks = []
    previous: tuple[str, ...] = ()
    for i in range(num_layers):
        use_bias = draw(st.booleans())
        nonlinearity = draw(
            st.sampled_from(["identity", "relu", "softmax"])
        )
        # Intermediate divisors must differ from 1.0: a divisor of
        # exactly 1.0 skips the requant clip, so an identity layer could
        # hand negative levels to the next layer, which the datapath
        # rejects by contract.
        divisor = draw(
            st.floats(0.5, 64.0).filter(lambda d: d != 1.0)
            if i < num_layers - 1
            else st.just(1.0)
        )
        name = f"fc{i}"
        tasks.append(
            LayerTask(
                name=name,
                kind="dense",
                input_size=sizes[i],
                output_size=sizes[i + 1],
                weights_levels=rng.integers(
                    -255, 256, (sizes[i + 1], sizes[i])
                ).astype(float),
                nonlinearity=nonlinearity,
                bias_levels=(
                    rng.integers(-100, 101, sizes[i + 1]).astype(float)
                    if use_bias
                    else None
                ),
                depends_on=previous,
                requant_divisor=divisor,
            )
        )
        previous = (name,)
    x = rng.integers(0, 256, sizes[0]).astype(float)
    return ComputationDAG(1, "random", tasks), x


def numpy_mirror(dag: ComputationDAG, x: np.ndarray) -> np.ndarray:
    h = np.asarray(x, dtype=np.float64)
    for index, task in enumerate(dag.tasks):
        raw = task.weights_levels @ h / 255.0
        if task.bias_levels is not None:
            raw = raw + task.bias_levels
        if task.nonlinearity == "relu":
            raw = np.maximum(raw, 0.0)
        elif task.nonlinearity == "softmax":
            shifted = raw - raw.max()
            exps = np.exp(shifted)
            raw = exps / exps.sum()
        if index < dag.num_layers - 1 and task.requant_divisor != 1.0:
            raw = np.clip(raw / task.requant_divisor, 0.0, 255.0)
        h = raw
    return h


class TestDatapathEquivalence:
    @given(case=random_dense_dag())
    @settings(max_examples=40, deadline=None)
    def test_fast_path_equals_numpy_mirror(self, case):
        dag, x = case
        dp = LightningDatapath(core=BehavioralCore(noise=NoiselessModel()))
        dp.register_model(dag)
        assert np.allclose(
            dp.execute(1, x).output_levels, numpy_mirror(dag, x)
        )

    @given(case=random_dense_dag())
    @settings(max_examples=15, deadline=None)
    def test_device_path_equals_fast_path(self, case):
        dag, x = case
        fast = LightningDatapath(core=BehavioralCore(noise=NoiselessModel()))
        device = ReferenceDatapath(
            core=BehavioralCore(noise=NoiselessModel()), framing=True
        )
        fast.register_model(dag)
        device.register_model(dag)
        assert np.allclose(
            fast.execute(1, x).output_levels,
            device.execute(1, x).output_levels,
        )

    @given(case=random_dense_dag())
    @settings(max_examples=25, deadline=None)
    def test_vectorized_executor_equals_datapath(self, case):
        dag, x = case
        dp = LightningDatapath(core=BehavioralCore(noise=NoiselessModel()))
        dp.register_model(dag)
        q = QuantizedNetwork(dag)
        assert np.allclose(
            dp.execute(1, x).output_levels, q.forward(x[None, :])[0]
        )

    @given(
        case=random_dense_dag(),
        wavelengths=st.integers(1, 4),
    )
    @settings(max_examples=20, deadline=None)
    def test_wavelength_count_does_not_change_results(
        self, case, wavelengths
    ):
        """N changes the cycle ledger, never the arithmetic."""
        dag, x = case
        dp = LightningDatapath(
            core=BehavioralCore(
                architecture=CoreArchitecture(
                    accumulation_wavelengths=wavelengths
                ),
                noise=NoiselessModel(),
            )
        )
        dp.register_model(dag)
        assert np.allclose(
            dp.execute(1, x).output_levels, numpy_mirror(dag, x)
        )

    @given(case=random_dense_dag())
    @settings(max_examples=15, deadline=None)
    def test_execution_is_deterministic(self, case):
        dag, x = case
        dp = LightningDatapath(core=BehavioralCore(noise=NoiselessModel()))
        dp.register_model(dag)
        first = dp.execute(1, x).output_levels
        second = dp.execute(1, x).output_levels
        assert np.array_equal(first, second)

    @given(case=random_dense_dag())
    @settings(max_examples=15, deadline=None)
    def test_cycle_ledger_positive_and_stable(self, case):
        dag, x = case
        dp = LightningDatapath(core=BehavioralCore(noise=NoiselessModel()))
        dp.register_model(dag)
        a = dp.execute(1, x)
        b = dp.execute(1, x)
        assert a.compute_seconds > 0
        assert a.compute_seconds == b.compute_seconds
        assert [l.compute_cycles for l in a.layers] == [
            l.compute_cycles for l in b.layers
        ]
