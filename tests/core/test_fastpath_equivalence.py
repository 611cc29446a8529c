"""Seeded equivalence: compiled path vs the reference's loop and framing.

The contract the plan compiler must honor (see DESIGN.md): under one
seed, the compiled ``LightningDatapath`` reproduces the noise stream of
the ``ReferenceDatapath``'s per-row loop draw for draw, so predictions
and per-layer cycle ledgers are bit-identical and raw outputs agree to
float-reassociation tolerance.  The framing path (``framing=True``, the
``device`` of the test names) shares exact arithmetic (and therefore
bit-identical outputs are asserted only noiselessly — under noise it
draws a different stream and is statistically, not bitwise, equivalent).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AttentionShape,
    ComputationDAG,
    LayerTask,
    LightningDatapath,
    ReferenceDatapath,
)
from repro.core import plans
from repro.core.dag import ConvShape, PoolShape
from repro.faults import DegradedCore, LaserPowerDrift, StuckBit
from repro.photonics import (
    BehavioralCore,
    GaussianNoise,
    NoiselessModel,
    PrototypeCore,
)

ATOL = 1e-9  # float summation-order tolerance for raw output levels


def conv_dag(model_id: int = 11, seed: int = 3) -> ComputationDAG:
    rng = np.random.default_rng(seed)
    conv = ConvShape(1, 6, 6, out_channels=2, kernel=3, padding=1)
    pool = PoolShape(channels=2, height=6, width=6, kernel=2)
    return ComputationDAG(
        model_id,
        "small-cnn",
        [
            LayerTask(
                name="conv1", kind="conv",
                input_size=conv.input_size,
                output_size=conv.output_size,
                weights_levels=rng.integers(-200, 201, (2, 9)).astype(float),
                conv=conv, nonlinearity="relu", requant_divisor=8.0,
            ),
            LayerTask(
                name="pool1", kind="maxpool",
                input_size=pool.input_size,
                output_size=pool.output_size,
                pool=pool, depends_on=("conv1",),
            ),
            LayerTask(
                name="fc1", kind="dense",
                input_size=pool.output_size, output_size=3,
                weights_levels=rng.integers(
                    -200, 201, (3, pool.output_size)
                ).astype(float),
                depends_on=("pool1",),
            ),
        ],
    )


def attention_dag(model_id: int = 21, seed: int = 4) -> ComputationDAG:
    rng = np.random.default_rng(seed)
    shape = AttentionShape(seq_len=4, d_model=8)
    return ComputationDAG(
        model_id,
        "attn-toy",
        [
            LayerTask(
                name="attn", kind="attention",
                input_size=shape.input_size,
                output_size=shape.output_size,
                weights_levels=rng.integers(
                    -200, 201, (4 * shape.d_model, shape.d_model)
                ).astype(float),
                attention=shape, nonlinearity="relu",
                requant_divisor=4.0,
            ),
            LayerTask(
                name="fc", kind="dense",
                input_size=shape.output_size, output_size=3,
                weights_levels=rng.integers(
                    -200, 201, (3, shape.output_size)
                ).astype(float),
                depends_on=("attn",),
            ),
        ],
    )


class AccumulateOnlyCore:
    """A third-party-style core exposing only the scalar interface.

    No ``matmul``, no ``accumulate_fast``, no ``accumulate_into`` —
    compiled plans must route through the plain ``accumulate`` fallback
    and still reproduce the loop path's stream.
    """

    supports_matmul = False

    def __init__(self, inner: BehavioralCore) -> None:
        self._inner = inner

    @property
    def architecture(self):
        return self._inner.architecture

    @property
    def noise(self):
        return self._inner.noise

    def multiply(self, a_levels, b_levels):
        return self._inner.multiply(a_levels, b_levels)

    def accumulate(self, a_pairs, b_pairs):
        return self._inner.accumulate(a_pairs, b_pairs)


def run_requests(datapath, dag, inputs):
    predictions, ledgers, outputs = [], [], []
    for x in inputs:
        execution = datapath.execute(dag.model_id, x)
        predictions.append(execution.prediction)
        ledgers.append([layer.compute_cycles for layer in execution.layers])
        outputs.append(execution.output_levels)
    return predictions, ledgers, outputs


def compare(dag, inputs, *datapaths):
    """``run_requests`` of the same inputs on each datapath."""
    for datapath in datapaths:
        datapath.register_model(dag)
    return [run_requests(datapath, dag, inputs) for datapath in datapaths]


def assert_matches_framing_noiseless(dag, inputs):
    fast, device = compare(
        dag, inputs,
        LightningDatapath(core=BehavioralCore(noise=NoiselessModel())),
        ReferenceDatapath(
            core=BehavioralCore(noise=NoiselessModel()), framing=True
        ),
    )
    assert fast[0] == device[0]
    assert fast[1] == device[1]
    for a, b in zip(fast[2], device[2]):
        np.testing.assert_allclose(a, b, atol=1e-8)


def assert_stream_identical(dag, make_core, requests=5, seed=0):
    """Fast vs loop on identically seeded cores: bit-identical contract."""
    inputs = np.random.default_rng(seed).integers(
        0, 256, size=(requests, dag.tasks[0].input_size)
    ).astype(float)
    fast, loop = compare(
        dag, inputs, LightningDatapath(core=make_core()),
        ReferenceDatapath(core=make_core()),
    )
    assert fast[0] == loop[0], "predictions must be bit-identical"
    assert fast[1] == loop[1], "cycle ledgers must be bit-identical"
    for a, b in zip(fast[2], loop[2]):
        np.testing.assert_allclose(a, b, atol=ATOL, rtol=0.0)


class TestDenseEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_fast_matches_loop_under_noise(self, tiny_dag, seed):
        assert_stream_identical(
            tiny_dag,
            lambda: BehavioralCore(seed=seed, noise=GaussianNoise(std=2.0)),
            seed=seed,
        )

    def test_fast_matches_device_noiseless(self, tiny_dag, rng):
        inputs = rng.integers(0, 256, size=(3, 12)).astype(float)
        assert_matches_framing_noiseless(tiny_dag, inputs)

    def test_prototype_core_generic_fallback(self, tiny_dag):
        # PrototypeCore provides neither matmul nor accumulate_into;
        # the stacked-block fallback must keep the stream contract.
        assert_stream_identical(
            tiny_dag, lambda: PrototypeCore(seed=3), requests=2, seed=3
        )

    def test_prototype_core_conv_fallback(self, monkeypatch):
        """A matmul-less core's convolution: the plan's stacked
        accumulate block (``ConvPlan._fallback_block``) against the
        reference's row-by-row double loop — same record, same stream
        position, outputs equal to reassociation (``reduceat`` against
        ``np.sum``).  Both arms are counted, not assumed."""
        conv = ConvShape(1, 4, 4, out_channels=2, kernel=3)
        dag = ComputationDAG(31, "one-conv", [
            LayerTask(
                name="conv", kind="conv",
                input_size=conv.input_size, output_size=conv.output_size,
                weights_levels=np.random.default_rng(0).integers(
                    -200, 201, (2, 9)
                ).astype(float),
                conv=conv,
            ),
        ])
        x = np.random.default_rng(1).integers(0, 256, 16).astype(float)
        calls = {"block": 0, "rows": 0}

        def counted(cls, name, key):
            inner = getattr(cls, name)

            def wrapper(self, *args):
                calls[key] += 1
                return inner(self, *args)

            monkeypatch.setattr(cls, name, wrapper)

        counted(plans.ConvPlan, "_fallback_block", "block")
        counted(ReferenceDatapath, "_reduce_row", "rows")
        compiled = LightningDatapath(core=PrototypeCore(seed=1))
        walked = ReferenceDatapath(core=PrototypeCore(seed=1))
        for datapath in (compiled, walked):
            datapath.register_model(dag)
        ours = compiled.execute(dag.model_id, x)
        assert calls == {"block": 1, "rows": 0}
        theirs = walked.execute(dag.model_id, x)
        assert calls == {"block": 1, "rows": conv.positions * 2}
        assert ours.prediction == theirs.prediction
        (ours_layer,), (theirs_layer,) = ours.layers, theirs.layers
        for a, b in (
            (ours.output_levels, theirs.output_levels),
            (ours_layer.output_levels, theirs_layer.output_levels),
        ):
            np.testing.assert_allclose(a, b, atol=ATOL, rtol=0.0)
        assert ours_layer.compute_cycles == theirs_layer.compute_cycles == 92
        for name in (
            "task_name", "rows", "compute_seconds", "datapath_seconds",
            "memory_seconds",
        ):
            assert getattr(ours_layer, name) == getattr(theirs_layer, name)
        assert (
            compiled.core._rng.standard_normal()
            == walked.core._rng.standard_normal()
        )

    def test_composite_noise_stays_row_granular(self, tiny_dag):
        # CompositeNoise draws once per source per call, so the plan
        # must fall back to per-row accumulate calls to reproduce the
        # loop path's stream (noise.stream_equivalent is False).
        from repro.photonics import CompositeNoise, ThermalNoise

        def make_core():
            return BehavioralCore(
                seed=11,
                noise=CompositeNoise(
                    GaussianNoise(std=1.0), ThermalNoise(std=0.5)
                ),
            )

        assert make_core().noise.stream_equivalent is False
        assert_stream_identical(tiny_dag, make_core, requests=3, seed=11)

    def test_accumulate_only_core_falls_back(self, tiny_dag):
        assert_stream_identical(
            tiny_dag,
            lambda: AccumulateOnlyCore(
                BehavioralCore(seed=5, noise=GaussianNoise(std=1.5))
            ),
            seed=5,
        )


class TestConvEquivalence:
    def test_fast_matches_loop_under_noise(self):
        assert_stream_identical(
            conv_dag(),
            lambda: BehavioralCore(seed=2, noise=GaussianNoise(std=1.0)),
            seed=2,
        )

    def test_fast_matches_device_noiseless(self):
        dag = conv_dag()
        inputs = np.random.default_rng(6).integers(
            0, 256, size=(3, dag.tasks[0].input_size)
        ).astype(float)
        assert_matches_framing_noiseless(dag, inputs)


class TestAttentionEquivalence:
    def test_fast_matches_loop_under_noise(self):
        assert_stream_identical(
            attention_dag(),
            lambda: BehavioralCore(seed=9, noise=GaussianNoise(std=1.0)),
            seed=9,
        )

    def test_rejected_without_matmul_on_both_paths(self):
        # Attention needs a matmul-capable core; both datapaths must
        # refuse it the same way (the plan must not widen support).
        dag = attention_dag()
        x = np.zeros(dag.tasks[0].input_size)
        for build in (LightningDatapath, ReferenceDatapath):
            dp = build(core=AccumulateOnlyCore(BehavioralCore(seed=8)))
            dp.register_model(dag)
            with pytest.raises(ValueError, match="behavioral core"):
                dp.execute(dag.model_id, x)


class TestDegradedCoreEquivalence:
    @staticmethod
    def _degraded(seed):
        core = DegradedCore(
            BehavioralCore(seed=seed, noise=GaussianNoise(std=1.0)),
            faults=[
                LaserPowerDrift(onset_s=0.0, fraction_per_s=0.02),
                StuckBit(onset_s=0.0, bit=1, stuck_to=1),
            ],
        )
        core.set_time(3.0)  # both faults active
        return core

    def test_fast_matches_loop_with_active_faults(self, tiny_dag):
        assert_stream_identical(tiny_dag, lambda: self._degraded(4), seed=4)

    def test_fast_matches_loop_with_active_faults_conv(self):
        assert_stream_identical(
            conv_dag(), lambda: self._degraded(5), requests=3, seed=5
        )

    def test_wrapper_hides_accumulate_into_of_plain_cores(self):
        plain = DegradedCore(AccumulateOnlyCore(BehavioralCore(seed=0)))
        assert getattr(plain, "accumulate_into", None) is None
        rich = DegradedCore(BehavioralCore(seed=0))
        assert callable(rich.accumulate_into)

    def test_wrapped_accumulate_only_core_still_equivalent(self, tiny_dag):
        def make_core():
            core = DegradedCore(
                AccumulateOnlyCore(
                    BehavioralCore(seed=6, noise=GaussianNoise(std=1.0))
                ),
                faults=[StuckBit(onset_s=0.0, bit=0, stuck_to=1)],
            )
            core.set_time(1.0)
            return core

        assert_stream_identical(tiny_dag, make_core, requests=3, seed=6)
