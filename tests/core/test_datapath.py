"""Tests for the cycle-level Lightning datapath."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    PER_LAYER_DATAPATH_SECONDS,
    ComputationDAG,
    LayerTask,
    LightningDatapath,
    ReferenceDatapath,
)
from repro.photonics import BehavioralCore, GaussianNoise, NoiselessModel

from .test_conv_datapath import small_conv_dag


def reference_forward(dag, x):
    """Plain numpy mirror of the datapath's quantized arithmetic."""
    h = np.asarray(x, dtype=np.float64)
    for index, task in enumerate(dag.tasks):
        raw = task.weights_levels @ h / 255.0
        if task.bias_levels is not None:
            raw = raw + task.bias_levels
        if task.nonlinearity == "relu":
            raw = np.maximum(raw, 0.0)
        if index < len(dag.tasks) - 1 and task.requant_divisor != 1.0:
            raw = np.clip(raw / task.requant_divisor, 0.0, 255.0)
        h = raw
    return h


class TestExecution:
    def test_fast_path_matches_reference(self, tiny_dag, rng):
        dp = LightningDatapath(core=BehavioralCore(noise=NoiselessModel()))
        dp.register_model(tiny_dag)
        x = rng.integers(0, 256, 12).astype(float)
        execution = dp.execute(1, x)
        assert np.allclose(
            execution.output_levels, reference_forward(tiny_dag, x)
        )

    def test_device_path_matches_fast_path(self, tiny_dag, rng):
        x = rng.integers(0, 256, 12).astype(float)
        fast = LightningDatapath(core=BehavioralCore(noise=NoiselessModel()))
        device = ReferenceDatapath(
            core=BehavioralCore(noise=NoiselessModel()), framing=True
        )
        fast.register_model(tiny_dag)
        device.register_model(tiny_dag)
        out_fast = fast.execute(1, x).output_levels
        out_device = device.execute(1, x).output_levels
        assert np.allclose(out_fast, out_device)

    def test_device_and_fast_cycle_ledgers_agree(self, tiny_dag, rng):
        x = rng.integers(0, 256, 12).astype(float)
        results = []
        for dp in (
            LightningDatapath(core=BehavioralCore(noise=NoiselessModel())),
            ReferenceDatapath(
                core=BehavioralCore(noise=NoiselessModel()), framing=True
            ),
        ):
            dp.register_model(tiny_dag)
            results.append(
                [l.compute_cycles for l in dp.execute(1, x).layers]
            )
        assert results[0] == results[1]

    def test_prediction_is_argmax(self, tiny_dag, rng):
        dp = LightningDatapath(core=BehavioralCore(noise=NoiselessModel()))
        dp.register_model(tiny_dag)
        x = rng.integers(0, 256, 12).astype(float)
        execution = dp.execute(1, x)
        assert execution.prediction == int(
            np.argmax(execution.output_levels)
        )

    def test_noise_perturbs_but_tracks_reference(self, tiny_dag, rng):
        dp = LightningDatapath(
            core=BehavioralCore(noise=GaussianNoise(), seed=9)
        )
        dp.register_model(tiny_dag)
        x = rng.integers(0, 256, 12).astype(float)
        out = dp.execute(1, x).output_levels
        ref = reference_forward(tiny_dag, x)
        assert not np.allclose(out, ref)  # noise present
        assert np.allclose(out, ref, atol=30.0)  # but small

    def test_wrong_input_size_rejected(self, tiny_dag):
        dp = LightningDatapath()
        dp.register_model(tiny_dag)
        with pytest.raises(ValueError, match="expects 12"):
            dp.execute(1, np.zeros(5))

    def test_negative_activations_rejected(self, tiny_dag):
        dp = LightningDatapath()
        dp.register_model(tiny_dag)
        with pytest.raises(ValueError, match="non-negative"):
            dp.execute(1, np.full(12, -1.0))

    def test_unregistered_model_rejected(self):
        dp = LightningDatapath()
        with pytest.raises(KeyError):
            dp.execute(42, np.zeros(4))

    def test_invalid_fidelity_rejected(self):
        with pytest.raises(ValueError, match="fidelity"):
            LightningDatapath(fidelity="magic")

    def test_the_walk_is_not_on_the_class(self):
        # ``fidelity="fast"`` and ``seed=`` stay accepted (and inert);
        # test_timing_plans pins the ``"loop"`` half.
        LightningDatapath(fidelity="fast", seed=3)
        with pytest.raises(ValueError, match="ReferenceDatapath"):
            LightningDatapath(fidelity="device")
        for name in ("execute_layers", "execute_layer", "invalidate_plans"):
            assert not hasattr(LightningDatapath, name)
        for name in (
            "execute_timing", "execute_batch_timing", "forward",
            "forward_keyed",
        ):
            assert not hasattr(ReferenceDatapath, name)

    def test_reference_unregister_drops_its_sign_cache(self, tiny_dag, rng):
        """Re-registering an id serves the new weights, not cached rows."""
        x = rng.integers(0, 256, 12).astype(float)
        first, last = tiny_dag.tasks
        flipped = ComputationDAG(1, "flipped", [
            first,
            LayerTask(
                name=last.name, kind="dense", input_size=last.input_size,
                output_size=last.output_size,
                weights_levels=-last.weights_levels,
                depends_on=last.depends_on,
            ),
        ])
        dp = ReferenceDatapath(core=BehavioralCore(noise=NoiselessModel()))
        dp.register_model(tiny_dag)
        dp.execute(1, x)
        dp.unregister_model(1)
        dp.register_model(flipped)
        fresh = ReferenceDatapath(core=BehavioralCore(noise=NoiselessModel()))
        fresh.register_model(flipped)
        np.testing.assert_array_equal(
            dp.execute(1, x).output_levels, fresh.execute(1, x).output_levels
        )

    def test_unregister_frees_the_dram_image(self, tiny_dag, rng):
        """Register/unregister cycles of distinct ids leave DRAM where
        they found it; a re-registered id serves as a fresh one does."""
        dp = LightningDatapath(core=BehavioralCore(noise=NoiselessModel()))
        start = dp.memory.dram.used_bytes
        conv = small_conv_dag()
        x_conv = rng.integers(0, 256, conv.tasks[0].input_size).astype(float)
        for model_id in range(1, 5):
            dag = ComputationDAG(model_id, f"m{model_id}", tiny_dag.tasks)
            dp.register_model(dag)
            assert dp.memory.dram.used_bytes > start
            dp.unregister_model(model_id)
            assert dp.memory.dram.used_bytes == start
        dp.register_model(conv)
        dp.execute(conv.model_id, x_conv)
        kernels = dp.timing_plan(conv.model_id).kernel_keys
        assert kernels and dp.memory.pinned(kernels)
        dp.unregister_model(conv.model_id)
        assert dp.memory.dram.used_bytes == start
        assert not any(dp.memory.pinned({key}) for key in kernels)
        x = rng.integers(0, 256, 12).astype(float)
        dp.register_model(tiny_dag)
        fresh = LightningDatapath(core=BehavioralCore(noise=NoiselessModel()))
        fresh.register_model(tiny_dag)
        np.testing.assert_array_equal(
            dp.execute(1, x).output_levels, fresh.execute(1, x).output_levels
        )

    def test_refused_adoption_registers_nothing(self, tiny_dag):
        """A registered model always has both programs: a plan of the
        wrong geometry is refused before anything is staged."""
        donor = LightningDatapath(preamble_repeats=4)
        donor.register_model(tiny_dag)
        dp = LightningDatapath()
        with pytest.raises(ValueError, match="different datapath geometry"):
            dp.register_model(tiny_dag, plan=donor.model_plan(1))
        assert dp.loader.model_ids == ()
        assert dp.model_plan(1) is None and dp.timing_plan(1) is None


class TestCheckRequest:
    """A ``uint8`` block is in range by its type: only its length is
    checked.  Every other dtype is scanned for 0..255 and NaN."""

    @pytest.fixture()
    def dp(self, tiny_dag):
        dp = LightningDatapath()
        dp.register_model(tiny_dag)
        return dp

    def test_uint8_of_the_wrong_length_raises_as_before(self, dp):
        with pytest.raises(ValueError) as as_float:
            dp.check_request(1, np.zeros(5))
        with pytest.raises(ValueError) as as_uint8:
            dp.check_request(1, np.zeros(5, np.uint8))
        assert str(as_uint8.value) == str(as_float.value)
        assert "expects 12" in str(as_uint8.value)

    @pytest.mark.parametrize(
        "bad", [np.float64(256.0), np.float64(np.nan), np.int16(-1)],
        ids=["float64-256", "float64-nan", "int16-minus-1"],
    )
    def test_other_dtypes_are_still_scanned(self, dp, bad):
        block = np.zeros((2, 12), dtype=np.asarray(bad).dtype)
        block[1, 7] = bad
        with pytest.raises(ValueError, match="non-negative"):
            dp.check_request(1, block)

    def test_uint8_extremes_pass(self, dp):
        block = np.zeros((2, 12), np.uint8)
        block[1] = 255
        dp.check_request(1, block)
        dp.check_request(1, block[1])

    def test_ingress_hands_serving_uint8_levels(self):
        from repro.faults import WireFrame, requests_from_frames
        from repro.net import InferenceRequest, build_inference_frame

        frames = [
            WireFrame(i * 1e-6, build_inference_frame(
                InferenceRequest(1, i, np.arange(12, dtype=np.uint8))
            ))
            for i in range(3)
        ]
        requests, punted = requests_from_frames(frames)
        assert punted == 0 and len(requests) == 3
        for request in requests:
            assert request.data_levels.dtype == np.uint8


class TestLatencyAccounting:
    def test_datapath_latency_is_193ns_per_layer(self, tiny_dag):
        dp = LightningDatapath(core=BehavioralCore(noise=NoiselessModel()))
        dp.register_model(tiny_dag)
        execution = dp.execute(1, np.zeros(12))
        assert execution.datapath_seconds == pytest.approx(
            2 * PER_LAYER_DATAPATH_SECONDS
        )

    def test_compute_scales_with_model_size(self):
        """Fig 15b: compute latency grows with the model; Fig 15c: the
        datapath latency stays fixed per layer."""
        rng = np.random.default_rng(0)
        small = ComputationDAG(
            1, "small",
            [LayerTask("fc", "dense", 8, 4,
                       rng.integers(-255, 256, (4, 8)).astype(float))],
        )
        big = ComputationDAG(
            2, "big",
            [LayerTask("fc", "dense", 256, 128,
                       rng.integers(-255, 256, (128, 256)).astype(float))],
        )
        dp = LightningDatapath(core=BehavioralCore(noise=NoiselessModel()))
        dp.register_model(small)
        dp.register_model(big)
        ex_small = dp.execute(1, np.zeros(8))
        ex_big = dp.execute(2, np.zeros(256))
        assert ex_big.compute_seconds > 10 * ex_small.compute_seconds
        assert ex_big.datapath_seconds == ex_small.datapath_seconds

    def test_cycle_count_formula(self):
        # One row of 32 magnitudes over 2 wavelengths = 16 partials =
        # 1 stream cycle + 10 preamble cycles; + 4 tree + 0 identity.
        rng = np.random.default_rng(0)
        dag = ComputationDAG(
            1, "one",
            [LayerTask("fc", "dense", 32, 1,
                       np.abs(rng.integers(1, 256, (1, 32))).astype(float))],
        )
        dp = LightningDatapath(core=BehavioralCore(noise=NoiselessModel()))
        dp.register_model(dag)
        execution = dp.execute(1, np.zeros(32))
        assert execution.layers[0].compute_cycles == 10 + 1 + 4

    def test_parallel_group_shares_datapath_latency(self):
        rng = np.random.default_rng(0)
        w = np.abs(rng.integers(0, 256, (8, 8))).astype(float)
        dag = ComputationDAG(
            1, "heads",
            [
                LayerTask("q", "dense", 8, 8, w, parallel_group="attn",
                          requant_divisor=8.0),
                LayerTask("k", "dense", 8, 8, w, parallel_group="attn"),
            ],
        )
        dp = LightningDatapath(core=BehavioralCore(noise=NoiselessModel()))
        dp.register_model(dag)
        # execute only charges the 193 ns once for the group
        execution = dp.execute(1, np.zeros(8))
        charged = [l.datapath_seconds for l in execution.layers]
        assert charged[0] == pytest.approx(PER_LAYER_DATAPATH_SECONDS)
        assert charged[1] == 0.0

    def test_memory_latency_accounted(self, tiny_dag):
        dp = LightningDatapath(core=BehavioralCore(noise=NoiselessModel()))
        dp.register_model(tiny_dag)
        execution = dp.execute(1, np.zeros(12))
        assert execution.memory_seconds > 0
        assert execution.total_seconds == pytest.approx(
            execution.compute_seconds
            + execution.datapath_seconds
            + execution.memory_seconds
        )


class TestRuntimeReconfigurability:
    def test_two_models_served_back_to_back(self, tiny_dag, rng):
        """§5.4: consecutive packets for different models reconfigure the
        datapath without rebuilding it."""
        other = ComputationDAG(
            2, "other",
            [LayerTask("fc", "dense", 4, 2,
                       rng.integers(-255, 256, (2, 4)).astype(float))],
        )
        dp = LightningDatapath(core=BehavioralCore(noise=NoiselessModel()))
        dp.register_model(tiny_dag)
        dp.register_model(other)
        x1 = rng.integers(0, 256, 12).astype(float)
        x2 = rng.integers(0, 256, 4).astype(float)
        out1 = dp.execute(1, x1)
        out2 = dp.execute(2, x2)
        out1_again = dp.execute(1, x1)
        assert np.allclose(out1.output_levels, out1_again.output_levels)
        assert dp.registers.read("dag.model_id") == 1
        assert out2.model_name == "other"

    def test_register_writes_track_layer_progression(self, tiny_dag):
        dp = LightningDatapath(core=BehavioralCore(noise=NoiselessModel()))
        dp.register_model(tiny_dag)
        dp.execute(1, np.zeros(12))
        layer_writes = [
            value
            for name, value in dp.registers.write_log
            if name == "layer.index"
        ]
        assert layer_writes == [0, 0, 1]  # load() configures layer 0 too
