"""The batch-major forward program equals the per-row step walk.

``ModelPlan.forward_block`` evaluates a ``(B, n)`` block of requests as
one straight-line program — stacked ``np.matmul`` contractions, ufuncs
over the block, noise off a per-dispatch tape — where the serving path
used to walk ``plan.execute`` + ``plan.finish`` row by row (the walk
``repro.core.reference.walk`` and cores without a tape law keep).  Bit-identity
between the two rests on three facts about this numpy and its BLAS,
pinned first so a platform where one fails says *which*; then the
program itself is compared with the walk, bytes of every layer and the
next draw of every stream, over every plan kind and the model zoo.
A new runner image could break any of the three contracts; that is why
they are tests of their own.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LightningDatapath
from repro.perf.bench import gpt2_class_dag, lenet_class_dag
from repro.photonics import (
    BehavioralCore,
    CoreArchitecture,
    GaussianNoise,
    NoiselessModel,
)

from .test_timing_plans import ZOO

MODELS = {
    **{build.__name__: build for build in ZOO},
    "lenet": lambda model_id: lenet_class_dag(0, model_id),
    "gpt2": lambda model_id: gpt2_class_dag(0, model_id),
}
BLOCKS = (1, 2, 5, 17)


def keyed(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    """The keyed readout-noise stream ``BehavioralCore.noise_stream``
    builds."""
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence((seed, *key)))
    )


class TestNumpyContracts:
    """Stacked ``np.matmul`` is one BLAS call per slice, the call the
    per-slice product makes; one keyed fill is the sequential fills."""

    #: (rows, n) of dense layers in the zoo, LeNet- and GPT-2-class.
    DENSE = [(8, 12), (5, 16), (4, 8), (3, 24), (300, 784), (100, 300),
             (10, 100), (128, 128), (10, 128), (7, 33)]
    #: (positions, patch, out_channels) of the zoo's conv layers.
    CONV = [(36, 9, 2), (64, 9, 2), (64, 18, 2), (576, 25, 6)]
    #: (seq_len, d_model) of the zoo's and GPT-2-class attention.
    ATTENTION = [(3, 6), (4, 8), (8, 16), (5, 35), (1, 9)]

    @pytest.mark.parametrize("rows, n", DENSE)
    @pytest.mark.parametrize("batch", BLOCKS)
    def test_stacked_gemv_equals_per_row_gemv(self, rows, n, batch):
        rng = np.random.default_rng(rows * n + batch)
        weights = rng.integers(-200, 201, (rows, n)).astype(float)
        block = rng.uniform(0.0, 255.0, (batch, n))
        stacked = np.matmul(weights, block[:, :, None])[:, :, 0]
        for ours, row in zip(stacked, block):
            assert ours.tobytes() == (weights @ row).tobytes()

    @pytest.mark.parametrize("positions, patch, channels", CONV)
    @pytest.mark.parametrize("batch", BLOCKS)
    def test_stacked_gemm_with_a_transposed_operand(
        self, positions, patch, channels, batch
    ):
        rng = np.random.default_rng(positions + batch)
        weights_t = rng.integers(-200, 201, (channels, patch)).astype(float).T
        patches = rng.uniform(0.0, 255.0, (batch, positions, patch))
        stacked = np.matmul(patches, weights_t)
        for ours, one in zip(stacked, patches):
            assert ours.tobytes() == (one @ weights_t).tobytes()

    @pytest.mark.parametrize("seq_len, d_model", ATTENTION)
    @pytest.mark.parametrize("batch", BLOCKS)
    def test_attention_products_and_softmax(self, seq_len, d_model, batch):
        rng = np.random.default_rng(seq_len * d_model + batch)
        q, k, v = rng.normal(0.0, 90.0, (3, batch, seq_len, d_model))
        scores = np.matmul(q, k.swapaxes(-1, -2))
        for ours, qi, ki in zip(scores, q, k):
            assert ours.tobytes() == (qi @ ki.T).tobytes()
        scores *= 0.01
        shifted = scores - scores.max(axis=-1, keepdims=True)
        exps = np.exp(shifted)
        attn = exps / exps.sum(axis=-1, keepdims=True)
        context = np.matmul(attn * 255.0, v)
        for b in range(batch):
            one = scores[b] - scores[b].max(axis=-1, keepdims=True)
            one = np.exp(one)
            one = one / one.sum(axis=-1, keepdims=True)
            assert attn[b].tobytes() == one.tobytes()
            assert context[b].tobytes() == ((one * 255.0) @ v[b]).tobytes()
        out = np.empty((batch, seq_len, d_model))
        weights_t = rng.integers(-200, 201, (d_model, d_model)).astype(float).T
        np.matmul(context, weights_t, out=out)
        for ours, one in zip(out, context):
            assert ours.tobytes() == (one @ weights_t).tobytes()

    @pytest.mark.parametrize("rows", BLOCKS)
    def test_one_keyed_fill_equals_the_per_site_fills(self, rows):
        sites = [(3, 8, 16), (8, 8), (8, 16), (128,), (10,), (1,), (7, 33)]
        draws = sum(int(np.prod(site)) for site in sites)
        tape = keyed(7, (1, 2, 3)).standard_normal(rows * draws)
        sequential = keyed(7, (1, 2, 3))
        per_site = np.concatenate([
            sequential.standard_normal(site).ravel()
            for _ in range(rows)
            for site in sites
        ])
        assert tape.tobytes() == per_site.tobytes()
        into = np.empty(rows * draws)
        keyed(7, (1, 2, 3)).standard_normal(out=into)
        assert into.tobytes() == tape.tobytes()


def position(generator: np.random.Generator) -> str:
    """Where a stream stands (an SFC64 state holds arrays)."""
    return repr(generator.bit_generator.state)


def build(name: str, core: BehavioralCore) -> LightningDatapath:
    datapath = LightningDatapath(core=core, seed=1)
    datapath.register_model(MODELS[name](model_id=3))
    return datapath


def walk(plan_model, core, row) -> list[np.ndarray]:
    """The per-row step walk the program replaces, written out."""
    outputs = []
    for plan, requantize, _ in plan_model.program:
        row = plan.finish(plan.execute(core, row), requantize)
        outputs.append(row)
    return outputs


def groups_of(rows: int, cuts: list[int]) -> list[int]:
    """Partition ``rows`` at the (deduplicated, in-range) ``cuts``."""
    bounds = sorted({0, rows, *(cut % rows for cut in cuts)})
    return [hi - lo for lo, hi in zip(bounds, bounds[1:])]


CORES = {
    "gaussian": lambda seed: BehavioralCore(seed=seed),
    "raw-mean": lambda seed: BehavioralCore(
        noise=GaussianNoise(), remove_mean=False, seed=seed
    ),
    "broadcast-one-wavelength": lambda seed: BehavioralCore(
        architecture=CoreArchitecture(batch_size=8), seed=seed
    ),
    "noiseless": lambda seed: BehavioralCore(
        noise=NoiselessModel(), seed=seed
    ),
}


class TestProgramEqualsTheWalk:
    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(MODELS)),
        core_kind=st.sampled_from(sorted(CORES)),
        rows=st.sampled_from(BLOCKS),
        cuts=st.lists(st.integers(0, 16), max_size=4),
        seed=st.integers(0, 2**32 - 1),
        integral=st.booleans(),
    )
    def test_mixed_keys_per_row_group(
        self, name, core_kind, rows, cuts, seed, integral
    ):
        ours = build(name, CORES[core_kind](seed % 1000))
        theirs = build(name, CORES[core_kind](seed % 1000))
        plan_ours = ours.model_plan(3)
        plan_theirs = theirs.model_plan(3)
        rng = np.random.default_rng(seed)
        n = plan_ours.program[0][0].input_size
        block = (
            rng.integers(0, 256, (rows, n)).astype(float)
            if integral
            else rng.uniform(0.0, 255.0, (rows, n))
        )
        sizes = groups_of(rows, cuts)
        keys = [(0xB0, group, seed % 97, 3) for group in range(len(sizes))]
        streams = [
            (ours.core.noise_stream(*key), size)
            for key, size in zip(keys, sizes)
        ]
        own = position(ours.core.stream)
        got = plan_ours.forward_block(ours.core, block, streams)
        # Keyed streams never touch the core's own.
        assert position(ours.core.stream) == own
        start = 0
        for key, size, (stream, _) in zip(keys, sizes, streams):
            theirs.core.reseed_noise(*key)
            for index in range(start, start + size):
                expected = walk(plan_theirs, theirs.core, block[index])
                assert len(got) == len(expected)
                for layer, reference in zip(got, expected):
                    assert layer[index].tobytes() == reference.tobytes()
            # The group's stream sits where the walking core's does.
            assert (
                stream.standard_normal()
                == theirs.core.stream.standard_normal()
            )
            start += size
        # ``forward_keyed`` seeds all the groups in one pass and places
        # one scratch generator per group: the block's last layer is
        # the explicit streams' bytes, and each group's alone.
        pairs = list(zip(keys, sizes))
        last = got[-1]
        assert ours.forward_keyed(3, block, pairs).tobytes() == last.tobytes()
        start = 0
        for pair in pairs:
            stop = start + pair[1]
            alone = ours.forward_keyed(3, block[start:stop], [pair])
            assert alone.tobytes() == last[start:stop].tobytes()
            start = stop
        assert position(ours.core.stream) == own

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("core_kind", sorted(CORES))
    def test_own_stream_block_and_single_row(self, name, core_kind):
        """``execute_batch`` and ``forward``: no explicit streams, the
        core's own one, consumed row after row."""
        ours, theirs = (build(name, CORES[core_kind](5)) for _ in range(2))
        plan_ours, plan_theirs = ours.model_plan(3), theirs.model_plan(3)
        n = plan_ours.program[0][0].input_size
        block = np.random.default_rng(2).uniform(0.0, 255.0, (5, n))
        for core in (ours.core, theirs.core):
            core.reseed_noise(9, 9)
        got = plan_ours.forward_block(ours.core, block)
        single = plan_ours.forward(ours.core, block[0])
        for index, row in enumerate([*block, block[0]]):
            expected = walk(plan_theirs, theirs.core, row)
            for depth, reference in enumerate(expected):
                layer = single[depth] if index == 5 else got[depth][index]
                assert layer.tobytes() == reference.tobytes()
        assert (
            ours.core.stream.standard_normal()
            == theirs.core.stream.standard_normal()
        )

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_noiseless_core_draws_nothing(self, name):
        datapath = build(name, CORES["noiseless"](5))
        plan = datapath.model_plan(3)
        n = plan.program[0][0].input_size
        block = np.random.default_rng(2).uniform(0.0, 255.0, (5, n))
        keyed_stream = datapath.core.noise_stream(1, 2)
        before = position(datapath.core.stream), position(keyed_stream)
        plan.forward_block(datapath.core, block, [(keyed_stream, 5)])
        plan.forward_block(datapath.core, block)
        assert before == (
            position(datapath.core.stream), position(keyed_stream)
        )

    def test_streams_must_cover_the_block(self):
        datapath = build("tiny_mlp", CORES["gaussian"](5))
        plan = datapath.model_plan(3)
        block = np.zeros((3, 12))
        with pytest.raises(ValueError, match="streams cover 2 of 3 rows"):
            plan.forward_block(
                datapath.core, block, [(datapath.core.noise_stream(1), 2)]
            )


class TestCoresTheTapeCannotStandInFor:
    """They keep the per-row walk, through their own entry points."""

    def test_selection_follows_the_cores_type(self):
        from repro.faults import DegradedCore
        from repro.photonics import PrototypeCore, ThermalNoise

        class Counting(BehavioralCore):
            def matmul(self, a_matrix, b_matrix):
                return super().matmul(a_matrix, b_matrix)

        class OwnReadouts(BehavioralCore):
            def accumulate_into(self, a_pairs, b_pairs, out, scratch):
                return super().accumulate_into(a_pairs, b_pairs, out, scratch)

        assert BehavioralCore().tape_law() == (GaussianNoise().std, 0.0)
        assert BehavioralCore(remove_mean=False).tape_law() == (
            GaussianNoise().std, GaussianNoise().mean
        )
        assert BehavioralCore(noise=NoiselessModel()).tape_law() == (0.0, 0.0)
        assert Counting().tape_law() is None
        assert BehavioralCore(noise=ThermalNoise(std=0.5)).tape_law() is None
        # A zero-std Gaussian's dense rows skip their draw while its
        # products still take theirs: no single tape layout fits.
        assert BehavioralCore(
            noise=GaussianNoise(mean=0.0, std=0.0)
        ).tape_law() is None
        # A fault wrapper draws as the core it wraps, so it defers
        # exactly when that core's draws — its per-readout entry point
        # included — can come off a tape.
        assert LightningDatapath(
            core=DegradedCore(BehavioralCore())
        ).defers_numerics
        for core in (
            DegradedCore(Counting()),
            DegradedCore(OwnReadouts()),
            DegradedCore(BehavioralCore(noise=ThermalNoise(std=0.5))),
            DegradedCore(PrototypeCore(seed=1)),
            PrototypeCore(seed=1),
        ):
            datapath = LightningDatapath(core=core)
            assert not datapath.defers_numerics

    @pytest.mark.parametrize("name", ["mixed", "deep_mlp"])
    def test_degraded_block_equals_its_rows(self, name):
        from repro.faults import DegradedCore, MZMBiasDrift
        from repro.photonics import ThermalNoise

        def degraded():
            return DegradedCore(
                BehavioralCore(seed=4),
                [MZMBiasDrift(onset_s=0.0, volts_per_s=500.0)],
                now_s=1e-4,
            )

        ours, theirs = build(name, degraded()), build(name, degraded())
        plan_ours, plan_theirs = ours.model_plan(3), theirs.model_plan(3)
        n = plan_ours.program[0][0].input_size
        block = np.random.default_rng(2).uniform(0.0, 255.0, (4, n))
        for core in (ours.core, theirs.core):
            core.reseed_noise(3)
        got = plan_ours.forward_block(ours.core, block)
        for index, row in enumerate(block):
            for layer, reference in zip(
                got, walk(plan_theirs, theirs.core, row)
            ):
                assert layer[index].tobytes() == reference.tobytes()
        untaped = build(
            name, DegradedCore(BehavioralCore(noise=ThermalNoise(std=0.5)))
        )
        with pytest.raises(ValueError, match="explicit streams"):
            untaped.model_plan(3).forward_block(
                untaped.core, block, [(np.random.default_rng(0), 4)]
            )


def fault_of(kind: str, onset_s: float):
    """One device fault of each kind, strong enough to move levels
    within the drawn times."""
    from repro.faults import (
        LaserPowerDrift,
        MZMBiasDrift,
        PhotodetectorSaturation,
        StuckBit,
    )

    return {
        "laser_drift": lambda: LaserPowerDrift(onset_s, fraction_per_s=400.0),
        "mzm_bias_drift": lambda: MZMBiasDrift(onset_s, volts_per_s=2000.0),
        "pd_saturation": lambda: PhotodetectorSaturation(
            onset_s, saturation_level=60.0
        ),
        "stuck_bit": lambda: StuckBit(onset_s, bit=4, stuck_to=1),
    }[kind]()


FAULT_KINDS = ("laser_drift", "mzm_bias_drift", "pd_saturation", "stuck_bit")


class TestDriftedCoresDefer:
    """A taped fault wrapper's deferred block is the per-row walk each
    dispatch took at its own time: ``rebase`` onto the dispatch's key
    and clock, then ``ModelPlan._walk`` row by row."""

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(["mixed", "deep_mlp"]),
        kinds=st.lists(
            st.sampled_from(FAULT_KINDS), min_size=1, max_size=2
        ),
        onsets=st.lists(st.floats(0.0, 1e-3), min_size=2, max_size=2),
        relock=st.one_of(
            st.none(),
            st.tuples(st.floats(0.0, 5e-4), st.floats(-0.15, 0.15)),
        ),
        dispatches=st.lists(
            st.tuples(st.integers(1, 4), st.floats(0.0, 2e-3)),
            min_size=1,
            max_size=5,
        ),
        block_rows=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        remove_mean=st.booleans(),
    )
    def test_deferred_block_is_the_walk(
        self, name, kinds, onsets, relock, dispatches, block_rows, seed,
        remove_mean,
    ):
        from unittest import mock

        from repro.faults import DegradedCore
        from repro.runtime import executor

        def degraded():
            core = DegradedCore(
                BehavioralCore(remove_mean=remove_mean, seed=seed % 1000),
                [fault_of(kind, onset) for kind, onset in zip(kinds, onsets)],
            )
            if relock is not None:
                core.relock(relock[0], [relock[1]] * len(
                    core.relockable_faults()
                ))
            return core

        ours, theirs = build(name, degraded()), build(name, degraded())
        assert ours.defers_numerics
        plan_ours, plan_theirs = ours.model_plan(3), theirs.model_plan(3)
        n = plan_ours.program[0][0].input_size
        rng = np.random.default_rng(seed)
        served = [
            (
                rng.integers(0, 256, (rows, n)).astype(float),
                now_s,
                (0xB0, seed % 7, 0, index),
            )
            for index, (rows, now_s) in enumerate(dispatches)
        ]
        block = np.concatenate([levels for levels, _, _ in served])
        streams = [
            (ours.core.core.noise_stream(*key), len(levels))
            for levels, _, key in served
        ]
        clock = [(now_s, len(levels)) for levels, now_s, _ in served]
        # The wrapper's own clock and stream are never read.
        ours.core.set_time(9.0)
        own = position(ours.core.stream)
        got = plan_ours.forward_block(ours.core, block, streams, clock)
        assert position(ours.core.stream) == own
        start, expected = 0, []
        for (levels, now_s, key), (stream, _) in zip(served, streams):
            executor.rebase(theirs.core, now_s, key)
            for offset, row in enumerate(levels):
                walked = plan_theirs._walk(theirs.core, row)
                for layer, reference in zip(got, walked, strict=True):
                    assert (
                        layer[start + offset].tobytes()
                        == reference.tobytes()
                    )
                expected.append(int(np.argmax(walked[-1])))
            # The group's stream stands where the walking core's does.
            assert position(stream) == position(theirs.core.stream)
            start += len(levels)
        # ``evaluate`` cut into chunks of ``block_rows`` rows (a
        # dispatch never split) answers the walk's predictions.
        cap = ours.row_bytes(3) * block_rows
        with mock.patch.object(executor, "BLOCK_BYTES", cap):
            answers = executor.evaluate(ours, 3, served)
        assert [p for answer in answers for p in answer] == expected
