"""Tests for the photonic vector dot product cores."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import error_statistics
from repro.photonics import (
    ASIC_ARCHITECTURE,
    PROTOTYPE_ARCHITECTURE,
    SCALAR_UNIT,
    BehavioralCore,
    CoreArchitecture,
    GaussianNoise,
    NoiselessModel,
    PrototypeCore,
)
from repro.photonics.core import keyed_seeds, place


class TestCoreArchitecture:
    """Table 5's device-count accounting."""

    def test_scalar_unit_row(self):
        arch = SCALAR_UNIT
        assert arch.macs_per_step == 1
        assert arch.weight_modulators == 1
        assert arch.input_modulators == 1
        assert arch.photodetectors == 1
        assert arch.distinct_wavelengths == 1
        assert arch.computing_primitive == "scalar multiplication"

    def test_n_wavelength_row(self):
        arch = CoreArchitecture(accumulation_wavelengths=4)
        assert arch.macs_per_step == 4
        assert arch.weight_modulators == 4
        assert arch.input_modulators == 4
        assert arch.photodetectors == 1
        assert arch.distinct_wavelengths == 4
        assert arch.computing_primitive == "vector dot product"

    def test_parallel_modulation_row(self):
        arch = CoreArchitecture(
            accumulation_wavelengths=4, parallel_modulations=3
        )
        assert arch.macs_per_step == 12
        assert arch.weight_modulators == 12
        assert arch.input_modulators == 4
        assert arch.photodetectors == 3
        assert arch.distinct_wavelengths == 4
        assert arch.computing_primitive == "matrix-vector product"

    def test_batch_row_matches_appendix_e_example(self):
        # Appendix E: N=3, W=2, B=2 -> 12 MACs, 6 weight modulators,
        # 6 input modulators, 4 photodetectors, 3 wavelengths.
        arch = CoreArchitecture(3, 2, 2)
        assert arch.macs_per_step == 12
        assert arch.weight_modulators == 6
        assert arch.input_modulators == 6
        assert arch.photodetectors == 4
        assert arch.distinct_wavelengths == 3
        assert arch.computing_primitive == "matrix multiplication"

    def test_asic_architecture_is_576_macs(self):
        assert ASIC_ARCHITECTURE.macs_per_step == 576
        assert ASIC_ARCHITECTURE.weight_modulators == 576
        assert ASIC_ARCHITECTURE.input_modulators == 24
        assert ASIC_ARCHITECTURE.total_modulators == 600
        assert ASIC_ARCHITECTURE.photodetectors == 24

    def test_prototype_architecture(self):
        assert PROTOTYPE_ARCHITECTURE.accumulation_wavelengths == 2
        assert PROTOTYPE_ARCHITECTURE.macs_per_step == 2

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            CoreArchitecture(accumulation_wavelengths=0)
        with pytest.raises(ValueError):
            CoreArchitecture(parallel_modulations=0)
        with pytest.raises(ValueError):
            CoreArchitecture(batch_size=0)

    @given(
        n=st.integers(1, 32),
        w=st.integers(1, 32),
        b=st.integers(1, 8),
    )
    def test_device_counts_scale_sublinearly_in_macs(self, n, w, b):
        # The whole point of Appendix E: NWB MACs from far fewer than
        # NWB devices once any dimension exceeds 1.
        arch = CoreArchitecture(n, w, b)
        devices = (
            arch.weight_modulators
            + arch.input_modulators
            + arch.photodetectors
        )
        assert devices <= 3 * arch.macs_per_step
        assert arch.macs_per_step == n * w * b


class TestPrototypeCoreAccuracy:
    """The Figure 14 micro-benchmarks, asserted statistically."""

    def test_multiplication_accuracy_near_paper(self, prototype_core):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 256, 1000)
        b = rng.integers(0, 256, 1000)
        result = prototype_core.multiply(a, b)
        stats = error_statistics(result, a * b / 255.0)
        # Paper: 99.451 %.  Our calibrated chain lands within 0.5 pp.
        assert stats.accuracy_percent > 98.9

    def test_accumulation_accuracy_near_paper(self, prototype_core):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 256, (1000, 2))
        b = rng.integers(0, 256, (1000, 2))
        result = prototype_core.accumulate(a, b)
        stats = error_statistics(result, (a * b / 255.0).sum(axis=1))
        assert stats.accuracy_percent > 98.9  # paper: 99.465 %

    def test_noise_mean_matches_calibrated_offset(self, prototype_core):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 256, 2000)
        b = rng.integers(0, 256, 2000)
        errors = prototype_core.multiply(a, b) - a * b / 255.0
        # Figure 18: mean 2.32, std 1.65 on the 0..255 scale.
        assert errors.mean() == pytest.approx(2.32, abs=0.3)
        assert errors.std() == pytest.approx(1.65, abs=0.3)

    def test_mac_of_vector_matches_dot_product(self):
        core = PrototypeCore(noise=NoiselessModel(), seed=0)
        a = np.array([100.0, 50.0, 25.0, 200.0])
        b = np.array([200.0, 100.0, 10.0, 30.0])
        got = core.mac(a, b)
        assert got == pytest.approx(float(a @ b) / 255.0, abs=1.0)

    def test_mac_pads_odd_lengths(self):
        core = PrototypeCore(noise=NoiselessModel(), seed=0)
        a = np.array([10.0, 20.0, 30.0])
        got = core.mac(a, a)
        assert got == pytest.approx(float(a @ a) / 255.0, abs=1.0)

    def test_multiply_shape_mismatch_rejected(self, prototype_core):
        with pytest.raises(ValueError, match="equal length"):
            prototype_core.multiply(np.ones(3), np.ones(2))

    def test_accumulate_wrong_lane_count_rejected(self, prototype_core):
        with pytest.raises(ValueError, match="2 operands"):
            prototype_core.accumulate(np.ones((4, 3)), np.ones((4, 3)))

    def test_zero_operand_zero_result(self):
        core = PrototypeCore(noise=NoiselessModel(), seed=0)
        out = core.multiply(np.zeros(4), np.full(4, 255.0))
        assert np.allclose(out, 0.0, atol=1.0)

    def test_full_scale_operands_full_scale_result(self):
        core = PrototypeCore(noise=NoiselessModel(), seed=0)
        out = core.multiply(np.full(4, 255.0), np.full(4, 255.0))
        assert np.allclose(out, 255.0, atol=1.5)

    def test_wavelength_list_mismatch_rejected(self):
        with pytest.raises(ValueError, match="wavelength"):
            PrototypeCore(num_wavelengths=3, wavelengths_nm=(1544.0, 1552.0))


class TestBehavioralCore:
    def test_noiseless_multiply_exact(self, noiseless_core):
        a = np.array([100.0, 200.0])
        b = np.array([50.0, 250.0])
        assert np.allclose(noiseless_core.multiply(a, b), a * b / 255.0)

    def test_noiseless_matmul_exact(self, noiseless_core):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 256, (4, 8)).astype(float)
        b = rng.integers(0, 256, (8, 3)).astype(float)
        assert np.allclose(noiseless_core.matmul(a, b), a @ b / 255.0)

    def test_noise_std_scales_with_inner_dimension(self):
        # Per-readout noise accumulates: std ~ sqrt(k/N) for inner dim k.
        trials = 4000
        results = {}
        for k in (16, 256):
            core = BehavioralCore(noise=GaussianNoise(), seed=3)
            a = np.full((trials, k), 10.0)
            b = np.full((k, 1), 10.0)
            noisy = core.matmul(a, b).ravel()
            results[k] = (noisy - 10.0 * 10.0 * k / 255.0).std()
        assert results[256] / results[16] == pytest.approx(4.0, rel=0.15)

    def test_mean_removed_by_default(self):
        core = BehavioralCore(noise=GaussianNoise(), seed=4)
        a = np.full((5000, 1), 0.0)
        b = np.zeros((1, 1))
        out = core.matmul(a, b).ravel()
        assert abs(out.mean()) < 0.1

    def test_mean_kept_when_requested(self):
        core = BehavioralCore(
            noise=GaussianNoise(), remove_mean=False, seed=4
        )
        a = np.full((5000, 1), 0.0)
        b = np.zeros((1, 1))
        out = core.matmul(a, b).ravel()
        assert out.mean() == pytest.approx(2.32, abs=0.15)

    def test_accumulate_matches_prototype_semantics(self, noiseless_core):
        a = np.array([[10.0, 20.0], [30.0, 40.0]])
        b = np.array([[50.0, 60.0], [70.0, 80.0]])
        got = noiseless_core.accumulate(a, b)
        want = (a * b / 255.0).sum(axis=1)
        assert np.allclose(got, want)

    def test_dot_matches_matmul(self, noiseless_core):
        a = np.arange(10.0)
        b = np.arange(10.0, 20.0)
        assert noiseless_core.dot(a, b) == pytest.approx(float(a @ b) / 255.0)

    def test_dot_length_mismatch_rejected(self, noiseless_core):
        with pytest.raises(ValueError, match="equal length"):
            noiseless_core.dot(np.ones(3), np.ones(4))

    def test_generic_noise_model_path(self):
        from repro.photonics import ThermalNoise

        core = BehavioralCore(noise=ThermalNoise(std=0.5), seed=0)
        a = np.full((400, 4), 100.0)
        b = np.full((4, 1), 100.0)
        out = core.matmul(a, b).ravel()
        clean = 100.0 * 100.0 * 4 / 255.0
        # k=4 over N=2 wavelengths -> 2 readouts -> std 0.5 * sqrt(2).
        assert out.std() == pytest.approx(0.5 * np.sqrt(2), rel=0.2)
        assert out.mean() == pytest.approx(clean, abs=0.5)

    @given(
        n=st.integers(1, 6),
        m=st.integers(1, 6),
        k=st.integers(1, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_noiseless_matmul_is_scaled_exact(self, n, m, k):
        rng = np.random.default_rng(n * 100 + m * 10 + k)
        core = BehavioralCore(noise=NoiselessModel())
        a = rng.integers(-255, 256, (n, k)).astype(float)
        b = rng.integers(-255, 256, (k, m)).astype(float)
        assert np.allclose(core.matmul(a, b), a @ b / 255.0)


class TestKeyedNoiseStreams:
    """``noise_stream`` is an SFC64 stream over ``SeedSequence((seed,
    *key))``, handed the entropy as one uint32 array instead of a tuple
    of Python ints: the same entropy words, so the same stream."""

    @staticmethod
    def reference(seed, key) -> np.random.Generator:
        return np.random.Generator(
            np.random.SFC64(np.random.SeedSequence((seed, *key)))
        )

    #: One word each, zero included; then components that need two
    #: words (>= 2**32), which fall back to the tuple form.
    component = st.one_of(
        st.integers(0, 2**32 - 1),
        st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**40 + 7, 2**64 - 1]),
    )

    @settings(max_examples=200, deadline=None)
    @given(
        seed=component, key=st.lists(component, min_size=0, max_size=5)
    )
    def test_array_entropy_is_the_tuple_entropy(self, seed, key):
        core = BehavioralCore(seed=seed)
        ours = core.noise_stream(*key).standard_normal(64)
        theirs = self.reference(seed, key).standard_normal(64)
        assert ours.tobytes() == theirs.tobytes()

    def test_zero_components_and_the_wide_fallback(self):
        for seed, key in [
            (0, (0, 0, 0, 0)),
            (3, (0xB0, 0, 0, 0)),
            (2**32, (1, 2)),
            (5, (2**32, 0)),
            (5, (2**32 - 1, 2**32 - 1)),
        ]:
            ours = BehavioralCore(seed=seed).noise_stream(*key)
            assert (
                ours.standard_normal(64).tobytes()
                == self.reference(seed, key).standard_normal(64).tobytes()
            )

    #: One entropy word, its two ends drawn often.
    word = st.one_of(
        st.integers(0, 2**32 - 1), st.sampled_from([0, 2**32 - 1])
    )

    @settings(max_examples=200, deadline=None)
    @given(words=st.integers(1, 7), data=st.data())
    def test_bulk_seeds_are_the_seed_sequence_state(self, words, data):
        """``keyed_seeds`` is ``SeedSequence``'s ``generate_state(3,
        np.uint64)``; a generator placed on a seed is
        ``SFC64(SeedSequence(e))``: equal state, equal normals."""
        entropies = data.draw(st.lists(
            st.tuples(*[self.word] * words), min_size=1, max_size=6
        ))
        seeds = keyed_seeds(entropies)
        assert seeds.shape == (len(entropies), 3)
        assert seeds.dtype == np.uint64
        scratch = BehavioralCore(seed=1).noise_stream()
        for entropy, seed in zip(entropies, seeds.tolist()):
            sequence = np.random.SeedSequence(entropy)
            assert seed == sequence.generate_state(3, np.uint64).tolist()
            reference = np.random.SFC64(sequence)
            ours = place(scratch, seed).bit_generator.state
            theirs = reference.state
            assert ours["state"]["state"].tolist() == (
                theirs["state"]["state"].tolist()
            )
            assert (ours["has_uint32"], ours["uinteger"]) == (
                theirs["has_uint32"], theirs["uinteger"]
            )
            assert (
                scratch.standard_normal(16).tobytes()
                == np.random.Generator(reference).standard_normal(16).tobytes()
            )

    @pytest.mark.parametrize(
        "keys",
        [
            [(0xB0, 2, 0, 4), (0xB0, 2, 0, 5), (0xB0, 3, 1, 0)],
            # A wide word falls back to noise_stream.
            [(0xB0, 2**32, 0, 4), (0xB0, 2, 0, 5)],
        ],
    )
    def test_keyed_streams_start_where_noise_streams_do(self, keys):
        core = BehavioralCore(seed=11)
        core.reseed_noise(0xB0, 2, 0, 3)
        own = repr(core.stream.bit_generator.state)
        keyed_rows = [(key, 1 + i) for i, key in enumerate(keys)]
        for (stream, count), (key, rows) in zip(
            core.keyed_streams(keyed_rows), keyed_rows, strict=True
        ):
            assert count == rows
            assert (
                stream.standard_normal(9).tobytes()
                == core.noise_stream(*key).standard_normal(9).tobytes()
            )
        assert repr(core.stream.bit_generator.state) == own

    def test_reseed_is_the_keyed_stream_and_leaves_it_private(self):
        core = BehavioralCore(seed=9)
        core.reseed_noise(0xB0, 1, 0, 4)
        detached = core.noise_stream(0xB0, 1, 0, 4)
        assert detached is not core.stream
        assert (
            core.stream.standard_normal(8).tobytes()
            == detached.standard_normal(8).tobytes()
        )
        # Distinct cores keep distinct streams for equal keys.
        other = BehavioralCore(seed=10).noise_stream(0xB0, 1, 0, 4)
        assert other.standard_normal() != self.reference(
            9, (0xB0, 1, 0, 4)
        ).standard_normal()
