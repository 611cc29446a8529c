"""Unit tests for the compiled execution-plan module."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import LightningDatapath
from repro.core.dag import ConvShape
from repro.core.plans import (
    PlanGeometry,
    clear_im2col_cache,
    compile_model,
    gather_patches,
    im2col_indices,
    supports_matmul,
)
from repro.faults import DegradedCore
from repro.photonics import BehavioralCore, PrototypeCore


@pytest.fixture(autouse=True)
def isolated_cache():
    clear_im2col_cache()
    yield
    clear_im2col_cache()


class TestIm2colCache:
    def test_map_is_cached_per_geometry(self):
        conv = ConvShape(2, 5, 5, out_channels=3, kernel=3, padding=1)
        first = im2col_indices(conv)
        # ConvShape is frozen/hashable: an equal geometry hits the cache.
        again = im2col_indices(
            ConvShape(2, 5, 5, out_channels=3, kernel=3, padding=1)
        )
        assert first is again
        assert not first.flags.writeable

    def test_distinct_geometries_distinct_maps(self):
        a = im2col_indices(ConvShape(1, 6, 6, out_channels=1, kernel=3))
        b = im2col_indices(
            ConvShape(1, 6, 6, out_channels=1, kernel=3, stride=2)
        )
        assert a is not b

    def test_clear_cache(self):
        conv = ConvShape(1, 4, 4, out_channels=1, kernel=2)
        first = im2col_indices(conv)
        clear_im2col_cache()
        assert im2col_indices(conv) is not first

    def test_padding_uses_sentinel_slot(self):
        conv = ConvShape(1, 3, 3, out_channels=1, kernel=3, padding=1)
        indices = im2col_indices(conv)
        assert indices.max() == conv.input_size  # the sentinel
        # The centre position of a 3x3 image with padding=1 touches no
        # padding at all.
        assert conv.input_size not in indices[4]

    def test_gather_matches_manual_padding(self):
        conv = ConvShape(2, 5, 4, out_channels=1, kernel=3, padding=1)
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 255, conv.input_size)
        patches = gather_patches(x, conv)
        image = np.pad(
            x.reshape(conv.in_channels, conv.height, conv.width),
            ((0, 0), (1, 1), (1, 1)),
        )
        expected = np.stack([
            image[:, i : i + 3, j : j + 3].ravel()
            for i in range(conv.out_height)
            for j in range(conv.out_width)
        ])
        np.testing.assert_array_equal(patches, expected)


class TestSupportsMatmul:
    def test_behavioral_core_declares_support(self):
        assert supports_matmul(BehavioralCore()) is True

    def test_prototype_core_declares_no_support(self):
        assert supports_matmul(PrototypeCore(seed=0)) is False

    def test_degraded_wrapper_sees_through(self):
        assert supports_matmul(DegradedCore(BehavioralCore())) is True
        assert (
            supports_matmul(DegradedCore(PrototypeCore(seed=0))) is False
        )

    def test_duck_typing_for_undeclared_cores(self):
        class WithMatmul:
            def matmul(self, a, b):  # pragma: no cover - probe only
                return a @ b

        class Without:
            pass

        assert supports_matmul(WithMatmul()) is True
        assert supports_matmul(Without()) is False


class TestPlanGeometry:
    @pytest.mark.parametrize("length", [1, 7, 8, 100, 784])
    def test_row_cycles_matches_formula(self, length):
        geometry = PlanGeometry(
            num_wavelengths=2, samples_per_cycle=16, preamble_repeats=10
        )
        steps = math.ceil(length / 2)
        assert geometry.row_cycles(length) == 10 + math.ceil(steps / 16)
        assert geometry.step_cycles(steps) == geometry.row_cycles(length)


class TestCompileModel:
    def test_plans_cover_every_task(self, tiny_dag):
        plan = compile_model(tiny_dag, PlanGeometry(2, 16, 10))
        assert plan.num_tasks == len(tiny_dag.tasks)
        assert plan.replays == 0
        assert {p.kind for p in plan.tasks.values()} == {"dense"}

    def test_datapath_counts_replays(self, tiny_dag, rng):
        dp = LightningDatapath(core=BehavioralCore(seed=0))
        dp.register_model(tiny_dag)
        x = rng.integers(0, 256, 12).astype(float)
        dp.execute(1, x)
        dp.execute(1, x)
        stats = dp.plan_stats()[tiny_dag.model_id]
        assert stats == {"tasks": 2, "replays": 2}
