"""Layer-at-once sign separation against the per-row reference.

Compilation separates a whole ``(rows, k)`` weight matrix in one array
pass (:func:`~repro.core.plans.readout_groups`,
:func:`~repro.core.plans.readout_operands`).  The per-row
:func:`~repro.core.dag.sign_separate_row` is the reference copy, kept by
:class:`~repro.core.reference.ReferenceDatapath`; these tests hold the
two equal array for array, and hold compilation to never calling it.
"""

from __future__ import annotations

import sys

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ComputationDAG, LayerTask, LightningDatapath
from repro.core import dag as dag_module
from repro.core import plans
from repro.core.dag import ConvShape, sign_separate_row
from repro.core.plans import (
    PlanGeometry,
    compile_model,
    readout_groups,
    readout_operands,
)
from repro.core.reference import ReferenceDatapath
from repro.perf.bench import gpt2_class_dag, lenet_class_dag
from repro.photonics import BehavioralCore, CoreArchitecture

WAVELENGTHS = st.sampled_from([*range(1, 9), 24])


@st.composite
def weight_matrices(draw) -> np.ndarray:
    """Signed levels with forced zeros, all-positive and all-negative
    rows mixed in; ``k`` is free, so mostly not a multiple of N."""
    rows = draw(st.integers(1, 6))
    k = draw(st.integers(1, 40))
    levels = draw(
        st.lists(
            st.integers(-255, 255), min_size=rows * k, max_size=rows * k
        )
    )
    weights = np.array(levels, dtype=np.float64).reshape(rows, k)
    for row in weights:
        kind = draw(st.sampled_from(["mixed", "positive", "negative", "zeros"]))
        if kind == "positive":
            row[:] = np.abs(row)
        elif kind == "negative":
            row[:] = -(np.abs(row) % 255 + 1)
        elif kind == "zeros":
            row[draw(st.integers(0, k - 1)) :: 2] = 0.0
    return weights


def stacked_reference(weights: np.ndarray, n: int):
    """The stacked operands, built the per-row way."""
    rows = [sign_separate_row(row, n) for row in weights]
    steps = np.array([row.num_steps for row in rows], dtype=np.int64)
    row_starts = np.zeros(len(rows), dtype=np.int64)
    np.cumsum(steps[:-1], out=row_starts[1:])
    return rows, plans.ReadoutOperands(
        np.clip(np.concatenate([row.order for row in rows]), 0, None)
        .reshape(-1, n),
        np.concatenate([row.magnitudes for row in rows]).reshape(-1, n),
        np.concatenate([row.group_signs for row in rows]),
        row_starts,
        int(steps.sum()),
    )


def assert_identical(ours: np.ndarray, theirs: np.ndarray) -> None:
    assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


class TestLayerAtOnce:
    @given(weights=weight_matrices(), n=WAVELENGTHS)
    @example(weights=np.array([[5.0, -3.0, 2.0, -1.0, 0.0]]), n=2)
    @example(weights=np.zeros((2, 3)), n=24)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_operands_and_counts_equal_the_rows(self, weights, n):
        rows, expected = stacked_reference(weights, n)
        ours = readout_operands(weights, n)
        for name in ("a_index", "magnitudes", "group_signs", "row_starts"):
            assert_identical(getattr(ours, name), getattr(expected, name))
        assert ours.total_steps == expected.total_steps
        positive, negative = readout_groups(weights, n)
        np.testing.assert_array_equal(
            positive + negative, [row.num_steps for row in rows]
        )
        np.testing.assert_array_equal(
            positive - negative, [row.group_signs.sum() for row in rows]
        )

    @given(weights=weight_matrices(), n=WAVELENGTHS)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_stream_cycles_equal_the_reference_ledger(self, weights, n):
        rows, k = weights.shape
        dag = ComputationDAG(1, "one-dense", [
            LayerTask(
                name="fc", kind="dense", input_size=k, output_size=rows,
                weights_levels=weights,
            )
        ])
        compiled, walked = (
            build(
                core=BehavioralCore(
                    architecture=CoreArchitecture(accumulation_wavelengths=n)
                )
            )
            for build in (LightningDatapath, ReferenceDatapath)
        )
        for datapath in (compiled, walked):
            datapath.register_model(dag)
        ours, theirs = (
            datapath.execute(1, np.zeros(k)).layers[0]
            for datapath in (compiled, walked)
        )
        assert ours.compute_cycles == theirs.compute_cycles
        # An identity layer adds only the adder tree to its stream.
        plan = compiled.model_plan(1).plan("fc")
        assert plan.stream_cycles == (
            theirs.compute_cycles - walked.adder_tree.latency_cycles
        )


def conv_dag() -> ComputationDAG:
    conv = ConvShape(2, 6, 6, out_channels=3, kernel=3, padding=1)
    return ComputationDAG(7, "conv", [
        LayerTask(
            name="conv", kind="conv",
            input_size=conv.input_size, output_size=conv.output_size,
            weights_levels=np.random.default_rng(2).integers(
                -255, 256, (3, conv.patch_size)
            ).astype(float),
            conv=conv,
        )
    ])


class TestCompileKeepsNoRows:
    def test_compile_never_separates_a_row(self):
        """Counted on the function's code object, so no import alias
        can hide a call; the reference walk is the positive control."""
        code = dag_module.sign_separate_row.__code__
        calls = []

        def count(frame, event, arg):
            if event == "call" and frame.f_code is code:
                calls.append(1)

        geometry = LightningDatapath().plan_geometry
        dags = (lenet_class_dag(0), gpt2_class_dag(0), conv_dag())
        sys.setprofile(count)
        try:
            compiled = [compile_model(dag, geometry) for dag in dags]
        finally:
            sys.setprofile(None)
        assert calls == []
        sys.setprofile(count)
        try:
            sign_separate_row(np.ones(3), 2)
        finally:
            sys.setprofile(None)
        assert calls == [1]
        for model in compiled:
            for plan in model.tasks.values():
                if plan.kind in ("dense", "conv"):
                    assert not any(
                        isinstance(value, list) for value in vars(plan).values()
                    )

    def test_plans_module_imports_no_row_separation(self):
        assert not hasattr(plans, "sign_separate_row")
        assert not hasattr(plans, "SignSeparatedRow")

    def test_geometry_formula_is_elementwise(self):
        geometry = PlanGeometry(2, 16, 10)
        steps = np.array([0, 1, 16, 17, 33])
        np.testing.assert_array_equal(
            geometry.step_cycles(steps),
            [geometry.step_cycles(int(step)) for step in steps],
        )
