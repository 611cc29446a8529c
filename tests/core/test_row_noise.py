"""Row-granular readout noise: one Gaussian per dense output row.

A dense row is the signed digital sum of its ADC readouts, so on a
behavioural core with a summable noise model the row's noise is one
draw from ``N(mean * sum(signs), std**2 * readouts)``.  These tests pin
the things that contract rests on:

* the *law* — replaying one dense layer many times matches a
  per-readout reference (the equivalence suite's accumulate-only
  wrapper, which cannot take the row-granular path) in per-row mean
  and variance; and served on ~2 000 dispatch keys, every draw site of
  a keyed tape has its law's mean and variance and no correlation
  with the next key's;
* the *draw budget* — a replay advances the keyed stream by exactly
  ``rows`` normals per dense layer on a plain core and by the summed
  step counts under :class:`DegradedCore`, so a silent fall-back to
  per-readout draws fails here, not in a benchmark — it is a 3x serving
  slowdown that no ratio gate sees (the compiled path and the reference
  slow together);
* *faulted cores are untouched* — ``DegradedCore`` results equal the
  values the per-readout path produced before the contract changed.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core import (
    ComputationDAG,
    LayerTask,
    LightningDatapath,
    ReferenceDatapath,
    sign_separate_row,
)
from repro.core.plans import DensePlan
from repro.faults import (
    DegradedCore,
    FaultSchedule,
    LaserPowerDrift,
    MZMBiasDrift,
    StuckBit,
)
from repro.perf.bench import gpt2_class_dag, lenet_class_dag
from repro.photonics import (
    BehavioralCore,
    CompositeNoise,
    CoreArchitecture,
    GaussianNoise,
    NoiselessModel,
    PrototypeCore,
    ShotNoise,
    ThermalNoise,
)
from repro.runtime import Cluster
from repro.runtime.workload import poisson_trace

from .test_fastpath_equivalence import AccumulateOnlyCore

REPLAYS = 2000
ROWS, INPUTS = 8, 40


def one_layer_dag(seed: int = 0) -> ComputationDAG:
    weights = np.random.default_rng(seed).integers(
        -200, 201, (ROWS, INPUTS)
    ).astype(float)
    # Row 0 all-positive and row 1 all-negative: sum(signs) = +-steps,
    # the rows where a wrong mean law shows most.
    weights[0] = np.abs(weights[0])
    weights[1] = -np.abs(weights[1]) - 1.0
    return ComputationDAG(
        1,
        "one-dense",
        [
            LayerTask(
                name="fc", kind="dense", input_size=INPUTS,
                output_size=ROWS, weights_levels=weights,
            )
        ],
    )


def replay(core, dag: ComputationDAG, x: np.ndarray) -> np.ndarray:
    datapath = LightningDatapath(core=core)
    datapath.register_model(dag)
    return np.array(
        [datapath.execute(1, x).output_levels for _ in range(REPLAYS)]
    )


def dense_plans(datapath, dag) -> list[DensePlan]:
    plans = datapath.model_plan(dag.model_id).tasks.values()
    return [plan for plan in plans if isinstance(plan, DensePlan)]


def keyed_core(seed: int = 3) -> BehavioralCore:
    """A core on the keyed substream the runtime dispatches on."""
    core = BehavioralCore(noise=GaussianNoise(), seed=seed)
    core.reseed_noise(0, 1, 2)
    return core


def assert_normals_drawn(core: BehavioralCore, expected: int) -> None:
    """``core`` drew exactly ``expected`` normals since
    :func:`keyed_core` built it: a twin that draws as many continues
    with the same values."""
    twin = keyed_core(core.seed)
    twin._rng.standard_normal(expected)
    np.testing.assert_array_equal(
        core._rng.standard_normal(4), twin._rng.standard_normal(4)
    )


class TestCapability:
    def test_summable_models_declare_it(self):
        assert GaussianNoise().summable and NoiselessModel().summable
        for model in (
            ShotNoise(),
            ThermalNoise(),
            CompositeNoise(GaussianNoise(), ThermalNoise()),
        ):
            assert not model.summable

    def test_only_plain_behavioural_cores_declare_it(self):
        assert BehavioralCore().row_granular_noise
        assert not BehavioralCore(noise=ShotNoise()).row_granular_noise
        for core in (
            DegradedCore(BehavioralCore()),
            AccumulateOnlyCore(BehavioralCore()),
            PrototypeCore(),
        ):
            assert not getattr(core, "row_granular_noise", False)

    def test_non_summable_model_refuses_a_summed_draw(self):
        core = BehavioralCore(noise=ThermalNoise())
        with pytest.raises(ValueError, match="cannot be summed"):
            core.readout_noise_into(np.zeros(3), np.empty(3), 2.0, 0.0)

    def test_the_declaration_alone_selects_the_summed_draw(self, tiny_dag):
        # Whatever passes the capability probe must be served by the
        # kernel behind it: a GaussianNoise subclass replays dense
        # layers exactly as its parent does, on both paths.
        class BenchNoise(GaussianNoise):
            pass

        x = np.arange(12.0)
        for build in (LightningDatapath, ReferenceDatapath):
            outputs = []
            for noise in (BenchNoise(), GaussianNoise()):
                core = BehavioralCore(noise=noise, seed=5)
                assert core.row_granular_noise
                datapath = build(core=core)
                datapath.register_model(tiny_dag)
                outputs.append(datapath.execute(1, x).output_levels)
            np.testing.assert_array_equal(*outputs)


class TestLaw:
    @pytest.mark.parametrize("remove_mean", [True, False])
    @pytest.mark.parametrize("wavelengths", [2, 24])
    def test_row_draw_matches_per_readout_reference(
        self, wavelengths, remove_mean
    ):
        dag = one_layer_dag()
        x = np.random.default_rng(1).integers(0, 256, INPUTS).astype(float)

        def core(seed):
            return BehavioralCore(
                architecture=CoreArchitecture(
                    accumulation_wavelengths=wavelengths
                ),
                remove_mean=remove_mean,
                seed=seed,
            )

        rows = replay(core(11), dag, x)
        reference = replay(AccumulateOnlyCore(core(12)), dag, x)

        datapath = LightningDatapath(core=core(0))
        datapath.register_model(dag)
        (plan,) = dense_plans(datapath, dag)
        noise = GaussianNoise()
        std = noise.std * plan.std_scale
        mean = np.zeros(ROWS) if remove_mean else noise.mean * plan.net_signs
        clean = dag.tasks[0].weights_levels @ x / 255.0

        # Per-row mean within 4 sigma / sqrt(R) of the closed form, for
        # both paths; the variance ratio of two R-sample estimates of
        # the same variance has std ~ sqrt(4 / R) (= 0.045): a wrong
        # readout count shows as a ratio of 2 (N=2) or more.
        bound = 4.0 * std / np.sqrt(REPLAYS)
        assert np.all(np.abs(rows.mean(axis=0) - clean - mean) < bound)
        assert np.all(np.abs(reference.mean(axis=0) - clean - mean) < bound)
        ratio = rows.var(axis=0, ddof=1) / reference.var(axis=0, ddof=1)
        assert np.all(np.abs(ratio - 1.0) < 0.25)
        np.testing.assert_allclose(
            rows.var(axis=0, ddof=1), std**2, rtol=0.2
        )
        if not remove_mean:
            # The all-positive and all-negative rows carry +-steps means.
            assert mean[0] > 0 > mean[1]

    def test_scales_come_from_the_rows_own_step_counts(self, tiny_dag):
        datapath = LightningDatapath(core=BehavioralCore())
        datapath.register_model(tiny_dag)
        for plan, task in zip(dense_plans(datapath, tiny_dag), tiny_dag.tasks):
            rows = [
                sign_separate_row(row, datapath.num_wavelengths)
                for row in task.weights_levels
            ]
            steps = np.array([row.num_steps for row in rows])
            np.testing.assert_array_equal(plan.std_scale, np.sqrt(steps))
            np.testing.assert_array_equal(
                plan.net_signs, [row.group_signs.sum() for row in rows]
            )
            np.testing.assert_array_equal(plan.steps, steps)


KEYS = 2000


def first_layer(build, kind: str) -> ComputationDAG:
    """A one-task DAG of ``build``'s first ``kind`` layer."""
    task = next(task for task in build(0, 1).tasks if task.kind == kind)
    return ComputationDAG(
        1, f"first-{kind}", [dataclasses.replace(task, depends_on=())]
    )


class TestKeyedTapeLaw:
    """The statistical gate on served noise, in place of digests: every
    draw site of a keyed tape is ``N(shift, factor**2)`` and one key's
    draws are uncorrelated with the next key's, whatever the generator
    behind :meth:`BehavioralCore.noise_stream`."""

    @pytest.mark.parametrize("remove_mean", [True, False])
    @pytest.mark.parametrize(
        "build, kind",
        [(lenet_class_dag, "dense"), (gpt2_class_dag, "attention")],
        ids=["lenet-first-dense", "gpt2-first-attention"],
    )
    def test_every_site_is_its_law(self, monkeypatch, build, kind, remove_mean):
        dag = first_layer(build, kind)
        (task,) = dag.tasks
        x = np.random.default_rng(6).integers(0, 256, task.input_size)

        def served(noise):
            datapath = LightningDatapath(
                core=BehavioralCore(
                    noise=noise, remove_mean=remove_mean, seed=3
                )
            )
            datapath.register_model(dag)
            (plan,) = datapath.model_plan(1).tasks.values()
            raws, draws = [], []
            execute_block = type(plan).execute_block

            def spy(self, block, noise, perturb=None):
                draws.append(None if noise is None else noise.copy())
                raws.append(execute_block(self, block, noise, perturb))
                return raws[-1]

            monkeypatch.setattr(type(plan), "execute_block", spy)
            datapath.forward_keyed(
                1,
                np.tile(x.astype(float), (KEYS, 1)),
                [((0xB0, 0, 0, batch), 1) for batch in range(KEYS)],
            )
            monkeypatch.undo()
            return plan, raws[0], draws[0]

        plan, noisy, z = served(GaussianNoise())
        _, clean, nothing = served(NoiselessModel())
        assert nothing is None and z.shape == (KEYS, plan.draws)
        if kind == "dense":
            # Served minus noiseless is the draw, row for row.
            np.testing.assert_allclose(noisy - clean, z, rtol=0, atol=1e-9)
            readouts, signs = plan.steps, plan.net_signs
        else:
            # Q/K/V, scores, context, output: (outputs, inner) per product.
            s, d = task.attention.seq_len, task.attention.d_model
            sites = [(3 * s * d, d), (s * s, d), (s * d, s), (s * d, d)]
            readouts = np.concatenate([
                np.full(size, -(-inner // plan.geometry.num_wavelengths))
                for size, inner in sites
            ])
            signs = readouts  # a product adds every readout
        law = GaussianNoise()
        factor = law.std * np.sqrt(readouts)
        shift = 0.0 if remove_mean else law.mean * signs

        mean = z.mean(axis=0)
        assert np.all(np.abs(mean - shift) < 4.0 * factor / np.sqrt(KEYS))
        ratio = z.var(axis=0, ddof=1) / factor**2
        assert np.all(np.abs(ratio - 1.0) < 0.15)
        centred = (z - mean) / z.std(axis=0)
        neighbours = (centred[:-1] * centred[1:]).mean(axis=0)
        assert np.all(np.abs(neighbours) < 4.0 / np.sqrt(KEYS))


class TestDrawBudget:
    def test_plain_core_draws_one_normal_per_row(self, tiny_dag):
        core = keyed_core()
        datapath = LightningDatapath(core=core)
        datapath.register_model(tiny_dag)
        datapath.execute(tiny_dag.model_id, np.full(12, 100.0))
        rows = sum(plan.rows for plan in dense_plans(datapath, tiny_dag))
        assert rows == 9
        assert_normals_drawn(core, rows)

    def test_degraded_core_draws_one_normal_per_readout(self, tiny_dag):
        inner = keyed_core()
        datapath = LightningDatapath(core=DegradedCore(inner))
        datapath.register_model(tiny_dag)
        datapath.execute(tiny_dag.model_id, np.full(12, 100.0))
        plans = dense_plans(datapath, tiny_dag)
        steps = sum(int(plan.steps.sum()) for plan in plans)
        assert steps > sum(plan.rows for plan in plans)
        assert_normals_drawn(inner, steps)

    def test_loop_path_draws_the_same_budget(self, tiny_dag):
        core = keyed_core()
        datapath = ReferenceDatapath(core=core)
        datapath.register_model(tiny_dag)
        datapath.execute(tiny_dag.model_id, np.full(12, 100.0))
        assert_normals_drawn(core, 9)


class TestFallbackBlock:
    def test_block_is_built_only_on_first_per_readout_replay(self, tiny_dag):
        datapath = LightningDatapath(core=BehavioralCore(seed=0))
        datapath.register_model(tiny_dag)
        plans = dense_plans(datapath, tiny_dag)
        datapath.execute(tiny_dag.model_id, np.zeros(12))
        assert all(plan._block is None for plan in plans)
        DegradedCore.ensure(datapath)
        datapath.execute(tiny_dag.model_id, np.zeros(12))
        assert all(plan._block is not None for plan in plans)

    #: SHA-256 of the block's output levels per wavelength count ``N``,
    #: recorded when the block still had a sparse-matvec twin whose
    #: bytes these equalled (the lanes of a step summed left to right).
    BLOCK_DIGESTS = {
        1: "88ccb06fd0707884591b4915b0829877a3e5d62f7f8d6fad6eacd1bebbd57307",
        2: "21f92111a7eb77ad6a5d828030a733ef4ef3d2ed161e452399ca7aea5231fb8e",
        3: "9e8c3b7a370a7dbd04544b738e680f82199e93aac264162e6cffb525c95bf867",
        8: "e0657f8fa4d2fb3d27cb62c7852b692e5ba481633b7f8652f587944557d66506",
    }

    @pytest.mark.parametrize("wavelengths", sorted(BLOCK_DIGESTS))
    def test_block_outputs_match_the_recorded_digests(self, wavelengths):
        dag = one_layer_dag()
        x = np.random.default_rng(1).integers(0, 256, INPUTS).astype(float)
        core = DegradedCore(
            BehavioralCore(
                architecture=CoreArchitecture(
                    accumulation_wavelengths=wavelengths
                ),
                seed=3,
            ),
            [MZMBiasDrift(volts_per_s=100.0)],
            now_s=1e-3,
        )
        datapath = LightningDatapath(core=core)
        datapath.register_model(dag)
        levels = datapath.execute(dag.model_id, x).output_levels
        digest = hashlib.sha256(levels.tobytes()).hexdigest()
        assert digest == self.BLOCK_DIGESTS[wavelengths]

    def test_drifted_serve_predictions_match_the_recorded_column(
        self, tiny_dag
    ):
        """A cluster serve whose core drifts from t = 0 replays every
        dense layer through the block; its prediction column is the
        one recorded with the block's earlier sparse-matvec twin."""
        cluster = Cluster(num_cores=1)
        cluster.deploy(tiny_dag)
        schedule = FaultSchedule(seed=1).mzm_bias_drift(
            at_s=0.0, core=0, volts_per_s=100.0
        )
        result = cluster.serve_trace(
            poisson_trace([tiny_dag], 1e5, 40, seed=2),
            fault_schedule=schedule,
        )
        assert result.served == 40
        assert result.outcomes.prediction.tolist() == [
            1, 0, 2, 1, 1, 2, 1, 1, 1, 2, 1, 1, 2, 2, 1, 1, 1, 0, 1, 2,
            2, 1, 1, 1, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 0, 1, 1,
        ]

    def test_shared_replica_rebuilds_the_block_from_weights(self, tiny_dag):
        def degraded(seed):
            core = DegradedCore(
                BehavioralCore(seed=seed, noise=GaussianNoise(std=1.0)),
                faults=[StuckBit(onset_s=0.0, bit=1, stuck_to=1)],
            )
            core.set_time(1.0)
            return core

        parent = LightningDatapath(core=degraded(5))
        parent.register_model(tiny_dag)
        replica = LightningDatapath(core=degraded(5))
        replica.register_model(
            tiny_dag, plan=parent.model_plan(1).replica()
        )
        x = np.random.default_rng(2).integers(0, 256, 12).astype(float)
        # The replica replays first: it builds the block its parent
        # then shares.
        replayed = replica.execute(1, x).output_levels
        np.testing.assert_array_equal(
            parent.execute(1, x).output_levels, replayed
        )
        for plan in dense_plans(replica, tiny_dag):
            assert plan._block is not None
        assert all(
            a is b
            for a, b in zip(
                dense_plans(parent, tiny_dag), dense_plans(replica, tiny_dag)
            )
        )


class TestDegradedCoreUnchanged:
    """Frozen at the commit before row-granular noise landed: an
    installed fault keeps the per-readout perturbation bit for bit."""

    DRIFT_ONLY = [
        (1, [-11.312107206578036, -3.1914039270960446, -9.043163184309174]),
        (0, [-2.6652698397069328, -3.6020921882222776, -6.934667298380462]),
        (1, [-9.530433259441038, -3.133809132979174, -6.684227071727133]),
    ]
    DRIFT_AND_STUCK_BIT = [
        (2, [-20.0, -6.0, -5.0]),
        (0, [-3.0, -10.0, -7.0]),
        (2, [-14.0, -8.0, -7.0]),
    ]

    @pytest.mark.parametrize(
        "stuck_bit, expected",
        [(False, DRIFT_ONLY), (True, DRIFT_AND_STUCK_BIT)],
    )
    def test_three_requests_match_the_frozen_values(
        self, tiny_dag, stuck_bit, expected
    ):
        faults = [LaserPowerDrift(onset_s=0.0, fraction_per_s=0.02)]
        if stuck_bit:
            faults.append(StuckBit(onset_s=0.0, bit=1, stuck_to=1))
        core = DegradedCore(
            BehavioralCore(seed=4, noise=GaussianNoise(std=1.0)),
            faults=faults,
        )
        core.set_time(3.0)
        datapath = LightningDatapath(core=core, seed=4)
        datapath.register_model(tiny_dag)
        inputs = np.random.default_rng(4).integers(
            0, 256, size=(3, 12)
        ).astype(float)
        for x, (prediction, outputs) in zip(inputs, expected):
            execution = datapath.execute(tiny_dag.model_id, x)
            assert execution.prediction == prediction
            np.testing.assert_allclose(
                execution.output_levels, outputs, rtol=0.0, atol=1e-9
            )
