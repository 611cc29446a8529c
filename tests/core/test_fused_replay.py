"""One ledger, one forward pass: the compiled serving path's contract.

On healthy and degraded cores alike, ``LightningDatapath.execute`` and
``execute_batch`` run a request as two compiled programs — the model's
forward program for the numerics, its ``TimingPlan`` for the ledger —
instead of walking the layers.  That must be an implementation
detail.  Twin datapaths at equal seeds, one serving through
``execute`` and one through the per-layer walk
(``repro.core.reference.walk``), must agree on every output bit, every
``LayerExecution`` field, the memory controller's ledger, the *next*
draw of both RNG streams, the loader and replay counters and the
register end state; bad inputs must raise the walk's errors before
anything is charged; and a ``DegradedCore`` and the
``ReferenceDatapath`` (per-row ``loop``, framing ``device``) must
produce the outputs they produced before the programs existed.

A silent fall-back to the per-layer walk (or a worker charging a ledger
its parent owns — ``TestWorkerRunsOnlyTheForwardProgram``) is a 1.3x
serving slowdown with equal results, which the perf gate's ratios
cannot see; the register-write and counter assertions here do.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.core import (
    ComputationDAG,
    LayerTask,
    LightningDatapath,
    ReferenceDatapath,
)
from repro.core.dag import AttentionShape
from repro.core.reference import walk
from repro.faults import (
    DegradedCore,
    LaserPowerDrift,
    MZMBiasDrift,
    PhotodetectorSaturation,
    StuckBit,
)
from repro.perf.bench import gpt2_class_dag, lenet_class_dag
from repro.photonics import BehavioralCore, CoreArchitecture, GaussianNoise
from repro.runtime.parallel import _worker_run, _WorkerState

from .test_timing_plans import (
    ZOO,
    _dense,
    attention_tower,
    conv_stack,
    deep_mlp,
    mixed,
    single_layer,
)

MODELS = [
    *(pytest.param(build, id=build.__name__) for build in ZOO),
    pytest.param(lambda model_id: lenet_class_dag(0, model_id), id="lenet"),
    pytest.param(lambda model_id: gpt2_class_dag(0, model_id), id="gpt2"),
]

#: A broadcast core with one accumulation wavelength: the loader's
#: default of two would leave a single-layer model's registers wrong.
BROADCAST = CoreArchitecture(batch_size=8)


def twins(dag, architecture=None, seed=3):
    """Two identically seeded compiled datapaths serving ``dag``."""

    def build():
        kwargs = {} if architecture is None else {"architecture": architecture}
        datapath = LightningDatapath(core=BehavioralCore(seed=seed, **kwargs))
        datapath.register_model(dag)
        return datapath

    return build(), build()


def inputs_for(dag, count, seed=1):
    return np.random.default_rng(seed).integers(
        0, 256, size=(count, dag.tasks[0].input_size)
    ).astype(float)


def assert_same_state(fused, walked, noise_stream=True):
    """Everything a request leaves behind, on both datapaths."""
    for name in ("dram_reads", "cache_hits"):
        assert getattr(fused.memory, name) == getattr(walked.memory, name)
    assert (
        fused.memory.total_read_latency_s.hex()
        == walked.memory.total_read_latency_s.hex()
    )
    assert sorted(fused.memory._register_file) == sorted(
        walked.memory._register_file
    )
    assert fused.loader.loads == walked.loader.loads
    assert fused.plan_stats() == walked.plan_stats()
    assert fused.registers._registers == walked.registers._registers
    # The next draw of each stream: both generators sit at one position.
    assert fused.memory._rng.uniform() == walked.memory._rng.uniform()
    if noise_stream:
        assert (
            noise_rng(fused).standard_normal()
            == noise_rng(walked).standard_normal()
        )


def noise_rng(datapath):
    """The core's noise generator, seen through a fault wrapper."""
    core = datapath.core
    return getattr(core, "core", core)._rng


def assert_same_execution(fused, walked):
    assert fused.output_levels.tobytes() == walked.output_levels.tobytes()
    assert fused.prediction == walked.prediction
    assert (fused.model_id, fused.model_name) == (
        walked.model_id, walked.model_name
    )
    for part in ("compute", "datapath", "memory", "total"):
        name = f"{part}_seconds"
        assert getattr(fused, name).hex() == getattr(walked, name).hex()
    assert len(fused.layers) == len(walked.layers)
    for ours, theirs in zip(fused.layers, walked.layers):
        assert ours.task_name == theirs.task_name
        assert ours.compute_cycles == theirs.compute_cycles
        assert ours.rows == theirs.rows
        assert ours.compute_seconds.hex() == theirs.compute_seconds.hex()
        assert ours.datapath_seconds == theirs.datapath_seconds
        assert ours.memory_seconds.hex() == theirs.memory_seconds.hex()
        assert ours.output_levels.tobytes() == theirs.output_levels.tobytes()


class TestExecuteMatchesTheWalk:
    @pytest.mark.parametrize("build", MODELS)
    def test_three_requests(self, build):
        dag = build(model_id=3)
        fused, walked = twins(dag)
        for x in inputs_for(dag, 3):
            assert_same_execution(
                fused.execute(dag.model_id, x),
                walk(walked, dag.model_id, x),
            )
        assert_same_state(fused, walked)

    def test_kernel_miss_then_hits(self):
        """conv + pool: the first request reads the kernel from DRAM
        (and draws its jitter), later ones hit the register file."""
        dag = mixed(model_id=4)
        fused, walked = twins(dag)
        hits = []
        for x in inputs_for(dag, 3):
            ours = fused.execute(dag.model_id, x)
            assert_same_execution(ours, walk(walked, dag.model_id, x))
            hits.append(fused.memory.cache_hits)
            conv = ours.layers[0]
            assert (conv.memory_seconds > 0.0) == (len(hits) == 1)
        assert hits == [0, 1, 2]
        assert_same_state(fused, walked)

    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("build", MODELS)
    def test_batches_on_a_broadcast_core(self, build, batch):
        dag = build(model_id=3)
        fused, walked = twins(dag, architecture=BROADCAST)
        for round_seed in (1, 2):  # cold kernels, then warm
            block = inputs_for(dag, batch, seed=round_seed)
            ours = fused.execute_batch(dag.model_id, block)
            theirs = [
                walk(walked, dag.model_id, row) for row in block
            ]
            assert ours.passes == 1 and ours.batch == batch
            assert ours.output_levels.tobytes() == np.stack(
                [t.output_levels for t in theirs]
            ).tobytes()
            for part in ("compute", "datapath", "memory"):
                name = f"{part}_seconds"
                assert (
                    getattr(ours, name).hex()
                    == getattr(theirs[0], name).hex()
                )
        assert_same_state(fused, walked)

    def test_multi_pass_batch_bills_every_pass(self):
        dag = conv_stack(model_id=5)
        architecture = CoreArchitecture(
            accumulation_wavelengths=2, batch_size=2
        )
        fused, walked = twins(dag, architecture=architecture)
        block = inputs_for(dag, 5)
        ours = fused.execute_batch(dag.model_id, block)
        first = walk(walked, dag.model_id, block[0])
        for row in block[1:]:
            walk(walked, dag.model_id, row)
        assert ours.passes == 3
        assert ours.compute_seconds == first.compute_seconds * 3
        assert ours.memory_seconds == first.memory_seconds * 3
        assert_same_state(fused, walked)

    def test_timing_dry_run_is_the_ledger_half(self):
        """``execute_timing`` leaves exactly what ``execute`` leaves,
        minus the core's noise draws."""
        dag = gpt2_class_dag(0, model_id=2)
        fused, dry = twins(dag)
        x = inputs_for(dag, 1)[0]
        execution = fused.execute(dag.model_id, x)
        estimate = dry.execute_timing(dag.model_id)
        assert estimate == execution.timing
        assert_same_state(fused, dry, noise_stream=False)
        untouched = BehavioralCore(seed=3)._rng.standard_normal()
        assert dry.core._rng.standard_normal() == untouched


def replay_writes(walk_writes):
    """The writes one ledger replay makes, cut from one walk's: the
    walk loads (model header, layer 0 at the loader's default
    wavelength count), then configures every layer in turn; the replay
    keeps the load and the first and last of those configurations —
    the register end state."""
    starts = [
        i for i, (name, _) in enumerate(walk_writes) if name == "layer.index"
    ]
    configs = [
        walk_writes[start:end]
        for start, end in zip(starts, starts[1:] + [len(walk_writes)])
    ]
    load, first, *rest = configs
    kept = [first, *rest[-1:]]
    return walk_writes[: starts[0]] + load + [w for c in kept for w in c]


class TestCompiledWriteBack:
    """A dry run's ledger is a compiled write-back plus one folded
    pass over the reads: register map, write log and count, counters,
    DRAM ledger and the memory generator's position all land where
    walking the layers leaves them — kernels cold, then warm, single
    dispatches and batches alike."""

    @pytest.mark.parametrize("architecture", [None, BROADCAST],
                             ids=["two-wavelengths", "one-wavelength"])
    @pytest.mark.parametrize("build", MODELS)
    def test_dry_runs_leave_what_walks_leave(self, build, architecture):
        dag = build(model_id=3)
        fused, walked = twins(dag, architecture=architecture)
        hardware = fused.core.architecture.batch_size
        zeros = np.zeros(dag.tasks[0].input_size)
        log = deque(maxlen=fused.registers.WRITE_LOG_DEPTH)
        count = 0
        # None: ``execute_timing``; the first call meets cold kernels.
        for batch in (None, None, 1, 2, 3, 4, 5):
            samples = batch or 1
            with walked.registers.capture() as writes:
                walks = [
                    walk(walked, dag.model_id, zeros) for _ in range(samples)
                ]
            if batch is None:
                estimate = fused.execute_timing(dag.model_id)
            else:
                estimate = fused.execute_batch_timing(dag.model_id, batch)
            passes = -(-samples // hardware)
            assert estimate == walks[0].timing.repeated(passes)
            # Every sample's walk writes the same sequence; a dry run
            # writes the replay's cut of it once.
            one = replay_writes(writes[: len(writes) // samples])
            log.extend(one)
            count += len(one)
            assert fused.registers.write_log == tuple(log)
            assert fused.registers.write_count == count
            assert fused.registers._registers == walked.registers._registers
            assert_same_state(fused, walked, noise_stream=False)

    def test_dry_runs_under_capture(self):
        dag = mixed(model_id=4)
        fused, walked = twins(dag)
        zeros = np.zeros(dag.tasks[0].input_size)
        fused.execute_timing(dag.model_id)  # kernels pinned
        walk(walked, dag.model_id, zeros)
        ring, count = fused.registers.write_log, fused.registers.write_count
        with fused.registers.capture() as captured:
            fused.execute_timing(dag.model_id)
            fused.execute_batch_timing(dag.model_id, 3)
        with walked.registers.capture() as writes:
            for _ in range(4):
                walk(walked, dag.model_id, zeros)
        one = replay_writes(writes[: len(writes) // 4])
        assert captured == one + one
        assert fused.registers.write_count == count + len(captured)
        assert fused.registers.write_log == (ring + tuple(captured))[
            -fused.registers.WRITE_LOG_DEPTH:
        ]
        assert_same_state(fused, walked, noise_stream=False)


#: Fresh fault objects per datapath: a re-lock mutates them.
FAULTS = {
    "laser": lambda: [LaserPowerDrift(0.0, fraction_per_s=0.02)],
    "bias": lambda: [MZMBiasDrift(0.0, volts_per_s=0.05)],
    "saturation": lambda: [
        PhotodetectorSaturation(0.0, saturation_level=200.0)
    ],
    "stuck-bit": lambda: [StuckBit(0.0, bit=2, stuck_to=1)],
}
FAULTS["all-four"] = lambda: [
    fault
    for name in ("laser", "bias", "saturation", "stuck-bit")
    for fault in FAULTS[name]()
]

#: Dense, conv + pool (+ attention), attention.
DEGRADED_MODELS = [
    pytest.param(build, id=build.__name__)
    for build in (deep_mlp, mixed, attention_tower)
]


def degrade(datapath, faults, now_s=3.0):
    wrapper = DegradedCore.ensure(datapath)
    wrapper.set_time(now_s)
    for fault in FAULTS[faults]():
        wrapper.install(fault)
    return wrapper


class TestDegradedCoresReplay:
    """A core's health never changes what a request costs, nor which
    path serves it: twins degraded identically, one through the
    compiled programs and one through the walk, stay indistinguishable."""

    @pytest.mark.parametrize("build", DEGRADED_MODELS)
    @pytest.mark.parametrize("faults", FAULTS)
    def test_three_requests(self, faults, build):
        dag = build(model_id=4)
        fused, walked = twins(dag)
        tplan = fused.timing_plan(dag.model_id)
        for datapath in (fused, walked):
            degrade(datapath, faults)
        hits = []
        for x in inputs_for(dag, 3):
            assert_same_execution(
                fused.execute(dag.model_id, x),
                walk(walked, dag.model_id, x),
            )
            hits.append(fused.memory.cache_hits)
        if dag.tasks[0].kind == "conv":  # kernel miss, then hits
            assert hits == [0, 1, 2]
        assert fused.timing_plan(dag.model_id) is tplan
        assert_same_state(fused, walked)

    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("build", DEGRADED_MODELS)
    @pytest.mark.parametrize("faults", FAULTS)
    def test_batches_on_a_broadcast_core(self, faults, build, batch):
        dag = build(model_id=4)
        fused, walked = twins(dag, architecture=BROADCAST)
        for datapath in (fused, walked):
            degrade(datapath, faults)
        for round_seed in (1, 2):  # cold kernels, then warm
            block = inputs_for(dag, batch, seed=round_seed)
            ours = fused.execute_batch(dag.model_id, block)
            theirs = [
                walk(walked, dag.model_id, row) for row in block
            ]
            assert ours.output_levels.tobytes() == np.stack(
                [t.output_levels for t in theirs]
            ).tobytes()
            assert ours.timing == theirs[0].timing
        assert_same_state(fused, walked)

    @pytest.mark.parametrize("build", DEGRADED_MODELS)
    def test_fault_installed_between_two_requests(self, build):
        dag = build(model_id=4)
        fused, walked = twins(dag)
        first, second = inputs_for(dag, 2)
        assert_same_execution(
            fused.execute(dag.model_id, first),
            walk(walked, dag.model_id, first),
        )
        for datapath in (fused, walked):
            degrade(datapath, "all-four")
        assert_same_execution(
            fused.execute(dag.model_id, second),
            walk(walked, dag.model_id, second),
        )
        assert_same_state(fused, walked)

    @pytest.mark.parametrize("build", DEGRADED_MODELS)
    def test_relock_between_two_requests(self, build):
        dag = build(model_id=4)
        fused, walked = twins(dag)
        wrappers = [degrade(d, "all-four") for d in (fused, walked)]
        first, second = inputs_for(dag, 2)
        before = fused.execute(dag.model_id, first)
        assert_same_execution(
            before, walk(walked, dag.model_id, first)
        )
        for wrapper in wrappers:
            wrapper.relock(3.5, [0.001])
            wrapper.set_time(4.0)
        after = fused.execute(dag.model_id, second)
        assert_same_execution(
            after, walk(walked, dag.model_id, second)
        )
        # The re-lock moved the values, not the cost.
        assert after.compute_seconds == before.compute_seconds
        assert after.datapath_seconds == before.datapath_seconds
        assert_same_state(fused, walked)

    def test_degraded_execute_stays_compiled(self):
        """A fault installed mid-service leaves ``execute`` on the
        compiled programs: same register writes, same cached plan."""
        dag = mixed(4)
        datapath, _ = twins(dag)
        x = inputs_for(dag, 1)[0]
        tplan = datapath.timing_plan(dag.model_id)
        with datapath.registers.capture() as writes:
            datapath.execute(dag.model_id, x)
        healthy = [v for name, v in writes if name == "layer.index"]
        degrade(datapath, "laser")
        with datapath.registers.capture() as writes:
            datapath.execute(dag.model_id, x)
        degraded = [v for name, v in writes if name == "layer.index"]
        assert healthy == degraded == [0, 0, 3]
        assert datapath.timing_plan(dag.model_id) is tplan


class TestInputValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param(np.zeros(5), id="wrong-length"),
            pytest.param(np.full(12, 256.0), id="above-range"),
            pytest.param(np.full(12, -1.0), id="negative"),
            # Both compare False with ``min() < 0 or max() > 255``-style
            # tests; a NaN request used to be served (prediction 0 over
            # an all-NaN output).
            pytest.param(np.r_[np.nan, np.zeros(11)], id="nan"),
            pytest.param(np.r_[np.zeros(11), np.inf], id="inf"),
        ],
    )
    def test_bad_input_raises_the_walks_error_uncharged(self, bad, tiny_dag):
        fused, walked = twins(tiny_dag)
        with pytest.raises(ValueError) as theirs:
            walk(walked, tiny_dag.model_id, bad)
        with pytest.raises(ValueError) as ours:
            fused.execute(tiny_dag.model_id, bad)
        assert str(ours.value) == str(theirs.value)
        with pytest.raises(ValueError, match=str(theirs.value)[:20]):
            fused.execute_batch(tiny_dag.model_id, np.stack([bad, bad]))
        assert fused.memory.dram_reads == 0
        assert fused.memory.total_read_latency_s == 0.0
        assert fused.plan_stats()[tiny_dag.model_id]["replays"] == 0

    def test_range_check_survives_a_non_requantizing_producer(self):
        """A middle layer with ``requant_divisor == 1.0`` clips nothing,
        so its consumer's range check is not proved and must fire."""
        rng = np.random.default_rng(0)
        dag = ComputationDAG(6, "unclipped-middle", [
            _dense("fc0", rng, 12, 8, nonlinearity="relu",
                   requant_divisor=8.0),
            _dense("fc1", rng, 8, 8, depends_on=("fc0",)),
            _dense("fc2", rng, 8, 4, depends_on=("fc1",)),
        ])
        fused, walked = twins(dag)
        proved = [in_range for _, _, in_range in
                  fused.model_plan(dag.model_id).program]
        assert proved == [False, True, False]
        x = np.full(12, 255.0)
        with pytest.raises(ValueError, match="0..255 levels") as theirs:
            walk(walked, dag.model_id, x)
        with pytest.raises(ValueError) as ours:
            fused.execute(dag.model_id, x)
        assert str(ours.value) == str(theirs.value)
        assert fused.memory.dram_reads == 0


class TestWalkingPathsUnchanged:
    """Outputs frozen at the commit before the compiled programs
    landed, when all three walked the layers (``loop`` and ``device``,
    now the ``ReferenceDatapath``, still do; a degraded core replays
    since)."""

    DEGRADED = [
        [0.8072537011379901, -11.490598427377504, -3.204003039678641],
        [6.371479939937208, 2.315784408420572, 1.730934524899057],
    ]
    LOOP = [
        [0.18540996337083104, -8.63730871843904, 0.05204235000114643],
        [2.153148117621715, -5.499764437155989, -1.2533713800868147],
    ]
    DEVICE = [
        [23.655950890461774, 25.50616728703298, 27.7836876833911,
         -39.38255583047517],
        [-28.3310566768627, 33.55514538636418, 33.97155048837719,
         -7.098967120575631],
    ]
    LOOP_BATCH_SECONDS = (
        "0x1.19bd1505a1870p-17",
        "0x1.36d927707eba9p-20",
        "0x1.794de7609ae29p-22",
    )

    @staticmethod
    def degraded_core():
        core = DegradedCore(
            BehavioralCore(seed=4, noise=GaussianNoise(std=1.0)),
            faults=[LaserPowerDrift(onset_s=0.0, fraction_per_s=0.02)],
        )
        core.set_time(3.0)
        return core

    @pytest.mark.parametrize(
        "make, build, expected",
        [
            pytest.param(
                lambda: LightningDatapath(
                    core=TestWalkingPathsUnchanged.degraded_core()
                ),
                lambda: mixed(4), DEGRADED, id="degraded",
            ),
            pytest.param(
                lambda: ReferenceDatapath(core=BehavioralCore(seed=4)),
                lambda: mixed(4), LOOP, id="loop",
            ),
            pytest.param(
                lambda: ReferenceDatapath(
                    core=BehavioralCore(seed=4), framing=True, seed=4
                ),
                lambda: conv_stack(5), DEVICE, id="device",
            ),
        ],
    )
    def test_two_requests_match_the_frozen_values(
        self, make, build, expected
    ):
        datapath, dag = make(), build()
        datapath.register_model(dag)
        for x, outputs in zip(inputs_for(dag, 2, seed=9), expected):
            execution = datapath.execute(dag.model_id, x)
            np.testing.assert_allclose(
                execution.output_levels, outputs, rtol=0.0, atol=1e-9
            )
            assert len(execution.layers) == dag.num_layers

    def test_loop_batch_matches_the_frozen_values(self):
        datapath = ReferenceDatapath(core=BehavioralCore(seed=4))
        dag = mixed(4)
        datapath.register_model(dag)
        batch = datapath.execute_batch(
            dag.model_id, inputs_for(dag, 2, seed=9)
        )
        np.testing.assert_allclose(
            batch.output_levels, self.LOOP, rtol=0.0, atol=1e-9
        )
        assert (
            batch.compute_seconds.hex(),
            batch.datapath_seconds.hex(),
            batch.memory_seconds.hex(),
        ) == self.LOOP_BATCH_SECONDS


class TestSharedInputProduct:
    """Attention's Q/K/V: one streamed product, three calls' stream."""

    @pytest.mark.parametrize("seq_len, d_model", [(8, 16), (5, 35), (1, 9)])
    @pytest.mark.parametrize("remove_mean", [True, False])
    def test_bit_equal_to_sequential_calls(
        self, seq_len, d_model, remove_mean
    ):
        rng = np.random.default_rng(seq_len)
        weights = rng.integers(-200, 201, (3 * d_model, d_model)).astype(float)
        blocks = [
            weights[i * d_model:(i + 1) * d_model].T for i in range(3)
        ]
        tokens = rng.uniform(0.0, 255.0, (seq_len, d_model))
        one, three = (
            BehavioralCore(seed=7, remove_mean=remove_mean) for _ in range(2)
        )
        for core in (one, three):
            core.reseed_noise(1, 2, 3)
        stacked = one.matmul_shared(tokens, blocks)
        for ours, block in zip(stacked, blocks):
            assert ours.tobytes() == three.matmul(tokens, block).tobytes()
        assert one._rng.standard_normal() == three._rng.standard_normal()

    def test_overridden_matmul_keeps_its_three_calls(self):
        calls = []

        class Counting(BehavioralCore):
            def matmul(self, a_matrix, b_matrix):
                calls.append(np.shape(b_matrix))
                return super().matmul(a_matrix, b_matrix)

        dag = single_attention(model_id=8)
        datapath = LightningDatapath(core=Counting(seed=1))
        datapath.register_model(dag)
        reference, _ = twins(dag, seed=1)
        x = inputs_for(dag, 1)[0]
        ours = datapath.execute(dag.model_id, x)
        assert len(calls) == 6
        assert (
            ours.output_levels.tobytes()
            == reference.execute(dag.model_id, x).output_levels.tobytes()
        )


def single_attention(model_id: int) -> ComputationDAG:
    attn = AttentionShape(seq_len=4, d_model=8)
    weights = np.random.default_rng(model_id).integers(
        -200, 201, (4 * attn.d_model, attn.d_model)
    ).astype(float)
    return ComputationDAG(model_id, "one-attention", [
        LayerTask(
            name="attn", kind="attention", input_size=attn.input_size,
            output_size=attn.output_size, weights_levels=weights,
            attention=attn,
        ),
    ])


class _Posted:
    """A stand-in completion ring: records what the worker posts."""

    def __init__(self):
        self.results, self.errors = {}, {}

    def post_predictions(self, seq, predictions):
        self.results[seq] = predictions

    def post_error(self, seq, text):
        self.errors[seq] = text


class TestWorkerRunsOnlyTheForwardProgram:
    @pytest.mark.parametrize("rows", [1, 3])
    def test_worker_charges_no_ledger(self, rows):
        dag = mixed(model_id=4)
        worker, serial = twins(dag)
        state = _WorkerState(worker, conn=None, sems=None)
        state.consumer = _Posted()
        block = inputs_for(dag, rows)
        key = (7, 0, 0, 1)
        message = ("run", 11, dag.model_id,
                   block[0] if rows == 1 else block, 0.0, key)
        _worker_run(state, [message])
        assert not state.consumer.errors
        assert worker.memory.dram_reads == 0
        assert worker.memory.cache_hits == 0
        assert worker.loader.loads == 0
        assert worker.registers.write_count == 0
        serial.core.reseed_noise(*key)
        expected = [serial.execute(dag.model_id, row) for row in block]
        assert state.consumer.results[11] == [e.prediction for e in expected]
        # The bytes behind the posted argmaxes: the forward program
        # alone, on the batch's noise key, equals serial's outputs.
        worker.core.reseed_noise(*key)
        for row, theirs in zip(block, expected):
            ours = worker.forward(dag.model_id, row)
            assert ours.tobytes() == theirs.output_levels.tobytes()
        assert worker.memory.dram_reads == 0
        assert worker.registers.write_count == 0

    def test_single_layer_registers_on_a_one_wavelength_core(self):
        """The replay re-targets layer 0 to the core's own wavelength
        count — ``load`` alone configures it for two."""
        dag = single_layer(model_id=2)
        fused, walked = twins(dag, architecture=BROADCAST)
        x = inputs_for(dag, 1)[0]
        fused.execute(dag.model_id, x)
        walk(walked, dag.model_id, x)
        assert fused.registers.read("layer.accumulations_target") == 16
        assert_same_state(fused, walked)
