"""The Lightning datapath: photonic-electronic pipelined execution (§4).

:class:`LightningDatapath` wires together the building blocks of the
paper's Figure 5: the DAG configuration loader writes count-action
targets for each layer, the memory controller streams sign-separated
weights, the synchronous data streamer feeds the photonic core, preamble
detection frames the ADC readout, and the pipeline parallel adder plus
non-linear modules complete each layer digitally.

Three execution fidelities are offered, producing equivalent numerical
results and identical cycle accounting:

* ``fidelity="device"`` walks every row's samples through the framing
  path — preamble added before the DACs, ADC readout windows with a
  random data-start offset, count-action preamble detection, and
  cycle-by-cycle adder-subtractor ticks.  This is the path used to
  reproduce the Figure 17 traces and to validate the fast path.
* ``fidelity="fast"`` (the default) replays each task's compiled
  :class:`~repro.core.plans.ExecutionPlan` — stacked sign-separated
  operands, cached im2col gather maps, one photonic-core call per
  layer — while charging the identical cycle ledger and consuming the
  identical readout-noise RNG stream.  Plans compile once at
  :meth:`register_model` and are replayed across requests; this is the
  serving path (Figures 15/16).  Because a layer's cost never depends
  on its activations (§4 decouples the control plane from the data
  plane), a request is two compiled programs run once each: the
  model's forward program for the numerics — batch-major, one request
  being a block of one row (:meth:`~repro.core.plans.ModelPlan.forward_block`)
  — and its :class:`TimingPlan` for the ledger — on every core: an
  installed analog fault changes the values a core returns, never a
  cycle count, a DRAM read or a register write.  :meth:`execute_layers`
  remains the per-layer walk the other fidelities and the tracer
  take, and the reference the compiled path is tested against.
* ``fidelity="loop"`` computes the same reductions row by row with
  per-row core calls: the pre-plan reference path, kept as the
  baseline the equivalence tests and the ``repro.perf`` benchmark
  harness compare the compiled path against.

Cycle accounting follows the prototype: a 253.44 MHz digital clock moving
16 samples per cycle per converter (4.055 GS/s analog rate), a preamble
of P pattern repeats per vector, a log2(16)-cycle adder tree, and the
per-layer non-linearity latency, all pipelined so per-vector overheads
appear once per vector and per-layer overheads once per layer.  The
Lightning-specific datapath functions (DACs, ADCs, count-action modules)
cost 193 ns per layer, the constant measured on the prototype (§9).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from ..photonics.converters import (
    PROTOTYPE_FPGA_CLOCK_MHZ,
    PROTOTYPE_SAMPLES_PER_CYCLE,
)
from ..photonics.core import BehavioralCore, PrototypeCore
from .adders import CrossCycleAdderSubtractor, IntraCycleAdderTree
from .count_action import ControlRegisterFile
from .dag import (
    ComputationDAG,
    ConvShape,
    DAGConfigurationLoader,
    LayerTask,
    SignSeparatedRow,
    sign_separate_row,
)
from .memory import MemoryController
from .nonlinear import nonlinear_module
from .plans import (
    ExecutionPlan,
    ModelPlan,
    PlanGeometry,
    check_activations,
    compile_model,
    finish_output,
    gather_patches,
    supports_matmul,
    tape_law,
)
from .preamble import PREAMBLE_PATTERN_TESTBED, PreambleDetector, add_preamble

__all__ = [
    "LayerExecution",
    "InferenceExecution",
    "BatchExecution",
    "TimingEstimate",
    "TimingPlan",
    "LightningDatapath",
    "PER_LAYER_DATAPATH_SECONDS",
]

#: Datapath latency per DNN layer measured on the prototype (§9): covers
#: the Lightning-specific functions — DACs, ADCs, count-action modules.
PER_LAYER_DATAPATH_SECONDS = 193e-9

@dataclass(frozen=True)
class LayerExecution:
    """Result and cost of executing one DAG task."""

    task_name: str
    output_levels: np.ndarray
    compute_cycles: int
    compute_seconds: float
    datapath_seconds: float
    memory_seconds: float
    rows: int


@dataclass(frozen=True)
class BatchExecution:
    """Result and cost of serving a batch on a broadcast core.

    Appendix E's third favourable feature: the weight matrix is encoded
    once and photonic broadcasting fans it out to ``hardware_batch``
    input lanes, so a batch costs ``passes = ceil(batch /
    hardware_batch)`` single-inference pipelines' worth of cycles rather
    than ``batch`` of them.
    """

    model_id: int
    model_name: str
    output_levels: np.ndarray  # (batch, output_size)
    batch: int
    hardware_batch: int
    passes: int
    compute_seconds: float
    datapath_seconds: float
    memory_seconds: float

    @property
    def total_seconds(self) -> float:
        return (
            self.compute_seconds + self.datapath_seconds + self.memory_seconds
        )

    @property
    def timing(self) -> TimingEstimate:
        return TimingEstimate(
            self.compute_seconds,
            self.datapath_seconds,
            self.memory_seconds,
            self.passes,
        )

    @property
    def predictions(self) -> np.ndarray:
        return np.argmax(self.output_levels, axis=-1)

    @property
    def throughput_per_second(self) -> float:
        """Inferences per second at this batch size."""
        return self.batch / self.total_seconds


@dataclass(frozen=True)
class TimingEstimate:
    """The cost of an execution without its outputs.

    Produced by :meth:`LightningDatapath.execute_timing` — the parent
    process's dry-run in process-parallel serving, which must charge the
    exact seconds :meth:`LightningDatapath.execute` would have charged
    (same per-layer formulas, same summation order, same memory-jitter
    RNG consumption) while a worker computes the actual outputs.
    """

    compute_seconds: float
    datapath_seconds: float
    memory_seconds: float
    passes: int = 1

    @property
    def total_seconds(self) -> float:
        return (
            self.compute_seconds + self.datapath_seconds + self.memory_seconds
        )

    def repeated(self, passes: int) -> "TimingEstimate":
        """A batch's cost: ``passes`` runs of this one pipeline pass.

        Each pass streams the weights once and computes all its batch
        lanes simultaneously; the per-layer datapath and memory costs
        are per pass as well.
        """
        return TimingEstimate(
            compute_seconds=self.compute_seconds * passes,
            datapath_seconds=self.datapath_seconds * passes,
            memory_seconds=self.memory_seconds * passes,
            passes=passes,
        )


@dataclass(frozen=True)
class TimingPlan:
    """A model's ledger, frozen into per-layer constants at deploy time.

    What a layer costs in cycles, DRAM reads and datapath charges never
    depends on the activations flowing through it (§4), so the
    per-layer constants — compute cycles, the 193 ns datapath charge
    with its parallel-group dedup already applied, each
    memory-touching layer's transfer time — are compiled once
    (mirroring the execution plans of ``repro.core.plans``) and every
    request replays them instead of re-deriving them layer by layer.

    Only the DRAM jitter draws vary between replays; they stay
    bit-identical to per-read charging because a sample's uniforms are
    one RNG call (see
    :meth:`~repro.core.memory.MemoryController.jitter_batch`) folded
    in charge order.

    No field is derived from the core but the wavelength count the
    plans were compiled for, so a core with installed analog faults
    replays the plan a healthy one does.
    """

    model_id: int
    num_layers: int
    #: Left-fold totals matching ``sum()`` over the per-layer lists the
    #: per-layer walk builds — precomputed because they never change.
    compute_seconds: float
    datapath_seconds: float
    #: Per layer, in DAG order: task name, compute cycles and seconds,
    #: output rows, and which layers charge the 193 ns datapath
    #: constant (first of each parallel group; pooling never does).
    task_names: tuple[str, ...]
    layer_cycles: tuple[int, ...]
    layer_compute_seconds: tuple[float, ...]
    layer_rows: tuple[int, ...]
    datapath_mask: np.ndarray
    #: Memory-touching layers in charge order: ``(task name, streams,
    #: transfer seconds)`` — ``streams`` is False for a cacheable conv
    #: kernel — their layer indices, and the streaming layers' transfer
    #: seconds alone (what every sample after a batch's first reads).
    reads: tuple[tuple[str, bool, float], ...]
    read_layers: tuple[int, ...]
    stream_transfer_s: np.ndarray
    #: Whether any layer needs a matmul-capable core (attention).
    needs_matmul: bool

    @property
    def read_names(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.reads)


class InferenceExecution:
    """Result and cost of executing a full DAG on the datapath.

    ``layers`` — one :class:`LayerExecution` per task — is materialised
    on first access when the execution was served from the compiled
    ledger; the per-layer walk hands its records over directly.
    """

    def __init__(
        self,
        model_id: int,
        model_name: str,
        output_levels: np.ndarray,
        timing: TimingEstimate,
        layers: tuple[LayerExecution, ...] | Callable[[], tuple],
    ) -> None:
        self.model_id = model_id
        self.model_name = model_name
        self.output_levels = output_levels
        self.timing = timing
        self._layers = layers

    @property
    def layers(self) -> tuple[LayerExecution, ...]:
        if callable(self._layers):
            self._layers = self._layers()
        return self._layers

    @property
    def compute_seconds(self) -> float:
        """All computing stages: photonic dot products, adders,
        non-linearities (the paper's "compute latency", Fig 15b)."""
        return self.timing.compute_seconds

    @property
    def datapath_seconds(self) -> float:
        """Digital datapath overhead (the paper's Fig 15c component)."""
        return self.timing.datapath_seconds

    @property
    def memory_seconds(self) -> float:
        return self.timing.memory_seconds

    @property
    def total_seconds(self) -> float:
        return self.timing.total_seconds

    @property
    def prediction(self) -> int:
        """Argmax of the final layer's outputs."""
        return int(np.argmax(self.output_levels))


def _ledger_layers(
    tplan: TimingPlan,
    read_latencies: list[float],
    outputs: list[np.ndarray],
) -> tuple[LayerExecution, ...]:
    """The per-layer records of one replayed request."""
    memory = dict(zip(tplan.read_layers, read_latencies))
    return tuple(
        LayerExecution(
            task_name=tplan.task_names[index],
            output_levels=outputs[index],
            compute_cycles=tplan.layer_cycles[index],
            compute_seconds=tplan.layer_compute_seconds[index],
            datapath_seconds=(
                PER_LAYER_DATAPATH_SECONDS if charged else 0.0
            ),
            memory_seconds=memory.get(index, 0.0),
            rows=tplan.layer_rows[index],
        )
        for index, charged in enumerate(tplan.datapath_mask.tolist())
    )


class LightningDatapath:
    """Cycle-level functional model of Lightning's datapath."""

    def __init__(
        self,
        core: BehavioralCore | PrototypeCore | None = None,
        clock_hz: float = PROTOTYPE_FPGA_CLOCK_MHZ * 1e6,
        samples_per_cycle: int = PROTOTYPE_SAMPLES_PER_CYCLE,
        preamble_pattern: str = PREAMBLE_PATTERN_TESTBED,
        preamble_repeats: int = 10,
        fidelity: str = "fast",
        memory: MemoryController | None = None,
        registers: ControlRegisterFile | None = None,
        seed: int = 0,
    ) -> None:
        if fidelity not in ("fast", "loop", "device"):
            raise ValueError("fidelity must be 'fast', 'loop', or 'device'")
        if clock_hz <= 0:
            raise ValueError("clock frequency must be positive")
        self.core = core if core is not None else BehavioralCore()
        self.clock_hz = clock_hz
        self.samples_per_cycle = samples_per_cycle
        self.preamble_pattern = preamble_pattern
        self.preamble_repeats = preamble_repeats
        self.fidelity = fidelity
        self.registers = (
            registers if registers is not None else ControlRegisterFile()
        )
        self.loader = DAGConfigurationLoader(self.registers)
        self.memory = memory if memory is not None else MemoryController()
        self.adder_tree = IntraCycleAdderTree(num_lanes=samples_per_cycle)
        self._rng = np.random.default_rng(seed)
        self._sign_cache: dict[tuple[int, str], list[SignSeparatedRow]] = {}
        self._plans: dict[int, ModelPlan] = {}
        self._timing_plans: dict[int, TimingPlan] = {}

    # ------------------------------------------------------------------
    # Model management
    # ------------------------------------------------------------------
    @property
    def num_wavelengths(self) -> int:
        return self.core.architecture.accumulation_wavelengths

    def register_model(
        self, dag: ComputationDAG, plan: ModelPlan | None = None
    ) -> None:
        """Register a DAG, stage its parameters in DRAM, compile plans.

        On the compiled fast path every task is lowered to its
        :class:`~repro.core.plans.ExecutionPlan` here, once, so serving
        replays cached gather maps and stacked operands instead of
        re-deriving them per request.  ``plan`` lets a caller adopt an
        already-compiled :class:`~repro.core.plans.ModelPlan` (e.g. one
        rebuilt around shared-memory views in a worker process) instead
        of compiling — the geometry must match this datapath's.
        """
        self.loader.register_model(dag)
        self.memory.store_model(
            dag.model_id,
            {
                task.name: task.weights_levels
                for task in dag.tasks
                if task.weights_levels is not None
            },
        )
        if self.fidelity == "fast":
            if plan is not None:
                if plan.geometry != self.plan_geometry:
                    raise ValueError(
                        "adopted plan was compiled for a different "
                        "datapath geometry"
                    )
                self._plans[dag.model_id] = plan
            else:
                self._plans[dag.model_id] = self._compile(dag)
            self._timing_plans[dag.model_id] = self._compile_timing(
                dag, self._plans[dag.model_id]
            )

    def unregister_model(self, model_id: int) -> None:
        """Remove one model: DAG, compiled plan, sign caches.

        The model's DRAM image is left in place — the memory
        controller models a log-structured store with no reclamation,
        and a stale image is unreachable once the loader forgets the
        DAG.  Re-registering the same id later simply stores a fresh
        image.
        """
        self.loader.unregister_model(model_id)
        self._plans.pop(model_id, None)
        self._timing_plans.pop(model_id, None)
        for key in [k for k in self._sign_cache if k[0] == model_id]:
            del self._sign_cache[key]

    @property
    def plan_geometry(self) -> PlanGeometry:
        """The geometry compiled plans on this datapath are keyed by."""
        return PlanGeometry(
            num_wavelengths=self.num_wavelengths,
            samples_per_cycle=self.samples_per_cycle,
            preamble_repeats=self.preamble_repeats,
        )

    def _compile(self, dag: ComputationDAG) -> ModelPlan:
        """Compile one DAG against this datapath's geometry."""
        return compile_model(
            dag,
            self.plan_geometry,
            rows_for=lambda t: self._sign_separated(dag, t),
        )

    def _plan_for(self, dag: ComputationDAG) -> ModelPlan:
        """The model's compiled plan, rebuilt lazily if invalidated."""
        plan = self._plans.get(dag.model_id)
        if plan is None:
            plan = self._compile(dag)
            self._plans[dag.model_id] = plan
        return plan

    def invalidate_plans(self, model_id: int | None = None) -> None:
        """Drop compiled plans (all models, or one); the next request
        recompiles.  Nothing in serving needs it — no compiled constant
        reads the core's calibration state, so a quarantine or re-lock
        keeps its plans — but it resets ``plan_stats()``'s replays, and
        tests use it to prove a recompile changes nothing.
        """
        if model_id is None:
            self._plans.clear()
            self._timing_plans.clear()
        else:
            self._plans.pop(model_id, None)
            self._timing_plans.pop(model_id, None)

    def timing_plan(self, model_id: int) -> TimingPlan | None:
        """The cached dry-run constants for one model, if compiled.

        ``None`` only between an invalidation and the next request.
        """
        return self._timing_plans.get(model_id)

    def model_plan(self, model_id: int) -> ModelPlan | None:
        """The compiled plan for one model, if the fast path built it.

        The serving layer uses this to publish a deployed model's
        compiled state into shared memory for worker processes.
        """
        return self._plans.get(model_id)

    def plan_stats(self) -> dict[int, dict[str, int]]:
        """Per-model plan-cache statistics (tasks compiled, replays)."""
        return {
            model_id: {"tasks": plan.num_tasks, "replays": plan.replays}
            for model_id, plan in self._plans.items()
        }

    def adopt_sign_separation(
        self, donor: "LightningDatapath", model_id: int
    ) -> None:
        """Copy a donor's cached sign separations for one model.

        Sign-separated rows depend only on the weights and the
        wavelength count, so datapaths sharing a plan geometry can
        share the offline phase's output.  A cluster deploying one DAG
        across many same-architecture cores adopts the first core's
        rows on the rest, which also keeps a lazy recompile (after
        :meth:`invalidate_plans`) from redoing the separation.
        """
        if donor.num_wavelengths != self.num_wavelengths:
            raise ValueError(
                "sign separations are keyed by wavelength count; the "
                "donor datapath's does not match"
            )
        for key, rows in donor._sign_cache.items():
            if key[0] == model_id:
                self._sign_cache[key] = rows

    def _sign_separated(
        self, dag: ComputationDAG, task: LayerTask
    ) -> list[SignSeparatedRow]:
        """Offline sign separation, computed once per task and cached."""
        key = (dag.model_id, task.name)
        if key not in self._sign_cache:
            self._sign_cache[key] = [
                sign_separate_row(row, self.num_wavelengths)
                for row in task.weights_levels
            ]
        return self._sign_cache[key]

    # ------------------------------------------------------------------
    # Row reduction paths
    # ------------------------------------------------------------------
    def _row_operands(
        self, row: SignSeparatedRow, activations: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gather activation and magnitude streams for one output row.

        Padding positions (``order == -1``) contribute zero activations.
        """
        gathered = np.where(
            row.order >= 0, activations[np.clip(row.order, 0, None)], 0.0
        )
        return gathered, row.magnitudes

    def _reduce_row_fast(
        self, row: SignSeparatedRow, activations: np.ndarray
    ) -> float:
        """Vectorized equivalent of the device path's reduction.

        A ``row_granular_noise`` core takes one draw for the row's
        signed sum — the call a compiled ``DensePlan`` makes for the
        whole layer, so loop and plan consume the same stream.
        """
        a_levels, b_levels = self._row_operands(row, activations)
        n = self.num_wavelengths
        a_pairs, b_pairs = a_levels.reshape(-1, n), b_levels.reshape(-1, n)
        if getattr(self.core, "row_granular_noise", False):
            return self.core.accumulate_signed(
                a_pairs, b_pairs, row.group_signs
            )
        partials = self.core.accumulate(a_pairs, b_pairs)
        return float(np.sum(row.group_signs * partials))

    def _reduce_row_device(
        self, row: SignSeparatedRow, activations: np.ndarray
    ) -> float:
        """Full framing path: preamble, ADC windows, detection, adders."""
        a_levels, b_levels = self._row_operands(row, activations)
        n = self.num_wavelengths
        partials = self.core.accumulate(
            a_levels.reshape(-1, n), b_levels.reshape(-1, n)
        )
        # The preamble travels the analog path too: H on both modulators
        # reads back ~full scale, L reads ~zero.
        preamble_out = add_preamble(
            np.zeros(0),
            self.preamble_pattern,
            self.preamble_repeats,
            high=255,
            low=0,
        ).astype(np.float64)
        stream = np.concatenate([preamble_out, np.clip(partials, 0, None)])
        offset = int(self._rng.integers(0, self.samples_per_cycle))
        block = self.samples_per_cycle
        total = offset + len(stream)
        padded = np.zeros(((total + block - 1) // block) * block)
        padded[offset : offset + len(stream)] = stream
        windows = padded.reshape(-1, block)
        detector = PreambleDetector(
            self.preamble_pattern, self.preamble_repeats
        )
        data = detector.extract_data(windows, num_samples=len(partials))
        # Sign stream: one control bit per photonic partial result.
        adder = CrossCycleAdderSubtractor(
            num_lanes=block, registers=ControlRegisterFile()
        )
        adder.configure(len(data) * n, n)
        lanes = adder.accumulate_stream(data, row.group_signs)
        return self.adder_tree.reduce(lanes)

    def _row_cycles(self, row: SignSeparatedRow) -> int:
        """Digital clock cycles to stream and reduce one output row."""
        stream_cycles = math.ceil(row.num_steps / self.samples_per_cycle)
        return self.preamble_repeats + stream_cycles

    # ------------------------------------------------------------------
    # Layer / DAG execution
    # ------------------------------------------------------------------
    def execute_layer(
        self,
        dag: ComputationDAG,
        layer_index: int,
        activations: np.ndarray,
    ) -> LayerExecution:
        """Run one DAG task over the photonic-electronic pipeline."""
        task = self.loader.configure_layer(
            dag, layer_index, self.num_wavelengths
        )
        activations = np.asarray(activations, dtype=np.float64).ravel()
        check_activations(task.name, task.input_size, activations, True)
        is_last = layer_index == dag.num_layers - 1
        if self.fidelity == "fast":
            return self._execute_plan(dag, task, activations, is_last)
        if task.kind == "dense":
            return self._execute_dense(dag, task, activations, is_last)
        if task.kind == "conv":
            return self._execute_conv(dag, task, activations, is_last)
        if task.kind == "attention":
            return self._execute_attention(dag, task, activations, is_last)
        return self._execute_pool(task, activations)

    def _execute_plan(
        self,
        dag: ComputationDAG,
        task: LayerTask,
        activations: np.ndarray,
        is_last: bool,
    ) -> LayerExecution:
        """Replay one task's compiled plan (the serving fast path).

        The memory-controller calls are identical to the per-row path —
        they carry both the DRAM cycle ledger and the weight-jitter RNG
        stream — and the plan charges the identical stream-cycle count,
        so only the Python-side reduction work changes.
        """
        plan = self._plan_for(dag).plan(task.name)
        if task.kind == "maxpool":
            cycles = plan.compute_cycles
            return LayerExecution(
                task_name=task.name,
                output_levels=plan.execute(self.core, activations),
                compute_cycles=cycles,
                compute_seconds=cycles / self.clock_hz,
                datapath_seconds=0.0,
                memory_seconds=0.0,
                rows=0,
            )
        if task.kind == "attention":
            self._require_matmul()
        if task.kind == "conv":
            _, memory_seconds = self.memory.load_kernel(
                dag.model_id, task.name
            )
        else:
            _, memory_seconds = self.memory.stream_weights(
                dag.model_id, task.name
            )
        cycles = self._layer_cycles(plan)
        return LayerExecution(
            task_name=task.name,
            output_levels=plan.finish(
                plan.execute(self.core, activations), not is_last
            ),
            compute_cycles=cycles,
            compute_seconds=cycles / self.clock_hz,
            datapath_seconds=PER_LAYER_DATAPATH_SECONDS,
            memory_seconds=memory_seconds,
            rows=plan.rows,
        )

    def _layer_cycles(self, plan: ExecutionPlan) -> int:
        """A weighted layer's compute cycles: stream, adder tree,
        non-linearity."""
        return (
            plan.stream_cycles
            + self.adder_tree.latency_cycles
            + plan.nonlinear.latency_cycles
        )

    def _require_matmul(self) -> None:
        if not supports_matmul(self.core):
            raise ValueError(
                "attention tasks require a behavioral core (device-"
                "fidelity attention streaming is not implemented)"
            )

    def _finish_layer(
        self,
        task: LayerTask,
        raw: np.ndarray,
        is_last: bool,
        stream_cycles: int,
        memory_seconds: float,
        rows: int,
    ) -> LayerExecution:
        """The per-row paths' tail: non-linearity, requantization,
        cycle ledger."""
        nonlinear = nonlinear_module(task.nonlinearity)
        cycles = (
            stream_cycles
            + self.adder_tree.latency_cycles
            + nonlinear.latency_cycles
        )
        return LayerExecution(
            task_name=task.name,
            output_levels=finish_output(
                raw, nonlinear, 1.0 if is_last else task.requant_divisor
            ),
            compute_cycles=cycles,
            compute_seconds=cycles / self.clock_hz,
            datapath_seconds=PER_LAYER_DATAPATH_SECONDS,
            memory_seconds=memory_seconds,
            rows=rows,
        )

    def _execute_dense(
        self,
        dag: ComputationDAG,
        task: LayerTask,
        activations: np.ndarray,
        is_last: bool,
    ) -> LayerExecution:
        # The memory controller streams this layer's weights; the first
        # access fills the pipeline, the back-pressure buffer hides the
        # rest behind compute.
        _, memory_seconds = self.memory.stream_weights(
            dag.model_id, task.name
        )
        rows = self._sign_separated(dag, task)
        reduce = (
            self._reduce_row_device
            if self.fidelity == "device"
            else self._reduce_row_fast
        )
        raw = np.array([reduce(row, activations) for row in rows])
        if task.bias_levels is not None:
            raw = raw + task.bias_levels
        stream_cycles = sum(self._row_cycles(row) for row in rows)
        return self._finish_layer(
            task, raw, is_last, stream_cycles, memory_seconds, len(rows)
        )

    def _execute_conv(
        self,
        dag: ComputationDAG,
        task: LayerTask,
        activations: np.ndarray,
        is_last: bool,
    ) -> LayerExecution:
        """A convolution layer: kernel rows reused across positions.

        The kernel is fetched once via the memory controller's register
        file cache (§4 step 3); each of the ``out_channels x positions``
        dot products is one photonic vector reduction.  Outputs are
        emitted channel-major (NCHW flattening) so downstream conv and
        pool tasks can re-tile them.
        """
        conv = task.conv
        assert conv is not None
        _, memory_seconds = self.memory.load_kernel(
            dag.model_id, task.name
        )
        patches = gather_patches(activations, conv)
        rows = self._sign_separated(dag, task)  # one per output channel
        if self.fidelity == "device":
            raw = np.empty((conv.positions, conv.out_channels))
            for p in range(conv.positions):
                for oc, row in enumerate(rows):
                    raw[p, oc] = self._reduce_row_device(row, patches[p])
        elif supports_matmul(self.core):
            # The sign-separated per-row reduction equals the signed
            # dot product exactly, so the whole layer vectorizes as one
            # noisy matmul on the behavioral core.
            assert task.weights_levels is not None
            raw = self.core.matmul(patches, task.weights_levels.T)
        else:
            # Device-accurate cores reduce row by row.
            raw = np.empty((conv.positions, conv.out_channels))
            for p in range(conv.positions):
                for oc, row in enumerate(rows):
                    raw[p, oc] = self._reduce_row_fast(row, patches[p])
        if task.bias_levels is not None:
            raw = raw + task.bias_levels  # broadcast per out-channel
        raw = raw.T.ravel()  # channel-major (NCHW) flattening
        per_row_cycles = sum(self._row_cycles(row) for row in rows)
        stream_cycles = per_row_cycles * conv.positions
        return self._finish_layer(
            task,
            raw,
            is_last,
            stream_cycles,
            memory_seconds,
            conv.out_channels * conv.positions,
        )

    def _execute_attention(
        self,
        dag: ComputationDAG,
        task: LayerTask,
        activations: np.ndarray,
        is_last: bool,
    ) -> LayerExecution:
        """Self-attention: four static projections plus two
        dynamic-dynamic photonic products (§4's attention template).

        The score and context matmuls multiply two *runtime* streams —
        which the photonic primitive supports natively, since both
        modulators are DAC-driven; only the memory controller's role
        differs from weight-static layers.  The digital softmax runs on
        the real logit scale via the task's calibrated ``score_scale``.
        """
        att = task.attention
        assert att is not None
        self._require_matmul()
        _, memory_seconds = self.memory.stream_weights(
            dag.model_id, task.name
        )
        d = att.d_model
        weights = task.weights_levels
        assert weights is not None
        wq, wk = weights[0:d], weights[d : 2 * d]
        wv, wo = weights[2 * d : 3 * d], weights[3 * d : 4 * d]
        tokens = activations.reshape(att.seq_len, d)
        q = self.core.matmul(tokens, wq.T)
        k = self.core.matmul(tokens, wk.T)
        v = self.core.matmul(tokens, wv.T)
        scores = self.core.matmul(q, k.T) * att.score_scale
        shifted = scores - scores.max(axis=-1, keepdims=True)
        exps = np.exp(shifted)
        attn = exps / exps.sum(axis=-1, keepdims=True)
        # The attention weights are non-negative [0, 1] values: they ride
        # the photonic core as levels directly.
        context = self.core.matmul(attn * 255.0, v)
        raw = self.core.matmul(context, wo.T).ravel()

        def row_cost(length: int) -> int:
            steps = math.ceil(length / self.num_wavelengths)
            return self.preamble_repeats + math.ceil(
                steps / self.samples_per_cycle
            )

        stream_cycles = (
            3 * att.seq_len * row_cost(d)  # Q, K, V projections
            + att.seq_len * row_cost(d)  # score rows
            + att.seq_len * row_cost(att.seq_len)  # context rows
            + att.seq_len * row_cost(d)  # output projection
        )
        # The softmax pipelines once per score row.
        stream_cycles += att.seq_len * 8
        return self._finish_layer(
            task,
            raw,
            is_last,
            stream_cycles,
            memory_seconds,
            6 * att.seq_len,
        )

    def _execute_pool(
        self, task: LayerTask, activations: np.ndarray
    ) -> LayerExecution:
        """Max pooling: a pipeline-parallel digital stage.

        Pooling needs neither photonics nor weights; it is folded into
        the digital pipeline of the preceding layer, so it contributes
        comparator cycles (``samples_per_cycle`` comparisons per clock)
        but no per-layer datapath overhead.
        """
        pool = task.pool
        assert pool is not None
        image = activations.reshape(pool.channels, pool.height, pool.width)
        windows = np.lib.stride_tricks.sliding_window_view(
            image, (pool.kernel, pool.kernel), axis=(1, 2)
        )[:, :: pool.effective_stride, :: pool.effective_stride]
        pooled = windows.max(axis=(-2, -1))
        comparisons = task.output_size * (pool.kernel * pool.kernel - 1)
        cycles = max(
            1, math.ceil(comparisons / self.samples_per_cycle)
        )
        return LayerExecution(
            task_name=task.name,
            output_levels=pooled.ravel(),
            compute_cycles=cycles,
            compute_seconds=cycles / self.clock_hz,
            datapath_seconds=0.0,
            memory_seconds=0.0,
            rows=0,
        )

    def execute(
        self, model_id: int, input_levels: np.ndarray
    ) -> InferenceExecution:
        """Serve one inference request end to end on the datapath.

        ``input_levels`` are the query's activation levels (0..255).
        Layers execute in DAG order; tasks in the same parallel group
        share their datapath overhead (Appendix F).

        The compiled fast path runs a request as two straight-line
        programs, each once: the model's forward program computes the
        numerics (validating the input before anything is charged) and
        the :class:`TimingPlan` replays the ledger — same counters,
        same DRAM reads and jitter draws, same register end state as
        :meth:`execute_layers`, which the other fidelities walk.
        """
        if self._walks_layers():
            return self.execute_layers(model_id, input_levels)
        dag, plan_model, tplan = self._compiled(model_id)
        outputs = plan_model.forward(self.core, input_levels)
        timing, read_latencies = self._replay_ledger(dag, plan_model, tplan)
        return InferenceExecution(
            dag.model_id,
            dag.name,
            outputs[-1],
            timing,
            functools.partial(_ledger_layers, tplan, read_latencies, outputs),
        )

    def execute_layers(
        self, model_id: int, input_levels: np.ndarray
    ) -> InferenceExecution:
        """Serve one request by walking :meth:`execute_layer`.

        The per-layer instrument: every task configures its registers,
        fetches its weights and reports its own
        :class:`LayerExecution`.  ``fidelity="loop"``/``"device"``
        have no other way to run, :class:`~repro.core.trace.DatapathTracer`
        walks it on any fidelity for the complete register and layer
        event stream, and the compiled path is tested against it.
        """
        dag = self.loader.load(model_id)
        if self.fidelity == "fast":
            self._plan_for(dag).replays += 1
        activations = np.asarray(input_levels, dtype=np.float64).ravel()
        layer_records: list[LayerExecution] = []
        seen_groups: set[str] = set()
        for index, task in enumerate(dag.tasks):
            record = self.execute_layer(dag, index, activations)
            if task.parallel_group is not None:
                if task.parallel_group in seen_groups:
                    record = dataclasses.replace(
                        record, datapath_seconds=0.0
                    )
                else:
                    seen_groups.add(task.parallel_group)
            layer_records.append(record)
            activations = record.output_levels
        return InferenceExecution(
            dag.model_id,
            dag.name,
            layer_records[-1].output_levels,
            TimingEstimate(
                compute_seconds=sum(r.compute_seconds for r in layer_records),
                datapath_seconds=sum(
                    r.datapath_seconds for r in layer_records
                ),
                memory_seconds=sum(r.memory_seconds for r in layer_records),
            ),
            tuple(layer_records),
        )

    def forward(self, model_id: int, input_levels: np.ndarray) -> np.ndarray:
        """One request's output levels and nothing else.

        No registers, no DRAM, no counters: the numerics half of
        :meth:`execute`, whose ledger half is :meth:`execute_timing`.
        """
        self._require_fast()
        plan_model = self._plan_for(self.loader.dag(model_id))
        return plan_model.forward(self.core, input_levels)[-1]

    @property
    def defers_numerics(self) -> bool:
        """Whether a request's numerics may run later than its ledger.

        True when the forward program tapes this core's noise (a plain
        behavioural core with Gaussian or no noise, on the compiled
        path): then :meth:`forward_keyed` is a function of the plan,
        the levels, the key and the core's seed and noise model alone
        — no clock, no stream position — so a serving loop can charge
        a dispatch now and evaluate it with others, in one block.
        """
        return self.fidelity == "fast" and tape_law(self.core) is not None

    def check_request(self, model_id: int, levels: np.ndarray) -> None:
        """Raise the ``ValueError`` :meth:`execute` would for a request
        (or block of requests) of the wrong length or with levels
        outside 0..255 — without charging or drawing anything."""
        first = self.loader.dag(model_id).tasks[0]
        check_activations(
            first.name, first.input_size, np.asarray(levels), True
        )

    def forward_keyed(
        self,
        model_id: int,
        block: np.ndarray,
        keyed_rows: Sequence[tuple[tuple[int, ...], int]],
    ) -> np.ndarray:
        """Output levels of a ``(B, n)`` block of requests whose noise
        is keyed: ``keyed_rows`` lists ``(key, rows)`` in block order,
        and each group draws from the core's
        :meth:`~repro.photonics.core.BehavioralCore.noise_stream` for
        its key, never from the core's own stream.  Only a core that
        :attr:`defers_numerics` has one.
        """
        self._require_fast()
        plan_model = self._plan_for(self.loader.dag(model_id))
        streams = [
            (self.core.noise_stream(*key), rows) for key, rows in keyed_rows
        ]
        return plan_model.forward_block(self.core, block, streams)[-1]

    def row_bytes(self, model_id: int) -> int:
        """Bytes one of a model's requests keeps live in a forward
        block (its draws and its widest task's operands): what sizes
        the blocks an executor cuts a backlog into."""
        return self._plan_for(self.loader.dag(model_id)).row_bytes

    def execute_batch(
        self, model_id: int, batch_levels: np.ndarray
    ) -> BatchExecution:
        """Serve a batch of queries with photonic weight broadcasting.

        The core's architecture defines the hardware batch width ``B``
        (Appendix E): the weights are encoded once per pass and split
        optically to ``B`` input-modulator lanes, so ``ceil(batch / B)``
        passes serve the whole batch.  The rows run through the forward
        program as one block, so outputs are the bytes per-sample
        :meth:`execute` calls produce from the same noise-stream
        position; only the cycle accounting differs: every sample
        advances the counters and the memory RNG, one pipeline pass's
        cost times the pass count is charged.
        """
        dag = self.loader.dag(model_id)
        batch_levels = np.atleast_2d(
            np.asarray(batch_levels, dtype=np.float64)
        )
        batch = batch_levels.shape[0]
        if batch < 1:
            raise ValueError("a batch needs at least one query")
        hardware_batch = self.core.architecture.batch_size
        passes = math.ceil(batch / hardware_batch)
        if self._walks_layers():
            executions = [
                self.execute_layers(model_id, row) for row in batch_levels
            ]
            outputs = np.stack(
                [execution.output_levels for execution in executions]
            )
            first = executions[0].timing
        else:
            _, plan_model, tplan = self._compiled(model_id)
            outputs = plan_model.forward_block(self.core, batch_levels)[-1]
            first, _ = self._replay_ledger(dag, plan_model, tplan, batch)
        timing = first.repeated(passes)
        return BatchExecution(
            model_id=dag.model_id,
            model_name=dag.name,
            output_levels=outputs,
            batch=batch,
            hardware_batch=hardware_batch,
            passes=passes,
            compute_seconds=timing.compute_seconds,
            datapath_seconds=timing.datapath_seconds,
            memory_seconds=timing.memory_seconds,
        )

    # ------------------------------------------------------------------
    # The compiled ledger (serving, and process-parallel dry-runs)
    # ------------------------------------------------------------------
    def _require_fast(self) -> None:
        if self.fidelity != "fast":
            raise ValueError(
                "timing dry-runs require the compiled fast path "
                "(fidelity='fast')"
            )

    def _walks_layers(self) -> bool:
        """Whether requests take :meth:`execute_layers`, not the
        compiled programs: the fidelity alone decides."""
        return self.fidelity != "fast"

    def _compile_timing(
        self, dag: ComputationDAG, plan_model: ModelPlan
    ) -> TimingPlan:
        """Freeze one model's ledger constants.

        Everything the per-layer walk recomputes per request that does
        not actually vary — per-layer cycle counts, the
        parallel-group-deduped datapath charges, each memory-touching
        layer's transfer time from its resident byte count — is folded
        here, once, in the walk's exact summation order.
        """
        cycles: list[int] = []
        rows: list[int] = []
        datapath_mask: list[bool] = []
        seen_groups: set[str] = set()
        reads: list[tuple[str, bool, float]] = []
        read_layers: list[int] = []
        needs_matmul = False
        bandwidth = self.memory.dram.bandwidth_gbps
        for index, task in enumerate(dag.tasks):
            plan = plan_model.plan(task.name)
            rows.append(plan.rows)
            if task.kind == "maxpool":
                cycles.append(plan.compute_cycles)
                charged = False
            else:
                if task.kind == "attention":
                    needs_matmul = True
                cycles.append(self._layer_cycles(plan))
                charged = True
                data = self.memory.peek(dag.model_id, task.name)
                read_layers.append(index)
                reads.append((
                    task.name,
                    task.kind != "conv",
                    data.nbytes * 8 / (bandwidth * 1e9),
                ))
            if task.parallel_group is not None:
                if task.parallel_group in seen_groups:
                    charged = False
                else:
                    seen_groups.add(task.parallel_group)
            datapath_mask.append(charged)
        compute = [c / self.clock_hz for c in cycles]
        return TimingPlan(
            model_id=dag.model_id,
            num_layers=dag.num_layers,
            compute_seconds=sum(compute),
            datapath_seconds=sum(
                PER_LAYER_DATAPATH_SECONDS if charged else 0.0
                for charged in datapath_mask
            ),
            task_names=tuple(task.name for task in dag.tasks),
            layer_cycles=tuple(cycles),
            layer_compute_seconds=tuple(compute),
            layer_rows=tuple(rows),
            datapath_mask=np.asarray(datapath_mask, dtype=bool),
            reads=tuple(reads),
            read_layers=tuple(read_layers),
            stream_transfer_s=np.array(
                [transfer for _, streams, transfer in reads if streams],
                dtype=np.float64,
            ),
            needs_matmul=needs_matmul,
        )

    def _compiled(
        self, model_id: int
    ) -> tuple[ComputationDAG, ModelPlan, TimingPlan]:
        """A model's DAG and both compiled programs (rebuilt lazily if
        invalidated), checked against the core — charging nothing."""
        dag = self.loader.dag(model_id)
        plan_model = self._plan_for(dag)
        tplan = self._timing_plans.get(model_id)
        if tplan is None:
            tplan = self._compile_timing(dag, plan_model)
            self._timing_plans[model_id] = tplan
        if tplan.needs_matmul:
            self._require_matmul()
        return dag, plan_model, tplan

    def _replay_ledger(
        self,
        dag: ComputationDAG,
        plan_model: ModelPlan,
        tplan: TimingPlan,
        samples: int = 1,
    ) -> tuple[TimingEstimate, list[float]]:
        """Charge ``samples`` requests' ledger off the timing plan.

        Exactly what that many :meth:`execute_layers` walks charge —
        same loader and replay counters, same register end state, same
        DRAM reads, hits, and jitter draws in the same order.  Returns
        the first sample's pipeline cost (the only one a batch is
        billed, per pass) and its per-read exposed latencies.

        Sample 0 reads every streaming layer plus every not-yet-cached
        conv kernel: a scalar fold, because numpy's fixed costs on a
        handful of reads exceed the loop they would replace.  Later
        samples read only the streaming layers (sample 0 pinned the
        kernels), all at once.
        """
        # The walk loads once per sample and writes every layer's
        # registers in turn; the load, the first layer re-targeted to
        # this core's wavelength count and the last layer's configure
        # leave the identical register end state.
        self.loader.load(dag.model_id)
        self.loader.configure_layer(dag, 0, self.num_wavelengths)
        if dag.num_layers > 1:
            self.loader.configure_layer(
                dag, dag.num_layers - 1, self.num_wavelengths
            )
        plan_model.replays += 1
        read_latencies = self.memory.replay_reads(dag.model_id, tplan.reads)
        if samples > 1:
            # A batch's later samples: the loader and replay counters
            # and the streaming layers' reads (sample 0 pinned every
            # conv kernel, and left the registers where each would).
            plan_model.replays += samples - 1
            self.loader.loads += samples - 1
            streams = tplan.stream_transfer_s
            self.memory.replay_streams(
                streams, samples - 1, len(tplan.reads) - len(streams)
            )
        return (
            TimingEstimate(
                compute_seconds=tplan.compute_seconds,
                datapath_seconds=tplan.datapath_seconds,
                memory_seconds=sum(read_latencies),
            ),
            read_latencies,
        )

    def execute_timing(self, model_id: int) -> TimingEstimate:
        """Charge one request's exact cost without computing outputs.

        The parent process of a worker pool calls this instead of
        :meth:`execute`: it is that method's ledger half — loader,
        plan-replay counters, memory-jitter RNG and registers advance
        exactly as a real execution would, so the virtual-clock event
        loop stays bit-identical to serial serving — while the worker
        runs the forward half.  A degraded core replays the same plan:
        no ledger constant reads the core's analog state.
        """
        self._require_fast()
        return self._replay_ledger(*self._compiled(model_id))[0]

    def execute_batch_timing(
        self, model_id: int, batch: int
    ) -> TimingEstimate:
        """Batch twin of :meth:`execute_timing`.

        The ledger half of :meth:`execute_batch`: every sample advances
        the memory RNG and replay counters, but only sample 0's
        pipeline cost, multiplied by the pass count, is charged.
        """
        if batch < 1:
            raise ValueError("a batch needs at least one query")
        self._require_fast()
        passes = math.ceil(batch / self.core.architecture.batch_size)
        first, _ = self._replay_ledger(*self._compiled(model_id), batch)
        return first.repeated(passes)
