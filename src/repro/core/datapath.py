"""The Lightning datapath: photonic-electronic pipelined execution (§4).

:class:`LightningDatapath` wires together the building blocks of the
paper's Figure 5: the DAG configuration loader writes count-action
targets for each layer, the memory controller streams sign-separated
weights, the synchronous data streamer feeds the photonic core, preamble
detection frames the ADC readout, and the pipeline parallel adder plus
non-linear modules complete each layer digitally.

It is the compiled path and nothing else.  Every task is lowered to its
:class:`~repro.core.plans.ExecutionPlan` once, at
:meth:`~LightningDatapath.register_model`, and because a layer's cost
never depends on its activations (§4 decouples the control plane from
the data plane) a request is two compiled programs run once each: the
model's forward program for the numerics — batch-major, one request
being a block of one row
(:meth:`~repro.core.plans.ModelPlan.forward_block`) — and its
:class:`TimingPlan` for the ledger — on every core: an installed analog
fault changes the values a core returns, never a cycle count, a DRAM
read or a register write.  A registered model always has both programs.

The per-layer instrument sits beside this module, not inside it:
:mod:`repro.core.reference` walks any datapath layer by layer (every
register write, every layer's own record) and holds the
:class:`~repro.core.reference.ReferenceDatapath` that reduces row by
row, optionally through the framing path.  The compiled path is tested
against it; nothing here imports it.

Cycle accounting follows the prototype: a 253.44 MHz digital clock moving
16 samples per cycle per converter (4.055 GS/s analog rate), a preamble
of P pattern repeats per vector, a log2(16)-cycle adder tree, and the
per-layer non-linearity latency, all pipelined so per-vector overheads
appear once per vector and per-layer overheads once per layer.  The
Lightning-specific datapath functions (DACs, ADCs, count-action modules)
cost 193 ns per layer, the constant measured on the prototype (§9).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..photonics.converters import (
    PROTOTYPE_FPGA_CLOCK_MHZ,
    PROTOTYPE_SAMPLES_PER_CYCLE,
)
from ..photonics.core import BehavioralCore, PrototypeCore
from .adders import IntraCycleAdderTree
from .count_action import ControlRegisterFile
from .dag import ComputationDAG, DAGConfigurationLoader
from .memory import MemoryController
from .plans import (
    ModelPlan,
    PlanGeometry,
    check_activations,
    compile_model,
    perturber,
    supports_matmul,
    tape_law,
)
from .preamble import PREAMBLE_PATTERN_TESTBED

__all__ = [
    "LayerExecution",
    "InferenceExecution",
    "BatchExecution",
    "TimingEstimate",
    "TimingPlan",
    "DatapathBase",
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


class TimingEstimate(NamedTuple):
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
            self.compute_seconds * passes,
            self.datapath_seconds * passes,
            self.memory_seconds * passes,
            passes,
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
    bit-identical to per-read charging because a replay's uniforms are
    one RNG call (see
    :meth:`~repro.core.memory.MemoryController.jitter_batch`) folded
    in charge order.  The register writes do not vary at all: the
    plan carries them as one compiled write-back.

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
    #: Memory-touching layers in charge order: their layer indices,
    #: each read's register-file key (a cacheable conv kernel's DRAM
    #: key, ``None`` for a streaming layer) and transfer seconds, the
    #: kernels' keys as a set, and the streaming layers' transfer
    #: seconds alone (what every sample reads once its kernels are
    #: pinned).
    read_layers: tuple[int, ...]
    read_keys: tuple[str | None, ...]
    read_transfer_s: tuple[float, ...]
    kernel_keys: frozenset[str]
    stream_transfer_s: tuple[float, ...]
    #: Whether any layer needs a matmul-capable core (attention).
    needs_matmul: bool
    #: The ``(register, value)`` writes one replay makes, in order: the
    #: loader's ``load``, then the first and the last layer configured
    #: for the plan's wavelength count — the register end state of the
    #: per-layer walk.
    writes: tuple[tuple[str, object], ...]

    @property
    def read_names(self) -> tuple[str, ...]:
        return tuple(self.task_names[index] for index in self.read_layers)

    def sample_latencies(self, streams: list[float]) -> list[float]:
        """One steady-state sample's exposed latency per read: its
        streaming reads' in order, 0.0 for every pinned kernel."""
        if not self.kernel_keys:
            return streams
        rest = iter(streams)
        return [0.0 if key else next(rest) for key in self.read_keys]


def _write_back(
    dag: ComputationDAG, num_wavelengths: int
) -> tuple[tuple[str, object], ...]:
    """The register writes of one ledger replay, recorded off a scratch
    loader making the calls the replay stands for: ``load``, then the
    first and the last layer configured for ``num_wavelengths``."""
    registers = ControlRegisterFile()
    loader = DAGConfigurationLoader(registers)
    loader.register_model(dag)
    with registers.capture() as writes:
        loader.load(dag.model_id)
        loader.configure_layer(dag, 0, num_wavelengths)
        if dag.num_layers > 1:
            loader.configure_layer(dag, dag.num_layers - 1, num_wavelengths)
    return tuple(writes)


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


def require_matmul(core) -> None:
    """Refuse an attention task on a core without whole-layer products."""
    if not supports_matmul(core):
        raise ValueError(
            "attention tasks require a behavioral core (device-"
            "fidelity attention streaming is not implemented)"
        )


class DatapathBase:
    """The parts every datapath is built from, and the models staged
    on them: what :class:`LightningDatapath` and the
    :class:`~repro.core.reference.ReferenceDatapath` beside it share.
    """

    def __init__(
        self,
        core: BehavioralCore | PrototypeCore | None = None,
        clock_hz: float = PROTOTYPE_FPGA_CLOCK_MHZ * 1e6,
        samples_per_cycle: int = PROTOTYPE_SAMPLES_PER_CYCLE,
        preamble_pattern: str = PREAMBLE_PATTERN_TESTBED,
        preamble_repeats: int = 10,
        memory: MemoryController | None = None,
        registers: ControlRegisterFile | None = None,
    ) -> None:
        if clock_hz <= 0:
            raise ValueError("clock frequency must be positive")
        self.core = core if core is not None else BehavioralCore()
        self.clock_hz = clock_hz
        self.samples_per_cycle = samples_per_cycle
        self.preamble_pattern = preamble_pattern
        self.preamble_repeats = preamble_repeats
        self.registers = (
            registers if registers is not None else ControlRegisterFile()
        )
        self.loader = DAGConfigurationLoader(self.registers)
        self.memory = memory if memory is not None else MemoryController()
        self.adder_tree = IntraCycleAdderTree(num_lanes=samples_per_cycle)

    @property
    def num_wavelengths(self) -> int:
        return self.core.architecture.accumulation_wavelengths

    @property
    def plan_geometry(self) -> PlanGeometry:
        """The geometry compiled plans on this datapath are keyed by."""
        return PlanGeometry(
            num_wavelengths=self.num_wavelengths,
            samples_per_cycle=self.samples_per_cycle,
            preamble_repeats=self.preamble_repeats,
        )

    def register_model(self, dag: ComputationDAG) -> None:
        """Register a DAG and stage its parameters in DRAM."""
        self.loader.register_model(dag)
        self.memory.store_model(
            dag.model_id,
            {
                task.name: task.weights_levels
                for task in dag.tasks
                if task.weights_levels is not None
            },
        )

    def unregister_model(self, model_id: int) -> None:
        """Remove one model and everything derived from it.

        Its DRAM image is evicted, so its bytes no longer count against
        capacity, and its pinned conv kernels leave the register file.
        Re-registering the same id later stores a fresh image.
        """
        dag = self.loader.unregister_model(model_id)
        self.memory.evict_model(
            model_id,
            [
                task.name
                for task in dag.tasks
                if task.weights_levels is not None
            ],
        )

    def check_request(self, model_id: int, levels: np.ndarray) -> None:
        """Raise the ``ValueError`` :meth:`execute` would for a request
        (or block of requests) of the wrong length or with levels
        outside 0..255 — without charging or drawing anything.  A
        ``uint8`` block holds levels by its type and is not scanned."""
        first = self.loader.dag(model_id).tasks[0]
        levels = np.asarray(levels)
        check_activations(
            first.name, first.input_size, levels, levels.dtype != np.uint8
        )

    def execute_batch(
        self, model_id: int, batch_levels: np.ndarray
    ) -> BatchExecution:
        """Serve a batch of queries with photonic weight broadcasting.

        The core's architecture defines the hardware batch width ``B``
        (Appendix E): the weights are encoded once per pass and split
        optically to ``B`` input-modulator lanes, so ``ceil(batch / B)``
        passes serve the whole batch.  Outputs are the bytes per-sample
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
        outputs, first = self._serve_block(dag, batch_levels)
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

    def _serve_block(
        self, dag: ComputationDAG, block: np.ndarray
    ) -> tuple[np.ndarray, TimingEstimate]:
        """Every row's output levels, every row's ledger charged, and
        the first row's pipeline cost (what a pass is billed)."""
        raise NotImplementedError


class LightningDatapath(DatapathBase):
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
        """``core`` is the photonic core requests run on (default: a
        :class:`~repro.photonics.core.BehavioralCore`); its
        architecture fixes the wavelength count and the hardware batch.
        ``clock_hz`` turns cycle counts into seconds,
        ``samples_per_cycle`` is the converters' lanes per digital
        clock (also the adder tree's width), and each output row's
        vector is framed by ``preamble_pattern`` repeated
        ``preamble_repeats`` times — the compiled ledger charges the
        repeats; only the reference's framing path sends the pattern.
        ``memory`` and ``registers`` adopt an existing memory
        controller or control-register file in place of fresh ones.

        ``fidelity`` accepts the one value ``"fast"`` and ``seed`` is
        inert — no generator on this class reads it; the core and the
        memory controller carry their own seeds.  Both keywords remain
        because existing callers pass them; the per-row and framing
        paths they once selected and seeded are
        :class:`~repro.core.reference.ReferenceDatapath`.
        """
        if fidelity != "fast":
            raise ValueError(
                f"fidelity must be 'fast', not {fidelity!r}: the per-row "
                "and framing paths are repro.core.reference."
                "ReferenceDatapath"
            )
        super().__init__(
            core,
            clock_hz,
            samples_per_cycle,
            preamble_pattern,
            preamble_repeats,
            memory,
            registers,
        )
        self._plans: dict[int, ModelPlan] = {}
        self._timing_plans: dict[int, TimingPlan] = {}

    # ------------------------------------------------------------------
    # Model management
    # ------------------------------------------------------------------
    def register_model(
        self, dag: ComputationDAG, plan: ModelPlan | None = None
    ) -> None:
        """Register a DAG, stage its parameters in DRAM, compile plans.

        Every task is lowered to its
        :class:`~repro.core.plans.ExecutionPlan` here, once, so serving
        replays cached gather maps and stacked operands instead of
        re-deriving them per request.  ``plan`` lets a caller adopt an
        already-compiled :class:`~repro.core.plans.ModelPlan` (another
        core's :meth:`~repro.core.plans.ModelPlan.replica`) instead of
        compiling — the geometry must match this datapath's.
        """
        if plan is not None and plan.geometry != self.plan_geometry:
            raise ValueError(
                "adopted plan was compiled for a different "
                "datapath geometry"
            )
        super().register_model(dag)
        if plan is None:
            plan = compile_model(dag, self.plan_geometry)
        self._plans[dag.model_id] = plan
        self._timing_plans[dag.model_id] = self._compile_timing(dag, plan)

    def unregister_model(self, model_id: int) -> None:
        super().unregister_model(model_id)
        del self._plans[model_id]
        del self._timing_plans[model_id]

    def timing_plan(self, model_id: int) -> TimingPlan | None:
        """A registered model's ledger constants (``None`` for an
        unregistered id)."""
        return self._timing_plans.get(model_id)

    def model_plan(self, model_id: int) -> ModelPlan | None:
        """A registered model's compiled plan (``None`` for an
        unregistered id).

        The serving layer hands its replicas to the other cores of
        this datapath's geometry.
        """
        return self._plans.get(model_id)

    def plan_stats(self) -> dict[int, dict[str, int]]:
        """Per-model plan-cache statistics (tasks compiled, replays)."""
        return {
            model_id: {"tasks": plan.num_tasks, "replays": plan.replays}
            for model_id, plan in self._plans.items()
        }

    def _plan(self, model_id: int) -> ModelPlan:
        """A registered model's forward program (the loader's
        ``KeyError`` for an unknown id)."""
        self.loader.dag(model_id)
        return self._plans[model_id]

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def execute(
        self, model_id: int, input_levels: np.ndarray
    ) -> InferenceExecution:
        """Serve one inference request end to end on the datapath.

        ``input_levels`` are the query's activation levels (0..255).
        Layers execute in DAG order; tasks in the same parallel group
        share their datapath overhead (Appendix F).

        A request is two straight-line programs, each run once: the
        model's forward program computes the numerics (validating the
        input before anything is charged) and the :class:`TimingPlan`
        replays the ledger — same counters, same DRAM reads and jitter
        draws, same register end state as the per-layer
        :func:`~repro.core.reference.walk`.
        """
        dag, plan_model, tplan = self._compiled(model_id)
        outputs = plan_model.forward(self.core, input_levels)
        timing, read_latencies = self._replay_ledger(plan_model, tplan)
        return InferenceExecution(
            dag.model_id,
            dag.name,
            outputs[-1],
            timing,
            functools.partial(_ledger_layers, tplan, read_latencies, outputs),
        )

    def forward(self, model_id: int, input_levels: np.ndarray) -> np.ndarray:
        """One request's output levels and nothing else.

        No registers, no DRAM, no counters: the numerics half of
        :meth:`execute`, whose ledger half is :meth:`execute_timing`.
        """
        return self._plan(model_id).forward(self.core, input_levels)[-1]

    @property
    def defers_numerics(self) -> bool:
        """Whether a request's numerics may run later than its ledger.

        True when the forward program tapes this core's noise (a plain
        behavioural core with Gaussian or no noise, bare or in a fault
        wrapper): then :meth:`forward_keyed` is a function of the plan,
        the levels, the key, the dispatch time and the core's seed,
        noise model and faults alone — no wrapper clock, no stream
        position — so a serving loop can charge a dispatch now and
        evaluate it with others, in one block, as long as it does so
        before the faults change.
        """
        return tape_law(self.core) is not None

    def forward_keyed(
        self,
        model_id: int,
        block: np.ndarray,
        keyed_rows: Sequence[tuple[tuple[int, ...], int]],
        times: Sequence[float] | None = None,
    ) -> np.ndarray:
        """Output levels of a ``(B, n)`` block of requests whose noise
        is keyed: ``keyed_rows`` lists ``(key, rows)`` in block order,
        and each group draws from the core's
        :meth:`~repro.photonics.core.BehavioralCore.noise_stream` for
        its key, never from the core's own stream.  Only a core that
        :attr:`defers_numerics` has one.  The groups' seeds are
        computed in one pass
        (:meth:`~repro.photonics.core.BehavioralCore.keyed_streams`).
        ``times`` gives each group's virtual dispatch time, at which a
        fault wrapper perturbs it (by default the wrapper's clock).
        """
        clock = None
        if times is not None:
            clock = [
                (now_s, rows) for now_s, (_, rows) in zip(times, keyed_rows)
            ]
        return self._plan(model_id).forward_block(
            self.core, block, self.core.keyed_streams(keyed_rows), clock
        )[-1]

    def row_bytes(self, model_id: int) -> int:
        """Bytes one of a model's requests keeps live in a forward
        block on this core (its draws and its widest task's operands):
        what sizes the blocks an executor cuts a backlog into."""
        plan = self._plan(model_id)
        if perturber(self.core) is None:
            return plan.row_bytes
        return plan.readout_row_bytes

    def _serve_block(
        self, dag: ComputationDAG, block: np.ndarray
    ) -> tuple[np.ndarray, TimingEstimate]:
        """The rows run through the forward program as one block."""
        _, plan_model, tplan = self._compiled(dag.model_id)
        outputs = plan_model.forward_block(self.core, block)[-1]
        return outputs, self._replay_ledger(
            plan_model, tplan, len(block)
        )[0]

    # ------------------------------------------------------------------
    # The compiled ledger (serving, and process-parallel dry-runs)
    # ------------------------------------------------------------------
    def _compile_timing(
        self, dag: ComputationDAG, plan_model: ModelPlan
    ) -> TimingPlan:
        """Freeze one model's ledger constants.

        Everything the per-layer :func:`~repro.core.reference.walk`
        recomputes per request that does not actually vary — per-layer
        cycle counts, the parallel-group-deduped datapath charges, each
        memory-touching layer's transfer time from its resident byte
        count — is folded here, once, in the walk's exact summation
        order.
        """
        cycles: list[int] = []
        rows: list[int] = []
        datapath_mask: list[bool] = []
        seen_groups: set[str] = set()
        read_keys: list[str | None] = []
        read_transfer: list[float] = []
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
                # Stream, adder tree, non-linearity.
                cycles.append(
                    plan.stream_cycles
                    + self.adder_tree.latency_cycles
                    + plan.nonlinear.latency_cycles
                )
                charged = True
                data = self.memory.peek(dag.model_id, task.name)
                read_layers.append(index)
                read_keys.append(
                    self.memory.key(dag.model_id, task.name)
                    if task.kind == "conv"
                    else None
                )
                read_transfer.append(data.nbytes * 8 / (bandwidth * 1e9))
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
            read_layers=tuple(read_layers),
            read_keys=tuple(read_keys),
            read_transfer_s=tuple(read_transfer),
            kernel_keys=frozenset(key for key in read_keys if key),
            stream_transfer_s=tuple(
                transfer
                for key, transfer in zip(read_keys, read_transfer)
                if key is None
            ),
            needs_matmul=needs_matmul,
            writes=_write_back(dag, self.num_wavelengths),
        )

    def _compiled(
        self, model_id: int
    ) -> tuple[ComputationDAG, ModelPlan, TimingPlan]:
        """A model's DAG and both compiled programs, checked against
        the core — charging nothing."""
        dag = self.loader.dag(model_id)
        tplan = self._timing_plans[model_id]
        if tplan.needs_matmul:
            require_matmul(self.core)
        return dag, self._plans[model_id], tplan

    def _replay_ledger(
        self,
        plan_model: ModelPlan,
        tplan: TimingPlan,
        samples: int = 1,
    ) -> tuple[TimingEstimate, list[float]]:
        """Charge ``samples`` requests' ledger off the timing plan.

        Exactly what that many per-layer walks
        (:func:`~repro.core.reference.walk`) charge — same loader and
        replay counters, same register end state, same DRAM reads,
        hits, and jitter draws in the same order.  Returns the first
        sample's pipeline cost (the only one a batch is billed, per
        pass) and its per-read exposed latencies.

        The registers take the plan's compiled write-back in one call
        (every sample would leave them where the first does).  Once
        every conv kernel is pinned, each sample reads exactly the
        streaming layers, so all the samples' reads are one jitter
        draw and one plain-float fold; a sample 0 that meets a cold
        kernel charges its reads one by one, pinning it.
        """
        self.registers.write_back(tplan.writes)
        self.loader.loads += samples
        plan_model.replays += samples
        memory = self.memory
        read_latencies = None
        if not memory.pinned(tplan.kernel_keys):
            read_latencies = memory.replay_reads(
                tplan.read_keys, tplan.read_transfer_s
            )
            samples -= 1
        if samples:
            streams = memory.replay_streams(
                tplan.stream_transfer_s, samples, len(tplan.kernel_keys)
            )
            if read_latencies is None:
                read_latencies = tplan.sample_latencies(streams[0])
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
        return self._replay_ledger(*self._compiled(model_id)[1:])[0]

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
        passes = math.ceil(batch / self.core.architecture.batch_size)
        first, _ = self._replay_ledger(
            *self._compiled(model_id)[1:], batch
        )
        return first if passes == 1 else first.repeated(passes)
