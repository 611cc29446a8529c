"""The per-layer reference, beside the compiled datapath (§8).

The paper verifies its RTL against a separate Verilator testbench; this
module is that testbench for
:class:`~repro.core.datapath.LightningDatapath`, which serves a request
as two compiled programs and imports nothing from here.

* :func:`walk` / :func:`walk_layer` serve one request layer by layer on
  *any* datapath: every task configures its registers, reads its
  weights and reports its own :class:`LayerExecution`.  On a compiled
  datapath each layer replays its plan through the core's own entry
  points — the complete register and layer event stream
  :class:`~repro.core.trace.DatapathTracer` records, and the outputs,
  ledger, register end state and stream positions the two programs are
  tested against.
* :class:`ReferenceDatapath` never compiles.  It reduces every output
  row with its own core call — the baseline the equivalence tests and
  the ``repro.perf`` gate's two walk legs compare the compiled path
  against — or, with ``framing=True``, walks every row's samples
  through the framing path: preamble added before the DACs, ADC readout
  windows with a random data-start offset, count-action preamble
  detection, and cycle-by-cycle adder-subtractor ticks (the tests'
  reference for that path, and Figure 17's).

Nothing a serve reaches comes here: a ``Cluster`` refuses a
:class:`ReferenceDatapath` at deploy.  The cycle formulas below are
written out, not shared with :mod:`repro.core.plans`, on purpose — they
are what the plans' copy is checked against.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .adders import CrossCycleAdderSubtractor
from .count_action import ControlRegisterFile
from .dag import (
    ComputationDAG,
    LayerTask,
    SignSeparatedRow,
    sign_separate_row,
)
from .datapath import (
    PER_LAYER_DATAPATH_SECONDS,
    DatapathBase,
    InferenceExecution,
    LayerExecution,
    TimingEstimate,
    require_matmul,
)
from .nonlinear import nonlinear_module
from .plans import (
    ModelPlan,
    check_activations,
    finish_output,
    gather_patches,
    supports_matmul,
)
from .preamble import PreambleDetector, add_preamble

__all__ = ["walk", "walk_layer", "ReferenceDatapath"]


def _compiled_plan(datapath: DatapathBase, model_id: int) -> ModelPlan | None:
    """The compiled plans a walk replays layer by layer — ``None`` on a
    :class:`ReferenceDatapath`, which has none and reduces row by row."""
    if isinstance(datapath, ReferenceDatapath):
        return None
    return datapath.model_plan(model_id)


def walk(
    datapath: DatapathBase, model_id: int, input_levels: np.ndarray
) -> InferenceExecution:
    """Serve one request by walking :func:`walk_layer`.

    The per-layer instrument: every task configures its registers,
    fetches its weights and reports its own :class:`LayerExecution`.
    Tasks in the same parallel group share their datapath overhead
    (Appendix F).
    """
    dag = datapath.loader.load(model_id)
    compiled = _compiled_plan(datapath, model_id)
    if compiled is not None:
        compiled.replays += 1
    activations = np.asarray(input_levels, dtype=np.float64).ravel()
    layer_records: list[LayerExecution] = []
    seen_groups: set[str] = set()
    for index, task in enumerate(dag.tasks):
        record = walk_layer(datapath, dag, index, activations)
        if task.parallel_group is not None:
            if task.parallel_group in seen_groups:
                record = dataclasses.replace(record, datapath_seconds=0.0)
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
            datapath_seconds=sum(r.datapath_seconds for r in layer_records),
            memory_seconds=sum(r.memory_seconds for r in layer_records),
        ),
        tuple(layer_records),
    )


def walk_layer(
    datapath: DatapathBase,
    dag: ComputationDAG,
    layer_index: int,
    activations: np.ndarray,
) -> LayerExecution:
    """Run one DAG task over the photonic-electronic pipeline."""
    task = datapath.loader.configure_layer(
        dag, layer_index, datapath.num_wavelengths
    )
    activations = np.asarray(activations, dtype=np.float64).ravel()
    check_activations(task.name, task.input_size, activations, True)
    requantize = layer_index < dag.num_layers - 1
    # Pooling needs neither photonics nor weights; it is folded into
    # the digital pipeline of the preceding layer, so it contributes
    # comparator cycles but no per-layer datapath overhead.
    weighted = task.kind != "maxpool"
    memory_seconds = 0.0
    if task.kind == "attention":
        require_matmul(datapath.core)
    if weighted:
        # A conv kernel is fetched once via the memory controller's
        # register file cache (§4 step 3).  Every other layer's weights
        # stream: the first access fills the pipeline, the
        # back-pressure buffer hides the rest behind compute.
        read = (
            datapath.memory.load_kernel
            if task.kind == "conv"
            else datapath.memory.stream_weights
        )
        _, memory_seconds = read(dag.model_id, task.name)
    compiled = _compiled_plan(datapath, dag.model_id)
    if compiled is None:
        levels, cycles, rows = datapath._reduce_task(
            dag, task, activations, requantize
        )
    else:
        plan = compiled.plan(task.name)
        levels = plan.finish(
            plan.execute(datapath.core, activations), requantize
        )
        cycles = plan.stream_cycles if weighted else plan.compute_cycles
        rows = plan.rows
    if weighted:
        cycles += (
            datapath.adder_tree.latency_cycles
            + nonlinear_module(task.nonlinearity).latency_cycles
        )
    return LayerExecution(
        task_name=task.name,
        output_levels=levels,
        compute_cycles=cycles,
        compute_seconds=cycles / datapath.clock_hz,
        datapath_seconds=PER_LAYER_DATAPATH_SECONDS if weighted else 0.0,
        memory_seconds=memory_seconds,
        rows=rows,
    )


class ReferenceDatapath(DatapathBase):
    """The datapath that never compiles: every request is a
    :func:`walk`, every output row its own reduction."""

    def __init__(
        self, core=None, framing: bool = False, seed: int = 0, **parts
    ) -> None:
        """``framing`` sends every row through the full framing path
        instead of one core call per row; ``seed`` seeds the ADC
        data-start offsets that path draws.  ``core`` and ``parts``
        (``clock_hz``, ``samples_per_cycle``, ``preamble_pattern``,
        ``preamble_repeats``, ``memory``, ``registers``) are
        :class:`~repro.core.datapath.LightningDatapath`'s.
        """
        super().__init__(core, **parts)
        self.framing = framing
        self._rng = np.random.default_rng(seed)
        self._sign_cache: dict[int, dict[str, list[SignSeparatedRow]]] = {}

    def unregister_model(self, model_id: int) -> None:
        super().unregister_model(model_id)
        self._sign_cache.pop(model_id, None)

    def execute(
        self, model_id: int, input_levels: np.ndarray
    ) -> InferenceExecution:
        """Serve one inference request: a :func:`walk`."""
        return walk(self, model_id, input_levels)

    def _serve_block(
        self, dag: ComputationDAG, block: np.ndarray
    ) -> tuple[np.ndarray, TimingEstimate]:
        executions = [walk(self, dag.model_id, row) for row in block]
        return (
            np.stack([execution.output_levels for execution in executions]),
            executions[0].timing,
        )

    def _sign_separated(
        self, dag: ComputationDAG, task: LayerTask
    ) -> list[SignSeparatedRow]:
        """Offline sign separation, computed once per task and cached."""
        cache = self._sign_cache.setdefault(dag.model_id, {})
        if task.name not in cache:
            cache[task.name] = [
                sign_separate_row(row, self.num_wavelengths)
                for row in task.weights_levels
            ]
        return cache[task.name]

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

    def _reduce_row(
        self, row: SignSeparatedRow, activations: np.ndarray
    ) -> float:
        """Vectorized equivalent of the framing path's reduction.

        A ``row_granular_noise`` core takes one draw for the row's
        signed sum — the call a compiled ``DensePlan`` makes for the
        whole layer, so reference and plan consume the same stream.
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

    def _reduce_row_framed(
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
    # Layers, row by row
    # ------------------------------------------------------------------
    def _reduce_task(
        self,
        dag: ComputationDAG,
        task: LayerTask,
        activations: np.ndarray,
        requantize: bool,
    ) -> tuple[np.ndarray, int, int]:
        """One task's output levels, its stream cycles (pooling: its
        comparator cycles) and the output rows it reduced."""
        if task.kind == "maxpool":
            return self._pool(task, activations)
        reduce = {
            "dense": self._dense,
            "conv": self._conv,
            "attention": self._attention,
        }[task.kind]
        raw, stream_cycles, rows = reduce(dag, task, activations)
        levels = finish_output(
            raw,
            nonlinear_module(task.nonlinearity),
            task.requant_divisor if requantize else 1.0,
        )
        return levels, stream_cycles, rows

    def _dense(
        self, dag: ComputationDAG, task: LayerTask, activations: np.ndarray
    ) -> tuple[np.ndarray, int, int]:
        rows = self._sign_separated(dag, task)
        reduce = self._reduce_row_framed if self.framing else self._reduce_row
        raw = np.array([reduce(row, activations) for row in rows])
        if task.bias_levels is not None:
            raw = raw + task.bias_levels
        return raw, sum(self._row_cycles(row) for row in rows), len(rows)

    def _conv(
        self, dag: ComputationDAG, task: LayerTask, activations: np.ndarray
    ) -> tuple[np.ndarray, int, int]:
        """A convolution layer: kernel rows reused across positions.

        Each of the ``out_channels x positions`` dot products is one
        photonic vector reduction.  Outputs are emitted channel-major
        (NCHW flattening) so downstream conv and pool tasks can re-tile
        them.
        """
        conv = task.conv
        assert conv is not None
        patches = gather_patches(activations, conv)
        rows = self._sign_separated(dag, task)  # one per output channel
        if not self.framing and supports_matmul(self.core):
            # The sign-separated per-row reduction equals the signed
            # dot product exactly, so the whole layer vectorizes as one
            # noisy matmul on the behavioral core.
            assert task.weights_levels is not None
            raw = self.core.matmul(patches, task.weights_levels.T)
        else:
            # Framing, and device-accurate cores, reduce row by row.
            reduce = (
                self._reduce_row_framed if self.framing else self._reduce_row
            )
            raw = np.empty((conv.positions, conv.out_channels))
            for p in range(conv.positions):
                for oc, row in enumerate(rows):
                    raw[p, oc] = reduce(row, patches[p])
        if task.bias_levels is not None:
            raw = raw + task.bias_levels  # broadcast per out-channel
        raw = raw.T.ravel()  # channel-major (NCHW) flattening
        per_row_cycles = sum(self._row_cycles(row) for row in rows)
        return (
            raw,
            per_row_cycles * conv.positions,
            conv.out_channels * conv.positions,
        )

    def _attention(
        self, dag: ComputationDAG, task: LayerTask, activations: np.ndarray
    ) -> tuple[np.ndarray, int, int]:
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
        return raw, stream_cycles, 6 * att.seq_len

    def _pool(
        self, task: LayerTask, activations: np.ndarray
    ) -> tuple[np.ndarray, int, int]:
        """Max pooling: a pipeline-parallel digital stage of
        ``samples_per_cycle`` comparisons per clock."""
        pool = task.pool
        assert pool is not None
        image = activations.reshape(pool.channels, pool.height, pool.width)
        windows = np.lib.stride_tricks.sliding_window_view(
            image, (pool.kernel, pool.kernel), axis=(1, 2)
        )[:, :: pool.effective_stride, :: pool.effective_stride]
        pooled = windows.max(axis=(-2, -1))
        comparisons = task.output_size * (pool.kernel * pool.kernel - 1)
        cycles = max(1, math.ceil(comparisons / self.samples_per_cycle))
        return pooled.ravel(), cycles, 0
