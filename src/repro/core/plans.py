"""Compiled execution plans: compile once, replay many (perf fast path).

The datapath's count-action hardware never stops and goes: once the DAG
loader writes a layer's targets, weights and activations stream through
the photonic core back-to-back.  So that the Python emulator does not
bound serving throughput where the modeled hardware would not, every
:class:`~repro.core.dag.LayerTask` is compiled once, at
:meth:`~repro.core.datapath.LightningDatapath.register_model` time —
the way ENLighten and LiteCON do — into an :class:`ExecutionPlan` that
replays each request as a handful of vectorized numpy operations and
*one* photonic-core call per layer.

Compilation runs per layer, not per row: the offline sign separation
(§5.3 fn. 2) of a ``(rows, k)`` weight matrix is one vectorised pass
(:func:`readout_groups`), and a plan keeps per-layer arrays only — no
per-row Python objects.  What a plan precomputes:

* **Dense** — each row's readout count and net sign, so replay on a
  behavioural core with summable noise is one signed
  ``weights @ activations / 255`` plus one Gaussian per row.
  Cores that must see every readout (fault wrappers, device-accurate
  and accumulate-only cores) replay the rows stacked into a single
  ``(total_steps, N)`` operand block instead — a clipped gather map
  (padding positions index slot 0 and are nulled by their zero
  magnitudes), the magnitude block, the per-step sign bits and the
  ``reduceat`` row boundaries (:func:`readout_operands`, one scatter
  over the layer) — built from the weights on first use: one
  contraction, one noise fill and one ``np.add.reduceat``, no per-row
  Python.
* **Conv** — the im2col gather map for the layer's exact geometry
  (shared process-wide per :class:`~repro.core.dag.ConvShape` via
  :func:`im2col_indices`), plus the transposed kernel matrix, so replay
  is one patch gather and one ``core.matmul``.  Cores without ``matmul``
  (the device-accurate :class:`~repro.photonics.core.PrototypeCore`)
  fall back to a stacked accumulate block over all positions and output
  channels, built from the weights on first use.
* **Attention** — the four projection slices pre-split and transposed,
  and the §4 row-cost table folded into a precomputed cycle count.
* **Pool** — the window geometry and comparator cycle count.

Both lazy blocks derive from the task's weights alone, so every
:meth:`~ModelPlan.replica` of a compiled model shares them, built once,
as it shares the rest of the compiled tasks.

A :class:`ModelPlan` strings the tasks into one **batch-major forward
program**: a ``(B, n)`` block of requests in, every task's ``(B, rows)``
levels out.  Each plan's :meth:`~ExecutionPlan.execute_block` is its
``execute`` over the block — every contraction one stacked
``np.matmul`` (numpy issues one BLAS call per row, the very call the
per-request product makes, so the bytes are equal), every other step
the same ufunc over the block — and the noise comes off a *tape*: on a
plain behavioural core with Gaussian noise each noise site is a
``standard_normal`` fill scaled and shifted elementwise, so a model's
draws are laid out once per noise law and a request's are one fill
that each site takes its slice of.  One request is the program at
``B = 1``.  A fault wrapper around such a core runs the same program:
its dense layers tape one draw per readout (the stacked per-readout
block, over the whole block of requests) and every noisy product is
perturbed in place at its rows' dispatch times.  Cores the tape cannot
stand in for (device-accurate cores, other noise models, overridden
noise sites) walk their rows one by one through ``execute``, as
:func:`repro.core.reference.walk` does on a compiled datapath.

Every plan also precomputes the task's stream cycles
(:meth:`PlanGeometry.step_cycles`, the compiled ledger's one copy of
the formula), checked against the copy
:class:`~repro.core.reference.ReferenceDatapath` keeps, so Figure
15/17/21 cycle accounting is bit for bit the per-row reference's.
Noise semantics are preserved draw-for-draw: a plan issues the same RNG
stream the reference's per-row reduction issues (one Gaussian per
digital output on behavioural cores with summable noise, one per
photonic readout elsewhere, in the same order), so predictions are
reproducible under a fixed seed; the only difference is floating-point
summation order (documented in DESIGN.md).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dag import ComputationDAG, ConvShape, LayerTask
from .nonlinear import NonlinearModule, nonlinear_module


__all__ = [
    "ExecutionPlan",
    "DensePlan",
    "ConvPlan",
    "AttentionPlan",
    "PoolPlan",
    "ModelPlan",
    "PlanGeometry",
    "ReadoutOperands",
    "readout_groups",
    "readout_operands",
    "im2col_indices",
    "clear_im2col_cache",
    "compile_task",
    "compile_model",
    "supports_matmul",
    "tape_law",
]


# ----------------------------------------------------------------------
# Shared im2col index cache (satellite: one map per conv geometry)
# ----------------------------------------------------------------------
_IM2COL_CACHE: dict[ConvShape, np.ndarray] = {}


def im2col_indices(conv: ConvShape) -> np.ndarray:
    """Gather map lowering this conv geometry to patch rows.

    Returns a read-only ``(positions, patch_size)`` int64 array whose
    entries index the *flat* layer input; padded border positions index
    the sentinel slot ``conv.input_size`` (callers gather from a buffer
    one element longer than the input, with the sentinel set to zero).
    Maps are cached process-wide per geometry — ``ConvShape`` is frozen
    and hashable — so the unrolling cost is paid once per (input shape,
    kernel, stride, padding), not once per sample of every request.
    """
    cached = _IM2COL_CACHE.get(conv)
    if cached is not None:
        return cached
    flat = np.arange(conv.input_size, dtype=np.int64).reshape(
        conv.in_channels, conv.height, conv.width
    )
    if conv.padding:
        flat = np.pad(
            flat,
            ((0, 0), (conv.padding, conv.padding),
             (conv.padding, conv.padding)),
            mode="constant",
            constant_values=conv.input_size,
        )
    windows = np.lib.stride_tricks.sliding_window_view(
        flat, (conv.kernel, conv.kernel), axis=(1, 2)
    )[:, :: conv.stride, :: conv.stride]
    indices = np.ascontiguousarray(
        windows.transpose(1, 2, 0, 3, 4).reshape(
            conv.positions, conv.patch_size
        )
    )
    indices.setflags(write=False)
    _IM2COL_CACHE[conv] = indices
    return indices


def clear_im2col_cache() -> None:
    """Drop all cached im2col maps (test isolation hook)."""
    _IM2COL_CACHE.clear()


def gather_patches(activations: np.ndarray, conv: ConvShape) -> np.ndarray:
    """im2col one flat sample into ``(positions, patch_size)`` rows.

    Uses the cached index map; equivalent value-for-value to padding the
    image and sliding a window over it.
    """
    indices = im2col_indices(conv)
    buffer = np.empty(conv.input_size + 1, dtype=np.float64)
    buffer[:-1] = activations
    buffer[-1] = 0.0
    return buffer[indices]


def supports_matmul(core) -> bool:
    """Whether a core natively executes whole-layer matrix products.

    Prefers the core's own :attr:`supports_matmul` declaration (which
    fault wrappers forward) and falls back to duck typing for
    third-party cores.
    """
    declared = getattr(core, "supports_matmul", None)
    if declared is not None:
        return bool(declared)
    return hasattr(core, "matmul")


def finish_output(
    raw: np.ndarray, nonlinear: NonlinearModule, requant_divisor: float
) -> np.ndarray:
    """Non-linearity, then requantization to 0..255 levels (skipped at
    a divisor of 1.0): the tail every weighted layer ends with.  The
    last axis is the layer's; leading axes (a block's rows) ride along.
    """
    lead = raw.shape[:-1]
    raw = nonlinear(raw)
    if requant_divisor != 1.0:
        raw = raw / requant_divisor
        np.maximum(raw, 0.0, out=raw)
        np.minimum(raw, 255.0, out=raw)
    return np.asarray(raw, dtype=np.float64).reshape(lead + (-1,))


def tape_law(core) -> tuple[float, float] | None:
    """The core's :meth:`~repro.photonics.core.BehavioralCore.tape_law`
    (or a fault wrapper's, :meth:`~repro.faults.device.DegradedCore.
    tape_law`) — ``None`` for every core that does not declare one
    (device-accurate and third-party cores)."""
    declared = getattr(core, "tape_law", None)
    return declared() if declared is not None else None


def perturber(core):
    """A fault wrapper's
    :meth:`~repro.faults.device.DegradedCore.perturbation` (``None``
    for every other core): on a taped core that has one, dense rows
    draw once per readout and every product is perturbed."""
    return getattr(core, "perturbation", None)


def _product_noise(
    size: int, inner: int, geometry: "PlanGeometry", std: float, mean: float
) -> tuple[np.ndarray, np.ndarray]:
    """Tape constants of one noisy matrix product's ``size`` outputs:
    ``BehavioralCore.matmul``'s law, ``z * (std * sqrt(r)) + mean * r``
    for the ``r`` readouts an inner dimension of ``inner`` sums."""
    readouts = geometry.readouts(inner)
    return (
        np.full(size, std * math.sqrt(readouts)),
        np.full(size, mean * readouts),
    )


@dataclass(frozen=True)
class PlanGeometry:
    """The datapath parameters a plan's cycle ledger was compiled for."""

    num_wavelengths: int
    samples_per_cycle: int
    preamble_repeats: int

    def step_cycles(self, num_steps):
        """Digital cycles to stream and reduce one output row of
        ``num_steps`` photonic steps: one preamble per vector plus the
        ceil-divided stream cycles — per row, elementwise, when
        ``num_steps`` is an integer array.  The compiled ledger's one
        copy of the formula; the reference walk keeps its own, which
        this one is checked against.
        """
        return self.preamble_repeats - (
            -num_steps // self.samples_per_cycle
        )

    def readouts(self, inner: int) -> int:
        """ADC readouts a dot product of inner size ``inner`` sums."""
        return -(-inner // self.num_wavelengths)

    def row_cycles(self, vector_length: int) -> int:
        """:meth:`step_cycles` of a ``vector_length``-element row."""
        return self.step_cycles(
            math.ceil(vector_length / self.num_wavelengths)
        )


def readout_groups(
    weights: np.ndarray, num_wavelengths: int
) -> tuple[np.ndarray, np.ndarray]:
    """Offline sign separation's counts for a whole ``(rows, k)``
    weight matrix: per row, the ADC readouts of its non-negative and
    of its negative segment, each ceil-divided by the wavelength count
    after the segment is zero-padded to a multiple of it (§5.3 fn. 2).

    A row's readout count is their sum and its net sign their
    difference — :func:`~repro.core.dag.sign_separate_row`'s
    ``num_steps`` and ``group_signs.sum()``, one array pass per layer.
    """
    n = num_wavelengths
    positive = -(-np.count_nonzero(weights >= 0, axis=1) // n)
    negative = -(-np.count_nonzero(weights < 0, axis=1) // n)
    return positive, negative


class ReadoutOperands(NamedTuple):
    """A layer's sign-separated rows stacked into one operand block.

    ``a_index`` is the clipped activation gather map of shape
    ``(total_steps, N)`` (padding positions index slot 0; their
    magnitudes are zero so the gathered value cannot contribute),
    ``group_signs`` one control bit per step and ``row_starts`` the
    ``np.add.reduceat`` boundaries of the rows.
    """

    a_index: np.ndarray
    magnitudes: np.ndarray
    group_signs: np.ndarray
    row_starts: np.ndarray
    total_steps: int


def readout_operands(
    weights: np.ndarray, num_wavelengths: int
) -> ReadoutOperands:
    """Every row of a ``(rows, k)`` weight matrix sign-separated and
    stacked, in one vectorised pass: each row's non-negative weights,
    then its negative ones, each in column order, scattered to their
    readout slots with the zero padding left in place between.

    Equal, array for array, to stacking
    :func:`~repro.core.dag.sign_separate_row` row by row.
    """
    n = num_wavelengths
    positive, negative = readout_groups(weights, n)
    steps = positive + negative
    row_starts = np.zeros(len(steps), dtype=np.int64)
    np.cumsum(steps[:-1], out=row_starts[1:])
    total_steps = int(steps.sum())
    a_index = np.zeros(total_steps * n, dtype=np.int64)
    magnitudes = np.zeros(total_steps * n, dtype=np.float64)
    for segment, first_step in (
        (weights >= 0, row_starts),
        (weights < 0, row_starts + positive),
    ):
        rows, columns = np.nonzero(segment)
        counts = np.count_nonzero(segment, axis=1)
        # A weight's rank within its row's segment: its place in the
        # row-major nonzero list less where its row's entries begin.
        rank = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
        slots = first_step[rows] * n + rank
        a_index[slots] = columns
        magnitudes[slots] = np.abs(weights[rows, columns])
    group_signs = np.repeat(
        np.tile([1.0, -1.0], len(steps)),
        np.column_stack([positive, negative]).ravel(),
    )
    return ReadoutOperands(
        a_index.reshape(-1, n),
        magnitudes.reshape(-1, n),
        group_signs,
        row_starts,
        total_steps,
    )


class ExecutionPlan:
    """Base class: one task compiled against one datapath geometry."""

    kind: str = "plan"

    def __init__(
        self,
        task: LayerTask,
        geometry: PlanGeometry,
    ) -> None:
        self.task_name = task.name
        self.input_size = task.input_size
        self.geometry = geometry
        self.nonlinear: NonlinearModule = nonlinear_module(
            task.nonlinearity
        )
        self.bias_levels = task.bias_levels
        self.requant_divisor = task.requant_divisor
        #: Output rows the task reduces (the LayerExecution ``rows``).
        self.rows: int = 0
        #: Stream cycles charged by the task, identical to the reference's.
        self.stream_cycles: int = 0

    def execute(self, core, activations: np.ndarray) -> np.ndarray:
        """Replay the compiled task for one request through the core's
        own entry points; returns the raw pre-bias levels."""
        raise NotImplementedError

    @property
    def draws(self) -> int:
        """Gaussian draws one request takes on a taped core (see
        :meth:`ModelPlan.forward_block`), in :meth:`execute`'s order:
        one per output row, unless the plan says otherwise."""
        return self.rows

    @property
    def readout_draws(self) -> int:
        """:attr:`draws` on a taped fault wrapper, whose dense rows
        draw once per readout."""
        return self.draws

    def tape_constants(
        self, std: float, mean: float, per_readout: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per draw: the factor and the shift :meth:`execute`'s noise
        sites apply to a standard normal, in their order
        (``per_readout``: on a fault wrapper)."""
        raise NotImplementedError

    def live_floats(self, per_readout: bool = False) -> int:
        """Floats of one request live while :meth:`execute_block`
        runs (``per_readout``: on a fault wrapper): its input and its
        raw outputs."""
        return self.input_size + self.draws

    def execute_block(
        self, block: np.ndarray, noise: np.ndarray | None, perturb=None
    ) -> np.ndarray:
        """:meth:`execute` for a ``(B, n)`` block of requests, batch
        major: the same contractions as one stacked ``np.matmul`` each
        (one BLAS call per row, bit for bit the per-request product),
        the same ufuncs over the block, and ``noise`` — the task's
        ``(B, draws)`` slice of the tape, ``None`` on a noiseless core
        — added where the core would have drawn.  On a fault wrapper
        ``perturb(values, readouts)`` maps each noisy product in place
        as the wrapper's entry point would
        (:meth:`~repro.faults.device.DegradedCore.perturbation`)."""
        raise NotImplementedError

    def finish(self, raw: np.ndarray, requantize: bool) -> np.ndarray:
        """The digital tail after :meth:`execute` (or, with a leading
        block axis, :meth:`execute_block`): bias, non-linearity and
        (between layers, ``requantize``) the clip back to levels."""
        if self.bias_levels is not None:
            raw = raw + self.bias_levels
        return finish_output(
            raw, self.nonlinear, self.requant_divisor if requantize else 1.0
        )


class _ReadoutBlock:
    """A dense layer as one stacked per-readout accumulate block.

    For cores that must see every ADC readout: fault wrappers,
    device-accurate and accumulate-only cores, non-summable noise.
    """

    def __init__(self, weights: np.ndarray, num_wavelengths: int) -> None:
        (
            self.a_index,
            self.magnitudes,
            self.group_signs,
            self.row_starts,
            self.total_steps,
        ) = readout_operands(weights, num_wavelengths)
        # Replay scratch, owned by the block so steady-state serving
        # allocates nothing per request: the gathered activation block,
        # the per-step partials, and the core's noise-draw buffer.
        # ``accumulate_into`` takes pre-scaled weights (levels / 255),
        # baking the photonic transmission scale in at compile time.
        self._scaled = self.magnitudes / 255.0
        self._gathered = np.empty_like(self.magnitudes)
        self._partials = np.empty(self.total_steps, dtype=np.float64)
        self._scratch = np.empty(self.total_steps, dtype=np.float64)

    def _per_row_calls(self, core, activations: np.ndarray):
        """Per-row accumulate calls for noise models whose draws are
        not stream-equivalent under batching (``CompositeNoise``
        cascades one draw per source per *call*, so one stacked call
        would interleave the stream differently than the reference's
        per-row reduction)."""
        gathered = activations.take(self.a_index)
        call = core.accumulate
        partials = np.empty(self.total_steps, dtype=np.float64)
        bounds = np.append(self.row_starts, self.total_steps)
        for i in range(len(self.row_starts)):
            lo, hi = bounds[i], bounds[i + 1]
            partials[lo:hi] = call(gathered[lo:hi], self.magnitudes[lo:hi])
        return partials

    def execute(self, core, activations: np.ndarray) -> np.ndarray:
        into = getattr(core, "accumulate_into", None)
        if not getattr(
            getattr(core, "noise", None), "stream_equivalent", True
        ):
            partials = self._per_row_calls(core, activations)
        elif into is not None:
            partials = self._partials
            # Indices were clipped at compile time; mode="clip" skips
            # numpy's per-element bounds checking.
            np.take(
                activations, self.a_index, out=self._gathered,
                mode="clip",
            )
            into(self._gathered, self._scaled, partials, self._scratch)
        else:
            gathered = activations.take(self.a_index)
            partials = np.asarray(
                core.accumulate(gathered, self.magnitudes),
                dtype=np.float64,
            )
        # Every branch hands us a buffer we own for this call; signing
        # it in place saves one full-stream temporary per layer.
        np.multiply(partials, self.group_signs, out=partials)
        return np.add.reduceat(partials, self.row_starts)

    def execute_block(self, block, noise, perturb) -> np.ndarray:
        """:meth:`execute` on a taped fault wrapper, for a ``(B, n)``
        block: ``accumulate_into``'s products and its lanes added left
        to right, one tape draw per readout, the wrapper's perturbation
        of each readout, the signs and one ``reduceat`` along the
        readout axis (bit for bit each row's)."""
        products = block.take(self.a_index, axis=1, mode="clip")
        products *= self._scaled
        partials = products[:, :, 0].copy()
        for lane in range(1, products.shape[2]):
            partials += products[:, :, lane]
        if noise is not None:
            partials += noise
        perturb(partials, 1)
        partials *= self.group_signs
        return np.add.reduceat(partials, self.row_starts, axis=1)


class DensePlan(ExecutionPlan):
    """A fully-connected layer: one signed matvec, one draw per row.

    A row's output is the signed digital sum of its readouts, so on a
    core declaring ``row_granular_noise`` replay is ``weights @
    activations / 255`` plus one Gaussian per row, its std scaled by
    ``sqrt(steps)`` and its mean by ``sum(group_signs)`` — the row's own
    counts from sign separation (:func:`readout_groups`, one pass over
    the layer), not ``ceil(k / N)``, so the law is exactly the
    per-readout stream's.  Any other core replays the stacked
    :class:`_ReadoutBlock`, built from the weights on first use.
    """

    kind = "dense"

    def __init__(self, task: LayerTask, geometry: PlanGeometry) -> None:
        super().__init__(task, geometry)
        assert task.weights_levels is not None
        self.weights = task.weights_levels
        positive, negative = readout_groups(
            self.weights, geometry.num_wavelengths
        )
        steps = positive + negative
        self.rows = len(steps)
        self.stream_cycles = int(geometry.step_cycles(steps).sum())
        #: Readouts each row sums, and the sum of their sign bits.
        self.steps = steps.astype(np.float64)
        self.net_signs = (positive - negative).astype(np.float64)
        #: Readouts of the whole layer (the per-readout block's steps).
        self.readouts = int(steps.sum())
        self.std_scale = np.sqrt(self.steps)
        self._noise = np.empty(self.rows, dtype=np.float64)
        self._block: _ReadoutBlock | None = None

    def _readout_block(self) -> _ReadoutBlock:
        """The per-readout block, stacked from the weights on first
        fallback use (sign separation is a pure function of the weights
        and the wavelength count)."""
        if self._block is None:
            self._block = _ReadoutBlock(
                self.weights, self.geometry.num_wavelengths
            )
        return self._block

    def execute(self, core, activations: np.ndarray) -> np.ndarray:
        if not getattr(core, "row_granular_noise", False):
            return self._readout_block().execute(core, activations)
        out = self.weights @ activations
        out /= 255.0
        return core.readout_noise_into(
            out, self._noise, self.std_scale, self.net_signs
        )

    @property
    def readout_draws(self) -> int:
        return self.readouts

    def tape_constants(self, std, mean, per_readout=False):
        if per_readout:
            return np.full(self.readouts, std), np.full(self.readouts, mean)
        return self.std_scale * std, mean * self.net_signs

    def live_floats(self, per_readout=False):
        if not per_readout:
            return super().live_floats()
        # The gathered operand block and its readouts' partials.
        width = self.geometry.num_wavelengths + 1
        return self.input_size + self.readouts * width + self.rows

    def execute_block(self, block, noise, perturb=None):
        if perturb is not None:
            return self._readout_block().execute_block(block, noise, perturb)
        # (rows, n) @ (B, n, 1): one gemv per request, as ``execute``.
        out = np.matmul(self.weights, block[:, :, None])[:, :, 0]
        out /= 255.0
        if noise is not None:
            out += noise
        return out


class ConvPlan(ExecutionPlan):
    """A convolution layer as one patch gather plus one matmul.

    The plan keeps the kernel's per-channel readout counts only as the
    stream cycles they charge (:func:`readout_groups`, one pass over
    the kernel matrix); cores without a native matmul replay a stacked
    per-readout block built from the weights on first use.
    """

    kind = "conv"

    def __init__(self, task: LayerTask, geometry: PlanGeometry) -> None:
        super().__init__(task, geometry)
        conv = task.conv
        assert conv is not None and task.weights_levels is not None
        self.conv = conv
        self.patch_gather = im2col_indices(conv)
        # matmul consumes the transposed view exactly as the loop path
        # consumes ``weights_levels.T``.
        self.weights = task.weights_levels
        self.weights_t = self.weights.T
        positive, negative = readout_groups(
            self.weights, geometry.num_wavelengths
        )
        self.rows = conv.out_channels * conv.positions
        self.stream_cycles = (
            int(geometry.step_cycles(positive + negative).sum())
            * conv.positions
        )
        # Built lazily, only for cores without a native matmul.
        self._fallback: ReadoutOperands | None = None

    def _patches(self, activations: np.ndarray) -> np.ndarray:
        buffer = np.empty(self.conv.input_size + 1, dtype=np.float64)
        buffer[:-1] = activations
        buffer[-1] = 0.0
        return buffer[self.patch_gather]

    def _fallback_block(self) -> ReadoutOperands:
        """Stacked accumulate operands for matmul-less cores, built
        from the weights on first use.

        The block replays the reference's ``for position: for channel:``
        double loop as one accumulate call, preserving its p-major RNG
        draw order.
        """
        if self._fallback is None:
            self._fallback = readout_operands(
                self.weights, self.geometry.num_wavelengths
            )
        return self._fallback

    def execute(self, core, activations: np.ndarray) -> np.ndarray:
        patches = self._patches(activations)
        if supports_matmul(core):
            # (positions, out_channels) in one noisy photonic matmul.
            return core.matmul(patches, self.weights_t)
        a_index, magnitudes, group_signs, row_starts, steps = (
            self._fallback_block()
        )
        positions = self.conv.positions
        gathered = patches[:, a_index].reshape(
            positions * int(steps), self.geometry.num_wavelengths
        )
        blocks = np.broadcast_to(
            magnitudes, (positions,) + magnitudes.shape
        ).reshape(gathered.shape)
        partials = core.accumulate(gathered, blocks)
        signed = (
            np.broadcast_to(
                group_signs, (positions, len(group_signs))
            ).ravel()
            * np.asarray(partials, dtype=np.float64)
        )
        starts = (
            np.arange(positions, dtype=np.int64)[:, None] * int(steps)
            + row_starts[None, :]
        ).ravel()
        return np.add.reduceat(signed, starts).reshape(
            positions, self.conv.out_channels
        )

    def live_floats(self, per_readout=False):
        return super().live_floats() + self.patch_gather.size

    def tape_constants(self, std, mean, per_readout=False):
        return _product_noise(
            self.rows, self.conv.patch_size, self.geometry, std, mean
        )

    def execute_block(self, block, noise, perturb=None):
        conv = self.conv
        buffer = np.empty((len(block), conv.input_size + 1))
        buffer[:, :-1] = block
        buffer[:, -1] = 0.0
        # (B, positions, patch) @ (patch, out_channels), one gemm each.
        raw = np.matmul(buffer[:, self.patch_gather], self.weights_t)
        raw /= 255.0
        if noise is not None:
            raw += noise.reshape(raw.shape)
        if perturb is not None:
            perturb(raw, self.geometry.readouts(conv.patch_size))
        return raw

    def finish(self, raw: np.ndarray, requantize: bool) -> np.ndarray:
        if self.bias_levels is not None:
            raw = raw + self.bias_levels  # broadcast per out-channel
        # Channel-major (NCHW) flattening of each request.
        flat = np.swapaxes(raw, -1, -2).reshape(raw.shape[:-2] + (-1,))
        return finish_output(
            flat,
            self.nonlinear,
            self.requant_divisor if requantize else 1.0,
        )


class AttentionPlan(ExecutionPlan):
    """Self-attention with pre-split projections and cached row costs."""

    kind = "attention"

    def __init__(self, task: LayerTask, geometry: PlanGeometry) -> None:
        super().__init__(task, geometry)
        att = task.attention
        assert att is not None and task.weights_levels is not None
        self.attention = att
        s, d = att.seq_len, att.d_model
        weights = task.weights_levels
        # Transposed views of the four stacked projections, consumed by
        # matmul exactly as the uncompiled path consumed them.
        self.qkv_t = tuple(
            weights[i * d : (i + 1) * d].T for i in range(3)
        )
        self.wo_t = weights[3 * d : 4 * d].T
        #: ``(outputs, inner dimension)`` of the four noisy products in
        #: stream order — Q/K/V, scores, context, output projection —
        #: and where each one's draws start on the task's tape slice.
        self._sites = ((3 * s * d, d), (s * s, d), (s * d, s), (s * d, d))
        self._cuts = np.cumsum([size for size, _ in self._sites]).tolist()
        self.rows = 6 * att.seq_len
        d_cost = geometry.row_cycles(att.d_model)
        self.stream_cycles = (
            3 * att.seq_len * d_cost  # Q, K, V projections
            + att.seq_len * d_cost  # score rows
            + att.seq_len * geometry.row_cycles(att.seq_len)  # context
            + att.seq_len * d_cost  # output projection
            + att.seq_len * 8  # pipelined softmax per score row
        )

    def execute(self, core, activations: np.ndarray) -> np.ndarray:
        att = self.attention
        tokens = activations.reshape(att.seq_len, att.d_model)
        # Q, K and V share the token encoding: one streamed product
        # where the core offers it, else three calls (same stream).
        shared = getattr(core, "matmul_shared", None)
        if shared is not None:
            q, k, v = shared(tokens, self.qkv_t)
        else:
            q, k, v = (core.matmul(tokens, w_t) for w_t in self.qkv_t)
        scores = core.matmul(q, k.T) * att.score_scale
        shifted = scores - scores.max(axis=-1, keepdims=True)
        exps = np.exp(shifted)
        attn = exps / exps.sum(axis=-1, keepdims=True)
        # Attention weights are non-negative [0, 1] values: they ride
        # the photonic core as levels directly.
        context = core.matmul(attn * 255.0, v)
        return core.matmul(context, self.wo_t).ravel()

    @property
    def draws(self) -> int:
        return self._cuts[-1]

    def tape_constants(self, std, mean, per_readout=False):
        sites = [
            _product_noise(size, inner, self.geometry, std, mean)
            for size, inner in self._sites
        ]
        return tuple(np.concatenate(column) for column in zip(*sites))

    def execute_block(self, block, noise, perturb=None):
        att = self.attention
        rows, s, d = len(block), att.seq_len, att.d_model
        # What each product sums, for a fault wrapper's perturbation.
        over_d = self.geometry.readouts(d)
        tokens = block.reshape(rows, s, d)
        qkv = np.empty((3, rows, s, d))
        for product, w_t in zip(qkv, self.qkv_t):
            np.matmul(tokens, w_t, out=product)
        qkv /= 255.0
        if noise is not None:
            a, b, c, _ = self._cuts
            # One request's Q/K/V draws are block-major, like its fill.
            qkv += noise[:, :a].reshape(rows, 3, s, d).swapaxes(0, 1)
        if perturb is not None:
            perturb(qkv.swapaxes(0, 1), over_d)
        q, k, v = qkv
        scores = np.matmul(q, k.swapaxes(-1, -2))
        scores /= 255.0
        if noise is not None:
            scores += noise[:, a:b].reshape(scores.shape)
        if perturb is not None:
            perturb(scores, over_d)
        scores *= att.score_scale
        scores -= scores.max(axis=-1, keepdims=True)
        attn = np.exp(scores)
        attn /= attn.sum(axis=-1, keepdims=True)
        attn *= 255.0
        context = np.matmul(attn, v)
        context /= 255.0
        if noise is not None:
            context += noise[:, b:c].reshape(context.shape)
        if perturb is not None:
            perturb(context, self.geometry.readouts(s))
        out = np.matmul(context, self.wo_t)
        out /= 255.0
        if noise is not None:
            out += noise[:, c:].reshape(out.shape)
        if perturb is not None:
            perturb(out, over_d)
        return out.reshape(rows, s * d)


class PoolPlan(ExecutionPlan):
    """Max pooling: a digital stage with a precomputed cycle count."""

    kind = "maxpool"

    def __init__(self, task: LayerTask, geometry: PlanGeometry) -> None:
        super().__init__(task, geometry)
        pool = task.pool
        assert pool is not None
        self.pool = pool
        comparisons = task.output_size * (pool.kernel * pool.kernel - 1)
        self.compute_cycles = max(
            1, math.ceil(comparisons / geometry.samples_per_cycle)
        )

    def execute(self, core, activations: np.ndarray) -> np.ndarray:
        pool = self.pool
        image = activations.reshape(pool.channels, pool.height, pool.width)
        windows = np.lib.stride_tricks.sliding_window_view(
            image, (pool.kernel, pool.kernel), axis=(1, 2)
        )[:, :: pool.effective_stride, :: pool.effective_stride]
        return windows.max(axis=(-2, -1)).ravel()

    def execute_block(self, block, noise, perturb=None):
        pool = self.pool
        images = block.reshape(-1, pool.channels, pool.height, pool.width)
        windows = np.lib.stride_tricks.sliding_window_view(
            images, (pool.kernel, pool.kernel), axis=(2, 3)
        )[:, :, :: pool.effective_stride, :: pool.effective_stride]
        return windows.max(axis=(-2, -1)).reshape(len(block), -1)

    def finish(self, raw: np.ndarray, requantize: bool) -> np.ndarray:
        return raw  # a comparator stage: no bias, no requantization


@dataclass(frozen=True)
class _Tape:
    """One model's noise, laid out for one ``(std, mean)`` law.

    A request draws ``draws`` standard normals, task after task in
    program order (``spans`` is each task's slice); a draw becomes
    noise as ``z * factor + shift``, one multiply as every noise site
    makes it.
    """

    draws: int
    spans: tuple[tuple[int, int], ...]
    factor: np.ndarray | None
    shift: np.ndarray | None


@dataclass
class ModelPlan:
    """Every task of one DAG compiled against one datapath geometry.

    ``tasks`` is in DAG order.  ``program`` is the model's forward
    program, one straight-line step per task: the plan, whether its
    requantization applies (every layer but the last) and whether its
    input's 0..255 range is already proved by the producer's clip.
    """

    model_id: int
    model_name: str
    geometry: PlanGeometry
    tasks: dict[str, ExecutionPlan] = field(default_factory=dict)
    #: Requests replayed through this plan since compilation.
    replays: int = 0
    program: tuple[tuple[ExecutionPlan, bool, bool], ...] = field(
        init=False, repr=False
    )
    #: Tape layouts by noise law and whether dense rows draw per
    #: readout (a fault wrapper), laid out on first use, and the
    #: buffer the draws land in (grown to the largest block seen).
    _tapes: dict[tuple[float, float, bool], _Tape] = field(
        init=False, repr=False, default_factory=dict
    )
    _noise: np.ndarray = field(
        init=False, repr=False, default_factory=lambda: np.empty(0)
    )
    #: Bytes one request keeps live in :meth:`forward_block`: its
    #: draws plus its widest task's operands — on a core that sums a
    #: dense row's readouts in one draw, and on a fault wrapper.
    row_bytes: int = field(init=False, repr=False)
    readout_row_bytes: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        plans = list(self.tasks.values())
        steps = []
        in_range = False  # the request input is never trusted
        for index, plan in enumerate(plans):
            requantize = index < len(plans) - 1
            steps.append((plan, requantize, in_range))
            in_range = (
                requantize
                and plan.kind != "maxpool"
                and plan.requant_divisor != 1.0
            )
        self.program = tuple(steps)
        self.row_bytes = 8 * (
            sum(plan.draws for plan in plans)
            + max((plan.live_floats() for plan in plans), default=0)
        )
        self.readout_row_bytes = 8 * (
            sum(plan.readout_draws for plan in plans)
            + max((plan.live_floats(True) for plan in plans), default=0)
        )

    def plan(self, task_name: str) -> ExecutionPlan:
        return self.tasks[task_name]

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    def replica(self) -> "ModelPlan":
        """This plan for another core of its geometry: the same
        compiled tasks and tape layouts, its own ``replays`` count and
        noise buffer.  Sharing is safe on one serving thread — no task
        plan's scratch is read across calls."""
        twin = dataclasses.replace(self, replays=0)
        twin._tapes = self._tapes
        return twin

    def forward(self, core, input_levels: np.ndarray) -> list[np.ndarray]:
        """One request's numerics: every task's output levels, in order
        (:meth:`forward_block` at one row, on the core's own stream)."""
        row = np.asarray(input_levels, dtype=np.float64).ravel()
        if tape_law(core) is None:
            return self._walk(core, row)
        return [levels[0] for levels in self.forward_block(core, row[None])]

    def forward_block(
        self, core, block: np.ndarray, streams=None, clock=None
    ) -> list[np.ndarray]:
        """The model's numerics, batch major: a ``(B, n)`` block of
        request levels in, every task's ``(B, rows)`` levels out.

        Pure with respect to the datapath — no registers, no DRAM, no
        counters.  Inputs are validated exactly where the per-layer
        walk validates them and could fail: lengths always, the level
        range on the request input and after every producer that did
        not just clip to it.

        On a core that declares a :func:`tape_law` the block runs as
        one straight-line program (see
        :meth:`ExecutionPlan.execute_block`) and the noise comes off a
        tape: ``streams`` — ``(generator, rows)`` pairs covering the
        block in order, by default the core's own stream for all of
        it — each fill their rows' draws in one call, which consumes
        a generator exactly as the per-site fills of those rows, one
        request after the other, would.  So a row's levels are the
        bytes a lone :meth:`forward` of it produces from the same
        stream position, whatever block it rides in.  A taped fault
        wrapper (:func:`perturber`) also tapes one draw per dense
        readout and perturbs every product at its rows' time:
        ``clock``'s ``(now_s, rows)`` pairs, by default the wrapper's
        own clock for all of them.  Any other core walks its rows one
        by one through :meth:`ExecutionPlan.execute` on its own stream.
        """
        block = np.ascontiguousarray(block, dtype=np.float64)
        law = tape_law(core)
        if law is None:
            if streams is not None or clock is not None:
                raise ValueError(
                    "only a taped core draws from explicit streams"
                )
            walked = [self._walk(core, row) for row in block]
            return [np.stack(levels) for levels in zip(*walked)]
        faults = perturber(core)
        perturb = None if faults is None else faults(len(block), clock)
        key = (*law, faults is not None)
        tape = self._tapes.get(key)
        if tape is None:
            tape = self._tapes[key] = self._lay_tape(*key)
        noise = None
        if tape.draws:
            if streams is None:
                streams = ((core.stream, len(block)),)
            noise = self._fill(tape, len(block), streams)
        outputs = []
        for (plan, requantize, in_range), (lo, hi) in zip(
            self.program, tape.spans
        ):
            check_activations(
                plan.task_name, plan.input_size, block, not in_range
            )
            block = plan.finish(
                plan.execute_block(
                    block, None if noise is None else noise[:, lo:hi], perturb
                ),
                requantize,
            )
            outputs.append(block)
        return outputs

    def _walk(self, core, activations: np.ndarray) -> list[np.ndarray]:
        """One request, step by step through the core's entry points."""
        outputs = []
        for plan, requantize, in_range in self.program:
            check_activations(
                plan.task_name, plan.input_size, activations, not in_range
            )
            activations = plan.finish(
                plan.execute(core, activations), requantize
            )
            outputs.append(activations)
        return outputs

    def _lay_tape(self, std: float, mean: float, per_readout: bool) -> _Tape:
        spans, columns, start = [], [], 0
        for plan, _, _ in self.program:
            draws = plan.readout_draws if per_readout else plan.draws
            stop = start + (draws if std else 0)
            spans.append((start, stop))
            if stop > start:
                columns.append(plan.tape_constants(std, mean, per_readout))
            start = stop
        if not columns:
            return _Tape(0, tuple(spans), None, None)
        factor, shift = (np.concatenate(column) for column in zip(*columns))
        return _Tape(start, tuple(spans), factor, shift if mean else None)

    def _fill(self, tape: _Tape, rows: int, streams) -> np.ndarray:
        """``rows`` requests' noise off ``streams``, ``(rows, draws)``.

        A group's fill runs before the next pair is taken, so a keyed
        iterable may place one scratch generator on each group's seed
        in turn
        (:meth:`~repro.photonics.core.BehavioralCore.keyed_streams`).
        """
        if self._noise.size < rows * tape.draws:
            self._noise = np.empty(rows * tape.draws)
        flat = self._noise[: rows * tape.draws]
        start = 0
        for stream, count in streams:
            stop = start + count * tape.draws
            stream.standard_normal(out=flat[start:stop])
            start = stop
        if start != flat.size:
            raise ValueError(
                f"streams cover {start // tape.draws} of {rows} rows"
            )
        noise = flat.reshape(rows, tape.draws)
        noise *= tape.factor
        if tape.shift is not None:
            noise += tape.shift
        return noise


def check_activations(
    task_name: str, input_size: int, activations: np.ndarray, levels: bool
) -> None:
    """Reject a layer input (one request's, or a block's) of the wrong
    length or (``levels``) not all finite 0..255 levels."""
    if activations.shape[-1] != input_size:
        raise ValueError(
            f"layer {task_name!r} expects {input_size} "
            f"activations, got {activations.shape[-1]}"
        )
    # Negated so a NaN, which compares False both ways, is rejected.
    if levels and activations.size and not (
        activations.min() >= 0.0 and activations.max() <= 255.0
    ):
        raise ValueError(
            "activations must be non-negative 0..255 levels (signs "
            "are carried by the weights after sign separation)"
        )


_PLAN_CLASSES: dict[str, type[ExecutionPlan]] = {
    "dense": DensePlan,
    "conv": ConvPlan,
    "attention": AttentionPlan,
    "maxpool": PoolPlan,
}


def compile_task(task: LayerTask, geometry: PlanGeometry) -> ExecutionPlan:
    """Compile one DAG task into its execution plan.

    Dense and conv tasks run the offline phase here as one array pass
    over the layer's weight matrix (:func:`readout_groups`): the plan
    keeps per-layer readout counts and stream cycles, no per-row
    objects, and stacks per-readout operands from the weights only if a
    core ever needs them (attention streams through matmul directly).
    """
    return _PLAN_CLASSES[task.kind](task, geometry)


def compile_model(dag: ComputationDAG, geometry: PlanGeometry) -> ModelPlan:
    """Compile a whole DAG, one plan per task."""
    return ModelPlan(
        model_id=dag.model_id,
        model_name=dag.name,
        geometry=geometry,
        tasks={
            task.name: compile_task(task, geometry) for task in dag.tasks
        },
    )
