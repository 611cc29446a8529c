"""Computation DAGs and the DAG configuration loader (§4 step 2, §5.4).

Every DNN is described to the datapath as a directed acyclic graph of
layer tasks.  The :class:`DAGConfigurationLoader` is the module that makes
Lightning *reconfigurable*: when a packet requests a model, the loader
looks up that model's DAG and writes the per-layer count-action targets
(vector lengths, output counts, non-linearity selection) into the control
registers — while data continues to flow.  Config loads are register
writes, not pipeline flushes.

Weights are stored sign-separated: the offline phase (§5.3 footnote 2)
splits each weight row into non-negative magnitudes on the 0..255 level
scale plus a ±1 sign per element, and additionally *groups same-signed
elements together* so that every photonic accumulation group (the N
elements summed optically in one time step) shares a single sign the
digital adder-subtractor can apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .count_action import ControlRegisterFile

__all__ = [
    "ConvShape",
    "PoolShape",
    "AttentionShape",
    "LayerTask",
    "ComputationDAG",
    "SignSeparatedRow",
    "sign_separate_row",
    "DAGConfigurationLoader",
]


@dataclass(frozen=True)
class ConvShape:
    """Geometry of a convolution task (§5.4's conv datapath template).

    The task's weight matrix holds one row per output channel of length
    ``in_channels * kernel * kernel``; the datapath unrolls the input
    activations into patches (the same conv-as-dot-products lowering the
    photonic core needs) and reuses the kernel rows across positions —
    which is why the memory controller caches them in register files.
    """

    in_channels: int
    height: int
    width: int
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0

    def __post_init__(self) -> None:
        if min(self.in_channels, self.height, self.width) < 1:
            raise ValueError("conv input dimensions must be positive")
        if min(self.out_channels, self.kernel, self.stride) < 1:
            raise ValueError("conv parameters must be positive")
        if self.padding < 0:
            raise ValueError("padding cannot be negative")
        if self.out_height < 1 or self.out_width < 1:
            raise ValueError("kernel does not fit the padded input")

    @property
    def out_height(self) -> int:
        return (self.height + 2 * self.padding - self.kernel) // self.stride + 1

    @property
    def out_width(self) -> int:
        return (self.width + 2 * self.padding - self.kernel) // self.stride + 1

    @property
    def positions(self) -> int:
        return self.out_height * self.out_width

    @property
    def patch_size(self) -> int:
        return self.in_channels * self.kernel * self.kernel

    @property
    def input_size(self) -> int:
        return self.in_channels * self.height * self.width

    @property
    def output_size(self) -> int:
        return self.out_channels * self.positions

    @property
    def macs(self) -> int:
        return self.positions * self.out_channels * self.patch_size


@dataclass(frozen=True)
class PoolShape:
    """Geometry of a max-pooling task (a digital datapath stage)."""

    channels: int
    height: int
    width: int
    kernel: int
    stride: int | None = None

    def __post_init__(self) -> None:
        if min(self.channels, self.height, self.width, self.kernel) < 1:
            raise ValueError("pool dimensions must be positive")
        if self.stride is not None and self.stride < 1:
            raise ValueError("pool stride must be positive")
        if self.out_height < 1 or self.out_width < 1:
            raise ValueError("pool kernel does not fit the input")

    @property
    def effective_stride(self) -> int:
        return self.stride if self.stride is not None else self.kernel

    @property
    def out_height(self) -> int:
        return (self.height - self.kernel) // self.effective_stride + 1

    @property
    def out_width(self) -> int:
        return (self.width - self.kernel) // self.effective_stride + 1

    @property
    def input_size(self) -> int:
        return self.channels * self.height * self.width

    @property
    def output_size(self) -> int:
        return self.channels * self.out_height * self.out_width


@dataclass(frozen=True)
class AttentionShape:
    """Geometry of a self-attention task (§4's attention template).

    The task's stacked weight matrix holds the four projections
    ``[Wq; Wk; Wv; Wo]``, each ``d_model x d_model``.  The score and
    context products are *dynamic-dynamic*: both operands are runtime
    activations, which the photonic multiplication primitive supports
    natively (both modulator inputs are driven by DACs) — only the
    memory controller's role differs from weight-static layers.

    ``score_scale`` maps level-scale score products onto the float logit
    scale before the digital softmax (softmax is not scale-invariant);
    it is computed by the quantizer from the calibrated activation and
    weight scales, folding in the 1/sqrt(d_model) temperature.
    """

    seq_len: int
    d_model: int
    score_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.seq_len < 1 or self.d_model < 1:
            raise ValueError("attention dimensions must be positive")
        if self.score_scale <= 0:
            raise ValueError("score scale must be positive")

    @property
    def input_size(self) -> int:
        return self.seq_len * self.d_model

    @property
    def output_size(self) -> int:
        return self.input_size

    @property
    def macs(self) -> int:
        projections = 4 * self.seq_len * self.d_model * self.d_model
        interactions = 2 * self.seq_len * self.seq_len * self.d_model
        return projections + interactions


@dataclass(frozen=True)
class SignSeparatedRow:
    """One weight row after offline sign separation and grouping.

    ``magnitudes`` are the |w| levels reordered so the first
    ``num_positive`` entries are the non-negative weights; ``order`` maps
    the reordered positions back to original input indices;
    ``group_signs`` gives the ±1 control bit for each photonic
    accumulation group of ``group_size`` elements (after zero padding at
    the positive/negative boundary).
    """

    magnitudes: np.ndarray
    order: np.ndarray
    group_signs: np.ndarray
    group_size: int
    num_positive: int

    @property
    def num_steps(self) -> int:
        """Photonic accumulate steps (ADC readouts) this row streams.

        The padded magnitude vector is an exact multiple of the group
        size, so this is the one step-count formula shared by the
        per-row loop's cycle ledger and the compiled plans — keeping
        the two paths' ledgers bit-identical by construction.
        """
        return len(self.magnitudes) // self.group_size


def sign_separate_row(
    weights_levels: np.ndarray, group_size: int
) -> SignSeparatedRow:
    """Offline sign separation for one weight row (§5.3 footnote 2).

    ``weights_levels`` is a signed level vector (−255..255).  Elements are
    permuted so all non-negative weights precede all negative ones, each
    segment is zero-padded to a multiple of ``group_size`` (the number of
    photonic accumulation wavelengths), and each group of ``group_size``
    consecutive elements is assigned a single sign control bit.
    """
    if group_size < 1:
        raise ValueError("group size must be at least 1")
    weights_levels = np.asarray(weights_levels, dtype=np.float64).ravel()
    pos_idx = np.flatnonzero(weights_levels >= 0)
    neg_idx = np.flatnonzero(weights_levels < 0)

    def padded(segment_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mags = np.abs(weights_levels[segment_idx])
        pad = (-len(mags)) % group_size
        if pad:
            mags = np.concatenate([mags, np.zeros(pad)])
            segment_idx = np.concatenate(
                [segment_idx, np.full(pad, -1, dtype=np.int64)]
            )
        return mags, segment_idx

    pos_mags, pos_order = padded(pos_idx)
    neg_mags, neg_order = padded(neg_idx)
    magnitudes = np.concatenate([pos_mags, neg_mags])
    order = np.concatenate([pos_order, neg_order])
    num_pos_groups = len(pos_mags) // group_size
    num_neg_groups = len(neg_mags) // group_size
    group_signs = np.concatenate(
        [np.ones(num_pos_groups), -np.ones(num_neg_groups)]
    )
    return SignSeparatedRow(
        magnitudes=magnitudes,
        order=order,
        group_signs=group_signs,
        group_size=group_size,
        num_positive=len(pos_idx),
    )


@dataclass(frozen=True)
class LayerTask:
    """One node of a DNN's computation DAG.

    Three kinds of task exist, matching the paper's datapath templates
    (§4 step 2):

    * ``"dense"`` — ``weights_levels`` is the signed weight matrix on
      the level scale, shape ``(output_size, input_size)``.
    * ``"conv"`` — ``conv`` carries the geometry; ``weights_levels`` has
      one row per output channel of length ``conv.patch_size`` (reused
      across positions, so the memory controller caches it).
    * ``"maxpool"`` — a purely digital stage described by ``pool``;
      carries no weights.

    ``bias_levels`` (optional) is added digitally after the dot product.
    ``depends_on`` names the tasks whose outputs feed this one; an empty
    tuple marks an input layer.  ``parallel_group`` tags tasks that may
    execute concurrently (attention heads, DLRM towers): tasks sharing a
    group contribute the per-layer datapath latency only once
    (Appendix F).
    """

    name: str
    kind: str  # "dense" | "conv" | "maxpool"
    input_size: int
    output_size: int
    weights_levels: np.ndarray | None = None
    nonlinearity: str = "identity"
    bias_levels: np.ndarray | None = None
    depends_on: tuple[str, ...] = ()
    parallel_group: str | None = None
    #: Divisor mapping this layer's raw dot-product scale back onto the
    #: 0..255 activation level scale for the next layer (computed by the
    #: quantizer during the offline phase; 1.0 means no rescaling).
    requant_divisor: float = 1.0
    conv: ConvShape | None = None
    pool: PoolShape | None = None
    attention: AttentionShape | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("dense", "conv", "maxpool", "attention"):
            raise ValueError(f"unsupported layer kind {self.kind!r}")
        if self.kind == "maxpool":
            self._validate_pool()
            return
        if self.weights_levels is None:
            raise ValueError(
                f"layer {self.name!r}: {self.kind} tasks need weights"
            )
        weights = np.asarray(self.weights_levels, dtype=np.float64)
        if self.kind == "dense":
            expected = (self.output_size, self.input_size)
        elif self.kind == "attention":
            self._validate_attention()
            assert self.attention is not None
            expected = (
                4 * self.attention.d_model,
                self.attention.d_model,
            )
        else:
            self._validate_conv()
            assert self.conv is not None
            expected = (self.conv.out_channels, self.conv.patch_size)
        if weights.shape != expected:
            raise ValueError(
                f"layer {self.name!r}: weights shape {weights.shape} does "
                f"not match {expected}"
            )
        if np.any(np.abs(weights) > 255):
            raise ValueError(
                f"layer {self.name!r}: weight levels exceed the 8-bit "
                "magnitude range"
            )
        object.__setattr__(self, "weights_levels", weights)
        if self.bias_levels is not None:
            bias = np.asarray(self.bias_levels, dtype=np.float64).ravel()
            expected_bias = (
                self.output_size
                if self.kind == "dense"
                else self.conv.out_channels
            )
            if len(bias) != expected_bias:
                raise ValueError(
                    f"layer {self.name!r}: bias length {len(bias)} does "
                    f"not match {expected_bias}"
                )
            object.__setattr__(self, "bias_levels", bias)

    def _validate_conv(self) -> None:
        if self.conv is None:
            raise ValueError(
                f"layer {self.name!r}: conv tasks need a ConvShape"
            )
        if self.input_size != self.conv.input_size:
            raise ValueError(
                f"layer {self.name!r}: input size {self.input_size} does "
                f"not match the conv geometry ({self.conv.input_size})"
            )
        if self.output_size != self.conv.output_size:
            raise ValueError(
                f"layer {self.name!r}: output size {self.output_size} "
                f"does not match the conv geometry "
                f"({self.conv.output_size})"
            )

    def _validate_attention(self) -> None:
        if self.attention is None:
            raise ValueError(
                f"layer {self.name!r}: attention tasks need an "
                "AttentionShape"
            )
        if self.input_size != self.attention.input_size:
            raise ValueError(
                f"layer {self.name!r}: input size {self.input_size} does "
                f"not match the attention geometry "
                f"({self.attention.input_size})"
            )
        if self.output_size != self.attention.output_size:
            raise ValueError(
                f"layer {self.name!r}: output size {self.output_size} "
                f"does not match the attention geometry "
                f"({self.attention.output_size})"
            )
        if self.bias_levels is not None:
            raise ValueError(
                f"layer {self.name!r}: attention tasks carry no bias"
            )

    def _validate_pool(self) -> None:
        if self.pool is None:
            raise ValueError(
                f"layer {self.name!r}: maxpool tasks need a PoolShape"
            )
        if self.weights_levels is not None:
            raise ValueError(
                f"layer {self.name!r}: maxpool tasks carry no weights"
            )
        if self.input_size != self.pool.input_size:
            raise ValueError(
                f"layer {self.name!r}: input size {self.input_size} does "
                f"not match the pool geometry ({self.pool.input_size})"
            )
        if self.output_size != self.pool.output_size:
            raise ValueError(
                f"layer {self.name!r}: output size {self.output_size} "
                f"does not match the pool geometry "
                f"({self.pool.output_size})"
            )

    @property
    def macs(self) -> int:
        """Multiply-accumulate operations this task performs."""
        if self.kind == "dense":
            return self.input_size * self.output_size
        if self.kind == "conv":
            assert self.conv is not None
            return self.conv.macs
        if self.kind == "attention":
            assert self.attention is not None
            return self.attention.macs
        return 0

    @property
    def parameter_count(self) -> int:
        if self.weights_levels is None:
            return 0
        count = int(np.asarray(self.weights_levels).size)
        if self.bias_levels is not None:
            count += len(self.bias_levels)
        return count


class ComputationDAG:
    """A DNN's computation DAG: ordered layer tasks plus dependencies."""

    def __init__(
        self, model_id: int, name: str, tasks: list[LayerTask]
    ) -> None:
        if model_id < 0:
            raise ValueError("model id must be non-negative")
        if not tasks:
            raise ValueError("a computation DAG needs at least one task")
        self.model_id = model_id
        self.name = name
        self.tasks = list(tasks)
        self._by_name = {t.name: t for t in self.tasks}
        if len(self._by_name) != len(self.tasks):
            raise ValueError("duplicate task names in DAG")
        self._validate_dependencies()

    def _validate_dependencies(self) -> None:
        seen: set[str] = set()
        for task in self.tasks:
            for dep in task.depends_on:
                if dep not in self._by_name:
                    raise ValueError(
                        f"task {task.name!r} depends on unknown task {dep!r}"
                    )
                if dep not in seen:
                    raise ValueError(
                        f"task {task.name!r} depends on {dep!r}, which is "
                        "not ordered before it (DAG must be topologically "
                        "sorted)"
                    )
            seen.add(task.name)
        # Adjacent sizes must chain for linear pipelines.
        for task in self.tasks:
            for dep in task.depends_on:
                parent = self._by_name[dep]
                if len(task.depends_on) == 1 and parent.output_size != task.input_size:
                    raise ValueError(
                        f"task {task.name!r} input size {task.input_size} "
                        f"does not match {dep!r} output size "
                        f"{parent.output_size}"
                    )

    def task(self, name: str) -> LayerTask:
        """Look up a task by name."""
        return self._by_name[name]

    @property
    def num_layers(self) -> int:
        return len(self.tasks)

    @property
    def effective_depth(self) -> int:
        """Layer count with parallel groups collapsed (Appendix F).

        Tasks sharing a ``parallel_group`` incur the per-layer datapath
        latency only once, so BERT's parallel attention heads count as a
        single layer for the latency model.
        """
        groups: set[str] = set()
        depth = 0
        for task in self.tasks:
            if task.parallel_group is None:
                depth += 1
            elif task.parallel_group not in groups:
                groups.add(task.parallel_group)
                depth += 1
        return depth

    @property
    def total_macs(self) -> int:
        return sum(t.macs for t in self.tasks)

    @property
    def total_parameters(self) -> int:
        return sum(t.parameter_count for t in self.tasks)


class DAGConfigurationLoader:
    """Runtime reconfiguration of the datapath (§5.4, Figure 11).

    Models register their DAGs once (e.g. at driver load).  When an
    inference packet arrives, :meth:`load` writes the count-action targets
    for the requested model's first layer into the control registers and
    returns the DAG; :meth:`configure_layer` rewrites the registers as
    the datapath advances through the DAG.
    """

    def __init__(self, registers: ControlRegisterFile) -> None:
        self.registers = registers
        self._models: dict[int, ComputationDAG] = {}
        #: Each loadable model's input size, for NIC ingress.
        self.input_sizes: dict[int, int] = {}
        self.loads = 0

    def register_model(self, dag: ComputationDAG) -> None:
        """Make a model's DAG loadable (e.g. at driver load time)."""
        if dag.model_id in self._models:
            raise ValueError(
                f"model id {dag.model_id} already registered "
                f"({self._models[dag.model_id].name!r})"
            )
        self._models[dag.model_id] = dag
        self.input_sizes[dag.model_id] = dag.tasks[0].input_size

    def unregister_model(self, model_id: int) -> ComputationDAG:
        """Forget a model's DAG (driver unload); returns the DAG."""
        self.input_sizes.pop(model_id, None)
        try:
            return self._models.pop(model_id)
        except KeyError:
            raise KeyError(
                f"no DAG registered for model id {model_id}"
            ) from None

    @property
    def model_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._models))

    def dag(self, model_id: int) -> ComputationDAG:
        """Look up a registered model's DAG by id."""
        try:
            return self._models[model_id]
        except KeyError:
            raise KeyError(
                f"no DAG registered for model id {model_id}"
            ) from None

    def load(self, model_id: int) -> ComputationDAG:
        """Select a model and configure the datapath for its first layer."""
        dag = self.dag(model_id)
        self.registers.write("dag.model_id", dag.model_id)
        self.registers.write("dag.num_layers", dag.num_layers)
        self.configure_layer(dag, 0)
        self.loads += 1
        return dag

    def configure_layer(
        self,
        dag: ComputationDAG,
        layer_index: int,
        num_accumulation_wavelengths: int = 2,
    ) -> LayerTask:
        """Write one layer's count-action parameters to the registers."""
        if not 0 <= layer_index < dag.num_layers:
            raise IndexError(
                f"layer index {layer_index} out of range for "
                f"{dag.num_layers}-layer DAG"
            )
        task = dag.tasks[layer_index]
        self.registers.write_many(
            {
                "layer.index": layer_index,
                "layer.kind": task.kind,
                "layer.input_size": task.input_size,
                "layer.output_size": task.output_size,
                "layer.nonlinearity": task.nonlinearity,
                "layer.accumulations_target": math.ceil(
                    task.input_size / num_accumulation_wavelengths
                ),
                "layer.results_target": task.output_size,
            }
        )
        return task
