"""Off-chip memory: DRAM model, back-pressure buffer, memory controller.

Lightning stores large DNN parameters in a 4 GB DDR4 directly attached to
the datapath (§6.1).  Three behaviours of that arrangement matter to the
architecture and are modeled here:

* **Bandwidth mismatch** — the DDR4 delivers ≈170 Gbps while the two
  prototype DACs consume 64.88 Gbps, so reads arrive in bursts; a
  back-pressure AXI buffer (:class:`DRAMBuffer`) smooths them.
* **Latency variation** — DRAM access latency jitters (§5.1), which is
  why DAC lanes fill non-deterministically and the synchronous data
  streamer must gate on the valid-flag count.
* **Kernel reuse** — convolution kernels are read from DRAM once and
  cached in local register files for reuse (§4 step 3), while
  fully-connected weight matrices stream straight through.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DRAMModel",
    "DRAMBuffer",
    "MemoryController",
    "PROTOTYPE_DDR4",
    "wavelengths_fed_by_bandwidth",
    "required_memory_bandwidth_gbps",
    "HBM2_BANDWIDTH_GBPS",
]

#: State-of-the-art HBM2 stack bandwidth cited in §6.1 (15.2 Tbps).
HBM2_BANDWIDTH_GBPS = 15_200.0


def wavelengths_fed_by_bandwidth(
    bandwidth_gbps: float,
    photonic_rate_ghz: float,
    bits_per_sample: int = 8,
) -> int:
    """How many weight-streaming wavelengths a memory can keep fed.

    Each wavelength consumes one DAC stream of ``photonic_rate_ghz``
    giga-samples per second at ``bits_per_sample`` bits each.  §6.1's
    examples: HBM2's 15.2 Tbps feeds 468 wavelengths at 4.055 GHz, or
    ~20 at 97 GHz.
    """
    if bandwidth_gbps <= 0 or photonic_rate_ghz <= 0:
        raise ValueError("bandwidth and rate must be positive")
    if bits_per_sample < 1:
        raise ValueError("sample width must be at least 1 bit")
    return int(bandwidth_gbps // (photonic_rate_ghz * bits_per_sample))


def required_memory_bandwidth_gbps(
    num_wavelengths: int,
    photonic_rate_ghz: float,
    bits_per_sample: int = 8,
) -> float:
    """Memory bandwidth needed to stream weights for a core.

    The inverse of :func:`wavelengths_fed_by_bandwidth`: a 576-MAC chip
    with 576 weight streams at 97 GHz needs ~447 Tbps — why the paper
    notes multi-stack HBM for larger parallelism.
    """
    if num_wavelengths < 1:
        raise ValueError("need at least one wavelength")
    if photonic_rate_ghz <= 0:
        raise ValueError("rate must be positive")
    if bits_per_sample < 1:
        raise ValueError("sample width must be at least 1 bit")
    return num_wavelengths * photonic_rate_ghz * bits_per_sample


@dataclass
class DRAMModel:
    """A DDR4/HBM device characterized by capacity, rate, and jitter.

    ``transactions_per_second`` and ``bits_per_transaction`` follow the
    prototype's DDR4 (2.67e9 x 64 b ≈ 170 Gbps).  Read latency is a base
    access time plus uniform jitter, reproducing the latency variation
    that de-synchronizes DAC lanes.
    """

    capacity_bytes: int = 4 * 1024**3
    transactions_per_second: float = 2.67e9
    bits_per_transaction: int = 64
    base_latency_ns: float = 50.0
    latency_jitter_ns: float = 20.0
    power_watts: float = 3.0

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("DRAM capacity must be positive")
        if self.transactions_per_second <= 0:
            raise ValueError("transaction rate must be positive")
        if self.bits_per_transaction <= 0:
            raise ValueError("transaction width must be positive")
        if self.base_latency_ns < 0 or self.latency_jitter_ns < 0:
            raise ValueError("latencies cannot be negative")
        self._used_bytes = 0
        self._store: dict[str, np.ndarray] = {}

    @property
    def bandwidth_gbps(self) -> float:
        """Sustained data rate in Gbps."""
        return (
            self.transactions_per_second * self.bits_per_transaction / 1e9
        )

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used_bytes

    def store(self, key: str, data: np.ndarray) -> None:
        """Place a named array into DRAM, accounting for capacity."""
        data = np.asarray(data)
        if key in self._store:
            self._used_bytes -= self._store[key].nbytes
        if data.nbytes > self.free_bytes:
            raise MemoryError(
                f"storing {data.nbytes} bytes exceeds DRAM capacity "
                f"({self.free_bytes} bytes free)"
            )
        self._store[key] = data
        self._used_bytes += data.nbytes

    def contains(self, key: str) -> bool:
        """True when a named array is resident in DRAM."""
        return key in self._store

    def read(
        self, key: str, rng: np.random.Generator | None = None
    ) -> tuple[np.ndarray, float]:
        """Read a named array; returns ``(data, latency_seconds)``.

        Latency covers the access (base + jitter) plus the transfer time
        at the device's sustained bandwidth.
        """
        try:
            data = self._store[key]
        except KeyError:
            raise KeyError(f"no data stored in DRAM under {key!r}") from None
        jitter = 0.0
        if self.latency_jitter_ns > 0:
            if rng is None:
                rng = np.random.default_rng(0)
            jitter = float(rng.uniform(0.0, self.latency_jitter_ns))
        transfer_s = data.nbytes * 8 / (self.bandwidth_gbps * 1e9)
        latency_s = (self.base_latency_ns + jitter) * 1e-9 + transfer_s
        return data, latency_s

    def peek(self, key: str) -> np.ndarray:
        """A stored array with no access charged (compile-time probe).

        Timing-plan compilation freezes each layer's transfer time from
        the resident array's byte count; peeking must not touch the
        latency ledger or the jitter RNG, or the compiled constants
        would perturb the very stream they are meant to reproduce.
        """
        try:
            return self._store[key]
        except KeyError:
            raise KeyError(f"no data stored in DRAM under {key!r}") from None

    def evict(self, key: str) -> None:
        """Free a named array's DRAM space (no-op when absent)."""
        data = self._store.pop(key, None)
        if data is not None:
            self._used_bytes -= data.nbytes


#: The prototype's DDR4 configuration (§6.1).
PROTOTYPE_DDR4 = dict(
    capacity_bytes=4 * 1024**3,
    transactions_per_second=2.67e9,
    bits_per_transaction=64,
)


class DRAMBuffer:
    """A bounded back-pressure FIFO between DRAM and the AXI stream.

    DRAM delivers data faster than the DACs drain it, so the buffer
    absorbs burstiness; when full it asserts back-pressure (``push``
    returns False) and the memory controller pauses reads — the AXI
    stream back-pressure of §6.1.
    """

    def __init__(self, capacity_blocks: int = 64) -> None:
        if capacity_blocks < 1:
            raise ValueError("buffer must hold at least one block")
        self.capacity_blocks = capacity_blocks
        self._fifo: deque[np.ndarray] = deque()
        self.overflows = 0

    @property
    def occupancy(self) -> int:
        return len(self._fifo)

    @property
    def full(self) -> bool:
        return len(self._fifo) >= self.capacity_blocks

    @property
    def empty(self) -> bool:
        return not self._fifo

    def push(self, block: np.ndarray) -> bool:
        """Queue a block; returns False (back-pressure) when full."""
        if self.full:
            self.overflows += 1
            return False
        self._fifo.append(np.asarray(block))
        return True

    def pop(self) -> np.ndarray:
        """Dequeue the oldest block; raises when empty."""
        if not self._fifo:
            raise RuntimeError("pop from an empty DRAM buffer")
        return self._fifo.popleft()

    def clear(self) -> None:
        """Discard all buffered blocks."""
        self._fifo.clear()


class MemoryController:
    """Streams DNN parameters from DRAM into the datapath (§4 step 3).

    Fully-connected weight rows stream straight from DRAM through the
    back-pressure buffer.  Convolution kernels are read once and pinned
    in a local register-file cache for reuse across the layer's many
    positions, eliminating repeated DRAM round trips.
    """

    def __init__(
        self,
        dram: DRAMModel | None = None,
        buffer: DRAMBuffer | None = None,
        seed: int = 0,
    ) -> None:
        self.dram = dram if dram is not None else DRAMModel()
        self.buffer = buffer if buffer is not None else DRAMBuffer()
        self._rng = np.random.default_rng(seed)
        self._register_file: dict[str, np.ndarray] = {}
        self.dram_reads = 0
        self.cache_hits = 0
        self.total_read_latency_s = 0.0

    def store_model(
        self, model_id: int, layers: dict[str, np.ndarray]
    ) -> None:
        """Write a model's parameter tensors into DRAM."""
        for layer_name, data in layers.items():
            self.dram.store(self.key(model_id, layer_name), data)

    def evict_model(self, model_id: int, layer_names: Sequence[str]) -> None:
        """Free a model's parameter tensors from DRAM and drop any of
        its kernels pinned in the register file (driver unload)."""
        for layer_name in layer_names:
            key = self.key(model_id, layer_name)
            self.dram.evict(key)
            self._register_file.pop(key, None)

    @staticmethod
    def key(model_id: int, layer_name: str) -> str:
        """The DRAM (and register-file) key of one layer's tensor."""
        return f"model{model_id}/{layer_name}"

    def stream_weights(
        self, model_id: int, layer_name: str, pipelined: bool = True
    ) -> tuple[np.ndarray, float]:
        """Fetch a fully-connected layer's weights from DRAM.

        Returns ``(weights, exposed_latency_seconds)``; every call pays
        the DRAM access because FC matrices are used once per inference.
        When ``pipelined`` (the default), only the pipeline-fill latency
        (access time) is exposed: the DDR's bandwidth exceeds the DACs'
        consumption rate, so the bulk transfer hides behind compute in
        the back-pressure buffer (§6.1).  ``pipelined=False`` reports
        the full serial access-plus-transfer latency.
        """
        data, latency = self.dram.read(
            self.key(model_id, layer_name), self._rng
        )
        if pipelined:
            transfer_s = data.nbytes * 8 / (self.dram.bandwidth_gbps * 1e9)
            latency = max(latency - transfer_s, 0.0)
        self.dram_reads += 1
        self.total_read_latency_s += latency
        return data, latency

    def load_kernel(
        self, model_id: int, layer_name: str
    ) -> tuple[np.ndarray, float]:
        """Fetch a convolution kernel, caching it in the register file.

        The first access reads DRAM; subsequent accesses hit the local
        register file at zero modeled latency.
        """
        key = self.key(model_id, layer_name)
        if key in self._register_file:
            self.cache_hits += 1
            return self._register_file[key], 0.0
        data, latency = self.dram.read(key, self._rng)
        self.dram_reads += 1
        self.total_read_latency_s += latency
        self._register_file[key] = data
        return data, latency

    def evict_kernels(self) -> None:
        """Drop all cached kernels (model switch)."""
        self._register_file.clear()

    # ------------------------------------------------------------------
    # Ledger replay support (compiled timing plans)
    # ------------------------------------------------------------------
    def peek(self, model_id: int, layer_name: str) -> np.ndarray:
        """A layer's resident tensor, charging nothing (compile probe)."""
        return self.dram.peek(self.key(model_id, layer_name))

    def pinned(self, kernel_keys: frozenset[str]) -> bool:
        """Whether every one of these conv kernels sits in the register
        file — a timing plan's steady state, in which no read misses."""
        return self._register_file.keys() >= kernel_keys

    def replay_reads(
        self,
        keys: Sequence[str | None],
        transfer_s: Sequence[float],
    ) -> list[float]:
        """Charge one sample's reads off a timing plan's frozen rows,
        read by read: the path for a sample that meets a cold kernel.

        ``keys`` are the reads in charge order — a conv kernel's
        :meth:`key`, or ``None`` for a streaming layer — and
        ``transfer_s`` their transfer seconds.  Returns each read's
        exposed latency, exactly as :meth:`stream_weights` or
        :meth:`load_kernel` would have charged it in that order: one
        :meth:`jitter_batch` draw for every read that reaches DRAM,
        then :meth:`DRAMModel.read`'s own arithmetic in plain floats.
        A kernel miss is pinned in the register file; a hit costs
        nothing and draws nothing.
        """
        cache = self._register_file
        # Streaming reads have no cache key: None is never cached.
        jitters = iter(
            self.jitter_batch(
                sum(key not in cache for key in keys)
            ).tolist()
        )
        base_ns = self.dram.base_latency_ns
        total = self.total_read_latency_s
        latencies = []
        for key, transfer in zip(keys, transfer_s):
            if key in cache:
                self.cache_hits += 1
                latencies.append(0.0)
                continue
            latency = (base_ns + next(jitters)) * 1e-9 + transfer
            if key is None:
                # Pipelined: only the access time is exposed.
                latency = max(latency - transfer, 0.0)
            else:
                cache[key] = self.dram.peek(key)
            self.dram_reads += 1
            total += latency
            latencies.append(latency)
        self.total_read_latency_s = total
        return latencies

    def replay_streams(
        self, transfer_s: Sequence[float], samples: int, kernels: int
    ) -> list[list[float]]:
        """Charge ``samples`` samples that find every kernel pinned, in
        one draw; returns each sample's exposed latency per streaming
        read.

        Each sample reads every streaming layer (``transfer_s``, in
        layer order; sample-major draws, as scalar charging would make
        them) and hits each of the ``kernels``.  The draws are
        :meth:`jitter_batch`'s uniforms, scaled per read; each read is
        :meth:`replay_reads`'s arithmetic in plain floats and the
        running total is folded in charge order, so the ledger matches
        per-read charging bit for bit.
        """
        reads = samples * len(transfer_s)
        span = self.dram.latency_jitter_ns
        # No jitter span, no draw (as in jitter_batch).
        draws = iter(
            self._rng.random(reads).tolist() if span > 0 else [0.0] * reads
        )
        base_ns = self.dram.base_latency_ns
        total = self.total_read_latency_s
        per_sample = []
        for _ in range(samples):
            latencies = []
            # transfer_s leads the zip, so it never pulls a spare draw.
            for transfer, uniform in zip(transfer_s, draws):
                latency = (base_ns + uniform * span) * 1e-9 + transfer
                # Pipelined: only the access time is exposed.
                latency = max(latency - transfer, 0.0)
                total += latency
                latencies.append(latency)
            per_sample.append(latencies)
        self.total_read_latency_s = total
        self.dram_reads += reads
        self.cache_hits += samples * kernels
        return per_sample

    def jitter_batch(self, count: int) -> np.ndarray:
        """Draw ``count`` DRAM-jitter values in one RNG call.

        ``Generator.random`` consumes exactly one double from the bit
        stream per element, in order, and scaling it by the jitter
        span is ``Generator.uniform(0.0, span)``'s own arithmetic
        (``0.0 + span * u``) — so this single call leaves the generator
        at the same position, with the same values, as ``count``
        scalar draws inside :meth:`DRAMModel.read`.  When the device
        models no jitter the scalar path never touches the RNG, so
        neither does this one.
        """
        if count < 0:
            raise ValueError("jitter draw count cannot be negative")
        span = self.dram.latency_jitter_ns
        if span <= 0:
            return np.zeros(count)
        jitter = self._rng.random(count)
        jitter *= span
        return jitter
