"""Photonic vector dot product cores.

Two levels of modeling are provided:

* :class:`PrototypeCore` — a device-accurate model of the testbed core
  (§6.1): one or more wavelength lanes, each with two cascaded calibrated
  Mach-Zehnder modulators, all lanes WDM-muxed onto a single photodetector,
  digitized by an ADC.  Every operand travels the full analog chain
  (DAC -> RF amplifier -> modulator -> modulator -> photodetector -> RF
  amplifier -> ADC), so quantization, transfer-function, and noise effects
  all appear in results.  This is the core the Figure 14 micro-benchmarks
  exercise.

* :class:`BehavioralCore` — a fast vectorized model for large DNNs: exact
  arithmetic plus the calibrated per-MAC Gaussian noise, used by the
  accuracy emulator (§7) and the cycle-level datapath when streaming long
  vectors.

:class:`CoreArchitecture` captures the device-count accounting of Table 5
(Appendix E): a core accumulating on ``N`` wavelengths, with ``W`` parallel
modulations per modulator and an inference batch of ``B``, performs
``N*W*B`` MACs per time step using ``N*W`` weight modulators, ``N*B`` input
modulators, and ``W*B`` photodetectors, over ``max(N, W)`` distinct
wavelengths.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .calibration import (
    CalibratedEncoder,
    calibrate_photodetector,
    fit_modulator_transfer,
)
from .converters import ADC, DAC, RFAmplifier
from .devices import (
    DEFAULT_WAVELENGTHS_NM,
    Laser,
    MachZehnderModulator,
    OpticalField,
    Photodetector,
    WDMMultiplexer,
)
from .noise import GaussianNoise, NoiseModel, NoiselessModel

__all__ = [
    "CoreArchitecture",
    "SCALAR_UNIT",
    "PROTOTYPE_ARCHITECTURE",
    "ASIC_ARCHITECTURE",
    "PrototypeCore",
    "BehavioralCore",
]


@dataclass(frozen=True)
class CoreArchitecture:
    """Device-count model of a photonic dot product core (Table 5).

    Parameters
    ----------
    accumulation_wavelengths:
        ``N`` — wavelengths summed on each photodetector.
    parallel_modulations:
        ``W`` — co-propagating wavelength groups modulated by a single
        input modulator (photonic broadcasting of the weight matrix rows).
    batch_size:
        ``B`` — inference inputs processed simultaneously against one
        encoding of the weights.
    """

    accumulation_wavelengths: int = 1
    parallel_modulations: int = 1
    batch_size: int = 1

    def __post_init__(self) -> None:
        for name, value in (
            ("accumulation_wavelengths", self.accumulation_wavelengths),
            ("parallel_modulations", self.parallel_modulations),
            ("batch_size", self.batch_size),
        ):
            if value < 1:
                raise ValueError(f"{name} must be at least 1")

    @property
    def macs_per_step(self) -> int:
        """Simultaneous multiply-accumulate operations per time step."""
        return (
            self.accumulation_wavelengths
            * self.parallel_modulations
            * self.batch_size
        )

    @property
    def weight_modulators(self) -> int:
        """Modulators that encode the weight matrix (``N * W``)."""
        return self.accumulation_wavelengths * self.parallel_modulations

    @property
    def input_modulators(self) -> int:
        """Modulators that encode the input vectors (``N * B``)."""
        return self.accumulation_wavelengths * self.batch_size

    @property
    def total_modulators(self) -> int:
        return self.weight_modulators + self.input_modulators

    @property
    def photodetectors(self) -> int:
        """Photodetectors accumulating results (``W * B``)."""
        return self.parallel_modulations * self.batch_size

    @property
    def distinct_wavelengths(self) -> int:
        """Comb lines required (``max(N, W)``)."""
        return max(self.accumulation_wavelengths, self.parallel_modulations)

    @property
    def computing_primitive(self) -> str:
        """Human name of the computation this core performs in one step."""
        n, w, b = (
            self.accumulation_wavelengths,
            self.parallel_modulations,
            self.batch_size,
        )
        if n == 1 and w == 1 and b == 1:
            return "scalar multiplication"
        if w == 1 and b == 1:
            return "vector dot product"
        if b == 1:
            return "matrix-vector product"
        return "matrix multiplication"


# Canonical configurations used throughout the paper.
SCALAR_UNIT = CoreArchitecture(1, 1, 1)
PROTOTYPE_ARCHITECTURE = CoreArchitecture(accumulation_wavelengths=2)
ASIC_ARCHITECTURE = CoreArchitecture(
    accumulation_wavelengths=24, parallel_modulations=24, batch_size=1
)


class _WavelengthLane:
    """One wavelength's pair of cascaded, individually calibrated MZMs."""

    def __init__(
        self,
        wavelength_nm: float,
        v_pi: float,
        extinction_residual: float,
        samples_per_cycle: int,
    ) -> None:
        self.laser = Laser(wavelength_nm=wavelength_nm)
        self.mod_a = MachZehnderModulator(
            v_pi=v_pi, extinction_residual=extinction_residual
        )
        self.mod_b = MachZehnderModulator(
            v_pi=v_pi, extinction_residual=extinction_residual
        )
        self.dac_a = DAC(lane_id=0, samples_per_cycle=samples_per_cycle)
        self.dac_b = DAC(lane_id=1, samples_per_cycle=samples_per_cycle)
        amp = RFAmplifier(gain=v_pi / self.dac_a.full_scale_voltage)
        self.amp_a = amp
        self.amp_b = RFAmplifier(gain=v_pi / self.dac_b.full_scale_voltage)
        # A probe photodetector used only during calibration.
        probe = Photodetector()
        fit_a = fit_modulator_transfer(self.mod_a, self.laser, probe)
        fit_b = fit_modulator_transfer(self.mod_b, self.laser, probe)
        self.encoder_a = CalibratedEncoder(self.dac_a, self.amp_a, fit_a)
        self.encoder_b = CalibratedEncoder(self.dac_b, self.amp_b, fit_b)

    def propagate(
        self, a_levels: np.ndarray, b_levels: np.ndarray
    ) -> OpticalField:
        """Drive both modulators and return the double-modulated light."""
        volts_a = self.encoder_a.drive_voltages(a_levels)
        volts_b = self.encoder_b.drive_voltages(b_levels)
        carrier = self.laser.emit(len(volts_a))
        once = self.mod_a.modulate(carrier, volts_a)
        return self.mod_b.modulate(once, volts_b)


class PrototypeCore:
    """Device-accurate model of the testbed's photonic core (§6.1).

    The default configuration matches the prototype: two wavelength lanes
    (1544.53 nm and 1552.52 nm), four 15 GHz modulators, one 9.5 GHz
    photodetector, 8-bit operands encoded on 256 levels.

    Operand semantics follow the paper's micro-benchmarks: unsigned
    fixed-point 8-bit levels in ``[0, 255]``, with results reported on the
    same scale (``255`` represents the carrier's full intensity, so a
    multiplication of levels ``a`` and ``b`` ideally reads
    ``a * b / 255``).
    """

    #: Whole-layer matrix products are not a device primitive: the
    #: testbed streams one accumulation per readout.
    supports_matmul = False

    def __init__(
        self,
        num_wavelengths: int = 2,
        wavelengths_nm: tuple[float, ...] | None = None,
        v_pi: float = 5.0,
        extinction_residual: float = 0.0,
        noise: NoiseModel | None = None,
        samples_per_cycle: int = 16,
        seed: int = 0,
    ) -> None:
        if num_wavelengths < 1:
            raise ValueError("core needs at least one wavelength")
        if wavelengths_nm is None:
            if num_wavelengths <= len(DEFAULT_WAVELENGTHS_NM):
                wavelengths_nm = DEFAULT_WAVELENGTHS_NM[:num_wavelengths]
            else:
                wavelengths_nm = tuple(
                    1540.0 + 0.8 * i for i in range(num_wavelengths)
                )
        if len(wavelengths_nm) != num_wavelengths:
            raise ValueError("wavelength list does not match lane count")
        self.architecture = CoreArchitecture(
            accumulation_wavelengths=num_wavelengths
        )
        self.lanes = [
            _WavelengthLane(
                w, v_pi, extinction_residual, samples_per_cycle
            )
            for w in wavelengths_nm
        ]
        self.mux = WDMMultiplexer()
        self.photodetector = Photodetector()
        self.adc = ADC(bits=16, samples_per_cycle=samples_per_cycle)
        self.receive_amp = RFAmplifier(gain=1.0)
        self.noise = noise if noise is not None else GaussianNoise()
        self._rng = np.random.default_rng(seed)
        # Decode calibration through lane 0 with all other lanes dark.
        lane0 = self.lanes[0]
        fit = lane0.encoder_a.transfer
        # Full scale on the ADC must cover the sum over all lanes.
        self.adc.full_scale_voltage = float(num_wavelengths)
        self.decoder = calibrate_photodetector(
            self.photodetector, self.adc, lane0.laser, lane0.mod_a, fit
        )
        # The ADC spans num_wavelengths x the single-lane range, so the
        # two-point decode must be rescaled to the per-lane unit.
        self._level_scale = 255.0

    @property
    def num_wavelengths(self) -> int:
        return len(self.lanes)

    def _detect(self, light: OpticalField) -> np.ndarray:
        """Photodetector -> amplifier -> ADC -> level decode, plus noise."""
        volts = self.receive_amp.amplify(self.photodetector.detect(light))
        readout = self.adc.digitize(volts).astype(np.float64)
        span = self.decoder.r_max - self.decoder.r_min
        levels = (readout - self.decoder.r_min) / span * self._level_scale
        return self.noise.apply(levels, self._rng)

    def multiply(
        self, a_levels: np.ndarray, b_levels: np.ndarray
    ) -> np.ndarray:
        """Element-wise photonic multiplication on lane 0 (Figure 2a).

        Returns results on the 0..255 scale: ``a * b / 255`` plus analog
        error.
        """
        a_levels = np.atleast_1d(np.asarray(a_levels))
        b_levels = np.atleast_1d(np.asarray(b_levels))
        if a_levels.shape != b_levels.shape:
            raise ValueError("operand streams must have equal length")
        light = self.lanes[0].propagate(a_levels, b_levels)
        return self._detect(light)

    def accumulate(
        self, a_pairs: np.ndarray, b_pairs: np.ndarray
    ) -> np.ndarray:
        """Photonic accumulation across wavelengths (Figure 2c).

        ``a_pairs`` / ``b_pairs`` have shape ``(num_steps,
        num_wavelengths)``; each row's element-wise products are summed on
        the photodetector, yielding one output level per step on the
        0..255 scale (so a full-scale sum across ``N`` wavelengths reads
        ``N * 255``... clipped only by the ADC's extended range).
        """
        a_pairs = np.atleast_2d(np.asarray(a_pairs))
        b_pairs = np.atleast_2d(np.asarray(b_pairs))
        if a_pairs.shape != b_pairs.shape:
            raise ValueError("operand blocks must have equal shape")
        if a_pairs.shape[1] != self.num_wavelengths:
            raise ValueError(
                f"expected {self.num_wavelengths} operands per step, got "
                f"{a_pairs.shape[1]}"
            )
        fields = [
            lane.propagate(a_pairs[:, i], b_pairs[:, i])
            for i, lane in enumerate(self.lanes)
        ]
        combined = self.mux.combine(*fields)
        return self._detect(combined)

    def mac(self, a_levels: np.ndarray, b_levels: np.ndarray) -> float:
        """Full multiply-accumulate of two vectors of arbitrary length.

        Vectors longer than the wavelength count are chunked across time
        steps; partial-step tails are zero-padded.  Returns the dot
        product on the 0..255 scale (``sum(a*b)/255`` ideally).
        """
        a_levels = np.asarray(a_levels, dtype=np.float64).ravel()
        b_levels = np.asarray(b_levels, dtype=np.float64).ravel()
        if a_levels.shape != b_levels.shape:
            raise ValueError("operand vectors must have equal length")
        n = self.num_wavelengths
        pad = (-len(a_levels)) % n
        if pad:
            a_levels = np.concatenate([a_levels, np.zeros(pad)])
            b_levels = np.concatenate([b_levels, np.zeros(pad)])
        a_pairs = a_levels.reshape(-1, n)
        b_pairs = b_levels.reshape(-1, n)
        per_step = self.accumulate(a_pairs, b_pairs)
        return float(np.sum(per_step))


#: numpy's ``SeedSequence`` constants (``numpy/random/bit_generator.pyx``):
#: ``hashmix``'s multiplier, ``generate_state``'s, the two of ``mix``, and
#: the pool of four 32-bit words every entropy is mixed into.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_WORD = 0xFFFFFFFF
_POOL_SIZE = 4
#: ``generate_state(3, np.uint64)`` hashes six words read off the pool
#: cyclically and pairs them, low word first.
_STATE_WORDS = (0, 1, 2, 3, 0, 1)


def _running(init: int, mult: int, calls: int) -> tuple[int, ...]:
    """A hash's running multiplier before each of ``calls`` calls and
    after the last: it starts at ``init`` and is multiplied by
    ``mult`` on every call, whatever the data."""
    constants = [init]
    for _ in range(calls):
        constants.append(constants[-1] * mult & _WORD)
    return tuple(constants)


_STATE_HASH = _running(_INIT_B, _MULT_B, len(_STATE_WORDS))
_STATE_XOR = np.array(_STATE_HASH[:-1], dtype=np.uint32)
_STATE_MUL = np.array(_STATE_HASH[1:], dtype=np.uint32)
_MIX_L, _MIX_R = np.uint32(_MIX_MULT_L), np.uint32(_MIX_MULT_R)


@functools.lru_cache(maxsize=None)
def _mix_constants(words: int) -> tuple[int, ...]:
    """``hashmix``'s running multiplier over ``mix_entropy`` of an
    entropy of ``words`` words: four calls fill the pool, twelve mix
    it, four more per word past the fourth."""
    tail = max(words - _POOL_SIZE, 0)
    return _running(
        _INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + tail)
    )


def _hashmix(value: int, call: int, constants: tuple[int, ...]) -> int:
    value = (value ^ constants[call]) * constants[call + 1] & _WORD
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _WORD
    return result ^ result >> 16


@functools.lru_cache(maxsize=4096)
def _mixed_pool(lead: tuple[int, ...]) -> tuple[int, ...]:
    """The pool ``mix_entropy`` leaves from an entropy's first (up to)
    four words, before any later word is mixed in: each word hashed
    into its slot (zeros past the entropy's end), then every slot mixed
    with every other.  The serving loop's keys share these words
    (seed, domain, core, epoch) across thousands of dispatches."""
    constants = _mix_constants(len(lead))
    pool = [
        _hashmix(lead[i] if i < len(lead) else 0, i, constants)
        for i in range(_POOL_SIZE)
    ]
    call = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(
                    pool[dst], _hashmix(pool[src], call, constants)
                )
                call += 1
    return tuple(pool)


@functools.lru_cache(maxsize=None)
def _tail_constants(word: int) -> tuple[np.ndarray, np.ndarray]:
    """``(xor, multiplier)`` of the ``hashmix`` calls that mix the
    ``word``-th entropy word past the fourth into the four slots."""
    first = _POOL_SIZE * (_POOL_SIZE + word)
    constants = np.array(
        _mix_constants(_POOL_SIZE + word + 1)[first:], dtype=np.uint32
    )
    return constants[:-1], constants[1:]


def keyed_seeds(entropies: Sequence[Sequence[int]]) -> np.ndarray:
    """``SeedSequence(e).generate_state(3, np.uint64)`` of every
    entropy, as one ``(len(entropies), 3)`` ``uint64`` array, without
    building a ``SeedSequence``.

    The entropies are one or more ``uint32`` words, all of one length.
    The pool mixed from their first four words is computed once per
    distinct four and kept; every later word is mixed into all the
    pools at once, in ``uint32`` array arithmetic, and so is the state
    read off them.
    """
    pools = np.array(
        [_mixed_pool(tuple(e[:_POOL_SIZE])) for e in entropies],
        dtype=np.uint32,
    )
    tails = np.array([e[_POOL_SIZE:] for e in entropies], dtype=np.uint32)
    for word in range(tails.shape[1]):
        xor, multiplier = _tail_constants(word)
        hashed = tails[:, word, None] ^ xor
        hashed *= multiplier
        hashed ^= hashed >> 16
        pools = _MIX_L * pools - _MIX_R * hashed
        pools ^= pools >> 16
    state = pools.take(_STATE_WORDS, axis=1)
    state ^= _STATE_XOR
    state *= _STATE_MUL
    state ^= state >> 16
    return state.astype("<u4", copy=False).view("<u8").astype(
        np.uint64, copy=False
    )


def place(
    generator: np.random.Generator, seed: Sequence[int]
) -> np.random.Generator:
    """Put an SFC64 ``generator`` where one seeded with a
    ``SeedSequence`` whose state is ``seed`` starts (:func:`keyed_seeds`):
    numpy's ``sfc64_set_seed`` (``sfc64.h``) sets the state to ``(s0,
    s1, s2, 1)`` and discards twelve outputs."""
    bits = generator.bit_generator
    bits.state = {
        "bit_generator": "SFC64",
        "state": {"state": (*seed, 1)},
        "has_uint32": 0,
        "uinteger": 0,
    }
    bits.random_raw(12)
    return generator


def _words(entropy: tuple[int, ...]) -> bool:
    """Whether every component of ``entropy`` is one ``uint32`` word."""
    return 0 <= min(entropy) and max(entropy) <= _WORD


class BehavioralCore:
    """Fast vectorized photonic core for large workloads.

    Computes exact dot products on the 0..255 level scale and injects the
    calibrated Gaussian noise the prototype shows per ADC readout
    (Figure 18).  By default the systematic offset (the noise mean) is
    removed, reflecting that the two-point decode calibration of
    Appendix A absorbs any constant bias; pass ``remove_mean=False`` to
    keep the raw measured distribution.

    Noise contract: *one draw per digital output, scaled by the readouts
    that output sums*.  A digital output is the signed sum of ``r``
    independently noisy readouts, so under a summable noise model its
    noise is exactly ``N(mean * sum(signs), std**2 * r)`` — one
    Gaussian, not ``r`` (:meth:`matmul` per element,
    :meth:`readout_noise_into` per dense row).  The streaming entry
    points return individual readouts and keep one draw each.
    """

    #: Whole-layer matrix products are native here (see :meth:`matmul`).
    supports_matmul = True

    def __init__(
        self,
        architecture: CoreArchitecture = PROTOTYPE_ARCHITECTURE,
        noise: NoiseModel | None = None,
        remove_mean: bool = True,
        seed: int = 0,
    ) -> None:
        self.architecture = architecture
        self.noise = noise if noise is not None else GaussianNoise()
        self.remove_mean = remove_mean
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        #: The SFC64 generator the keyed forward blocks draw from, made
        #: on first use and placed on each key's seed after that.
        self._scratch: np.random.Generator | None = None

    def noise_stream(self, *key: int) -> np.random.Generator:
        """The keyed SFC64 substream ``key`` names on this core.

        ``SeedSequence`` mixes the core's base seed with the key, so
        distinct cores keep distinct streams even for equal keys.  The
        entropy is handed over as one ``uint32`` array — word for word
        what ``SeedSequence`` makes of the tuple of ints — unless a
        component needs more than one word.  SFC64 is the cheapest
        numpy bit generator per Gaussian draw.  This returns an
        independent generator; :meth:`keyed_streams` reaches the same
        streams without building one per key.
        """
        entropy = (self.seed, *key)
        if _words(entropy):
            entropy = np.array(entropy, dtype=np.uint32)
        return np.random.Generator(
            np.random.SFC64(np.random.SeedSequence(entropy))
        )

    def keyed_streams(
        self, keyed_rows: Sequence[tuple[tuple[int, ...], int]]
    ) -> Iterator[tuple[np.random.Generator, int]]:
        """``(stream, rows)`` for every ``(key, rows)``: the stream
        :meth:`noise_stream` would give for ``key``, from its start.

        All the keys' seeds are computed in one :func:`keyed_seeds`
        call, and every stream is the core's one scratch generator,
        placed on its key's seed as the iteration reaches it — so draw
        each group's numbers before taking the next.  The keys are of
        one length; if a component needs more than one ``uint32`` word,
        every key gets its own :meth:`noise_stream`.
        """
        entropies = [(self.seed, *key) for key, _ in keyed_rows]
        if not all(map(_words, entropies)):
            for key, rows in keyed_rows:
                yield self.noise_stream(*key), rows
            return
        if self._scratch is None:
            self._scratch = self.noise_stream()
        seeds = keyed_seeds(entropies).tolist()
        for seed, (_, rows) in zip(seeds, keyed_rows):
            yield place(self._scratch, seed), rows

    def reseed_noise(self, *subkey: int) -> None:
        """Rebase the readout-noise stream onto a keyed SFC64 substream.

        The runtime keys each dispatch by ``(domain, core, epoch,
        batch)`` so the noise a batch consumes depends only on its key,
        never on which batches other cores ran first — that is what
        makes serial and process-parallel serving draw-for-draw
        identical.
        """
        self._rng = self.noise_stream(*subkey)

    @property
    def stream(self) -> np.random.Generator:
        """The core's own noise stream (what :meth:`reseed_noise` sets)."""
        return self._rng

    def tape_law(self) -> tuple[float, float] | None:
        """``(std, mean)`` per readout if a noise tape can stand in for
        this core, else ``None``.

        On a plain :class:`BehavioralCore` with Gaussian noise every
        noise site — :meth:`readout_noise_into` with scales,
        :meth:`matmul`, :meth:`matmul_shared` — is one
        ``standard_normal`` fill, scaled and shifted elementwise, so a
        whole model's draws are one fill of its draw count (a *tape*)
        that each site takes its slice of: what the batch-major
        forward program of :mod:`repro.core.plans` does.  ``mean`` is 0
        when the calibrated offset is removed; ``std == 0`` means no
        site draws at all (:class:`NoiselessModel`).  Subclasses that
        override a noise site, other noise models and a zero-std
        Gaussian (whose dense rows skip their draw) keep the calls.
        """
        cls = type(self)
        if (
            cls.matmul is not BehavioralCore.matmul
            or cls.matmul_shared is not BehavioralCore.matmul_shared
            or cls.readout_noise_into is not BehavioralCore.readout_noise_into
        ):
            return None
        noise = self.noise
        if isinstance(noise, NoiselessModel):
            return 0.0, 0.0
        if isinstance(noise, GaussianNoise) and noise.std > 0:
            return noise.std, 0.0 if self.remove_mean else noise.mean
        return None

    @property
    def row_granular_noise(self) -> bool:
        """Whether a summed output may take one draw for all its readouts.

        Row reducers probe it with ``getattr(..., False)``: readout-only
        cores and per-readout wrappers (``DegradedCore``) lack it.
        """
        return self.noise.summable

    def _noise_offset(self) -> float:
        if self.remove_mean and isinstance(self.noise, GaussianNoise):
            return self.noise.mean
        return 0.0

    def apply_readout_noise(self, levels: np.ndarray) -> np.ndarray:
        """Perturb level-scale values with one readout's worth of noise.

        Used by emulation engines that model one analog readout per
        result (the §7 emulator semantics); the calibrated offset is
        removed as in every other path.
        """
        levels = np.asarray(levels, dtype=np.float64)
        return self.noise.apply(levels, self._rng) - self._noise_offset()

    def multiply(self, a_levels: np.ndarray, b_levels: np.ndarray) -> np.ndarray:
        """Element-wise products on the 0..255 scale, with per-op noise."""
        a_levels = np.asarray(a_levels, dtype=np.float64)
        b_levels = np.asarray(b_levels, dtype=np.float64)
        clean = a_levels * b_levels / 255.0
        return self.noise.apply(clean, self._rng) - self._noise_offset()

    def accumulate(
        self, a_pairs: np.ndarray, b_pairs: np.ndarray
    ) -> np.ndarray:
        """Per-time-step wavelength accumulation (PrototypeCore-compatible).

        ``a_pairs`` / ``b_pairs`` have shape ``(num_steps, N)``; returns
        one noisy partial dot product per step on the 0..255 scale.
        """
        a_pairs = np.atleast_2d(np.asarray(a_pairs, dtype=np.float64))
        b_pairs = np.atleast_2d(np.asarray(b_pairs, dtype=np.float64))
        if a_pairs.shape != b_pairs.shape:
            raise ValueError("operand blocks must have equal shape")
        clean = self._clean_steps(a_pairs, b_pairs)
        return self.noise.apply(clean, self._rng) - self._noise_offset()

    @staticmethod
    def _clean_steps(a_pairs: np.ndarray, b_pairs: np.ndarray) -> np.ndarray:
        """Noise-free partial dot product of every accumulate step."""
        return (a_pairs * b_pairs / 255.0).sum(axis=1)

    def accumulate_signed(
        self, a_pairs: np.ndarray, b_pairs: np.ndarray, signs: np.ndarray
    ) -> float:
        """``sum(signs * accumulate(a_pairs, b_pairs))`` in one draw: the
        class contract for one row, where :attr:`row_granular_noise`."""
        out = np.array([np.dot(signs, self._clean_steps(a_pairs, b_pairs))])
        self.readout_noise_into(
            out, np.empty(1), np.sqrt(len(signs)), float(np.sum(signs))
        )
        return float(out[0])

    def accumulate_into(
        self,
        a_pairs: np.ndarray,
        b_pairs: np.ndarray,
        out: np.ndarray,
        scratch: np.ndarray,
    ) -> np.ndarray:
        """Allocation-free fused :meth:`accumulate` into caller buffers.

        Skips the streaming entry point's shape validation (plans pass
        pre-validated ``(num_steps, N)`` float64 blocks) and takes
        ``b_pairs`` *pre-scaled* (levels already divided by 255), so
        replay skips one full-stream division per layer.  ``out`` and
        ``scratch`` are float64 buffers of length ``num_steps`` that
        the caller owns across requests, so steady-state replay
        allocates nothing; ``a_pairs`` is treated as scratch too and
        may be clobbered.  RNG consumption is identical to
        :meth:`accumulate` — a ``Generator`` fills ``standard_normal(n,
        out=...)`` from the same stream ``normal(mean, std, n)``
        consumes, and ``z * std + mean`` rounds identically to the C
        ``loc + scale * z`` — so the noise stream is draw-for-draw the
        per-row loop's; the clean dot products differ from
        :meth:`accumulate` only in float rounding/summation order,
        which is one for every ``N``: products in place, then the lanes
        added left to right.
        """
        np.multiply(a_pairs, b_pairs, out=a_pairs)
        out[:] = a_pairs[:, 0]
        for lane in range(1, a_pairs.shape[1]):
            out += a_pairs[:, lane]
        return self.readout_noise_into(out, scratch)

    def readout_noise_into(
        self,
        out: np.ndarray,
        scratch: np.ndarray,
        std_scale: np.ndarray | float | None = None,
        mean_scale: np.ndarray | float | None = None,
    ) -> np.ndarray:
        """Add one noise draw per element of ``out``, in stream order.

        ``out`` holds clean level-scale values; ``scratch`` is a
        same-length float64 buffer the draws land in.  With no scales
        every element is one ADC readout: exactly one Gaussian each from
        the stream :meth:`accumulate` draws from, so callers that
        compute the clean contraction themselves stay draw-for-draw
        identical to per-readout ``accumulate`` calls.  An element that
        is the signed digital sum of ``r`` readouts passes ``std_scale =
        sqrt(r)`` and ``mean_scale = sum(signs)`` (scalars or arrays) and
        takes its one draw from the summed law of the class contract;
        only summable noise models admit that.
        """
        noise = self.noise
        if noise.summable:
            # A summable model is N(noise.mean, noise.std**2) per
            # readout.  remove_mean: the per-readout loop adds the mean
            # with the draw and removes it again as the calibrated
            # offset; the centered draw is the same value up to float
            # cancellation.
            mean = 0.0 if self.remove_mean else noise.mean
            if noise.std or mean:
                self._rng.standard_normal(out.shape[0], out=scratch)
                # One factor per draw, rounded as the tape rounds it.
                scratch *= (
                    noise.std if std_scale is None else std_scale * noise.std
                )
                if mean:
                    if mean_scale is not None:
                        mean = mean * mean_scale
                    scratch += mean
                out += scratch
        elif std_scale is not None:
            raise ValueError(
                f"{type(noise).__name__} readouts cannot be summed into "
                "one draw; perturb them one by one"
            )
        else:
            out[:] = noise.apply(out, self._rng)
            offset = self._noise_offset()
            if offset:
                out -= offset
        return out

    def matmul(self, a_matrix: np.ndarray, b_matrix: np.ndarray) -> np.ndarray:
        """Noisy matrix product: one draw per output element.

        Physically, noise lands on every *ADC readout* — the optical
        accumulation of ``N`` element-wise products in one time step
        (the Figure 18 statistics were measured per readout).  A dot
        product with inner dimension ``k`` digitally sums ``ceil(k /
        N)`` noisy readouts, so each output takes one draw with std
        ``sqrt(ceil(k / N))`` times the per-readout std (the class's
        noise contract), where ``N`` is the core's wavelength
        parallelism.
        """
        a_matrix = np.asarray(a_matrix, dtype=np.float64)
        clean = a_matrix @ np.asarray(b_matrix, dtype=np.float64)
        clean /= 255.0
        return self._add_summed_noise(clean, a_matrix.shape[-1])

    def _add_summed_noise(self, clean: np.ndarray, inner: int) -> np.ndarray:
        """Perturb ``clean`` in place with :meth:`matmul`'s noise law.

        ``standard_normal(shape)`` scaled in place is the stream and
        the rounding of ``normal(mean, std, size)`` (the argument in
        :meth:`accumulate_into`), without its temporaries.
        """
        readouts = -(-inner // self.architecture.accumulation_wavelengths)
        noise = self.noise
        if isinstance(noise, NoiselessModel):
            return clean
        if isinstance(noise, GaussianNoise):
            draws = self._rng.standard_normal(clean.shape)
            draws *= noise.std * math.sqrt(readouts)
            if not self.remove_mean:
                draws += noise.mean * readouts
            clean += draws
            return clean
        # Generic models: draw per-readout noise explicitly and sum.
        draws = noise.sample(clean.shape + (readouts,), self._rng)
        return clean + draws.sum(axis=-1) - self._noise_offset() * readouts

    def matmul_shared(
        self, a_matrix: np.ndarray, b_matrices: Sequence[np.ndarray]
    ) -> np.ndarray:
        """``matmul(a, b)`` for every equally shaped ``b``, stacked.

        Products that share one input encoding are one streamed product
        (attention's Q, K and V): one noise draw, block-major — exactly
        the stream the sequential :meth:`matmul` calls consume, so the
        stack holds their results bit for bit.  Each block stays its
        own contraction (BLAS sums a row's products in an order that
        depends on how many columns ride along).  Noise models other
        than this class's Gaussian (or none), and subclasses with their
        own ``matmul``, get the sequential calls.
        """
        a_matrix = np.asarray(a_matrix, dtype=np.float64)
        if type(self).matmul is not BehavioralCore.matmul or not isinstance(
            self.noise, (GaussianNoise, NoiselessModel)
        ):
            return np.stack([self.matmul(a_matrix, b) for b in b_matrices])
        clean = np.empty(
            (len(b_matrices), a_matrix.shape[0], b_matrices[0].shape[-1])
        )
        for block, b_matrix in zip(clean, b_matrices):
            np.matmul(a_matrix, b_matrix, out=block)
        clean /= 255.0
        return self._add_summed_noise(clean, a_matrix.shape[-1])

    def dot(self, a_levels: np.ndarray, b_levels: np.ndarray) -> float:
        """Noisy dot product of two level vectors."""
        a_levels = np.asarray(a_levels, dtype=np.float64).ravel()
        b_levels = np.asarray(b_levels, dtype=np.float64).ravel()
        if a_levels.shape != b_levels.shape:
            raise ValueError("operand vectors must have equal length")
        result = self.matmul(a_levels[None, :], b_levels[:, None])
        return float(result[0, 0])
