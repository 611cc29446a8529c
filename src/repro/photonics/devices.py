"""Analog photonic device models.

These classes model the optical components of Lightning's photonic vector
dot product core (paper §2 and §6): lasers and comb lasers as carrier
sources, Mach-Zehnder amplitude modulators as analog multipliers,
photodetectors as intensity-summing receivers, and the passive WDM
multiplexers / splitters used to route wavelengths between them.

All light is represented as a mapping from wavelength (nm) to intensity.
Intensities are normalized so that the carrier amplitude corresponds to
1.0 (the paper's level 255 after 8-bit encoding).  Time-series signals are
numpy arrays: an :class:`OpticalField` carries, per wavelength, an array of
per-sample intensities.

The Mach-Zehnder modulator follows the sinusoidal transfer function of
Appendix A: the transmission through the interferometer is a raised sine of
the applied voltage, biased by a DC bias voltage.  Sweeping the bias (the
paper's Figure 23) reveals the max-extinction point at which the modulator
blocks essentially all light; Lightning biases both modulators there so
that a zero input produces (near) zero light on the photodetector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "OpticalField",
    "Laser",
    "CombLaser",
    "MachZehnderModulator",
    "Photodetector",
    "WDMMultiplexer",
    "WDMDemultiplexer",
    "OpticalSplitter",
    "C_BAND_START_NM",
    "C_BAND_END_NM",
    "DEFAULT_WAVELENGTHS_NM",
]

# Telecom C-band limits used by the prototype's tunable lasers (§6.1).
C_BAND_START_NM = 1530.0
C_BAND_END_NM = 1565.0

# The prototype's two laser wavelengths (§6.1, "Photonic components").
DEFAULT_WAVELENGTHS_NM = (1544.53, 1552.52)


class OpticalField:
    """A multi-wavelength optical signal.

    Maps each wavelength (nm) to a numpy array of non-negative intensities,
    one entry per time sample.  All wavelengths in one field must carry the
    same number of samples, mirroring the synchronous sample clock of the
    DACs feeding the modulators.
    """

    def __init__(self, intensities: dict[float, np.ndarray] | None = None):
        self._intensities: dict[float, np.ndarray] = {}
        if intensities:
            for wavelength, values in intensities.items():
                self.set_channel(wavelength, values)

    @property
    def wavelengths(self) -> tuple[float, ...]:
        """Wavelengths present in this field, in ascending order."""
        return tuple(sorted(self._intensities))

    @property
    def num_samples(self) -> int:
        """Number of time samples carried per wavelength (0 when empty)."""
        if not self._intensities:
            return 0
        return len(next(iter(self._intensities.values())))

    def set_channel(self, wavelength: float, values: np.ndarray) -> None:
        """Install the intensity time series for one wavelength."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("channel intensities must be a 1-D time series")
        if np.any(values < 0):
            raise ValueError("light intensity cannot be negative")
        if self._intensities and len(values) != self.num_samples:
            raise ValueError(
                "all wavelengths in a field must carry the same number of "
                f"samples (have {self.num_samples}, got {len(values)})"
            )
        self._intensities[float(wavelength)] = values

    def channel(self, wavelength: float) -> np.ndarray:
        """Return the intensity time series carried on ``wavelength``."""
        try:
            return self._intensities[float(wavelength)]
        except KeyError:
            raise KeyError(f"no light at {wavelength} nm in this field") from None

    def has_channel(self, wavelength: float) -> bool:
        """True when this field carries light at ``wavelength``."""
        return float(wavelength) in self._intensities

    def total_intensity(self) -> np.ndarray:
        """Sum of intensities across all wavelengths, per sample.

        This is what a photodetector sees: incoherent summation of the
        optical power on every incident wavelength (paper §2.1).
        """
        if not self._intensities:
            return np.zeros(0)
        return np.sum([v for v in self._intensities.values()], axis=0)

    def copy(self) -> "OpticalField":
        """An independent deep copy of this field."""
        return OpticalField(
            {w: v.copy() for w, v in self._intensities.items()}
        )

    def __len__(self) -> int:
        return len(self._intensities)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"OpticalField(wavelengths={self.wavelengths}, "
            f"samples={self.num_samples})"
        )


@dataclass
class Laser:
    """A single-wavelength continuous-wave laser.

    ``power`` is the normalized carrier intensity (1.0 = the amplitude the
    8-bit encoding maps to level 255).
    """

    wavelength_nm: float = DEFAULT_WAVELENGTHS_NM[0]
    power: float = 1.0

    def __post_init__(self) -> None:
        if not C_BAND_START_NM <= self.wavelength_nm <= C_BAND_END_NM:
            raise ValueError(
                f"wavelength {self.wavelength_nm} nm outside the telecom "
                f"C-band [{C_BAND_START_NM}, {C_BAND_END_NM}]"
            )
        if self.power <= 0:
            raise ValueError("laser power must be positive")

    def emit(self, num_samples: int) -> OpticalField:
        """Emit a constant-intensity carrier for ``num_samples`` samples."""
        if num_samples < 0:
            raise ValueError("num_samples must be non-negative")
        return OpticalField(
            {self.wavelength_nm: np.full(num_samples, self.power)}
        )


@dataclass
class CombLaser:
    """A frequency-comb laser emitting evenly spaced wavelengths.

    Comb lasers (paper refs [50, 52]) generate many side-by-side carrier
    wavelengths from a single source; Lightning's proposed chip uses a
    24-line comb for 24-way wavelength parallelism (§8).
    """

    num_lines: int = 24
    start_nm: float = 1540.0
    spacing_nm: float = 0.8
    power_per_line: float = 1.0

    def __post_init__(self) -> None:
        if self.num_lines < 1:
            raise ValueError("a comb laser needs at least one line")
        if self.spacing_nm <= 0:
            raise ValueError("comb spacing must be positive")
        if self.power_per_line <= 0:
            raise ValueError("per-line power must be positive")
        last = self.start_nm + (self.num_lines - 1) * self.spacing_nm
        if not (C_BAND_START_NM <= self.start_nm and last <= C_BAND_END_NM):
            raise ValueError(
                f"comb lines [{self.start_nm}, {last}] nm exceed the "
                "telecom C-band"
            )

    @property
    def wavelengths(self) -> tuple[float, ...]:
        return tuple(
            self.start_nm + i * self.spacing_nm for i in range(self.num_lines)
        )

    def emit(self, num_samples: int) -> OpticalField:
        """Emit all comb lines at equal power."""
        return OpticalField(
            {
                w: np.full(num_samples, self.power_per_line)
                for w in self.wavelengths
            }
        )


class MachZehnderModulator:
    """A Mach-Zehnder amplitude modulator (Appendix A / B).

    The transmission through the interferometer as a function of the total
    applied voltage ``V = bias + signal`` is::

        T(V) = er + (1 - er) * sin(pi/2 * V / v_pi) ** 2

    where ``v_pi`` is the half-wave voltage (5 V for the prototype's LiNbO3
    modulators) and ``er`` is the residual transmission at the extinction
    point (a perfect modulator has ``er = 0``).  Output intensity is input
    intensity times the transmission, which is the analog multiplication
    primitive of §2.1.

    The transfer is monotonic over one half-period, so Lightning encodes a
    value ``v in [0, 1]`` by applying the *drive* voltage at which
    ``T = v``; :mod:`repro.photonics.calibration` derives this inverse map
    by sweeping the device exactly like the prototype's Python API does.
    """

    def __init__(
        self,
        v_pi: float = 5.0,
        bias_voltage: float = 0.0,
        extinction_residual: float = 0.0,
        bandwidth_ghz: float = 15.0,
    ) -> None:
        if v_pi <= 0:
            raise ValueError("half-wave voltage must be positive")
        if not 0.0 <= extinction_residual < 1.0:
            raise ValueError("extinction residual must be in [0, 1)")
        if bandwidth_ghz <= 0:
            raise ValueError("modulator bandwidth must be positive")
        self.v_pi = v_pi
        self.bias_voltage = bias_voltage
        self.extinction_residual = extinction_residual
        self.bandwidth_ghz = bandwidth_ghz

    def transmission(self, signal_voltage: np.ndarray | float) -> np.ndarray:
        """Transmission factor for the given drive voltage(s)."""
        volts = np.asarray(signal_voltage, dtype=np.float64)
        phase = (math.pi / 2.0) * (volts + self.bias_voltage) / self.v_pi
        base = np.sin(phase) ** 2
        return self.extinction_residual + (1.0 - self.extinction_residual) * base

    def set_bias(self, bias_voltage: float) -> None:
        """Re-bias the modulator (driven by the bias controller, Fig 23)."""
        self.bias_voltage = float(bias_voltage)

    @property
    def max_extinction_bias(self) -> float:
        """The bias at which a zero drive voltage yields minimum light.

        Transmission minima sit at integer multiples of ``2 * v_pi``; the
        one nearest zero bias is 0 V for this transfer function.
        """
        return 0.0

    def modulate(
        self, carrier: OpticalField, signal_voltage: np.ndarray
    ) -> OpticalField:
        """Apply the drive waveform to every wavelength of the carrier.

        All co-propagating wavelengths pick up the same transmission —
        this is the "parallel modulations on a single modulator" feature
        of §2.2 that the ASIC design exploits.
        """
        volts = np.asarray(signal_voltage, dtype=np.float64)
        if volts.ndim != 1:
            raise ValueError("drive waveform must be a 1-D voltage series")
        if carrier.num_samples != len(volts):
            raise ValueError(
                f"carrier has {carrier.num_samples} samples but drive "
                f"waveform has {len(volts)}"
            )
        factor = self.transmission(volts)
        out = OpticalField()
        for wavelength in carrier.wavelengths:
            out.set_channel(wavelength, carrier.channel(wavelength) * factor)
        return out


class Photodetector:
    """A photodetector obeying Einstein's photoelectric effect.

    Output voltage is proportional (``responsivity``) to the total light
    intensity across all incident wavelengths, which implements the
    accumulation half of a photonic MAC (§2.1).  An optional integration
    window models the capacitor-integrator used for single-wavelength dot
    products: intensities within each window of ``integration_samples``
    consecutive samples are summed into one output sample.
    """

    def __init__(
        self,
        responsivity: float = 1.0,
        bandwidth_ghz: float = 9.5,
        dark_level: float = 0.0,
        saturation_level: float | None = None,
    ) -> None:
        if responsivity <= 0:
            raise ValueError("responsivity must be positive")
        if bandwidth_ghz <= 0:
            raise ValueError("photodetector bandwidth must be positive")
        if saturation_level is not None and saturation_level <= 0:
            raise ValueError("saturation level must be positive")
        self.responsivity = responsivity
        self.bandwidth_ghz = bandwidth_ghz
        self.dark_level = dark_level
        #: Output ceiling of the transimpedance stage; ``None`` models an
        #: unsaturable (ideal) receiver.  The fault layer lowers this to
        #: model an overdriven or degraded detector compressing readouts.
        self.saturation_level = saturation_level

    def detect(self, light: OpticalField) -> np.ndarray:
        """Convert incident light to an output voltage series.

        Wavelengths are summed incoherently sample-by-sample; output
        clips at ``saturation_level`` when one is configured.
        """
        total = light.total_intensity()
        voltage = self.responsivity * total + self.dark_level
        if self.saturation_level is not None:
            voltage = np.minimum(voltage, self.saturation_level)
        return voltage

    def detect_integrated(
        self, light: OpticalField, integration_samples: int
    ) -> np.ndarray:
        """Detect with a capacitor integrator of the given window length.

        The number of input samples must be a multiple of the window; the
        output has one accumulated sample per window.
        """
        if integration_samples < 1:
            raise ValueError("integration window must be at least 1 sample")
        voltage = self.detect(light)
        if len(voltage) % integration_samples != 0:
            raise ValueError(
                f"{len(voltage)} samples do not divide into windows of "
                f"{integration_samples}"
            )
        windows = voltage.reshape(-1, integration_samples)
        return windows.sum(axis=1)


class WDMMultiplexer:
    """Combine several optical fields onto one fiber.

    Each input field must carry wavelengths disjoint from the others: a WDM
    mux routes by wavelength and cannot merge two signals on the same
    carrier.
    """

    def combine(self, *fields: OpticalField) -> OpticalField:
        """Merge the fields onto one fiber (wavelengths must differ)."""
        out = OpticalField()
        for fld in fields:
            for wavelength in fld.wavelengths:
                if out.has_channel(wavelength):
                    raise ValueError(
                        f"wavelength collision at {wavelength} nm: a WDM mux "
                        "cannot combine two signals on the same carrier"
                    )
                out.set_channel(wavelength, fld.channel(wavelength))
        return out


class WDMDemultiplexer:
    """Split a combined field into per-wavelength (or grouped) outputs."""

    def split(self, light: OpticalField) -> dict[float, OpticalField]:
        """Separate every wavelength onto its own output port."""
        return {
            w: OpticalField({w: light.channel(w)}) for w in light.wavelengths
        }

    def select(
        self, light: OpticalField, wavelengths: tuple[float, ...] | list[float]
    ) -> OpticalField:
        """Extract a chosen subset of wavelengths onto one output fiber."""
        out = OpticalField()
        for wavelength in wavelengths:
            out.set_channel(wavelength, light.channel(wavelength))
        return out


@dataclass
class OpticalSplitter:
    """A passive 1-to-N power splitter.

    Used by the chip design (Appendix E) to broadcast the weight-encoded
    wavelengths to ``num_outputs`` batch lanes.  An ideal splitter divides
    power evenly; ``lossless=True`` instead models an amplified broadcast
    where each copy keeps full power, which is how the paper accounts
    intensities in its worked example.
    """

    num_outputs: int = 2
    lossless: bool = True
    # Excess insertion loss as a linear factor applied to every output.
    excess_loss: float = 1.0

    def __post_init__(self) -> None:
        if self.num_outputs < 1:
            raise ValueError("splitter must have at least one output")
        if not 0 < self.excess_loss <= 1.0:
            raise ValueError("excess loss factor must be in (0, 1]")

    def split(self, light: OpticalField) -> list[OpticalField]:
        """Produce ``num_outputs`` copies of the incoming light."""
        scale = self.excess_loss
        if not self.lossless:
            scale /= self.num_outputs
        outputs = []
        for _ in range(self.num_outputs):
            copy = OpticalField()
            for wavelength in light.wavelengths:
                copy.set_channel(
                    wavelength, light.channel(wavelength) * scale
                )
            outputs.append(copy)
        return outputs
