"""Calibration of the photonic computing path (Appendix A / B).

A photonic dot product core only computes faithfully once two transfer
functions are known:

* ``f_MOD`` — how a drive voltage on the modulator maps to output light
  intensity.  The modulator follows a sinusoidal Mach-Zehnder transfer, so
  Lightning sweeps the drive voltage across the monotonic *encoding zone*
  (from the max-extinction bias to the transmission peak), measures the
  output, and fits a polynomial.  Inverting the fit yields the voltage to
  apply for any desired intensity.
* ``f_PD`` — how detected light intensity maps to an ADC readout.  The
  photodetector is linear (Einstein's photoelectric effect), so a two-point
  calibration (minimum and maximum intensity) suffices.

The bias sweep of Figure 23 is reproduced by :func:`sweep_bias`: driving
the bias from -9 V to +9 V with zero signal reveals the sinusoidal
transfer, whose minimum is the max-extinction operating point at which
both modulators are locked during computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .converters import ADC, DAC, RFAmplifier
from .devices import Laser, MachZehnderModulator, Photodetector

__all__ = [
    "BiasSweepResult",
    "sweep_bias",
    "find_max_extinction_bias",
    "ModulatorTransferFit",
    "fit_modulator_transfer",
    "PhotodetectorDecoder",
    "calibrate_photodetector",
    "CalibratedEncoder",
]


@dataclass(frozen=True)
class BiasSweepResult:
    """Readouts of a modulator bias sweep (Figure 23)."""

    bias_voltages: np.ndarray
    adc_readings: np.ndarray

    def max_extinction_bias(self) -> float:
        """The bias voltage at which the least light passes through.

        The ADC floor quantizes several neighbouring sweep points to the
        same minimum reading; among those ties the bias of smallest
        magnitude is chosen, which keeps the locked operating point at
        the transfer function's true null.
        """
        minimum = int(np.min(self.adc_readings))
        candidates = self.bias_voltages[self.adc_readings == minimum]
        return float(candidates[int(np.argmin(np.abs(candidates)))])

    def max_transmission_bias(self) -> float:
        """The bias voltage at which the most light passes through."""
        return float(self.bias_voltages[int(np.argmax(self.adc_readings))])

    def extinction_ratio(self) -> float:
        """Ratio of maximum to minimum readout (infinite when ideal)."""
        low = float(np.min(self.adc_readings))
        high = float(np.max(self.adc_readings))
        if low <= 0:
            return float("inf")
        return high / low


def sweep_bias(
    modulator: MachZehnderModulator,
    laser: Laser,
    photodetector: Photodetector,
    adc: ADC,
    start_volts: float = -9.0,
    stop_volts: float = 9.0,
    num_points: int = 181,
) -> BiasSweepResult:
    """Sweep the modulator bias and record the photodetector readout.

    Mirrors the prototype procedure: tap the modulator output, drive the
    bias across its range with zero signal voltage, and digitize what the
    photodetector sees.  The original bias voltage is restored afterwards.

    All points pass as one carrier of ``num_points`` samples: the bias
    grid drives the modulator as its signal on a bias of 0 V.  The
    modulator sums signal and bias, so each point sees ``b + 0.0``
    where a bias set to ``b`` under a zero signal sees ``0.0 + b``: the
    same voltage, bit for bit, and the same reading.
    """
    if num_points < 2:
        raise ValueError("a sweep needs at least two points")
    biases = np.linspace(start_volts, stop_volts, num_points)
    original_bias = modulator.bias_voltage
    try:
        modulator.set_bias(0.0)
        light = modulator.modulate(laser.emit(num_points), biases)
        readings = adc.digitize(photodetector.detect(light))
    finally:
        modulator.set_bias(original_bias)
    return BiasSweepResult(bias_voltages=biases, adc_readings=readings)


def find_max_extinction_bias(
    modulator: MachZehnderModulator,
    laser: Laser,
    photodetector: Photodetector,
    adc: ADC,
) -> float:
    """Locate and apply the max-extinction bias for a modulator."""
    sweep = sweep_bias(modulator, laser, photodetector, adc)
    bias = sweep.max_extinction_bias()
    modulator.set_bias(bias)
    return bias


@dataclass(frozen=True)
class ModulatorTransferFit:
    """Polynomial fit of ``f_MOD``: drive voltage -> intensity.

    ``coefficients`` are numpy polyfit coefficients (highest power first)
    over the encoding zone ``[0, v_max]``.  :meth:`voltage_for` inverts the
    fit by dense interpolation, clamping to the fitted range.
    """

    coefficients: np.ndarray
    v_max: float
    intensity_max: float

    def intensity_for(self, voltage: np.ndarray | float) -> np.ndarray:
        """Predicted output intensity for the given drive voltage(s)."""
        return np.polyval(self.coefficients, np.asarray(voltage, float))

    def voltage_for(self, intensity: np.ndarray | float) -> np.ndarray:
        """Drive voltage producing the requested intensity.

        Intensities are expressed as a fraction of the calibrated maximum
        and clipped to ``[0, 1]``.
        """
        target = np.clip(np.asarray(intensity, dtype=np.float64), 0.0, 1.0)
        grid_v = np.linspace(0.0, self.v_max, 4096)
        grid_i = np.clip(
            self.intensity_for(grid_v) / self.intensity_max, 0.0, 1.0
        )
        # The encoding zone is monotonic, but the polynomial fit can
        # wiggle slightly at the edges; enforce monotonicity for interp.
        grid_i = np.maximum.accumulate(grid_i)
        return np.interp(target, grid_i, grid_v)


def fit_modulator_transfer(
    modulator: MachZehnderModulator,
    laser: Laser,
    photodetector: Photodetector,
    v_max: float | None = None,
    num_points: int = 256,
    degree: int = 7,
) -> ModulatorTransferFit:
    """Fit ``f_MOD`` by sweeping drive voltages across the encoding zone.

    The encoding zone runs from 0 V (max extinction, assuming the bias is
    already locked there) to ``v_max`` — by default the modulator's
    half-wave voltage, where transmission peaks.
    """
    if v_max is None:
        v_max = modulator.v_pi
    if v_max <= 0:
        raise ValueError("encoding zone upper voltage must be positive")
    voltages = np.linspace(0.0, v_max, num_points)
    carrier = laser.emit(num_points)
    light = modulator.modulate(carrier, voltages)
    intensities = photodetector.detect(light)
    coefficients = np.polyfit(voltages, intensities, degree)
    return ModulatorTransferFit(
        coefficients=coefficients,
        v_max=float(v_max),
        intensity_max=float(intensities[-1]),
    )


@dataclass(frozen=True)
class PhotodetectorDecoder:
    """Linear decode map ``f_PD``: ADC readout -> normalized value.

    Built from a two-point calibration: the readout at zero light
    (``r_min``) and at full-scale light (``r_max``).
    """

    r_min: float
    r_max: float

    def __post_init__(self) -> None:
        if self.r_max <= self.r_min:
            raise ValueError("r_max must exceed r_min")

    def decode(self, readout: np.ndarray | float) -> np.ndarray:
        """Map raw readouts to the normalized [0, 1] value scale."""
        readout = np.asarray(readout, dtype=np.float64)
        return (readout - self.r_min) / (self.r_max - self.r_min)

    def decode_levels(
        self, readout: np.ndarray | float, max_level: int = 255
    ) -> np.ndarray:
        """Map raw readouts onto the 0..``max_level`` digital scale."""
        return self.decode(readout) * max_level


def calibrate_photodetector(
    photodetector: Photodetector,
    adc: ADC,
    laser: Laser,
    modulator: MachZehnderModulator,
    transfer: ModulatorTransferFit,
) -> PhotodetectorDecoder:
    """Two-point photodetector calibration through the full analog chain."""
    carrier = laser.emit(2)
    volts = np.array([0.0, transfer.v_max])
    light = modulator.modulate(carrier, volts)
    readings = adc.digitize(photodetector.detect(light))
    return PhotodetectorDecoder(
        r_min=float(readings[0]), r_max=float(readings[1])
    )


class CalibratedEncoder:
    """End-to-end digital-level encoder for one DAC -> modulator lane.

    Given the fitted modulator transfer and the DAC / RF-amplifier chain,
    :meth:`levels_for` computes the DAC code that makes the modulator
    transmission equal ``value / max_level`` — the linearization that lets
    cascaded modulators multiply digital operands (§2.1).
    """

    def __init__(
        self,
        dac: DAC,
        amplifier: RFAmplifier,
        transfer: ModulatorTransferFit,
        max_level: int = 255,
    ) -> None:
        if max_level < 1:
            raise ValueError("max level must be at least 1")
        self.dac = dac
        self.amplifier = amplifier
        self.transfer = transfer
        self.max_level = max_level

    def levels_for(self, values: np.ndarray) -> np.ndarray:
        """DAC codes whose analog output encodes ``values`` (0..max).

        ``values`` may be fractional; codes are rounded to the nearest
        representable DAC level and clipped to its range.
        """
        values = np.asarray(values, dtype=np.float64)
        if np.any(values < 0) or np.any(values > self.max_level):
            raise ValueError(
                f"values must lie in [0, {self.max_level}] before encoding"
            )
        target_intensity = values / self.max_level
        drive_volts = self.transfer.voltage_for(target_intensity)
        # Undo the RF amplifier, then the DAC's linear code->voltage map.
        dac_volts = (
            drive_volts - self.amplifier.common_mode_voltage
        ) / self.amplifier.gain
        codes = np.round(
            dac_volts / self.dac.full_scale_voltage * self.dac.max_level
        )
        return np.clip(codes, 0, self.dac.max_level).astype(np.int64)

    def drive_voltages(self, values: np.ndarray) -> np.ndarray:
        """The post-amplifier voltages that will reach the modulator."""
        codes = self.levels_for(values)
        return self.amplifier.amplify(self.dac.convert(codes))
