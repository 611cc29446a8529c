"""Tests for the Appendix-A calibration procedures."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.resilience import _WanderedModulator
from repro.photonics import (
    ADC,
    DAC,
    CalibratedEncoder,
    Laser,
    MachZehnderModulator,
    Photodetector,
    RFAmplifier,
    calibrate_photodetector,
    find_max_extinction_bias,
    fit_modulator_transfer,
    sweep_bias,
)


@pytest.fixture()
def bench():
    """A minimal calibration bench: laser, MZM, PD, ADC."""
    return dict(
        laser=Laser(wavelength_nm=1550.0),
        mod=MachZehnderModulator(v_pi=5.0),
        pd=Photodetector(),
        adc=ADC(bits=8),
    )


class TestBiasSweep:
    def test_sweep_shape(self, bench):
        result = sweep_bias(
            bench["mod"], bench["laser"], bench["pd"], bench["adc"],
            num_points=37,
        )
        assert len(result.bias_voltages) == 37
        assert len(result.adc_readings) == 37

    def test_max_extinction_at_transfer_null(self, bench):
        result = sweep_bias(
            bench["mod"], bench["laser"], bench["pd"], bench["adc"]
        )
        # Transmission nulls sit at multiples of 2*v_pi = 10 V; within
        # [-9, 9] the null is at 0 V.
        assert result.max_extinction_bias() == pytest.approx(0.0, abs=0.2)

    def test_max_transmission_at_half_wave(self, bench):
        result = sweep_bias(
            bench["mod"], bench["laser"], bench["pd"], bench["adc"]
        )
        assert abs(result.max_transmission_bias()) == pytest.approx(
            5.0, abs=0.2
        )

    def test_extinction_ratio_infinite_for_ideal_modulator(self, bench):
        result = sweep_bias(
            bench["mod"], bench["laser"], bench["pd"], bench["adc"]
        )
        assert result.extinction_ratio() == float("inf")

    def test_extinction_ratio_finite_with_residual(self, bench):
        leaky = MachZehnderModulator(v_pi=5.0, extinction_residual=0.05)
        result = sweep_bias(leaky, bench["laser"], bench["pd"], bench["adc"])
        ratio = result.extinction_ratio()
        assert 10 < ratio < 30  # ~1/0.05 = 20, quantized

    def test_sweep_restores_original_bias(self, bench):
        bench["mod"].set_bias(2.5)
        sweep_bias(bench["mod"], bench["laser"], bench["pd"], bench["adc"])
        assert bench["mod"].bias_voltage == 2.5

    def test_find_max_extinction_applies_bias(self, bench):
        bench["mod"].set_bias(3.0)
        bias = find_max_extinction_bias(
            bench["mod"], bench["laser"], bench["pd"], bench["adc"]
        )
        assert bench["mod"].bias_voltage == bias
        assert bias == pytest.approx(0.0, abs=0.2)

    def test_too_few_points_rejected(self, bench):
        with pytest.raises(ValueError, match="two points"):
            sweep_bias(
                bench["mod"], bench["laser"], bench["pd"], bench["adc"],
                num_points=1,
            )


def swept_point_by_point(modulator, laser, photodetector, adc, points):
    """The sweep one bias at a time: set it, send one zero-signal
    sample, read the ADC; then restore the bias."""
    biases = np.linspace(-9.0, 9.0, points)
    original = modulator.bias_voltage
    readings = []
    for bias in biases:
        modulator.set_bias(float(bias))
        light = modulator.modulate(laser.emit(1), np.zeros(1))
        readings.append(adc.digitize(photodetector.detect(light))[0])
    modulator.set_bias(original)
    return biases, np.array(readings, dtype=np.int64)


class TestOnePassSweep:
    """``sweep_bias`` drives every point as one carrier; its readings
    are the per-point loop's, on a plain and on a wandered modulator."""

    @settings(max_examples=150, deadline=None)
    @given(
        offset=st.floats(-15.0, 15.0),
        v_pi=st.floats(0.5, 12.0),
        residual=st.floats(0.0, 0.9),
        bias=st.floats(-9.0, 9.0),
        points=st.integers(2, 400),
        wandered=st.booleans(),
    )
    def test_readings_equal_the_point_loop(
        self, offset, v_pi, residual, bias, points, wandered
    ):
        chain = (Laser(wavelength_nm=1550.0), Photodetector(), ADC(bits=8))

        def modulator():
            if wandered:
                device = _WanderedModulator(offset, v_pi=v_pi)
            else:
                device = MachZehnderModulator(
                    v_pi=v_pi, extinction_residual=residual
                )
            device.set_bias(bias)
            return device

        ours = modulator()
        result = sweep_bias(ours, *chain, num_points=points)
        biases, readings = swept_point_by_point(modulator(), *chain, points)
        assert result.bias_voltages.tobytes() == biases.tobytes()
        assert result.adc_readings.dtype == readings.dtype
        assert result.adc_readings.tobytes() == readings.tobytes()
        assert ours.bias_voltage == bias


class TestModulatorTransferFit:
    def test_fit_matches_true_transfer(self, bench):
        fit = fit_modulator_transfer(bench["mod"], bench["laser"], bench["pd"])
        volts = np.linspace(0.0, 5.0, 21)
        true = bench["mod"].transmission(volts)
        assert np.allclose(fit.intensity_for(volts), true, atol=1e-3)

    def test_inverse_round_trips(self, bench):
        fit = fit_modulator_transfer(bench["mod"], bench["laser"], bench["pd"])
        targets = np.linspace(0.0, 1.0, 17)
        volts = fit.voltage_for(targets)
        recovered = np.clip(fit.intensity_for(volts) / fit.intensity_max, 0, 1)
        assert np.allclose(recovered, targets, atol=5e-3)

    def test_inverse_clamps_out_of_range(self, bench):
        fit = fit_modulator_transfer(bench["mod"], bench["laser"], bench["pd"])
        assert float(fit.voltage_for(1.5)) <= fit.v_max
        assert float(fit.voltage_for(-0.5)) >= 0.0

    def test_custom_encoding_zone(self, bench):
        fit = fit_modulator_transfer(
            bench["mod"], bench["laser"], bench["pd"], v_max=2.5
        )
        assert fit.v_max == 2.5
        assert fit.intensity_max == pytest.approx(
            float(bench["mod"].transmission(2.5)), abs=1e-6
        )


class TestPhotodetectorDecoder:
    def test_two_point_decode(self, bench):
        fit = fit_modulator_transfer(bench["mod"], bench["laser"], bench["pd"])
        decoder = calibrate_photodetector(
            bench["pd"], bench["adc"], bench["laser"], bench["mod"], fit
        )
        assert decoder.decode(decoder.r_min) == pytest.approx(0.0)
        assert decoder.decode(decoder.r_max) == pytest.approx(1.0)

    def test_decode_levels_scale(self, bench):
        fit = fit_modulator_transfer(bench["mod"], bench["laser"], bench["pd"])
        decoder = calibrate_photodetector(
            bench["pd"], bench["adc"], bench["laser"], bench["mod"], fit
        )
        mid = (decoder.r_min + decoder.r_max) / 2
        assert decoder.decode_levels(mid) == pytest.approx(127.5)

    def test_degenerate_decoder_rejected(self):
        from repro.photonics import PhotodetectorDecoder

        with pytest.raises(ValueError, match="exceed"):
            PhotodetectorDecoder(r_min=10.0, r_max=10.0)


class TestCalibratedEncoder:
    def test_end_to_end_linearization(self, bench):
        """The whole point of calibration: after encoding, the light
        intensity out of the modulator is proportional to the value."""
        dac = DAC(full_scale_voltage=1.0)
        amp = RFAmplifier(gain=5.0)
        fit = fit_modulator_transfer(bench["mod"], bench["laser"], bench["pd"])
        encoder = CalibratedEncoder(dac, amp, fit)
        values = np.arange(0, 256, 15)
        volts = encoder.drive_voltages(values)
        carrier = bench["laser"].emit(len(values))
        light = bench["mod"].modulate(carrier, volts)
        intensities = light.channel(1550.0)
        assert np.allclose(intensities * 255, values, atol=1.5)

    def test_out_of_range_values_rejected(self, bench):
        dac = DAC()
        amp = RFAmplifier(gain=5.0)
        fit = fit_modulator_transfer(bench["mod"], bench["laser"], bench["pd"])
        encoder = CalibratedEncoder(dac, amp, fit)
        with pytest.raises(ValueError, match="before encoding"):
            encoder.levels_for(np.array([300.0]))

    def test_codes_within_dac_range(self, bench):
        dac = DAC(bits=8)
        amp = RFAmplifier(gain=5.0)
        fit = fit_modulator_transfer(bench["mod"], bench["laser"], bench["pd"])
        encoder = CalibratedEncoder(dac, amp, fit)
        codes = encoder.levels_for(np.arange(256))
        assert codes.min() >= 0 and codes.max() <= 255
        # Monotone: larger values need larger drive codes.
        assert np.all(np.diff(codes) >= 0)
