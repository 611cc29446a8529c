"""Tests for the watchdog, retry policy, and core health tracking."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.faults import (
    CORE_STATES,
    CalibrationWatchdog,
    CoreHealth,
    LaserPowerDrift,
    DegradedCore,
    MZMBiasDrift,
    PhotodetectorSaturation,
    RetryPolicy,
    StuckBit,
)
from repro.photonics import (
    BehavioralCore,
    CompositeNoise,
    CoreArchitecture,
    PrototypeCore,
    ShotNoise,
    ThermalNoise,
)
from repro.photonics.noise import PROTOTYPE_NOISE_STD


class TestCoreHealth:
    def test_defaults_healthy_and_usable(self):
        health = CoreHealth()
        assert health.state == "healthy"
        assert health.usable

    @pytest.mark.parametrize("state", CORE_STATES[1:])
    def test_only_healthy_is_usable(self, state):
        assert not CoreHealth(state=state).usable

    def test_rejects_unknown_state(self):
        with pytest.raises(ValueError, match="unknown core state"):
            CoreHealth(state="tired")


class TestRetryPolicy:
    def test_linear_backoff(self):
        policy = RetryPolicy(max_retries=3, backoff_s=2e-6)
        assert policy.delay(1) == pytest.approx(2e-6)
        assert policy.delay(3) == pytest.approx(6e-6)

    def test_attempts_count_from_one(self):
        with pytest.raises(ValueError, match="counted from 1"):
            RetryPolicy().delay(0)

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1.0)


class TestCalibrationWatchdog:
    def test_healthy_behavioral_core_sits_at_the_noise_floor(self):
        watchdog = CalibrationWatchdog()
        core = BehavioralCore(
            architecture=CoreArchitecture(accumulation_wavelengths=2),
            seed=3,
        )
        result = watchdog.check(0, core)
        assert result.healthy
        # Per-readout RMS of calibrated noise: near sqrt(mu^2 + sigma^2)
        # (the probe error includes the systematic mean offset).
        assert result.error_rms < watchdog.threshold

    def test_probes_device_accurate_core_via_mac(self):
        """A matmul-less core's zero-padded ``accumulate`` steps, summed
        digitally, read :meth:`PrototypeCore.mac` bit for bit."""
        watchdog = CalibrationWatchdog(num_probes=2, probe_length=9)
        result = watchdog.check(1, PrototypeCore(seed=5))
        assert result.core == 1
        twin = PrototypeCore(seed=5)
        measured = np.array([
            twin.mac(a, b) for a, b in zip(watchdog.probe_a, watchdog.probe_b)
        ])
        by_mac = np.sqrt(
            np.mean((measured - watchdog.expected) ** 2)
        ) / math.sqrt(5)  # ceil(9 / 2) readouts
        assert result.error_rms.hex() == float(by_mac).hex()

    def test_drifted_core_trips_the_threshold(self):
        watchdog = CalibrationWatchdog()
        wrapped = DegradedCore(
            BehavioralCore(
                architecture=CoreArchitecture(accumulation_wavelengths=2),
                seed=3,
            )
        )
        wrapped.install(LaserPowerDrift(onset_s=0.0, fraction_per_s=0.1))
        wrapped.set_time(5.0)  # 50% power loss: large systematic error
        result = watchdog.check(0, wrapped)
        assert not result.healthy
        assert result.error_rms > watchdog.threshold

    @pytest.mark.parametrize(
        "fault",
        [
            None,
            LaserPowerDrift(onset_s=1e-4, fraction_per_s=400.0),
            MZMBiasDrift(onset_s=1e-4, volts_per_s=2000.0),
            PhotodetectorSaturation(onset_s=1e-4, saturation_level=60.0),
            StuckBit(onset_s=1e-4, bit=4, stuck_to=1),
        ],
        ids=["healthy", "laser", "bias", "saturation", "stuck"],
    )
    @pytest.mark.parametrize("now_s", [0.0, 3e-4])
    @pytest.mark.parametrize("remove_mean", [True, False])
    def test_one_stacked_product_is_the_per_pair_calls(
        self, fault, now_s, remove_mean
    ):
        """The probe's one stacked ``matmul`` reads what one call per
        probe pair reads, and leaves the stream where they leave it."""
        watchdog = CalibrationWatchdog()

        def core():
            inner = BehavioralCore(remove_mean=remove_mean, seed=7)
            if fault is None:
                return inner
            return DegradedCore(inner, [fault], now_s=now_s)

        ours, theirs = core(), core()
        for each in (ours, theirs):
            each.reseed_noise(0xC4, 1, 2)
        measured = np.array([
            theirs.matmul(a[None, :], b[:, None])[0, 0]
            for a, b in zip(watchdog.probe_a, watchdog.probe_b)
        ])
        per_pair = np.sqrt(
            np.mean((measured - watchdog.expected) ** 2)
        ) / math.sqrt(32)  # 64 elements on two wavelengths
        assert watchdog.probe(ours).hex() == float(per_pair).hex()
        assert repr(ours.stream.bit_generator.state) == repr(
            theirs.stream.bit_generator.state
        )

    def test_stream_inequivalent_noise_keeps_the_per_pair_calls(self):
        noise = CompositeNoise(ShotNoise(), ThermalNoise(std=0.5))
        ours, theirs = (
            BehavioralCore(noise=noise, seed=2) for _ in range(2)
        )
        watchdog = CalibrationWatchdog()
        measured = np.array([
            theirs.matmul(a[None, :], b[:, None])[0, 0]
            for a, b in zip(watchdog.probe_a, watchdog.probe_b)
        ])
        per_pair = np.sqrt(
            np.mean((measured - watchdog.expected) ** 2)
        ) / math.sqrt(32)
        assert watchdog.probe(ours).hex() == float(per_pair).hex()

    def test_probe_set_is_fixed_by_seed(self):
        a = CalibrationWatchdog(seed=2)
        b = CalibrationWatchdog(seed=2)
        assert (a.probe_a == b.probe_a).all()
        assert (a.expected == b.expected).all()

    def test_default_threshold_is_three_sigma(self):
        assert CalibrationWatchdog().threshold == pytest.approx(
            3.0 * PROTOTYPE_NOISE_STD
        )

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            CalibrationWatchdog(interval_s=0.0)
        with pytest.raises(ValueError):
            CalibrationWatchdog(threshold=0.0)
        with pytest.raises(ValueError):
            CalibrationWatchdog(num_probes=0)
