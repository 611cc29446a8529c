"""Health monitoring and graceful degradation policies.

The serving cluster stays up by *measuring* its cores instead of
trusting them:

* :class:`CalibrationWatchdog` — periodically pushes known probe
  vectors through each core's photonic path and compares the readouts
  against the exact digital result.  A healthy core's per-readout RMS
  error sits at the calibrated noise floor (std 1.65 on the 0..255
  scale, Figure 18); a drifted or damaged core's error grows past the
  quarantine threshold and the cluster stops dispatching to it.
* :class:`RetryPolicy` — requests lost to a crashed or stalled core are
  re-enqueued with a backoff, at most ``max_retries`` times, then
  counted as failed (never silently lost).
* :class:`BiasRelockController` — turns quarantine from a terminal
  state into a repair loop: a quarantined core's drifted MZMs are swept
  exactly like :meth:`repro.devkit.LightningDevKit.sweep_bias` does
  (Figure 23), the max-extinction bias is re-applied, and if the next
  calibration probe passes the core rejoins the scheduler's healthy
  set.  Faults a servo cannot fix (dim lasers, stuck bits, saturation)
  fail the re-probe and the core stays quarantined after
  ``max_attempts``.
* :class:`CoreHealth` — one core's observed state, reported through
  :class:`~repro.core.stats.ServerStats` for operator dashboards.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from ..core.plans import supports_matmul
from ..devkit import LightningDevKit
from ..photonics.core import PrototypeCore
from ..photonics.devices import MachZehnderModulator
from ..photonics.noise import FULL_SCALE, PROTOTYPE_NOISE_STD

__all__ = [
    "CORE_STATES",
    "CoreHealth",
    "RetryPolicy",
    "ProbeResult",
    "CalibrationWatchdog",
    "RelockReport",
    "BiasRelockController",
]

#: Observable states of one serving core.  "recalibrating" is the
#: re-lock loop's intermediate state: the core is out of service while
#: its modulator biases are being swept, pending a confirming probe.
CORE_STATES = (
    "healthy", "stalled", "quarantined", "crashed", "recalibrating"
)


@dataclass
class CoreHealth:
    """One core's monitored condition."""

    state: str = "healthy"
    error_rms: float = 0.0
    probes: int = 0
    quarantined_at_s: float | None = None
    #: Times the core returned to service after a successful re-lock.
    relocks: int = 0
    #: Virtual time of the most recent successful re-lock.
    relocked_at_s: float | None = None

    def __post_init__(self) -> None:
        if self.state not in CORE_STATES:
            raise ValueError(
                f"unknown core state {self.state!r}; choose from "
                f"{CORE_STATES}"
            )

    @property
    def usable(self) -> bool:
        """True while the cluster may dispatch new work to the core."""
        return self.state == "healthy"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry-with-backoff for requests lost to core faults."""

    max_retries: int = 2
    backoff_s: float = 0.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.backoff_s < 0:
            raise ValueError("backoff cannot be negative")

    def delay(self, attempt: int) -> float:
        """Backoff before re-enqueueing the ``attempt``-th retry
        (linear: the schedule stays deterministic and bounded)."""
        if attempt < 1:
            raise ValueError("attempts are counted from 1")
        return self.backoff_s * attempt


@dataclass(frozen=True)
class ProbeResult:
    """One watchdog probe of one core."""

    core: int
    error_rms: float
    healthy: bool


class CalibrationWatchdog:
    """Probes cores with known vectors and quarantines drifted ones.

    The probe set is fixed at construction (deterministic levels drawn
    once from ``seed``), so every probe of a healthy core measures the
    same statistic: the per-readout RMS analog error.  The default
    threshold is ``3x`` the prototype's calibrated noise std — a
    healthy core sits at ~1.65, so tripping at 4.95 keeps the false
    quarantine rate negligible while catching drift well before it
    costs whole-model accuracy.  That default is the behavioural
    core's: a healthy device-accurate :class:`PrototypeCore` probes at
    ~13.0, so a cluster of them needs a threshold of its own.

    By default quarantine is terminal.  Passing a
    :class:`BiasRelockController` as ``relock`` turns the watchdog into
    a repair loop: the serving cluster responds to each quarantine by
    sweeping the core's drifted modulator biases, re-probing, and
    returning the core to the healthy set when the probe passes.
    """

    def __init__(
        self,
        interval_s: float = 100e-6,
        threshold: float = 3.0 * PROTOTYPE_NOISE_STD,
        num_probes: int = 8,
        probe_length: int = 64,
        seed: int = 0,
        relock: "BiasRelockController | None" = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("probe interval must be positive")
        if threshold <= 0:
            raise ValueError("quarantine threshold must be positive")
        if num_probes < 1:
            raise ValueError("need at least one probe vector")
        if probe_length < 1:
            raise ValueError("probe vectors need at least one element")
        self.interval_s = interval_s
        self.threshold = threshold
        self.relock = relock
        rng = np.random.default_rng((seed, 0xCAFE))
        self.probe_a = rng.integers(
            0, 256, size=(num_probes, probe_length)
        ).astype(np.float64)
        self.probe_b = rng.integers(
            0, 256, size=(num_probes, probe_length)
        ).astype(np.float64)
        #: Exact digital dot products the analog readouts should match.
        self.expected = (
            np.einsum("ij,ij->i", self.probe_a, self.probe_b) / FULL_SCALE
        )

    def probe(self, core) -> float:
        """Per-readout RMS error of one core against the probe set.

        A core with whole-layer products (:func:`supports_matmul`,
        which a fault wrapper forwards) answers through one stacked
        ``matmul`` of the probe pairs, the stream and the bytes of one
        call per pair (noise that is not stream-equivalent keeps the
        calls); any other core through ``accumulate`` over zero-padded,
        wavelength-wide steps summed digitally — the arithmetic of
        :meth:`PrototypeCore.mac`, through the entry point a
        :class:`~repro.faults.device.DegradedCore` perturbs per
        readout.  The error is normalized by ``sqrt(readouts)`` so the
        healthy value equals the per-readout noise std no matter the
        probe length.
        """
        length = self.probe_a.shape[1]
        wavelengths = core.architecture.accumulation_wavelengths
        readouts = math.ceil(length / wavelengths)
        if not supports_matmul(core):
            pad = ((0, 0), (0, readouts * wavelengths - length))
            steps = (len(self.probe_a), readouts, wavelengths)
            a_steps = np.pad(self.probe_a, pad).reshape(steps)
            b_steps = np.pad(self.probe_b, pad).reshape(steps)
            measured = np.array([
                np.sum(core.accumulate(a, b))
                for a, b in zip(a_steps, b_steps)
            ])
        elif getattr(
            getattr(core, "noise", None), "stream_equivalent", True
        ):
            measured = core.matmul(
                self.probe_a[:, None, :], self.probe_b[:, :, None]
            )[:, 0, 0]
        else:
            measured = np.array([
                core.matmul(a[None, :], b[:, None])[0, 0]
                for a, b in zip(self.probe_a, self.probe_b)
            ])
        errors = measured - self.expected
        return float(
            np.sqrt(np.mean(errors**2)) / math.sqrt(readouts)
        )

    def check(self, core_index: int, core) -> ProbeResult:
        """Probe one core and judge it against the threshold."""
        error_rms = self.probe(core)
        return ProbeResult(
            core=core_index,
            error_rms=error_rms,
            healthy=error_rms <= self.threshold,
        )


@dataclass(frozen=True)
class RelockReport:
    """Outcome of one re-lock pass over a quarantined core."""

    core: int
    #: Relockable faults that were swept and re-based.
    relocked: int
    #: Installed faults a bias servo cannot correct.
    uncorrectable: int
    #: Signed bias error remaining after each re-lock, in install order
    #: (sweep grid / ADC-floor resolution limits; forwarded to parallel
    #: workers so both replicas resume from the identical residual).
    residual_volts: tuple[float, ...]
    #: Virtual seconds the sweeps occupied the core.
    duration_s: float


class _WanderedModulator:
    """A modulator whose physical operating point drifted off null.

    Emulates the device a bias controller actually faces: thermal or
    charge drift shifted the interferometer phase by ``offset_volts``
    worth of bias, so the extinction point now sits at ``-offset_volts``
    on the applied-bias axis.  Everything else matches
    :class:`~repro.photonics.devices.MachZehnderModulator`, so the
    Figure-23 sweep machinery drives it unchanged.
    """

    def __init__(self, offset_volts: float, v_pi: float = 5.0) -> None:
        self._inner = MachZehnderModulator(v_pi=v_pi)
        self.offset_volts = float(offset_volts)

    @property
    def bias_voltage(self) -> float:
        return self._inner.bias_voltage

    @property
    def v_pi(self) -> float:
        return self._inner.v_pi

    def set_bias(self, bias_voltage: float) -> None:
        self._inner.set_bias(bias_voltage)

    def modulate(self, carrier, signal_voltage):
        original = self._inner.bias_voltage
        self._inner.set_bias(original + self.offset_volts)
        try:
            return self._inner.modulate(carrier, signal_voltage)
        finally:
            self._inner.set_bias(original)


class BiasRelockController:
    """Re-locks drifted MZM bias points on a quarantined core.

    Runs the dev kit's bias-configuration procedure (use case iii of
    :class:`repro.devkit.LightningDevKit`) against each relockable
    fault: sweep the wandered modulator across ±9 V with the same
    laser/photodetector/8-bit-ADC chain
    (:func:`repro.photonics.calibration.sweep_bias`), pick
    :meth:`~repro.photonics.calibration.BiasSweepResult.max_extinction_bias`,
    and apply it.  The fault is then re-based at the achieved operating
    point: its accumulated error collapses to the sweep's residual (the
    grid step and ADC floor leave up to ~0.15 V of undetectable offset)
    and drift resumes from there.

    The controller is policy-free about *when* to run — the serving
    cluster schedules a re-lock ``sweep_duration_s`` after quarantine
    and re-probes the core afterwards, admitting it back to the healthy
    set only on a passing probe.  ``max_attempts`` bounds how many
    quarantine→re-lock cycles one core gets before quarantine becomes
    permanent (uncorrectable faults fail the re-probe every time).
    """

    #: Points in the dev kit's Figure-23 sweep (its -9..9 V default).
    SWEEP_POINTS = 181

    def __init__(
        self,
        max_attempts: int = 2,
        point_time_s: float = 100e-9,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("a re-lock loop needs at least one attempt")
        if point_time_s <= 0:
            raise ValueError("per-point sweep time must be positive")
        self.max_attempts = max_attempts
        self.point_time_s = point_time_s
        self._kit = None
        # One controller is commonly shared by every shard of a fabric
        # (via a shared watchdog), and concurrent shard serving runs
        # re-locks from shard threads; the cached dev kit's lane 0 is
        # the sweep mount, so sweeps must not interleave.  The sweep is
        # a pure function of the fault's offset, so serializing them
        # changes nothing observable.
        self._sweep_lock = threading.Lock()

    @property
    def sweep_duration_s(self) -> float:
        """Virtual time one modulator sweep occupies the core."""
        return self.SWEEP_POINTS * self.point_time_s

    def relock_core(self, core_index: int, core, now_s: float) -> RelockReport:
        """Sweep and re-base every relockable fault on one core.

        ``core`` is the (possibly wrapped) core object the datapath
        executes on; cores without a fault wrapper have nothing to
        re-lock and report zero work.
        """
        relockable = (
            core.relockable_faults()
            if hasattr(core, "relockable_faults")
            else []
        )
        total_faults = len(getattr(core, "faults", ()))
        residuals = []
        for fault in relockable:
            residuals.append(self._relock_fault(fault, now_s))
        return RelockReport(
            core=core_index,
            relocked=len(relockable),
            uncorrectable=total_faults - len(relockable),
            residual_volts=tuple(residuals),
            duration_s=self.sweep_duration_s * max(len(relockable), 1),
        )

    def _devkit(self):
        """A cached dev-kit handle whose lane 0 hosts the sweep target."""
        if self._kit is None:
            self._kit = LightningDevKit(
                core=PrototypeCore(num_wavelengths=1)
            )
        return self._kit

    def _relock_fault(self, fault, now_s: float) -> float:
        """One Figure-23 sweep: find and apply the wandered null.

        The wandered modulator is mounted on the dev kit's lane 0 and
        swept through :meth:`LightningDevKit.sweep_bias` — the same
        bias-configuration call the Appendix-G notebook uses — so the
        repair loop exercises the real operator procedure end to end.
        """
        offset = fault.bias_error_volts(now_s)
        with self._sweep_lock:
            kit = self._devkit()
            lane = kit.core.lanes[0]
            original = lane.mod_a
            lane.mod_a = _WanderedModulator(offset, v_pi=fault.v_pi)
            try:
                sweep = kit.sweep_bias(lane=0, which="a")
            finally:
                lane.mod_a = original
        applied = sweep.max_extinction_bias()
        # The new operating point sits ``applied`` away from nominal;
        # the physical phase offset remains, so the leftover bias error
        # is their sum (zero iff the sweep hit the null exactly).  The
        # transfer function repeats every ``2 * v_pi``, so a sweep that
        # settles on a neighbouring null is just as dark — fold the
        # residual onto the principal branch ``[-v_pi, v_pi)`` so the
        # re-based drift resumes from the physically equivalent error.
        period = 2.0 * fault.v_pi
        residual = (offset + applied + fault.v_pi) % period - fault.v_pi
        fault.relock(now_s, residual_volts=residual)
        return residual
