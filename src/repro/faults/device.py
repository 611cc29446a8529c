"""Time-parameterized analog device faults.

The paper's accuracy claims rest on a *calibrated* analog path: the
measured error model of Figure 18 (Gaussian, mean 2.32, std 1.65 on the
0..255 scale) holds only while lasers hold power, modulator bias points
sit at max extinction, and converters behave.  This module expresses
the dominant deployment-time failure modes as perturbations of the
existing photonics models, each parameterized by elapsed time since an
onset so that drift *accumulates* the way real devices wander:

* :class:`LaserPowerDrift` — carrier power decays, scaling every
  photonic product down (a gain error calibration cannot see);
* :class:`MZMBiasDrift` — the modulator bias walks off the
  max-extinction point of Figure 23, leaking a growing additive offset
  into every readout;
* :class:`PhotodetectorSaturation` — readouts clip at a saturation
  level, flattening large dot products;
* :class:`StuckBit` — a DAC/ADC data bit sticks, corrupting the 8-bit
  readout code deterministically.

:class:`DegradedCore` composes any number of these around a
:class:`~repro.photonics.core.BehavioralCore`-compatible core.  It
preserves the core interface compiled plans use (``architecture``,
``accumulate``, ``accumulate_into``, ``matmul``), so a fault can be
installed on a *live* serving core — the cluster wraps a core's
datapath in place when a scheduled device fault fires — and the
calibration watchdog can measure the degradation through the same
interface it probes healthy cores with.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..core.plans import supports_matmul, tape_law
from ..photonics.core import BehavioralCore
from ..photonics.noise import FULL_SCALE
from .schedule import DEVICE_FAULT_KINDS, FaultEvent

#: ``(now_s, rows)`` groups along a block's leading axis, and the
#: in-place ``(values, readouts)`` map a fault makes of them.
Clock = Sequence[tuple[float, int]]
RowsMap = Callable[[np.ndarray, int], None]

__all__ = [
    "DeviceFault",
    "LaserPowerDrift",
    "MZMBiasDrift",
    "PhotodetectorSaturation",
    "StuckBit",
    "DegradedCore",
    "device_fault_from_event",
]


class DeviceFault:
    """One analog fault: a time-parameterized readout perturbation.

    ``perturb`` maps clean aggregate values to faulty ones.
    ``readouts`` is how many ADC readouts the aggregate digitally sums
    (1 for a single accumulate step, ``ceil(k / N)`` for a dot product
    of inner size ``k`` on ``N`` wavelengths) so per-readout effects
    scale correctly.
    """

    #: Whether a bias re-lock (sweep + set_bias) can cancel the fault's
    #: accumulated error.  Only bias-point wander is servo-correctable;
    #: dim lasers, saturated detectors and stuck converter bits are not.
    relockable = False

    def __init__(self, onset_s: float = 0.0) -> None:
        if onset_s < 0:
            raise ValueError("fault onset cannot be negative")
        self.onset_s = onset_s

    def elapsed(self, now_s: float) -> float:
        """Seconds the fault has been acting (0 before onset)."""
        return max(0.0, now_s - self.onset_s)

    def perturb(
        self, values: np.ndarray, readouts: int, now_s: float
    ) -> np.ndarray:
        """Map clean aggregate values to faulty ones at ``now_s``."""
        raise NotImplementedError

    def rows_map(self, clock: Clock) -> RowsMap:
        """:meth:`perturb` over a block whose leading axis runs through
        ``clock``'s ``(now_s, rows)`` groups: a callable ``(values,
        readouts)`` that perturbs the block in place, every row at its
        group's time and rows before onset untouched — the bytes of
        :meth:`perturb` row by row, as :class:`DegradedCore` applies
        it — with the per-group terms laid out once per block."""
        raise NotImplementedError

    def _static_rows_map(self, clock: Clock) -> RowsMap:
        """:meth:`rows_map` of a fault whose map does not move once it
        has begun: one :meth:`perturb` of every row past onset."""
        active = _per_row(clock, lambda now_s: now_s >= self.onset_s)

        def apply(values, readouts):
            if active.all():
                values[...] = self.perturb(values, readouts, self.onset_s)
            elif active.any():
                values[active] = self.perturb(
                    values[active], readouts, self.onset_s
                )

        return apply

    def describe(self) -> str:
        """A short human-readable tag for traces and reports."""
        return type(self).__name__


def _per_row(clock: Clock, term: Callable[[float], float]) -> np.ndarray:
    """``term`` of each group's time, repeated over the group's rows."""
    return np.repeat(
        [term(now_s) for now_s, _ in clock], [rows for _, rows in clock]
    )


def _column(per_row: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A per-row array shaped to broadcast over ``values``' rows."""
    return per_row.reshape((-1,) + (1,) * (values.ndim - 1))


class LaserPowerDrift(DeviceFault):
    """Carrier power decays by ``fraction_per_s`` of nominal per second.

    Every photonic product is proportional to laser intensity, so a
    dimmed carrier scales all readouts by the same gain — a systematic
    multiplicative error the two-point decode calibration (done at
    nominal power) no longer corrects.
    """

    def __init__(
        self, onset_s: float = 0.0, fraction_per_s: float = 0.0
    ) -> None:
        super().__init__(onset_s)
        if fraction_per_s < 0:
            raise ValueError("drift rate cannot be negative")
        self.fraction_per_s = fraction_per_s

    def gain(self, now_s: float) -> float:
        """Remaining carrier power as a fraction of nominal."""
        return max(0.0, 1.0 - self.fraction_per_s * self.elapsed(now_s))

    def perturb(self, values, readouts, now_s):
        return values * self.gain(now_s)

    def rows_map(self, clock):
        # Before onset the gain is exactly 1.0, which keeps every byte.
        gains = _per_row(clock, self.gain)

        def apply(values, readouts):
            values *= _column(gains, values)

        return apply


class MZMBiasDrift(DeviceFault):
    """The modulator bias point wanders off max extinction.

    A bias error ``b(t) = b_residual + volts_per_s * t`` away from the
    extinction point leaks ``sin^2(pi/2 * b / v_pi)`` of the carrier
    through a nominally-dark modulator (the Appendix A transfer
    function), adding a growing offset to every readout — exactly the
    failure the bias controller of Figure 23 exists to servo away.

    Because the failure is a wandered operating point rather than a
    damaged device, it is *relockable*: :meth:`relock` re-bases the
    drift at a freshly servoed bias (found by a Figure-23 sweep), after
    which the error re-accumulates from whatever residual the sweep's
    finite ADC/grid resolution left behind.
    """

    relockable = True

    def __init__(
        self,
        onset_s: float = 0.0,
        volts_per_s: float = 0.0,
        v_pi: float = 5.0,
    ) -> None:
        super().__init__(onset_s)
        if volts_per_s < 0:
            raise ValueError("bias drift rate cannot be negative")
        if v_pi <= 0:
            raise ValueError("half-wave voltage must be positive")
        self.volts_per_s = volts_per_s
        self.v_pi = v_pi
        self.residual_volts = 0.0

    def bias_error_volts(self, now_s: float) -> float:
        """Signed offset from the extinction point at ``now_s``."""
        return self.residual_volts + self.volts_per_s * self.elapsed(now_s)

    def leakage_levels(self, now_s: float) -> float:
        """Per-readout additive offset, on the 0..255 scale."""
        bias_error = abs(self.bias_error_volts(now_s))
        transmission = math.sin(
            (math.pi / 2.0) * min(bias_error, self.v_pi) / self.v_pi
        ) ** 2
        return transmission * FULL_SCALE

    def relock(self, now_s: float, residual_volts: float = 0.0) -> None:
        """Re-base the drift at a freshly servoed operating point.

        Called by the re-lock controller after a bias sweep found and
        applied a new extinction bias at ``now_s``: the accumulated
        error collapses to ``residual_volts`` (the sweep grid/ADC-floor
        mismatch between the applied bias and the true null) and the
        physical drift process continues from there.
        """
        self.onset_s = float(now_s)
        self.residual_volts = float(residual_volts)

    def perturb(self, values, readouts, now_s):
        return values + self.leakage_levels(now_s) * readouts

    def rows_map(self, clock):
        # A row before onset adds -0.0, the sum that keeps every byte.
        leaks = _per_row(
            clock,
            lambda now_s: (
                self.leakage_levels(now_s) if now_s >= self.onset_s else -0.0
            ),
        )

        def apply(values, readouts):
            values += _column(leaks * readouts, values)

        return apply


class PhotodetectorSaturation(DeviceFault):
    """Readouts clip at ``saturation_level`` (0..255 per readout).

    An overdriven or degraded photodetector compresses large optical
    sums; digitally-composed aggregates clip at ``readouts x`` the
    per-readout ceiling.  Sign-separated negative partials clip
    symmetrically (the magnitude travels the analog path).
    """

    def __init__(
        self, onset_s: float = 0.0, saturation_level: float = FULL_SCALE
    ) -> None:
        super().__init__(onset_s)
        if saturation_level <= 0:
            raise ValueError("saturation level must be positive")
        self.saturation_level = saturation_level

    def perturb(self, values, readouts, now_s):
        if now_s < self.onset_s:
            return values
        ceiling = self.saturation_level * readouts
        return np.clip(values, -ceiling, ceiling)

    def rows_map(self, clock):
        return self._static_rows_map(clock)


class StuckBit(DeviceFault):
    """A converter data bit sticks at 0 or 1 in every 8-bit readout.

    The per-readout magnitude is quantized to its 8-bit code, the stuck
    bit is forced, and the aggregate is rebuilt — a deterministic,
    value-dependent corruption characteristic of DAC/ADC lane damage.
    """

    def __init__(
        self, onset_s: float = 0.0, bit: int = 0, stuck_to: int = 1
    ) -> None:
        super().__init__(onset_s)
        if not 0 <= bit <= 7:
            raise ValueError("stuck bit index must be in [0, 7]")
        if stuck_to not in (0, 1):
            raise ValueError("a bit sticks to 0 or 1")
        self.bit = bit
        self.stuck_to = stuck_to

    def perturb(self, values, readouts, now_s):
        if now_s < self.onset_s:
            return values
        values = np.asarray(values, dtype=np.float64)
        signs = np.where(values < 0, -1.0, 1.0)
        codes = np.clip(
            np.round(np.abs(values) / readouts), 0, FULL_SCALE
        ).astype(np.int64)
        mask = 1 << self.bit
        if self.stuck_to:
            codes = codes | mask
        else:
            codes = codes & ~mask
        return signs * codes.astype(np.float64) * readouts

    def rows_map(self, clock):
        return self._static_rows_map(clock)

    def describe(self) -> str:
        return f"StuckBit(bit={self.bit}, stuck_to={self.stuck_to})"


def device_fault_from_event(event: FaultEvent) -> DeviceFault:
    """Instantiate the :class:`DeviceFault` a schedule event describes."""
    if event.kind not in DEVICE_FAULT_KINDS:
        raise ValueError(f"{event.kind!r} is not a device fault")
    params = dict(event.params)
    if event.kind == "laser_drift":
        return LaserPowerDrift(event.time_s, **params)
    if event.kind == "mzm_bias_drift":
        return MZMBiasDrift(event.time_s, **params)
    if event.kind == "pd_saturation":
        return PhotodetectorSaturation(event.time_s, **params)
    return StuckBit(
        event.time_s,
        bit=int(params.get("bit", 0)),
        stuck_to=int(params.get("stuck_to", 1)),
    )


class DegradedCore:
    """A photonic core with installed analog faults.

    Wraps any core exposing the :class:`BehavioralCore` interface and
    applies every installed fault to each result, scaled by the number
    of ADC readouts the result digitally sums.  The wrapper carries its
    own clock (``now_s``), advanced by whoever owns the timeline — the
    serving cluster sets it to the virtual-clock dispatch time, so
    drift accumulates in *simulated* seconds, deterministically.

    The wrapper deliberately does not forward the wrapped core's
    ``row_granular_noise``: faults are nonlinear maps of individual
    readouts, which one summed draw per output row cannot reproduce,
    so dense layers on a degraded core keep one draw per readout.

    Faults draw nothing, so over a plain behavioural core the wrapper
    keeps the core's :meth:`tape_law` and the batch-major forward
    program runs it: dense layers tape one draw per readout, and every
    product is perturbed by :meth:`perturbation` at its own dispatch's
    time — which is what lets a serving loop defer a drifted core's
    numerics as it defers a healthy one's.  Over a device-accurate
    core, other noise models or overridden noise sites the program
    walks the rows through the entry points below.
    """

    def __init__(
        self,
        core,
        faults: tuple[DeviceFault, ...] | list[DeviceFault] = (),
        now_s: float = 0.0,
    ) -> None:
        if isinstance(core, DegradedCore):
            raise ValueError("core is already wrapped; use install()")
        self.core = core
        self.faults: list[DeviceFault] = list(faults)
        self.now_s = now_s

    @classmethod
    def ensure(cls, datapath) -> "DegradedCore":
        """Wrap ``datapath.core`` in place (idempotent).

        The datapath reads ``self.core`` on every execution, so
        swapping the attribute degrades a live core mid-run — the
        serving cluster uses this when a scheduled device fault fires.
        """
        if not isinstance(datapath.core, cls):
            datapath.core = cls(datapath.core)
        return datapath.core

    def install(self, fault: DeviceFault) -> None:
        """Add one more fault to the composition."""
        self.faults.append(fault)

    def relockable_faults(self) -> list[DeviceFault]:
        """The installed faults a bias re-lock can correct, in install
        order (the order re-lock residuals are reported/applied in)."""
        return [f for f in self.faults if f.relockable]

    def relock(
        self, now_s: float, residual_volts: Sequence[float]
    ) -> None:
        """Re-base every relockable fault at ``now_s``.

        ``residual_volts`` pairs with :meth:`relockable_faults` in
        install order.  The parallel pool uses this to mirror a
        parent-side re-lock into a worker's wrapper so both replicas
        keep perturbing batches identically.
        """
        faults = self.relockable_faults()
        if len(residual_volts) != len(faults):
            raise ValueError(
                f"{len(faults)} relockable faults installed but "
                f"{len(residual_volts)} residuals supplied"
            )
        for fault, residual in zip(faults, residual_volts):
            fault.relock(now_s, float(residual))

    def set_time(self, now_s: float) -> None:
        """Advance the wrapper's clock (virtual seconds)."""
        self.now_s = float(now_s)

    def reseed_noise(self, *subkey: int) -> None:
        """Rebase the wrapped core's noise stream (no-op if it can't).

        Faults perturb values deterministically — only the inner core
        draws randomness — so keyed reseeding commutes with wrapping.
        """
        inner = getattr(self.core, "reseed_noise", None)
        if inner is not None:
            inner(*subkey)

    @property
    def architecture(self):
        return self.core.architecture

    @property
    def noise(self):
        return self.core.noise

    @property
    def supports_matmul(self) -> bool:
        """Forward the wrapped core's matmul capability.

        ``hasattr(wrapper, "matmul")`` is always true, so capability
        checks must see through the wrapper to the actual core.
        """
        return supports_matmul(self.core)

    def tape_law(self) -> tuple[float, float] | None:
        """The wrapped core's tape law, if its per-readout entry point
        is :class:`BehavioralCore`'s own (a dense layer here draws as
        ``accumulate_into`` draws); ``None`` keeps the walk."""
        inner = getattr(type(self.core), "accumulate_into", None)
        if inner is not BehavioralCore.accumulate_into:
            return None
        return tape_law(self.core)

    @property
    def stream(self):
        """The wrapped core's own noise stream."""
        return self.core.stream

    def keyed_streams(self, keyed_rows):
        """The wrapped core's keyed streams (faults draw nothing)."""
        return self.core.keyed_streams(keyed_rows)

    def perturbation(self, rows: int, clock: Clock | None = None):
        """The faults over a block of ``rows`` results, as one callable
        ``(values, readouts)`` that perturbs the block in place.

        ``clock`` lists ``(now_s, rows)`` along the leading axis, each
        group perturbed at its own time; ``None`` puts every row at the
        wrapper's clock.  Every fault is an elementwise map, applied in
        install order (:meth:`DeviceFault.rows_map`), so each row's
        bytes are what the entry points below make of it alone.
        """
        if clock is None:
            clock = ((self.now_s, rows),)
        maps = [fault.rows_map(clock) for fault in self.faults]

        def perturb(values, readouts):
            for apply in maps:
                apply(values, readouts)

        return perturb

    def _perturb(self, values: np.ndarray, readouts: int) -> np.ndarray:
        for fault in self.faults:
            if self.now_s >= fault.onset_s:
                values = fault.perturb(values, readouts, self.now_s)
        return values

    # ------------------------------------------------------------------
    # Core interface (what the datapath and the watchdog call)
    # ------------------------------------------------------------------
    def accumulate(self, a_pairs, b_pairs):
        """Accumulate steps (one readout each), perturbed.

        Every fault is an elementwise map of the per-readout value, so
        perturbing a stacked block equals perturbing row slices one at
        a time: compiled plans and the per-row loop agree.
        """
        return self._perturb(self.core.accumulate(a_pairs, b_pairs), 1)

    @property
    def accumulate_into(self):
        """Buffer-reusing accumulate for compiled plans, perturbed.

        ``accumulate_into`` takes *pre-scaled* weights (levels / 255),
        unlike the rest of the core interface, so the wrapper must not
        emulate it on top of :meth:`accumulate` — that would scale
        twice.  Instead the capability is forwarded only when the
        wrapped core truly provides it: raising :class:`AttributeError`
        from the property makes ``getattr(core, "accumulate_into",
        None)`` — the probe compiled plans use — return ``None``, and
        the plan falls back to the unscaled accumulate path.
        """
        inner = getattr(self.core, "accumulate_into", None)
        if inner is None:
            raise AttributeError(
                "wrapped core does not provide accumulate_into"
            )

        def call(a_pairs, b_pairs, out, scratch):
            inner(a_pairs, b_pairs, out, scratch)
            out[:] = self._perturb(out, 1)
            return out

        return call

    def matmul(self, a_matrix, b_matrix):
        """Matrix product with faults scaled by the readouts each
        output digitally sums (``ceil(inner / wavelengths)``)."""
        if not hasattr(self.core, "matmul"):
            raise AttributeError(
                "the wrapped core does not provide matmul (device-"
                "accurate cores reduce through accumulate/mac)"
            )
        a_matrix = np.asarray(a_matrix, dtype=np.float64)
        inner = a_matrix.shape[-1]
        readouts = -(-inner // self.architecture.accumulation_wavelengths)
        return self._perturb(
            self.core.matmul(a_matrix, b_matrix), readouts
        )
