"""Datapath execution tracing — the Verilator-testbench analog.

The paper verifies its RTL with a cycle-accurate Verilator testbench and
reads waveforms back for the power analysis (§8).  This module provides
the equivalent observability for the Python datapath: a
:class:`DatapathTracer` wraps a :class:`LightningDatapath` and records a
structured event stream — DAG loads, per-layer executions with their
cycle ledgers, control-register writes — that tests and notebooks can
assert on or render as a timeline.

The runtime layer (:mod:`repro.runtime`) feeds its own events into the
same stream through :meth:`DatapathTracer.emit`: queue admissions,
drops, and batch dispatches appear interleaved with the layer events on
one clock, so a single trace shows a request waiting, dispatching, and
executing.  A tracer built without a datapath acts as a pure event sink
for those runtime events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datapath import InferenceExecution, LightningDatapath
from .reference import walk

__all__ = ["TraceEvent", "DatapathTracer"]


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped datapath event.

    ``time_s`` is the simulated time at which the event *completes*,
    accumulated from the cycle ledger of everything before it.
    """

    time_s: float
    kind: str  # "load" | "layer" | "register" | runtime kinds via emit()
    label: str
    detail: dict = field(default_factory=dict)


class DatapathTracer:
    """Records a structured event stream from datapath executions."""

    def __init__(self, datapath: LightningDatapath | None = None) -> None:
        self.datapath = datapath
        self._events: list[TraceEvent] = []
        self._clock_s = 0.0

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        return tuple(self._events)

    @property
    def now_s(self) -> float:
        return self._clock_s

    def clear(self) -> None:
        """Drop the recorded events and rewind the trace clock."""
        self._events.clear()
        self._clock_s = 0.0

    def emit(
        self,
        kind: str,
        label: str,
        detail: dict | None = None,
        time_s: float | None = None,
    ) -> TraceEvent:
        """Record an externally timestamped event (runtime integration).

        ``time_s`` is the emitting clock's timestamp — the runtime's
        virtual clock, for queue/dispatch/drop events.  The trace clock
        never moves backwards: an event stamped earlier than the current
        clock is recorded at the current clock, keeping the stream
        monotone for :meth:`layer_timeline`-style consumers.
        """
        when = self._clock_s if time_s is None else max(time_s, self._clock_s)
        self._clock_s = when
        event = TraceEvent(
            time_s=when,
            kind=kind,
            label=label,
            detail=dict(detail) if detail else {},
        )
        self._events.append(event)
        return event

    def execute(
        self, model_id: int, input_levels: np.ndarray
    ) -> InferenceExecution:
        """Execute one inference while recording its event stream."""
        if self.datapath is None:
            raise RuntimeError(
                "this tracer was built as a pure event sink (no datapath); "
                "attach a LightningDatapath to trace executions"
            )
        # The per-layer walk: the compiled serving path skips the
        # intermediate layers' register writes.
        with self.datapath.registers.capture() as writes:
            execution = walk(self.datapath, model_id, input_levels)
        self._events.append(
            TraceEvent(
                time_s=self._clock_s,
                kind="load",
                label=f"dag:{execution.model_name}",
                detail={"model_id": execution.model_id},
            )
        )
        for layer in execution.layers:
            self._clock_s += (
                layer.compute_seconds
                + layer.datapath_seconds
                + layer.memory_seconds
            )
            self._events.append(
                TraceEvent(
                    time_s=self._clock_s,
                    kind="layer",
                    label=layer.task_name,
                    detail={
                        "cycles": layer.compute_cycles,
                        "rows": layer.rows,
                        "compute_us": layer.compute_seconds * 1e6,
                    },
                )
            )
        for name, value in writes:
            self._events.append(
                TraceEvent(
                    time_s=self._clock_s,
                    kind="register",
                    label=name,
                    detail={"value": value},
                )
            )
        return execution

    # ------------------------------------------------------------------
    # Inspection helpers
    # ------------------------------------------------------------------
    def layer_timeline(self) -> list[tuple[float, str, int]]:
        """(completion time, layer, cycles) rows for the layer events."""
        return [
            (e.time_s, e.label, e.detail["cycles"])
            for e in self._events
            if e.kind == "layer"
        ]

    def register_writes(self, name: str) -> list[object]:
        """All values written to one control register, in order."""
        return [
            e.detail["value"]
            for e in self._events
            if e.kind == "register" and e.label == name
        ]

    def render(self, max_events: int | None = None) -> str:
        """A human-readable trace listing."""
        lines = ["time (us)   kind      event"]
        events = self._events[:max_events] if max_events else self._events
        for event in events:
            detail = ", ".join(
                f"{k}={v}" for k, v in sorted(event.detail.items())
            )
            lines.append(
                f"{event.time_s * 1e6:10.3f}  {event.kind:8s}  "
                f"{event.label}" + (f"  [{detail}]" if detail else "")
            )
        return "\n".join(lines)
