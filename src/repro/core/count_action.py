"""The reconfigurable count-action abstraction (§5, Figures 6 and 11).

A count-action unit has three components:

* **counts** — a set of variables to count.  Every digital datapath clock
  cycle the unit evaluates its count expression against the datapath state
  and either *accumulates* the value across cycles (e.g. the cross-cycle
  adder-subtractor of Listing 3 counting completed partial sums) or treats
  it as a fresh *per-cycle* observation (e.g. the synchronous data
  streamer of Listing 1 summing the DAC valid flags each cycle).
* **targets** — the value at which the unit fires.  Targets live in a
  :class:`ControlRegisterFile` so the DAG configuration loader can rewrite
  them at runtime without stopping the dataflow — this is what makes the
  abstraction *reconfigurable*, unlike the compile-time match-action units
  of programmable switches.
* **actions** — callables triggered when the count equals the target.
  On firing, the accumulated count is reset to zero.

:class:`CountActionFabric` holds a set of units and ticks them all once
per digital clock cycle, recording every firing for inspection — the
Python analog of the multiple count-action instances embedded in
Lightning's datapath (Figure 11).
"""

from __future__ import annotations

import contextlib
import enum
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any

__all__ = [
    "CountMode",
    "Comparison",
    "ControlRegisterFile",
    "CountActionUnit",
    "CountActionFabric",
    "FireRecord",
]


class CountMode(enum.Enum):
    """How the count expression combines across clock cycles."""

    #: Accumulate the per-cycle value into a running count (Listing 3).
    ACCUMULATE = "accumulate"
    #: Evaluate the count fresh each cycle, no memory (Listing 1).
    PER_CYCLE = "per_cycle"


class Comparison(enum.Enum):
    """How the count is compared against the target."""

    EQUAL = "eq"
    AT_LEAST = "ge"


class ControlRegisterFile:
    """Centralized, runtime-writable control registers (Figure 11).

    The DAG configuration loader writes target and action parameters here
    while packets continue to flow; count-action units read their targets
    from the file on every tick, so a register write takes effect on the
    very next cycle.
    """

    #: Recent writes kept for inspection.  The file lives as long as its
    #: datapath and takes a layer's worth of writes per request, so an
    #: unbounded log is a leak; readers that need every write of some
    #: span use :meth:`capture` instead of the ring.
    WRITE_LOG_DEPTH = 1024

    def __init__(self) -> None:
        self._registers: dict[str, Any] = {}
        self._write_log: deque[tuple[str, Any]] | list[tuple[str, Any]]
        self._write_log = deque(maxlen=self.WRITE_LOG_DEPTH)
        #: Monotone count of every write ever made: the ring has
        #: forgotten ``write_count - len(write_log)`` of them.
        self.write_count = 0

    def write(self, name: str, value: Any) -> None:
        """Write one control register (runtime reconfiguration)."""
        if not name:
            raise ValueError("register name cannot be empty")
        self._registers[name] = value
        self._write_log.append((name, value))
        self.write_count += 1

    def write_many(self, values: dict[str, Any]) -> None:
        """Write a batch of registers (one layer's configuration)."""
        for name, value in values.items():
            self.write(name, value)

    def write_back(self, writes: Sequence[tuple[str, Any]]) -> None:
        """Replay a recorded sequence of ``(name, value)`` writes at once.

        The register map, the log's tail and :attr:`write_count` end
        exactly where writing them one by one leaves them; the names
        were checked when the sequence was first written.
        """
        self._registers.update(writes)
        self._write_log.extend(writes)
        self.write_count += len(writes)

    def read(self, name: str) -> Any:
        """Read one control register; raises if it was never written."""
        try:
            return self._registers[name]
        except KeyError:
            raise KeyError(f"control register {name!r} was never written") from None

    def __contains__(self, name: str) -> bool:
        return name in self._registers

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._registers))

    @property
    def write_log(self) -> tuple[tuple[str, Any], ...]:
        """The most recent register writes, oldest first (bounded by
        :attr:`WRITE_LOG_DEPTH`)."""
        return tuple(self._write_log)

    @contextlib.contextmanager
    def capture(self) -> Iterator[list[tuple[str, Any]]]:
        """Collect every write made inside the block, however many.

        The writes are diverted to the yielded list (so ``write`` pays
        nothing for the hook, and a span longer than the ring loses
        none) and the ring catches up on exit; captures nest.
        """
        ring, captured = self._write_log, []
        self._write_log = captured
        try:
            yield captured
        finally:
            ring.extend(captured)
            self._write_log = ring


@dataclass(frozen=True)
class FireRecord:
    """One firing of a count-action unit."""

    cycle: int
    unit: str
    count_value: float


class CountActionUnit:
    """A single reconfigurable count-action instance (Figure 6).

    Parameters
    ----------
    name:
        Identifier used in firing records and register references.
    count:
        Callable evaluated each tick against an arbitrary context object;
        returns the cycle's count contribution.
    target:
        Either a literal numeric target, or the name of a control register
        (when ``registers`` is given) resolved at every tick so that
        runtime register writes re-target the unit immediately.
    actions:
        Callables invoked, in order, when the unit fires.  Each receives
        the tick's context object.
    mode:
        :class:`CountMode` — accumulate across cycles or per-cycle.
    comparison:
        Fire on exact equality (the paper's semantics) or on reaching at
        least the target.
    """

    def __init__(
        self,
        name: str,
        count: Callable[[Any], float],
        target: float | str,
        actions: Iterable[Callable[[Any], None]] = (),
        mode: CountMode = CountMode.ACCUMULATE,
        comparison: Comparison = Comparison.EQUAL,
        registers: ControlRegisterFile | None = None,
    ) -> None:
        if isinstance(target, str) and registers is None:
            raise ValueError(
                "a register-named target requires a ControlRegisterFile"
            )
        self.name = name
        self._count_fn = count
        self._target = target
        self.actions = list(actions)
        self.mode = mode
        self.comparison = comparison
        self._registers = registers
        self._count = 0.0
        self._fires = 0
        self.last_fire_value: float | None = None

    @property
    def count(self) -> float:
        """The current accumulated count value."""
        return self._count

    @property
    def fires(self) -> int:
        """Total number of times this unit has fired."""
        return self._fires

    @property
    def target(self) -> float:
        """The target in effect right now (register targets re-resolve)."""
        if isinstance(self._target, str):
            assert self._registers is not None
            return float(self._registers.read(self._target))
        return float(self._target)

    def retarget(self, target: float | str) -> None:
        """Point the unit at a new literal target or register name."""
        if isinstance(target, str) and self._registers is None:
            raise ValueError(
                "a register-named target requires a ControlRegisterFile"
            )
        self._target = target

    def reset(self) -> None:
        """Clear the accumulated count (datapath reconfiguration)."""
        self._count = 0.0

    def _matches(self, value: float, target: float) -> bool:
        if self.comparison is Comparison.EQUAL:
            return value == target
        return value >= target

    def tick(self, context: Any = None, cycle: int = 0) -> bool:
        """Advance one digital clock cycle; return True if the unit fired.

        In ``ACCUMULATE`` mode the cycle's count is added to the running
        value; on a match the count resets to zero and the actions fire.
        In ``PER_CYCLE`` mode the cycle's count is compared directly.
        """
        increment = float(self._count_fn(context))
        if self.mode is CountMode.ACCUMULATE:
            self._count += increment
            value = self._count
        else:
            value = increment
            self._count = increment
        if not self._matches(value, self.target):
            return False
        self.last_fire_value = value
        self._count = 0.0
        self._fires += 1
        for action in self.actions:
            action(context)
        return True


class CountActionFabric:
    """A set of count-action units ticked together each cycle.

    Mirrors Figure 11: Lightning embeds many count-action instances in its
    datapath; each reads its target from the control registers and they
    all advance on the shared digital clock.
    """

    def __init__(self, registers: ControlRegisterFile | None = None) -> None:
        self.registers = registers if registers is not None else ControlRegisterFile()
        self._units: dict[str, CountActionUnit] = {}
        self._cycle = 0
        self._fire_log: list[FireRecord] = []

    @property
    def cycle(self) -> int:
        """Number of clock cycles elapsed."""
        return self._cycle

    @property
    def fire_log(self) -> tuple[FireRecord, ...]:
        return tuple(self._fire_log)

    def add_unit(self, unit: CountActionUnit) -> CountActionUnit:
        """Install a unit into the fabric (names must be unique)."""
        if unit.name in self._units:
            raise ValueError(f"duplicate count-action unit {unit.name!r}")
        self._units[unit.name] = unit
        return unit

    def unit(self, name: str) -> CountActionUnit:
        """Look up an installed unit by name."""
        try:
            return self._units[name]
        except KeyError:
            raise KeyError(f"no count-action unit named {name!r}") from None

    def tick(self, context: Any = None) -> list[str]:
        """Advance all units one cycle; return names of units that fired."""
        fired = []
        for name, unit in self._units.items():
            if unit.tick(context, self._cycle):
                fired.append(name)
                assert unit.last_fire_value is not None
                self._fire_log.append(
                    FireRecord(
                        cycle=self._cycle,
                        unit=name,
                        count_value=unit.last_fire_value,
                    )
                )
        self._cycle += 1
        return fired

    def run(self, num_cycles: int, context: Any = None) -> list[FireRecord]:
        """Tick ``num_cycles`` times; return the firings that occurred."""
        if num_cycles < 0:
            raise ValueError("cannot run a negative number of cycles")
        start = len(self._fire_log)
        for _ in range(num_cycles):
            self.tick(context)
        return self._fire_log[start:]

    def reset(self) -> None:
        """Reset all counters and the cycle clock (keep configuration)."""
        for unit in self._units.values():
            unit.reset()
        self._cycle = 0
        self._fire_log.clear()
