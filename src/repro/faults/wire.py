"""Frame-level fault injection at NIC ingress.

Lightning answers inference queries straight off the 100 Gbps port, so
anything the wire does to a frame — loss, payload corruption, late
delivery — lands directly on the serving path.  The
:class:`WireFaultInjector` replays the wire faults of a
:class:`~repro.faults.schedule.FaultSchedule` over a timestamped frame
stream, deterministically under the schedule's seed:

* ``frame_drop`` windows lose each in-window frame with a probability;
* ``frame_corrupt`` windows flip random bytes past the Ethernet header
  (a corrupted inference query becomes a punt, never a crash);
* ``frame_reorder`` windows swap a frame's arrival order with its
  successor's.

:func:`requests_from_frames` hands the surviving frames to NIC ingress
(:mod:`repro.net.ingress`) — the one decision the smartNIC makes too.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..core.stats import NICCounters
from ..net.ingress import IngressRequest, ingest
from ..net.parser import PacketParser
from .schedule import FaultSchedule

__all__ = [
    "WireFrame",
    "WireFaultReport",
    "WireFaultInjector",
    "requests_from_frames",
]

#: Bytes of the Ethernet header; corruption never touches them (real
#: links protect the header with the preamble/SFD and fail whole-frame
#: on header damage, which is the ``frame_drop`` fault instead).
_ETHERNET_HEADER_LEN = 14


@dataclass(frozen=True)
class WireFrame:
    """One raw frame — any bytes, runts included — plus its wire
    arrival timestamp."""

    arrival_s: float
    raw: bytes

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError("arrival time cannot be negative")


@dataclass(frozen=True)
class WireFaultReport:
    """What the wire did to one frame stream."""

    offered: int
    delivered: int
    dropped: int
    corrupted: int
    reordered: int

    def summary(self) -> dict[str, int]:
        """A dashboard-style snapshot of the wire's damage."""
        return asdict(self)


class WireFaultInjector:
    """Applies a schedule's wire faults to a timestamped frame stream."""

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule

    def apply(
        self, frames: list[WireFrame] | tuple[WireFrame, ...]
    ) -> tuple[list[WireFrame], WireFaultReport]:
        """Run the stream through the faulty wire.

        Returns the delivered frames (sorted by their — possibly
        swapped — arrival times) and the injection report.  Replays are
        bit-exact: all randomness comes from the schedule's ``"wire"``
        decision stream.
        """
        rng = self.schedule.rng("wire")
        events = self.schedule.wire_events()
        ordered = sorted(frames, key=lambda f: f.arrival_s)
        dropped = corrupted = reordered = 0

        survivors: list[WireFrame] = []
        swap_flags: list[bool] = []
        for frame in ordered:
            fate = frame
            lost = False
            swap = False
            for event in events:
                if not event.active_at(frame.arrival_s):
                    continue
                roll = float(rng.random())
                probability = float(event.params.get("probability", 0.0))
                if roll >= probability:
                    continue
                if event.kind == "frame_drop":
                    lost = True
                elif event.kind == "frame_corrupt":
                    fate = WireFrame(
                        fate.arrival_s, self._corrupt(fate.raw, event, rng)
                    )
                    corrupted += 1
                else:  # frame_reorder
                    swap = True
            if lost:
                dropped += 1
            else:
                survivors.append(fate)
                swap_flags.append(swap)

        # Reorder pass: a flagged frame's payload is delivered at its
        # successor's timestamp and vice versa (late delivery).
        for i in range(len(survivors) - 1):
            if swap_flags[i]:
                here, nxt = survivors[i], survivors[i + 1]
                survivors[i] = WireFrame(here.arrival_s, nxt.raw)
                survivors[i + 1] = WireFrame(nxt.arrival_s, here.raw)
                reordered += 1

        report = WireFaultReport(
            offered=len(ordered),
            delivered=len(survivors),
            dropped=dropped,
            corrupted=corrupted,
            reordered=reordered,
        )
        return survivors, report

    @staticmethod
    def _corrupt(raw: bytes, event, rng: np.random.Generator) -> bytes:
        """Flip up to ``max_flipped_bytes`` bytes past the Ethernet
        header."""
        max_bytes = int(event.params.get("max_flipped_bytes", 4))
        body = len(raw) - _ETHERNET_HEADER_LEN
        count = int(rng.integers(1, max(2, max_bytes + 1)))
        buffer = bytearray(raw)
        for _ in range(min(count, body)):
            offset = _ETHERNET_HEADER_LEN + int(rng.integers(0, body))
            buffer[offset] ^= int(rng.integers(1, 256))
        return bytes(buffer)


def requests_from_frames(
    frames: list[WireFrame] | tuple[WireFrame, ...],
    parser: PacketParser | None = None,
    counters: NICCounters | None = None,
) -> tuple[list[IngressRequest], int]:
    """Pass delivered frames through NIC ingress: ``(requests,
    punted)``, with every frame that did not become a request — a query
    mangled by ``frame_corrupt``, say — counted in ``punted`` and given
    its fate on ``counters``, exactly as the smartNIC counts it."""
    return ingest(
        frames,
        parser if parser is not None else PacketParser(),
        counters if counters is not None else NICCounters(),
    )
