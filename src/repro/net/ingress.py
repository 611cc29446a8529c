"""NIC ingress (§4 step 1, §6.1): one decision per frame.

Every frame that reaches a Lightning NIC — the smartNIC's
``handle_frame``, the server above it, a cluster's ``serve_frames``,
the ``requests_from_frames`` bridge — goes through :func:`receive`:
it is counted once, parsed once, and either comes back as a query for
a deployed model or gets exactly one :class:`~repro.net.parser.Fate`:

=========================================  =============  ===========
condition                                  fate           counter
=========================================  =============  ===========
shorter than an Ethernet header            RUNT           ``dropped``
not IPv4 / not UDP / not the inference     NON_INFERENCE  ``punted``
port
an IPv4, UDP or request layer that fails   MALFORMED      ``punted``
validation
the packet processor's verdict is DROP     IDS_DROP       ``dropped``
(blocklist, flood, a bad IPv4 header)
a query for a model that is not deployed   UNKNOWN_MODEL  ``dropped``
a query whose data is not the model's      WRONG_LENGTH   ``dropped``
input size
=========================================  =============  ===========

So ``frames_seen == queries + punted + dropped`` after any byte string,
and nothing here raises on frame content.  This module is the only
code that moves :class:`~repro.core.stats.NICCounters`' ``frames_seen``
and ``punted``, and the only one that drops a frame before admission.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .parser import Fate, PacketParser, ParsedInferenceQuery, RegularPacket
from .processing import PacketProcessor, Verdict

if TYPE_CHECKING:
    from ..core.stats import NICCounters

__all__ = ["Fate", "IngressRequest", "receive", "ingest", "admit"]


@dataclass(frozen=True)
class IngressRequest:
    """One inference query past ingress, as a cluster serves it."""

    request_id: int
    model_id: int
    arrival_s: float
    data_levels: np.ndarray

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError("arrival time cannot be negative")


def receive(
    raw: bytes | bytearray | memoryview,
    parser: PacketParser,
    counters: NICCounters,
    models: Mapping[int, int] | None = None,
    processor: PacketProcessor | None = None,
    now_s: float = 0.0,
) -> ParsedInferenceQuery | RegularPacket:
    """Count, parse and decide one frame (the table above).

    ``models`` maps each deployed model id to its input size; a caller
    that owns no deploys passes ``None`` and gets every well-formed
    query back.  ``processor`` is the NIC's packet-processing stage,
    which sees regular traffic at ``now_s`` before it is punted.
    """
    counters.frames_seen += 1
    packet = parser.parse(raw)
    if isinstance(packet, ParsedInferenceQuery):
        if models is None:
            return packet
        model_id = packet.request.model_id
        expected = models.get(model_id)
        if expected == len(packet.data_levels):
            return packet
        if expected is None:
            packet = RegularPacket(
                raw, Fate.UNKNOWN_MODEL, f"model {model_id} is not deployed"
            )
        else:
            packet = RegularPacket(
                raw,
                Fate.WRONG_LENGTH,
                f"model {model_id} expects {expected} levels, got "
                f"{len(packet.data_levels)}",
            )
    elif processor is not None and packet.fate is not Fate.RUNT:
        processed = processor.process(packet, now_s)
        if processed.verdict is Verdict.DROP:
            packet = replace(
                packet, fate=Fate.IDS_DROP, processed=processed,
                reason=f"{packet.reason}; dropped by intrusion detection",
            )
        else:
            packet = replace(packet, processed=processed)
    if packet.fate.punted:
        counters.punted += 1
    else:
        counters.dropped += 1
    return packet


def ingest(
    frames: Iterable,
    parser: PacketParser,
    counters: NICCounters,
    models: Mapping[int, int] | None = None,
) -> tuple[list[IngressRequest], int]:
    """:func:`receive` a stream of timestamped frames (``arrival_s``,
    ``raw``): the queries as requests, in order, plus how many frames
    did not become one.

    A request's ``data_levels`` stay the parser's uint8 view of the
    frame bytes (the datapath widens to float64 in its own buffers at
    execute time), so ingress never copies a payload.
    """
    requests: list[IngressRequest] = []
    rejected = 0
    for frame in frames:
        query = receive(frame.raw, parser, counters, models)
        if isinstance(query, ParsedInferenceQuery):
            request = query.request
            requests.append(IngressRequest(
                request.request_id, request.model_id, frame.arrival_s,
                query.data_levels,
            ))
        else:
            rejected += 1
    return requests, rejected


def admit(counters: NICCounters, count: int) -> None:
    """Count ``count`` requests handed to a cluster already parsed:
    each arrived as a frame on some port."""
    counters.frames_seen += count
