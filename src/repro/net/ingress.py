"""NIC ingress (§4 step 1, §6.1): one decision per frame.

Every frame that reaches a Lightning NIC — the smartNIC's
``handle_frame``, a cluster's ``serve_frames``, the
``requests_from_frames`` bridge — is counted once here and either
comes back as a query for a deployed model or gets exactly one
:class:`~repro.net.parser.Fate` from :func:`receive`:

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
and ``punted``, and :func:`receive` the only code that gives a frame a
fate or drops it before admission.

A stream of frames goes through :func:`ingest`, which checks it as
arrays before any frame is parsed: frames of one byte length are
stacked into one ``(n, L)`` uint8 block and every check the parser
makes on a query with no IPv4 options, no Ethernet padding and its
data in the payload is one column operation over the block.  That
check can only *accept* a frame; every frame it does not accept goes
through :func:`receive`, in stream order, so a fate still has one
author.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .packet import (
    ETHERTYPE_IPV4,
    IP_PROTO_UDP,
    REQUEST_MAGIC,
    EthernetFrame,
    IPv4Packet,
    UDPDatagram,
)
from .parser import Fate, PacketParser, ParsedInferenceQuery, RegularPacket
from .processing import PacketProcessor, Verdict

if TYPE_CHECKING:
    from ..core.stats import NICCounters

__all__ = ["Fate", "IngressRequest", "receive", "ingest", "admit"]

# Offsets in a frame whose IPv4 header carries no options.
_IP = EthernetFrame.HEADER_LEN
_UDP = _IP + IPv4Packet.HEADER_LEN
_REQUEST = _UDP + UDPDatagram.HEADER_LEN
_DATA = _REQUEST + 8  # magic, model id, request id


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

    The stream is checked as arrays first (:func:`_accepted`); a frame
    that check accepts is counted and becomes a request here, and every
    other frame goes through :func:`receive` in stream order, so the
    requests, the rejected count and ``counters`` are what a loop of
    :func:`receive` leaves.  A request's ``data_levels`` stay a uint8
    view of the frame bytes on both paths (the datapath widens to
    float64 in its own buffers at execute time), so ingress never
    copies a payload.
    """
    frames = list(frames)
    raws = [frame.raw for frame in frames]
    model_ids, request_ids = _accepted(raws, parser, models)
    requests: list[IngressRequest] = []
    accepted = rejected = 0
    for frame, raw, model_id, request_id in zip(
        frames, raws, model_ids, request_ids
    ):
        if model_id >= 0:
            accepted += 1
            data = np.frombuffer(raw, np.uint8, offset=_DATA)
        else:
            query = receive(raw, parser, counters, models)
            if not isinstance(query, ParsedInferenceQuery):
                rejected += 1
                continue
            model_id = query.request.model_id
            request_id = query.request.request_id
            data = query.data_levels
        requests.append(
            IngressRequest(request_id, model_id, frame.arrival_s, data)
        )
    counters.frames_seen += accepted
    return requests, rejected


def _accepted(
    raws: list, parser: PacketParser, models: Mapping[int, int] | None
) -> tuple[list[int], list[int]]:
    """Per frame, the ``(model_ids, request_ids)`` of the queries the
    block check accepts, with model id -1 for every other frame.

    A frame is accepted when :func:`receive` would return it as a query
    whose data is the payload after the request header: Ethernet II
    carrying IPv4 with IHL 5 and a valid header checksum, a total
    length and a UDP length that fill the frame exactly, UDP to the
    inference port with a valid (or no) checksum, the request magic,
    a model the parser reads no header features for and — given
    ``models`` — a deployed model whose input size is the payload's.
    """
    count = len(raws)
    if not count:
        return [], []
    model_ids = np.full(count, -1, dtype=np.int64)
    request_ids = np.zeros(count, dtype=np.int64)
    lengths = np.fromiter(map(len, raws), dtype=np.int64, count=count)
    order = np.argsort(lengths, kind="stable")
    starts = np.flatnonzero(np.diff(lengths[order])) + 1
    for rows in np.split(order, starts):
        length = int(lengths[rows[0]])
        if length < _DATA:
            continue
        block = np.frombuffer(
            b"".join([raws[row] for row in rows.tolist()]), dtype=np.uint8
        ).reshape(rows.size, length)
        model = _u16(block, _REQUEST + 2)
        ok = _u16(block, _IP - 2) == ETHERTYPE_IPV4  # the ethertype
        ok &= block[:, _IP] == 0x45  # version 4, no options
        ok &= _u16(block, _IP + 2) == length - _IP
        ok &= block[:, _IP + 9] == IP_PROTO_UDP
        ok &= _u16(block, _UDP + 2) == parser.inference_port
        ok &= _u16(block, _UDP + 4) == length - _UDP
        ok &= _u16(block, _REQUEST) == REQUEST_MAGIC
        ok &= _sums_to_ones(_word_sum(block, _IP, _UDP))
        pseudo = _word_sum(block, _IP + 12, _UDP) + IP_PROTO_UDP
        udp = _word_sum(block, _UDP, length) + pseudo + (length - _UDP)
        ok &= (_u16(block, _UDP + 6) == 0) | _sums_to_ones(udp)
        if parser.header_data_models:
            ok &= ~np.isin(model, list(parser.header_data_models))
        if models is not None:
            sized = [m for m, size in models.items() if size == length - _DATA]
            ok &= np.isin(model, sized)
        request = _u16(block, _REQUEST + 4) << 16 | _u16(block, _REQUEST + 6)
        model_ids[rows[ok]] = model[ok]
        request_ids[rows[ok]] = request[ok]
    return model_ids.tolist(), request_ids.tolist()


def _u16(block: np.ndarray, offset: int) -> np.ndarray:
    """The big-endian 16-bit field at ``offset`` of every row."""
    return block[:, offset].astype(np.int64) << 8 | block[:, offset + 1]


def _word_sum(block: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Each row's unfolded one's-complement sum of the big-endian words
    in ``[start, stop)`` (``start`` even; an odd tail is zero-padded,
    as :func:`~repro.net.packet.checksum_accumulate` pads it)."""
    high = block[:, start:stop:2].sum(axis=1, dtype=np.int64)
    low = block[:, start + 1 : stop : 2].sum(axis=1, dtype=np.int64)
    return (high << 8) + low


def _sums_to_ones(total: np.ndarray) -> np.ndarray:
    """Whether each word sum folds to 0xFFFF, i.e. its checksum holds."""
    while True:
        carry = total >> 16
        if not carry.any():
            return total == 0xFFFF
        total = (total & 0xFFFF) + carry


def admit(counters: NICCounters, count: int) -> None:
    """Count ``count`` requests handed to a cluster already parsed:
    each arrived as a frame on some port."""
    counters.frames_seen += count
