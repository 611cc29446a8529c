"""Lightning's packet parser (§4 step 1).

The parser receives frames from the 100 Gbps interface and identifies
inference queries by the destination port number in the packet header.
Once identified, it extracts the DNN model ID and the user data.
Depending on the model, the data lives in the packet *payload* (an image,
a language query) or in the packet *header* itself (traffic analysis
models classify the flow the packet belongs to, so the features are the
addresses and ports).  Everything else is a regular packet, handed to the
packet-processing module and punted to the host over PCIe.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .packet import (
    ETHERTYPE_IPV4,
    IP_PROTO_UDP,
    LIGHTNING_UDP_PORT,
    EthernetFrame,
    InferenceRequest,
    IPv4Packet,
    UDPDatagram,
    bytes_to_ip,
    bytes_to_mac,
    ethertype_of,
    ip_to_bytes,
    ipv4_header,
    request_fields,
    udp_header,
    verify_udp_checksum,
)

if TYPE_CHECKING:
    from .processing import ProcessedPacket

__all__ = [
    "Fate",
    "FlowKey",
    "ParsedInferenceQuery",
    "RegularPacket",
    "PacketParser",
    "extract_header_features",
]

#: Number of features derived from packet headers for traffic-analysis
#: models: 4+4 IP octets, 2+2 port bytes, protocol, TTL, 2 length bytes.
HEADER_FEATURE_COUNT = 16


def extract_header_features(
    ip: IPv4Packet, udp: UDPDatagram
) -> np.ndarray:
    """Derive the traffic-analysis feature vector from header fields.

    Returns ``HEADER_FEATURE_COUNT`` byte-valued levels: the source and
    destination IP octets, port bytes, protocol, TTL, and total length
    split into bytes — the header data a flow classifier keys on.  The
    length is the header's own total length, options included.
    """
    length = len(ip)
    fields = struct.pack(
        "!HHBBH", udp.src_port, udp.dst_port, ip.protocol, ip.ttl,
        length & 0xFFFF,
    )
    octets = ip_to_bytes(ip.src_ip) + ip_to_bytes(ip.dst_ip) + fields
    return np.frombuffer(octets, dtype=np.uint8).copy()


class Fate(enum.Enum):
    """The terminal fate of a frame the NIC does not serve.

    The parser assigns the first three; :mod:`repro.net.ingress`, which
    owns the fate table, assigns the rest.
    """

    RUNT = "runt"
    NON_INFERENCE = "non-inference"
    MALFORMED = "malformed"
    IDS_DROP = "ids-drop"
    UNKNOWN_MODEL = "unknown-model"
    WRONG_LENGTH = "wrong-length"

    @property
    def punted(self) -> bool:
        """Whether the frame crosses PCIe to the host; every other fate
        is dropped on the NIC."""
        return self in (Fate.NON_INFERENCE, Fate.MALFORMED)


@dataclass(frozen=True)
class FlowKey:
    """The classic 5-tuple identifying a flow."""

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: int


@dataclass(frozen=True)
class ParsedInferenceQuery:
    """An inference query plus the addressing needed to respond."""

    request: InferenceRequest
    data_levels: np.ndarray
    src_mac: str
    dst_mac: str
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int


@dataclass(frozen=True)
class RegularPacket:
    """A frame that is not served, with its one :class:`Fate`.

    ``flow`` is set once the IPv4 header validated (ports 0 where no
    UDP header could be read), ``processed`` once a packet processor
    inspected the frame."""

    raw: bytes
    fate: Fate
    reason: str
    flow: FlowKey | None = None
    processed: ProcessedPacket | None = None


class PacketParser:
    """Classifies frames and extracts inference queries (requirement R1)."""

    def __init__(
        self,
        inference_port: int = LIGHTNING_UDP_PORT,
        header_data_models: frozenset[int] | set[int] = frozenset(),
    ) -> None:
        if not 0 < inference_port <= 0xFFFF:
            raise ValueError("inference port must be a valid UDP port")
        self.inference_port = inference_port
        #: Model IDs whose query data comes from header fields instead of
        #: the payload (traffic-analysis models).
        self.header_data_models = frozenset(header_data_models)

    def parse(
        self, raw: bytes | bytearray | memoryview
    ) -> ParsedInferenceQuery | RegularPacket:
        """Classify one wire frame; never raises on any byte string.

        Everything that is not a well-formed query for the inference
        port comes back as a :class:`RegularPacket`: a runt, regular
        traffic, or a malformed inner layer (which degrades to a punt —
        the NIC never drops traffic just because it is not a query).

        Headers are validated in place over one :class:`memoryview` by
        :mod:`~repro.net.packet`'s validators and the query data is a
        :func:`numpy.frombuffer` view of the frame, so a query crosses
        the parser without a single payload copy.
        """
        view = memoryview(raw)
        try:
            ethertype = ethertype_of(view)
        except ValueError as exc:
            return RegularPacket(raw, Fate.RUNT, str(exc))
        if ethertype != ETHERTYPE_IPV4:
            return RegularPacket(
                raw, Fate.NON_INFERENCE, "non-IPv4 ethertype"
            )
        ip_view = view[EthernetFrame.HEADER_LEN :]
        try:
            ihl, total_length, _, ttl, protocol = ipv4_header(ip_view)
        except ValueError as exc:
            return RegularPacket(raw, Fate.MALFORMED, f"bad IPv4: {exc}")
        src_ip = bytes_to_ip(ip_view[12:16])
        dst_ip = bytes_to_ip(ip_view[16:20])
        src_port = dst_port = 0

        def punt(fate: Fate, reason: str) -> RegularPacket:
            flow = FlowKey(src_ip, dst_ip, src_port, dst_port, protocol)
            return RegularPacket(raw, fate, reason, flow)

        if protocol != IP_PROTO_UDP:
            return punt(Fate.NON_INFERENCE, "non-UDP protocol")
        udp_view = ip_view[ihl:total_length]
        try:
            # A datagram failing only its checksum keeps its ports.
            src_port, dst_port, udp_length = udp_header(udp_view)
            verify_udp_checksum(udp_view[:udp_length], ip_view[12:20])
        except ValueError as exc:
            return punt(Fate.MALFORMED, f"bad UDP: {exc}")
        if dst_port != self.inference_port:
            return punt(Fate.NON_INFERENCE, "not the inference port")
        try:
            model_id, request_id, data = request_fields(
                udp_view[UDPDatagram.HEADER_LEN : udp_length]
            )
        except ValueError as exc:
            return punt(Fate.MALFORMED, f"bad inference request: {exc}")
        request = InferenceRequest(model_id, request_id, data)
        if model_id in self.header_data_models:
            data_levels = extract_header_features(
                IPv4Packet(
                    src_ip, dst_ip, protocol, udp_view, ttl,
                    options=bytes(ip_view[IPv4Packet.HEADER_LEN : ihl]),
                ),
                UDPDatagram(src_port, dst_port, b""),
            )
        else:
            data_levels = request.data
        return ParsedInferenceQuery(
            request=request,
            data_levels=data_levels,
            src_mac=bytes_to_mac(view[6:12]),
            dst_mac=bytes_to_mac(view[0:6]),
            src_ip=src_ip,
            dst_ip=dst_ip,
            src_port=src_port,
            dst_port=dst_port,
        )
