"""Byte-accurate packet construction and parsing.

Lightning receives inference queries as ordinary UDP datagrams on its
100 Gbps Ethernet interface (requirement R1).  This module implements the
wire formats from scratch: Ethernet II framing, IPv4 with header
checksums, UDP with the pseudo-header checksum, and Lightning's
application-layer encoding of inference requests and responses.

An inference request carries a magic word, the DNN model ID, a request
ID for matching responses, and the query data — either packed in the
payload (image pixels, language tokens) or, for traffic-analysis models,
derived from the packet's own header fields (§4 step 1).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ETHERTYPE_IPV4",
    "IP_PROTO_UDP",
    "LIGHTNING_UDP_PORT",
    "REQUEST_MAGIC",
    "RESPONSE_MAGIC",
    "mac_to_bytes",
    "bytes_to_mac",
    "ip_to_bytes",
    "bytes_to_ip",
    "internet_checksum",
    "checksum_accumulate",
    "checksum_fold",
    "ethertype_of",
    "ipv4_header",
    "udp_header",
    "verify_udp_checksum",
    "request_fields",
    "EthernetFrame",
    "IPv4Packet",
    "UDPDatagram",
    "InferenceRequest",
    "InferenceResponse",
    "build_inference_frame",
]

ETHERTYPE_IPV4 = 0x0800
IP_PROTO_UDP = 17
#: The UDP destination port identifying Lightning inference queries.
LIGHTNING_UDP_PORT = 4055

REQUEST_MAGIC = 0x4C49  # "LI"
RESPONSE_MAGIC = 0x4C52  # "LR"

_U16 = struct.Struct("!H")
_IPV4_LENGTH_ID = struct.Struct("!HH")  # total length, identification
_UDP_HEADER = struct.Struct("!HHH")  # ports, length
_REQUEST_HEADER = struct.Struct("!HHI")  # magic, model_id, request_id
_RESPONSE_HEADER = struct.Struct("!HHIH")  # magic, model_id, req_id, pred


def mac_to_bytes(mac: str) -> bytes:
    """Parse ``aa:bb:cc:dd:ee:ff`` into 6 bytes."""
    try:
        raw = bytes(int(p, 16) for p in mac.split(":"))
    except ValueError:  # not hex, or an octet out of range
        raw = b""
    if len(raw) != 6:
        raise ValueError(f"malformed MAC address {mac!r}")
    return raw


def bytes_to_mac(raw: bytes) -> str:
    """Render 6 raw bytes as ``aa:bb:cc:dd:ee:ff``."""
    if len(raw) != 6:
        raise ValueError("a MAC address is exactly 6 bytes")
    return ":".join(f"{b:02x}" for b in raw)


def ip_to_bytes(ip: str) -> bytes:
    """Parse dotted-quad IPv4 into 4 bytes."""
    try:
        raw = bytes(int(p) for p in ip.split("."))
    except ValueError:  # not decimal, or an octet out of range
        raw = b""
    if len(raw) != 4:
        raise ValueError(f"malformed IPv4 address {ip!r}")
    return raw


def bytes_to_ip(raw: bytes) -> str:
    """Render 4 raw bytes as dotted-quad IPv4."""
    if len(raw) != 4:
        raise ValueError("an IPv4 address is exactly 4 bytes")
    return ".".join(str(b) for b in raw)


def checksum_accumulate(data: bytes | bytearray | memoryview) -> int:
    """Unfolded one's-complement word sum of one chunk (an odd tail is
    zero-padded, per RFC 1071).

    Vectorized: the bytes are summed as big-endian 16-bit words in one
    :func:`numpy.sum`; deferring the end-around carry to a single final
    fold is exact (one's-complement addition is associative, and the
    64-bit accumulator cannot overflow below ~2^48 bytes).  Chunk sums
    add up **only** when every chunk but the last has even length.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    even = buf.size & ~1
    total = int(
        buf[:even].view(dtype=">u2").sum(dtype=np.uint64)
    )
    if buf.size & 1:
        total += int(buf[-1]) << 8
    return total


def checksum_fold(total: int) -> int:
    """Fold an accumulated word sum into the final 16-bit checksum."""
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def internet_checksum(data: bytes | bytearray | memoryview) -> int:
    """RFC 1071 one's-complement checksum over 16-bit words."""
    return checksum_fold(checksum_accumulate(data))


def ethertype_of(view: bytes | memoryview) -> int:
    """The ethertype of an Ethernet II frame, read in place."""
    if len(view) < EthernetFrame.HEADER_LEN:
        raise ValueError("truncated Ethernet frame")
    return _U16.unpack_from(view, 12)[0]


def ipv4_header(view: bytes | memoryview) -> tuple[int, int, int, int, int]:
    """Validate an IPv4 header in place (no payload copy).

    Returns ``(ihl, total_length, identification, ttl, protocol)``; the
    addresses stay at ``view[12:20]``.
    """
    if len(view) < IPv4Packet.HEADER_LEN:
        raise ValueError("truncated IPv4 packet")
    if view[0] >> 4 != 4:
        raise ValueError("not an IPv4 packet")
    ihl = (view[0] & 0x0F) * 4
    if ihl < IPv4Packet.HEADER_LEN or len(view) < ihl:
        raise ValueError("malformed IPv4 header length")
    if internet_checksum(view[:ihl]) != 0:
        raise ValueError("IPv4 header checksum mismatch")
    total_length, identification = _IPV4_LENGTH_ID.unpack_from(view, 2)
    if total_length > len(view):
        raise ValueError("IPv4 total length exceeds captured bytes")
    return ihl, total_length, identification, view[8], view[9]


def udp_header(view: bytes | memoryview) -> tuple[int, int, int]:
    """Validate a UDP header's lengths in place:
    ``(src_port, dst_port, length)``."""
    if len(view) < UDPDatagram.HEADER_LEN:
        raise ValueError("truncated UDP datagram")
    src_port, dst_port, length = _UDP_HEADER.unpack_from(view, 0)
    if length < UDPDatagram.HEADER_LEN or length > len(view):
        raise ValueError("malformed UDP length")
    return src_port, dst_port, length


def udp_checksum(
    datagram: bytes | memoryview, addresses: bytes | memoryview
) -> int:
    """The UDP checksum of ``datagram`` under the pseudo-header of
    ``addresses``, the IPv4 header's eight source + destination bytes
    (0 over a datagram that carries its own correct checksum).  The two
    sums fold once: the 12-byte pseudo-header keeps words aligned."""
    pseudo = bytes(addresses) + struct.pack(
        "!BBH", 0, IP_PROTO_UDP, len(datagram)
    )
    return checksum_fold(
        checksum_accumulate(pseudo) + checksum_accumulate(datagram)
    )


def verify_udp_checksum(
    datagram: bytes | memoryview, addresses: bytes | memoryview
) -> None:
    """Check a length-validated datagram (RFC 768: a transmitted zero
    means "no checksum")."""
    if (datagram[6] or datagram[7]) and udp_checksum(datagram, addresses):
        raise ValueError("UDP checksum mismatch")


def request_fields(
    view: bytes | memoryview,
) -> tuple[int, int, np.ndarray]:
    """``(model_id, request_id, data)`` of an inference request, the
    data as a uint8 view of ``view``."""
    if len(view) < _REQUEST_HEADER.size:
        raise ValueError("truncated inference request")
    magic, model_id, request_id = _REQUEST_HEADER.unpack_from(view, 0)
    if magic != REQUEST_MAGIC:
        raise ValueError("not a Lightning inference request")
    data = np.frombuffer(view[_REQUEST_HEADER.size :], dtype=np.uint8)
    return model_id, request_id, data


@dataclass(frozen=True)
class EthernetFrame:
    """An Ethernet II frame (no FCS; the MAC strips it)."""

    dst_mac: str
    src_mac: str
    ethertype: int
    payload: bytes

    HEADER_LEN = 14

    def pack(self) -> bytes:
        """Serialize the frame to wire bytes."""
        return (
            mac_to_bytes(self.dst_mac)
            + mac_to_bytes(self.src_mac)
            + struct.pack("!H", self.ethertype)
            + self.payload
        )

    @classmethod
    def unpack(cls, raw: bytes) -> "EthernetFrame":
        ethertype = ethertype_of(raw)
        dst, src = bytes_to_mac(raw[0:6]), bytes_to_mac(raw[6:12])
        return cls(dst, src, ethertype, raw[14:])

    def __len__(self) -> int:
        return self.HEADER_LEN + len(self.payload)


@dataclass(frozen=True)
class IPv4Packet:
    """A minimal IPv4 packet, checksum-verified on unpack; its header
    options, if any, are carried as opaque bytes."""

    src_ip: str
    dst_ip: str
    protocol: int
    payload: bytes
    ttl: int = 64
    identification: int = 0
    options: bytes = b""

    HEADER_LEN = 20

    def pack(self) -> bytes:
        """Serialize the packet, computing the header checksum."""
        if len(self.options) % 4 or len(self.options) > 40:
            raise ValueError("IPv4 options are whole words, at most 40 bytes")
        header_len = self.HEADER_LEN + len(self.options)
        total_length = header_len + len(self.payload)
        header = struct.pack(
            "!BBHHHBBH4s4s",
            (4 << 4) | header_len // 4,  # version 4, IHL
            0,  # DSCP/ECN
            total_length,
            self.identification,
            0,  # flags/fragment offset
            self.ttl,
            self.protocol,
            0,  # checksum placeholder
            ip_to_bytes(self.src_ip),
            ip_to_bytes(self.dst_ip),
        ) + bytes(self.options)
        checksum = internet_checksum(header)
        header = header[:10] + struct.pack("!H", checksum) + header[12:]
        return header + self.payload

    @classmethod
    def unpack(cls, raw: bytes) -> "IPv4Packet":
        ihl, total_length, identification, ttl, protocol = ipv4_header(raw)
        return cls(
            src_ip=bytes_to_ip(raw[12:16]),
            dst_ip=bytes_to_ip(raw[16:20]),
            protocol=protocol,
            payload=raw[ihl:total_length],
            ttl=ttl,
            identification=identification,
            options=raw[cls.HEADER_LEN : ihl],
        )

    def __len__(self) -> int:
        return self.HEADER_LEN + len(self.options) + len(self.payload)


@dataclass(frozen=True)
class UDPDatagram:
    """A UDP datagram with the IPv4 pseudo-header checksum."""

    src_port: int
    dst_port: int
    payload: bytes

    HEADER_LEN = 8

    def pack(self, src_ip: str, dst_ip: str) -> bytes:
        """Serialize with the pseudo-header checksum for these IPs."""
        length = self.HEADER_LEN + len(self.payload)
        header = struct.pack(
            "!HHHH", self.src_port, self.dst_port, length, 0
        )
        checksum = udp_checksum(
            header + self.payload, ip_to_bytes(src_ip) + ip_to_bytes(dst_ip)
        )
        if checksum == 0:
            checksum = 0xFFFF  # RFC 768: transmitted zero means "none"
        return header[:6] + struct.pack("!H", checksum) + self.payload

    @classmethod
    def unpack(cls, raw: bytes, src_ip: str, dst_ip: str) -> "UDPDatagram":
        src_port, dst_port, length = udp_header(raw)
        verify_udp_checksum(
            raw[:length], ip_to_bytes(src_ip) + ip_to_bytes(dst_ip)
        )
        return cls(src_port, dst_port, raw[cls.HEADER_LEN : length])

    def __len__(self) -> int:
        return self.HEADER_LEN + len(self.payload)


@dataclass(frozen=True)
class InferenceRequest:
    """Lightning's application-layer inference query."""

    model_id: int
    request_id: int
    data: np.ndarray  # uint8 levels

    def __post_init__(self) -> None:
        if not 0 <= self.model_id <= 0xFFFF:
            raise ValueError("model id must fit in 16 bits")
        if not 0 <= self.request_id <= 0xFFFFFFFF:
            raise ValueError("request id must fit in 32 bits")
        data = np.asarray(self.data)
        if data.dtype != np.uint8:
            if np.any(np.asarray(data) < 0) or np.any(np.asarray(data) > 255):
                raise ValueError("inference data must be 8-bit levels")
            data = data.astype(np.uint8)
        object.__setattr__(self, "data", data.ravel())

    def pack(self) -> bytes:
        """Serialize the request header plus data payload."""
        header = _REQUEST_HEADER.pack(
            REQUEST_MAGIC, self.model_id, self.request_id
        )
        return header + self.data.tobytes()

    @classmethod
    def unpack(cls, raw: bytes) -> "InferenceRequest":
        model_id, request_id, data = request_fields(raw)
        return cls(model_id=model_id, request_id=request_id, data=data)


@dataclass(frozen=True)
class InferenceResponse:
    """Lightning's application-layer inference result."""

    model_id: int
    request_id: int
    prediction: int
    scores: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.prediction <= 0xFFFF:
            raise ValueError("prediction must fit in 16 bits")
        if self.scores is not None:
            object.__setattr__(
                self,
                "scores",
                np.asarray(self.scores, dtype=np.float32).ravel(),
            )

    def pack(self) -> bytes:
        """Serialize the response header plus optional scores."""
        header = _RESPONSE_HEADER.pack(
            RESPONSE_MAGIC, self.model_id, self.request_id, self.prediction
        )
        if self.scores is None:
            return header
        return header + self.scores.astype(">f4").tobytes()

    @classmethod
    def unpack(cls, raw: bytes) -> "InferenceResponse":
        if len(raw) < _RESPONSE_HEADER.size:
            raise ValueError("truncated inference response")
        magic, model_id, request_id, prediction = _RESPONSE_HEADER.unpack(
            raw[: _RESPONSE_HEADER.size]
        )
        if magic != RESPONSE_MAGIC:
            raise ValueError("not a Lightning inference response")
        tail = raw[_RESPONSE_HEADER.size :]
        scores = None
        if tail:
            if len(tail) % 4:
                raise ValueError("malformed response score block")
            scores = np.frombuffer(tail, dtype=">f4").astype(np.float32)
        return cls(
            model_id=model_id,
            request_id=request_id,
            prediction=prediction,
            scores=scores,
        )


def build_inference_frame(
    request: InferenceRequest | InferenceResponse,
    src_mac: str = "02:00:00:00:00:01",
    dst_mac: str = "02:00:00:00:00:02",
    src_ip: str = "10.0.0.1",
    dst_ip: str = "10.0.0.2",
    src_port: int = 40001,
    dst_port: int = LIGHTNING_UDP_PORT,
) -> bytes:
    """Assemble a complete Ethernet/IPv4/UDP frame around an inference
    query (or, with the addressing swapped, its response)."""
    udp = UDPDatagram(src_port, dst_port, request.pack())
    ip = IPv4Packet(src_ip, dst_ip, IP_PROTO_UDP, udp.pack(src_ip, dst_ip))
    frame = EthernetFrame(dst_mac, src_mac, ETHERTYPE_IPV4, ip.pack())
    return frame.pack()
