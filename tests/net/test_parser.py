"""Tests for the packet parser (§4 step 1, requirement R1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.net import (
    EthernetFrame,
    Fate,
    HEADER_FEATURE_COUNT,
    InferenceRequest,
    IPv4Packet,
    PacketParser,
    ParsedInferenceQuery,
    RegularPacket,
    UDPDatagram,
    build_inference_frame,
    extract_header_features,
    internet_checksum,
)


def inference_frame(**kwargs):
    req = InferenceRequest(
        model_id=kwargs.pop("model_id", 1),
        request_id=kwargs.pop("request_id", 1),
        data=kwargs.pop("data", np.arange(4, dtype=np.uint8)),
    )
    return build_inference_frame(req, **kwargs)


class TestClassification:
    def test_inference_query_identified_by_port(self):
        parser = PacketParser()
        parsed = parser.parse(inference_frame())
        assert isinstance(parsed, ParsedInferenceQuery)

    def test_other_udp_port_is_regular(self):
        parser = PacketParser()
        parsed = parser.parse(inference_frame(dst_port=53))
        assert isinstance(parsed, RegularPacket)
        assert "not the inference port" in parsed.reason
        assert parsed.fate is Fate.NON_INFERENCE
        assert parsed.flow.dst_port == 53

    def test_non_udp_is_regular(self):
        ip = IPv4Packet("1.1.1.1", "2.2.2.2", 6, b"\x00" * 20)  # TCP
        frame = EthernetFrame(
            "02:00:00:00:00:02", "02:00:00:00:00:01", 0x0800, ip.pack()
        )
        parsed = PacketParser().parse(frame.pack())
        assert isinstance(parsed, RegularPacket)
        assert "non-UDP" in parsed.reason

    def test_non_ipv4_is_regular(self):
        frame = EthernetFrame(
            "02:00:00:00:00:02", "02:00:00:00:00:01", 0x86DD, b"\x00" * 40
        )
        parsed = PacketParser().parse(frame.pack())
        assert isinstance(parsed, RegularPacket)

    def test_corrupted_ip_counted_malformed(self):
        raw = bytearray(inference_frame())
        raw[22] ^= 0xFF  # corrupt the IP header (TTL), checksum fails
        parsed = PacketParser().parse(bytes(raw))
        assert isinstance(parsed, RegularPacket)
        assert parsed.fate is Fate.MALFORMED
        assert parsed.flow is None  # no header to key a flow on

    def test_bad_request_payload_malformed(self):
        udp = UDPDatagram(1, 4055, b"junk")
        ip = IPv4Packet("1.1.1.1", "2.2.2.2", 17,
                        udp.pack("1.1.1.1", "2.2.2.2"))
        frame = EthernetFrame(
            "02:00:00:00:00:02", "02:00:00:00:00:01", 0x0800, ip.pack()
        )
        parsed = PacketParser().parse(frame.pack())
        assert isinstance(parsed, RegularPacket)
        assert parsed.fate is Fate.MALFORMED
        assert parsed.flow.src_ip == "1.1.1.1"

    def test_runt_is_classified_not_raised(self):
        for size in range(EthernetFrame.HEADER_LEN):
            parsed = PacketParser().parse(b"\x00" * size)
            assert parsed.fate is Fate.RUNT
            assert parsed.flow is None
            assert "truncated Ethernet frame" in parsed.reason

    def test_bad_udp_checksum_keeps_its_ports(self):
        raw = bytearray(inference_frame(src_port=1234))
        raw[-1] ^= 0xFF  # payload byte: only the UDP checksum breaks
        parsed = PacketParser().parse(bytes(raw))
        assert parsed.fate is Fate.MALFORMED
        assert "UDP checksum" in parsed.reason
        assert (parsed.flow.src_port, parsed.flow.dst_port) == (1234, 4055)

    def test_bad_udp_length_has_no_ports(self):
        raw = bytearray(inference_frame(src_port=1234))
        raw[14 + 20 + 4 : 14 + 20 + 6] = b"\xff\xff"  # UDP length
        parsed = PacketParser().parse(bytes(raw))
        assert parsed.fate is Fate.MALFORMED
        assert "malformed UDP length" in parsed.reason
        assert (parsed.flow.src_port, parsed.flow.dst_port) == (0, 0)

    def test_custom_inference_port(self):
        parser = PacketParser(inference_port=9000)
        assert isinstance(
            parser.parse(inference_frame(dst_port=9000)),
            ParsedInferenceQuery,
        )
        assert isinstance(
            parser.parse(inference_frame()), RegularPacket
        )

    def test_invalid_port_rejected(self):
        with pytest.raises(ValueError):
            PacketParser(inference_port=0)


class TestExtraction:
    def test_payload_data_extracted(self):
        data = np.array([9, 8, 7], dtype=np.uint8)
        parsed = PacketParser().parse(inference_frame(data=data))
        assert np.array_equal(parsed.data_levels, data)

    def test_model_and_request_ids_extracted(self):
        parsed = PacketParser().parse(
            inference_frame(model_id=12, request_id=99)
        )
        assert parsed.request.model_id == 12
        assert parsed.request.request_id == 99

    def test_addressing_captured_for_response(self):
        parsed = PacketParser().parse(
            inference_frame(src_ip="10.5.5.5", src_port=7777)
        )
        assert parsed.src_ip == "10.5.5.5"
        assert parsed.src_port == 7777

    def test_header_data_model_uses_header_features(self):
        parser = PacketParser(header_data_models={4})
        parsed = parser.parse(
            inference_frame(
                model_id=4, data=np.zeros(0, dtype=np.uint8),
                src_ip="192.168.7.1",
            )
        )
        assert len(parsed.data_levels) == HEADER_FEATURE_COUNT
        assert parsed.data_levels[0] == 192  # first src IP octet

    def test_payload_model_ignores_header_features(self):
        parser = PacketParser(header_data_models={4})
        data = np.array([1, 2, 3], dtype=np.uint8)
        parsed = parser.parse(inference_frame(model_id=5, data=data))
        assert np.array_equal(parsed.data_levels, data)


class TestHeaderFeatures:
    def test_feature_vector_layout(self):
        ip = IPv4Packet("1.2.3.4", "5.6.7.8", 17, b"\x00" * 12, ttl=33)
        udp = UDPDatagram(0x1234, 0x0FD7, b"")
        features = extract_header_features(ip, udp)
        assert len(features) == HEADER_FEATURE_COUNT
        assert list(features[:8]) == [1, 2, 3, 4, 5, 6, 7, 8]
        assert features[8] == 0x12 and features[9] == 0x34
        assert features[12] == 17  # protocol
        assert features[13] == 33  # TTL

    def test_features_are_byte_valued(self):
        ip = IPv4Packet("255.255.255.255", "0.0.0.0", 17, b"")
        udp = UDPDatagram(65535, 65535, b"")
        features = extract_header_features(ip, udp)
        assert features.dtype == np.uint8
        assert features.max() <= 255

    def test_length_feature_is_the_headers_total_length(self):
        # IHL 6: one word of NOP options, which the total length in the
        # header counts and header + payload without them would not.
        raw = bytearray(
            inference_frame(model_id=4, data=np.zeros(0, dtype=np.uint8))
        )
        header = raw[14:34] + b"\x01" * 4
        header[0] = 0x46
        header[2:4] = (len(raw) - 14 + 4).to_bytes(2, "big")
        header[10:12] = b"\x00\x00"
        header[10:12] = internet_checksum(bytes(header)).to_bytes(2, "big")
        raw = bytes(raw[:14] + header + raw[34:])
        total_length = len(raw) - 14

        def length_of(features) -> int:
            return int.from_bytes(features[14:16].tobytes(), "big")

        parsed = PacketParser(header_data_models={4}).parse(raw)
        assert isinstance(parsed, ParsedInferenceQuery)
        assert length_of(parsed.data_levels) == total_length
        # The switch's path: the packet it unpacks keeps its options.
        ip = IPv4Packet.unpack(raw[14:])
        assert len(ip) == total_length
        features = extract_header_features(ip, UDPDatagram(0, 0, b""))
        assert length_of(features) == total_length


class TestZeroCopyIngress:
    """The fast path parses headers in place and views the payload."""

    def test_data_levels_view_frame_buffer(self):
        data = np.arange(32, dtype=np.uint8)
        raw = inference_frame(data=data)
        parsed = PacketParser().parse(raw)
        assert isinstance(parsed, ParsedInferenceQuery)
        assert np.array_equal(parsed.data_levels, data)
        # The levels alias the frame bytes — no payload copy was made.
        assert not parsed.data_levels.flags.owndata
        assert np.shares_memory(
            parsed.data_levels, np.frombuffer(raw, dtype=np.uint8)
        )

    def test_memoryview_input_accepted(self):
        raw = inference_frame()
        parsed = PacketParser().parse(memoryview(raw))
        assert isinstance(parsed, ParsedInferenceQuery)

    def test_header_feature_fast_path_matches_reference(self):
        # The in-place feature extraction must match the public
        # extract_header_features byte for byte.
        raw = inference_frame(model_id=9, src_port=0x0102)
        parser = PacketParser(header_data_models={9})
        parsed = parser.parse(raw)
        frame = EthernetFrame.unpack(raw)
        ip = IPv4Packet.unpack(frame.payload)
        udp = UDPDatagram.unpack(ip.payload, ip.src_ip, ip.dst_ip)
        reference = extract_header_features(ip, udp)
        assert np.array_equal(parsed.data_levels, reference)


class TestVectorizedChecksum:
    def test_matches_incremental_reference(self):
        from repro.net.packet import internet_checksum

        def reference(data: bytes) -> int:
            import struct as _s

            if len(data) % 2:
                data += b"\x00"
            total = 0
            for (word,) in _s.iter_unpack("!H", data):
                total += word
                total = (total & 0xFFFF) + (total >> 16)
            return (~total) & 0xFFFF

        rng = np.random.default_rng(0)
        for size in [0, 1, 2, 3, 19, 20, 64, 1499, 1500]:
            payload = rng.integers(0, 256, size=size).astype(np.uint8)
            blob = payload.tobytes()
            assert internet_checksum(blob) == reference(blob), size
            assert internet_checksum(memoryview(blob)) == reference(blob)
