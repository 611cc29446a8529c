"""Tests for byte-accurate packet construction and parsing."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    EthernetFrame,
    InferenceRequest,
    InferenceResponse,
    IPv4Packet,
    LIGHTNING_UDP_PORT,
    UDPDatagram,
    build_inference_frame,
    bytes_to_ip,
    bytes_to_mac,
    internet_checksum,
    ip_to_bytes,
    mac_to_bytes,
)


class TestAddressHelpers:
    def test_mac_round_trip(self):
        mac = "de:ad:be:ef:00:42"
        assert bytes_to_mac(mac_to_bytes(mac)) == mac

    def test_ip_round_trip(self):
        assert bytes_to_ip(ip_to_bytes("192.168.1.254")) == "192.168.1.254"

    @pytest.mark.parametrize(
        "bad", ["1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d"]
    )
    def test_malformed_ip_rejected(self, bad):
        with pytest.raises(ValueError, match="malformed"):
            ip_to_bytes(bad)

    @pytest.mark.parametrize("bad", ["aa:bb:cc", "zz:00:11:22:33:44"])
    def test_malformed_mac_rejected(self, bad):
        with pytest.raises(ValueError, match="malformed"):
            mac_to_bytes(bad)


class TestInternetChecksum:
    def test_known_vector(self):
        # RFC 1071 example data.
        data = bytes.fromhex("0001f203f4f5f6f7")
        assert internet_checksum(data) == 0x220D

    def test_checksum_of_valid_header_is_zero(self):
        ip = IPv4Packet("1.2.3.4", "5.6.7.8", 17, b"hi")
        raw = ip.pack()
        assert internet_checksum(raw[:20]) == 0

    def test_odd_length_padded(self):
        assert internet_checksum(b"\xff") == internet_checksum(b"\xff\x00")


class TestEthernetFrame:
    def test_pack_unpack_round_trip(self):
        frame = EthernetFrame(
            "02:00:00:00:00:02", "02:00:00:00:00:01", 0x0800, b"payload"
        )
        recovered = EthernetFrame.unpack(frame.pack())
        assert recovered == frame

    def test_truncated_frame_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            EthernetFrame.unpack(b"\x00" * 10)

    def test_length(self):
        frame = EthernetFrame(
            "02:00:00:00:00:02", "02:00:00:00:00:01", 0x0800, b"12345"
        )
        assert len(frame) == 19
        assert len(frame.pack()) == 19


class TestIPv4Packet:
    def test_pack_unpack_round_trip(self):
        ip = IPv4Packet("10.0.0.1", "10.0.0.2", 17, b"data", ttl=17)
        out = IPv4Packet.unpack(ip.pack())
        assert out.src_ip == "10.0.0.1"
        assert out.dst_ip == "10.0.0.2"
        assert out.ttl == 17
        assert out.payload == b"data"

    def test_corrupted_header_checksum_rejected(self):
        raw = bytearray(IPv4Packet("1.1.1.1", "2.2.2.2", 17, b"x").pack())
        raw[8] ^= 0xFF  # flip TTL bits
        with pytest.raises(ValueError, match="checksum"):
            IPv4Packet.unpack(bytes(raw))

    def test_non_ipv4_version_rejected(self):
        raw = bytearray(IPv4Packet("1.1.1.1", "2.2.2.2", 17, b"x").pack())
        raw[0] = 0x65  # version 6
        with pytest.raises(ValueError, match="not an IPv4"):
            IPv4Packet.unpack(bytes(raw))

    def test_options_round_trip_and_count_in_the_length(self):
        ip = IPv4Packet("1.1.1.1", "2.2.2.2", 17, b"abc", options=b"\x01" * 8)
        raw = ip.pack()
        assert raw[0] == 0x47 and len(raw) == len(ip) == 31
        assert IPv4Packet.unpack(raw) == ip
        with pytest.raises(ValueError, match="whole words"):
            IPv4Packet("1.1.1.1", "2.2.2.2", 17, b"", options=b"\x01").pack()

    def test_total_length_respected_with_trailing_padding(self):
        # Ethernet pads small frames; the IP layer must trim by length.
        ip = IPv4Packet("1.1.1.1", "2.2.2.2", 17, b"abc")
        out = IPv4Packet.unpack(ip.pack() + b"\x00" * 10)
        assert out.payload == b"abc"

    def test_truncated_packet_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            IPv4Packet.unpack(b"\x45\x00")


class TestUDPDatagram:
    def test_pack_unpack_round_trip(self):
        udp = UDPDatagram(1234, 4055, b"hello")
        out = UDPDatagram.unpack(
            udp.pack("10.0.0.1", "10.0.0.2"), "10.0.0.1", "10.0.0.2"
        )
        assert out.src_port == 1234
        assert out.dst_port == 4055
        assert out.payload == b"hello"

    def test_checksum_verification_catches_corruption(self):
        raw = bytearray(UDPDatagram(1, 2, b"abcd").pack("1.1.1.1", "2.2.2.2"))
        raw[-1] ^= 0xFF
        with pytest.raises(ValueError, match="checksum"):
            UDPDatagram.unpack(bytes(raw), "1.1.1.1", "2.2.2.2")

    def test_checksum_uses_pseudo_header(self):
        raw = UDPDatagram(1, 2, b"abcd").pack("1.1.1.1", "2.2.2.2")
        with pytest.raises(ValueError, match="checksum"):
            UDPDatagram.unpack(raw, "9.9.9.9", "2.2.2.2")

    def test_zero_checksum_skips_verification(self):
        header = struct.pack("!HHHH", 1, 2, 12, 0)
        raw = header + b"ping"
        out = UDPDatagram.unpack(raw, "1.1.1.1", "2.2.2.2")
        assert out.payload == b"ping"

    def test_truncated_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            UDPDatagram.unpack(b"\x00" * 4, "1.1.1.1", "2.2.2.2")


class TestInferenceMessages:
    def test_request_round_trip(self):
        req = InferenceRequest(
            model_id=3, request_id=12345,
            data=np.arange(20, dtype=np.uint8),
        )
        out = InferenceRequest.unpack(req.pack())
        assert out.model_id == 3
        assert out.request_id == 12345
        assert np.array_equal(out.data, req.data)

    def test_request_magic_checked(self):
        raw = bytearray(InferenceRequest(1, 1, np.zeros(1, np.uint8)).pack())
        raw[0] = 0x00
        with pytest.raises(ValueError, match="not a Lightning"):
            InferenceRequest.unpack(bytes(raw))

    def test_request_field_ranges(self):
        with pytest.raises(ValueError, match="16 bits"):
            InferenceRequest(70000, 1, np.zeros(1, np.uint8))
        with pytest.raises(ValueError, match="32 bits"):
            InferenceRequest(1, 2**33, np.zeros(1, np.uint8))

    def test_request_data_levels_validated(self):
        with pytest.raises(ValueError, match="8-bit"):
            InferenceRequest(1, 1, np.array([300]))

    def test_response_round_trip_with_scores(self):
        resp = InferenceResponse(
            model_id=2, request_id=9, prediction=4,
            scores=np.array([0.1, 0.9], dtype=np.float32),
        )
        out = InferenceResponse.unpack(resp.pack())
        assert out.prediction == 4
        assert np.allclose(out.scores, [0.1, 0.9], atol=1e-6)

    def test_response_without_scores(self):
        resp = InferenceResponse(model_id=2, request_id=9, prediction=4)
        out = InferenceResponse.unpack(resp.pack())
        assert out.scores is None

    def test_response_malformed_scores_rejected(self):
        resp = InferenceResponse(model_id=2, request_id=9, prediction=4)
        with pytest.raises(ValueError, match="score block"):
            InferenceResponse.unpack(resp.pack() + b"\x01\x02")

    @given(
        model_id=st.integers(0, 0xFFFF),
        request_id=st.integers(0, 0xFFFFFFFF),
        data=st.lists(st.integers(0, 255), max_size=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_request_round_trip_property(self, model_id, request_id, data):
        req = InferenceRequest(
            model_id, request_id, np.array(data, dtype=np.uint8)
        )
        out = InferenceRequest.unpack(req.pack())
        assert out.model_id == model_id
        assert out.request_id == request_id
        assert np.array_equal(out.data, np.array(data, dtype=np.uint8))


class TestBuildInferenceFrame:
    def test_full_stack_round_trip(self):
        req = InferenceRequest(5, 6, np.arange(8, dtype=np.uint8))
        raw = build_inference_frame(req, src_ip="172.16.0.9")
        frame = EthernetFrame.unpack(raw)
        ip = IPv4Packet.unpack(frame.payload)
        udp = UDPDatagram.unpack(ip.payload, ip.src_ip, ip.dst_ip)
        out = InferenceRequest.unpack(udp.payload)
        assert ip.src_ip == "172.16.0.9"
        assert udp.dst_port == LIGHTNING_UDP_PORT
        assert out.model_id == 5
        assert np.array_equal(out.data, req.data)
