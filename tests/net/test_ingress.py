"""NIC ingress: one decision, one fate, one counter per frame."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.stats import NICCounters
from repro.net import (
    HEADER_FEATURE_COUNT,
    EthernetFrame,
    Fate,
    InferenceRequest,
    IntrusionDetector,
    PacketParser,
    PacketProcessor,
    ParsedInferenceQuery,
    Verdict,
    build_inference_frame,
)
from repro.net import ingress
from repro.net.ingress import IngressRequest, admit, ingest, receive
from repro.net.packet import udp_checksum

MODELS = {1: 12}


def query(model_id=1, size=12, request_id=7, **kwargs):
    request = InferenceRequest(
        model_id, request_id, np.arange(size, dtype=np.uint8)
    )
    return build_inference_frame(request, **kwargs)


def bad_ipv4():
    raw = bytearray(query())
    raw[22] ^= 0xFF  # TTL: the header checksum no longer holds
    return bytes(raw)


def bad_udp():
    raw = bytearray(query())
    raw[-1] ^= 0xFF
    return bytes(raw)


ARP = EthernetFrame(
    "02:00:00:00:00:02", "02:00:00:00:00:01", 0x0806, b"\x00" * 28
).pack()

#: condition -> (frame, fate, the one NICCounters field it moves)
TABLE = {
    "runt": (b"\x00" * 13, Fate.RUNT, "dropped"),
    "empty": (b"", Fate.RUNT, "dropped"),
    "non-ipv4": (ARP, Fate.NON_INFERENCE, "punted"),
    "other port": (query(dst_port=53), Fate.NON_INFERENCE, "punted"),
    "bad ipv4": (bad_ipv4(), Fate.MALFORMED, "punted"),
    "bad udp": (bad_udp(), Fate.MALFORMED, "punted"),
    "unknown model": (query(model_id=55), Fate.UNKNOWN_MODEL, "dropped"),
    "short payload": (query(size=11), Fate.WRONG_LENGTH, "dropped"),
    "long payload": (query(size=13), Fate.WRONG_LENGTH, "dropped"),
}


class TestFateTable:
    @pytest.mark.parametrize("condition", TABLE)
    def test_each_condition_has_one_fate_and_one_counter(self, condition):
        raw, fate, field = TABLE[condition]
        counters = NICCounters()
        packet = receive(raw, PacketParser(), counters, MODELS)
        assert packet.fate is fate
        assert packet.fate.punted == (field == "punted")
        expected = {"served": 0, "punted": 0, "dropped": 0, "frames_seen": 1}
        expected[field] = 1
        assert counters.summary() == expected

    def test_a_deployed_query_of_the_right_length_comes_back(self):
        counters = NICCounters()
        packet = receive(query(), PacketParser(), counters, MODELS)
        assert isinstance(packet, ParsedInferenceQuery)
        assert (counters.frames_seen, counters.punted, counters.dropped) == (
            1, 0, 0,
        )

    def test_without_a_model_table_every_query_comes_back(self):
        packet = receive(query(model_id=55), PacketParser(), NICCounters())
        assert isinstance(packet, ParsedInferenceQuery)

    def test_header_data_models_are_sized_by_their_features(self):
        parser = PacketParser(header_data_models={9})
        packet = receive(
            query(model_id=9, size=3), parser, NICCounters(), {9: 16}
        )
        assert isinstance(packet, ParsedInferenceQuery)

    def test_processor_drop_becomes_the_ids_fate(self):
        processor = PacketProcessor(
            detector=IntrusionDetector(blocklist={"66.6.6.6"})
        )
        counters = NICCounters()
        blocked = receive(
            query(dst_port=53, src_ip="66.6.6.6"),
            PacketParser(), counters, MODELS, processor,
        )
        assert blocked.fate is Fate.IDS_DROP
        assert "not the inference port; dropped by intrusion" in blocked.reason
        assert blocked.processed.verdict is Verdict.DROP
        # A bad IPv4 header is the processor's to drop, too.
        assert receive(
            bad_ipv4(), PacketParser(), counters, MODELS, processor
        ).fate is Fate.IDS_DROP
        allowed = receive(
            query(dst_port=53), PacketParser(), counters, MODELS, processor
        )
        assert allowed.fate is Fate.NON_INFERENCE
        assert allowed.processed.verdict is Verdict.ALLOW
        assert counters.summary() == {
            "served": 0, "punted": 1, "dropped": 2, "frames_seen": 3,
        }

    def test_the_processor_never_sees_a_runt_or_a_query(self):
        processor = PacketProcessor()
        for raw in (b"runt", query(), query(model_id=55)):
            receive(raw, PacketParser(), NICCounters(), MODELS, processor)
        assert processor.processed == 0


def frame_at(arrival_s, raw):
    """Anything with ``arrival_s`` and ``raw`` is a timestamped frame."""
    return SimpleNamespace(arrival_s=arrival_s, raw=raw)


class TestIngest:
    def test_queries_become_requests_in_order_with_frame_views(self):
        frames = [
            frame_at(0.0, query(request_id=0)),
            frame_at(1.0, b"runt"),
            frame_at(2.0, query(request_id=2)),
            frame_at(3.0, query(model_id=55)),
        ]
        counters = NICCounters()
        requests, rejected = ingest(frames, PacketParser(), counters, MODELS)
        assert [r.request_id for r in requests] == [0, 2]
        assert [r.arrival_s for r in requests] == [0.0, 2.0]
        assert rejected == 2
        assert counters.summary() == {
            "served": 0, "punted": 0, "dropped": 2, "frames_seen": 4,
        }
        # Zero-copy: the levels alias the frame bytes.
        assert np.shares_memory(
            requests[0].data_levels,
            np.frombuffer(frames[0].raw, dtype=np.uint8),
        )

    def test_admit_counts_requests_that_skipped_the_parser(self):
        counters = NICCounters()
        admit(counters, 5)
        assert counters.summary() == {
            "served": 0, "punted": 0, "dropped": 0, "frames_seen": 5,
        }

    def test_the_request_record_is_the_runtimes(self):
        from repro.runtime import RuntimeRequest

        assert RuntimeRequest is IngressRequest
        with pytest.raises(ValueError, match="negative"):
            IngressRequest(0, 1, -1.0, np.zeros(1))


@pytest.fixture
def fallbacks(monkeypatch):
    """The fate of every frame ``ingest`` hands to ``receive`` (``None``
    for a query that came back), in the order it handed them."""
    fates = []

    def spy(raw, *args, **kwargs):
        packet = receive(raw, *args, **kwargs)
        fates.append(getattr(packet, "fate", None))
        return packet

    monkeypatch.setattr(ingress, "receive", spy)
    return fates


def reseal_udp(raw: bytes, checksum: int | None = None) -> bytes:
    """``raw`` with its UDP checksum recomputed (or set to ``checksum``)."""
    raw = bytearray(raw)
    raw[40:42] = b"\x00\x00"
    if checksum is None:
        checksum = udp_checksum(bytes(raw[34:]), bytes(raw[26:34])) or 0xFFFF
    raw[40:42] = checksum.to_bytes(2, "big")
    return bytes(raw)


class TestBlockIngest:
    """``ingest`` accepts clean queries as arrays; everything else is
    ``receive``'s, and the result is what a loop of ``receive`` gives."""

    def test_clean_queries_never_reach_receive(self, fallbacks):
        frames = [frame_at(i, query(request_id=i)) for i in range(5)]
        counters = NICCounters()
        requests, rejected = ingest(frames, PacketParser(), counters, MODELS)
        assert [r.request_id for r in requests] == list(range(5))
        assert rejected == 0 and fallbacks == []
        assert counters.summary() == {
            "served": 0, "punted": 0, "dropped": 0, "frames_seen": 5,
        }

    def test_an_ethernet_padded_query_serves_through_the_fallback(
        self, fallbacks
    ):
        padded = query(request_id=3) + b"\x00" * 6
        requests, rejected = ingest(
            [frame_at(0.0, padded)], PacketParser(), NICCounters(), MODELS
        )
        assert [r.request_id for r in requests] == [3] and rejected == 0
        assert fallbacks == [None]
        assert np.array_equal(requests[0].data_levels, np.arange(12))

    def test_a_zero_udp_checksum_serves(self, fallbacks):
        raw = reseal_udp(query(request_id=4), checksum=0)
        requests, _ = ingest(
            [frame_at(0.0, raw)], PacketParser(), NICCounters(), MODELS
        )
        assert [r.request_id for r in requests] == [4]
        assert fallbacks == []

    def test_one_bad_udp_checksum_in_a_block_is_that_frames_alone(
        self, fallbacks
    ):
        frames = [frame_at(i, query(request_id=i)) for i in range(3)]
        frames[1] = frame_at(1, bad_udp())
        counters = NICCounters()
        requests, rejected = ingest(frames, PacketParser(), counters, MODELS)
        assert [r.request_id for r in requests] == [0, 2] and rejected == 1
        assert fallbacks == [Fate.MALFORMED]
        assert counters.summary() == {
            "served": 0, "punted": 1, "dropped": 0, "frames_seen": 3,
        }

    def test_a_header_data_model_gets_its_header_features(self, fallbacks):
        parser = PacketParser(header_data_models={9})
        raw = query(model_id=9, size=3, src_ip="192.168.7.1")
        requests, _ = ingest(
            [frame_at(0.0, raw)], parser, NICCounters(), {9: 16}
        )
        levels = requests[0].data_levels
        assert len(levels) == HEADER_FEATURE_COUNT
        assert list(levels[:4]) == [192, 168, 7, 1]
        assert fallbacks == [None]

    def test_an_odd_length_datagram(self, fallbacks):
        models = {1: 13}
        clean = query(size=13, request_id=1)
        # A flip in the odd tail byte: the checksum pads it with a zero.
        damaged = bytearray(clean)
        damaged[-1] ^= 0x01
        frames = [frame_at(0.0, clean), frame_at(1.0, bytes(damaged))]
        requests, rejected = ingest(
            frames, PacketParser(), NICCounters(), models
        )
        assert [r.request_id for r in requests] == [1] and rejected == 1
        assert np.array_equal(requests[0].data_levels, np.arange(13))
        assert fallbacks == [Fate.MALFORMED]
        resealed = reseal_udp(bytes(damaged))
        assert ingest(
            [frame_at(0.0, resealed)], PacketParser(), NICCounters(), models
        )[1] == 0
        assert fallbacks == [Fate.MALFORMED]

    def test_an_empty_stream(self):
        counters = NICCounters()
        assert ingest([], PacketParser(), counters, MODELS) == ([], 0)
        assert counters.frames_seen == 0

    def test_a_generator_of_frames(self):
        raws = [query(request_id=0), b"runt", query(request_id=2)]
        counters = NICCounters()
        requests, rejected = ingest(
            (frame_at(i, raw) for i, raw in enumerate(raws)),
            PacketParser(), counters, MODELS,
        )
        assert [r.request_id for r in requests] == [0, 2] and rejected == 1
        assert counters.frames_seen == 3
