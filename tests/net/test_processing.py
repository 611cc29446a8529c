"""Tests for the packet-processing module (§6.1): flow tracking and
intrusion detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.net import (
    EthernetFrame,
    FlowKey,
    FlowTable,
    InferenceRequest,
    IntrusionDetector,
    PacketParser,
    PacketProcessor,
    Verdict,
    build_inference_frame,
)


def key(src="1.1.1.1", dst="2.2.2.2", sport=1000, dport=2000, proto=17):
    return FlowKey(src, dst, sport, dport, proto)


class TestFlowTable:
    def test_observe_creates_and_accounts(self):
        table = FlowTable()
        stats = table.observe(key(), 100, now_s=0.0)
        stats = table.observe(key(), 200, now_s=1.0)
        assert stats.packets == 2
        assert stats.bytes == 300
        assert stats.duration_s == 1.0
        assert stats.mean_packet_bytes == 150.0

    def test_distinct_flows_tracked_separately(self):
        table = FlowTable()
        table.observe(key(sport=1), 10, 0.0)
        table.observe(key(sport=2), 10, 0.0)
        assert len(table) == 2

    def test_idle_timeout_eviction(self):
        table = FlowTable(idle_timeout_s=5.0)
        table.observe(key(), 10, 0.0)
        table.observe(key(sport=9), 10, 10.0)  # first flow idle 10 s
        assert key() not in table
        assert table.evictions == 1

    def test_lru_capacity_eviction(self):
        table = FlowTable(capacity=2, idle_timeout_s=1000.0)
        table.observe(key(sport=1), 10, 0.0)
        table.observe(key(sport=2), 10, 0.0)
        table.observe(key(sport=1), 10, 1.0)  # refresh flow 1
        table.observe(key(sport=3), 10, 2.0)  # evicts flow 2 (LRU)
        assert key(sport=1) in table
        assert key(sport=2) not in table
        assert key(sport=3) in table

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowTable(capacity=0)
        with pytest.raises(ValueError):
            FlowTable(idle_timeout_s=0)


class TestIntrusionDetector:
    def test_normal_traffic_allowed(self):
        detector = IntrusionDetector()
        assert detector.inspect("1.1.1.1", 80, 0.0) is Verdict.ALLOW

    def test_blocklist_drops(self):
        detector = IntrusionDetector(blocklist={"6.6.6.6"})
        assert detector.inspect("6.6.6.6", 80, 0.0) is Verdict.DROP
        assert detector.drops == 1

    def test_block_at_runtime(self):
        detector = IntrusionDetector()
        detector.block("7.7.7.7")
        assert detector.inspect("7.7.7.7", 80, 0.0) is Verdict.DROP

    def test_rate_limit_triggers_within_window(self):
        detector = IntrusionDetector(
            window_s=1.0, max_packets_per_window=5
        )
        verdicts = [
            detector.inspect("1.1.1.1", 80, 0.1 * i) for i in range(7)
        ]
        assert verdicts[:5] == [Verdict.ALLOW] * 5
        assert verdicts[5] is Verdict.DROP
        assert verdicts[6] is Verdict.DROP

    def test_rate_window_rolls_over(self):
        detector = IntrusionDetector(
            window_s=1.0, max_packets_per_window=2
        )
        detector.inspect("1.1.1.1", 80, 0.0)
        detector.inspect("1.1.1.1", 80, 0.1)
        assert detector.inspect("1.1.1.1", 80, 0.2) is Verdict.DROP
        # New window: counter resets.
        assert detector.inspect("1.1.1.1", 80, 2.0) is Verdict.ALLOW

    def test_port_scan_alert(self):
        detector = IntrusionDetector(max_ports_per_window=10)
        verdicts = [
            detector.inspect("5.5.5.5", port, 0.01 * port)
            for port in range(1, 13)
        ]
        assert Verdict.ALERT in verdicts
        assert detector.alerts >= 1

    def test_sources_independent(self):
        detector = IntrusionDetector(max_packets_per_window=2)
        detector.inspect("1.1.1.1", 80, 0.0)
        detector.inspect("1.1.1.1", 80, 0.0)
        assert detector.inspect("2.2.2.2", 80, 0.0) is Verdict.ALLOW

    def test_validation(self):
        with pytest.raises(ValueError):
            IntrusionDetector(window_s=0)
        with pytest.raises(ValueError):
            IntrusionDetector(max_packets_per_window=0)


def classified(raw):
    """The processor takes what the parser already read, not bytes."""
    return PacketParser().parse(raw)


class TestPacketProcessor:
    def frame(self, src_ip="3.3.3.3", src_port=1234, dst_port=9999):
        return classified(
            build_inference_frame(
                InferenceRequest(1, 1, np.zeros(4, dtype=np.uint8)),
                src_ip=src_ip,
                src_port=src_port,
                dst_port=dst_port,
            )
        )

    def test_flow_accounting_through_processor(self):
        proc = PacketProcessor()
        out1 = proc.process(self.frame(), 0.0)
        out2 = proc.process(self.frame(), 0.5)
        assert out1.verdict is Verdict.ALLOW
        assert out2.flow.packets == 2
        assert out2.key.src_ip == "3.3.3.3"

    def test_non_ip_allowed_without_flow(self):
        proc = PacketProcessor()
        arp = EthernetFrame(
            "02:00:00:00:00:02", "02:00:00:00:00:01", 0x0806, b"\x00" * 28
        )
        out = proc.process(classified(arp.pack()), 0.0)
        assert out.verdict is Verdict.ALLOW
        assert out.flow is None
        assert proc.non_ip == 1

    def test_corrupted_ip_dropped(self):
        proc = PacketProcessor()
        raw = bytearray(self.frame().raw)
        raw[22] ^= 0xFF
        out = proc.process(classified(bytes(raw)), 0.0)
        assert out.verdict is Verdict.DROP
        assert (out.flow, out.key) == (None, None)

    def test_flow_bytes_are_the_frame_length(self):
        proc = PacketProcessor()
        packet = self.frame()
        assert proc.process(packet, 0.0).flow.bytes == len(packet.raw)

    def test_flood_detected(self):
        proc = PacketProcessor(
            detector=IntrusionDetector(max_packets_per_window=10)
        )
        verdicts = [
            proc.process(self.frame(), 0.01 * i).verdict
            for i in range(15)
        ]
        # Packets 11..15 exceed the 10-per-window budget.
        assert verdicts.count(Verdict.DROP) == 5


class TestSmartNICIntegration:
    def test_blocklisted_source_dropped_before_pcie(self, tiny_dag):
        from repro.core import LightningSmartNIC, PuntedPacket

        nic = LightningSmartNIC(
            processor=PacketProcessor(
                detector=IntrusionDetector(blocklist={"66.6.6.6"})
            )
        )
        nic.register_model(tiny_dag)
        # A non-inference packet (wrong port) from a blocklisted source.
        frame = build_inference_frame(
            InferenceRequest(1, 1, np.zeros(12, dtype=np.uint8)),
            src_ip="66.6.6.6",
            dst_port=8080,
        )
        out = nic.handle_frame(frame)
        assert isinstance(out, PuntedPacket)
        assert out.verdict is Verdict.DROP
        assert out.pcie_seconds == 0.0
        assert nic.counters.dropped == 1

    def test_regular_traffic_accounted_in_flow_table(self, tiny_dag):
        from repro.core import LightningSmartNIC

        nic = LightningSmartNIC()
        nic.register_model(tiny_dag)
        frame = build_inference_frame(
            InferenceRequest(1, 1, np.zeros(12, dtype=np.uint8)),
            dst_port=5353,
        )
        nic.handle_frame(frame)
        nic.handle_frame(frame)
        assert len(nic.processor.flow_table) == 1
        assert nic.counters.punted == 2

    def test_inference_packets_bypass_processing(self, tiny_dag):
        from repro.core import LightningSmartNIC

        nic = LightningSmartNIC()
        nic.register_model(tiny_dag)
        frame = build_inference_frame(
            InferenceRequest(1, 1, np.arange(12, dtype=np.uint8))
        )
        nic.handle_frame(frame)
        assert nic.processor.processed == 0
