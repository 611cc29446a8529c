"""The packet-processing module (§6.1).

Besides serving inference queries, Lightning's parser forwards packets
to a packet-processing module that implements "default NIC
functionalities and advanced smartNIC features, such as intrusion
detection".  This module provides that stage: a flow table with idle
eviction for per-flow accounting, and a rule-based intrusion detector
(rate limiting, port-scan detection, and address blocklisting) that
yields a per-packet verdict before traffic is punted to the host.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass

from .parser import Fate, FlowKey, RegularPacket

__all__ = [
    "FlowKey",
    "FlowStats",
    "FlowTable",
    "Verdict",
    "IntrusionDetector",
    "PacketProcessor",
    "ProcessedPacket",
]


@dataclass
class FlowStats:
    """Per-flow accounting state."""

    packets: int = 0
    bytes: int = 0
    first_seen_s: float = 0.0
    last_seen_s: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.last_seen_s - self.first_seen_s

    @property
    def mean_packet_bytes(self) -> float:
        return self.bytes / self.packets if self.packets else 0.0


class FlowTable:
    """A bounded flow table with LRU capacity and idle-timeout eviction."""

    def __init__(
        self, capacity: int = 4096, idle_timeout_s: float = 60.0
    ) -> None:
        if capacity < 1:
            raise ValueError("flow table capacity must be positive")
        if idle_timeout_s <= 0:
            raise ValueError("idle timeout must be positive")
        self.capacity = capacity
        self.idle_timeout_s = idle_timeout_s
        self._flows: OrderedDict[FlowKey, FlowStats] = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._flows)

    def __contains__(self, key: FlowKey) -> bool:
        return key in self._flows

    def observe(self, key: FlowKey, num_bytes: int, now_s: float) -> FlowStats:
        """Account one packet to its flow, creating the flow if new."""
        self.expire(now_s)
        stats = self._flows.get(key)
        if stats is None:
            if len(self._flows) >= self.capacity:
                self._flows.popitem(last=False)
                self.evictions += 1
            stats = FlowStats(first_seen_s=now_s)
            self._flows[key] = stats
        else:
            self._flows.move_to_end(key)
        stats.packets += 1
        stats.bytes += num_bytes
        stats.last_seen_s = now_s
        return stats

    def get(self, key: FlowKey) -> FlowStats | None:
        """Look up a flow's stats without touching its LRU position."""
        return self._flows.get(key)

    def expire(self, now_s: float) -> int:
        """Evict flows idle past the timeout; returns how many."""
        expired = [
            key
            for key, stats in self._flows.items()
            if now_s - stats.last_seen_s > self.idle_timeout_s
        ]
        for key in expired:
            del self._flows[key]
        self.evictions += len(expired)
        return len(expired)


class Verdict(enum.Enum):
    """Per-packet decision from the intrusion detector."""

    ALLOW = "allow"
    ALERT = "alert"
    DROP = "drop"


class IntrusionDetector:
    """Rule-based intrusion detection (the §6.1 smartNIC feature).

    Three detections, each evaluated per packet within a sliding time
    window:

    * **blocklist** — packets from listed source addresses drop.
    * **rate limiting** — a source exceeding ``max_packets_per_window``
      drops for the remainder of the window (flood protection).
    * **port-scan detection** — a source probing more than
      ``max_ports_per_window`` distinct destination ports alerts.
    """

    def __init__(
        self,
        window_s: float = 1.0,
        max_packets_per_window: int = 1000,
        max_ports_per_window: int = 32,
        blocklist: frozenset[str] | set[str] = frozenset(),
    ) -> None:
        if window_s <= 0:
            raise ValueError("window must be positive")
        if max_packets_per_window < 1 or max_ports_per_window < 1:
            raise ValueError("thresholds must be positive")
        self.window_s = window_s
        self.max_packets_per_window = max_packets_per_window
        self.max_ports_per_window = max_ports_per_window
        self.blocklist = set(blocklist)
        self._window_start: dict[str, float] = {}
        self._packet_counts: dict[str, int] = {}
        self._ports_seen: dict[str, set[int]] = {}
        self.drops = 0
        self.alerts = 0

    def block(self, src_ip: str) -> None:
        """Add a source address to the blocklist at runtime."""
        self.blocklist.add(src_ip)

    def _roll_window(self, src_ip: str, now_s: float) -> None:
        start = self._window_start.get(src_ip)
        if start is None or now_s - start > self.window_s:
            self._window_start[src_ip] = now_s
            self._packet_counts[src_ip] = 0
            self._ports_seen[src_ip] = set()

    def inspect(
        self, src_ip: str, dst_port: int, now_s: float
    ) -> Verdict:
        """Evaluate one packet; updates the per-source window state."""
        if src_ip in self.blocklist:
            self.drops += 1
            return Verdict.DROP
        self._roll_window(src_ip, now_s)
        self._packet_counts[src_ip] += 1
        self._ports_seen[src_ip].add(dst_port)
        if self._packet_counts[src_ip] > self.max_packets_per_window:
            self.drops += 1
            return Verdict.DROP
        if len(self._ports_seen[src_ip]) > self.max_ports_per_window:
            self.alerts += 1
            return Verdict.ALERT
        return Verdict.ALLOW


@dataclass(frozen=True)
class ProcessedPacket:
    """Outcome of the packet-processing stage for one frame."""

    verdict: Verdict
    flow: FlowStats | None
    key: FlowKey | None


class PacketProcessor:
    """Default-NIC packet processing: flow accounting + intrusion
    detection, applied to regular (non-inference) traffic before it is
    punted to the host over PCIe."""

    def __init__(
        self,
        flow_table: FlowTable | None = None,
        detector: IntrusionDetector | None = None,
    ) -> None:
        self.flow_table = flow_table if flow_table is not None else FlowTable()
        self.detector = (
            detector if detector is not None else IntrusionDetector()
        )
        self.processed = 0
        self.non_ip = 0

    def process(
        self, packet: RegularPacket, now_s: float
    ) -> ProcessedPacket:
        """Account and inspect one frame the parser classified as
        regular traffic, from the headers the parser already read."""
        self.processed += 1
        key = packet.flow
        if key is None:
            if packet.fate is not Fate.NON_INFERENCE:  # bad IPv4 header
                return ProcessedPacket(Verdict.DROP, None, None)
            self.non_ip += 1
            return ProcessedPacket(Verdict.ALLOW, None, None)
        stats = self.flow_table.observe(key, len(packet.raw), now_s)
        verdict = self.detector.inspect(key.src_ip, key.dst_port, now_s)
        return ProcessedPacket(verdict=verdict, flow=stats, key=key)
