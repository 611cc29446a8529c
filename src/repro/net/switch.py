"""In-network optical inference (§11 future work; IOI / Taurus style).

The paper closes by noting Lightning "is applicable to support these
scenarios as well" — per-packet inference inside network switches — and
leaves the extension to future work.  This module builds it: an N-port
switch whose forwarding pipeline embeds a Lightning datapath.  Each
forwarded packet's header features run through a registered
traffic-analysis model at line rate, and the resulting class drives a
per-class policy (forward normally, mirror to a monitor port, or drop)
— the per-packet-ML data plane of Taurus, realized with photonic MACs.

The switch keeps a MAC learning table for ordinary L2 forwarding;
inference is a *policy overlay*, not a replacement for forwarding
state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..core.datapath import LightningDatapath
from ..core.dag import ComputationDAG
from .packet import (
    ETHERTYPE_IPV4,
    IP_PROTO_UDP,
    EthernetFrame,
    IPv4Packet,
    UDPDatagram,
    udp_header,
)
from .parser import extract_header_features

__all__ = [
    "LearningForwardingTable",
    "PolicyAction",
    "ClassPolicy",
    "SwitchDecision",
    "InNetworkInferenceSwitch",
]


class LearningForwardingTable:
    """An address→port table with learn-on-ingress, flood-on-miss.

    The forwarding state machine of an L2 learning switch, factored out
    of the frame pipeline so other planes can reuse it: the in-network
    inference switch binds MAC addresses to physical ports, and the
    serving fabric's :class:`~repro.fabric.router.SwitchShardRouter`
    binds model ids to shards ("ports") with the same semantics —
    learn the first placement, forward repeats to it, flood/relearn
    when the binding disappears.
    """

    def __init__(self, num_ports: int) -> None:
        if num_ports < 1:
            raise ValueError("a forwarding table needs at least one port")
        self.num_ports = num_ports
        self._table: dict[object, int] = {}

    def learn(self, address: object, port: int) -> None:
        """Bind ``address`` to ``port`` (last writer wins, as on a
        real switch when a station moves)."""
        if not 0 <= port < self.num_ports:
            raise ValueError(f"port {port} out of range")
        self._table[address] = port

    def lookup(self, address: object) -> int | None:
        """The learned port for ``address``, or ``None`` on a miss."""
        return self._table.get(address)

    def flood_ports(self, ingress_port: int | None = None) -> tuple[int, ...]:
        """Every port except the ingress — the flood set on a miss."""
        return tuple(
            p for p in range(self.num_ports) if p != ingress_port
        )

    def entries(self) -> dict[object, int]:
        """A snapshot of the learned bindings."""
        return dict(self._table)

    def clear(self) -> None:
        self._table.clear()


class PolicyAction(enum.Enum):
    """What the switch does with packets of a given inferred class."""

    FORWARD = "forward"
    MIRROR = "mirror"
    DROP = "drop"


@dataclass(frozen=True)
class ClassPolicy:
    """Maps one model output class to a forwarding action."""

    action: PolicyAction
    #: Port to mirror to when ``action`` is MIRROR.
    mirror_port: int | None = None

    def __post_init__(self) -> None:
        if self.action is PolicyAction.MIRROR and self.mirror_port is None:
            raise ValueError("a mirror policy needs a mirror port")


@dataclass(frozen=True)
class SwitchDecision:
    """The outcome of switching one frame."""

    ingress_port: int
    #: Egress ports the frame leaves on (empty when dropped).
    egress_ports: tuple[int, ...]
    action: PolicyAction
    inferred_class: int | None
    inference_seconds: float


class InNetworkInferenceSwitch:
    """An L2 learning switch with a per-packet inference policy stage."""

    def __init__(
        self,
        num_ports: int,
        datapath: LightningDatapath | None = None,
    ) -> None:
        if num_ports < 2:
            raise ValueError("a switch needs at least two ports")
        self.num_ports = num_ports
        self.datapath = (
            datapath if datapath is not None else LightningDatapath()
        )
        self._mac_table = LearningForwardingTable(num_ports)
        self._model_id: int | None = None
        self._policies: dict[int, ClassPolicy] = {}
        self._default_policy = ClassPolicy(PolicyAction.FORWARD)
        self.frames_switched = 0
        self.frames_dropped = 0
        self.frames_mirrored = 0
        self.inferences = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def install_model(
        self,
        dag: ComputationDAG,
        policies: dict[int, ClassPolicy],
        default: ClassPolicy | None = None,
    ) -> None:
        """Install the traffic-analysis model and its class policies.

        The model must consume the parser's 16 header features (that is
        all a per-packet pipeline can extract at line rate).
        """
        if dag.tasks[0].input_size != 16:
            raise ValueError(
                "in-network models consume the 16 header features"
            )
        for class_index, policy in policies.items():
            if policy.mirror_port is not None and not (
                0 <= policy.mirror_port < self.num_ports
            ):
                raise ValueError(
                    f"mirror port {policy.mirror_port} out of range"
                )
            if class_index < 0:
                raise ValueError("class indices are non-negative")
        self.datapath.register_model(dag)
        self._model_id = dag.model_id
        self._policies = dict(policies)
        if default is not None:
            self._default_policy = default

    @property
    def mac_table(self) -> dict[str, int]:
        return self._mac_table.entries()

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def _l2_egress(
        self, frame: EthernetFrame, ingress_port: int
    ) -> tuple[int, ...]:
        """Learn the source, look up the destination, flood if unknown."""
        self._mac_table.learn(frame.src_mac, ingress_port)
        known = self._mac_table.lookup(frame.dst_mac)
        if known is not None and known != ingress_port:
            return (known,)
        if known == ingress_port:
            return ()  # hairpin: suppress
        return self._mac_table.flood_ports(ingress_port)

    def _classify(self, frame: EthernetFrame) -> tuple[int | None, float]:
        """Run the inference stage on the frame's header features."""
        if self._model_id is None or frame.ethertype != ETHERTYPE_IPV4:
            return None, 0.0
        try:
            ip = IPv4Packet.unpack(frame.payload)
            ports = (
                udp_header(ip.payload)[:2]
                if ip.protocol == IP_PROTO_UDP
                else (0, 0)
            )
        except ValueError:
            return None, 0.0
        udp = UDPDatagram(*ports, b"")
        features = extract_header_features(ip, udp).astype(np.float64)
        execution = self.datapath.execute(self._model_id, features)
        self.inferences += 1
        return execution.prediction, execution.total_seconds

    def switch_frame(
        self, raw: bytes, ingress_port: int
    ) -> SwitchDecision:
        """Forward one frame through learning + inference policy."""
        if not 0 <= ingress_port < self.num_ports:
            raise ValueError(f"ingress port {ingress_port} out of range")
        frame = EthernetFrame.unpack(raw)
        egress = self._l2_egress(frame, ingress_port)
        inferred, inference_seconds = self._classify(frame)
        policy = (
            self._policies.get(inferred, self._default_policy)
            if inferred is not None
            else self._default_policy
        )
        self.frames_switched += 1
        if policy.action is PolicyAction.DROP:
            self.frames_dropped += 1
            egress = ()
        elif policy.action is PolicyAction.MIRROR:
            self.frames_mirrored += 1
            assert policy.mirror_port is not None
            if policy.mirror_port not in egress:
                egress = (*egress, policy.mirror_port)
        return SwitchDecision(
            ingress_port=ingress_port,
            egress_ports=egress,
            action=policy.action,
            inferred_class=inferred,
            inference_seconds=inference_seconds,
        )
