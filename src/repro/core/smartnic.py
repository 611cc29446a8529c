"""The Lightning smartNIC: end-to-end inference serving (§4, Figure 5).

:class:`LightningSmartNIC` glues the network substrate to the datapath:
frames arrive on the 100 Gbps port, the packet parser identifies
inference queries and extracts model ID and user data, the DAG
configuration loader reconfigures the count-action datapath, the
photonic-electronic pipeline computes the DAG, and result generation
assembles the response packet back out the Ethernet interface (or over
PCIe for local delivery).  Regular packets bypass inference and are
punted to the host.

Every served request returns a :class:`ServedRequest` carrying the same
latency decomposition the paper reports in Figure 15: end-to-end =
network I/O + datapath + compute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..net.nic import NICPort, PCIeInterface
from ..net.packet import InferenceResponse, build_inference_frame
from ..net.ingress import receive
from ..net.parser import Fate, PacketParser, ParsedInferenceQuery
from ..net.processing import PacketProcessor, Verdict
from .dag import ComputationDAG
from .datapath import InferenceExecution, LightningDatapath
from .stats import NICCounters

__all__ = ["ServedRequest", "PuntedPacket", "LightningSmartNIC"]


@dataclass(frozen=True)
class ServedRequest:
    """One inference query served on the NIC, with latency breakdown."""

    response_frame: bytes
    response: InferenceResponse
    execution: InferenceExecution
    network_seconds: float

    @property
    def compute_seconds(self) -> float:
        """Photonic dot products + adders + non-linearities (Fig 15b)."""
        return self.execution.compute_seconds

    @property
    def datapath_seconds(self) -> float:
        """Digital datapath: NIC I/O, parsing, count-action modules,
        DACs/ADCs, memory streaming (Fig 15c)."""
        return (
            self.execution.datapath_seconds
            + self.execution.memory_seconds
            + self.network_seconds
        )

    @property
    def end_to_end_seconds(self) -> float:
        """Request arrival to response departure (Fig 15a)."""
        return self.compute_seconds + self.datapath_seconds


@dataclass(frozen=True)
class PuntedPacket:
    """A frame the NIC did not serve: punted to the host, or dropped.

    ``fate`` says which and why (the table in :mod:`repro.net.ingress`).
    Regular traffic passes the packet-processing stage (§6.1) first,
    whose ``verdict`` rides along.  Dropped packets never cross PCIe
    (``pcie_seconds == 0``)."""

    raw: bytes
    reason: str
    pcie_seconds: float
    verdict: Verdict = Verdict.ALLOW
    fate: Fate = Fate.NON_INFERENCE


class LightningSmartNIC:
    """A photonic-electronic smartNIC serving live inference queries."""

    def __init__(
        self,
        datapath: LightningDatapath | None = None,
        parser: PacketParser | None = None,
        port: NICPort | None = None,
        pcie: PCIeInterface | None = None,
        processor: PacketProcessor | None = None,
        mac_address: str = "02:00:00:00:00:02",
        ip_address: str = "10.0.0.2",
    ) -> None:
        self.datapath = (
            datapath if datapath is not None else LightningDatapath()
        )
        self.parser = parser if parser is not None else PacketParser()
        self.port = port if port is not None else NICPort()
        self.pcie = pcie if pcie is not None else PCIeInterface()
        self.processor = (
            processor if processor is not None else PacketProcessor()
        )
        self.mac_address = mac_address
        self.ip_address = ip_address
        #: Frame-level accounting (served / punted / dropped /
        #: frames_seen), the same record the runtime layer keeps.
        self.counters = NICCounters()

    def register_model(
        self, dag: ComputationDAG, header_data: bool = False
    ) -> None:
        """Register a model; ``header_data=True`` marks it as a
        traffic-analysis model whose query data comes from packet headers."""
        self.datapath.register_model(dag)
        if header_data:
            self.parser.header_data_models = frozenset(
                self.parser.header_data_models | {dag.model_id}
            )

    @property
    def model_ids(self) -> tuple[int, ...]:
        return self.datapath.loader.model_ids

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def handle_frame(
        self, raw: bytes, now_s: float | None = None
    ) -> ServedRequest | PuntedPacket:
        """Process one wire frame: serve it, punt it, or drop it — one
        :func:`repro.net.ingress.receive` decision, never an exception
        on frame content.

        ``now_s`` is the arrival timestamp used by the packet-processing
        stage's flow table and intrusion windows; when omitted, a
        microsecond-per-frame internal clock is used.
        """
        if now_s is None:
            now_s = self.counters.frames_seen * 1e-6
        packet = receive(
            raw, self.parser, self.counters,
            self.datapath.loader.input_sizes, self.processor, now_s,
        )
        if isinstance(packet, ParsedInferenceQuery):
            return self._serve(packet, self.port.receive_seconds(len(raw)))
        fate, processed = packet.fate, packet.processed
        return PuntedPacket(
            raw=packet.raw,
            reason=packet.reason,
            pcie_seconds=(
                self.pcie.transfer_seconds(len(raw)) if fate.punted else 0.0
            ),
            verdict=Verdict.ALLOW if processed is None else processed.verdict,
            fate=fate,
        )

    def _serve(
        self, query: ParsedInferenceQuery, rx_seconds: float
    ) -> ServedRequest:
        execution = self.datapath.execute(
            query.request.model_id,
            np.asarray(query.data_levels, dtype=np.float64),
        )
        response = InferenceResponse(
            model_id=query.request.model_id,
            request_id=query.request.request_id,
            prediction=execution.prediction,
            scores=execution.output_levels.astype(np.float32),
        )
        # Result generation (§4 step 8): swap the addressing and send
        # the response back to the requester.
        response_frame = build_inference_frame(
            response,
            src_mac=self.mac_address,
            dst_mac=query.src_mac,
            src_ip=self.ip_address,
            dst_ip=query.src_ip,
            src_port=query.dst_port,
            dst_port=query.src_port,
        )
        tx_seconds = self.port.transmit_seconds(len(response_frame))
        self.counters.served += 1
        return ServedRequest(
            response_frame=response_frame,
            response=response,
            execution=execution,
            network_seconds=rx_seconds + tx_seconds,
        )
