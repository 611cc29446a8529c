"""End-to-end smartNIC tests: packets in, inference responses out."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ComputationDAG,
    LayerTask,
    LightningDatapath,
    LightningSmartNIC,
    PuntedPacket,
    ServedRequest,
)
from repro.net import (
    EthernetFrame,
    Fate,
    InferenceRequest,
    InferenceResponse,
    IPv4Packet,
    UDPDatagram,
    build_inference_frame,
)
from repro.photonics import BehavioralCore, NoiselessModel


@pytest.fixture()
def nic(tiny_dag):
    datapath = LightningDatapath(
        core=BehavioralCore(noise=NoiselessModel())
    )
    nic = LightningSmartNIC(datapath=datapath)
    nic.register_model(tiny_dag)
    return nic


def make_frame(model_id=1, request_id=7, data=None, **kwargs):
    if data is None:
        data = np.arange(12, dtype=np.uint8)
    request = InferenceRequest(
        model_id=model_id, request_id=request_id, data=data
    )
    return build_inference_frame(request, **kwargs)


class TestServing:
    def test_inference_packet_is_served(self, nic):
        served = nic.handle_frame(make_frame())
        assert isinstance(served, ServedRequest)
        assert nic.counters.served == 1

    def test_response_round_trips_on_the_wire(self, nic):
        served = nic.handle_frame(make_frame(request_id=99))
        frame = EthernetFrame.unpack(served.response_frame)
        ip = IPv4Packet.unpack(frame.payload)
        udp = UDPDatagram.unpack(ip.payload, ip.src_ip, ip.dst_ip)
        response = InferenceResponse.unpack(udp.payload)
        assert response.request_id == 99
        assert response.model_id == 1
        assert response.prediction == served.execution.prediction

    def test_response_addressing_swapped(self, nic):
        served = nic.handle_frame(
            make_frame(src_ip="10.9.9.9", src_port=5555)
        )
        frame = EthernetFrame.unpack(served.response_frame)
        ip = IPv4Packet.unpack(frame.payload)
        udp = UDPDatagram.unpack(ip.payload, ip.src_ip, ip.dst_ip)
        assert ip.dst_ip == "10.9.9.9"
        assert udp.dst_port == 5555
        assert ip.src_ip == nic.ip_address

    def test_prediction_matches_datapath(self, nic, tiny_dag):
        data = np.arange(12, dtype=np.uint8)
        served = nic.handle_frame(make_frame(data=data))
        direct = nic.datapath.execute(1, data.astype(float))
        assert served.response.prediction == direct.prediction

    def test_scores_carried_in_response(self, nic):
        served = nic.handle_frame(make_frame())
        assert served.response.scores is not None
        assert len(served.response.scores) == 3

    def test_latency_decomposition(self, nic):
        served = nic.handle_frame(make_frame())
        assert served.end_to_end_seconds == pytest.approx(
            served.compute_seconds + served.datapath_seconds
        )
        assert served.network_seconds > 0
        assert served.compute_seconds > 0

    def test_unknown_model_id_is_dropped(self, nic):
        outcome = nic.handle_frame(make_frame(model_id=55))
        assert isinstance(outcome, PuntedPacket)
        assert outcome.fate is Fate.UNKNOWN_MODEL
        assert "model 55 is not deployed" in outcome.reason
        assert outcome.pcie_seconds == 0.0
        assert nic.counters.summary() == {
            "served": 0, "punted": 0, "dropped": 1, "frames_seen": 1,
        }
        assert isinstance(nic.handle_frame(make_frame()), ServedRequest)


class TestPunting:
    def test_non_inference_port_punted(self, nic):
        frame = make_frame(dst_port=8080)
        punted = nic.handle_frame(frame)
        assert isinstance(punted, PuntedPacket)
        assert nic.counters.punted == 1
        assert punted.pcie_seconds > 0

    def test_non_ip_traffic_punted(self, nic):
        frame = EthernetFrame(
            dst_mac="02:00:00:00:00:02",
            src_mac="02:00:00:00:00:01",
            ethertype=0x0806,  # ARP
            payload=b"\x00" * 28,
        )
        punted = nic.handle_frame(frame.pack())
        assert isinstance(punted, PuntedPacket)
        assert "ethertype" in punted.reason

    def test_garbage_udp_payload_punted(self, nic):
        udp = UDPDatagram(1234, 4055, b"not an inference request")
        ip = IPv4Packet("10.0.0.1", "10.0.0.2", 17,
                        udp.pack("10.0.0.1", "10.0.0.2"))
        frame = EthernetFrame(
            "02:00:00:00:00:02", "02:00:00:00:00:01", 0x0800, ip.pack()
        )
        punted = nic.handle_frame(frame.pack())
        assert isinstance(punted, PuntedPacket)
        assert "inference request" in punted.reason


class TestHeaderDataModels:
    def test_traffic_model_reads_header_features(self, tiny_dag):
        """Traffic-analysis models take their query data from packet
        headers, not the payload (§4 step 1)."""
        rng = np.random.default_rng(0)
        traffic_dag = ComputationDAG(
            9, "traffic",
            [LayerTask("fc", "dense", 16, 2,
                       rng.integers(-255, 256, (2, 16)).astype(float))],
        )
        datapath = LightningDatapath(
            core=BehavioralCore(noise=NoiselessModel())
        )
        nic = LightningSmartNIC(datapath=datapath)
        nic.register_model(traffic_dag, header_data=True)
        # Payload data is empty; features come from the header.
        frame = make_frame(
            model_id=9, data=np.zeros(0, dtype=np.uint8),
            src_ip="192.168.1.50",
        )
        served = nic.handle_frame(frame)
        assert isinstance(served, ServedRequest)
        # Different header -> different features -> (almost surely)
        # different raw scores.
        frame2 = make_frame(
            model_id=9, data=np.zeros(0, dtype=np.uint8),
            src_ip="10.1.2.3",
        )
        served2 = nic.handle_frame(frame2)
        assert not np.allclose(
            served.response.scores, served2.response.scores
        )

    def test_two_models_on_one_nic(self, nic, tiny_dag, rng):
        """The §5.4 scenario: packets for different models interleave."""
        other = ComputationDAG(
            2, "other",
            [LayerTask("fc", "dense", 4, 2,
                       rng.integers(-255, 256, (2, 4)).astype(float))],
        )
        nic.register_model(other)
        a = nic.handle_frame(make_frame(model_id=1))
        b = nic.handle_frame(
            make_frame(model_id=2, data=np.arange(4, dtype=np.uint8))
        )
        assert a.execution.model_name == "tiny"
        assert b.execution.model_name == "other"
        assert nic.counters.served == 2
