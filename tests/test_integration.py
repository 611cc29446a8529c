"""Cross-module integration scenarios and robustness fuzzing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    IntrusionDetector,
    PacketParser,
    PacketProcessor,
    RegularPacket,
    Verdict,
    build_inference_frame,
)
from repro.photonics import BehavioralCore, NoiselessModel


def small_dag(model_id: int, in_size: int, out_size: int, seed: int):
    rng = np.random.default_rng(seed)
    return ComputationDAG(
        model_id,
        f"model{model_id}",
        [
            LayerTask(
                name="fc",
                kind="dense",
                input_size=in_size,
                output_size=out_size,
                weights_levels=rng.integers(
                    -200, 201, (out_size, in_size)
                ).astype(float),
            )
        ],
    )


class TestParserFuzzing:
    """The NIC faces arbitrary wire bytes; the parser must classify
    every frame without crashing (one too short to carry an Ethernet
    header is a runt)."""

    @given(data=st.binary(min_size=14, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_parser_never_crashes_on_random_bytes(self, data):
        parser = PacketParser()
        result = parser.parse(data)
        assert result.__class__.__name__ in (
            "RegularPacket",
            "ParsedInferenceQuery",
        )

    @given(data=st.binary(min_size=0, max_size=13))
    @settings(max_examples=50, deadline=None)
    def test_truncated_ethernet_raises_cleanly(self, data):
        """... out of ``EthernetFrame.unpack``; the parser, which must
        not raise, classifies the same bytes as a runt."""
        with pytest.raises(ValueError, match="truncated Ethernet frame"):
            EthernetFrame.unpack(data)
        assert PacketParser().parse(data).fate is Fate.RUNT

    @given(data=st.binary(min_size=14, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_processor_never_crashes_on_random_bytes(self, data):
        processor = PacketProcessor()
        outcome = processor.process(PacketParser().parse(data), now_s=0.0)
        assert outcome.verdict in (
            Verdict.ALLOW, Verdict.ALERT, Verdict.DROP,
        )

    @given(
        model_id=st.integers(0, 0xFFFF),
        request_id=st.integers(0, 0xFFFFFFFF),
        payload=st.lists(st.integers(0, 255), max_size=40),
        src_ip=st.tuples(
            st.integers(1, 255), st.integers(0, 255),
            st.integers(0, 255), st.integers(1, 254),
        ),
        src_port=st.integers(1, 65535),
    )
    @settings(max_examples=60, deadline=None)
    def test_wire_round_trip_property(
        self, model_id, request_id, payload, src_ip, src_port
    ):
        """Any valid request survives the full wire stack bit-exactly."""
        request = InferenceRequest(
            model_id, request_id, np.array(payload, dtype=np.uint8)
        )
        frame = build_inference_frame(
            request,
            src_ip=".".join(map(str, src_ip)),
            src_port=src_port,
        )
        parsed = PacketParser().parse(frame)
        assert parsed.request.model_id == model_id
        assert parsed.request.request_id == request_id
        assert np.array_equal(parsed.request.data, request.data)
        assert parsed.src_port == src_port


class TestMixedTrafficScenario:
    """One NIC, three kinds of traffic: inference queries, ordinary
    packets punted to the host, and an attacker that gets dropped."""

    @pytest.fixture()
    def nic(self):
        datapath = LightningDatapath(
            core=BehavioralCore(noise=NoiselessModel())
        )
        nic = LightningSmartNIC(
            datapath=datapath,
            processor=PacketProcessor(
                detector=IntrusionDetector(
                    max_packets_per_window=20,
                    blocklist={"99.99.99.99"},
                )
            ),
        )
        nic.register_model(small_dag(1, 8, 3, seed=1))
        nic.register_model(small_dag(2, 4, 2, seed=2))
        return nic

    def test_traffic_mix(self, nic):
        rng = np.random.default_rng(0)
        served = punted = dropped = 0
        for i in range(60):
            kind = i % 3
            if kind == 0:  # inference for model 1
                frame = build_inference_frame(
                    InferenceRequest(
                        1, i, rng.integers(0, 256, 8).astype(np.uint8)
                    )
                )
            elif kind == 1:  # inference for model 2
                frame = build_inference_frame(
                    InferenceRequest(
                        2, i, rng.integers(0, 256, 4).astype(np.uint8)
                    )
                )
            else:  # regular traffic on another port
                frame = build_inference_frame(
                    InferenceRequest(
                        1, i, np.zeros(1, dtype=np.uint8)
                    ),
                    dst_port=8080,
                    src_ip="10.1.1.1",
                )
            outcome = nic.handle_frame(frame, now_s=i * 1e-3)
            if isinstance(outcome, ServedRequest):
                served += 1
            elif outcome.verdict is Verdict.DROP:
                dropped += 1
            else:
                punted += 1
        # Attacker burst from the blocklisted address.
        for i in range(5):
            frame = build_inference_frame(
                InferenceRequest(1, 1000 + i, np.zeros(1, dtype=np.uint8)),
                dst_port=8080,
                src_ip="99.99.99.99",
            )
            outcome = nic.handle_frame(frame, now_s=1.0)
            assert outcome.verdict is Verdict.DROP
            dropped += 1
        assert served == 40
        assert punted == 20
        assert dropped == 5
        assert nic.counters.summary() == {
            "served": 40, "punted": 20, "dropped": 5, "frames_seen": 65,
        }
        assert len(nic.processor.flow_table) >= 1

    def test_model_isolation_under_interleaving(self, nic):
        """Interleaved reconfiguration never leaks one model's outputs
        into another's responses."""
        rng = np.random.default_rng(1)
        x1 = rng.integers(0, 256, 8).astype(np.uint8)
        x2 = rng.integers(0, 256, 4).astype(np.uint8)
        baseline1 = nic.handle_frame(
            build_inference_frame(InferenceRequest(1, 0, x1))
        ).response.scores
        baseline2 = nic.handle_frame(
            build_inference_frame(InferenceRequest(2, 0, x2))
        ).response.scores
        for i in range(10):
            r1 = nic.handle_frame(
                build_inference_frame(InferenceRequest(1, i, x1))
            )
            r2 = nic.handle_frame(
                build_inference_frame(InferenceRequest(2, i, x2))
            )
            assert np.allclose(r1.response.scores, baseline1)
            assert np.allclose(r2.response.scores, baseline2)


class TestFailureInjection:
    def test_desynchronized_lanes_never_stream_misaligned(self):
        """Failure injection on the streamer: randomly delayed lane
        fills must never produce misaligned element pairs."""
        from repro.core import SynchronousDataStreamer
        from repro.photonics import DAC

        rng = np.random.default_rng(3)
        dacs = [DAC(lane_id=i, samples_per_cycle=4) for i in range(2)]
        streamer = SynchronousDataStreamer(dacs)
        a = np.arange(0, 40)
        b = np.arange(100, 140)
        # Feed blocks with random per-lane delays.
        a_blocks = [a[i : i + 4] for i in range(0, 40, 4)]
        b_blocks = [b[i : i + 4] for i in range(0, 40, 4)]
        got_a, got_b = [], []
        while a_blocks or b_blocks or any(d.valid for d in dacs):
            if a_blocks and rng.random() < 0.5:
                dacs[0].push(a_blocks.pop(0))
            if b_blocks and rng.random() < 0.5:
                dacs[1].push(b_blocks.pop(0))
            out = streamer.tick()
            if out is not None:
                got_a.append(out[0])
                got_b.append(out[1])
        assert np.allclose(np.concatenate(got_a) * 255, a)
        assert np.allclose(np.concatenate(got_b) * 255, b)
        assert streamer.stall_cycles > 0  # delays actually occurred

    def test_corrupted_inference_payload_degrades_to_punt(self, tiny_dag):
        nic = LightningSmartNIC(
            datapath=LightningDatapath(
                core=BehavioralCore(noise=NoiselessModel())
            )
        )
        nic.register_model(tiny_dag)
        frame = bytearray(
            build_inference_frame(
                InferenceRequest(1, 1, np.zeros(12, dtype=np.uint8))
            )
        )
        frame[-3] ^= 0xFF  # corrupt the UDP payload (checksum breaks)
        outcome = nic.handle_frame(bytes(frame))
        assert isinstance(outcome, PuntedPacket)
        assert nic.counters.served == 0

    def test_wrong_payload_length_is_loud(self, tiny_dag):
        nic = LightningSmartNIC(
            datapath=LightningDatapath(
                core=BehavioralCore(noise=NoiselessModel())
            )
        )
        nic.register_model(tiny_dag)
        frame = build_inference_frame(
            InferenceRequest(1, 1, np.zeros(5, dtype=np.uint8))
        )
        outcome = nic.handle_frame(frame)
        assert outcome.fate is Fate.WRONG_LENGTH
        assert "expects 12" in outcome.reason
        assert outcome.pcie_seconds == 0.0
        assert (nic.counters.dropped, nic.counters.served) == (1, 0)
