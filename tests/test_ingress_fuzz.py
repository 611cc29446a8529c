"""Hostile wire input never raises, and every frame is accounted.

One corpus of damaged frames — every truncation, over-long frames, byte
flips anywhere (the Ethernet header included), bad IHL / total length /
UDP length, a zeroed UDP checksum with a rewritten model ID, unknown
model IDs, wrong-length payloads, pure random bytes — goes through the
four ingress surfaces: ``PacketParser.parse``, ``ingress.receive``,
``LightningSmartNIC.handle_frame`` and ``Cluster.serve_frames``.  The
same corpus, spliced between clean frames of its own byte length,
pins the block-checked ``ingress.ingest`` to a loop of ``receive``.
Derandomized, so tier-1 is deterministic.
"""

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
    ServedRequest,
)
from repro.core.stats import NICCounters, check_accounting
from repro.faults import WireFrame, requests_from_frames
from repro.net import (
    InferenceRequest,
    PacketParser,
    ParsedInferenceQuery,
    RegularPacket,
    build_inference_frame,
    internet_checksum,
)
from repro.net.ingress import ingest, receive
from repro.net.packet import udp_checksum
from repro.photonics import BehavioralCore, CoreArchitecture, NoiselessModel
from repro.runtime import Cluster

MODEL, INPUT = 1, 12
#: Hostile frames carry request ids from here up, so one that is
#: served after all (a flip in a MAC address changes nothing the parser
#: checks) cannot be taken for a clean frame.
HOSTILE_ID = 1 << 20
IP, UDP, REQUEST = 14, 34, 42  # layer offsets in a built frame
DATA = REQUEST + 8
#: Clean frames spliced around a hostile one are for this model id plus
#: their input size, so a frame of any length has a deployed model.
SPLICE_MODEL = 0x8000

FUZZ = settings(
    max_examples=150, derandomize=True, deadline=None, database=None
)


def query(request_id, model_id=MODEL, size=INPUT):
    rng = np.random.default_rng(request_id)
    levels = rng.integers(0, 256, size).astype(np.uint8)
    return build_inference_frame(
        InferenceRequest(model_id, request_id, levels)
    )


def with_ipv4_checksum(raw: bytearray) -> bytearray:
    """Re-seal the IPv4 header so damage behind the checksum is reached."""
    ihl = (raw[IP] & 0x0F) * 4
    if ihl >= 20 and IP + ihl <= len(raw):
        raw[IP + 10 : IP + 12] = b"\x00\x00"
        raw[IP + 10 : IP + 12] = internet_checksum(
            bytes(raw[IP : IP + ihl])
        ).to_bytes(2, "big")
    return raw


@st.composite
def hostile(draw) -> bytes:
    kind = draw(st.sampled_from((
        "truncate", "overlong", "flip", "ihl", "total_length",
        "udp_length", "zero_checksum", "unknown_model", "wrong_length",
        "random",
    )))
    raw = bytearray(query(HOSTILE_ID + draw(st.integers(0, 999))))
    u16 = st.integers(0, 0xFFFF)
    if kind == "truncate":
        return bytes(raw[: draw(st.integers(0, len(raw) - 1))])
    if kind == "overlong":
        return bytes(raw) + draw(st.binary(min_size=1, max_size=64))
    if kind == "flip":
        for offset in draw(
            st.lists(st.integers(0, len(raw) - 1), min_size=1, max_size=6)
        ):
            raw[offset] ^= draw(st.integers(1, 255))
    elif kind == "ihl":
        raw[IP] = 0x40 | draw(st.integers(0, 15))
    elif kind == "total_length":
        raw[IP + 2 : IP + 4] = draw(u16).to_bytes(2, "big")
    elif kind == "udp_length":
        raw[UDP + 4 : UDP + 6] = draw(u16).to_bytes(2, "big")
    elif kind == "zero_checksum":
        raw[UDP + 6 : UDP + 8] = b"\x00\x00"  # RFC 768: "no checksum"
        raw[REQUEST + 2 : REQUEST + 4] = draw(u16).to_bytes(2, "big")
    elif kind == "unknown_model":
        model_id = draw(u16.filter(lambda m: m != MODEL))
        return query(HOSTILE_ID, model_id=model_id)
    elif kind == "wrong_length":
        size = draw(st.integers(0, 64).filter(lambda n: n != INPUT))
        return query(HOSTILE_ID, size=size)
    else:
        return draw(st.binary(max_size=200))
    if kind in ("ihl", "total_length") and draw(st.booleans()):
        with_ipv4_checksum(raw)
    return bytes(raw)


def small_dag() -> ComputationDAG:
    weights = np.random.default_rng(5).integers(-200, 201, size=(3, INPUT))
    task = LayerTask(
        name="fc", kind="dense", input_size=INPUT, output_size=3,
        weights_levels=weights.astype(np.float64),
    )
    return ComputationDAG(MODEL, "small", [task])


def noiseless_datapath(_core=0):
    architecture = CoreArchitecture(accumulation_wavelengths=2)
    return LightningDatapath(
        core=BehavioralCore(architecture=architecture, noise=NoiselessModel())
    )


def check_frame_surfaces(raw: bytes, nic) -> None:
    """``raw`` through the three per-frame surfaces: nothing raises and
    each ledger moves once."""
    parsed = PacketParser().parse(raw)
    assert isinstance(parsed, (ParsedInferenceQuery, RegularPacket))
    counters = NICCounters()
    decided = receive(raw, PacketParser(), counters, {MODEL: INPUT})
    queries = int(isinstance(decided, ParsedInferenceQuery))
    assert counters.frames_seen == 1
    assert queries + counters.punted + counters.dropped == 1
    nic.handle_frame(raw)
    ledger = nic.counters
    assert ledger.frames_seen == ledger.served + ledger.punted + ledger.dropped


@pytest.fixture(scope="module")
def stack():
    """One NIC and one cluster for the whole corpus: the ledgers are
    cumulative, so the checks read totals and deltas."""
    dag = small_dag()
    nic = LightningSmartNIC(datapath=noiseless_datapath())
    nic.register_model(dag)
    cluster = Cluster(num_cores=2, datapath_factory=noiseless_datapath)
    cluster.deploy(dag, warmup=0)
    clean = [WireFrame(i * 5e-6, query(i)) for i in range(6)]
    result, _ = cluster.serve_frames(clean)
    expected = {r.request.request_id: r.prediction for r in result.records}
    assert len(expected) == len(clean)
    return nic, cluster, clean, expected


def serve_interleaved(stack, hostile_frames) -> None:
    """The clean trace with ``hostile_frames`` spliced between its
    frames: same predictions, every frame in exactly one bucket."""
    _, cluster, clean, expected = stack
    frames = clean + [
        WireFrame(index * 5e-6 + 1e-6, raw)
        for index, raw in enumerate(hostile_frames)
    ]
    bridged = NICCounters()
    requests, rejected = requests_from_frames(frames, counters=bridged)
    assert len(requests) + rejected == len(frames) == bridged.frames_seen
    assert rejected == bridged.punted + bridged.dropped
    counters = cluster.nic_counters
    before = NICCounters(**counters.summary())
    result, report = cluster.serve_frames(frames)
    assert report.delivered == len(frames)
    seen = counters.frames_seen - before.frames_seen
    punted = counters.punted - before.punted
    ingress_dropped = (
        counters.dropped - before.dropped - result.dropped
    )
    assert seen == report.delivered
    assert seen == punted + ingress_dropped + result.offered
    assert counters.served - before.served == result.served
    check_accounting(
        offered=result.offered,
        served=result.served,
        dropped=result.dropped,
        failed=result.failed,
        unfinished=result.unfinished,
    )
    got = {r.request.request_id: r.prediction for r in result.records}
    assert {k: got[k] for k in expected} == expected


def receive_loop(frames, parser, counters, models):
    """``ingest`` as a loop of ``receive``: the reference."""
    requests, rejected = [], 0
    for frame in frames:
        packet = receive(frame.raw, parser, counters, models)
        if isinstance(packet, ParsedInferenceQuery):
            requests.append((
                packet.request.request_id, packet.request.model_id,
                frame.arrival_s, packet.data_levels.tobytes(),
            ))
        else:
            rejected += 1
    return requests, rejected


def check_ingest_is_the_loop(frames, parser, models) -> None:
    """``ingest`` leaves the requests, rejected count and counters a
    loop of ``receive`` leaves."""
    reference = NICCounters()
    expected = receive_loop(frames, parser, reference, models)
    counters = NICCounters()
    requests, rejected = ingest(frames, parser, counters, models)
    got = [
        (r.request_id, r.model_id, r.arrival_s, r.data_levels.tobytes())
        for r in requests
    ]
    assert (got, rejected) == expected
    assert counters.summary() == reference.summary()


def check_block_ingest(hostile_frames) -> None:
    """Each hostile frame between two clean frames of its byte length,
    so both sit in one block: ``ingest`` is the loop of ``receive``,
    with and without a model table."""
    frames, models = [], {MODEL: INPUT}
    for index, raw in enumerate(hostile_frames):
        size = max(len(raw) - DATA, 0)
        models[SPLICE_MODEL + size] = size
        clean = [
            query(2 * index + side, model_id=SPLICE_MODEL + size, size=size)
            for side in (0, 1)
        ]
        frames += [
            WireFrame(3 * index * 1e-6, clean[0]),
            WireFrame((3 * index + 1) * 1e-6, raw),
            WireFrame((3 * index + 2) * 1e-6, clean[1]),
        ]
    for table in (None, models):
        check_ingest_is_the_loop(frames, PacketParser(), table)


def with_udp_checksum(raw: bytearray) -> bytearray:
    """Re-seal the UDP checksum over the whole datagram."""
    raw[UDP + 6 : UDP + 8] = b"\x00\x00"
    raw[UDP + 6 : UDP + 8] = (
        udp_checksum(bytes(raw[UDP:]), bytes(raw[IP + 12 : UDP])) or 0xFFFF
    ).to_bytes(2, "big")
    return raw


def set_u16(offset: int, value: int, reseal=with_udp_checksum):
    """A damage that writes ``value`` at ``offset`` and re-seals."""

    def damage(raw: bytearray) -> bytearray:
        raw[offset : offset + 2] = value.to_bytes(2, "big")
        return reseal(raw)

    return damage


def version_6(raw: bytearray) -> bytearray:
    raw[IP] = 0x65
    return with_ipv4_checksum(raw)


def flip(offset: int):
    def damage(raw: bytearray) -> bytearray:
        raw[offset] ^= 0x01
        return raw

    return damage


def tcp(raw: bytearray) -> bytearray:
    raw[IP + 9] = 6  # the UDP checksum's pseudo-header still says 17
    return with_ipv4_checksum(raw)


def shorter_udp(raw: bytearray) -> bytearray:
    """A UDP length 2 short of the frame, with no checksum to catch it:
    ``receive`` serves the query with two fewer levels."""
    raw[UDP + 4 : UDP + 6] = (len(raw) - UDP - 2).to_bytes(2, "big")
    raw[UDP + 6 : UDP + 8] = b"\x00\x00"
    return raw


LENGTH = len(query(0))
#: One damage per check the block makes, each failing that check alone.
ONE_CHECK = {
    "ethertype": set_u16(IP - 2, 0x86DD, reseal=lambda raw: raw),
    "version": version_6,
    "ipv4 checksum": flip(IP + 10),
    "total length": set_u16(IP + 2, LENGTH - IP + 2, with_ipv4_checksum),
    "protocol": tcp,
    "udp length": shorter_udp,
    "port": set_u16(UDP + 2, 53),
    "udp checksum": flip(UDP + 6),
    "magic": set_u16(REQUEST, 0x4C52),
    "undeployed model": set_u16(REQUEST + 2, 77),
    "wrong-length model": set_u16(REQUEST + 2, 2),
}


class TestHostileCorpus:
    def test_every_truncation(self, stack):
        nic = stack[0]
        raw = query(HOSTILE_ID)
        cuts = [raw[:n] for n in range(len(raw) + 1)]
        for cut in cuts:
            check_frame_surfaces(cut, nic)
        serve_interleaved(stack, cuts[:-1])

    @FUZZ
    @given(frames=st.lists(hostile(), min_size=1, max_size=8))
    def test_damaged_frames(self, stack, frames):
        nic = stack[0]
        for raw in frames:
            check_frame_surfaces(raw, nic)
        serve_interleaved(stack, frames)

    def test_block_ingest_matches_receive_on_every_truncation(self):
        raw = query(HOSTILE_ID)
        check_block_ingest([raw[:n] for n in range(len(raw) + 1)])

    @FUZZ
    @given(frames=st.lists(hostile(), min_size=1, max_size=8))
    def test_block_ingest_matches_receive_on_damage(self, frames):
        check_block_ingest(frames)

    @pytest.mark.parametrize("check", ONE_CHECK)
    def test_a_frame_failing_one_check_is_that_frames_alone(self, check):
        raw = bytes(ONE_CHECK[check](bytearray(query(HOSTILE_ID))))
        assert len(raw) == LENGTH and raw != query(HOSTILE_ID)
        frames = [
            WireFrame(0.0, query(0)),
            WireFrame(1e-6, raw),
            WireFrame(2e-6, query(2)),
        ]
        header_data = PacketParser(header_data_models={MODEL})
        for parser, models in (
            (PacketParser(), None),
            (PacketParser(), {MODEL: INPUT, 2: INPUT + 1}),
            (header_data, None),
            (header_data, {MODEL: 16}),
        ):
            check_ingest_is_the_loop(frames, parser, models)

    def test_a_stream_of_nothing_but_damage_says_so_balanced(self, stack):
        cluster = stack[1]
        counters = cluster.nic_counters
        before = NICCounters(**counters.summary())
        frames = [
            WireFrame(0.0, b""),
            WireFrame(1e-6, query(HOSTILE_ID, model_id=9)),
            WireFrame(2e-6, query(HOSTILE_ID, size=INPUT - 1)),
            WireFrame(3e-6, build_inference_frame(
                InferenceRequest(MODEL, 0, np.zeros(INPUT, dtype=np.uint8)),
                dst_port=53,
            )),
        ]
        with pytest.raises(ValueError, match="survived NIC ingress"):
            cluster.serve_frames(frames)
        assert counters.frames_seen - before.frames_seen == 4
        assert counters.punted - before.punted == 1
        assert counters.dropped - before.dropped == 3

    def test_served_survivors_are_real_requests(self, stack):
        """A flipped MAC byte is not damage the parser checks: the frame
        serves, on the NIC and in the cluster, with the clean answer."""
        nic, _, clean, expected = stack
        raw = bytearray(clean[3].raw)
        raw[2] ^= 0x55
        outcome = nic.handle_frame(bytes(raw))
        assert isinstance(outcome, ServedRequest)
        assert outcome.response.prediction == expected[3]
