"""Dedicated coverage for the datapath tracer and the smartNIC's
wire-frame error paths (runts, drop-vs-punt accounting)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DatapathTracer,
    LightningDatapath,
    LightningSmartNIC,
    PuntedPacket,
    ServedRequest,
)
from repro.net import Fate, InferenceRequest, build_inference_frame
from repro.net.processing import (
    IntrusionDetector,
    PacketProcessor,
    Verdict,
)
from repro.photonics import BehavioralCore, NoiselessModel


@pytest.fixture()
def tracer(tiny_dag):
    datapath = LightningDatapath(
        core=BehavioralCore(noise=NoiselessModel())
    )
    datapath.register_model(tiny_dag)
    return DatapathTracer(datapath)


class TestTracerEventStream:
    def test_event_ordering_load_layers_registers(self, tracer):
        """Per execution: the DAG load precedes its layers, which
        precede that execution's register writes."""
        tracer.execute(1, np.zeros(12))
        kinds = [e.kind for e in tracer.events]
        assert kinds[0] == "load"
        assert kinds.index("layer") < kinds.index("register")
        first_register = kinds.index("register")
        assert all(k == "register" for k in kinds[first_register:])

    def test_clock_accumulates_layer_ledger_exactly(self, tracer):
        """The trace clock advances by exactly the cycle ledger."""
        execution = tracer.execute(1, np.zeros(12))
        assert tracer.now_s == pytest.approx(execution.total_seconds)
        second = tracer.execute(1, np.zeros(12))
        assert tracer.now_s == pytest.approx(
            execution.total_seconds + second.total_seconds
        )

    def test_layer_event_times_are_cumulative(self, tracer):
        execution = tracer.execute(1, np.zeros(12))
        layer_events = [e for e in tracer.events if e.kind == "layer"]
        running = 0.0
        for event, layer in zip(layer_events, execution.layers):
            running += (
                layer.compute_seconds
                + layer.datapath_seconds
                + layer.memory_seconds
            )
            assert event.time_s == pytest.approx(running)

    def test_clear_rewinds_clock_and_events(self, tracer):
        tracer.execute(1, np.zeros(12))
        assert tracer.events and tracer.now_s > 0
        tracer.clear()
        assert tracer.events == ()
        assert tracer.now_s == 0.0
        # The tracer is reusable after clear().
        tracer.execute(1, np.zeros(12))
        assert tracer.events

    def test_emit_keeps_clock_monotone(self, tracer):
        tracer.execute(1, np.zeros(12))
        before = tracer.now_s
        event = tracer.emit("drop", "model:1", time_s=before / 2)
        assert event.time_s == before  # clamped, never backwards
        later = tracer.emit("enqueue", "model:1", time_s=before * 2)
        assert later.time_s == pytest.approx(before * 2)
        assert tracer.now_s == pytest.approx(before * 2)


class TestTracerWalksEveryLayer:
    """The compiled serving path writes only the first and last
    layers' registers; the tracer must drive the per-layer walk itself.
    A 2-layer DAG cannot tell the two apart (both write ``layer.index``
    ``[0, 0, 1]``), so these use four layers."""

    @staticmethod
    def build(seed=6):
        from .test_timing_plans import mixed

        dag = mixed(model_id=4)
        datapath = LightningDatapath(core=BehavioralCore(seed=seed), seed=seed)
        datapath.register_model(dag)
        return dag, datapath

    def test_register_and_layer_events_are_complete(self):
        dag, datapath = self.build()
        tracer = DatapathTracer(datapath)
        execution = tracer.execute(dag.model_id, np.full(36, 100.0))
        assert tracer.register_writes("layer.index") == [0, 0, 1, 2, 3]
        assert tracer.register_writes("layer.kind") == [
            "conv", "conv", "maxpool", "attention", "dense",
        ]
        assert [
            (label, cycles) for _, label, cycles in tracer.layer_timeline()
        ] == [
            (layer.task_name, layer.compute_cycles)
            for layer in execution.layers
        ]
        assert len(execution.layers) == dag.num_layers

    def test_tracing_changes_no_output_and_no_state(self):
        dag, traced = self.build()
        _, plain = self.build()
        tracer = DatapathTracer(traced)
        inputs = np.random.default_rng(2).integers(
            0, 256, size=(3, 36)
        ).astype(float)
        for x in inputs:
            ours = tracer.execute(dag.model_id, x)
            theirs = plain.execute(dag.model_id, x)
            assert (
                ours.output_levels.tobytes() == theirs.output_levels.tobytes()
            )
            assert ours.total_seconds.hex() == theirs.total_seconds.hex()
        for name in ("dram_reads", "cache_hits", "total_read_latency_s"):
            assert getattr(traced.memory, name) == getattr(plain.memory, name)
        assert traced.memory._rng.uniform() == plain.memory._rng.uniform()
        assert (
            traced.core._rng.standard_normal()
            == plain.core._rng.standard_normal()
        )
        assert traced.registers._registers == plain.registers._registers
        assert traced.plan_stats() == plain.plan_stats()


def make_nic(tiny_dag, processor=None):
    nic = LightningSmartNIC(
        datapath=LightningDatapath(
            core=BehavioralCore(noise=NoiselessModel())
        ),
        processor=processor,
    )
    nic.register_model(tiny_dag)
    return nic


class TestWireFrameErrorPaths:
    """What ``handle_frame`` returns for each damaged frame, and the one
    :class:`NICCounters` field it moves."""

    def test_runt_frame_dropped_silently(self, tiny_dag):
        nic = make_nic(tiny_dag)
        outcome = nic.handle_frame(b"\x01\x02\x03")
        assert isinstance(outcome, PuntedPacket)
        assert outcome.fate is Fate.RUNT
        assert outcome.pcie_seconds == 0.0
        assert nic.counters.summary() == {
            "served": 0, "punted": 0, "dropped": 1, "frames_seen": 1,
        }

    def test_empty_frame_counted_once(self, tiny_dag):
        nic = make_nic(tiny_dag)
        assert nic.handle_frame(b"").fate is Fate.RUNT
        assert nic.counters.summary() == {
            "served": 0, "punted": 0, "dropped": 1, "frames_seen": 1,
        }

    def test_unknown_model_is_error_not_crash(self, tiny_dag):
        """Queries for an undeployed model or of the wrong length are
        dropped before the datapath, and the NIC keeps serving."""
        nic = make_nic(tiny_dag)
        unknown = build_inference_frame(
            InferenceRequest(77, 0, np.zeros(12, dtype=np.uint8))
        )
        short = build_inference_frame(
            InferenceRequest(1, 1, np.zeros(11, dtype=np.uint8))
        )
        for raw, fate in ((unknown, Fate.UNKNOWN_MODEL),
                          (short, Fate.WRONG_LENGTH)):
            outcome = nic.handle_frame(raw)
            assert isinstance(outcome, PuntedPacket)
            assert outcome.fate is fate
            assert outcome.pcie_seconds == 0.0
        good = build_inference_frame(
            InferenceRequest(1, 2, np.zeros(12, dtype=np.uint8))
        )
        assert isinstance(nic.handle_frame(good), ServedRequest)
        assert nic.counters.summary() == {
            "served": 1, "punted": 0, "dropped": 2, "frames_seen": 3,
        }

    def test_drop_vs_punt_accounting(self, tiny_dag):
        """Intrusion-dropped frames count as drops (no PCIe); benign
        regular traffic counts as punts (PCIe crossing)."""
        nic = make_nic(
            tiny_dag,
            processor=PacketProcessor(
                detector=IntrusionDetector(blocklist={"66.6.6.6"})
            ),
        )
        blocked = build_inference_frame(
            InferenceRequest(1, 0, np.zeros(12, dtype=np.uint8)),
            src_ip="66.6.6.6",
            dst_port=8080,
        )
        benign = build_inference_frame(
            InferenceRequest(1, 1, np.zeros(12, dtype=np.uint8)),
            dst_port=8080,
        )
        dropped = nic.handle_frame(blocked)
        punted = nic.handle_frame(benign)
        assert isinstance(dropped, PuntedPacket)
        assert dropped.fate is Fate.IDS_DROP
        assert dropped.verdict is Verdict.DROP
        assert dropped.pcie_seconds == 0.0
        assert isinstance(punted, PuntedPacket)
        assert punted.fate is Fate.NON_INFERENCE
        assert punted.pcie_seconds > 0.0
        assert nic.counters.summary() == {
            "served": 0, "punted": 1, "dropped": 1, "frames_seen": 2,
        }

    def test_served_frames_still_accounted_alongside_errors(
        self, tiny_dag
    ):
        nic = make_nic(tiny_dag)
        good = build_inference_frame(
            InferenceRequest(1, 2, np.zeros(12, dtype=np.uint8))
        )
        assert nic.handle_frame(b"runt").fate is Fate.RUNT
        assert isinstance(nic.handle_frame(good), ServedRequest)
        assert nic.counters.summary() == {
            "served": 1, "punted": 0, "dropped": 1, "frames_seen": 2,
        }
