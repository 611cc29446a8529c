"""Tests for the datapath tracer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ControlRegisterFile, DatapathTracer, LightningDatapath
from repro.photonics import BehavioralCore, NoiselessModel


class TestDatapathTracer:
    @pytest.fixture()
    def tracer(self, tiny_dag):
        dp = LightningDatapath(core=BehavioralCore(noise=NoiselessModel()))
        dp.register_model(tiny_dag)
        return DatapathTracer(dp)

    def test_events_recorded_per_layer(self, tracer):
        tracer.execute(1, np.zeros(12))
        kinds = [e.kind for e in tracer.events]
        assert kinds.count("load") == 1
        assert kinds.count("layer") == 2
        assert kinds.count("register") > 0

    def test_timeline_is_monotone(self, tracer):
        tracer.execute(1, np.zeros(12))
        tracer.execute(1, np.zeros(12))
        times = [t for t, _, _ in tracer.layer_timeline()]
        assert times == sorted(times)
        assert len(times) == 4

    def test_execution_result_unchanged_by_tracing(self, tiny_dag, rng):
        x = rng.integers(0, 256, 12).astype(float)
        plain = LightningDatapath(
            core=BehavioralCore(noise=NoiselessModel())
        )
        plain.register_model(tiny_dag)
        traced_dp = LightningDatapath(
            core=BehavioralCore(noise=NoiselessModel())
        )
        traced_dp.register_model(tiny_dag)
        tracer = DatapathTracer(traced_dp)
        assert np.allclose(
            plain.execute(1, x).output_levels,
            tracer.execute(1, x).output_levels,
        )

    def test_register_write_history(self, tracer):
        tracer.execute(1, np.zeros(12))
        indices = tracer.register_writes("layer.index")
        assert indices == [0, 0, 1]

    def test_records_every_write_after_the_log_wrapped(self, tracer):
        # 10 000 earlier writes overflow the register file's ring; the
        # tracer captures its own writes, so an execution traced
        # afterwards still gets exactly those.
        registers = tracer.datapath.registers
        for i in range(10_000):
            registers.write("scratch", i)
        assert len(registers.write_log) == registers.WRITE_LOG_DEPTH
        before = registers.write_count
        tracer.execute(1, np.zeros(12))
        writes = [e for e in tracer.events if e.kind == "register"]
        assert len(writes) == registers.write_count - before > 0
        assert all(e.label != "scratch" for e in writes)
        assert tracer.register_writes("layer.index") == [0, 0, 1]

    def test_records_more_writes_than_the_ring_holds(
        self, tiny_dag, monkeypatch
    ):
        # A deep DAG writes more registers per execution than the ring
        # keeps; shrink the ring below one tiny execution to get there.
        monkeypatch.setattr(ControlRegisterFile, "WRITE_LOG_DEPTH", 4)
        dp = LightningDatapath(core=BehavioralCore(noise=NoiselessModel()))
        dp.register_model(tiny_dag)
        tracer = DatapathTracer(dp)
        before = dp.registers.write_count
        tracer.execute(1, np.zeros(12))
        writes = [e for e in tracer.events if e.kind == "register"]
        assert len(writes) == dp.registers.write_count - before > 4
        assert tracer.register_writes("layer.index") == [0, 0, 1]
        assert len(dp.registers.write_log) == 4

    def test_render_listing(self, tracer):
        tracer.execute(1, np.zeros(12))
        text = tracer.render()
        assert "dag:tiny" in text
        assert "fc1" in text and "fc2" in text
        short = tracer.render(max_events=2)
        assert len(short.splitlines()) == 3

    def test_clear(self, tracer):
        tracer.execute(1, np.zeros(12))
        tracer.clear()
        assert tracer.events == ()
        assert tracer.now_s == 0.0
