"""Tests for the DRAM model, back-pressure buffer, and memory controller."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DRAMBuffer, DRAMModel, MemoryController


class TestDRAMModel:
    def test_prototype_bandwidth(self):
        # §6.1: 2.67e9 transactions x 64 b = ~170 Gbps.
        dram = DRAMModel()
        assert dram.bandwidth_gbps == pytest.approx(170.88, rel=1e-3)

    def test_store_and_read(self):
        dram = DRAMModel()
        data = np.arange(100, dtype=np.uint8)
        dram.store("weights", data)
        read, latency = dram.read("weights")
        assert np.array_equal(read, data)
        assert latency > 0

    def test_capacity_enforced(self):
        dram = DRAMModel(capacity_bytes=64)
        with pytest.raises(MemoryError, match="capacity"):
            dram.store("big", np.zeros(100, dtype=np.uint8))

    def test_overwrite_releases_old_space(self):
        dram = DRAMModel(capacity_bytes=128)
        dram.store("k", np.zeros(100, dtype=np.uint8))
        dram.store("k", np.zeros(50, dtype=np.uint8))
        assert dram.used_bytes == 50

    def test_evict(self):
        dram = DRAMModel()
        dram.store("k", np.zeros(10, dtype=np.uint8))
        dram.evict("k")
        assert not dram.contains("k")
        assert dram.used_bytes == 0

    def test_missing_key_raises(self):
        with pytest.raises(KeyError, match="no data stored"):
            DRAMModel().read("ghost")

    def test_latency_includes_transfer_time(self):
        dram = DRAMModel(latency_jitter_ns=0.0)
        dram.store("small", np.zeros(8, dtype=np.uint8))
        dram.store("large", np.zeros(8_000_000, dtype=np.uint8))
        _, small = dram.read("small")
        _, large = dram.read("large")
        assert large > small

    def test_latency_jitter_varies(self):
        """The §5.1 motivation: DRAM latency is not deterministic."""
        dram = DRAMModel(latency_jitter_ns=40.0)
        dram.store("k", np.zeros(8, dtype=np.uint8))
        rng = np.random.default_rng(0)
        latencies = {dram.read("k", rng)[1] for _ in range(20)}
        assert len(latencies) > 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DRAMModel(capacity_bytes=0)
        with pytest.raises(ValueError):
            DRAMModel(transactions_per_second=0)
        with pytest.raises(ValueError):
            DRAMModel(base_latency_ns=-1)


class TestDRAMBuffer:
    def test_fifo_order(self):
        buf = DRAMBuffer(capacity_blocks=4)
        buf.push(np.array([1]))
        buf.push(np.array([2]))
        assert buf.pop()[0] == 1
        assert buf.pop()[0] == 2

    def test_back_pressure_when_full(self):
        buf = DRAMBuffer(capacity_blocks=2)
        assert buf.push(np.zeros(1))
        assert buf.push(np.zeros(1))
        assert not buf.push(np.zeros(1))  # back-pressure asserted
        assert buf.overflows == 1

    def test_pop_empty_raises(self):
        with pytest.raises(RuntimeError, match="empty"):
            DRAMBuffer().pop()

    def test_occupancy_and_flags(self):
        buf = DRAMBuffer(capacity_blocks=2)
        assert buf.empty
        buf.push(np.zeros(1))
        assert buf.occupancy == 1
        buf.push(np.zeros(1))
        assert buf.full

    def test_clear(self):
        buf = DRAMBuffer()
        buf.push(np.zeros(1))
        buf.clear()
        assert buf.empty


class TestMemoryController:
    def test_store_and_stream_model(self):
        ctrl = MemoryController()
        weights = np.arange(12.0).reshape(3, 4)
        ctrl.store_model(7, {"fc1": weights})
        got, latency = ctrl.stream_weights(7, "fc1")
        assert np.array_equal(got, weights)
        assert latency > 0
        assert ctrl.dram_reads == 1

    def test_fc_weights_always_reread(self):
        ctrl = MemoryController()
        ctrl.store_model(1, {"fc1": np.zeros((2, 2))})
        ctrl.stream_weights(1, "fc1")
        ctrl.stream_weights(1, "fc1")
        assert ctrl.dram_reads == 2

    def test_conv_kernel_cached_after_first_read(self):
        """§4 step 3: kernels are read once into register files."""
        ctrl = MemoryController()
        ctrl.store_model(1, {"conv1": np.ones((3, 3))})
        _, first = ctrl.load_kernel(1, "conv1")
        _, second = ctrl.load_kernel(1, "conv1")
        assert first > 0
        assert second == 0.0
        assert ctrl.dram_reads == 1
        assert ctrl.cache_hits == 1

    def test_evict_kernels_forces_reread(self):
        ctrl = MemoryController()
        ctrl.store_model(1, {"conv1": np.ones((3, 3))})
        ctrl.load_kernel(1, "conv1")
        ctrl.evict_kernels()
        ctrl.load_kernel(1, "conv1")
        assert ctrl.dram_reads == 2

    def test_models_namespaced_by_id(self):
        ctrl = MemoryController()
        ctrl.store_model(1, {"fc": np.ones(1)})
        ctrl.store_model(2, {"fc": np.zeros(1)})
        a, _ = ctrl.stream_weights(1, "fc")
        b, _ = ctrl.stream_weights(2, "fc")
        assert a[0] == 1.0 and b[0] == 0.0

    def test_latency_accounting_accumulates(self):
        ctrl = MemoryController()
        ctrl.store_model(1, {"fc": np.ones(100)})
        ctrl.stream_weights(1, "fc")
        ctrl.stream_weights(1, "fc")
        assert ctrl.total_read_latency_s > 0


class TestMemoryBandwidthAnalysis:
    """The §6.1 HBM2/wavelength arithmetic."""

    def test_hbm2_feeds_468_wavelengths_at_prototype_rate(self):
        from repro.core import HBM2_BANDWIDTH_GBPS, wavelengths_fed_by_bandwidth

        assert wavelengths_fed_by_bandwidth(
            HBM2_BANDWIDTH_GBPS, 4.055
        ) == 468

    def test_hbm2_feeds_about_20_wavelengths_at_97ghz(self):
        from repro.core import HBM2_BANDWIDTH_GBPS, wavelengths_fed_by_bandwidth

        fed = wavelengths_fed_by_bandwidth(HBM2_BANDWIDTH_GBPS, 97.0)
        assert 19 <= fed <= 20

    def test_required_bandwidth_inverse(self):
        from repro.core import (
            required_memory_bandwidth_gbps,
            wavelengths_fed_by_bandwidth,
        )

        needed = required_memory_bandwidth_gbps(24, 97.0)
        assert wavelengths_fed_by_bandwidth(needed, 97.0) == 24

    def test_prototype_ddr_feeds_two_dacs(self):
        # §6.1: the DDR4's ~170 Gbps exceeds the 64.88 Gbps the two
        # weight DACs consume (2 x 4.055 GS/s x 8 b).
        from repro.core import (
            DRAMModel,
            required_memory_bandwidth_gbps,
            wavelengths_fed_by_bandwidth,
        )

        dram = DRAMModel()
        assert required_memory_bandwidth_gbps(2, 4.055) == pytest.approx(
            64.88
        )
        assert wavelengths_fed_by_bandwidth(
            dram.bandwidth_gbps, 4.055
        ) >= 2

    def test_validation(self):
        from repro.core import (
            required_memory_bandwidth_gbps,
            wavelengths_fed_by_bandwidth,
        )

        with pytest.raises(ValueError):
            wavelengths_fed_by_bandwidth(0, 1)
        with pytest.raises(ValueError):
            wavelengths_fed_by_bandwidth(1, 0)
        with pytest.raises(ValueError):
            required_memory_bandwidth_gbps(0, 1)


# ----------------------------------------------------------------------
# Steady-state ledger replay against its earlier numpy form
# ----------------------------------------------------------------------
def numpy_replay_streams(memory, transfer_s, samples, kernels):
    """``MemoryController.replay_streams`` as it stood: seven small
    array operations per call, then one left fold of the total."""
    transfer_s = np.asarray(transfer_s, dtype=np.float64)
    reads = samples * len(transfer_s)
    latencies = memory.jitter_batch(reads).reshape(samples, -1)
    latencies += memory.dram.base_latency_ns
    latencies *= 1e-9
    latencies += transfer_s
    latencies -= transfer_s
    np.maximum(latencies, 0.0, out=latencies)
    per_sample = latencies.tolist()
    total = memory.total_read_latency_s
    for sample in per_sample:
        for latency in sample:
            total += latency
    memory.total_read_latency_s = total
    memory.dram_reads += reads
    memory.cache_hits += samples * kernels
    return per_sample


def ledger(memory) -> tuple:
    return (
        memory.total_read_latency_s,
        memory.dram_reads,
        memory.cache_hits,
        memory._rng.bit_generator.state,
    )


class TestReplayStreamsOracle:
    @settings(max_examples=150, deadline=None, database=None)
    @given(
        samples=st.integers(1, 8),
        transfer=st.lists(
            st.floats(0.0, 1e-5, allow_subnormal=False), max_size=30
        ),
        kernels=st.integers(0, 3),
        jitter_ns=st.one_of(st.just(0.0), st.floats(0.1, 100.0)),
        base_ns=st.floats(0.0, 200.0),
        seed=st.integers(0, 2**32 - 1),
        calls=st.integers(1, 3),
    )
    def test_float_replay_is_the_numpy_replay(
        self, samples, transfer, kernels, jitter_ns, base_ns, seed, calls
    ):
        def controller():
            return MemoryController(
                DRAMModel(
                    base_latency_ns=base_ns, latency_jitter_ns=jitter_ns
                ),
                seed=seed,
            )

        fast, slow = controller(), controller()
        for _ in range(calls):
            got = fast.replay_streams(tuple(transfer), samples, kernels)
            want = numpy_replay_streams(slow, transfer, samples, kernels)
            assert got == want
            assert all(type(x) is float for row in got for x in row)
            assert len(got) == samples
            assert ledger(fast) == ledger(slow)
