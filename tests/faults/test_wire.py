"""Tests for frame-level fault injection at NIC ingress."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.stats import NICCounters
from repro.faults import (
    FaultSchedule,
    WireFaultInjector,
    WireFrame,
    requests_from_frames,
)
from repro.net import InferenceRequest, build_inference_frame


def query_frames(count=40, spacing_s=1e-6, model_id=1, size=12, seed=2):
    rng = np.random.default_rng(seed)
    frames = []
    for i in range(count):
        request = InferenceRequest(
            model_id=model_id,
            request_id=i,
            data=rng.random(size),
        )
        frames.append(
            WireFrame(
                arrival_s=i * spacing_s,
                raw=build_inference_frame(request),
            )
        )
    return frames


class TestWireFrame:
    def test_holds_any_bytes_runts_included(self):
        # What a runt is gets decided once, at NIC ingress.
        for size in (0, 13, 14):
            assert len(WireFrame(0.0, b"\x00" * size).raw) == size

    def test_rejects_negative_arrival(self):
        with pytest.raises(ValueError, match="negative"):
            WireFrame(-1.0, b"\x00" * 64)


class TestWireFaultInjector:
    def test_clean_wire_delivers_everything(self):
        frames = query_frames()
        delivered, report = WireFaultInjector(FaultSchedule()).apply(frames)
        assert delivered == sorted(frames, key=lambda f: f.arrival_s)
        assert report.summary() == {
            "offered": 40,
            "delivered": 40,
            "dropped": 0,
            "corrupted": 0,
            "reordered": 0,
        }

    def test_certain_drop_window_loses_only_in_window_frames(self):
        frames = query_frames(count=20, spacing_s=1e-6)
        schedule = FaultSchedule().frame_drop(
            at_s=5e-6, duration_s=5e-6, probability=1.0
        )
        delivered, report = WireFaultInjector(schedule).apply(frames)
        assert report.dropped == 5  # arrivals at 5..9 us
        assert report.delivered == 15
        times = [f.arrival_s for f in delivered]
        assert all(t < 5e-6 or t >= 10e-6 for t in times)

    def test_corruption_touches_payload_not_header(self):
        frames = query_frames(count=10)
        schedule = FaultSchedule(seed=4).frame_corrupt(
            at_s=0.0, duration_s=1.0, probability=1.0
        )
        delivered, report = WireFaultInjector(schedule).apply(frames)
        assert report.corrupted == 10
        for before, after in zip(frames, delivered):
            assert after.raw[:14] == before.raw[:14]
            assert after.raw != before.raw

    def test_reorder_swaps_payloads_keeps_timestamps(self):
        frames = query_frames(count=4)
        schedule = FaultSchedule(seed=0).frame_reorder(
            at_s=0.0, duration_s=1.0, probability=1.0
        )
        delivered, report = WireFaultInjector(schedule).apply(frames)
        assert report.reordered > 0
        assert [f.arrival_s for f in delivered] == [
            f.arrival_s for f in frames
        ]
        assert {f.raw for f in delivered} == {f.raw for f in frames}

    def test_replay_is_bit_exact(self):
        frames = query_frames()

        def run():
            schedule = (
                FaultSchedule(seed=11)
                .frame_drop(at_s=0.0, duration_s=1.0, probability=0.3)
                .frame_corrupt(at_s=0.0, duration_s=1.0, probability=0.3)
                .frame_reorder(at_s=0.0, duration_s=1.0, probability=0.2)
            )
            return WireFaultInjector(schedule).apply(frames)

        first_frames, first_report = run()
        second_frames, second_report = run()
        assert first_report == second_report
        assert first_frames == second_frames

    def test_different_seeds_change_the_damage(self):
        frames = query_frames()

        def run(seed):
            schedule = FaultSchedule(seed=seed).frame_drop(
                at_s=0.0, duration_s=1.0, probability=0.5
            )
            return WireFaultInjector(schedule).apply(frames)[0]

        outcomes = {tuple(f.raw for f in run(seed)) for seed in range(4)}
        assert len(outcomes) > 1


class TestRequestsFromFrames:
    def test_clean_queries_all_parse(self):
        frames = query_frames(count=8)
        counters = NICCounters()
        requests, punted = requests_from_frames(frames, counters=counters)
        assert len(requests) == 8
        assert punted == 0
        assert counters.frames_seen == 8
        assert [r.request_id for r in requests] == list(range(8))
        assert [r.arrival_s for r in requests] == [
            f.arrival_s for f in frames
        ]

    def test_corrupted_queries_degrade_to_punts_not_crashes(self):
        frames = query_frames(count=30)
        schedule = FaultSchedule(seed=6).frame_corrupt(
            at_s=0.0, duration_s=1.0, probability=1.0, max_flipped_bytes=8
        )
        delivered, _ = WireFaultInjector(schedule).apply(frames)
        counters = NICCounters()
        requests, punted = requests_from_frames(
            delivered, counters=counters
        )
        # Every frame is accounted as either a query or a punt.
        assert len(requests) + punted == 30
        assert counters.punted == punted
        assert punted > 0
