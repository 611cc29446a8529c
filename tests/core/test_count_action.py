"""Tests for the reconfigurable count-action abstraction (§5)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Comparison,
    ControlRegisterFile,
    CountActionFabric,
    CountActionUnit,
    CountMode,
)


class TestControlRegisterFile:
    def test_write_and_read(self):
        regs = ControlRegisterFile()
        regs.write("target", 42)
        assert regs.read("target") == 42

    def test_read_unwritten_register_raises(self):
        regs = ControlRegisterFile()
        with pytest.raises(KeyError, match="never written"):
            regs.read("missing")

    def test_write_many(self):
        regs = ControlRegisterFile()
        regs.write_many({"a": 1, "b": 2})
        assert regs.read("a") == 1 and regs.read("b") == 2

    def test_contains(self):
        regs = ControlRegisterFile()
        regs.write("x", 0)
        assert "x" in regs and "y" not in regs

    def test_write_log_is_chronological(self):
        regs = ControlRegisterFile()
        regs.write("a", 1)
        regs.write("a", 2)
        assert regs.write_log == (("a", 1), ("a", 2))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            ControlRegisterFile().write("", 1)

    def test_write_log_is_a_bounded_ring_with_a_monotone_counter(self):
        regs = ControlRegisterFile()
        for i in range(10_000):
            regs.write("layer.index", i)
        depth = ControlRegisterFile.WRITE_LOG_DEPTH
        assert regs.write_count == 10_000
        assert len(regs.write_log) == depth
        # Still chronological: the newest ``depth`` writes, oldest first.
        assert regs.write_log[0] == ("layer.index", 10_000 - depth)
        assert regs.write_log[-1] == ("layer.index", 9_999)

    def test_capture_outlasts_the_ring_and_nests(self):
        regs = ControlRegisterFile()
        depth = ControlRegisterFile.WRITE_LOG_DEPTH
        regs.write("before", 0)
        with regs.capture() as outer:
            for i in range(depth + 5):
                regs.write("deep", i)
            with regs.capture() as inner:
                regs.write("nested", 1)
            regs.write("deep", -1)
        assert inner == [("nested", 1)]
        assert outer == [
            *(("deep", i) for i in range(depth + 5)),
            ("nested", 1),
            ("deep", -1),
        ]
        # The ring caught up on exit and is bounded again.
        assert regs.write_count == depth + 8
        assert regs.write_log == tuple(outer[-depth:])
        regs.write("after", 2)
        assert regs.write_log[-1] == ("after", 2)
        assert len(regs.write_log) == depth


class TestCountActionUnit:
    def test_accumulate_fires_at_target(self):
        fired = []
        unit = CountActionUnit(
            "u", count=lambda _: 1, target=3,
            actions=[lambda _: fired.append(True)],
        )
        assert not unit.tick()
        assert not unit.tick()
        assert unit.tick()
        assert fired == [True]

    def test_count_resets_to_zero_after_fire(self):
        unit = CountActionUnit("u", count=lambda _: 1, target=2)
        unit.tick(), unit.tick()
        assert unit.count == 0.0

    def test_fires_repeatedly(self):
        unit = CountActionUnit("u", count=lambda _: 1, target=2)
        fires = sum(unit.tick() for _ in range(10))
        assert fires == 5
        assert unit.fires == 5

    def test_per_cycle_mode_has_no_memory(self):
        values = iter([2, 1, 3, 3])
        unit = CountActionUnit(
            "u",
            count=lambda _: next(values),
            target=3,
            mode=CountMode.PER_CYCLE,
        )
        assert [unit.tick() for _ in range(4)] == [
            False, False, True, True,
        ]

    def test_register_target_reconfigures_live(self):
        regs = ControlRegisterFile()
        regs.write("t", 5)
        unit = CountActionUnit(
            "u", count=lambda _: 1, target="t", registers=regs
        )
        unit.tick(), unit.tick()
        regs.write("t", 3)  # runtime reconfiguration (§5.4)
        assert unit.tick()  # count reaches 3 == new target

    def test_register_target_without_file_rejected(self):
        with pytest.raises(ValueError, match="ControlRegisterFile"):
            CountActionUnit("u", count=lambda _: 1, target="t")

    def test_retarget(self):
        unit = CountActionUnit("u", count=lambda _: 1, target=10)
        unit.retarget(1)
        assert unit.tick()

    def test_at_least_comparison_catches_overshoot(self):
        values = iter([2, 2])
        unit = CountActionUnit(
            "u",
            count=lambda _: next(values),
            target=3,
            comparison=Comparison.AT_LEAST,
        )
        assert not unit.tick()
        assert unit.tick()  # 4 >= 3

    def test_equality_comparison_misses_overshoot(self):
        # The paper's semantics are exact equality: a skipped target is
        # missed (which is why counts are designed to step by aligned
        # increments).
        values = iter([2, 2, 2])
        unit = CountActionUnit("u", count=lambda _: next(values), target=3)
        assert not any(unit.tick() for _ in range(3))

    def test_actions_receive_context(self):
        seen = []
        unit = CountActionUnit(
            "u", count=lambda ctx: ctx, target=5,
            actions=[lambda ctx: seen.append(ctx)],
        )
        unit.tick(context=5)
        assert seen == [5]

    def test_multiple_actions_fire_in_order(self):
        order = []
        unit = CountActionUnit(
            "u", count=lambda _: 1, target=1,
            actions=[lambda _: order.append("a"), lambda _: order.append("b")],
        )
        unit.tick()
        assert order == ["a", "b"]

    def test_reset_clears_count(self):
        unit = CountActionUnit("u", count=lambda _: 1, target=5)
        unit.tick(), unit.tick()
        unit.reset()
        assert unit.count == 0.0

    def test_last_fire_value_records_matched_count(self):
        unit = CountActionUnit("u", count=lambda _: 2, target=4)
        unit.tick(), unit.tick()
        assert unit.last_fire_value == 4

    @given(target=st.integers(1, 50), step=st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_fires_exactly_when_divisible(self, target, step):
        unit = CountActionUnit("u", count=lambda _: step, target=target)
        cycles = 200
        fires = sum(unit.tick() for _ in range(cycles))
        if target % step == 0:
            assert fires == cycles // (target // step)
        else:
            assert fires == 0


class TestCountActionFabric:
    def test_units_tick_together(self):
        fabric = CountActionFabric()
        fabric.add_unit(CountActionUnit("a", count=lambda _: 1, target=2))
        fabric.add_unit(CountActionUnit("b", count=lambda _: 1, target=3))
        assert fabric.tick() == []
        assert fabric.tick() == ["a"]
        assert fabric.tick() == ["b"]

    def test_duplicate_unit_names_rejected(self):
        fabric = CountActionFabric()
        fabric.add_unit(CountActionUnit("a", count=lambda _: 1, target=1))
        with pytest.raises(ValueError, match="duplicate"):
            fabric.add_unit(CountActionUnit("a", count=lambda _: 1, target=1))

    def test_fire_log_records_cycles(self):
        fabric = CountActionFabric()
        fabric.add_unit(CountActionUnit("a", count=lambda _: 1, target=2))
        fabric.run(4)
        assert [(r.cycle, r.unit) for r in fabric.fire_log] == [
            (1, "a"), (3, "a"),
        ]

    def test_run_returns_new_firings_only(self):
        fabric = CountActionFabric()
        fabric.add_unit(CountActionUnit("a", count=lambda _: 1, target=1))
        fabric.run(2)
        new = fabric.run(3)
        assert len(new) == 3

    def test_shared_registers(self):
        fabric = CountActionFabric()
        fabric.registers.write("t", 2)
        fabric.add_unit(
            CountActionUnit(
                "a", count=lambda _: 1, target="t",
                registers=fabric.registers,
            )
        )
        fabric.run(2)
        assert fabric.unit("a").fires == 1

    def test_unknown_unit_lookup_raises(self):
        with pytest.raises(KeyError, match="no count-action unit"):
            CountActionFabric().unit("ghost")

    def test_reset_preserves_configuration(self):
        fabric = CountActionFabric()
        fabric.add_unit(CountActionUnit("a", count=lambda _: 1, target=2))
        fabric.run(5)
        fabric.reset()
        assert fabric.cycle == 0
        assert fabric.fire_log == ()
        assert fabric.tick() == []  # target still 2

    def test_negative_run_rejected(self):
        with pytest.raises(ValueError):
            CountActionFabric().run(-1)

    def test_multiple_instances_like_figure_11(self):
        # Figure 11: several independent count-action instances share the
        # register file and advance on the same clock.
        fabric = CountActionFabric()
        regs = fabric.registers
        regs.write_many({"stream": 4, "preamble": 10, "adder": 49})
        for name in ("stream", "preamble", "adder"):
            fabric.add_unit(
                CountActionUnit(
                    name, count=lambda _: 1, target=name, registers=regs
                )
            )
        fabric.run(49)
        assert fabric.unit("stream").fires == 12
        assert fabric.unit("preamble").fires == 4
        assert fabric.unit("adder").fires == 1
