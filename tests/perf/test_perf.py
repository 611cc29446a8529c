"""Tests for the perf gate: the paired runner, the case table, the CLI."""

from __future__ import annotations

import dataclasses
import gc
import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.perf import bench
from repro.perf.bench import (
    CASES,
    REPORT_NAME,
    Case,
    Legs,
    check_regression,
    effective_cpus,
    lenet_class_dag,
    main,
    paired_ratio,
    run_case,
    run_cases,
)


def sleeper(seconds: float, log: list | None = None, name: str = ""):
    """A synthetic leg: sleeps, optionally logging that it ran."""

    def leg() -> str:
        if log is not None:
            log.append(name)
        time.sleep(seconds)
        return name

    return leg


def synthetic(name: str, numerator_s=0.004, denominator_s=0.002, **fields):
    """A case over two sleeping legs (ratio ~2.0) that always verifies."""

    def setup(stack) -> Legs:
        return Legs(
            sleeper(numerator_s), sleeper(denominator_s), lambda a, b: None
        )

    return Case(name, setup, rounds=3, **fields)


def report_of(cpus: int = 2, **ratios: float) -> dict:
    """A report (or baseline) of the runner's shape."""
    return {
        "effective_cpus": cpus,
        "cases": {name: {"ratio": ratio} for name, ratio in ratios.items()},
        "skipped": {},
    }


class TestPairedRatio:
    def test_legs_alternate_which_goes_first(self):
        log: list[str] = []
        paired_ratio(sleeper(0, log, "a"), sleeper(0, log, "b"), rounds=3)
        assert log == ["a", "b", "b", "a", "a", "b"]

    def test_returns_median_of_per_round_ratios(self):
        ratio, ratios, results = paired_ratio(
            sleeper(0.004, name="a"), sleeper(0.002, name="b"), rounds=5
        )
        assert len(ratios) == 5
        assert ratio == sorted(ratios)[2]
        assert ratio == pytest.approx(2.0, rel=0.2)
        assert results == ("a", "b")

    def test_one_disturbed_round_does_not_move_the_verdict(self):
        calls = iter(range(9))

        def disturbed() -> None:
            # A 40 ms background burst lands on one of nine rounds.
            time.sleep(0.044 if next(calls) == 4 else 0.004)

        ratio, ratios, _ = paired_ratio(disturbed, sleeper(0.002), rounds=9)
        assert max(ratios) > 8.0
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_collector_reenabled_when_a_leg_raises(self):
        def broken() -> None:
            assert not gc.isenabled()  # quiesced while timed
            raise RuntimeError("leg died")

        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="leg died"):
            paired_ratio(broken, sleeper(0), rounds=1)
        assert gc.isenabled()


class TestRunCases:
    def test_scale_makes_the_ratio_per_request(self):
        def setup(stack) -> Legs:
            return Legs(
                sleeper(0.004), sleeper(0.002), lambda a, b: None, scale=8.0
            )

        entry = run_case(Case("scaled", setup, rounds=3))
        assert entry["ratio"] == pytest.approx(16.0, rel=0.2)
        assert entry["ratio"] == sorted(entry["ratios"])[1]

    def test_failing_verify_hook_fails_the_case_by_name(self):
        def setup(stack) -> Legs:
            return Legs(
                sleeper(0, name="a"),
                sleeper(0, name="b"),
                lambda a, b: f"{a} is not {b}",
            )

        cases = (Case("twins", setup, rounds=1),)
        report = run_cases(cases)
        assert report["cases"]["twins"] == {"error": "a is not b"}
        assert check_regression(report, None, cases) == ["twins: a is not b"]

    def test_setup_resources_are_closed(self):
        closed: list[str] = []

        def setup(stack) -> Legs:
            stack.callback(closed.append, "pool")
            return Legs(sleeper(0), sleeper(0), lambda a, b: None)

        run_case(Case("closes", setup, rounds=1))
        assert closed == ["pool"]

    def test_case_beyond_the_hosts_cpus_is_skipped_and_reported(self):
        cases = (
            synthetic("fits"),
            synthetic("too_wide", min_cpus=10**6, floor=99.0, baseline=True),
        )
        report = run_cases(cases)
        assert report["effective_cpus"] == effective_cpus()
        assert set(report["cases"]) == {"fits"}
        assert report["skipped"]["too_wide"].startswith(
            "needs 1000000 effective CPUs"
        )
        assert check_regression(report, report_of(10**6), cases) == []


class TestCaseTable:
    def test_gates_are_the_ones_promised(self):
        """Floors, ceilings, CPU needs and baseline holds, pinned: a gate
        cannot be loosened without this table changing with it."""
        table = {
            case.name: (
                case.min_cpus, case.floor, case.ceiling, case.baseline
            )
            for case in CASES
        }
        assert table == {
            "emulator_speedup": (1, 5.0, None, True),
            "fast_loop_serve_ratio": (1, None, None, True),
            "energy_overhead_ratio": (1, None, 1.05, False),
            "compile_speedup": (1, 10.0, None, False),
            "ingest_speedup": (1, 4.0, None, False),
            "parallel_speedup_1c": (1, None, None, False),
            "parallel_speedup_2c": (2, None, None, False),
            "deep_trace_ratio_gpt2": (2, 1.2, None, False),
            "deep_trace_ratio_lenet": (2, None, None, False),
        }

    @pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
    def test_case_builds_warms_runs_and_verifies(self, case, monkeypatch):
        """One round of every case at toy sizes, so none rots unseen."""
        sizes = dict(
            EMULATOR_REQUESTS=2, CLUSTER_REQUESTS=8, LOOP_WALK=2,
            ENERGY_REQUESTS=16, SERVE_REQUESTS=8, DEEP_TRACE_REQUESTS=8,
            DEEP_TRACE_WINDOWS=0, DEEP_TRACE_GPT2={"seq_len": 4, "d_model": 8},
            INGEST_FRAMES=40,
        )
        for name, value in sizes.items():
            monkeypatch.setattr(bench, name, value)
        entry = run_case(dataclasses.replace(case, rounds=1))
        if effective_cpus() >= case.min_cpus:
            assert "error" not in entry
        if "error" not in entry:
            assert math.isfinite(entry["ratio"]) and entry["ratio"] > 0

    def test_deep_trace_hook_insists_on_its_windows(self, monkeypatch):
        """At toy size the trace cannot send a worker four full
        windows of eight."""
        monkeypatch.setattr(bench, "DEEP_TRACE_REQUESTS", 8)
        case = next(c for c in CASES if c.name == "deep_trace_ratio_lenet")
        entry = run_case(dataclasses.replace(case, rounds=1))
        assert "received 0 full windows, not 4" in entry["error"]

    def test_deep_trace_hook_counts_expired_poll_timers(self, monkeypatch):
        """A poll timer that expires during any timed serve (here: a
        counter that moves on every read) fails the case."""
        from repro.runtime.parallel import CoreWorkerPool

        reads = itertools.count()
        monkeypatch.setattr(
            CoreWorkerPool, "poll_timeouts", property(lambda _: next(reads))
        )
        monkeypatch.setattr(bench, "DEEP_TRACE_REQUESTS", 8)
        monkeypatch.setattr(bench, "DEEP_TRACE_WINDOWS", 0)
        case = next(c for c in CASES if c.name == "deep_trace_ratio_lenet")
        entry = run_case(dataclasses.replace(case, rounds=1))
        assert "poll timers expired" in entry["error"]


class TestCheckRegression:
    CASES = (
        Case("speedup", None, baseline=True),
        Case("wide", None, min_cpus=4, baseline=True),
        Case("floored", None, floor=1.2),
        Case("capped", None, ceiling=1.05),
    )

    def check(self, report: dict, baseline: dict | None, *names: str):
        cases = tuple(c for c in self.CASES if c.name in names)
        return check_regression(report, baseline, cases)

    def test_within_threshold_passes(self):
        assert self.check(
            report_of(speedup=4.5), report_of(speedup=5.0), "speedup"
        ) == []

    def test_improvement_passes(self):
        assert self.check(
            report_of(speedup=9.0), report_of(speedup=5.0), "speedup"
        ) == []

    def test_regression_fails(self):
        failures = self.check(
            report_of(speedup=3.0), report_of(speedup=5.0), "speedup"
        )
        assert len(failures) == 1
        assert failures[0].startswith("speedup: 3.000 is below 4.000")

    def test_no_baseline_means_bounds_only(self):
        assert self.check(report_of(speedup=0.1), None, "speedup") == []

    def test_due_case_missing_from_the_report_fails(self):
        """The parent returned [] here: an absent metric un-gated itself."""
        (failure,) = self.check(
            report_of(), report_of(speedup=77.9), "speedup"
        )
        assert failure.startswith("speedup: was due on this host")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_ratio_fails(self, value):
        """``nan < floor`` is false, so NaN used to pass every gate."""
        for name in ("speedup", "floored", "capped"):
            (failure,) = self.check(
                report_of(**{name: value}), report_of(speedup=5.0), name
            )
            assert "no finite ratio" in failure

    def test_floor_and_ceiling_hold_without_a_baseline(self):
        assert self.check(
            report_of(floored=1.2, capped=1.05), None, "floored", "capped"
        ) == []
        assert self.check(
            report_of(floored=1.19, capped=1.051), None, "floored", "capped"
        ) == [
            "floored: 1.190 is below the floor 1.200",
            "capped: 1.051 is above the ceiling 1.050",
        ]

    def test_metric_missing_from_baseline_skipped(self):
        """Only when the baseline's host was too small to record it —
        and then the report says the case went uncompared."""
        report = report_of(cpus=4, wide=3.0)
        assert self.check(report, report_of(cpus=2), "wide") == []
        assert "recorded on 2 effective CPUs" in report["skipped"]["wide"]

    def test_metric_missing_from_a_capable_baseline_fails(self):
        report = report_of(cpus=4, wide=3.0)
        (failure,) = self.check(report, report_of(cpus=4), "wide")
        assert failure.startswith("wide: no finite ratio in a baseline")
        assert report["skipped"] == {}
        (failure,) = self.check(
            report_of(speedup=5.0), report_of(speedup=math.nan), "speedup"
        )
        assert "no finite ratio in a baseline" in failure

    def test_case_the_host_is_too_small_for_is_not_judged(self):
        assert self.check(
            report_of(cpus=2), report_of(cpus=4, wide=3.0), "wide"
        ) == []


class TestLenetClassDag:
    def test_paper_layer_shapes(self):
        dag = lenet_class_dag(seed=0)
        assert [t.output_size for t in dag.tasks] == [300, 100, 10]
        assert dag.tasks[0].input_size == 784

    def test_deterministic_per_seed(self):
        a = lenet_class_dag(seed=1)
        b = lenet_class_dag(seed=1)
        np.testing.assert_array_equal(
            a.tasks[0].weights_levels, b.tasks[0].weights_levels
        )


class TestCLI:
    @pytest.fixture(autouse=True)
    def synthetic_table(self, monkeypatch):
        monkeypatch.setattr(
            bench,
            "CASES",
            (
                synthetic("held", baseline=True),
                synthetic("recorded"),
                synthetic("too_wide", min_cpus=10**6, baseline=True),
            ),
        )

    def test_writes_reports_and_gates(self, tmp_path, capsys):
        out = tmp_path / "reports"
        assert main(["--out-dir", str(out)]) == 0
        assert [path.name for path in out.iterdir()] == [REPORT_NAME]
        report = json.loads((out / REPORT_NAME).read_text())
        assert set(report["cases"]) == {"held", "recorded"}
        assert set(report["skipped"]) == {"too_wide"}
        assert report["failures"] == []
        assert report["effective_cpus"] == effective_cpus()
        assert {"machine", "python"} <= set(report)

        # Gated against its own output the run passes ...
        again = tmp_path / "again"
        assert main(["--out-dir", str(again), "--check", str(out)]) == 0
        # ... and against a hugely better baseline it fails by name.
        report["cases"]["held"]["ratio"] *= 100
        report["cases"]["recorded"]["ratio"] *= 100  # not baseline-held
        (out / REPORT_NAME).write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["--out-dir", str(again), "--check", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("REGRESSION held: ")
        failed = json.loads((again / REPORT_NAME).read_text())
        assert failed["failures"] == [err[0].removeprefix("REGRESSION ")]

    def test_missing_baseline_file_fails(self, tmp_path, capsys):
        """The parent printed "skipping gate" and exited 0."""
        code = main(
            ["--out-dir", str(tmp_path), "--check", str(tmp_path / "none")]
        )
        assert code == 1
        assert "REGRESSION baseline: " in capsys.readouterr().err
        assert (tmp_path / REPORT_NAME).exists()

    def test_module_runs_as_main_without_a_runtime_warning(self):
        """``repro.perf`` must not import ``bench`` before runpy runs it."""
        done = subprocess.run(
            [
                sys.executable, "-W", "error::RuntimeWarning",
                "-m", "repro.perf.bench", "--help",
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "--out-dir" in done.stdout and "--check" in done.stdout
