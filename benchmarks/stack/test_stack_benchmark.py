"""Contract-shape test of the stack benchmark (not tier-1).

Runs the one command at ``--scale 0.02`` and checks what the benchmark
driver relies on: every metric ``BENCHMARK.json`` declares is emitted
with its unit, names and counts are inside the contract's limits,
digests repeat across invocations, ``stack_parallel`` reproduces
``stack_compute`` bit for bit and leaves no shared-memory segment, a
failed check exits non-zero, and ``compare.py diff`` pairs runs by seed
and refuses regressions, incorrect runs and added failures.

    PYTHONPATH=src python -m pytest benchmarks/stack -q
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SCALE = "0.02"


def _shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _contract_lines(stdout: str) -> list[dict]:
    return [
        json.loads(line)
        for line in stdout.splitlines()
        if line.startswith('{"correct"')
    ]


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("stack-out")
    before = _shm_segments()
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--seed", "0",
            "--scale", SCALE, "--seconds", "0", "--out", str(out),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    return {
        "done": done,
        "out": out,
        "leaked": _shm_segments() - before,
        "lines": _contract_lines(done.stdout),
        "results": json.loads((out / "results.json").read_text()),
    }


def test_benchmark_json_is_inside_the_contract_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"])
    setup = {m["name"]: m for m in SPEC["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_table_matches_benchmark_json():
    import layers

    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared == [row[:3] for row in layers.PER_LAYER]


def test_suite_exits_zero_and_every_run_is_correct(suite):
    assert suite["done"].returncode == 0, suite["done"].stdout[-4000:]
    assert len(suite["lines"]) == 2 * len(SPEC["workloads"])
    for line in suite["lines"]:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert line["attempted"] >= 1 and line["failed"] == 0


def test_every_declared_metric_is_emitted_with_its_unit(suite):
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    # The suite runs each workload untraced, then traced.
    for index, line in enumerate(suite["lines"]):
        expected = per_layer if index % 2 else end_to_end
        emitted = {k: v["unit"] for k, v in line["metrics"].items()}
        assert emitted == expected
    for line in suite["lines"][0::2]:
        assert all(v["value"] > 0 for v in line["metrics"].values())
    printed = suite["done"].stdout
    for workload in SPEC["workloads"]:
        for name in list(end_to_end) + list(per_layer):
            assert f"{workload['name']}.{name} = " in printed


def test_workloads_separate_the_layers(suite):
    shares = {
        name: report["per_layer"]["ledger_wall_share"]
        for name, report in suite["results"]["workloads"].items()
    }
    assert not any(
        span.split(".")[0] in ("core", "photonics", "runtime")
        for span in shares["model_sweep"]
    )
    for name, ledger in shares.items():
        # The benchmark's own root span is not a layer: what is missing
        # from 1 is serve wall that no layer span covers.
        assert "bench.serve" not in ledger
        assert abs(sum(ledger.values()) - 1.0) <= 0.05, name

    def kernel_share(name):
        return sum(
            share for span, share in shares[name].items()
            if span.startswith(("photonics.", "core.plans"))
        )

    assert kernel_share("stack_compute") >= 0.70
    assert kernel_share("stack_control") <= 0.30


def test_parallel_digest_equals_serial_and_nothing_leaks(suite):
    workloads = suite["results"]["workloads"]
    compute = workloads["stack_compute"]["end_to_end"]
    parallel = workloads["stack_parallel"]["end_to_end"]
    assert compute["round_digests"] == parallel["round_digests"]
    assert compute["served"] > 0 and parallel["served"] > 0
    assert suite["leaked"] == set()


@pytest.mark.parametrize(
    "workload", [w["name"] for w in SPEC["workloads"]]
)
def test_digest_repeats_across_invocations(suite, workload, tmp_path):
    done = subprocess.run(
        SPEC["command"] + [
            "--workload", workload, "--seed", "0", "--seconds", "0",
            "--trace", "0", "--scale", SCALE, "--out", str(tmp_path),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    again = json.loads((tmp_path / f"{workload}.trace0.json").read_text())
    first = suite["results"]["workloads"][workload]["end_to_end"]
    assert again["digest"] == first["digest"]
    for name, value in again["metrics"].items():
        if name.startswith("sim_"):
            assert value == first["metrics"][name]


def test_a_failed_check_exits_non_zero(monkeypatch, capsys):
    import run

    def broken(workload, seconds):
        return {
            "workload": workload.name, "seed": 0, "disturbed": False,
            "correct": False, "attempted": 10, "failed": 3,
            "metrics": dict.fromkeys(run.END_TO_END_UNITS, 1.0),
        }

    monkeypatch.setattr(run, "run_untraced", broken)
    assert run.main(["--workload", "model_sweep", "--trace", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 3


def _result_set(path, scale=None, correct=True, failed=0):
    """Ten seeds of one workload; ``scale`` multiplies named metrics."""
    rows = []
    for seed in range(10):
        metrics = {
            m["name"]: {"value": 100.0 + seed, "unit": m["unit"]}
            for m in SPEC["end_to_end"]
        }
        for name, factor in (scale or {}).items():
            metrics[name]["value"] *= factor
        rows.append(json.dumps({
            "workload": "stack_compute", "seed": seed, "digest": "d",
            "correct": correct, "attempted": 1000, "failed": failed,
            "metrics": metrics,
        }))
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_compare_pairs_by_seed_and_refuses_regressions(tmp_path, capsys):
    import compare

    assert set(compare.PAIRED_BOUND) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        # A bound at an equal seed never needs to be the looser one.
        assert compare.PAIRED_BOUND[metric["name"]] <= metric["bound"]
    base = _result_set(tmp_path / "base.jsonl")
    # The values differ by 10% across seeds, yet pair to a change of 0.
    assert compare.main(["diff", base, base]) == 0
    assert "bit-identical" in capsys.readouterr().out
    slower = _result_set(tmp_path / "slower.jsonl", {"host_rps": 0.8})
    assert compare.main(["diff", base, slower]) == 1
    assert "worse" in capsys.readouterr().out
    faster = _result_set(tmp_path / "faster.jsonl", {"host_rps": 1.3})
    assert compare.main(["diff", base, faster]) == 0
    moved = _result_set(tmp_path / "moved.jsonl", {"sim_p99_us": 1.01})
    assert compare.main(["diff", base, moved]) == 1
    assert "sim_* differ" in capsys.readouterr().out
    wrong = _result_set(tmp_path / "wrong.jsonl", correct=False, failed=2)
    assert compare.main(["diff", base, wrong]) == 1
