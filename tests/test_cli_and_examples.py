"""Smoke tests: the CLI entry point and the runnable examples."""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

from repro.__main__ import main

REPO = pathlib.Path(__file__).resolve().parents[1]


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Lightning" in out

    def test_chip(self, capsys):
        assert main(["chip"]) == 0
        out = capsys.readouterr().out
        assert "2028" in out  # total area
        assert "$2,6" in out  # cost

    def test_energy(self, capsys):
        assert main(["energy"]) == 0
        out = capsys.readouterr().out
        assert "Brainwave" in out
        assert "1.634" in out

    def test_mac(self, capsys):
        assert main(["mac", "--samples", "300"]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert "SNR" in out

    def test_simulate(self, capsys):
        assert main(
            ["simulate", "--requests", "200", "--traces", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "A100 GPU" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "chip_design.py",
        "datacenter_simulation.py",
        "developer_kit.py",
        "fault_injection.py",
        "photonic_signal_processing.py",
        "serving_runtime.py",
        "sharded_serving.py",
        "live_traffic.py",
    ],
)
def test_example_runs_clean(script):
    """The fast examples run end to end without errors."""
    result = subprocess.run(
        [sys.executable, str(REPO / "examples" / script)],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=REPO,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
