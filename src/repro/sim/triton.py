"""GPU serving-path model for the prototype comparison (§6.3, Fig 15).

The paper serves the three prototype DNNs (security, IoT traffic
classification, LeNet-300-100) on Nvidia Triton servers with P4 and A100
GPUs and measures the end-to-end, compute, and datapath latencies.  For
small models the GPU *compute* is microseconds; the serve time is
dominated by the *datapath*: NIC -> kernel -> Triton -> PCIe -> GPU and
back.  This model captures that with a fixed per-query serving-path
overhead (calibrated against the paper's measured ratios) plus a
kernel-launch floor on compute.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TritonGPUServer", "p4_triton", "a100_triton"]


@dataclass(frozen=True)
class TritonGPUServer:
    """A GPU behind a Triton inference server on a 100 Gbps NIC."""

    name: str
    mac_units: int
    clock_hz: float
    power_watts: float
    #: Fixed per-query serving-path latency (NIC, kernel, PCIe, Triton).
    datapath_seconds: float
    #: Minimum kernel time: tiny models still pay a launch + sync floor.
    kernel_floor_seconds: float = 8e-6

    def __post_init__(self) -> None:
        if self.mac_units < 1 or self.clock_hz <= 0:
            raise ValueError("invalid GPU compute characterization")
        if self.datapath_seconds < 0 or self.kernel_floor_seconds < 0:
            raise ValueError("latencies cannot be negative")

    def compute_seconds(self, macs: int) -> float:
        """GPU compute latency for one query of the given MAC volume."""
        if macs < 0:
            raise ValueError("MAC count cannot be negative")
        return max(
            macs / (self.mac_units * self.clock_hz),
            self.kernel_floor_seconds,
        )

    def end_to_end_seconds(self, macs: int) -> float:
        """Serving-path plus compute latency for one query."""
        return self.datapath_seconds + self.compute_seconds(macs)


def p4_triton() -> TritonGPUServer:
    """The P4-GPU Triton server of §6.3.

    The datapath constant is calibrated so the measured speedup ratios
    of Figure 15a (≈500x on the 1-µs traffic models, ≈9.4x on LeNet)
    are reproduced against this implementation's Lightning latencies.
    """
    return TritonGPUServer(
        name="P4 GPU",
        mac_units=2560,
        clock_hz=1.114e9,
        power_watts=75.0,
        datapath_seconds=480e-6,
    )


def a100_triton() -> TritonGPUServer:
    """The A100-GPU Triton server of §6.3."""
    return TritonGPUServer(
        name="A100 GPU",
        mac_units=6912,
        clock_hz=1.41e9,
        power_watts=250.0,
        datapath_seconds=350e-6,
    )
