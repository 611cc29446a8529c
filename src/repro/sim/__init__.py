"""Large-scale event-driven simulations (§9) and the stop-and-go baseline."""

from .accelerators import (
    A100_DATAPATH_SECONDS,
    BENCHMARK_PLATFORMS,
    LIGHTNING_PER_LAYER_SECONDS,
    AcceleratorSpec,
    a100_gpu,
    a100x_dpu,
    brainwave,
    lightning_chip,
    p4_gpu,
)
from .events import Event, EventQueue
from .simulator import (
    DRAM_QUEUE_POWER_WATTS,
    ComparisonReport,
    EventDrivenSimulator,
    RoundRobinScheduler,
    Scheduler,
    SimulationResult,
    StreamedSummary,
    run_comparison,
)
from .stop_and_go import StopAndGoSystem
from .triton import TritonGPUServer, a100_triton, p4_triton
from .workload import (
    PoissonWorkload,
    SimRequest,
    SimTrace,
    rate_for_utilization,
)

__all__ = [
    "Event",
    "EventQueue",
    "AcceleratorSpec",
    "lightning_chip",
    "a100_gpu",
    "a100x_dpu",
    "brainwave",
    "p4_gpu",
    "BENCHMARK_PLATFORMS",
    "A100_DATAPATH_SECONDS",
    "LIGHTNING_PER_LAYER_SECONDS",
    "SimRequest",
    "SimTrace",
    "PoissonWorkload",
    "rate_for_utilization",
    "Scheduler",
    "RoundRobinScheduler",
    "EventDrivenSimulator",
    "SimulationResult",
    "StreamedSummary",
    "ComparisonReport",
    "run_comparison",
    "DRAM_QUEUE_POWER_WATTS",
    "StopAndGoSystem",
    "TritonGPUServer",
    "p4_triton",
    "a100_triton",
]
