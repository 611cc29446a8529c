"""Lightning's core contribution: the count-action datapath.

The reconfigurable count-action abstraction
(:mod:`~repro.core.count_action`) and the datapath modules built on it —
the synchronous data streamer (:mod:`~repro.core.streamer`), preamble
detection (:mod:`~repro.core.preamble`), the pipeline parallel adders
(:mod:`~repro.core.adders`) and non-linear functions
(:mod:`~repro.core.nonlinear`) — plus the DAG configuration loader
(:mod:`~repro.core.dag`), memory controller (:mod:`~repro.core.memory`),
the cycle-level datapath (:mod:`~repro.core.datapath`) with the
per-layer reference it is tested against (:mod:`~repro.core.reference`),
and the complete smartNIC (:mod:`~repro.core.smartnic`).
"""

from .adders import (
    CrossCycleAdderSubtractor,
    IntraCycleAdderTree,
    PipelineParallelAdder,
)
from .count_action import (
    Comparison,
    ControlRegisterFile,
    CountActionFabric,
    CountActionUnit,
    CountMode,
    FireRecord,
)
from .dag import (
    ComputationDAG,
    DAGConfigurationLoader,
    LayerTask,
    SignSeparatedRow,
    sign_separate_row,
)
from .dag import AttentionShape, ConvShape, PoolShape
from .datapath import (
    PER_LAYER_DATAPATH_SECONDS,
    BatchExecution,
    InferenceExecution,
    LayerExecution,
    LightningDatapath,
)
from .memory import (
    HBM2_BANDWIDTH_GBPS,
    DRAMBuffer,
    DRAMModel,
    MemoryController,
    required_memory_bandwidth_gbps,
    wavelengths_fed_by_bandwidth,
)
from .nonlinear import (
    ArgMax,
    Identity,
    NonlinearModule,
    ReLU,
    Softmax,
    nonlinear_module,
)
from .preamble import (
    PREAMBLE_PATTERN_TESTBED,
    DetectionResult,
    PreambleDetector,
    add_preamble,
    make_preamble,
)
from .reference import ReferenceDatapath
from .energy import DRAM_QUEUE_POWER_WATTS, EnergyModel
from .server import InferenceServer
from .smartnic import LightningSmartNIC, PuntedPacket, ServedRequest
from .stats import (
    DEFAULT_RESERVOIR_CAPACITY,
    DEFAULT_TAIL_CAPACITY,
    EnergyLedger,
    LatencyReservoir,
    NICCounters,
    Outcome,
    OutcomeFlag,
    OutcomeReason,
    Outcomes,
    ServerStats,
    check_accounting,
)
from .streamer import SynchronousDataStreamer
from .trace import DatapathTracer, TraceEvent

__all__ = [
    "CountMode",
    "Comparison",
    "ControlRegisterFile",
    "CountActionUnit",
    "CountActionFabric",
    "FireRecord",
    "SynchronousDataStreamer",
    "PREAMBLE_PATTERN_TESTBED",
    "make_preamble",
    "add_preamble",
    "PreambleDetector",
    "DetectionResult",
    "CrossCycleAdderSubtractor",
    "IntraCycleAdderTree",
    "PipelineParallelAdder",
    "NonlinearModule",
    "Identity",
    "ReLU",
    "Softmax",
    "ArgMax",
    "nonlinear_module",
    "LayerTask",
    "ComputationDAG",
    "SignSeparatedRow",
    "sign_separate_row",
    "DAGConfigurationLoader",
    "DRAMModel",
    "DRAMBuffer",
    "MemoryController",
    "HBM2_BANDWIDTH_GBPS",
    "wavelengths_fed_by_bandwidth",
    "required_memory_bandwidth_gbps",
    "LightningDatapath",
    "ReferenceDatapath",
    "LayerExecution",
    "InferenceExecution",
    "BatchExecution",
    "ConvShape",
    "PoolShape",
    "AttentionShape",
    "PER_LAYER_DATAPATH_SECONDS",
    "LightningSmartNIC",
    "ServedRequest",
    "PuntedPacket",
    "InferenceServer",
    "ServerStats",
    "LatencyReservoir",
    "EnergyLedger",
    "EnergyModel",
    "DRAM_QUEUE_POWER_WATTS",
    "check_accounting",
    "NICCounters",
    "Outcome",
    "OutcomeFlag",
    "OutcomeReason",
    "Outcomes",
    "DEFAULT_RESERVOIR_CAPACITY",
    "DEFAULT_TAIL_CAPACITY",
    "DatapathTracer",
    "TraceEvent",
]
