"""The multi-core serving runtime: cluster, schedulers, queues, batching.

This package turns the smartNIC's one-frame serving path
(:meth:`~repro.core.smartnic.LightningSmartNIC.handle_frame`) into a
load-bearing runtime — the layer the paper's §9 simulator abstracts,
realised over real :class:`~repro.core.datapath.LightningDatapath`
cores:

* :class:`~repro.runtime.cluster.Cluster` — N photonic cores sharing
  deployed DAGs behind a virtual-clock event loop;
* :mod:`~repro.runtime.schedulers` — the :class:`Scheduler` protocol
  (shared with the §9 simulator) plus round-robin, least-loaded and
  health-aware policies;
* :mod:`~repro.runtime.queues` — bounded per-model admission queues
  with drop-tail / drop-head overload policies;
* :mod:`~repro.runtime.batching` — the opportunistic coalescer that
  merges queued same-model requests into broadcast batch executions;
* :mod:`~repro.runtime.workload` — Poisson traces over deployed DAGs,
  reusing the §9 workload generator;
* :mod:`~repro.runtime.executor` — where a dispatch's numerics run:
  deferred, grouped by (core, model) and evaluated in blocks through
  the batch-major forward program, in process or in the workers;
* :mod:`~repro.runtime.parallel` — the process-parallel execution
  backend (``Cluster(execution="parallel")``): one persistent worker
  per core replaying shared-memory plans, fed over one ordered pipe
  stream, bit-identical to serial.
"""

from .schedulers import (
    CoreHealthView,
    HealthAwareScheduler,
    LeastLoadedScheduler,
    ModelQueueView,
    RoundRobinScheduler,
    Scheduler,
    SchedulerBase,
)
from .queues import DROP_POLICIES, AdmissionQueue, QueueEntry
from .batching import BatchingCoalescer, stack_levels
from .cluster import Cluster, ClusterResult, RuntimeRequest
from .parallel import CoreWorkerPool, SharedArrayRef, publish_model
from .workload import poisson_trace, rate_for_cluster_utilization

__all__ = [
    "Scheduler",
    "SchedulerBase",
    "ModelQueueView",
    "RoundRobinScheduler",
    "LeastLoadedScheduler",
    "CoreHealthView",
    "HealthAwareScheduler",
    "DROP_POLICIES",
    "AdmissionQueue",
    "QueueEntry",
    "BatchingCoalescer",
    "stack_levels",
    "Cluster",
    "ClusterResult",
    "RuntimeRequest",
    "CoreWorkerPool",
    "SharedArrayRef",
    "publish_model",
    "poisson_trace",
    "rate_for_cluster_utilization",
]
