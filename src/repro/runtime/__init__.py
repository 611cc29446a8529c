"""The multi-core serving runtime: cluster, schedulers, queues, batching.

This package turns the single-shot serving loop of
:mod:`repro.core.server` into a load-bearing runtime — the layer the
paper's §9 simulator abstracts, realised over real
:class:`~repro.core.datapath.LightningDatapath` cores:

* :class:`~repro.runtime.cluster.Cluster` — N photonic cores sharing
  deployed DAGs behind a virtual-clock event loop;
* :mod:`~repro.runtime.schedulers` — the :class:`Scheduler` protocol
  (shared with the §9 simulator) plus round-robin, least-loaded, and
  weighted-fair policies;
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
  per core replaying shared-memory plans, bit-identical to serial;
* :mod:`~repro.runtime.rings` — the windowed shared-memory ring
  transport the parallel backend dispatches through (one semaphore
  post per window of batches, zero per-batch pickling).
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
from .cluster import Cluster, ClusterResult, RuntimeRecord, RuntimeRequest
from .parallel import CoreWorkerPool, SharedArrayRef, publish_model
from .rings import RingConsumer, RingGeometry, RingProducer, RingSems
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
    "RuntimeRecord",
    "RuntimeRequest",
    "CoreWorkerPool",
    "SharedArrayRef",
    "publish_model",
    "RingGeometry",
    "RingSems",
    "RingProducer",
    "RingConsumer",
    "poisson_trace",
    "rate_for_cluster_utilization",
]
