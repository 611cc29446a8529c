"""Performance instrumentation and the benchmark harness.

This package tracks the emulator's serving performance from the compiled
fast-path PR onward:

* :mod:`~repro.perf.timers` — :class:`PhaseTimer`, a lightweight named
  phase accumulator for wall-clock breakdowns (compile vs replay vs
  readout, queue vs dispatch) with negligible overhead when idle;
* :mod:`~repro.perf.bench` — the benchmark harness: a LeNet-class
  emulation benchmark comparing the compiled fast path against the
  per-row loop path, a cluster serving benchmark, a parallel scaling
  benchmark (serial event loop vs ``execution="parallel"`` worker
  pools at 1/2/4 cores, determinism asserted), and the fabric,
  traffic, failover and energy benchmarks, emitting machine-readable
  ``BENCH_<name>.json`` reports plus a regression gate for CI
  (``python -m repro.perf.bench``).
"""

from .timers import PhaseTimer
from .bench import (
    REGRESSION_THRESHOLD,
    bench_cluster,
    bench_emulator,
    bench_fabric,
    bench_parallel,
    check_regression,
    effective_cpus,
    gpt2_class_dag,
    lenet_class_dag,
    write_report,
)

__all__ = [
    "PhaseTimer",
    "REGRESSION_THRESHOLD",
    "bench_cluster",
    "bench_emulator",
    "bench_fabric",
    "bench_parallel",
    "check_regression",
    "effective_cpus",
    "gpt2_class_dag",
    "lenet_class_dag",
    "write_report",
]
