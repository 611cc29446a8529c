"""Host calibration: what this machine gives the benchmark right now.

Every host number the benchmark prints depends on the box it ran on.
Three readings put them in context:

``burn_ms``            a fixed single-threaded burn — a numpy phase
                       (Gaussian draws plus a multiply-add, the shape
                       of the readout-noise kernel) and an interpreter
                       phase (heap, dict and float bytecode, the shape
                       of the event loops) — timed right before and
                       right after every timed round.  A shared
                       2-vCPU box drifts between speed states ~25%
                       apart over tens of seconds; the burn drifts with
                       it, so host metrics are reported at the reference
                       host speed :data:`BURN_REFERENCE_MS`.  A run
                       whose first and last burns differ by more than
                       10% is marked *disturbed*.
``parallel_capacity``  the same burn in ``nproc`` processes at once
                       versus in one: how much real parallelism the
                       host grants (a parallel fabric cannot beat it).
``cpu_seconds``        CPU of this process plus its children, living
                       or reaped — immune to being descheduled.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import resource
import signal
import time
from heapq import heappop, heappush
from multiprocessing import resource_tracker

import numpy as np

__all__ = [
    "BURN_REFERENCE_MS",
    "burn_ms",
    "disturbed",
    "parallel_capacity",
    "cpu_seconds",
    "children_cpu_seconds",
    "exit_on_sigterm",
    "reap_children",
    "peak_rss_mb",
]

#: The burn time host metrics are normalised to: a round that took
#: ``wall`` seconds between two burns averaging ``b`` ms counts as
#: ``wall * BURN_REFERENCE_MS / b`` reference seconds.
BURN_REFERENCE_MS = 35.0

_BURN_ELEMENTS = 1 << 16
_BURN_PASSES = 48
_BURN_HEAP_OPS = 60_000
_TICKS = os.sysconf("SC_CLK_TCK")


def _burn_numpy() -> None:
    """Streaming kernels: what the photonic-core emulation spends on."""
    rng = np.random.default_rng(12345)
    out = np.zeros(_BURN_ELEMENTS)
    scratch = np.empty(_BURN_ELEMENTS)
    for _ in range(_BURN_PASSES):
        rng.standard_normal(_BURN_ELEMENTS, out=scratch)
        scratch *= 1.65
        out += scratch


def _burn_interpreter() -> float:
    """Heap, dict and float bytecode: what the event loops spend on."""
    heap: list[float] = []
    seen: dict[int, float] = {}
    total = 0.0
    for index in range(_BURN_HEAP_OPS):
        heappush(heap, (index * 0.37) % 1.0)
        if len(heap) > 64:
            total += heappop(heap)
        seen[index & 255] = total
    return total


def _timed(func) -> tuple[float, float]:
    cpu = time.process_time()
    start = time.perf_counter()
    func()
    return time.perf_counter() - start, time.process_time() - cpu


def burn_ms() -> tuple[float, float]:
    """``(wall, cpu)`` milliseconds of one fixed burn: the geometric
    mean of its numpy phase and its interpreter phase, so neither
    dominates whatever their lengths."""
    numpy_wall, numpy_cpu = _timed(_burn_numpy)
    python_wall, python_cpu = _timed(_burn_interpreter)
    return (
        math.sqrt(numpy_wall * python_wall) * 1e3,
        math.sqrt(numpy_cpu * python_cpu) * 1e3,
    )


def disturbed(before_ms: float, after_ms: float) -> bool:
    """Whether two burns around a workload disagree by more than 10%."""
    return abs(after_ms - before_ms) > 0.10 * min(before_ms, after_ms)


def _timed_burn(barrier, queue) -> None:
    barrier.wait(timeout=60)
    start = time.perf_counter()
    for _ in range(8):
        _burn_numpy()
    queue.put(time.perf_counter() - start)


def _concurrent_burn_s(processes: int) -> float:
    """Slowest wall of ``processes`` simultaneous burns."""
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(processes)
    queue = context.Queue()
    workers = [
        context.Process(target=_timed_burn, args=(barrier, queue))
        for _ in range(processes)
    ]
    for worker in workers:
        worker.start()
    try:
        # Drain before joining: a child blocks in put() until read.
        walls = [queue.get(timeout=120) for _ in workers]
    finally:
        for worker in workers:
            worker.join(timeout=30)
            if worker.is_alive():
                worker.kill()
                worker.join()
    return max(walls)


def parallel_capacity(repeats: int = 3) -> float:
    """Throughput of ``nproc`` concurrent burns over one burn's
    (median of ``repeats`` alternating measurements)."""
    # Imported here: the spawned burn processes import this module
    # too, and must not pay for the whole emulator.
    from repro.perf.bench import effective_cpus

    cpus = effective_cpus()
    if cpus < 2:
        return 1.0
    return float(np.median([
        cpus * _concurrent_burn_s(1) / _concurrent_burn_s(cpus)
        for _ in range(repeats)
    ]))


def _proc_cpu_seconds(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICKS


def children_cpu_seconds() -> float:
    """CPU seconds of every child process, living or reaped."""
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    living = sum(
        _proc_cpu_seconds(child.pid)
        for child in multiprocessing.active_children()
    )
    return reaped.ru_utime + reaped.ru_stime + living


def cpu_seconds() -> float:
    """CPU seconds of this process and its children."""
    return time.process_time() + children_cpu_seconds()


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` in this process, so a terminated
    run still unwinds through the ``finally`` blocks that close the
    stack and reap its workers.  Forked workers inherit the handler;
    there it restores the default action and re-delivers the signal."""
    owner = os.getpid()

    def handler(signum, frame):
        if os.getpid() == owner:
            raise SystemExit(128 + signum)
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    signal.signal(signal.SIGTERM, handler)


def reap_children() -> None:
    """Stop and wait for every process this one started.

    Worker pools are closed by their workloads; whatever an error left
    behind is killed here.  ``multiprocessing`` also starts a resource
    tracker beside the first semaphore or shared-memory segment, which
    only exits once this process is gone — so it would outlive the run
    by a few milliseconds.  Stopping it closes its pipe and waits for
    its pid, and it unlinks any segment still registered on the way.
    """
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    # Private, but the same call CPython's own test suite and (from
    # 3.13) its interpreter shutdown use; a no-op when no tracker runs.
    resource_tracker._resource_tracker._stop()


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped
    child (call after the stack is closed, so workers are reaped)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0
