"""The event-driven inference-serving simulator (§9).

Requests are decomposed into layer-wise compute tasks and dispatched to
an accelerator's compute cores by a round-robin scheduler with FIFO
queues.  The simulator tracks the paper's serve-time decomposition per
request:

* ``datapath`` (t_d) — arrival at the NIC to first-layer start;
* ``queuing`` (t_q) — time buffered in host DRAM while all cores busy;
* ``compute`` (t_c) — execution on the accelerator.

A run returns the serving runtime's result shape: one
:class:`~repro.core.stats.Outcomes` row per request, read back as
:class:`~repro.core.stats.ServedRecord` views, plus the exact
:class:`StreamedSummary` folded from the same arrays.

Energy accounting follows §9 exactly: computation energy is compute time
times accelerator power (for Lightning this includes the datapath, whose
packet I/O is integrated); server-attached platforms additionally pay the
NIC card's power during their datapath time; and queued requests pay
DRAM power while waiting.  The formula itself lives in
:class:`repro.core.energy.EnergyModel` — the same instance the serving
runtime charges per request — so the simulator and the real cluster
price identical decompositions to identical joules.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ..core.energy import DRAM_QUEUE_POWER_WATTS, EnergyModel
from ..core.stats import (
    LatencyReservoir,
    Outcome,
    Outcomes,
    ServedRecord,
    Tallied,
    grouped_by_first_use,
    sequential_sum,
)
from ..dnn.model import ModelSpec
from .accelerators import AcceleratorSpec
from .workload import (
    PoissonWorkload,
    SimRequest,
    SimTrace,
    rate_for_utilization,
)

# The scheduler abstraction is shared with the serving runtime
# (repro.runtime): a policy validated here drives real datapath cores
# there with identical placement semantics.  RoundRobinScheduler is
# re-exported for backwards compatibility.
from ..runtime.schedulers import RoundRobinScheduler, Scheduler

__all__ = [
    "Scheduler",
    "RoundRobinScheduler",
    "EventDrivenSimulator",
    "SimulationResult",
    "StreamedSummary",
    "ComparisonReport",
    "run_comparison",
    # The energy constants/model now live in repro.core.energy; they
    # stay re-exported here because §9 introduced them.
    "DRAM_QUEUE_POWER_WATTS",
    "EnergyModel",
]


@dataclass
class _ModelAggregate:
    """Exact running sums for one model's served requests."""

    count: int = 0
    datapath_s: float = 0.0
    queuing_s: float = 0.0
    compute_s: float = 0.0

    @property
    def serve_s(self) -> float:
        return self.datapath_s + self.queuing_s + self.compute_s


@dataclass
class StreamedSummary:
    """Bounded-memory aggregates of served requests: the fleet engine's
    reduction, and a simulation result's summary.

    Counts and sums are exact; serve-time percentiles come from a
    fixed-capacity :class:`~repro.core.stats.LatencyReservoir`, so a
    million-request stream costs the same memory as a thousand-request
    one.
    """

    count: int = 0
    busy_s: float = 0.0
    horizon_s: float = 0.0
    per_model: dict[str, _ModelAggregate] = field(default_factory=dict)
    reservoir: LatencyReservoir = field(default_factory=LatencyReservoir)

    def observe(
        self,
        model_name: str,
        datapath_s: float,
        queuing_s: float,
        compute_s: float,
        finish_s: float,
    ) -> None:
        """Fold one served request into the streaming aggregates."""
        self.count += 1
        self.busy_s += compute_s
        if finish_s > self.horizon_s:
            self.horizon_s = finish_s
        agg = self.per_model.get(model_name)
        if agg is None:
            agg = self.per_model[model_name] = _ModelAggregate()
        agg.count += 1
        agg.datapath_s += datapath_s
        agg.queuing_s += queuing_s
        agg.compute_s += compute_s
        self.reservoir.add(datapath_s + queuing_s + compute_s)

    def observe_many(
        self,
        model_names: list[str],
        codes: np.ndarray,
        datapath_s: np.ndarray,
        queuing_s: np.ndarray,
        compute_s: np.ndarray,
        finish_s: np.ndarray,
    ) -> None:
        """Fold a block of served requests, in serve order.

        Request ``i`` ran ``model_names[codes[i]]``.  Leaves the summary
        exactly as per-request :meth:`observe` calls would: every sum is
        added left to right and ``per_model`` gains its keys in the same
        order.
        """
        if len(codes) == 0:
            return
        self.count += len(codes)
        self.busy_s = sequential_sum(self.busy_s, compute_s)
        self.horizon_s = max(self.horizon_s, float(finish_s.max()))
        for code, rows in grouped_by_first_use(codes):
            name = model_names[code]
            agg = self.per_model.get(name)
            if agg is None:
                agg = self.per_model[name] = _ModelAggregate()
            agg.count += len(rows)
            agg.datapath_s = sequential_sum(agg.datapath_s, datapath_s[rows])
            agg.queuing_s = sequential_sum(agg.queuing_s, queuing_s[rows])
            agg.compute_s = sequential_sum(agg.compute_s, compute_s[rows])
        self.reservoir.add_many(datapath_s + queuing_s + compute_s)


@dataclass(frozen=True)
class SimulationResult(Tallied):
    """One trace served on one accelerator: an outcomes row per request
    — every one ``SERVED``, in serve order, ``request`` its request id,
    ``model`` a per-name code, ``shard`` -1, ``batch`` 1,
    ``prediction`` -1 — the :class:`StreamedSummary` folded from it,
    and the trace in serve order (row ``i`` is ``trace[i]``).

    Per-row queries read the table.  The means and utilization read the
    summary's exact sums, which the Figs 21/22 ratios are pinned to.
    """

    accelerator: AcceleratorSpec
    outcomes: Outcomes
    summary: StreamedSummary
    trace: SimTrace

    @cached_property
    def records(self) -> tuple[ServedRecord, ...]:
        """The rows in serve order, as records whose ``request`` is the
        row's :class:`SimRequest`, built from the trace on first use."""
        return tuple(
            replace(record, request=request)
            for record, request in zip(self.outcomes.records(), self.trace)
        )

    def serve_time_percentiles(self, qs: list[float]) -> list[float]:
        """Exact serve-time percentiles over every request."""
        values = np.percentile(self.serve_times(), qs)
        return [float(v) for v in np.atleast_1d(values)]

    def _aggregate(self, model_name: str | None) -> _ModelAggregate:
        if model_name is None:
            total = _ModelAggregate()
            for agg in self.summary.per_model.values():
                total.count += agg.count
                total.datapath_s += agg.datapath_s
                total.queuing_s += agg.queuing_s
                total.compute_s += agg.compute_s
        else:
            total = self.summary.per_model.get(
                model_name, _ModelAggregate()
            )
        if total.count == 0:
            raise ValueError(f"no records for model {model_name!r}")
        return total

    def mean_serve_time(self, model_name: str | None = None) -> float:
        """Mean serve time, optionally restricted to one model."""
        agg = self._aggregate(model_name)
        return agg.serve_s / agg.count

    def mean_energy(self, model_name: str | None = None) -> float:
        """Mean per-request energy, optionally for one model.

        Energy is linear in the decomposition, so pricing the exact
        per-model sums in one :class:`EnergyModel` call gives the mean
        of the per-row joules up to summation order.
        """
        agg = self._aggregate(model_name)
        total = EnergyModel.from_accelerator(self.accelerator).energy(
            datapath_s=agg.datapath_s,
            queuing_s=agg.queuing_s,
            compute_s=agg.compute_s,
        )
        return total / agg.count

    def utilization(self) -> float:
        """Fraction of the simulated horizon the accelerator computed."""
        if self.summary.horizon_s <= 0:
            return 0.0
        return self.summary.busy_s / self.summary.horizon_s


def _assigned(
    scheduler: Scheduler,
    trace: SimTrace,
    core_free_at: list[float],
    record: Callable[[int], None],
) -> Iterator[int]:
    """Each request's core from one :meth:`Scheduler.assign` call,
    made only when the loop asks for it, so the call sees the busy-until
    times the loop has advanced so far; ``record`` gets every core.

    The simulator models no faults, so it publishes no health
    snapshot: a health-aware policy presumes every core clean, which
    ranks cores exactly as an all-healthy, zero-error snapshot would.
    """
    assign = scheduler.assign
    for request_id, arrival in zip(
        trace.request_ids.tolist(), trace.arrivals.tolist()
    ):
        core = assign(request_id, core_free_at, now_s=arrival)
        record(core)
        yield core


class EventDrivenSimulator:
    """Simulates one accelerator serving one request trace."""

    def __init__(
        self,
        accelerator: AcceleratorSpec,
        scheduler: Scheduler | None = None,
    ) -> None:
        self.accelerator = accelerator
        self.scheduler = (
            scheduler if scheduler is not None else RoundRobinScheduler()
        )

    def run(
        self, trace: Sequence[SimRequest], keep_records: bool = True
    ) -> SimulationResult:
        """Serve a trace to completion.

        A simulated trace holds nothing but arrival events, so the
        event heap the serving runtime needs (completions, faults,
        probes...) is pure overhead here: one stable sort of the trace
        *is* the event schedule.  A request list becomes a
        :class:`SimTrace` first, so every trace takes one path: the loop
        reads the trace's columns and prices each request by its model
        pick (each model's datapath/compute cost is computed once).
        The outcomes columns are built from the loop's start times in
        array operations, one :meth:`StreamedSummary.observe_many`
        folds them into the summary and one :class:`EnergyModel` call
        prices the joules.

        Placement comes in as a column.  A load-oblivious rotation (a
        scheduler with ``assign_many``, like
        :class:`RoundRobinScheduler`) is asked for the whole column
        once, so the loop is just the recurrence ``start =
        max(arrival + datapath, core_free_at[core])`` in arrival order.
        Any other scheduler gets one :meth:`Scheduler.assign` call per
        request, passed the request id, made as the loop reaches the
        request so it sees the busy-until times so far.  Either way the
        recurrence is the event-loop formulation's, so results are
        bit-equal to it.

        ``keep_records`` is inert: every run keeps its table.  It stays
        because the stack benchmark passes it, and goes together with
        the datapath's inert ``fidelity`` / ``seed`` keywords (ROADMAP
        item 1(e)).
        """
        if not trace:
            raise ValueError("cannot simulate an empty trace")
        if not isinstance(trace, SimTrace):
            trace = SimTrace.from_requests(trace)
        self.scheduler.reset()
        # Stable sort matches the event queue's (time, push-seq) order.
        trace = trace.take(np.argsort(trace.arrivals, kind="stable"))
        models, picks = trace.models, trace.picks
        datapath_of = [0.0] * len(models)
        compute_of = [0.0] * len(models)
        # Summaries key by name: same-named models share one code,
        # numbered in serve order of first use.
        name_codes: dict[str, int] = {}
        codes = np.empty(len(trace), dtype=np.int64)
        for pick, rows in grouped_by_first_use(picks):
            model = models[pick]
            datapath_of[pick] = self.accelerator.datapath_seconds(model)
            compute_of[pick] = self.accelerator.compute_seconds(model)
            codes[rows] = name_codes.setdefault(model.name, len(name_codes))
        core_free_at = [0.0] * self.scheduler.num_cores
        assign_many = getattr(self.scheduler, "assign_many", None)
        if assign_many is not None:
            cores = assign_many(len(trace), len(core_free_at))
            placed = cores.tolist()
        else:
            cores = []
            placed = _assigned(
                self.scheduler, trace, core_free_at, cores.append
            )
        starts: list[float] = []
        for core, arrival, pick in zip(
            placed, trace.arrivals.tolist(), picks.tolist()
        ):
            # The request becomes ready for compute after its datapath
            # stage; it queues in DRAM while the core is busy.
            ready_at = arrival + datapath_of[pick]
            free_at = core_free_at[core]
            start = ready_at if ready_at > free_at else free_at
            core_free_at[core] = start + compute_of[pick]
            starts.append(start)
        # The same float operations the loop made per request, as array
        # operations: bit-equal.
        start = np.array(starts)
        datapath = np.array(datapath_of)[picks]
        compute = np.array(compute_of)[picks]
        queuing = start - (trace.arrivals + datapath)
        finish = start + compute
        summary = StreamedSummary()
        summary.observe_many(
            list(name_codes), codes, datapath, queuing, compute, finish
        )
        # Columns every row shares are read-only zero-stride views (the
        # omitted ones too), so the table costs memory only for what
        # varies per request.
        outcomes = Outcomes(
            request=trace.request_ids,
            model=codes,
            core=np.asarray(cores, dtype=np.int64),
            fate=np.broadcast_to(np.int8(Outcome.SERVED), len(trace)),
            arrival=trace.arrivals,
            t_q=queuing,
            t_d=datapath,
            t_c=compute,
            finish=finish,
            joules=EnergyModel.from_accelerator(self.accelerator).energy(
                datapath_s=datapath, queuing_s=queuing, compute_s=compute
            ),
        )
        return SimulationResult(self.accelerator, outcomes, summary, trace)


@dataclass(frozen=True)
class ComparisonReport:
    """Lightning vs digital platforms over the same traces (Figs 21/22)."""

    lightning: AcceleratorSpec
    platforms: tuple[AcceleratorSpec, ...]
    models: tuple[ModelSpec, ...]
    #: speedup[platform_name][model_name] -> serve-time ratio
    speedups: dict[str, dict[str, float]]
    #: savings[platform_name][model_name] -> energy ratio
    energy_savings: dict[str, dict[str, float]]

    def average_speedup(self, platform_name: str) -> float:
        """Mean per-model serve-time speedup vs one platform."""
        return float(np.mean(list(self.speedups[platform_name].values())))

    def average_energy_savings(self, platform_name: str) -> float:
        """Mean per-model energy savings vs one platform."""
        return float(
            np.mean(list(self.energy_savings[platform_name].values()))
        )


def run_comparison(
    models: list[ModelSpec],
    platforms: list[AcceleratorSpec],
    lightning: AcceleratorSpec,
    utilization: float = 0.95,
    num_requests: int = 2000,
    num_traces: int = 10,
    seed: int = 0,
) -> ComparisonReport:
    """Reproduce the Figure 21/22 experiment.

    Each digital platform is compared pairwise against Lightning: the
    arrival rate is set so the most congested accelerator *of that pair*
    (always the digital platform) runs at the target utilization, the
    same traces are replayed on both, and speedups / energy savings are
    ratios of mean serve time / mean energy per model, averaged across
    traces.
    """
    sums_speedup: dict[str, dict[str, list[float]]] = {
        p.name: {m.name: [] for m in models} for p in platforms
    }
    sums_energy: dict[str, dict[str, list[float]]] = {
        p.name: {m.name: [] for m in models} for p in platforms
    }
    for platform in platforms:
        rate = rate_for_utilization(
            [platform, lightning], models, utilization
        )
        workload = PoissonWorkload(models, rate, seed=seed)
        for trace_index in range(num_traces):
            trace = workload.trace(num_requests, trace_index)
            lightning_result = EventDrivenSimulator(lightning).run(trace)
            result = EventDrivenSimulator(platform).run(trace)
            for model in models:
                sums_speedup[platform.name][model.name].append(
                    result.mean_serve_time(model.name)
                    / lightning_result.mean_serve_time(model.name)
                )
                sums_energy[platform.name][model.name].append(
                    result.mean_energy(model.name)
                    / lightning_result.mean_energy(model.name)
                )
    speedups = {
        p: {m: float(np.mean(v)) for m, v in per_model.items()}
        for p, per_model in sums_speedup.items()
    }
    energy_savings = {
        p: {m: float(np.mean(v)) for m, v in per_model.items()}
        for p, per_model in sums_energy.items()
    }
    return ComparisonReport(
        lightning=lightning,
        platforms=tuple(platforms),
        models=tuple(models),
        speedups=speedups,
        energy_savings=energy_savings,
    )
