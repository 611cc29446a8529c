"""Tests for the event-driven serving simulator and the stop-and-go
baseline (§3, §9).

``TestStreamedServing`` also holds the streamed run to one block fold
per run: landing requests one at a time instead is slower with
bit-identical results, which no ratio gate and no digest sees (see
``tests/core/test_stats.py``).
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.energy import EnergyModel
from repro.core.stats import Outcome, Outcomes, Tallied
from repro.dnn import SIMULATION_MODELS, alexnet_spec
from repro.dnn.model import LayerSpec, ModelSpec
from repro.sim import (
    EventDrivenSimulator,
    PoissonWorkload,
    RoundRobinScheduler,
    StopAndGoSystem,
    a100_gpu,
    a100x_dpu,
    brainwave,
    lightning_chip,
    rate_for_utilization,
    run_comparison,
)
from repro.runtime.schedulers import (
    CoreHealthView,
    HealthAwareScheduler,
    LeastLoadedScheduler,
)
from repro.sim.simulator import StreamedSummary
from repro.sim.workload import SimRequest, SimTrace

from ..core.test_stats import PerValueReservoir, reservoir_state


def tiny_model(macs=1_000_000, name="Tiny"):
    return ModelSpec(
        name=name,
        layers=(LayerSpec("l1", macs, macs),),
        model_bytes=1024,
        query_bytes=128,
    )


class TestRoundRobinScheduler:
    def test_cycles_through_cores(self):
        sched = RoundRobinScheduler(num_cores=3)
        req = SimRequest(0, tiny_model(), 0.0)
        assert [sched.assign(req) for _ in range(5)] == [0, 1, 2, 0, 1]

    def test_reset(self):
        sched = RoundRobinScheduler(num_cores=2)
        sched.assign(SimRequest(0, tiny_model(), 0.0))
        sched.reset()
        assert sched.assign(SimRequest(1, tiny_model(), 0.0)) == 0


class TestEventDrivenSimulator:
    def test_uncontended_request_has_no_queuing(self):
        acc = lightning_chip()
        sim = EventDrivenSimulator(acc)
        result = sim.run([SimRequest(0, alexnet_spec(), 0.0)])
        record = result.records[0]
        assert record.queuing_s == 0.0
        assert record.serve_time_s == pytest.approx(
            acc.service_seconds(alexnet_spec())
        )

    def test_back_to_back_requests_queue(self):
        acc = lightning_chip()
        model = alexnet_spec()
        trace = [
            SimRequest(0, model, 0.0),
            SimRequest(1, model, 0.0),
        ]
        result = EventDrivenSimulator(acc).run(trace)
        assert result.records[0].queuing_s == 0.0
        assert result.records[1].queuing_s > 0.0

    def test_fifo_order_preserved(self):
        acc = lightning_chip()
        model = alexnet_spec()
        trace = [SimRequest(i, model, i * 1e-9) for i in range(5)]
        result = EventDrivenSimulator(acc).run(trace)
        finishes = [r.finish_s for r in result.records]
        assert finishes == sorted(finishes)

    def test_multicore_parallelism_reduces_queuing(self):
        model = tiny_model()
        trace = [SimRequest(i, model, 0.0) for i in range(8)]
        single = EventDrivenSimulator(lightning_chip()).run(trace)
        multi = EventDrivenSimulator(
            lightning_chip(), RoundRobinScheduler(num_cores=4)
        ).run(trace)
        assert multi.mean_serve_time() < single.mean_serve_time()

    def test_utilization_reported(self):
        models = SIMULATION_MODELS()
        acc = a100x_dpu()
        rate = rate_for_utilization([acc], models, 0.9)
        trace = PoissonWorkload(models, rate, seed=0).trace(2000)
        result = EventDrivenSimulator(acc).run(trace)
        assert result.utilization() == pytest.approx(0.9, abs=0.08)

    def test_mean_serve_time_per_model(self):
        models = [tiny_model(10**6, "A"), tiny_model(10**9, "B")]
        trace = [
            SimRequest(0, models[0], 0.0),
            SimRequest(1, models[1], 1.0),
        ]
        result = EventDrivenSimulator(lightning_chip()).run(trace)
        assert result.mean_serve_time("B") > result.mean_serve_time("A")
        with pytest.raises(ValueError, match="no records"):
            result.mean_serve_time("C")

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            EventDrivenSimulator(lightning_chip()).run([])

    def test_energy_components(self):
        acc = a100_gpu()
        result = EventDrivenSimulator(acc).run(
            [SimRequest(0, alexnet_spec(), 0.0)]
        )
        record = result.records[0]
        expected = (
            record.compute_s * acc.power_watts
            + record.datapath_s * acc.nic_power_watts
        )
        assert result.outcomes.joules[0] == pytest.approx(expected)

    def test_lightning_datapath_energy_at_chip_power(self):
        acc = lightning_chip()
        result = EventDrivenSimulator(acc).run(
            [SimRequest(0, alexnet_spec(), 0.0)]
        )
        record = result.records[0]
        expected = (
            record.compute_s + record.datapath_s
        ) * acc.power_watts
        assert result.outcomes.joules[0] == pytest.approx(expected)

    def test_queued_requests_pay_dram_energy(self):
        acc = lightning_chip()
        model = alexnet_spec()
        trace = [SimRequest(i, model, 0.0) for i in range(3)]
        result = EventDrivenSimulator(acc).run(trace)
        queued = result.records[-1]
        unqueued_energy = (
            queued.compute_s + queued.datapath_s
        ) * acc.power_watts
        assert result.outcomes.joules[-1] > unqueued_energy

    def test_a_run_writes_one_served_row_per_request(self):
        """The simulator returns the serving runtime's result shape: a
        served row per request in serve order (stable by arrival), the
        recurrence's own t_q, and joules priced per row by the shared
        energy model."""
        models = [tiny_model(10**6, "A"), tiny_model(10**9, "B")]
        trace = [
            SimRequest(i, models[i % 2], arrival)
            for i, arrival in enumerate([3e-3, 0.0, 1e-3, 0.0, 2e-3])
        ]
        acc = lightning_chip()
        result = EventDrivenSimulator(
            acc, RoundRobinScheduler(num_cores=2)
        ).run(trace)
        table = result.outcomes
        assert isinstance(result, Tallied)
        assert result.served == result.offered == len(table) == len(trace)
        assert table.request.tolist() == [1, 3, 2, 4, 0]
        # Model codes in first-use order: B served first, then A.
        assert table.model.tolist() == [0, 0, 1, 1, 1]
        assert table.arrival.tolist() == [0.0, 0.0, 1e-3, 2e-3, 3e-3]
        assert (table.fate == Outcome.SERVED).all()
        assert table.shard.tolist() == [-1] * 5
        assert table.batch.tolist() == [1] * 5
        assert table.prediction.tolist() == [-1] * 5
        assert table.core.tolist() == [0, 1, 0, 1, 0]
        assert (table.t_q >= 0).all()
        energy = EnergyModel.from_accelerator(acc)
        for row in range(len(table)):
            assert table.joules[row] == energy.energy(
                datapath_s=float(table.t_d[row]),
                queuing_s=float(table.t_q[row]),
                compute_s=float(table.t_c[row]),
            )
        assert [r.finish_s for r in result.records] == table.finish.tolist()
        assert list(result.serve_times()) == list(table.serve_s)


class TestRunComparison:
    @pytest.fixture(scope="class")
    def report(self):
        return run_comparison(
            SIMULATION_MODELS(),
            [a100_gpu(), a100x_dpu(), brainwave()],
            lightning_chip(),
            utilization=0.98,
            num_requests=600,
            num_traces=2,
            seed=0,
        )

    def test_fig21_speedup_shape(self, report):
        """The headline: hundreds of x vs GPUs/DPUs, tens vs Brainwave."""
        a100 = report.average_speedup("A100 GPU")
        a100x = report.average_speedup("A100X DPU")
        bw = report.average_speedup("Brainwave")
        assert 100 < a100 < 1000  # paper: 337x
        assert 100 < a100x < 1000  # paper: 329x
        assert 10 < bw < 100  # paper: 42x
        assert bw < min(a100, a100x)

    def test_a100_slightly_above_a100x(self, report):
        # Same compute, but the GPU also pays the Triton datapath.
        assert report.average_speedup("A100 GPU") > report.average_speedup(
            "A100X DPU"
        )

    def test_fig22_energy_savings_shape(self, report):
        for platform in ("A100 GPU", "A100X DPU", "Brainwave"):
            assert report.average_energy_savings(platform) > 1.0
        assert report.average_energy_savings(
            "Brainwave"
        ) < report.average_energy_savings("A100 GPU")

    def test_every_model_covered(self, report):
        for per_model in report.speedups.values():
            assert len(per_model) == 7
            assert all(v > 1.0 for v in per_model.values())


class TestStopAndGo:
    def test_five_orders_of_magnitude_slower(self):
        """Figure 4's gap: the stop-and-go pipeline is ~1e5x slower than
        Lightning end-to-end."""
        system = StopAndGoSystem(jitter_sigma=0.0)
        model = alexnet_spec()
        stop_and_go = system.inference_latency_seconds(model)
        lt = lightning_chip()
        lightning = lt.service_seconds(model)
        assert stop_and_go / lightning > 1e4

    def test_per_layer_overhead_dominates(self):
        system = StopAndGoSystem(jitter_sigma=0.0)
        latency = system.layer_latency_seconds(1000)
        overhead = (
            system.awg_arm_seconds
            + system.digitizer_read_seconds
            + system.software_step_seconds
        )
        assert latency == pytest.approx(overhead, rel=0.01)

    def test_jitter_produces_spread(self):
        system = StopAndGoSystem()
        samples = system.latency_samples(alexnet_spec(), 50, seed=0)
        assert samples.std() > 0
        assert len(samples) == 50

    def test_deterministic_without_rng(self):
        system = StopAndGoSystem()
        a = system.inference_latency_seconds(alexnet_spec())
        b = system.inference_latency_seconds(alexnet_spec())
        assert a == b

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            StopAndGoSystem(link_gbps=0)
        with pytest.raises(ValueError):
            StopAndGoSystem(num_wavelengths=0)
        with pytest.raises(ValueError):
            StopAndGoSystem().layer_latency_seconds(-1)


def summary_state(summary: StreamedSummary) -> tuple:
    """Everything a streamed summary holds, floats as hex."""
    return (
        summary.count,
        summary.busy_s.hex(),
        summary.horizon_s.hex(),
        [
            (name, agg.count, agg.datapath_s.hex(), agg.queuing_s.hex(),
             agg.compute_s.hex())
            for name, agg in summary.per_model.items()
        ],
        reservoir_state(summary.reservoir),
    )


class TestStreamedServing:
    """A run's summary: one block fold of the arrays its table holds."""

    def _trace(self, n=3000):
        models = SIMULATION_MODELS()
        acc = a100x_dpu()
        rate = rate_for_utilization([acc], models, 0.9)
        return acc, models, PoissonWorkload(models, rate, seed=3).trace(n)

    def test_keep_records_is_inert(self):
        acc, _, trace = self._trace(n=500)
        kept = EventDrivenSimulator(acc).run(trace)
        streamed = EventDrivenSimulator(acc).run(trace, keep_records=False)
        assert summary_state(kept.summary) == summary_state(streamed.summary)
        for column in Outcomes.COLUMNS:
            assert np.array_equal(
                getattr(kept.outcomes, column),
                getattr(streamed.outcomes, column),
            ), column
        assert kept.records == streamed.records

    @pytest.mark.parametrize("platform", [lightning_chip, a100_gpu])
    def test_block_fold_equals_per_request_observes(self, platform):
        """One ``observe_many`` over the run's arrays leaves the summary
        — sums, key order, reservoir, generator — exactly as an
        ``observe`` per record through the per-value reservoir."""
        models = SIMULATION_MODELS()
        acc = platform()
        rate = rate_for_utilization([acc], models, 0.95)
        trace = PoissonWorkload(models, rate, seed=5).trace(9000, 1)
        streamed = EventDrivenSimulator(acc).run(trace)
        reference = StreamedSummary(reservoir=PerValueReservoir())
        for record in streamed.records:
            reference.observe(
                record.request.model.name,
                record.datapath_s,
                record.queuing_s,
                record.compute_s,
                record.finish_s,
            )
        assert summary_state(streamed.summary) == summary_state(reference)

    def test_streamed_run_lands_once(self, monkeypatch):
        """The streamed run folds its arrays in one block, never one
        ``observe`` per request."""

        def per_request(*args, **kwargs):
            raise AssertionError("a served request landed on its own")

        monkeypatch.setattr(StreamedSummary, "observe", per_request)
        acc, _, trace = self._trace()
        streamed = EventDrivenSimulator(acc).run(trace)
        assert streamed.summary.count == len(trace)

    def test_streamed_percentiles_are_exact_below_capacity(self):
        # Fewer samples than the reservoir holds: the reservoir sees
        # every value verbatim, so it matches the table bit for bit.
        acc, _, trace = self._trace(n=1000)
        result = EventDrivenSimulator(acc).run(trace)
        assert result.serve_time_percentiles([50, 99]) == (
            result.summary.reservoir.percentiles([50, 99])
        )

    def test_percentiles_are_exact_past_capacity(self):
        # The table holds every row, so percentiles stay exact where
        # the reservoir has started to subsample.
        acc, _, trace = self._trace(n=6000)
        result = EventDrivenSimulator(acc).run(trace)
        assert len(result.summary.reservoir) < len(trace)
        exact = np.percentile([r.serve_time_s for r in result.records], 50)
        assert result.serve_time_percentiles([50]) == [float(exact)]

    def test_record_path_unchanged_by_rewrite(self):
        # The heap-free loop must reproduce the event-loop recurrence:
        # FIFO order per core, ready-vs-free max, exact finish chain.
        model = tiny_model()
        acc = lightning_chip()
        trace = [SimRequest(i, model, i * 1e-9) for i in range(16)]
        result = EventDrivenSimulator(acc).run(trace)
        compute = acc.compute_seconds(model)
        datapath = acc.datapath_seconds(model)
        expected_finish = []
        free = 0.0
        for r in trace:
            start = max(r.arrival_s + datapath, free)
            free = start + compute
            expected_finish.append(free)
        assert [r.finish_s for r in result.records] == expected_finish


def run_digest(result) -> str:
    """SHA-256 over every outcomes column (dtype and bytes) and the
    summary's full state."""
    sha = hashlib.sha256()
    for name in Outcomes.COLUMNS:
        column = np.ascontiguousarray(getattr(result.outcomes, name))
        sha.update(f"{name}:{column.dtype.str}:".encode())
        sha.update(column.tobytes())
    sha.update(repr(summary_state(result.summary)).encode())
    return sha.hexdigest()


class TestTraceColumns:
    """The simulator reads a trace's columns; a request list takes the
    same path after one conversion."""

    # Recorded when traces were request lists and the request column
    # held the request objects (hashed here as their ids): the array
    # path changed no bit of any column or of the summary.
    DIGESTS = {
        ("lightning_chip", "rr1"):
            "f027001d8c04f0d03ec76dc228b0e74a809cb21099ace00bcdbdbd2f179cc6c1",
        ("a100_gpu", "rr1"):
            "098eed7e811234482ca8348272452435de355f78b6d645b4b0d50889797cee34",
        ("lightning_chip", "health3"):
            "81b3232d4588d8928029fc7f6b379b0be5adb6f74750364c2f3960f8c2fe86e4",
        ("a100_gpu", "least3"):
            "3f269ad7edd0b09b4a558b375c2b461122b75021a22bc4bc6e46f9e52ce7a930",
    }
    SCHEDULERS = {
        "rr1": lambda: RoundRobinScheduler(),
        "health3": lambda: HealthAwareScheduler(num_cores=3),
        "least3": lambda: LeastLoadedScheduler(num_cores=3),
    }
    PLATFORMS = {"lightning_chip": lightning_chip, "a100_gpu": a100_gpu}

    @pytest.mark.parametrize("platform, policy", sorted(DIGESTS))
    def test_outcomes_and_summary_digest(self, platform, policy):
        acc, scheduler = self.PLATFORMS[platform](), self.SCHEDULERS[policy]()
        models = SIMULATION_MODELS()
        rate = rate_for_utilization([acc], models, 0.9) * scheduler.num_cores
        trace = PoissonWorkload(models, rate, seed=7).trace(4000, 3)
        result = EventDrivenSimulator(acc, scheduler).run(trace)
        assert run_digest(result) == self.DIGESTS[platform, policy]

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 40),
                st.sampled_from([0.0, 0.0, 1e-6, 2e-6, 2e-6, 5e-6, 1e-3]),
                st.integers(0, 2),
            ),
            min_size=1,
            max_size=14,
        ),
        policy=st.sampled_from(["rr1", "health3", "least3"]),
    )
    def test_request_list_equals_trace(self, rows, policy):
        """Small traces with tied arrivals and repeated ids: a request
        list and the equivalent trace give the same table, summary and
        records.  Two models share a name, and the trace lists them in
        an order the list's first use does not follow."""
        models = [
            tiny_model(10**6, "A"), tiny_model(10**8, "B"),
            tiny_model(10**7, "A"),
        ]
        ids, arrivals, picks = (list(column) for column in zip(*rows))
        requests = [
            SimRequest(i, models[p], a)
            for i, a, p in zip(ids, arrivals, picks)
        ]
        trace = SimTrace(ids, arrivals, picks, models)
        acc = lightning_chip()
        results = [
            EventDrivenSimulator(acc, self.SCHEDULERS[policy]()).run(given)
            for given in (requests, trace)
        ]
        listed, traced = results
        for column in Outcomes.COLUMNS:
            a, b = (getattr(r.outcomes, column) for r in results)
            assert a.dtype == b.dtype and np.array_equal(a, b), column
        assert summary_state(listed.summary) == summary_state(traced.summary)
        assert listed.records == traced.records
        assert Counter(r.request for r in traced.records) == Counter(requests)

    def test_model_sweep_run_builds_no_request(self, monkeypatch):
        """Generating and simulating a trace as the stack benchmark's
        model sweep does (``trace`` + ``run(keep_records=False)`` on
        both platforms) never builds a :class:`SimRequest`."""

        def built(*args, **kwargs):
            raise AssertionError("a SimRequest was built")

        monkeypatch.setattr(SimRequest, "__post_init__", built)
        models = SIMULATION_MODELS()
        for platform in (lightning_chip, a100_gpu):
            acc = platform()
            rate = rate_for_utilization([acc], models, 0.95)
            trace = PoissonWorkload(models, rate, seed=0).trace(3000, 1)
            result = EventDrivenSimulator(acc).run(trace, keep_records=False)
            assert result.summary.count == 3000


def snapshot_placement(accelerator, scheduler, trace: SimTrace) -> list[int]:
    """The core column of a run that publishes an all-healthy,
    zero-error :class:`CoreHealthView` per core before every
    ``assign``: the simulator's loop when it still built snapshots."""
    scheduler.reset()
    trace = trace.take(np.argsort(trace.arrivals, kind="stable"))
    core_free_at = [0.0] * scheduler.num_cores
    cores = []
    for request_id, arrival, pick in zip(
        trace.request_ids.tolist(),
        trace.arrivals.tolist(),
        trace.picks.tolist(),
    ):
        scheduler.observe_health([
            CoreHealthView(core=i, busy_until_s=core_free_at[i])
            for i in range(len(core_free_at))
        ])
        core = scheduler.assign(request_id, core_free_at, now_s=arrival)
        model = trace.models[pick]
        ready_at = arrival + accelerator.datapath_seconds(model)
        free_at = core_free_at[core]
        start = ready_at if ready_at > free_at else free_at
        core_free_at[core] = start + accelerator.compute_seconds(model)
        cores.append(core)
    return cores


class TestHealthAwarePlacement:
    """The simulator publishes no health snapshot: a health-aware
    policy presumes every core clean, which places every request where
    an all-healthy snapshot would."""

    @settings(max_examples=60, deadline=None)
    @given(
        num_cores=st.integers(1, 4),
        rows=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.0, 1e-6, 2e-6, 2e-6, 5e-6, 1e-3]),
                st.integers(0, 2),
            ),
            min_size=1,
            max_size=30,
        ),
        threshold=st.sampled_from([1e-9, 0.5, 10.0]),
    )
    def test_core_column_equals_an_all_healthy_snapshot(
        self, num_cores, rows, threshold
    ):
        models = [
            tiny_model(10**6, "A"), tiny_model(10**8, "B"),
            tiny_model(10**7, "C"),
        ]
        arrivals, picks = (list(column) for column in zip(*rows))
        trace = SimTrace(range(len(rows)), arrivals, picks, models)
        acc = lightning_chip()
        result = EventDrivenSimulator(
            acc, HealthAwareScheduler(num_cores, threshold)
        ).run(trace)
        assert result.outcomes.core.tolist() == snapshot_placement(
            acc, HealthAwareScheduler(num_cores, threshold), trace
        )

    def test_a_run_builds_no_health_view(self, monkeypatch):
        views = []
        monkeypatch.setattr(
            HealthAwareScheduler, "observe_health", views.append
        )
        models = SIMULATION_MODELS()
        acc = lightning_chip()
        rate = rate_for_utilization([acc], models, 0.9) * 3
        trace = PoissonWorkload(models, rate, seed=7).trace(500, 3)
        EventDrivenSimulator(acc, HealthAwareScheduler(num_cores=3)).run(trace)
        assert views == []
