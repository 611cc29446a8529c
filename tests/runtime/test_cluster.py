"""Tests for the multi-core serving cluster over real datapaths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ComputationDAG,
    DatapathTracer,
    LayerTask,
    LightningDatapath,
    ReferenceDatapath,
)
from repro.photonics import BehavioralCore, CoreArchitecture, NoiselessModel
from repro.runtime import (
    Cluster,
    LeastLoadedScheduler,
    RuntimeRequest,
    WeightedFairScheduler,
    poisson_trace,
    rate_for_cluster_utilization,
)


def second_dag(model_id=2):
    gen = np.random.default_rng(11)
    w1 = gen.integers(-150, 151, size=(4, 12)).astype(np.float64)
    return ComputationDAG(
        model_id=model_id,
        name="tiny2",
        tasks=[
            LayerTask(
                name="fc1",
                kind="dense",
                input_size=12,
                output_size=4,
                weights_levels=w1,
                nonlinearity="relu",
            ),
        ],
    )


def make_cluster(num_cores=2, hardware_batch=1, **kwargs):
    arch = CoreArchitecture(
        accumulation_wavelengths=2, batch_size=hardware_batch
    )
    return Cluster(
        num_cores=num_cores,
        datapath_factory=lambda core: LightningDatapath(
            core=BehavioralCore(
                architecture=arch, noise=NoiselessModel()
            ),
            seed=core,
        ),
        **kwargs,
    )


@pytest.fixture()
def cluster(tiny_dag):
    c = make_cluster(num_cores=2)
    c.deploy(tiny_dag)
    return c


def request(i, model_id=1, arrival=0.0, size=12, seed=0):
    rng = np.random.default_rng((seed, i))
    return RuntimeRequest(
        request_id=i,
        model_id=model_id,
        arrival_s=arrival,
        data_levels=rng.integers(0, 256, size=size).astype(np.float64),
    )


class TestDeployment:
    def test_deploy_registers_on_every_core(self, cluster, tiny_dag):
        assert cluster.model_ids == (1,)
        for datapath in cluster.datapaths:
            assert tiny_dag.model_id in datapath.loader.model_ids
            # Both programs exist, and warm-up replayed them, per core.
            assert datapath.timing_plan(tiny_dag.model_id) is not None
            assert datapath.plan_stats() == {1: {"tasks": 2, "replays": 1}}

    def test_unknown_model_rejected(self, cluster):
        with pytest.raises(KeyError, match="not deployed"):
            cluster.serve_trace([request(0, model_id=99)])

    def test_empty_trace_rejected(self, cluster):
        with pytest.raises(ValueError, match="empty"):
            cluster.serve_trace([])

    @pytest.mark.parametrize("fidelity", ["loop", "device"])
    def test_serial_deploy_refuses_a_walking_datapath(
        self, tiny_dag, fidelity
    ):
        # A cluster serves compiled plans only, in both execution modes
        # (test_parallel pins the parallel half).
        cluster = Cluster(
            num_cores=2,
            datapath_factory=lambda core: ReferenceDatapath(
                framing=fidelity == "device", seed=core
            ),
        )
        with pytest.raises(ValueError, match="fast"):
            cluster.deploy(tiny_dag)
        assert cluster.model_ids == ()
        assert all(not d.loader.model_ids for d in cluster.datapaths)

    def test_needs_a_core(self):
        with pytest.raises(ValueError, match="at least one core"):
            Cluster(num_cores=0)

    def test_queue_misconfiguration_fails_at_construction(self):
        with pytest.raises(ValueError, match="capacity"):
            Cluster(queue_capacity=0)
        with pytest.raises(ValueError, match="drop policy"):
            Cluster(drop_policy="random-drop")


class TestDecomposition:
    def test_identity_holds_exactly(self, cluster):
        trace = [request(i, arrival=i * 1e-7) for i in range(20)]
        result = cluster.serve_trace(trace)
        assert result.served == 20
        for record in result.records:
            assert record.serve_time_s == pytest.approx(
                record.finish_s - record.request.arrival_s, abs=1e-15
            )
            assert record.queuing_s >= -1e-15
            assert record.datapath_s > 0
            assert record.compute_s > 0

    def test_uncontended_request_has_no_queuing(self, cluster):
        result = cluster.serve_trace([request(0)])
        assert result.records[0].queuing_s == pytest.approx(0.0)

    def test_contention_produces_queuing(self, tiny_dag):
        c = make_cluster(num_cores=1)
        c.deploy(tiny_dag)
        result = c.serve_trace([request(i) for i in range(4)])
        assert result.records[0].queuing_s == pytest.approx(0.0)
        assert result.records[-1].queuing_s > 0.0

    def test_predictions_match_single_datapath(self, cluster, tiny_dag):
        """The cluster serves through the *real* datapath: the noiseless
        prediction equals a standalone execution's."""
        req = request(3)
        reference = LightningDatapath(
            core=BehavioralCore(noise=NoiselessModel())
        )
        reference.register_model(tiny_dag)
        expected = reference.execute(1, req.data_levels).prediction
        result = cluster.serve_trace([req])
        assert result.records[0].prediction == expected

    def test_stats_shared_shape_with_server(self, cluster):
        cluster.serve_trace([request(i) for i in range(5)])
        summary = cluster.stats.summary()
        assert summary["served"] == 5
        assert summary["p99_us"] >= summary["p50_us"]


class TestSchedulingAndParallelism:
    def test_more_cores_reduce_serve_time(self, tiny_dag):
        trace = [request(i) for i in range(12)]
        single = make_cluster(num_cores=1)
        single.deploy(tiny_dag)
        quad = make_cluster(num_cores=4)
        quad.deploy(tiny_dag)
        t1 = single.serve_trace(trace).serve_times().mean()
        t4 = quad.serve_trace(trace).serve_times().mean()
        assert t4 < t1

    def test_least_loaded_spreads_work(self, tiny_dag):
        c = make_cluster(
            num_cores=4, scheduler=LeastLoadedScheduler(4)
        )
        c.deploy(tiny_dag)
        result = c.serve_trace([request(i) for i in range(8)])
        assert {r.core for r in result.records} == {0, 1, 2, 3}

    def test_weighted_fair_prefers_heavy_model(self, tiny_dag):
        """Under a saturated single core, the weight-3 model finishes
        ~3x the requests of the weight-1 model early in the run."""
        c = make_cluster(
            num_cores=1,
            scheduler=WeightedFairScheduler(
                1, weights={1: 3.0, 2: 1.0}
            ),
            queue_capacity=100,
        )
        c.deploy(tiny_dag)
        # Same layers under a second model ID: identical service time,
        # so the 3:1 core-time share shows up as a 3:1 request count.
        c.deploy(
            ComputationDAG(
                model_id=2, name="tiny-b", tasks=list(tiny_dag.tasks)
            )
        )
        trace = [request(i, model_id=1) for i in range(30)] + [
            request(100 + i, model_id=2) for i in range(30)
        ]
        result = c.serve_trace(trace)
        first_half = result.records[: len(result.records) // 2]
        heavy = sum(1 for r in first_half if r.request.model_id == 1)
        light = sum(1 for r in first_half if r.request.model_id == 2)
        assert heavy > 2 * light

    def test_utilization_bounded(self, cluster):
        result = cluster.serve_trace(
            [request(i, arrival=i * 1e-7) for i in range(10)]
        )
        assert 0.0 < result.utilization() <= 1.0


class TestOverloadAndBackpressure:
    def test_bounded_queues_drop_not_hang(self, tiny_dag):
        """All-at-once overload sheds load and still terminates."""
        c = make_cluster(num_cores=1, queue_capacity=4)
        c.deploy(tiny_dag)
        result = c.serve_trace([request(i) for i in range(50)])
        assert len(result.dropped) > 0
        assert result.served + len(result.dropped) == 50
        assert result.stats.dropped == len(result.dropped)
        counters = c.queue_counters()[1]
        assert counters["dropped"] == len(result.dropped)

    def test_drop_head_serves_freshest(self, tiny_dag):
        c = make_cluster(
            num_cores=1, queue_capacity=2, drop_policy="drop-head"
        )
        c.deploy(tiny_dag)
        result = c.serve_trace([request(i) for i in range(10)])
        served_ids = {r.request.request_id for r in result.records}
        # The last arrival always survives a drop-head queue.
        assert 9 in served_ids


class TestBatching:
    def test_coalescer_raises_saturated_throughput(self, tiny_dag):
        """At overload, batch coalescing onto a broadcast core beats the
        same cluster without batching (Appendix E's B dimension)."""
        trace = None
        results = {}
        for max_batch in (1, 8):
            c = make_cluster(
                num_cores=2, hardware_batch=8, max_batch=max_batch
            )
            c.deploy(tiny_dag)
            if trace is None:
                rate = rate_for_cluster_utilization(c, 1.0) * 2.0
                trace = poisson_trace(
                    [tiny_dag], rate, 300, seed=4
                )
            results[max_batch] = c.serve_trace(trace)
        assert (
            results[8].throughput_rps
            > 1.5 * results[1].throughput_rps
        )
        assert results[8].mean_batch_size > 1.5

    def test_batch_members_share_core_and_finish(self, tiny_dag):
        c = make_cluster(
            num_cores=1, hardware_batch=4, max_batch=4
        )
        c.deploy(tiny_dag)
        # Two arrive while the first is in flight -> coalesced pair.
        trace = [request(0), request(1, arrival=1e-9), request(2, arrival=2e-9)]
        result = c.serve_trace(trace)
        batched = [r for r in result.records if r.batch_size == 2]
        assert len(batched) == 2
        assert batched[0].finish_s == batched[1].finish_s
        assert batched[0].core == batched[1].core


class TestWorkloadBridge:
    def test_poisson_trace_targets_deployed_models(self, tiny_dag):
        trace = poisson_trace([tiny_dag, second_dag(2)], 1e6, 50, seed=1)
        assert len(trace) == 50
        assert {r.model_id for r in trace} == {1, 2}
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)
        sizes = {r.model_id: len(r.data_levels) for r in trace}
        assert sizes == {1: 12, 2: 12}

    def test_rate_sizing_hits_target_utilization(self, tiny_dag):
        c = make_cluster(num_cores=2, queue_capacity=1000)
        c.deploy(tiny_dag)
        rate = rate_for_cluster_utilization(c, 0.7)
        result = c.serve_trace(poisson_trace([tiny_dag], rate, 400, seed=2))
        assert result.utilization() == pytest.approx(0.7, abs=0.15)

    def test_rate_needs_deployment(self):
        with pytest.raises(ValueError, match="deploy"):
            rate_for_cluster_utilization(make_cluster(), 0.9)


class TestTracerIntegration:
    def test_runtime_events_flow_into_tracer(self, tiny_dag):
        tracer = DatapathTracer()
        c = make_cluster(
            num_cores=1, queue_capacity=2, tracer=tracer
        )
        c.deploy(tiny_dag)
        c.serve_trace([request(i) for i in range(10)])
        kinds = {e.kind for e in tracer.events}
        assert {"enqueue", "dispatch", "drop"} <= kinds
        times = [e.time_s for e in tracer.events]
        assert times == sorted(times)

    def test_sink_tracer_rejects_execute(self):
        with pytest.raises(RuntimeError, match="event sink"):
            DatapathTracer().execute(1, np.zeros(4))


class TestServeTimeout:
    def test_mis_sized_trace_terminates_with_partial_stats(self, cluster):
        # A trace far larger than the timeout can serve: the virtual
        # clock stops at the deadline and the leftovers are accounted
        # as unfinished instead of spinning the loop to completion.
        trace = [
            request(i, arrival=i * 1e-6, seed=4) for i in range(200)
        ]
        result = cluster.serve_trace(trace, timeout_s=20e-6)
        assert 0 < result.served < 200
        assert result.offered == 200
        assert (
            result.served
            + len(result.dropped)
            + len(result.failed)
            + len(result.unfinished)
            == 200
        )
        assert all(r.finish_s <= 20e-6 for r in result.records)
        assert result.stats.served == result.served

    def test_cluster_reusable_after_timeout(self, cluster):
        trace = [request(i, arrival=i * 1e-6, seed=4) for i in range(50)]
        cluster.serve_trace(trace, timeout_s=10e-6)
        full = cluster.serve_trace(trace)
        assert full.served == 50
