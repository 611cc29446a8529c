"""Model lifecycle: replicated placement, blue/green, undeploy."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ComputationDAG, LayerTask, LightningDatapath
from repro.fabric import (
    Fabric,
    FailoverRouter,
    ModelPlacement,
    ModelVersions,
    OutageBook,
    ShardSpec,
    kill_shard,
)
from repro.faults import FaultSchedule
from repro.photonics import BehavioralCore, CoreArchitecture, NoiselessModel
from repro.runtime import RuntimeRequest

from ..runtime.test_parallel import assert_no_worker_serves

_VERSION_SHIFT = 20
_INF = float("inf")


def make_dag(
    model_id: int, seed: int = 5, width: int = 12
) -> ComputationDAG:
    rng = np.random.default_rng(seed)
    half = width // 2
    return ComputationDAG(
        model_id,
        f"model-{model_id}-s{seed}",
        [
            LayerTask(
                name="fc1", kind="dense",
                input_size=width, output_size=half,
                weights_levels=rng.integers(
                    -200, 201, (half, width)
                ).astype(float),
                nonlinearity="relu", requant_divisor=float(width),
            ),
            LayerTask(
                name="fc2", kind="dense",
                input_size=half, output_size=3,
                weights_levels=rng.integers(
                    -200, 201, (3, half)
                ).astype(float),
                depends_on=("fc1",),
            ),
        ],
    )


def factory(wavelengths: int = 2):
    def build(core: int) -> LightningDatapath:
        return LightningDatapath(
            core=BehavioralCore(
                architecture=CoreArchitecture(
                    accumulation_wavelengths=wavelengths
                ),
                noise=NoiselessModel(),
            ),
            seed=core,
        )

    return build


def spec(num_cores: int = 1, **kwargs) -> ShardSpec:
    return ShardSpec(
        num_cores=num_cores, datapath_factory=factory(), **kwargs
    )


def trace(count=30, spacing_s=2e-6, models=(1,), seed=1, width=12):
    rng = np.random.default_rng(seed)
    return [
        RuntimeRequest(
            request_id=i,
            model_id=models[i % len(models)],
            arrival_s=i * spacing_s,
            data_levels=rng.integers(0, 256, size=width).astype(
                np.float64
            ),
        )
        for i in range(count)
    ]


class TestPlacement:
    def test_replicas_spread_by_load(self):
        fabric = Fabric(
            [spec() for _ in range(4)],
            placement=ModelPlacement(replicas=2),
        )
        assert fabric.deploy(make_dag(1)) == (0, 1)
        assert fabric.deploy(make_dag(2)) == (2, 3)
        # Third model: every shard carries one replica, ties break low.
        assert fabric.deploy(make_dag(3)) == (0, 1)
        loads = fabric.placement.loads()
        assert loads[0] == loads[1] > loads[2] == loads[3] > 0

    def test_deploy_lands_only_on_home_shards(self):
        fabric = Fabric(
            [spec() for _ in range(3)],
            placement=ModelPlacement(replicas=2),
        )
        homes = fabric.deploy(make_dag(1))
        for index, shard in enumerate(fabric.shards):
            if index in homes:
                assert 1 in shard.model_ids
            else:
                assert 1 not in shard.model_ids

    def test_heavier_models_weigh_more(self):
        fabric = Fabric(
            [spec()], placement=ModelPlacement(replicas=1)
        )
        placement = fabric.placement
        small = placement.plan_weight(make_dag(1, width=8), 0)
        large = placement.plan_weight(make_dag(2, width=24), 0)
        assert large > small > 0

    def test_heavy_model_repels_later_placements(self):
        fabric = Fabric(
            [spec(), spec()], placement=ModelPlacement(replicas=1)
        )
        assert fabric.deploy(make_dag(1, width=24)) == (0,)
        # Shard 0 now carries the heavy model; the light ones pile on
        # shard 1 until its accumulated load catches up.
        assert fabric.deploy(make_dag(2, width=8)) == (1,)
        assert fabric.deploy(make_dag(3, width=8)) == (1,)

    def test_replication_factor_validated(self):
        with pytest.raises(ValueError, match="at least 1"):
            ModelPlacement(replicas=0)
        with pytest.raises(ValueError, match="exceeds"):
            Fabric([spec()], placement=ModelPlacement(replicas=2))

    def test_double_place_rejected(self):
        fabric = Fabric(
            [spec(), spec()], placement=ModelPlacement(replicas=1)
        )
        fabric.deploy(make_dag(1))
        with pytest.raises(ValueError, match="already placed"):
            fabric.placement.place(make_dag(1))

    def test_unbound_placement_rejects_queries(self):
        with pytest.raises(ValueError, match="not bound"):
            ModelPlacement().place(make_dag(1))

    def test_heal_respects_redeploy_latency(self):
        fabric = Fabric(
            [spec() for _ in range(3)],
            placement=ModelPlacement(
                replicas=1, redeploy_latency_s=5e-6
            ),
        )
        placement = fabric.placement
        homes = fabric.deploy(make_dag(1))
        assert homes == (0,)
        placement.re_replicate(1, now_s=1e-5, usable=[1, 2])
        assert len(placement.heals) == 1
        heal = placement.heals[0]
        assert heal.shard == 1
        assert heal.active_from_s == pytest.approx(1.5e-5)
        # Before activation only the (dead) primary is in the homes
        # list; replicas_at hides the warming replica.
        assert placement.replicas_at(1, 1.2e-5) == (0,)
        assert placement.replicas_at(1, heal.active_from_s) == (0, 1)
        assert 1 in fabric.shards[1].model_ids

    def test_heal_is_idempotent_while_warming(self):
        fabric = Fabric(
            [spec() for _ in range(3)],
            placement=ModelPlacement(
                replicas=1, redeploy_latency_s=5e-6
            ),
        )
        fabric.deploy(make_dag(1))
        placement = fabric.placement
        placement.re_replicate(1, now_s=1e-5, usable=[1, 2])
        placement.re_replicate(1, now_s=1.1e-5, usable=[1, 2])
        assert len(placement.heals) == 1

    def test_heal_with_no_candidates_is_a_noop(self):
        fabric = Fabric(
            [spec(), spec()], placement=ModelPlacement(replicas=2)
        )
        fabric.deploy(make_dag(1))
        fabric.placement.re_replicate(1, now_s=0.0, usable=[0, 1])
        assert fabric.placement.heals == []


class TestVersionRegistry:
    def test_alias_packing_and_public_mapping(self):
        versions = ModelVersions()
        v1 = versions.register(make_dag(7), None)
        assert (v1.name, v1.alias, v1.ordinal) == ("v1", 7, 0)
        v2 = versions.register(make_dag(7, seed=9), "v2")
        assert v2.alias == 7 + (1 << _VERSION_SHIFT)
        assert versions.public(v2.alias) == (7, "v2")
        assert versions.public(7) == (7, "v1")

    def test_large_public_ids_cannot_be_versioned(self):
        versions = ModelVersions()
        big = 1 << _VERSION_SHIFT
        versions.register(make_dag(big), None)
        with pytest.raises(ValueError, match="below"):
            versions.register(make_dag(big, seed=9), "v2")

    def test_cutover_switches_alias_from_its_instant(self):
        versions = ModelVersions()
        versions.register(make_dag(1), None)
        v2 = versions.register(make_dag(1, seed=9), "v2")
        versions.cutover(1, "v2", at_s=1e-5)
        assert versions.alias_at(1, 0.9e-5) == 1
        assert versions.alias_at(1, 1e-5) == v2.alias
        assert versions.active_version(1, 0.0) == "v1"
        assert versions.active_version(1) == "v2"

    def test_rollback_restores_previous_activation(self):
        versions = ModelVersions()
        versions.register(make_dag(1), None)
        versions.register(make_dag(1, seed=9), "v2")
        versions.cutover(1, "v2")
        assert versions.rollback(1) == "v1"
        assert versions.alias_at(1, 1.0) == 1
        # v2 stays registered and can be cut over to again.
        versions.cutover(1, "v2")
        assert versions.active_version(1) == "v2"

    def test_activation_errors(self):
        versions = ModelVersions()
        versions.register(make_dag(1), None)
        with pytest.raises(KeyError, match="no version"):
            versions.cutover(1, "v2")
        with pytest.raises(ValueError, match="already active"):
            versions.cutover(1, "v1")
        with pytest.raises(ValueError, match="no cutover"):
            versions.rollback(1)
        versions.register(make_dag(1, seed=9), "v2")
        versions.cutover(1, "v2", at_s=2.0)
        with pytest.raises(ValueError, match="predates"):
            versions.cutover(1, "v1", at_s=1.0)
        with pytest.raises(KeyError, match="no registered"):
            versions.cutover(99, "v2")

    def test_duplicate_and_unversioned_redeploy_rejected(self):
        versions = ModelVersions()
        versions.register(make_dag(1), None)
        with pytest.raises(ValueError, match="already deployed"):
            versions.register(make_dag(1, seed=9), None)
        versions.register(make_dag(1, seed=9), "v2")
        with pytest.raises(ValueError, match="already has"):
            versions.register(make_dag(1, seed=11), "v2")

    def test_forget_version_refuses_the_active_one(self):
        versions = ModelVersions()
        versions.register(make_dag(1), None)
        versions.register(make_dag(1, seed=9), "v2")
        with pytest.raises(ValueError, match="active"):
            versions.forget_version(1, "v1")
        versions.cutover(1, "v2")
        with pytest.raises(ValueError, match="active"):
            versions.forget_version(1, "v2")
        forgotten = versions.forget_version(1, "v1")
        assert forgotten.alias == 1
        with pytest.raises(KeyError):
            versions.public(1)


def _assert_identical_records(result_a, result_b):
    records_a = result_a.records()
    records_b = result_b.records()
    assert len(records_a) == len(records_b) > 0
    for a, b in zip(records_a, records_b):
        assert a.request.request_id == b.request.request_id
        assert a.prediction == b.prediction
        assert a.core == b.core
        assert a.finish_s == b.finish_s
        assert a.queuing_s == b.queuing_s


class TestBlueGreen:
    def build(self, execution: str = "serial") -> Fabric:
        return Fabric(
            [
                spec(2, execution=execution),
                spec(2, execution=execution),
            ],
            placement=ModelPlacement(replicas=2),
        )

    def test_cutover_changes_predictions_mid_trace(self):
        baseline = self.build()
        baseline.deploy(make_dag(1, seed=5))
        reference = baseline.serve_trace(trace(count=24))

        fabric = self.build()
        fabric.deploy(make_dag(1, seed=5))
        fabric.deploy(make_dag(1, seed=99), version="v2")
        cut_at = 12 * 2e-6
        fabric.cutover(1, "v2", at_s=cut_at)
        result = fabric.serve_trace(trace(count=24))

        by_id = {
            r.request.request_id: r for r in reference.records()
        }
        flipped = 0
        for record in result.records():
            twin = by_id[record.request.request_id]
            if record.request.arrival_s < cut_at:
                assert record.prediction == twin.prediction
            elif record.prediction != twin.prediction:
                flipped += 1
        assert flipped > 0, "v2 weights never changed a prediction"

    @pytest.mark.parametrize("execution", ["serial", "parallel"])
    def test_rollback_bit_identical_to_fresh_v1(self, execution):
        """The acceptance gate: stage v2, cut over, roll back — the
        serve must match a fabric that never saw v2, bit for bit, in
        both execution modes."""
        requests = trace(count=24)
        fresh = self.build(execution)
        cycled = self.build(execution)
        try:
            fresh.deploy(make_dag(1, seed=5))
            reference = fresh.serve_trace(requests)

            cycled.deploy(make_dag(1, seed=5))
            cycled.deploy(make_dag(1, seed=99), version="v2")
            cycled.cutover(1, "v2")
            assert cycled.active_version(1) == "v2"
            assert cycled.rollback(1) == "v1"
            result = cycled.serve_trace(requests)
            _assert_identical_records(reference, result)
        finally:
            for fabric in (fresh, cycled):
                for shard in fabric.shards:
                    shard.close()

    def test_staged_version_is_invisible_until_cutover(self):
        baseline = self.build()
        baseline.deploy(make_dag(1, seed=5))
        reference = baseline.serve_trace(trace(count=24))

        fabric = self.build()
        fabric.deploy(make_dag(1, seed=5))
        fabric.deploy(make_dag(1, seed=99), version="v2")
        result = fabric.serve_trace(trace(count=24))
        _assert_identical_records(reference, result)


class TestUndeploy:
    def test_undeploy_removes_model_everywhere(self):
        fabric = Fabric([spec(), spec()])
        fabric.deploy(make_dag(1))
        fabric.deploy(make_dag(2))
        fabric.undeploy(1)
        for shard in fabric.shards:
            assert 1 not in shard.model_ids
            assert 2 in shard.model_ids
        result = fabric.serve_trace(trace(count=8, models=(2,)))
        assert result.served == 8

    def test_undeploy_frees_the_placement_slot(self):
        fabric = Fabric(
            [spec(), spec()], placement=ModelPlacement(replicas=1)
        )
        fabric.deploy(make_dag(1))
        fabric.undeploy(1)
        assert not fabric.placement.is_placed(1)
        assert fabric.deploy(make_dag(1)) == (0,)

    def test_undeploy_one_staged_version(self):
        fabric = Fabric([spec()])
        fabric.deploy(make_dag(1, seed=5))
        fabric.deploy(make_dag(1, seed=99), version="v2")
        alias = 1 + (1 << _VERSION_SHIFT)
        assert alias in fabric.shards[0].model_ids
        fabric.undeploy(1, version="v2")
        assert alias not in fabric.shards[0].model_ids
        assert 1 in fabric.shards[0].model_ids
        assert fabric.serve_trace(trace(count=8)).served == 8

    def test_unknown_model_rejected(self):
        fabric = Fabric([spec()])
        with pytest.raises(KeyError, match="no registered"):
            fabric.undeploy(42)

    def test_parallel_undeploy_leaves_the_model_in_no_worker(self):
        fabric = Fabric([spec(2, execution="parallel")])
        shard = fabric.shards[0]
        try:
            fabric.deploy(make_dag(1))
            fabric.deploy(make_dag(2))
            fabric.undeploy(1)
            assert_no_worker_serves(shard._pool, 1, input_size=12)
            result = fabric.serve_trace(
                trace(count=8, models=(2,))
            )
            assert result.served == 8
        finally:
            shard.close()


class TestOutageBook:
    def test_crash_is_permanent_and_stall_is_windowed(self):
        fabric = Fabric([spec(2), spec(2)])
        schedule = FaultSchedule(seed=0)
        schedule.core_crash(1e-5, core=0)
        schedule.core_stall(2e-5, core=3, duration_s=1e-5)
        book = OutageBook.from_schedule(fabric, schedule)
        assert book.usable_cores(0, 0.0) == 2
        assert book.usable_cores(0, 1e-5) == 1
        assert book.usable_cores(0, 1.0) == 1
        assert book.usable_cores(1, 2.5e-5) == 1
        assert book.usable_cores(1, 3.1e-5) == 2

    def test_no_schedule_means_all_usable(self):
        fabric = Fabric([spec(3)])
        book = OutageBook.from_schedule(fabric, None)
        assert book.usable_cores(0, 1.0) == 3

    def test_kill_shard_nulls_every_core(self):
        fabric = Fabric([spec(2), spec(3)])
        schedule = kill_shard(
            FaultSchedule(seed=0), fabric, shard=1, at_s=1e-5
        )
        book = OutageBook.from_schedule(fabric, schedule)
        assert book.usable_cores(1, 1e-5) == 0
        assert book.usable_cores(0, 1e-5) == 2
        # Global core namespace: shard 1's cores are 2, 3, 4.
        assert sorted(e.core for e in schedule.events) == [2, 3, 4]

    def test_kill_shard_validates_range(self):
        fabric = Fabric([spec(2)])
        with pytest.raises(ValueError, match="out of range"):
            kill_shard(FaultSchedule(seed=0), fabric, 1, 0.0)


def scan_usable(fabric, schedule, shard, now_s):
    """The oracle: count, window by window, the cores of ``shard`` that
    a crash (``[t, inf)``) or a stall (``[t, t + d)``) holds at
    ``now_s``; overlapping windows on one core take it down once."""
    down = set()
    for event in schedule.events:
        if event.kind not in ("core_crash", "core_stall"):
            continue
        owner, local = fabric.shard_of_core(event.core)
        end = (
            _INF if event.kind == "core_crash"
            else event.time_s + event.duration_s
        )
        if owner == shard and event.time_s <= now_s < end:
            down.add(local)
    return fabric.shards[shard].num_cores - len(down)


@lru_cache(maxsize=None)
def fabric_of(cores: tuple[int, ...]) -> Fabric:
    return Fabric([spec(n) for n in cores])


#: Times on a coarse grid, so windows share edges and overlap often.
_TIMES = st.integers(0, 16).map(lambda k: k * 0.25e-6) | st.floats(
    0.0, 5e-6, allow_nan=False
)


@st.composite
def outage_scenarios(draw):
    cores = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    schedule = FaultSchedule(seed=0)
    # A drift on top: a core fault that nulls nothing.
    schedule.laser_drift(at_s=1e-6, core=0, fraction_per_s=1.0)
    for _ in range(draw(st.integers(0, 8))):
        core = draw(st.integers(0, sum(cores) - 1))
        at_s = draw(_TIMES)
        if draw(st.booleans()):
            schedule.core_crash(at_s, core=core)
        else:
            schedule.core_stall(
                at_s, core=core, duration_s=draw(_TIMES.filter(bool))
            )
    return cores, schedule


class TestOutageSteps:
    """``usable_cores`` is a step function built once; it answers as
    the per-window scan would, edges and ``inf`` included."""

    @settings(max_examples=150, derandomize=True, deadline=None,
              database=None)
    @given(outage_scenarios(), st.data())
    def test_step_function_equals_the_window_scan(self, scenario, data):
        cores, schedule = scenario
        fabric = fabric_of(cores)
        book = OutageBook.from_schedule(fabric, schedule)
        edges = {
            t
            for e in schedule.events
            for t in (e.time_s, e.end_s)
        }
        times = [0.0, _INF] + [
            np.nextafter(t, toward)
            for t in edges
            for toward in (-_INF, _INF)
        ] + sorted(edges)
        times += data.draw(st.lists(_TIMES, max_size=10))
        for now_s in data.draw(st.permutations(times)):
            for shard in range(len(cores)):
                assert book.usable_cores(shard, now_s) == scan_usable(
                    fabric, schedule, shard, now_s
                ), (shard, now_s)

    def test_a_crash_window_does_not_hold_at_inf(self):
        fabric = fabric_of((2,))
        schedule = FaultSchedule(seed=0).core_crash(0.0, core=0)
        book = OutageBook.from_schedule(fabric, schedule)
        assert book.usable_cores(0, 0.0) == 1
        assert book.usable_cores(0, 1e300) == 1
        assert book.usable_cores(0, _INF) == 2


class TestFailoverRouterDefaults:
    def test_fabric_binds_placement_into_failover_router(self):
        placement = ModelPlacement(replicas=1)
        router = FailoverRouter()
        fabric = Fabric([spec()], router=router, placement=placement)
        assert router.placement is placement
        assert fabric.router is router

    def test_explicit_router_placement_wins(self):
        other = ModelPlacement(replicas=1)
        router = FailoverRouter(placement=other)
        Fabric([spec()], router=router, placement=None)
        assert router.placement is other
