"""Energy through the traffic layer: fleet ledger, energy-aware
shedding at the gateway, energy-graded SLOs, and the campaign's joint
energy–latency Pareto frontier."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ComputationDAG, LayerTask, LightningDatapath
from repro.core.energy import EnergyModel
from repro.dnn import SIMULATION_MODELS
from repro.fabric import Fabric, ShardSpec
from repro.photonics import BehavioralCore, CoreArchitecture, NoiselessModel
from repro.sim import a100_gpu, lightning_chip, p4_gpu
from repro.traffic import (
    AcceptAll,
    AdmissionController,
    Campaign,
    FleetSpec,
    ModelMix,
    OpenLoopTraffic,
    PoissonProcess,
    SLOBook,
    SLOClass,
    fleet_capacity_rps,
    serve_fabric_open_loop,
    serve_open_loop,
)


@pytest.fixture(scope="module")
def mix() -> ModelMix:
    return ModelMix.zipf(SIMULATION_MODELS(), exponent=1.2)


@pytest.fixture(scope="module")
def fleet_result(mix):
    spec = FleetSpec(lightning_chip(), num_shards=4, cores_per_shard=2)
    cap = fleet_capacity_rps(spec, mix)
    stream = OpenLoopTraffic(PoissonProcess(0.8 * cap), mix, seed=3)
    return serve_open_loop(stream, 20_000, spec)


class TestFleetEnergy:
    def test_every_serve_charged_once(self, fleet_result):
        assert fleet_result.energy.count == fleet_result.served
        assert fleet_result.total_energy_j > 0
        assert fleet_result.energy_per_inference_j == (
            fleet_result.energy.mean_joules
        )
        fleet_result.check_invariant()

    def test_energy_percentiles_ordered(self, fleet_result):
        p50, p99 = fleet_result.energy_percentiles([50, 99])
        assert 0 < p50 <= p99

    def test_ledger_keys_are_model_names(self, fleet_result, mix):
        names = {model.name for model in mix.models}
        assert set(fleet_result.energy.per_model_joules) <= names

    def test_lightning_beats_a100_per_inference(self, mix):
        """The paper's headline: same traffic, same shard shape, an
        order of magnitude less energy per inference on Lightning.

        Virtual clock, so the ratios are the same on every host and
        run: this reads 18.07x (A100) and 18.04x (P4), and the floor is
        0.8x the 17.99x the perf harness used to hold to a baseline.
        """
        per_inference = {}
        for spec_acc in (lightning_chip(), a100_gpu(), p4_gpu()):
            spec = FleetSpec(spec_acc, num_shards=4, cores_per_shard=2)
            cap = fleet_capacity_rps(spec, mix)
            stream = OpenLoopTraffic(
                PoissonProcess(0.8 * cap), mix, seed=3
            )
            result = serve_open_loop(stream, 10_000, spec)
            result.check_invariant()
            per_inference[spec_acc.name] = result.energy_per_inference_j
        for gpu in ("A100 GPU", "P4 GPU"):
            assert per_inference[gpu] >= 14.4 * per_inference["Lightning"]


def make_dag(model_id: int, seed: int = 5) -> ComputationDAG:
    rng = np.random.default_rng(seed)
    return ComputationDAG(
        model_id,
        f"model-{model_id}",
        [
            LayerTask(
                name="fc",
                kind="dense",
                input_size=12,
                output_size=4,
                weights_levels=rng.integers(-200, 201, (4, 12)).astype(
                    float
                ),
            )
        ],
    )


def build_fabric() -> Fabric:
    def factory(core: int) -> LightningDatapath:
        return LightningDatapath(
            core=BehavioralCore(
                architecture=CoreArchitecture(
                    accumulation_wavelengths=2
                ),
                noise=NoiselessModel(),
            ),
            seed=core,
        )

    fabric = Fabric(
        [
            ShardSpec(num_cores=2, datapath_factory=factory),
            ShardSpec(num_cores=2, datapath_factory=factory),
        ]
    )
    for model_id in (1, 2):
        fabric.deploy(make_dag(model_id))
    return fabric


def gateway_trace(count: int = 200):
    mix = ModelMix([make_dag(1), make_dag(2)])
    traffic = OpenLoopTraffic(PoissonProcess(2e5), mix, seed=17)
    return traffic.runtime_trace(count)


class TestGatewayEnergyShedding:
    def test_blown_budget_sheds_at_the_nic(self):
        """Model 1's budget is far below what any serve could cost, so
        every model-1 request sheds under the energy_budget reason;
        unbudgeted model 2 flows through untouched."""
        book = SLOBook()
        book.assign(
            1, SLOClass("thrifty", deadline_s=1.0, energy_budget_j=1e-9)
        )
        trace = gateway_trace()
        admission = AdmissionController(AcceptAll())
        result = serve_fabric_open_loop(
            build_fabric(),
            trace,
            admission,
            slo_book=book,
            energy_model=EnergyModel.lightning(),
        )
        model_1 = sum(1 for r in trace if r.model_id == 1)
        assert admission.shed_reasons.get("energy_budget") == model_1
        assert result.shed >= model_1
        assert result.accounted()
        assert all(
            r.request.model_id == 2 for r in result.records()
        )

    def test_budget_ignored_without_energy_model(self):
        book = SLOBook()
        book.assign(
            1, SLOClass("thrifty", deadline_s=1.0, energy_budget_j=1e-9)
        )
        admission = AdmissionController(AcceptAll())
        result = serve_fabric_open_loop(
            build_fabric(), gateway_trace(), admission, slo_book=book
        )
        assert "energy_budget" not in admission.shed_reasons
        assert result.accounted()

    def test_generous_budget_sheds_nothing(self):
        book = SLOBook()
        book.assign(
            1, SLOClass("lavish", deadline_s=1.0, energy_budget_j=10.0)
        )
        admission = AdmissionController(AcceptAll())
        result = serve_fabric_open_loop(
            build_fabric(),
            gateway_trace(),
            admission,
            slo_book=book,
            energy_model=EnergyModel.lightning(),
        )
        assert admission.shed_reasons == {}
        assert result.shed == 0
        assert result.accounted()


class TestEnergyGradedSLO:
    def run_graded(self, budget_j):
        book = SLOBook()
        book.assign(
            1,
            SLOClass("metered", deadline_s=1.0, energy_budget_j=budget_j),
        )
        book.assign(2, SLOClass("best-effort", deadline_s=1.0))
        result = serve_fabric_open_loop(
            build_fabric(),
            gateway_trace(),
            AdmissionController(AcceptAll()),
        )
        return book, result

    def test_grade_scores_energy_budgets(self):
        book, result = self.run_graded(budget_j=10.0)
        reports = book.grade(result, energy_model=EnergyModel.lightning())
        metered = reports["metered"]
        assert metered.served > 0
        assert metered.energy_met == metered.served
        assert metered.energy_attainment == 1.0
        # Unbudgeted classes grade as fully energy-compliant.
        assert reports["best-effort"].energy_attainment == 1.0

    def test_tiny_budget_fails_every_serve(self):
        book, result = self.run_graded(budget_j=1e-12)
        reports = book.grade(result, energy_model=EnergyModel.lightning())
        assert reports["metered"].energy_met == 0
        assert reports["metered"].energy_attainment == 0.0

    def test_ungraded_serve_reports_none(self):
        book, result = self.run_graded(budget_j=1.0)
        reports = book.grade(result)
        assert reports["metered"].energy_met is None
        assert reports["metered"].energy_attainment is None


@pytest.fixture(scope="module")
def pareto_report(mix):
    campaign = Campaign(
        mix=mix,
        accelerators=[lightning_chip(), a100_gpu(), p4_gpu()],
        loads=(0.8,),
        requests_per_point=4_000,
        seed=21,
    )
    return campaign.run()


class TestCampaignPareto:
    def test_points_carry_energy_axes(self, pareto_report):
        for p in pareto_report.points:
            assert p.energy_per_inference_j > 0
            assert p.total_energy_j > 0
            assert p.p99_energy_j > 0
            assert p.to_dict()["energy_per_inference_j"] == (
                p.energy_per_inference_j
            )

    def test_lightning_dominates_the_frontier(self, pareto_report):
        """Lightning wins both axes (lower J/inference, lower p99), so
        the GPUs are dominated at every load point."""
        frontier = pareto_report.pareto_frontier("poisson", 0.8)
        by_name = {row["accelerator"]: row for row in frontier}
        assert by_name["Lightning"]["on_frontier"]
        assert not by_name["A100 GPU"]["on_frontier"]
        assert not by_name["P4 GPU"]["on_frontier"]

    def test_energy_ratio_matches_paper_scale(self, pareto_report):
        ratio = pareto_report.energy_ratio(
            "Lightning", "A100 GPU", "poisson", 0.8
        )
        assert ratio > 5

    def test_energy_ratio_unknown_point_raises(self, pareto_report):
        with pytest.raises(KeyError):
            pareto_report.energy_ratio(
                "Lightning", "TPU", "poisson", 0.8
            )

    def test_render_pareto_marks_frontier(self, pareto_report):
        text = pareto_report.render_pareto()
        assert "Lightning" in text
        assert "*" in text
