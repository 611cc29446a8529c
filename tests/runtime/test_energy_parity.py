"""Sim ↔ runtime energy parity and the cluster's energy ledger.

Satellite contract for the energy spine: the §9 analytic simulator and
the real emulated-photonics :class:`~repro.runtime.cluster.Cluster`
must charge **bit-identical** per-request joules for the same trace,
seed, and accelerator, because both now price the t_q/t_d/t_c
decomposition through the one shared
:class:`~repro.core.energy.EnergyModel`.

One wrinkle makes the construction explicit: the cluster derives t_q
as a floating-point *remainder* (``finish - arrival - t_d - t_c``), so
an uncontended serve reports t_q values of order ±1e-16 s where the
simulator's ``max()``-based recurrence reports exactly 0.0.  The
bit-identity leg therefore prices the cluster with
``dram_power_watts=0.0`` and checks the simulator's t_q is exactly 0.0
(queue joules contribute exactly nothing on either side); queue-energy
parity is pinned separately: a queued serve in each host prices every
row's nonzero t_q exactly as the shared formula does.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from repro.core import ComputationDAG, LayerTask, LightningDatapath
from repro.core.energy import EnergyModel
from repro.dnn import SIMULATION_MODELS
from repro.photonics import BehavioralCore, CoreArchitecture, NoiselessModel
from repro.runtime import Cluster, RuntimeRequest, RoundRobinScheduler
from repro.sim import AcceleratorSpec, EventDrivenSimulator, lightning_chip
from repro.sim.workload import SimRequest

NUM_CORES = 2


@dataclass(frozen=True)
class ProbedSpec(AcceleratorSpec):
    """An accelerator whose timings are the cluster's own probed
    per-model costs, making the simulator replay the runtime's
    t_d/t_c exactly."""

    datapath_by_model: dict[str, float] = field(default_factory=dict)
    compute_by_model: dict[str, float] = field(default_factory=dict)

    def datapath_seconds(self, model) -> float:
        return self.datapath_by_model[model.name]

    def compute_seconds(self, model) -> float:
        return self.compute_by_model[model.name]


def tiny_dag(model_id: int = 1) -> ComputationDAG:
    rng = np.random.default_rng(11)
    return ComputationDAG(
        model_id,
        "tiny",
        [
            LayerTask(
                name="fc",
                kind="dense",
                input_size=12,
                output_size=4,
                weights_levels=rng.integers(-150, 151, (4, 12)).astype(
                    float
                ),
            )
        ],
    )


def make_cluster(**kwargs) -> Cluster:
    """Every core uses the same datapath seed so per-model timing is
    core-invariant, matching the simulator's one-cost-per-model
    memoization."""
    arch = CoreArchitecture(accumulation_wavelengths=2, batch_size=1)
    return Cluster(
        num_cores=NUM_CORES,
        datapath_factory=lambda core: LightningDatapath(
            core=BehavioralCore(architecture=arch, noise=NoiselessModel()),
            seed=0,
        ),
        **kwargs,
    )


def runtime_trace(count: int = 12, spacing_s: float = 1e-6):
    rng = np.random.default_rng(1)
    return [
        RuntimeRequest(
            request_id=i,
            model_id=1,
            arrival_s=i * spacing_s,
            data_levels=rng.integers(0, 256, size=12).astype(np.float64),
        )
        for i in range(count)
    ]


class TestSimRuntimeParity:
    def test_bit_identical_joules_for_same_trace(self):
        """The pinning test: same trace, same seed, same accelerator →
        the simulator and the cluster charge bit-identical per-request
        joules (no tolerances).

        The emulated datapath draws its per-request timing from the
        core's seeded RNG, so a probe serve first learns each
        request's real (t_d, t_c); the simulator then replays those
        costs through one ModelSpec clone per request (its costs are
        memoized per model object)."""
        trace = runtime_trace()

        # Probe the cluster's real per-request timing with a first
        # serve — a fresh, identically-seeded cluster reproduces the
        # exact same draws.
        probe = make_cluster(energy_model=None)
        probe.deploy(tiny_dag())
        timing = {
            r.request.request_id: (r.datapath_s, r.compute_s)
            for r in probe.serve_trace(trace).records
        }
        base_model = SIMULATION_MODELS()[0]
        clones = {
            i: replace(base_model, name=f"probed-{i}")
            for i in timing
        }
        spec = ProbedSpec(
            name="probed-lightning",
            mac_units=1,
            clock_hz=1.0,
            power_watts=91.319,
            datapath_kind="per_layer",
            datapath_by_model={
                f"probed-{i}": d for i, (d, _) in timing.items()
            },
            compute_by_model={
                f"probed-{i}": c for i, (_, c) in timing.items()
            },
        )
        energy_model = EnergyModel.from_accelerator(
            spec, dram_power_watts=0.0
        )

        cluster = make_cluster(energy_model=energy_model)
        cluster.deploy(tiny_dag())
        runtime_result = cluster.serve_trace(trace)
        assert runtime_result.served == len(trace)

        sim_trace = [
            SimRequest(
                request_id=r.request_id,
                model=clones[r.request_id],
                arrival_s=r.arrival_s,
            )
            for r in trace
        ]
        sim_result = EventDrivenSimulator(
            spec, scheduler=RoundRobinScheduler(num_cores=NUM_CORES)
        ).run(sim_trace)

        # The sim prices t_q at the default DRAM power: its t_q is
        # exactly 0.0 here, so that term adds exactly nothing.
        assert (sim_result.outcomes.t_q == 0.0).all()
        # The sim's request column holds ids, the runtime's requests.
        sim_table, runtime_table = sim_result.outcomes, runtime_result.outcomes
        sim_joules = dict(
            zip(sim_table.request.tolist(), sim_table.joules.tolist())
        )
        runtime_joules = {
            request.request_id: joules
            for request, joules in zip(
                runtime_table.request.tolist(), runtime_table.joules.tolist()
            )
        }
        assert sim_joules == runtime_joules  # bitwise, not approx

        # The ledger charged exactly those joules, in completion order.
        total = 0.0
        for record in runtime_result.records:
            total += energy_model.energy(
                datapath_s=record.datapath_s,
                queuing_s=record.queuing_s,
                compute_s=record.compute_s,
            )
        assert runtime_result.stats.energy.total_joules == total
        assert runtime_result.stats.energy.count == len(trace)

    def test_queue_energy_parity_on_shared_decomposition(self):
        """Queue joules: a queued serve in each host prices every row
        — nonzero t_q at nonzero DRAM power, which the bit-identity leg
        above zeroes out — exactly as the shared formula prices that
        row's own decomposition."""
        spec = lightning_chip()
        model = SIMULATION_MODELS()[0]
        sim_table = EventDrivenSimulator(spec).run(
            [SimRequest(i, model, 0.0) for i in range(16)]
        ).outcomes
        cluster = make_cluster(energy_model=EnergyModel.lightning())
        cluster.deploy(tiny_dag())
        cluster_table = cluster.serve_trace(
            runtime_trace(spacing_s=0.0)
        ).outcomes
        for table, energy_model in (
            (sim_table, EnergyModel.from_accelerator(spec)),
            (cluster_table, EnergyModel.lightning()),
        ):
            assert energy_model.dram_power_watts > 0
            assert (table.t_q > 0).any()
            for t_d, t_q, t_c, joules in zip(
                table.t_d.tolist(), table.t_q.tolist(),
                table.t_c.tolist(), table.joules.tolist(),
            ):
                assert joules == energy_model.energy(
                    datapath_s=t_d, queuing_s=t_q, compute_s=t_c
                )


class TestClusterLedger:
    def test_energy_disabled_with_none(self):
        cluster = make_cluster(energy_model=None)
        cluster.deploy(tiny_dag())
        result = cluster.serve_trace(runtime_trace())
        assert result.stats.energy.count == 0
        assert "energy_count" not in result.stats.summary()

    def test_unknown_string_model_rejected(self):
        with pytest.raises(ValueError, match="energy model"):
            make_cluster(energy_model="coal")

    def test_default_lightning_ledger_populated(self):
        cluster = make_cluster()
        cluster.deploy(tiny_dag())
        trace = runtime_trace()
        result = cluster.serve_trace(trace)
        ledger = result.stats.energy
        assert ledger.count == result.served == len(trace)
        assert ledger.total_joules > 0
        assert ledger.per_model_count == {1: len(trace)}
        # Reconstruct the charge from the records: same model, same
        # decomposition, same formula → identical bits.
        em = EnergyModel.lightning()
        expected = 0.0
        for record in result.records:
            expected += em.energy(
                datapath_s=record.datapath_s,
                queuing_s=record.queuing_s,
                compute_s=record.compute_s,
            )
        assert ledger.total_joules == expected

    def test_offered_and_accounting_populated(self):
        cluster = make_cluster()
        cluster.deploy(tiny_dag())
        trace = runtime_trace()
        result = cluster.serve_trace(trace)
        stats = cluster.stats
        assert stats.offered == len(trace)
        assert stats.unfinished == 0
        stats.accounted()  # raises on violation
        assert result.offered == len(trace)


class TestSerialParallelEnergy:
    def test_ledger_bit_identical_across_modes(self):
        """Energy is charged parent-side from the dispatch-time timing
        plan, so process-parallel serving reports the exact same
        ledger as serial."""
        trace = runtime_trace(count=24, spacing_s=5e-7)
        results = {}
        serial = make_cluster(execution="serial", max_batch=2)
        serial.deploy(tiny_dag())
        results["serial"] = serial.serve_trace(trace)
        with make_cluster(execution="parallel", max_batch=2) as parallel:
            parallel.deploy(tiny_dag())
            results["parallel"] = parallel.serve_trace(trace)
        serial = results["serial"].stats.energy
        parallel = results["parallel"].stats.energy
        assert serial.total_joules == parallel.total_joules
        assert serial.per_model_joules == parallel.per_model_joules
        assert serial.percentiles([50, 99, 99.9]) == (
            parallel.percentiles([50, 99, 99.9])
        )
        assert (
            results["serial"].stats.summary()
            == results["parallel"].stats.summary()
        )
