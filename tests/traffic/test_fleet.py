"""Fleet-engine tests: rows, accounting, stealing, memory, and overload.

``TestRows`` draws small fleets and checks every landing block's rows
against the result's counts; derandomized, so tier-1 is deterministic.
``TestBlockLanding`` holds the engine to landing completions in blocks,
within a call budget: a silent fall-back to landing served requests one
at a time is a ~1.8x fleet-engine slowdown with bit-identical results,
so no ratio gate and no digest sees it.
"""

from __future__ import annotations

import hashlib
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import (
    EnergyLedger,
    LatencyReservoir,
    Outcome,
    OutcomeFlag,
    OutcomeReason,
    Outcomes,
    ServerStats,
)
from repro.dnn import SIMULATION_MODELS
from repro.sim.simulator import StreamedSummary
from repro.sim import lightning_chip
from repro.traffic import fleet as fleet_module
from repro.traffic import (
    AcceptAll,
    AdmissionController,
    FleetSpec,
    ModelMix,
    OpenLoopTraffic,
    PoissonProcess,
    MMPPProcess,
    ParetoProcess,
    QueueBackpressure,
    fleet_capacity_rps,
    serve_open_loop,
)

from ..core.test_stats import PerValueReservoir, ledger_state
from ..sim.test_simulator import summary_state


@pytest.fixture(scope="module")
def mix() -> ModelMix:
    return ModelMix.zipf(SIMULATION_MODELS(), exponent=1.2)


@pytest.fixture(scope="module")
def spec() -> FleetSpec:
    return FleetSpec(lightning_chip(), num_shards=4, cores_per_shard=2)


def traffic(mix, rate, seed=3, stream=0):
    return OpenLoopTraffic(
        PoissonProcess(rate), mix, seed=seed, stream=stream
    )


class TestAccounting:
    @pytest.mark.parametrize("load", [0.5, 1.0, 2.5])
    def test_invariant_holds_at_every_load(self, mix, spec, load):
        cap = fleet_capacity_rps(spec, mix)
        result = serve_open_loop(
            traffic(mix, load * cap),
            20_000,
            spec,
            admission=AdmissionController(QueueBackpressure(), seed=3),
        )
        result.check_invariant()  # raises on violation
        assert result.offered == 20_000
        assert result.unfinished == 0

    def test_drop_tail_charged_as_dropped(self, mix, spec):
        cap = fleet_capacity_rps(spec, mix)
        result = serve_open_loop(traffic(mix, 3.0 * cap), 20_000, spec)
        assert result.policy == "AcceptAll"
        assert result.shed == 0
        assert result.dropped > 0
        result.check_invariant()

    def test_sheds_charged_to_invariant(self, mix, spec):
        cap = fleet_capacity_rps(spec, mix)
        result = serve_open_loop(
            traffic(mix, 3.0 * cap),
            20_000,
            spec,
            admission=AdmissionController(QueueBackpressure(), seed=3),
        )
        assert result.shed > 0
        assert result.served + result.shed + result.dropped == 20_000

    def test_bad_accounting_raises(self, mix, spec):
        cap = fleet_capacity_rps(spec, mix)
        good = serve_open_loop(traffic(mix, cap), 1_000, spec)
        good.stats.dropped += 1
        with pytest.raises(ValueError, match="accounting"):
            good.check_invariant()



FLEET_FUZZ = settings(
    max_examples=100, derandomize=True, deadline=None, database=None
)


@st.composite
def fleets(draw) -> dict:
    return {
        "shards": draw(st.integers(1, 3)),
        "cores": draw(st.integers(1, 2)),
        "queue": draw(st.integers(1, 8)),
        "steal": draw(st.booleans()),
        "policy": draw(st.sampled_from((AcceptAll, QueueBackpressure))),
        "load": draw(st.floats(0.3, 3.0)),
        "total": draw(st.integers(1, 2_000)),
        # A small block and chunk make a serve span several of each.
        "block": draw(st.sampled_from((97, fleet_module._LANDING_BLOCK))),
        "chunk": draw(st.sampled_from((250, 65_536))),
        "seed": draw(st.integers(0, 99)),
    }


def serve_capturing_rows(mix, case):
    """Serve ``case``; return the result, its admission controller, its
    traffic and every landing block's rows as one table."""
    spec = FleetSpec(
        lightning_chip(), num_shards=case["shards"],
        cores_per_shard=case["cores"], queue_capacity=case["queue"],
        steal=case["steal"],
    )
    stream = traffic(
        mix, case["load"] * fleet_capacity_rps(spec, mix), seed=case["seed"]
    )
    admission = AdmissionController(case["policy"](), seed=case["seed"])
    blocks = []
    add_counts = ServerStats.add_counts

    def capture(self, outcomes):
        blocks.append(outcomes)
        add_counts(self, outcomes)

    with patch.object(ServerStats, "add_counts", capture), patch.object(
        fleet_module, "_LANDING_BLOCK", case["block"]
    ):
        result = serve_open_loop(
            stream, case["total"], spec, admission=admission,
            chunk_size=case["chunk"],
        )
    return result, admission, stream, Outcomes.concat(blocks)


class TestRows:
    @FLEET_FUZZ
    @given(fleets())
    def test_every_arrival_is_one_row(self, mix, case):
        result, admission, stream, rows = serve_capturing_rows(mix, case)
        total = case["total"]
        # The request column is the arrival's ordinal: a join key back
        # into the offered stream.
        order = np.argsort(rows.request)
        assert rows.request[order].tolist() == list(range(total))
        offered = list(stream.chunks(total, case["chunk"]))
        assert rows.arrival[order].tolist() == np.concatenate(
            [c.times for c in offered]
        ).tolist()
        assert rows.model[order].tolist() == np.concatenate(
            [c.models for c in offered]
        ).tolist()

        fates = np.bincount(rows.fate, minlength=len(Outcome)).tolist()
        assert fates == [
            result.served, result.dropped, 0, result.unfinished,
            result.shed, 0,
        ]
        assert result.offered == len(rows) == total
        shed = rows.fate == Outcome.SHED
        assert np.count_nonzero(shed) == admission.shed
        assert set(rows.reason[shed].tolist()) <= {OutcomeReason.ADMISSION}
        dropped = rows.fate == Outcome.DROPPED
        assert set(rows.reason[dropped].tolist()) <= {
            OutcomeReason.QUEUE_OVERFLOW
        }
        stolen = (rows.flags & OutcomeFlag.STOLEN) != 0
        assert not np.any(stolen & (rows.fate != Outcome.SERVED))
        assert np.count_nonzero(stolen) == result.stolen
        if not case["steal"] or case["shards"] == 1:
            assert result.stolen == 0

        served = rows.served()
        assert np.count_nonzero(
            served.finish - served.arrival <= result.slo_s
        ) == result.slo_served
        assert np.all(served.t_q >= 0)
        assert np.all((0 <= served.shard) & (served.shard < case["shards"]))
        assert result.summary.count == result.energy.count == result.served


def fleet_state(result) -> tuple:
    """A fleet result's fates, summary and energy ledger, bit for bit."""
    return (
        result.policy,
        (result.offered, result.served, result.shed, result.dropped,
         result.stolen, result.unfinished, result.slo_served),
        result.slo_s.hex(),
        result.horizon_s.hex(),
        summary_state(result.summary),
        ledger_state(result.energy),
    )


def state_digest(state: tuple) -> str:
    return hashlib.sha256(repr(state).encode()).hexdigest()[:16]


#: ``state_digest(fleet_state(...))`` of ``TestBlockLanding._serve``,
#: recorded at the commit before completions landed in blocks
#: (per-request ``observe`` + ``charge``, one scalar slot draw per
#: value, ``min``/``max`` placement lambdas).
PARENT_FLEET_DIGESTS = {
    ("AcceptAll", 0.8, True): "aa8f6ec337d634c7",
    ("AcceptAll", 2.0, True): "0707d43437a0d1b6",
    ("AcceptAll", 3.0, True): "9c1f44c2a3888094",
    ("QueueBackpressure", 0.8, True): "9128a93da1c5d42f",
    ("QueueBackpressure", 2.0, True): "c1a7fa63b0ae3715",
    ("QueueBackpressure", 3.0, True): "49ccba5b29810d79",
    ("AcceptAll", 0.8, False): "daaa53e702e8f37b",
    ("AcceptAll", 2.0, False): "6badbb796f21f69e",
    ("AcceptAll", 3.0, False): "ebe0e63f8b222adf",
    ("QueueBackpressure", 0.8, False): "a9144c9b3aee0dae",
    ("QueueBackpressure", 2.0, False): "8bd1ed4b82321169",
    ("QueueBackpressure", 3.0, False): "299efd7ef11e5ce9",
}


class TestBlockLanding:
    """Completions landed in blocks change nothing but the host time."""

    CASES = [
        (policy, load, steal)
        for steal in (True, False)
        for policy in (AcceptAll, QueueBackpressure)
        for load in (0.8, 2.0, 3.0)
    ]

    @staticmethod
    def _serve(mix, policy, load, steal):
        spec = FleetSpec(
            lightning_chip(), num_shards=4, cores_per_shard=2, steal=steal
        )
        rate = load * fleet_capacity_rps(spec, mix)
        return serve_open_loop(
            traffic(mix, rate, seed=7, stream=(1, 2)),
            12_000,
            spec,
            admission=AdmissionController(policy(), seed=7, stream=(1, 2)),
        )

    @pytest.mark.parametrize("policy,load,steal", CASES)
    def test_equals_per_request_landing(
        self, mix, monkeypatch, policy, load, steal
    ):
        """Against the same serve with every block landed one request at
        a time through the per-value reservoir, and against the digest
        the parent commit produced."""
        block = fleet_state(self._serve(mix, policy, load, steal))

        def observe_each(self, names, codes, d, q, c, finish):
            for row in zip(codes.tolist(), d.tolist(), q.tolist(),
                           c.tolist(), finish.tolist()):
                self.observe(names[row[0]], *row[1:])

        def charge_each(self, names, codes, joules):
            for code, value in zip(codes.tolist(), joules.tolist()):
                self.charge(names[code], value)

        monkeypatch.setattr(StreamedSummary, "observe_many", observe_each)
        monkeypatch.setattr(EnergyLedger, "charge_many", charge_each)
        monkeypatch.setattr(LatencyReservoir, "add", PerValueReservoir.add)
        assert fleet_state(self._serve(mix, policy, load, steal)) == block
        assert state_digest(block) == PARENT_FLEET_DIGESTS[
            policy.__name__, load, steal
        ]


    def test_landing_budget(self, mix, monkeypatch):
        """No served request is landed on its own (a fall-back to
        per-request landing halves the engine rate and fails nothing
        else), and no block outgrows the bound that keeps memory O(1)."""

        def per_request(*args, **kwargs):
            raise AssertionError("a served request landed on its own")

        blocks = []
        observe_many = StreamedSummary.observe_many

        def counting(self, names, codes, *columns):
            blocks.append(len(codes))
            observe_many(self, names, codes, *columns)

        monkeypatch.setattr(StreamedSummary, "observe_many", counting)
        monkeypatch.setattr(StreamedSummary, "observe", per_request)
        monkeypatch.setattr(EnergyLedger, "charge", per_request)
        monkeypatch.setattr(LatencyReservoir, "add", per_request)
        result = self._serve(mix, QueueBackpressure, 2.0, True)
        assert sum(blocks) == result.served == result.energy.count
        assert len(blocks) <= 12_000 // fleet_module._LANDING_BLOCK + 2
        assert max(blocks) <= (
            fleet_module._LANDING_BLOCK + result.spec.total_queue_capacity
        )


class TestWorkStealing:
    def test_stealing_occurs_and_helps(self, mix):
        """With stealing an idle shard drains a sibling's backlog; the
        same traffic without stealing leaves strictly more queueing."""
        with_steal = FleetSpec(
            lightning_chip(), num_shards=4, cores_per_shard=2,
            steal=True,
        )
        without = FleetSpec(
            lightning_chip(), num_shards=4, cores_per_shard=2,
            steal=False,
        )
        cap = fleet_capacity_rps(with_steal, mix)
        bursty = OpenLoopTraffic(
            MMPPProcess(0.9 * cap, on_fraction=0.2),
            mix,
            seed=5,
        )
        a = serve_open_loop(bursty, 30_000, with_steal)
        b = serve_open_loop(bursty, 30_000, without)
        assert a.stolen > 0
        assert b.stolen == 0
        assert a.slo_served >= b.slo_served

    def test_stolen_is_subset_of_served(self, mix, spec):
        cap = fleet_capacity_rps(spec, mix)
        result = serve_open_loop(traffic(mix, 1.5 * cap), 10_000, spec)
        assert 0 <= result.stolen <= result.served


class TestStreaming:
    def test_reservoir_stays_bounded(self, mix, spec):
        """O(1) memory: the summary holds a fixed-capacity reservoir
        plus exact counters, never per-request records."""
        cap = fleet_capacity_rps(spec, mix)
        result = serve_open_loop(traffic(mix, 0.8 * cap), 100_000, spec)
        reservoir = result.summary.reservoir
        assert reservoir.count == result.served
        assert len(reservoir) <= reservoir.capacity
        assert result.summary.count == result.served

    def test_p999_exact_beyond_reservoir(self, mix, spec):
        """The tail tracker keeps p999 exact even when the reservoir
        subsamples (100k serves >> 4096 reservoir slots)."""
        cap = fleet_capacity_rps(spec, mix)
        result = serve_open_loop(traffic(mix, 0.8 * cap), 100_000, spec)
        assert result.summary.reservoir._tail_coverage() >= 1000
        p99, p999 = result.percentiles([99, 99.9])
        assert p999 >= p99 > 0


class TestOverloadBehavior:
    @pytest.mark.parametrize(
        "make_process",
        [
            PoissonProcess,
            lambda r: MMPPProcess(r, on_fraction=0.2),
            lambda r: ParetoProcess(r, alpha=1.5),
        ],
        ids=["poisson", "bursty", "heavy_tailed"],
    )
    def test_backpressure_beats_accept_all_at_2x(
        self, mix, spec, make_process
    ):
        """The acceptance criterion: at 2x capacity offered load,
        shedding early wins on SLO goodput under every arrival shape."""
        cap = fleet_capacity_rps(spec, mix)
        results = {}
        for name, policy in (
            ("accept_all", AcceptAll()),
            ("backpressure", QueueBackpressure()),
        ):
            stream = OpenLoopTraffic(
                make_process(2.0 * cap), mix, seed=3, stream=7
            )
            results[name] = serve_open_loop(
                stream,
                40_000,
                spec,
                admission=AdmissionController(policy, seed=3, stream=7),
            )
        assert (
            results["backpressure"].goodput_rps
            > 1.5 * results["accept_all"].goodput_rps
        )

    def test_backpressure_bounds_tail_latency(self, mix, spec):
        cap = fleet_capacity_rps(spec, mix)
        stream = OpenLoopTraffic(
            PoissonProcess(2.0 * cap), mix, seed=3, stream=8
        )
        accept = serve_open_loop(stream, 30_000, spec)
        shed = serve_open_loop(
            stream,
            30_000,
            spec,
            admission=AdmissionController(
                QueueBackpressure(), seed=3, stream=8
            ),
        )
        assert shed.percentiles([99])[0] < accept.percentiles([99])[0]


class TestReproducibility:
    def test_bit_identical_reruns(self, mix, spec):
        cap = fleet_capacity_rps(spec, mix)

        def run():
            stream = OpenLoopTraffic(
                ParetoProcess(1.5 * cap), mix, seed=11, stream=(2, 4)
            )
            return serve_open_loop(
                stream,
                20_000,
                spec,
                admission=AdmissionController(
                    QueueBackpressure(), seed=11, stream=(2, 4)
                ),
            )

        a, b = run(), run()
        assert (a.served, a.shed, a.dropped, a.stolen) == (
            b.served, b.shed, b.dropped, b.stolen,
        )
        assert a.horizon_s == b.horizon_s
        assert a.percentiles([50, 99, 99.9]) == (
            b.percentiles([50, 99, 99.9])
        )


class TestSpecValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="shard"):
            FleetSpec(lightning_chip(), num_shards=0)
        with pytest.raises(ValueError, match="core"):
            FleetSpec(lightning_chip(), cores_per_shard=0)
        with pytest.raises(ValueError, match="queue"):
            FleetSpec(lightning_chip(), queue_capacity=0)

    def test_capacity_scales_with_cores(self, mix):
        small = FleetSpec(lightning_chip(), num_shards=2, cores_per_shard=1)
        big = FleetSpec(lightning_chip(), num_shards=4, cores_per_shard=2)
        assert fleet_capacity_rps(big, mix) == pytest.approx(
            4 * fleet_capacity_rps(small, mix)
        )
