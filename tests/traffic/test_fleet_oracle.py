"""The fleet engine against its own earlier arrival loop.

``fleet_reference.serve_open_loop`` is the loop before admission became
a per-depth table and completions were handled inline, and
``fleet_reference.ReferenceBackpressure`` the backpressure decision as
it stood then.  Every drawn fleet must come out the same through both:
fates, summary and energy ledger bit for bit, the controller's
counters, and the admission stream's generator left in the same state
(so the coin band drew exactly as often).
"""

from __future__ import annotations

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnn import SIMULATION_MODELS
from repro.sim import lightning_chip
from repro.traffic import (
    AcceptAll,
    AdmissionController,
    FleetSpec,
    ModelMix,
    OpenLoopTraffic,
    PoissonProcess,
    QueueBackpressure,
    fleet_capacity_rps,
    serve_open_loop,
)
from repro.traffic import fleet as fleet_module

from . import fleet_reference
from .test_fleet import fleet_state

ORACLE_FUZZ = settings(
    max_examples=60, derandomize=True, deadline=None, database=None
)


@pytest.fixture(scope="module")
def mix() -> ModelMix:
    return ModelMix.zipf(SIMULATION_MODELS(), exponent=1.2)


@st.composite
def watermarks(draw, capacity: int) -> tuple[float, float]:
    """``low < high`` in [0, 1], often exactly on a queue depth."""
    on_depth = st.integers(0, capacity).map(lambda d: d / capacity)
    mark = st.one_of(st.floats(0.0, 1.0), on_depth)
    a, b = draw(mark), draw(mark)
    if a == b:
        a, b = 0.0, max(a, 1.0 / capacity)
    return min(a, b), max(a, b)


@st.composite
def cases(draw) -> dict:
    shards, queue = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    if draw(st.booleans()):
        policy = AcceptAll, ()
    else:
        policy = QueueBackpressure, draw(watermarks(shards * queue))
    return {
        "shards": shards,
        "cores": draw(st.integers(1, 3)),
        "queue": queue,
        "steal": draw(st.booleans()),
        "policy": policy,
        "load": draw(st.floats(0.3, 3.0)),
        "total": draw(st.integers(1, 1_500)),
        "block": draw(st.sampled_from((97, fleet_module._LANDING_BLOCK))),
        "chunk": draw(st.sampled_from((250, 65_536))),
        "seed": draw(st.integers(0, 99)),
    }


def serve_both(mix, case) -> list[tuple]:
    """``case`` through the engine and through the reference: each
    side's fleet state, controller counters and generator state."""
    spec = FleetSpec(
        lightning_chip(), num_shards=case["shards"],
        cores_per_shard=case["cores"], queue_capacity=case["queue"],
        steal=case["steal"],
    )
    rate = case["load"] * fleet_capacity_rps(spec, mix)
    policy, marks = case["policy"]
    reference_policy = (
        fleet_reference.ReferenceBackpressure
        if policy is QueueBackpressure else policy
    )
    sides = []
    for serve, make in (
        (serve_open_loop, policy),
        (fleet_reference.serve_open_loop, reference_policy),
    ):
        admission = AdmissionController(make(*marks), seed=case["seed"])
        with patch.object(
            fleet_module, "_LANDING_BLOCK", case["block"]
        ), patch.object(fleet_reference, "_LANDING_BLOCK", case["block"]):
            result = serve(
                OpenLoopTraffic(PoissonProcess(rate), mix, seed=case["seed"]),
                case["total"], spec, admission=admission,
                chunk_size=case["chunk"],
            )
        sides.append((
            # Past the policy's class name, which differs by design.
            fleet_state(result)[1:],
            (admission.offered, admission.admitted, admission.shed),
            repr(admission._rng.bit_generator.state),
        ))
    return sides


class TestAgainstTheReferenceLoop:
    @ORACLE_FUZZ
    @given(cases())
    def test_same_rows_counts_and_draws(self, mix, case):
        engine, reference = serve_both(mix, case)
        assert engine == reference

    @pytest.mark.parametrize("load", [0.9, 2.5])
    def test_watermark_exactly_on_a_depth(self, mix, load):
        """``low = 0.25`` of 4 slots is depth 1 and ``high = 0.75`` is
        depth 3: an arrival finding one request queued draws (shed
        probability 0) and one finding three is shed without a draw."""
        case = {
            "shards": 1, "cores": 2, "queue": 4, "steal": False,
            "policy": (QueueBackpressure, (0.25, 0.75)), "load": load,
            "total": 3_000, "block": 97, "chunk": 65_536, "seed": 11,
        }
        engine, reference = serve_both(mix, case)
        assert engine == reference
        assert engine[1][2] > 0  # the shed branch ran
