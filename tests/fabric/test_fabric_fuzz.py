"""Every request gets one fate, whatever the fabric, router and faults.

Small fabrics (2–4 shards of 1–2 cores), each router, schedules drawn
from shard kills, stalls and wire windows, served closed-loop and
through the gateway.  Derandomized, so tier-1 is deterministic.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import Outcome, OutcomeFlag
from repro.fabric import (
    Fabric,
    FailoverRouter,
    HashShardRouter,
    LeastLoadedShardRouter,
    ModelPlacement,
    SwitchShardRouter,
    kill_shard,
)
from repro.faults import FaultSchedule
from repro.traffic import (
    AcceptAll,
    AdmissionController,
    QueueBackpressure,
    serve_fabric_open_loop,
)

from ..test_ingress_fuzz import FUZZ as INGRESS_FUZZ
from .test_failover import make_dag, spec, trace

FUZZ = settings(INGRESS_FUZZ, max_examples=100)  # ~3 s: a fabric each
MODELS = (1, 2)
HEALTH_BLIND = ("least_loaded", "switch", "hash")
SPACING_S = 0.25e-6  # a quarter of a service time: queues form


@st.composite
def scenarios(draw) -> dict:
    cores = draw(st.lists(st.integers(1, 2), min_size=2, max_size=4))
    count = draw(st.integers(10, 40))
    instants = st.floats(0.0, count * SPACING_S)
    kills = st.tuples(st.integers(0, len(cores) - 1), instants)
    stalls = st.tuples(st.integers(0, sum(cores) - 1), instants)
    return {
        "cores": cores,
        "count": count,
        "kills": draw(st.lists(kills, max_size=2)),
        "stalls": draw(st.lists(stalls, max_size=2)),
        "wire_window": draw(st.booleans()),
        "router": draw(st.sampled_from(HEALTH_BLIND + ("failover",))),
        "replicas": draw(st.integers(1, 2)),
        "auto_heal": draw(st.booleans()),
        "seed": draw(st.integers(0, 99)),
    }


def build(scenario) -> tuple[Fabric, FaultSchedule, dict[int, int]]:
    """A fresh fabric, its schedule, and the router's last answer per
    request id (what a steal is measured against)."""
    kind, shards = scenario["router"], len(scenario["cores"])
    router = {
        "least_loaded": LeastLoadedShardRouter,
        "switch": lambda: SwitchShardRouter(shards),
        "hash": HashShardRouter,
        "failover": FailoverRouter,
    }[kind]()
    fabric = Fabric(
        [spec(cores, queue_capacity=4) for cores in scenario["cores"]],
        router=router,
        placement=(
            ModelPlacement(
                replicas=scenario["replicas"],
                auto_heal=scenario["auto_heal"],
                redeploy_latency_s=2 * SPACING_S,
            )
            if kind == "failover"
            else None
        ),
        concurrency="serial",
    )
    for model_id in MODELS:
        fabric.deploy(make_dag(model_id))
    schedule = FaultSchedule(seed=scenario["seed"])
    for shard, at_s in scenario["kills"]:
        kill_shard(schedule, fabric, shard, at_s)
    for core, at_s in scenario["stalls"]:
        schedule.core_stall(at_s, core=core, duration_s=4 * SPACING_S)
    if scenario["wire_window"]:
        schedule.frame_drop(0.0, duration_s=SPACING_S, probability=0.5)
    answers: dict[int, int] = {}
    route = router.route

    def recording(request, views):
        answers[request.request_id] = route(request, views)
        return answers[request.request_id]

    router.route = recording
    return fabric, schedule, answers


def check_every_request_has_one_fate(fabric, requests, result, answers):
    assert result.accounted()
    for shard in fabric.shards:
        shard.stats.accounted()
    table = result.outcomes
    # One row per offered request id — shed and failed-over ones too.
    ids = [request.request_id for request in table.request]
    assert Counter(ids) == Counter(r.request_id for r in requests)
    assert len(table) == result.offered == len(requests)
    assert np.bincount(table.fate, minlength=len(Outcome)).tolist() == [
        result.served, result.dropped, result.failed,
        result.unfinished, result.shed, result.failed_over,
    ]
    # Rows fated before any shard have none; every other row has one.
    upstream = np.isin(table.fate, [Outcome.SHED, Outcome.FAILED_OVER])
    assert ((table.shard < 0) == upstream).all()
    placed = {
        request.request_id
        for request in table.request[~upstream]
    }
    admitted = [r.request_id for r in requests if r.request_id in placed]
    placement = dict(zip(admitted, result.routed))
    # ``stolen`` counts the served rows among the flagged ones.
    stolen = np.flatnonzero(table.flags & OutcomeFlag.STOLEN)
    served = table.fate[stolen] == Outcome.SERVED
    assert result.stolen == np.count_nonzero(served) <= result.served
    for row in stolen.tolist():
        request_id = table.request[row].request_id
        assert placement[request_id] != answers[request_id]


@FUZZ
@given(scenarios())
def test_closed_loop_and_gateway_account_for_every_request(scenario):
    requests = trace(
        scenario["count"], SPACING_S, MODELS, seed=scenario["seed"]
    )

    def closed(fabric, schedule):
        return fabric.serve_trace(requests, fault_schedule=schedule)

    def gateway(policy, steal):
        def serve(fabric, schedule):
            return serve_fabric_open_loop(
                fabric,
                requests,
                AdmissionController(policy, seed=scenario["seed"]),
                steal=steal,
                fault_schedule=schedule,
            )

        return serve

    routed = {}
    for name, serve in (
        ("closed", closed),
        ("accept_all", gateway(AcceptAll(), steal=False)),
        ("backpressure", gateway(QueueBackpressure(), steal=True)),
    ):
        fabric, schedule, answers = build(scenario)
        result = serve(fabric, schedule)
        check_every_request_has_one_fate(fabric, requests, result, answers)
        routed[name] = result.routed
    if scenario["router"] in HEALTH_BLIND:
        assert routed["closed"] == routed["accept_all"]
