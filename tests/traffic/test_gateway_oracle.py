"""The gateway's pre-pass against its own earlier loop.

``gateway_reference.serve_fabric_open_loop`` is the pre-pass as it
stood before it did per arrival only what the arrival changed, over the
routing step, outage steps, routers and backpressure decision of that
time.  Every drawn case goes through both on twin fabrics: the placed
trace with its shards and flags, the rows fated upstream (shed and
failed over), the placement's heals, the admission counters and the
admission stream's generator state must all come out the same.
"""

from __future__ import annotations

from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ComputationDAG, LayerTask, LightningDatapath
from repro.core.energy import EnergyModel
from repro.core.stats import Outcome
from repro.fabric import (
    Fabric,
    FailoverRouter,
    HashShardRouter,
    LeastLoadedShardRouter,
    ModelPlacement,
    ShardSpec,
    kill_shard,
)
from repro.fabric import fabric as fabric_module
from repro.faults import FaultSchedule
from repro.photonics import BehavioralCore, CoreArchitecture, NoiselessModel
from repro.runtime.workload import poisson_trace
from repro.traffic import (
    AcceptAll,
    AdmissionController,
    QueueBackpressure,
    SLOBook,
    SLOClass,
    probe_service_estimates,
    serve_fabric_open_loop,
)

from . import gateway_reference

ORACLE_FUZZ = settings(
    max_examples=60, derandomize=True, deadline=None, database=None
)
MODEL_IDS = (1, 2, 3)


class TokenBucket:
    """An admission policy that decides from time and the views' usable
    cores, not from occupancy: a bucket refilled at ``rate`` tokens per
    second per usable core, ``depth`` tokens deep."""

    unconditional = False

    def __init__(self, rate: float, depth: float) -> None:
        self.rate = rate
        self.depth = depth
        self.reset()

    def reset(self) -> None:
        self.tokens = self.depth
        self.last_s = 0.0

    def admit(self, now_s, shards, rng) -> bool:
        usable = sum(
            view.num_cores if view.usable_cores is None
            else view.usable_cores
            for view in shards
        )
        self.tokens = min(
            self.depth,
            self.tokens + (now_s - self.last_s) * self.rate * usable,
        )
        self.last_s = now_s
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


def make_dag(model_id: int, width: int) -> ComputationDAG:
    rng = np.random.default_rng(model_id)
    half = max(width // 2, 1)
    return ComputationDAG(model_id, f"model-{model_id}", [
        LayerTask(
            name="fc1", kind="dense", input_size=width, output_size=half,
            weights_levels=rng.integers(-200, 201, (half, width)).astype(
                float
            ),
            nonlinearity="relu", requant_divisor=float(width),
        ),
        LayerTask(
            name="fc2", kind="dense", input_size=half, output_size=3,
            weights_levels=rng.integers(-200, 201, (3, half)).astype(
                float
            ),
            depends_on=("fc1",),
        ),
    ])


def shard_spec(num_cores: int, queue: int) -> ShardSpec:
    def factory(core: int) -> LightningDatapath:
        return LightningDatapath(core=BehavioralCore(
            architecture=CoreArchitecture(accumulation_wavelengths=2),
            noise=NoiselessModel(),
        ))

    return ShardSpec(
        num_cores=num_cores, datapath_factory=factory, queue_capacity=queue
    )


@st.composite
def cases(draw) -> dict:
    shards = draw(st.integers(2, 4))
    router = draw(st.sampled_from(("least", "hash", "failover")))
    placed = router == "failover" or draw(st.booleans())
    return {
        "cores": [draw(st.integers(1, 2)) for _ in range(shards)],
        "queue": draw(st.integers(1, 6)),
        "widths": [draw(st.integers(4, 24)) for _ in MODEL_IDS],
        "router": router,
        "inner": draw(st.sampled_from(("least", "hash"))),
        "watermark": draw(st.sampled_from((0.5, 0.95, 1.0))),
        "placement": (
            (
                draw(st.integers(1, shards)),
                draw(st.booleans()),
                draw(st.sampled_from((0.0, 2e-6, 2e-5))),
            )
            if placed
            else None
        ),
        "admission": draw(st.sampled_from(("all", "backpressure", "bucket"))),
        "marks": sorted(draw(st.lists(
            st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True
        ))),
        "bucket": (draw(st.floats(0.2, 2.0)), draw(st.floats(1.0, 8.0))),
        "kills": draw(st.lists(
            st.tuples(st.integers(0, shards - 1), st.floats(0.0, 1.0)),
            max_size=3,
        )),
        "stalls": draw(st.lists(
            st.tuples(st.integers(0, 7), st.floats(0.0, 1.0),
                      st.floats(0.01, 0.5)),
            max_size=3,
        )),
        "drift": draw(st.booleans()),
        "deadlines": [
            draw(st.one_of(st.none(), st.floats(1.0, 20.0)))
            for _ in MODEL_IDS
        ],
        "budgets": [
            draw(st.one_of(st.none(), st.floats(0.2, 3.0)))
            for _ in MODEL_IDS
        ],
        "priced": draw(st.booleans()),
        "steal": draw(st.booleans()),
        "load": draw(st.floats(0.3, 3.0)),
        "total": draw(st.integers(1, 300)),
        "seed": draw(st.integers(0, 99)),
    }


def build(case: dict, reference: bool) -> Fabric:
    """One of the twin fabrics: the reference one routes with the
    routers as they stood."""
    least = (
        gateway_reference.ReferenceLeastLoaded if reference
        else LeastLoadedShardRouter
    )
    placement = (
        None if case["placement"] is None
        else ModelPlacement(
            replicas=case["placement"][0],
            auto_heal=case["placement"][1],
            redeploy_latency_s=case["placement"][2],
        )
    )
    if case["router"] == "least":
        router = least()
    elif case["router"] == "hash":
        router = HashShardRouter()
    else:
        inner = least() if case["inner"] == "least" else HashShardRouter()
        failover = (
            gateway_reference.ReferenceFailover if reference
            else FailoverRouter
        )
        router = failover(
            inner, placement=placement, queue_watermark=case["watermark"]
        )
    fabric = Fabric(
        [shard_spec(cores, case["queue"]) for cores in case["cores"]],
        router=router,
        placement=placement,
    )
    for model_id, width in zip(MODEL_IDS, case["widths"]):
        fabric.deploy(make_dag(model_id, width))
    return fabric


def controller(case: dict, reference: bool) -> AdmissionController:
    low, high = case["marks"]
    if case["admission"] == "all":
        policy = AcceptAll()
    elif case["admission"] == "backpressure":
        backpressure = (
            gateway_reference.ReferenceBackpressure if reference
            else QueueBackpressure
        )
        policy = backpressure(low, high)
    else:
        policy = TokenBucket(*case["bucket"])
    return AdmissionController(policy, seed=case["seed"], stream=(3,))


def serve_kwargs(case: dict, fabric: Fabric, service_s: float) -> dict:
    """The fault schedule and SLO book, scaled to the trace."""
    horizon = service_s * case["total"] / (
        case["load"] * fabric.total_cores
    )
    schedule = FaultSchedule(seed=case["seed"])
    for shard, at in case["kills"]:
        kill_shard(schedule, fabric, shard, at * horizon)
    for core, at, duration in case["stalls"]:
        schedule.core_stall(
            at * horizon, core % fabric.total_cores, duration * horizon
        )
    if case["drift"]:
        schedule.mzm_bias_drift(0.1 * horizon, 0, volts_per_s=3000.0)
    book = SLOBook()
    for model_id, deadline, budget in zip(
        MODEL_IDS, case["deadlines"], case["budgets"]
    ):
        if deadline is not None:
            book.assign(model_id, SLOClass(
                f"class-{model_id}", deadline * service_s,
                None if budget is None else budget * service_s * 2.0,
            ))
    return {
        "fault_schedule": schedule,
        "slo_book": book,
        "energy_model": EnergyModel.lightning() if case["priced"] else None,
    }


def plain(state):
    """A generator state with its arrays as lists (comparable by ==)."""
    if isinstance(state, dict):
        return {key: plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def decisions(routing, fabric: Fabric, admission) -> dict:
    placement = fabric.placement
    return {
        "placed": [request.request_id for request in routing.trace],
        "routed": list(routing.routed),
        "flags": [int(flag) for flag in routing.flags],
        "rows": [
            (row[0].request_id, int(row[1]), int(row[2]), int(row[3]))
            for row in routing.rows._rows
        ],
        "heals": [] if placement is None else list(placement.heals),
        "admission": (
            admission.offered,
            admission.admitted,
            admission.shed,
            dict(admission.shed_reasons),
        ),
        "state": plain(admission._rng.bit_generator.state),
    }


def serve_both(case: dict) -> tuple[dict, dict]:
    outcomes = []
    for reference in (True, False):
        fabric = build(case, reference)
        estimates = probe_service_estimates(fabric)
        service_s = float(np.mean(
            [v for per in estimates for v in per.values()]
        ))
        dags = [make_dag(m, w) for m, w in zip(MODEL_IDS, case["widths"])]
        trace = poisson_trace(
            dags,
            case["load"] * fabric.total_cores / service_s,
            case["total"],
            seed=case["seed"],
        )
        admission = controller(case, reference)
        kwargs = serve_kwargs(case, fabric, service_s)
        if reference:
            routing = gateway_reference.serve_fabric_open_loop(
                fabric, trace, admission, case["steal"], **kwargs
            )
        else:
            with patch.object(
                fabric_module._Routing, "serve", lambda self, **kw: self
            ):
                routing = serve_fabric_open_loop(
                    fabric, trace, admission, case["steal"], **kwargs
                )
        outcomes.append(decisions(routing, fabric, admission))
    return outcomes[0], outcomes[1]


@ORACLE_FUZZ
@given(case=cases())
def test_the_pre_pass_decides_as_it_did(case):
    reference, gateway = serve_both(case)
    assert gateway == reference


def test_a_fixed_case_reaches_every_fate():
    """The compared quantities are not vacuous: on this case the
    pre-pass sheds for admission and budget, fails over, heals and
    flags placements."""
    case = {
        "cores": [2, 1, 2], "queue": 3, "widths": [8, 16, 24],
        "router": "failover", "inner": "least", "watermark": 0.5,
        "placement": (2, True, 2e-5), "admission": "backpressure",
        "marks": [0.5, 0.9], "bucket": (1.0, 4.0),
        "kills": [(0, 0.6), (1, 0.8)], "stalls": [(3, 0.2, 0.2)],
        "drift": True, "deadlines": [3.0, 6.0, None],
        "budgets": [None, 0.5, None], "priced": True, "steal": True,
        "load": 2.5, "total": 300, "seed": 4,
    }
    reference, gateway = serve_both(case)
    assert gateway == reference
    assert {row[1] for row in gateway["rows"]} == {
        int(Outcome.SHED), int(Outcome.FAILED_OVER)
    }
    assert len({row[2] for row in gateway["rows"]}) >= 3
    assert gateway["heals"]
    assert any(gateway["flags"])
