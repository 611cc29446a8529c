"""Open-loop traffic generation, admission control, and load campaigns.

The serving stack so far replays *closed* traces: a fixed request list,
every request eventually served.  Real NIC-attached inference is
*open-loop* — arrivals keep coming whether or not the fleet keeps up —
and the questions that matter are the ones closed traces cannot ask:
where does the latency knee sit, what does p999 do at 80% load, and
what sheds first when offered load exceeds capacity.

Three layers:

* :mod:`~repro.traffic.arrivals` / :mod:`~repro.traffic.mix` — seeded
  arrival processes (Poisson, bursty MMPP, heavy-tailed Pareto,
  diurnal modulation) zipped with a weighted model mix into chunked
  request streams, every draw from a keyed Philox substream.
* :mod:`~repro.traffic.admission` — admit-or-shed policies in front of
  the fleet (accept-all, queue-depth backpressure), with
  sheds charged to the global accounting invariant.
* :mod:`~repro.traffic.fleet` / :mod:`~repro.traffic.campaign` — the
  analytic open-loop fleet engine (10^6-request scale, O(1) memory)
  and the campaign driver that sweeps offered load into
  latency-vs-load SLO curves for Lightning vs the digital platforms.
"""

from .admission import (
    AcceptAll,
    AdmissionController,
    AdmissionPolicy,
    QueueBackpressure,
)
from .arrivals import (
    ADMIT_RNG_DOMAIN,
    ARRIVAL_RNG_DOMAIN,
    LEVELS_RNG_DOMAIN,
    MIX_RNG_DOMAIN,
    ArrivalProcess,
    ArrivalSampler,
    DiurnalModulation,
    MMPPProcess,
    ParetoProcess,
    PoissonProcess,
    substream,
)
from .campaign import (
    Campaign,
    CampaignPoint,
    CampaignReport,
)
from .fleet import (
    FleetResult,
    FleetSpec,
    fleet_capacity_rps,
    serve_open_loop,
)
from .gateway import probe_service_estimates, serve_fabric_open_loop
from .mix import ModelMix, OpenLoopTraffic, TrafficChunk
from .slo import SLOBook, SLOClass, SLOReport

__all__ = [
    "ARRIVAL_RNG_DOMAIN",
    "MIX_RNG_DOMAIN",
    "ADMIT_RNG_DOMAIN",
    "LEVELS_RNG_DOMAIN",
    "substream",
    "ArrivalSampler",
    "ArrivalProcess",
    "PoissonProcess",
    "MMPPProcess",
    "ParetoProcess",
    "DiurnalModulation",
    "ModelMix",
    "TrafficChunk",
    "OpenLoopTraffic",
    "AdmissionPolicy",
    "AcceptAll",
    "QueueBackpressure",
    "AdmissionController",
    "SLOClass",
    "SLOReport",
    "SLOBook",
    "FleetSpec",
    "FleetResult",
    "fleet_capacity_rps",
    "serve_open_loop",
    "probe_service_estimates",
    "serve_fabric_open_loop",
    "Campaign",
    "CampaignPoint",
    "CampaignReport",
]
